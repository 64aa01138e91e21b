//! Golden-equality suite for the agent-level scratch paths: the
//! workspace-routed `act_greedy` / `q_values_into` and the batched learn
//! step on warm, resized buffers must be bit-identical to the same calls on
//! a fresh workspace, under heavy interleaving (warm, resized scratch
//! buffers are the point).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rl::dqn::{DqnAgent, DqnConfig};
use rl::env::masked_argmax;
use rl::qnet::{QNetWorkspace, QNetwork, QNetworkConfig};
use rl::schedule::EpsilonSchedule;
use rl::transition::Transition;

/// Q-values of one state, through a fresh workspace.
fn q_values(net: &QNetwork, state: &[f32]) -> Vec<f32> {
    net.q_values_into(state, &mut QNetWorkspace::new()).to_vec()
}

fn random_state(dim: usize, rng: &mut StdRng) -> Vec<f32> {
    (0..dim)
        .map(|_| {
            if rng.gen::<f32>() < 0.4 {
                0.0
            } else {
                rng.gen_range(-1.0..1.0)
            }
        })
        .collect()
}

#[test]
fn act_greedy_matches_allocating_q_values_under_interleaving() {
    for network in [
        QNetworkConfig::Standard {
            hidden: vec![32, 16],
        },
        QNetworkConfig::Dueling {
            trunk: vec![16],
            head: 8,
        },
    ] {
        let mut rng = StdRng::seed_from_u64(2024);
        let config = DqnConfig {
            network,
            replay_capacity: 256,
            batch_size: 8,
            learn_start: 8,
            epsilon: EpsilonSchedule::Constant(0.0),
            ..DqnConfig::default()
        };
        let mut agent = DqnAgent::new(config, 9, 4, &mut rng);
        let mask = vec![true, false, true, true];
        for i in 0..60 {
            let s = random_state(9, &mut rng);
            // The same forward on a fresh workspace.
            let q_alloc = q_values(agent.online_network(), &s);
            // Workspace path, with learn steps interleaved so the scratch
            // matrices keep getting resized between 1-row and batched use.
            let choice = agent.act_greedy(&s, &mask);
            assert_eq!(
                Some(choice),
                masked_argmax(&q_alloc, &mask),
                "workspace argmax diverged from a fresh workspace at step {i}"
            );
            let t = Transition::new(s.clone(), choice, 0.5, s, i % 5 == 0);
            agent.observe(t, &mut rng);
        }
        assert!(
            agent.learn_steps() > 0,
            "interleaving must include learning"
        );
    }
}

#[test]
fn batched_forward_into_matches_allocating_forward() {
    let mut rng = StdRng::seed_from_u64(77);
    let net = QNetwork::new(
        &QNetworkConfig::Dueling {
            trunk: vec![12, 8],
            head: 6,
        },
        7,
        5,
        &mut rng,
    );
    let mut ws = QNetWorkspace::new();
    for &batch in &[1usize, 16, 3, 16, 1] {
        let states = nn::tensor::Matrix::from_fn(batch, 7, |_, _| rng.gen_range(-1.0..1.0));
        let expected = net.forward_into(&states, &mut QNetWorkspace::new()).clone();
        assert_eq!(*net.forward_into(&states, &mut ws), expected);
        // Single-row path against the matching batched row.
        let row = net.q_values_into(states.row(0), &mut ws).to_vec();
        assert_eq!(row, q_values(&net, states.row(0)));
    }
}

/// One full train step through `learn()` is deterministic and independent
/// of scratch warm-up: a freshly cloned agent (cold buffers) and an agent
/// that has already run learn steps (warm, previously resized buffers)
/// must produce bit-identical Q-values when stepped with the same RNG.
#[test]
fn learn_step_is_bit_identical_between_cold_and_warm_scratch() {
    let mut rng = StdRng::seed_from_u64(5150);
    let config = DqnConfig {
        network: QNetworkConfig::Standard { hidden: vec![24] },
        replay_capacity: 128,
        batch_size: 16,
        learn_start: 16,
        epsilon: EpsilonSchedule::Constant(0.3),
        ..DqnConfig::default()
    };
    let mut warm = DqnAgent::new(config, 6, 3, &mut rng);
    for i in 0..40 {
        let s = random_state(6, &mut rng);
        let t = Transition::new(s.clone(), i % 3, -0.25 * (i % 4) as f32, s, i % 7 == 0);
        warm.observe(t, &mut rng);
    }
    // Clone carries parameters, replay, and optimizer state; its scratch is
    // whatever the clone produces — the learn result must not depend on it.
    let mut cold = warm.clone();
    let mut rng_a = StdRng::seed_from_u64(31337);
    let mut rng_b = rng_a.clone();
    let stats_warm = warm.learn(&mut rng_a);
    let stats_cold = cold.learn(&mut rng_b);
    assert_eq!(stats_warm.loss.to_bits(), stats_cold.loss.to_bits());
    assert_eq!(
        stats_warm.mean_abs_td.to_bits(),
        stats_cold.mean_abs_td.to_bits()
    );
    let probe = random_state(6, &mut StdRng::seed_from_u64(9));
    assert_eq!(
        q_values(warm.online_network(), &probe),
        q_values(cold.online_network(), &probe)
    );
}

/// FNV-1a over the bits of every parameter of a standard Q-network:
/// layer by layer, weights then bias, row-major.
fn parameter_digest(net: &QNetwork) -> u64 {
    let QNetwork::Standard(mlp) = net else {
        panic!("the pinned agent is a standard Q-network");
    };
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for layer in mlp.layers() {
        for &x in layer
            .weights()
            .as_slice()
            .iter()
            .chain(layer.bias().as_slice())
        {
            for byte in x.to_bits().to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    hash
}

/// Every parameter bit after 320 learn steps at the headline shape
/// (74 → 128 → 128 → 10, batch 32, double DQN, Adam, Huber) on one fixed
/// replay of 600 transitions, a third of them terminal. The steps run past
/// step 165, where Adam's first bias correction `1 − 0.9ᵗ` rounds to
/// exactly `1.0`, so both sides of that point are pinned. The two clip
/// limits are the headline's 10, which no step reaches, and 0.25, which
/// some steps exceed and some do not; the two digests differ, so the clip
/// fired. The literals come from the plain forms (the exact norm taken
/// every step, Adam dividing by both corrections every step, transposes
/// copied one float at a time); no shortcut may move a bit of them.
#[test]
fn learn_steps_on_a_fixed_replay_pin_every_parameter_bit() {
    const STATE_DIM: usize = 74;
    const ACTIONS: usize = 10;
    let mut digests = Vec::new();
    for (limit, expected) in [
        (10.0f32, 0x9660_7d9b_a740_9d72u64),
        (0.25, 0xa295_2848_e270_c107),
    ] {
        let mut rng = StdRng::seed_from_u64(4545);
        let config = DqnConfig {
            network: QNetworkConfig::Standard {
                hidden: vec![128, 128],
            },
            max_grad_norm: Some(limit),
            learn_start: usize::MAX,
            ..DqnConfig::default()
        };
        let mut agent = DqnAgent::new(config, STATE_DIM, ACTIONS, &mut rng);
        for i in 0..600 {
            let mask: Vec<bool> = (0..ACTIONS).map(|a| a == 0 || (i + a) % 3 != 0).collect();
            let t = Transition::with_mask(
                random_state(STATE_DIM, &mut rng),
                i % ACTIONS,
                rng.gen_range(-1.0..0.0),
                random_state(STATE_DIM, &mut rng),
                i % 3 == 0,
                mask,
            );
            agent.observe(t, &mut rng);
        }
        for _ in 0..320 {
            agent.learn(&mut rng);
        }
        let digest = parameter_digest(agent.online_network());
        println!("max_grad_norm {limit}: {digest:#018x}");
        assert_eq!(digest, expected, "max_grad_norm {limit}");
        digests.push(digest);
    }
    assert_ne!(digests[0], digests[1], "the small limit must clip");
}
