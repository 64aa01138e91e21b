//! Every parameter bit after a fixed run of learn steps, for the agent
//! variants `golden_hotpath.rs` does not pin: a dueling Q-network (whose
//! three sub-networks share one optimizer step) and a standard network
//! learning from prioritized replay. The literals were taken before the
//! replay store shared state rows and before the dueling update stopped
//! cloning its gradients; neither change may move a bit of them.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rl::dqn::{DqnAgent, DqnConfig};
use rl::qnet::{QNetwork, QNetworkConfig};
use rl::replay::PerConfig;
use rl::transition::Transition;

const STATE_DIM: usize = 21;
const ACTIONS: usize = 6;

fn random_state(rng: &mut StdRng) -> Vec<f32> {
    (0..STATE_DIM)
        .map(|_| {
            if rng.gen::<f32>() < 0.4 {
                0.0
            } else {
                rng.gen_range(-1.0..1.0)
            }
        })
        .collect()
}

/// FNV-1a over the bits of every parameter: sub-network by sub-network
/// (trunk, value, advantage for a dueling network), layer by layer,
/// weights then bias, row-major.
fn parameter_digest(net: &QNetwork) -> u64 {
    let subnets = match net {
        QNetwork::Standard(mlp) => vec![mlp],
        QNetwork::Dueling {
            trunk,
            value,
            advantage,
            ..
        } => vec![trunk, value, advantage],
    };
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for layer in subnets.iter().flat_map(|mlp| mlp.layers()) {
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

/// Feeds 400 transitions the way the engine does — a non-terminal
/// transition's next state is the state of the transition after it — but
/// with every fifth non-terminal next state replaced by a fresh one, then
/// takes `steps` learn steps and digests the online network.
fn run(config: DqnConfig, seed: u64, steps: usize) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut agent = DqnAgent::new(config, STATE_DIM, ACTIONS, &mut rng);
    let mut state = random_state(&mut rng);
    for i in 0..400 {
        let following = random_state(&mut rng);
        let done = i % 4 == 3;
        let next = if i % 5 == 0 {
            random_state(&mut rng)
        } else {
            following.clone()
        };
        let mask: Vec<bool> = (0..ACTIONS).map(|a| a == 0 || (i + a) % 3 != 0).collect();
        let t = Transition::with_mask(
            std::mem::replace(&mut state, following),
            i % ACTIONS,
            rng.gen_range(-1.0..0.5),
            next,
            done,
            mask,
        );
        assert!(agent.observe(t, &mut rng).is_none());
    }
    for _ in 0..steps {
        agent.learn(&mut rng);
    }
    parameter_digest(agent.online_network())
}

/// A dueling agent after 64 learn steps, at a clip limit no step reaches
/// (10) and at one where the trunk's norm exceeds it on 63 of the 64
/// steps and each head's on about half (0.4; the two digests differ, so
/// it fired). Each sub-network is clipped on its own norm.
#[test]
fn dueling_learn_steps_pin_every_parameter_bit() {
    let mut digests = Vec::new();
    for (limit, expected) in [
        (10.0f32, 0x59d2_955a_6e04_3094u64),
        (0.4, 0x510a_2a55_c824_7746),
    ] {
        let config = DqnConfig {
            network: QNetworkConfig::Dueling {
                trunk: vec![48, 32],
                head: 16,
            },
            max_grad_norm: Some(limit),
            batch_size: 16,
            learn_start: usize::MAX,
            ..DqnConfig::default()
        };
        let digest = run(config, 4646, 64);
        println!("dueling, max_grad_norm {limit}: {digest:#018x}");
        assert_eq!(digest, expected, "max_grad_norm {limit}");
        digests.push(digest);
    }
    assert_ne!(digests[0], digests[1], "the small limit must clip");
}

/// A standard agent learning from prioritized replay: the sampled ids,
/// their importance weights and the priority updates all reach the
/// parameters.
#[test]
fn prioritized_learn_steps_pin_every_parameter_bit() {
    let config = DqnConfig {
        network: QNetworkConfig::Standard {
            hidden: vec![32, 32],
        },
        batch_size: 16,
        replay_capacity: 300,
        learn_start: usize::MAX,
        prioritized: Some(PerConfig::default()),
        ..DqnConfig::default()
    };
    let digest = run(config, 4747, 96);
    println!("prioritized: {digest:#018x}");
    assert_eq!(digest, 0x964b_52bc_5cec_ca04);
}
