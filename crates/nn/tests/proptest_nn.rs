//! Property-based tests for the nn crate: algebraic identities on matrices,
//! gradient checking across random architectures, and optimizer invariants.

use nn::gradcheck::check_mlp_gradients;
use nn::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_dim() -> impl Strategy<Value = usize> {
    1usize..6
}

/// Dimensions on both sides of the 16-lane strip and of the 16 x 16
/// transpose block, so a whole strip, a narrower last strip and a partial
/// block of the pack-transposed products all get random coverage.
fn strip_dim() -> impl Strategy<Value = usize> {
    1usize..24
}

fn finite_f32() -> impl Strategy<Value = f32> {
    (-100.0f32..100.0).prop_map(|v| (v * 100.0).round() / 100.0)
}

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(finite_f32(), rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_associative_with_identity((r, c) in (small_dim(), small_dim()), seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng as _;
        let a = Matrix::from_fn(r, c, |_, _| rng.gen_range(-1.0f32..1.0));
        prop_assert_eq!(a.matmul(&Matrix::eye(c)), a.clone());
        prop_assert_eq!(Matrix::eye(r).matmul(&a), a);
    }

    #[test]
    fn transpose_involution((r, c) in (small_dim(), small_dim()), seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng as _;
        let a = Matrix::from_fn(r, c, |_, _| rng.gen_range(-5.0f32..5.0));
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn tmatmul_and_matmul_t_agree_with_explicit((m, k, n) in (strip_dim(), strip_dim(), strip_dim()), seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng as _;
        let a = Matrix::from_fn(k, m, |_, _| rng.gen_range(-2.0f32..2.0));
        let b = Matrix::from_fn(k, n, |_, _| rng.gen_range(-2.0f32..2.0));
        let direct = a.tmatmul(&b);
        let explicit = a.transpose().matmul(&b);
        for i in 0..direct.rows() {
            for j in 0..direct.cols() {
                prop_assert!((direct.get(i, j) - explicit.get(i, j)).abs() < 1e-4);
            }
        }
        let c = Matrix::from_fn(m, k, |_, _| rng.gen_range(-2.0f32..2.0));
        let d = Matrix::from_fn(n, k, |_, _| rng.gen_range(-2.0f32..2.0));
        let direct2 = c.matmul_t(&d);
        let explicit2 = c.matmul(&d.transpose());
        for i in 0..direct2.rows() {
            for j in 0..direct2.cols() {
                prop_assert!((direct2.get(i, j) - explicit2.get(i, j)).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn add_sub_round_trip(rows in small_dim(), cols in small_dim(), seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng as _;
        let a = Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-10.0f32..10.0));
        let b = Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-10.0f32..10.0));
        let back = a.add(&b).sub(&b);
        for i in 0..rows {
            for j in 0..cols {
                prop_assert!((back.get(i, j) - a.get(i, j)).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn col_sum_equals_manual(rows in 1usize..5, cols in 1usize..5, m in matrix(3, 3).prop_map(|m| m)) {
        // Use fixed 3x3 matrix regardless of rows/cols draw to keep strategy
        // composition simple; rows/cols exercise other shapes below.
        let s = m.col_sum();
        for c in 0..3 {
            let manual: f32 = (0..3).map(|r| m.get(r, c)).sum();
            prop_assert!((s.get(0, c) - manual).abs() < 1e-4);
        }
        let z = Matrix::zeros(rows, cols);
        prop_assert_eq!(z.col_sum(), Matrix::zeros(1, cols));
    }
}

proptest! {
    // Gradient checks are expensive — fewer cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_architectures_pass_gradcheck(
        input_dim in 1usize..5,
        hidden in proptest::collection::vec(1usize..8, 0..3),
        output_dim in 1usize..4,
        act_pick in 0u8..2,
        seed in 0u64..10_000,
    ) {
        // Only smooth activations here: finite differences straddling the
        // (Leaky)ReLU kink legitimately disagree with the one-sided analytic
        // derivative. The kinked activations are gradient-checked at
        // kink-free points in nn::gradcheck's unit tests.
        let act = match act_pick {
            0 => Activation::Tanh,
            _ => Activation::Sigmoid,
        };
        let config = MlpConfig::new(input_dim, &hidden, output_dim)
            .hidden_activation(act)
            .init(Init::XavierUniform);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Mlp::new(&config, &mut rng);
        use rand::Rng as _;
        let x = Matrix::from_fn(2, input_dim, |_, _| rng.gen_range(-1.0f32..1.0));
        let t = Matrix::from_fn(2, output_dim, |_, _| rng.gen_range(-1.0f32..1.0));
        let report = check_mlp_gradients(&mut net, &x, &t, Loss::Mse, 1e-2);
        prop_assert!(report.passes(3e-2), "gradcheck report {:?}", report);
    }

    #[test]
    fn training_never_produces_non_finite_params(seed in 0u64..10_000) {
        let config = MlpConfig::new(3, &[8], 2);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut model = TrainableMlp::new(
            &config,
            OptimizerConfig::adam(0.01),
            Loss::Huber(1.0),
            Some(10.0),
            &mut rng,
        );
        use rand::Rng as _;
        for _ in 0..50 {
            let x = Matrix::from_fn(8, 3, |_, _| rng.gen_range(-3.0f32..3.0));
            let y = Matrix::from_fn(8, 2, |_, _| rng.gen_range(-3.0f32..3.0));
            model.step(&x, &y);
        }
        prop_assert!(!model.net.has_non_finite_params());
    }

    #[test]
    fn soft_update_converges_to_source(seed in 0u64..10_000) {
        let config = MlpConfig::new(2, &[4], 2);
        let mut rng = StdRng::seed_from_u64(seed);
        let source = Mlp::new(&config, &mut rng);
        let mut target = Mlp::new(&config, &mut StdRng::seed_from_u64(seed.wrapping_add(1)));
        for _ in 0..200 {
            target.soft_update_from(&source, 0.1);
        }
        let x = Matrix::from_rows(&[&[0.3, -0.3]]);
        let a = source.forward(&x);
        let b = target.forward(&x);
        for c in 0..2 {
            prop_assert!((a.get(0, c) - b.get(0, c)).abs() < 1e-3);
        }
    }
}
