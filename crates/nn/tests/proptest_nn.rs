//! Property-based tests for the nn crate: algebraic identities on matrices,
//! gradient checking across random ReLU architectures, and optimizer
//! invariants.

mod support;

use nn::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use support::{check_mlp_gradients, Selected};

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
        relu_output in proptest::bool::ANY,
        seed in 0u64..10_000,
    ) {
        // ReLU hidden layers, an identity or a ReLU output (the dueling
        // trunk), the selected-output Huber loss with targets wide enough
        // that errors fall on both sides of δ. Entries whose difference
        // window straddles a kink are skipped; at most a third may be.
        let mut config = MlpConfig::new(input_dim, &hidden, output_dim);
        if relu_output {
            config = config.output_activation(Activation::Relu);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Mlp::new(&config, &mut rng);
        use rand::Rng as _;
        let x = Matrix::from_fn(2, input_dim, |_, _| rng.gen_range(-1.0f32..1.0));
        let selected: Vec<usize> = (0..2).map(|_| rng.gen_range(0..output_dim)).collect();
        let targets: Vec<f32> = (0..2).map(|_| rng.gen_range(-3.0f32..3.0)).collect();
        let loss = Selected { selected: &selected, targets: &targets, loss: Loss::Huber(1.0) };
        let report = check_mlp_gradients(&mut net, &x, loss, 1e-2);
        prop_assert!(report.passes(3e-2), "gradcheck report {:?}", report);
        prop_assert!(report.skipped_share() <= 1.0 / 3.0, "gradcheck report {:?}", report);
    }

    #[test]
    fn training_never_produces_non_finite_params(seed in 0u64..10_000) {
        let config = MlpConfig::new(3, &[8], 2);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Mlp::new(&config, &mut rng);
        let mut adam = OptimizerConfig::adam(0.01).build();
        use rand::Rng as _;
        for _ in 0..50 {
            let x = Matrix::from_fn(8, 3, |_, _| rng.gen_range(-3.0f32..3.0));
            let selected: Vec<usize> = (0..8).map(|_| rng.gen_range(0..2)).collect();
            let targets: Vec<f32> = (0..8).map(|_| rng.gen_range(-3.0f32..3.0)).collect();
            net.train_selected(&x, &selected, &targets, None, Loss::Huber(1.0), &mut adam, Some(10.0));
        }
        prop_assert!(!net.has_non_finite_params());
    }
}

/// The storage contract every `Matrix` operation keeps: the shape and data
/// of a plain `Vec<f32>` model, with non-empty data on a 64-byte boundary.
fn assert_matches_model(
    m: &Matrix,
    (rows, cols, data): &(usize, usize, Vec<f32>),
    step: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(m.shape(), (*rows, *cols), "{}: shape", step);
    prop_assert_eq!(m.as_slice(), data.as_slice(), "{}: data", step);
    if !m.is_empty() {
        prop_assert_eq!(
            m.as_slice().as_ptr() as usize % 64,
            0,
            "{}: data is not on a 64-byte boundary",
            step
        );
    }
    Ok(())
}

/// `rows x cols` values drawn from `seed`, three in ten of them zero so
/// the products' zero-skip runs too.
fn seeded(rows: usize, cols: usize, seed: u64) -> Vec<f32> {
    use rand::Rng as _;
    let mut rng = StdRng::seed_from_u64(seed);
    (0..rows * cols)
        .map(|_| {
            if rng.gen::<f32>() < 0.3 {
                0.0
            } else {
                rng.gen_range(-4.0f32..4.0)
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// One matrix carried through a random sequence of every operation
    /// that shapes or refills storage, shrinking and growing past its
    /// allocation, checked against a `Vec<f32>` model after each step.
    #[test]
    fn storage_stays_aligned_and_equal_to_a_vec_model(
        ops in proptest::collection::vec((0u8..10, 0usize..40, 0usize..40, 0u64..1000), 1..24)
    ) {
        let mut m = Matrix::default();
        let mut model = (0usize, 0usize, Vec::new());
        for (i, &(op, r, c, seed)) in ops.iter().enumerate() {
            let step = format!("step {i}: op {op} ({r}x{c})");
            match op {
                0 => {
                    m = Matrix::zeros(r, c);
                    model = (r, c, vec![0.0; r * c]);
                }
                1 => {
                    // A fresh `Vec` sits wherever the allocator put it,
                    // usually off a 64-byte boundary.
                    let data = seeded(r, c, seed);
                    m = Matrix::from_vec(r, c, data.clone());
                    model = (r, c, data);
                }
                2 => m = m.clone(),
                3 => {
                    let data = seeded(r, c, seed);
                    m.copy_from(&Matrix::from_vec(r, c, data.clone()));
                    model = (r, c, data);
                }
                4 => {
                    m.reset_zeroed(r, c);
                    model = (r, c, vec![0.0; r * c]);
                }
                5 => {
                    m.reset_for_overwrite(r, c);
                    if model.2.len() != r * c {
                        model.2 = vec![0.0; r * c];
                    }
                    model = (r, c, model.2);
                }
                6 => {
                    // Reserve for half the rows, then push them all.
                    let data = seeded(r, c, seed);
                    m.begin_rows(r / 2, c);
                    for row in data.chunks(c.max(1)).take(r) {
                        m.push_row(row);
                    }
                    let rows = if c == 0 { 0 } else { r };
                    model = (rows, c, data);
                }
                7 => {
                    let data = seeded(1, c, seed);
                    m.set_row_vector(&data);
                    model = (1, c, data);
                }
                8 => {
                    let src = Matrix::from_vec(r, c, seeded(r, c, seed));
                    src.transpose_into(&mut m);
                    let mut data = Vec::with_capacity(r * c);
                    for j in 0..c {
                        data.extend((0..r).map(|k| src.get(k, j)));
                    }
                    model = (c, r, data);
                }
                _ => {
                    let k = (seed % 40) as usize;
                    let a = Matrix::from_vec(r, k, seeded(r, k, seed));
                    let b = Matrix::from_vec(k, c, seeded(k, c, seed + 1));
                    a.matmul_into(&b, &mut m);
                    model = (r, c, nn::tensor::reference::matmul(&a, &b).as_slice().to_vec());
                }
            }
            assert_matches_model(&m, &model, &step)?;
        }
    }
}
