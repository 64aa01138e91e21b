//! Golden-equality suite for the scratch-buffer execution path.
//!
//! The allocation-free kernels and `_into` APIs must reproduce the
//! pre-optimization allocate-per-call pipeline **bit for bit** — the
//! historical kernels are preserved verbatim in [`nn::tensor::reference`]
//! as the oracle. Every comparison here is exact (`assert_eq!` on raw
//! `f32` buffers), not approximate: the perf rewrite is required to change
//! no numerics.

use nn::activation::Activation;
use nn::linear::Dense;
use nn::loss::Loss;
use nn::mlp::{Mlp, MlpConfig, Workspace};
use nn::optimizer::{clip_global_norm, OptimizerConfig};
use nn::tensor::{reference, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random matrix with zeros sprinkled in (~30%), so the reference kernels'
/// historical `a == 0.0` skip branch actually fires during comparison.
fn sparse_random(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    sparse_random_with(rows, cols, 0.3, rng)
}

/// [`sparse_random`] with a chosen share of zeros.
fn sparse_random_with(rows: usize, cols: usize, zero_share: f32, rng: &mut StdRng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| {
        if rng.gen::<f32>() < zero_share {
            0.0
        } else {
            rng.gen_range(-2.0..2.0)
        }
    })
}

/// The ReLU epilogue handed to the fused kernel.
fn relu(z: f32) -> f32 {
    Activation::Relu.apply_scalar(z)
}

#[test]
fn blocked_kernels_match_reference_bitwise() {
    let mut rng = StdRng::seed_from_u64(42);
    // Shapes on both sides of every split the kernel makes: each strip
    // width (128, 64, 32, 16) alone, in sequence and with a narrower last
    // strip, outputs under 16 columns, one row and many, and contractions
    // around the 64-index chunk of the strips' non-zero mask. (74, 32, 128),
    // (128, 32, 128) and (128, 32, 10) are the learn step's dL/dW products
    // (contraction over the 32 batch rows). The block from (1, 128, 11) is
    // the serving shape: the DQN's single-row layers, the 14 rows a served
    // wave carries, the 11-wide Q layer at batch size, a 300-long
    // contraction whose 200 columns split into 128 + 64 + 8, and the empty
    // products. Every shape runs at the encoder's ~30% zeros, at the ~50% a
    // ReLU layer hands on, and at the two ends: a dense left operand (no
    // skip ever fires) and an all-zero one (every one does).
    for &zero_share in &[0.3f32, 0.5, 0.0, 1.0] {
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (1, 74, 128),
            (3, 8, 8),
            (5, 7, 9),
            (32, 128, 10),
            (4, 130, 67),
            (2, 64, 4),
            (8, 20, 16),
            (16, 70, 33),
            (9, 64, 17),
            (24, 5, 40),
            (74, 32, 128),
            (128, 32, 128),
            (128, 32, 10),
            (1, 128, 11),
            (1, 128, 128),
            (14, 128, 128),
            (14, 128, 11),
            (32, 128, 11),
            (1, 300, 200),
            (3, 0, 5),
            (0, 4, 5),
            (4, 5, 0),
        ] {
            let a = sparse_random_with(m, k, zero_share, &mut rng);
            let b = sparse_random_with(k, n, zero_share, &mut rng);
            assert_eq!(
                a.matmul(&b),
                reference::matmul(&a, &b),
                "matmul {m}x{k}*{k}x{n}"
            );
            let bias = sparse_random_with(1, n, zero_share, &mut rng);
            let mut fused = Matrix::default();
            a.matmul_bias_map_into(&b, &bias, relu, &mut fused);
            assert_eq!(
                fused,
                reference::add_row_broadcast(&reference::matmul(&a, &b), &bias).map(relu),
                "fused matmul {m}x{k}*{k}x{n}"
            );

            let at = sparse_random_with(k, m, zero_share, &mut rng);
            assert_eq!(
                at.tmatmul(&b),
                reference::tmatmul(&at, &b),
                "tmatmul ({k}x{m})T*{k}x{n}"
            );

            let bt = sparse_random_with(n, k, zero_share, &mut rng);
            assert_eq!(
                a.matmul_t(&bt),
                reference::matmul_t(&a, &bt),
                "matmul_t {m}x{k}*({n}x{k})T"
            );
        }
    }
}

/// Compares raw bits, so `NaN` equals `NaN` and `-0.0` differs from `+0.0`.
fn assert_bits_eq(got: &Matrix, expected: &Matrix, what: &str) {
    assert_eq!(got.shape(), expected.shape(), "{what}: shape");
    let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(got), bits(expected), "{what}");
}

/// What the strips skip: a row of nothing but zeros, `-0.0` inputs, and
/// non-finite weights that only zero inputs touch. Every product is strips
/// and nothing else, whatever its shape, so all of them must equal
/// `reference::matmul`, skip for skip.
#[test]
fn strips_skip_zero_inputs_like_the_reference() {
    let mut rng = StdRng::seed_from_u64(5);

    // An all-zero input row yields `+0.0` (then bias + epilogue) whatever
    // the weights, here beside a non-zero row in one three-row product.
    let mut a = sparse_random(3, 70, &mut rng);
    a.row_mut(1).fill(0.0);
    let b = sparse_random(70, 150, &mut rng);
    let bias = sparse_random(1, 150, &mut rng);
    let expected = reference::matmul(&a, &b);
    assert!(expected.row(1).iter().all(|v| v.to_bits() == 0));
    assert_bits_eq(&a.matmul(&b), &expected, "all-zero row");
    let mut fused = Matrix::default();
    a.matmul_bias_map_into(&b, &bias, relu, &mut fused);
    assert_bits_eq(
        &fused,
        &reference::add_row_broadcast(&expected, &bias).map(relu),
        "all-zero row, fused",
    );

    // `-0.0` is skipped like `+0.0`: the poisoned weight rows it would
    // multiply never reach an accumulator.
    // The shapes from 8 rows x 16 columns up are the ones a dense
    // 8 x 16 register tile used to take, multiplying the zeros and so
    // carrying the poison into the output.
    let poison = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
    for &(m, n) in &[
        (2usize, 11usize),
        (2, 128),
        (2, 200),
        (8, 16),
        (14, 128),
        (32, 200),
    ] {
        // Two distinct zero patterns, alternating by row, which leave every
        // third `k` zero in all rows.
        let a = Matrix::from_fn(m, 130, |r, c| match (r % 2 + c) % 3 {
            0 => -0.0,
            1 => 0.0,
            _ => (c as f32 - 60.0) * 0.125,
        });
        // Weight row `k` is non-finite wherever some input row has a zero
        // at `k` and no input row has a non-zero there.
        let b = Matrix::from_fn(130, n, |k, c| {
            if (0..m).all(|r| a.get(r, k) == 0.0) {
                poison[(k + c) % 3]
            } else {
                ((k * n + c) % 17) as f32 * 0.25 - 2.0
            }
        });
        assert!(b.has_non_finite());
        let expected = reference::matmul(&a, &b);
        assert!(!expected.has_non_finite(), "oracle skipped the poison");
        let what = format!("non-finite under zeros, {m}x130*130x{n}");
        assert_bits_eq(&a.matmul(&b), &expected, &what);
    }

    // A non-finite weight under a *non-zero* input does propagate, and to
    // the same bits as in the oracle (NaN payloads included).
    let a = Matrix::row_vector(&[0.0, 1.5, -0.0, -2.0]);
    let b = Matrix::from_fn(4, 20, |k, c| match (k, c % 4) {
        (0, _) | (2, _) => f32::NAN,
        (1 | 3, 0) => f32::INFINITY,
        (3, 1) => f32::NAN,
        _ => (k + c) as f32,
    });
    let expected = reference::matmul(&a, &b);
    assert!(expected.has_non_finite());
    assert_bits_eq(&a.matmul(&b), &expected, "non-finite under non-zeros");
}

#[test]
fn into_kernels_reuse_buffers_without_contamination() {
    let mut rng = StdRng::seed_from_u64(7);
    // Alternate shapes through ONE output buffer per kernel. The products
    // keep `out`'s stale contents whenever the element count is unchanged
    // and rely on storing every element exactly once. So the buffers start
    // as NaN at the first product's size, the same element count comes
    // back under other shapes (14x128 again, then 128x14: one narrow strip
    // per row), and larger -> smaller -> larger runs sit in between.
    let mut out = Matrix::full(14, 128, f32::NAN);
    let mut fused = out.clone();
    for &(m, k, n) in &[
        (14usize, 128usize, 128usize),
        (14, 74, 128),
        (128, 32, 14),
        (8, 16, 12),
        (2, 3, 4),
        (8, 16, 12),
        (1, 1, 1),
        (14, 128, 128),
        (1, 128, 11),
        (9, 20, 33),
        (1, 74, 128),
        (1, 128, 128),
        (32, 128, 11),
    ] {
        let a = sparse_random(m, k, &mut rng);
        let b = sparse_random(k, n, &mut rng);
        let bias = sparse_random(1, n, &mut rng);
        let expected = reference::matmul(&a, &b);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, expected, "matmul_into {m}x{k}*{k}x{n}");
        a.matmul_bias_map_into(&b, &bias, relu, &mut fused);
        assert_eq!(
            fused,
            reference::add_row_broadcast(&expected, &bias).map(relu),
            "matmul_bias_map_into {m}x{k}*{k}x{n}"
        );
    }
}

#[test]
fn broadcast_assign_matches_reference() {
    let mut rng = StdRng::seed_from_u64(11);
    let a = sparse_random(6, 10, &mut rng);
    let bias = sparse_random(1, 10, &mut rng);
    assert_eq!(
        a.add_row_broadcast(&bias),
        reference::add_row_broadcast(&a, &bias)
    );
}

/// The pre-optimization activation pass: `f(z)` as a fresh matrix.
fn apply(act: Activation, z: &Matrix) -> Matrix {
    match act {
        Activation::Identity => z.clone(),
        Activation::Relu => z.map(|v| if v > 0.0 { v } else { 0.0 }),
    }
}

/// The pre-optimization activation derivative: `f'(z)` materialized.
fn derivative(act: Activation, z: &Matrix) -> Matrix {
    match act {
        Activation::Identity => Matrix::full(z.rows(), z.cols(), 1.0),
        Activation::Relu => z.map(|v| if v > 0.0 { 1.0 } else { 0.0 }),
    }
}

/// The pre-optimization dense forward pass, reconstructed from reference
/// kernels: allocate-per-call matmul + broadcast + activation.
fn reference_forward(layers: &[Dense], input: &Matrix) -> Matrix {
    let mut x = input.clone();
    for layer in layers {
        let z = reference::add_row_broadcast(&reference::matmul(&x, layer.weights()), layer.bias());
        x = apply(layer.activation(), &z);
    }
    x
}

fn test_net(rng: &mut StdRng) -> Mlp {
    Mlp::new(&MlpConfig::new(9, &[16, 12], 5), rng)
}

#[test]
fn forward_paths_are_bit_identical() {
    let mut rng = StdRng::seed_from_u64(123);
    let net = test_net(&mut rng);
    let mut ws = Workspace::new();
    // Interleave batch sizes through one workspace: resizing scratch
    // between 1-row action inference and 32-row training batches must not
    // perturb a single bit.
    for &batch in &[1usize, 32, 1, 4, 32, 1] {
        let x = sparse_random(batch, 9, &mut rng);
        let expected = reference_forward(net.layers(), &x);
        assert_eq!(
            *net.forward_into(&x, &mut Workspace::new()),
            expected,
            "fresh-workspace forward"
        );
        assert_eq!(
            *net.forward_into(&x, &mut ws),
            expected,
            "workspace forward"
        );
        let row = net.forward_one_into(x.row(0), &mut ws).to_vec();
        let single = reference_forward(net.layers(), &Matrix::row_vector(x.row(0)));
        assert_eq!(row, single.row(0).to_vec(), "single-row forward");
        assert_eq!(
            net.forward_one_into(x.row(0), &mut Workspace::new()),
            row,
            "fresh-workspace single-row forward"
        );
    }
}

/// Reference backward for one supervised step: the pre-optimization
/// per-layer pipeline (materialized derivative, hadamard, reference
/// matmuls), returning `(dW, db)` per layer in layer order.
fn reference_backward(
    layers: &[Dense],
    input: &Matrix,
    grad_output: &Matrix,
) -> Vec<(Matrix, Matrix)> {
    // Forward, caching input and pre-activation per layer.
    let mut x = input.clone();
    let mut caches = Vec::new();
    for layer in layers {
        let z = reference::add_row_broadcast(&reference::matmul(&x, layer.weights()), layer.bias());
        let a = apply(layer.activation(), &z);
        caches.push((x.clone(), z));
        x = a;
    }
    // Backward in reverse.
    let mut grads = vec![(Matrix::default(), Matrix::default()); layers.len()];
    let mut g = grad_output.clone();
    for (i, layer) in layers.iter().enumerate().rev() {
        let (cache_in, z) = &caches[i];
        let grad_z = g.hadamard(&derivative(layer.activation(), z));
        grads[i] = (reference::tmatmul(cache_in, &grad_z), grad_z.col_sum());
        g = reference::matmul_t(&grad_z, layer.weights());
    }
    grads
}

#[test]
fn backward_matches_reference_bitwise() {
    let mut rng = StdRng::seed_from_u64(321);
    let mut net = test_net(&mut rng);
    // Applying each batch's gradients clears them for the next, whose
    // reference is taken on the parameters as they then are.
    let mut sgd = OptimizerConfig::sgd(0.01).build();
    for &batch in &[4usize, 1, 16] {
        let x = sparse_random(batch, 9, &mut rng);
        let grad_out = sparse_random(batch, 5, &mut rng);
        let expected = reference_backward(net.layers(), &x, &grad_out);

        net.forward_train_scratch(&x);
        net.backward(&grad_out);
        for (l, (layer, (ew, eb))) in net.layers().iter().zip(expected.iter()).enumerate() {
            let (gw, gb) = layer.gradients().expect("backward left gradients");
            assert_eq!(gw, ew, "layer {l} dW (batch {batch})");
            assert_eq!(gb, eb, "layer {l} db (batch {batch})");
        }
        net.apply_gradients(&mut sgd, None);
    }
}

/// One `Dense` at the learn step's first-layer shape (32 x 74 -> 128, ReLU,
/// half-zero input), the one layer of a ReLU-output network: forward_train
/// -> backward must hand back the gradients of `reference::tmatmul` /
/// `reference::matmul_t`, cold and then again on a warm cache and scratch
/// (the update between the passes clears the gradients and moves the
/// parameters the second reference is taken on).
#[test]
fn dense_backward_at_learn_step_shape_matches_reference_bitwise() {
    let mut rng = StdRng::seed_from_u64(74);
    let config = MlpConfig::new(74, &[], 128).output_activation(Activation::Relu);
    let mut net = Mlp::new(&config, &mut rng);
    let x = sparse_random_with(32, 74, 0.5, &mut rng);
    let grad_out = sparse_random(32, 128, &mut rng);
    let mut sgd = OptimizerConfig::sgd(0.01).build();

    for pass in 0..2 {
        let layer = &net.layers()[0];
        let (expected_dw, expected_db) =
            reference_backward(std::slice::from_ref(layer), &x, &grad_out).remove(0);
        let z = reference::add_row_broadcast(&reference::matmul(&x, layer.weights()), layer.bias());
        let grad_z = grad_out.hadamard(&derivative(layer.activation(), &z));
        let expected_dx = reference::matmul_t(&grad_z, layer.weights());

        net.forward_train_scratch(&x);
        let grad_in = net.backward(&grad_out).clone();
        let (dw, db) = net.layers()[0]
            .gradients()
            .expect("backward left gradients");
        assert_eq!(*dw, expected_dw, "dL/dW, pass {pass}");
        assert_eq!(*db, expected_db, "dL/db, pass {pass}");
        assert_eq!(grad_in, expected_dx, "dL/dx, pass {pass}");
        net.apply_gradients(&mut sgd, None);
    }
}

/// One full DQN-style train step (`train_selected`: the core of
/// `DqnAgent::learn`) against the pre-optimization pipeline replayed with
/// reference kernels: forward, selected loss, backward, global-norm clip,
/// Adam update. Parameters must match bit for bit afterwards.
#[test]
fn train_selected_step_matches_reference_bitwise() {
    let mut rng = StdRng::seed_from_u64(999);
    let mut net = test_net(&mut rng);
    let max_norm = 10.0f32;
    let loss = Loss::Huber(1.0);

    // Snapshot initial parameters for the reference update.
    let mut ref_params: Vec<(Matrix, Matrix)> = net
        .layers()
        .iter()
        .map(|l| (l.weights().clone(), l.bias().clone()))
        .collect();
    let mut ref_opt = OptimizerConfig::adam(1e-3).build();
    let mut opt = OptimizerConfig::adam(1e-3).build();

    // Two consecutive steps: the second runs entirely on warm scratch and
    // a stateful optimizer, the strongest contamination check.
    for step in 0..2 {
        let x = sparse_random(8, 9, &mut rng);
        let selected: Vec<usize> = (0..8).map(|r| r % 5).collect();
        let targets: Vec<f32> = (0..8).map(|r| (r as f32 - 4.0) * 0.3).collect();

        // Reference pipeline on the snapshot.
        let ref_layers: Vec<Dense> = ref_params
            .iter()
            .zip(net.layers().iter())
            .map(|((w, b), l)| Dense::from_parameters(w.clone(), b.clone(), l.activation()))
            .collect();
        let pred = reference_forward(&ref_layers, &x);
        let mut grad = Matrix::default();
        loss.evaluate_selected_into(&pred, &selected, &targets, None, &mut grad);
        let mut expected_grads = reference_backward(&ref_layers, &x, &grad);
        {
            let mut refs: Vec<&mut Matrix> = Vec::new();
            for (gw, gb) in expected_grads.iter_mut() {
                refs.push(gw);
                refs.push(gb);
            }
            clip_global_norm(&mut refs, max_norm);
        }
        ref_opt.begin_step();
        for (i, ((w, b), (gw, gb))) in ref_params.iter_mut().zip(expected_grads.iter()).enumerate()
        {
            ref_opt.update(2 * i, w, gw);
            ref_opt.update(2 * i + 1, b, gb);
        }

        // Optimized pipeline.
        let (_, td) = net.train_selected(
            &x,
            &selected,
            &targets,
            None,
            loss,
            &mut opt,
            Some(max_norm),
        );
        assert_eq!(td.len(), 8);

        for (l, ((w, b), layer)) in ref_params.iter().zip(net.layers().iter()).enumerate() {
            assert_eq!(layer.weights(), w, "layer {l} weights after step {step}");
            assert_eq!(layer.bias(), b, "layer {l} bias after step {step}");
        }
    }
}
