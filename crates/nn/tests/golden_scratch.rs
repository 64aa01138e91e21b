//! Golden-equality suite for the scratch-buffer execution path.
//!
//! The allocation-free kernels and `_into` APIs must reproduce the
//! pre-optimization allocate-per-call pipeline **bit for bit** — the
//! historical kernels are preserved verbatim in [`nn::tensor::reference`]
//! as the oracle. Every comparison here is exact (`assert_eq!` on raw
//! `f32` buffers), not approximate: the perf rewrite is required to change
//! no numerics.

use nn::activation::Activation;
use nn::init::Init;
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

#[test]
fn blocked_kernels_match_reference_bitwise() {
    let mut rng = StdRng::seed_from_u64(42);
    // Shapes straddling the unroll width (8), the register block (4), and
    // the K block (64): remainders on every path get exercised. The four
    // rows from (8, 20, 16) reach the 8x16 register tile of every product
    // (output m >= 8 and n >= 16) — exact tile grids, row tails, column
    // tails, and both at once. The last three are the learn step's dL/dW
    // products (contraction over the 32 batch rows): 74 rows leave a
    // two-row tail, 10 columns are narrower than a tile. Every shape runs
    // at the encoder's ~30% zeros and at the ~50% a ReLU layer hands on.
    for &zero_share in &[0.3f32, 0.5] {
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
        ] {
            let a = sparse_random_with(m, k, zero_share, &mut rng);
            let b = sparse_random_with(k, n, zero_share, &mut rng);
            assert_eq!(
                a.matmul(&b),
                reference::matmul(&a, &b),
                "matmul {m}x{k}*{k}x{n}"
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

#[test]
fn into_kernels_reuse_buffers_without_contamination() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut out = Matrix::default();
    // Alternate shapes through ONE output buffer; stale contents from a
    // larger previous result must never leak into a smaller one.
    for &(m, k, n) in &[
        (8usize, 16usize, 12usize),
        (2, 3, 4),
        (8, 16, 12),
        (1, 1, 1),
    ] {
        let a = sparse_random(m, k, &mut rng);
        let b = sparse_random(k, n, &mut rng);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, reference::matmul(&a, &b));
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

/// The pre-optimization dense forward pass, reconstructed from reference
/// kernels: allocate-per-call matmul + broadcast + activation.
fn reference_forward(layers: &[Dense], input: &Matrix) -> Matrix {
    let mut x = input.clone();
    for layer in layers {
        let z = reference::add_row_broadcast(&reference::matmul(&x, layer.weights()), layer.bias());
        x = layer.activation().apply(&z);
    }
    x
}

fn test_net(rng: &mut StdRng) -> Mlp {
    let config = MlpConfig::new(9, &[16, 12], 5)
        .hidden_activation(Activation::Relu)
        .init(Init::HeUniform);
    Mlp::new(&config, rng)
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
        assert_eq!(net.forward(&x), expected, "allocating forward");
        assert_eq!(
            *net.forward_into(&x, &mut ws),
            expected,
            "workspace forward"
        );
        let row = net.forward_one_into(x.row(0), &mut ws).to_vec();
        let single = reference_forward(net.layers(), &Matrix::row_vector(x.row(0)));
        assert_eq!(row, single.row(0).to_vec(), "single-row forward");
        assert_eq!(net.forward_one(x.row(0)), row, "allocating forward_one");
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
        let a = layer.activation().apply(&z);
        caches.push((x.clone(), z));
        x = a;
    }
    // Backward in reverse.
    let mut grads = vec![(Matrix::default(), Matrix::default()); layers.len()];
    let mut g = grad_output.clone();
    for (i, layer) in layers.iter().enumerate().rev() {
        let (cache_in, z) = &caches[i];
        let grad_z = g.hadamard(&layer.activation().derivative(z));
        grads[i] = (reference::tmatmul(cache_in, &grad_z), grad_z.col_sum());
        g = reference::matmul_t(&grad_z, layer.weights());
    }
    grads
}

#[test]
fn backward_matches_reference_bitwise() {
    let mut rng = StdRng::seed_from_u64(321);
    let mut net = test_net(&mut rng);
    for &batch in &[4usize, 1, 16] {
        let x = sparse_random(batch, 9, &mut rng);
        let grad_out = sparse_random(batch, 5, &mut rng);
        let expected = reference_backward(net.layers(), &x, &grad_out);

        let _ = net.forward_train(&x);
        net.backward(&grad_out);
        let got = net.drain_gradients();
        for (l, ((gw, gb), (ew, eb))) in got.iter().zip(expected.iter()).enumerate() {
            assert_eq!(gw, ew, "layer {l} dW (batch {batch})");
            assert_eq!(gb, eb, "layer {l} db (batch {batch})");
        }
    }
}

/// One `Dense` at the learn step's first-layer shape (32 x 74 -> 128, ReLU,
/// half-zero input): forward_train -> backward must hand back the
/// gradients of `reference::tmatmul` / `reference::matmul_t`, cold and
/// then again on a warm cache and scratch.
#[test]
fn dense_backward_at_learn_step_shape_matches_reference_bitwise() {
    let mut rng = StdRng::seed_from_u64(74);
    let mut layer = Dense::new(74, 128, Activation::Relu, Init::HeUniform, &mut rng);
    let x = sparse_random_with(32, 74, 0.5, &mut rng);
    let grad_out = sparse_random(32, 128, &mut rng);

    let (expected_dw, expected_db) =
        reference_backward(std::slice::from_ref(&layer), &x, &grad_out).remove(0);
    let z = reference::add_row_broadcast(&reference::matmul(&x, layer.weights()), layer.bias());
    let grad_z = grad_out.hadamard(&layer.activation().derivative(&z));
    let expected_dx = reference::matmul_t(&grad_z, layer.weights());

    for pass in 0..2 {
        let _ = layer.forward_train(&x);
        let grad_in = layer.backward(&grad_out);
        let (dw, db) = layer.take_gradients();
        assert_eq!(dw, expected_dw, "dL/dW, pass {pass}");
        assert_eq!(db, expected_db, "dL/db, pass {pass}");
        assert_eq!(grad_in, expected_dx, "dL/dx, pass {pass}");
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
        let (_, grad) = loss.evaluate_selected(&pred, &selected, &targets, None);
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
