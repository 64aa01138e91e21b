//! The policy server: ONE policy with its warm inference workspace on a
//! dedicated thread, answering decision requests from any number of
//! concurrent simulations with one fused batched forward per tick.
//!
//! Tick model: the server blocks until at least one decision wave is
//! queued, drains whatever has accumulated (up to `TICK_CAPACITY`
//! waves), concatenates every wave's rows into one matrix, runs ONE
//! `greedy_batch` forward, and replies by ticket — each wave gets its
//! row-slice of the fused answer back in one message. There is no timer
//! — a tick is "everything pending now" — so a lone simulation degrades
//! gracefully to per-wave batches while 8 busy simulations fuse into
//! 8x-wider forwards. The kernel takes a forward row by row, so width
//! buys fewer dispatches and hand-overs per decision, not cheaper rows
//! (`docs/serving.md`, "Measured").
//!
//! Determinism contract: a row's greedy action is a pure function of its
//! (state, mask) bits — batch composition cannot change it, because the
//! batched kernels are row-independent and batch-size invariant (pinned
//! by the nn golden suite and the serve parity tests). Scheduling only
//! decides *which* rows share a forward, never what any row's answer is,
//! so every simulation's run is bit-identical to the same run served
//! in-process, for any thread count.

use crate::ring::{ring, RingSender};
use mano::prelude::PlacementPolicy;
use nn::tensor::Matrix;
use std::sync::mpsc;
use std::thread::JoinHandle;

/// Most decision waves fused into one tick's forward (each wave carries
/// one simulation's pending rows). Not a knob: fusion width buys no
/// arithmetic, only fewer dispatches, and no fleet here comes near it.
const TICK_CAPACITY: usize = 256;

/// Server knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Bounded ring depth: how many decision waves may queue before
    /// producers block (backpressure).
    pub queue_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 1024,
        }
    }
}

/// One pending decision *wave*: a whole wavefront of frozen observations
/// plus the reply route. Shipping the wave as one request (rather than a
/// request per row) is what keeps the ring off the per-decision critical
/// path — one send and one reply amortize over every row in the wave.
pub struct DecisionRequest {
    /// Client-assigned correlation id, echoed in the [`Decision`].
    pub ticket: u64,
    /// Encoded observations, one row per pending decision.
    pub states: Matrix,
    /// Row-major valid-action masks (`masks.len() / states.rows()` =
    /// action count; last index per row = reject).
    pub masks: Vec<bool>,
    /// Where the decisions go back to.
    pub reply: mpsc::Sender<Decision>,
}

/// A served decision wave.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decision {
    /// Echo of [`DecisionRequest::ticket`].
    pub ticket: u64,
    /// Selected encoded action indices, one per request row.
    pub actions: Vec<usize>,
}

/// Serving counters, returned by [`PolicyServer::shutdown`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Decisions served.
    pub decisions: u64,
    /// Fused forwards run.
    pub ticks: u64,
    /// Widest single tick (rows in one forward).
    pub max_rows_per_tick: u64,
}

impl ServeStats {
    /// Mean rows fused per forward.
    pub fn mean_rows_per_tick(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            self.decisions as f64 / self.ticks as f64
        }
    }
}

/// Handle to a running policy server. Dropping it without
/// [`PolicyServer::shutdown`] also stops the server (and discards stats).
pub struct PolicyServer {
    sender: Option<RingSender<DecisionRequest>>,
    handle: Option<JoinHandle<ServeStats>>,
}

impl PolicyServer {
    /// Spawns the serving thread around `policy` (switched to frozen
    /// evaluation mode).
    ///
    /// # Panics
    ///
    /// Panics if the policy cannot answer batched greedy queries
    /// ([`PlacementPolicy::supports_greedy_batch`]).
    pub fn spawn<P>(mut policy: P, config: ServeConfig) -> Self
    where
        P: PlacementPolicy + Send + 'static,
    {
        policy.set_training(false);
        assert!(
            policy.supports_greedy_batch(),
            "policy server requires a batch-capable policy (got {})",
            policy.name()
        );
        let (sender, receiver) = ring::<DecisionRequest>(config.queue_capacity);
        let handle = std::thread::spawn(move || {
            let mut pending: Vec<DecisionRequest> = Vec::with_capacity(TICK_CAPACITY);
            let mut states = Matrix::default();
            let mut masks: Vec<bool> = Vec::new();
            let mut actions: Vec<usize> = Vec::new();
            let mut stats = ServeStats::default();
            while receiver.recv_batch(TICK_CAPACITY, &mut pending) {
                let dim = pending[0].states.cols();
                let stride = pending[0].masks.len() / pending[0].states.rows().max(1);
                let total_rows: usize = pending.iter().map(|req| req.states.rows()).sum();
                states.begin_rows(total_rows, dim);
                masks.clear();
                for req in &pending {
                    assert_eq!(
                        req.states.cols(),
                        dim,
                        "all simulations served by one policy share its encoder"
                    );
                    assert_eq!(
                        req.masks.len(),
                        req.states.rows() * stride,
                        "all simulations served by one policy share its action space"
                    );
                    for r in 0..req.states.rows() {
                        states.push_row(req.states.row(r));
                    }
                    masks.extend_from_slice(&req.masks);
                }
                actions.clear();
                policy.greedy_batch(&states, &masks, &mut actions);
                stats.ticks += 1;
                stats.decisions += total_rows as u64;
                stats.max_rows_per_tick = stats.max_rows_per_tick.max(total_rows as u64);
                let mut offset = 0usize;
                for req in &pending {
                    let rows = req.states.rows();
                    // A client that gave up (dropped its receiver) is fine.
                    let _ = req.reply.send(Decision {
                        ticket: req.ticket,
                        actions: actions[offset..offset + rows].to_vec(),
                    });
                    offset += rows;
                }
                pending.clear();
            }
            stats
        });
        Self {
            sender: Some(sender),
            handle: Some(handle),
        }
    }

    /// A fresh producer handle for one simulation/client thread.
    pub fn client_sender(&self) -> RingSender<DecisionRequest> {
        self.sender.as_ref().expect("server not shut down").clone()
    }

    /// Stops the server once every outstanding client sender is dropped,
    /// and returns the serving counters.
    ///
    /// Call this *after* dropping all clients — the server thread only
    /// exits when the last sender is gone.
    pub fn shutdown(mut self) -> ServeStats {
        self.sender.take(); // drop the prototype sender
        self.handle
            .take()
            .expect("server not shut down")
            .join()
            .expect("serve thread panicked")
    }
}

impl Drop for PolicyServer {
    fn drop(&mut self) {
        self.sender.take();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}
