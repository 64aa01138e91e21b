//! The one path outcomes take out of the engine: [`Simulation::note`].

use super::*;

/// One outcome leaving the engine, at the clock's current instant.
/// `replacement` marks a disrupted flow's retry, which the slot record
/// counts as a replacement, not as an arrival, acceptance or rejection.
pub(super) enum Note<'a> {
    Requested {
        request: &'a Request,
        replacement: bool,
    },
    Admitted {
        id: RequestId,
        latency_ms: f64,
        sla_violated: bool,
        replacement: bool,
    },
    Rejected {
        id: RequestId,
        replacement: bool,
    },
    Completed(RequestId),
    Disrupted(RequestId),
    /// The open slot's record, completed by billing.
    SlotBilled(SlotRecord),
}

impl Note<'_> {
    /// The note for the outcome of request `id`'s placement episode.
    pub(super) fn decided(id: RequestId, outcome: &PlacementOutcome, replacement: bool) -> Self {
        match *outcome {
            PlacementOutcome::Accepted {
                latency_ms,
                sla_violated,
            } => Note::Admitted {
                id,
                latency_ms,
                sla_violated,
                replacement,
            },
            PlacementOutcome::Rejected => Note::Rejected { id, replacement },
        }
    }
}

impl Simulation {
    /// The only code in `core::sim` that feeds the sink's hooks, pushes
    /// into the metrics collector, or counts into the open slot's record
    /// (`./verify.sh lint`'s `one_observation_path` checks the first two).
    pub(super) fn note(&mut self, note: Note<'_>) {
        if let Some(sink) = self.telemetry.as_mut() {
            let now = self.queue.now().ms();
            match &note {
                Note::Requested {
                    request,
                    replacement,
                } => sink.on_requested(now, request, *replacement),
                Note::Admitted { id, latency_ms, .. } => sink.on_admitted(*id, now, *latency_ms),
                Note::Rejected { id, .. } => sink.on_rejected(*id, now),
                Note::Completed(id) => sink.on_completed(*id, now),
                Note::Disrupted(id) => sink.on_disrupted(*id, now),
                Note::SlotBilled(record) => sink.on_slot_billed(record, self.slot_ms),
            }
        }
        let open = &mut self.open_slot;
        match note {
            Note::Requested { replacement, .. } => open.arrivals += u32::from(!replacement),
            Note::Admitted {
                latency_ms,
                sla_violated,
                replacement,
                ..
            } => {
                self.metrics.push_admission_latency(latency_ms);
                if replacement {
                    open.flows_replaced += 1;
                } else {
                    open.accepted += 1;
                    open.sla_violations += u32::from(sla_violated);
                }
            }
            Note::Rejected { replacement, .. } => open.rejected += u32::from(!replacement),
            Note::Completed(_) => {}
            Note::Disrupted(_) => open.flows_disrupted += 1,
            Note::SlotBilled(record) => self.metrics.push_slot(record),
        }
    }
}
