//! Snapshot-commit decisions ([`DecisionSemantics::SlotSnapshot`]): plan an
//! arrival group against one frozen world, then apply it in arrival order.

use super::*;

/// One planned decision of a slot-snapshot group: the action the policy
/// chose against the frozen group-start world, the frozen step reward,
/// and the row of [`GroupPlans::states`] holding the frozen observation
/// (training feedback replays it during the apply phase).
#[derive(Debug, Clone, Copy)]
struct PlannedStep {
    /// Row into [`GroupPlans::states`] / [`GroupPlans::masks`].
    row: usize,
    /// Encoded action index (node or reject).
    action_index: usize,
    /// Step reward from the frozen candidates' marginals (the reject
    /// reward for a planned rejection; completion/conflict adjustments
    /// land at apply time).
    reward: f32,
}

/// One arrival's plan under [`DecisionSemantics::SlotSnapshot`].
#[derive(Debug, Default, Clone)]
struct ArrivalPlan {
    /// One planned decision per chain position reached (the last one is
    /// the reject decision when `rejected`).
    steps: Vec<PlannedStep>,
    /// The policy chose reject at the final planned position.
    rejected: bool,
}

/// A slot-snapshot group's jointly planned decisions: every arrival of
/// the group is decided against ONE frozen group-start world, chain
/// positions batched into wavefronts (one fused `greedy_batch` forward
/// per position when the policy batches). The apply phase then replays
/// the plans against the mutating world in arrival order.
#[derive(Default)]
pub(super) struct GroupPlans {
    /// Whether the plans cover the currently pending arrival group.
    valid: bool,
    /// Frozen observations, one row per planned decision (width 0 for a
    /// policy that reads no state).
    states: Matrix,
    /// Row-major masks parallel to `states` (`action_space.len()` each).
    masks: Vec<bool>,
    /// Per-arrival plans, indexed like the arrival group.
    plans: Vec<ArrivalPlan>,
    /// Wave staging: the wave's candidate marginal latencies/costs,
    /// row-major per live arrival (`node_count` entries each).
    cand_lat: Vec<f64>,
    cand_cost: Vec<f64>,
    /// Wave staging: arrival indices still planning, and the next wave's.
    live: Vec<usize>,
    next_live: Vec<usize>,
    /// Wave staging: per-arrival episode cursor (current node, latency
    /// consumed so far under the frozen marginals).
    at_nodes: Vec<NodeId>,
    consumed: Vec<f64>,
    /// Wave staging: the wave's encoded states (one live arrival per
    /// row), row-major masks and the policy's selected action per row.
    wave_states: Matrix,
    wave_masks: Vec<bool>,
    wave_actions: Vec<usize>,
}

impl Simulation {
    /// Whether `chain[position]` can commit at `node` right now with
    /// traffic arriving from `at_node` — the snapshot apply-phase
    /// re-check, mirroring the feasibility rule of
    /// [`Simulation::candidates_into`] (reachability plus
    /// reuse-or-spawn headroom) against the *current* world.
    fn step_feasible(
        &self,
        chain: &ChainSpec,
        position: usize,
        at_node: NodeId,
        node: NodeId,
    ) -> bool {
        let vnf = self.vnfs.get(chain.vnfs[position]);
        let alive = self.network.node_alive(node) && self.network.node_alive(at_node);
        if !alive || (at_node != node && !self.network.routes().reachable(at_node, node)) {
            return false;
        }
        self.reusable_instance(vnf, chain, node).is_some()
            || self
                .network
                .ledger()
                .fits(node, &self.pool.used_on(node), &vnf.demand)
    }

    /// Plans a slot-snapshot arrival group: every chain position of every
    /// arrival is decided against the FROZEN world as it stands at the
    /// group's start — nothing commits here. Positions advance as a
    /// wavefront: all live arrivals' position-`p` decisions are assembled
    /// into one batch and answered by a single fused `greedy_batch`
    /// forward (or per-decision `decide` calls in arrival order for
    /// policies that cannot batch). The world is frozen, so no row of a
    /// wave can invalidate another.
    fn plan_group_snapshot(
        &mut self,
        arrivals: &[Request],
        policy: &mut dyn PlacementPolicy,
        rng: &mut StdRng,
    ) {
        let mut plans = std::mem::take(&mut self.scratch.plans);
        plans.valid = false;
        for plan in plans.plans.iter_mut() {
            plan.steps.clear();
            plan.rejected = false;
        }
        plans
            .plans
            .resize_with(arrivals.len(), ArrivalPlan::default);
        let stride = self.action_space.len();
        let node_count = self.network.topology().node_count();
        // A policy that reads no state plans on width-0 state rows.
        let encode = policy.reads_state();
        let dim = if encode { self.encoder.dim() } else { 0 };
        let total_rows: usize = arrivals
            .iter()
            .map(|r| self.chains.get(r.chain).len())
            .sum();
        plans.states.begin_rows(total_rows, dim);
        plans.masks.clear();
        plans.live.clear();
        plans.live.extend(0..arrivals.len());
        plans.at_nodes.clear();
        plans.at_nodes.extend(arrivals.iter().map(|r| r.source));
        plans.consumed.clear();
        plans.consumed.resize(arrivals.len(), 0.0);

        let use_batch = policy.supports_greedy_batch();
        let mut position = 0usize;
        while !plans.live.is_empty() {
            plans.wave_states.begin_rows(plans.live.len(), dim);
            plans.wave_masks.clear();
            plans.wave_actions.clear();
            plans.cand_lat.clear();
            plans.cand_cost.clear();
            // Every row is built against the frozen world, in arrival
            // order. A policy that batches answers the assembled wave
            // with ONE fused forward; any other decides each row's
            // context as it is built.
            for w in 0..plans.live.len() {
                let i = plans.live[w];
                let mut ctx = self.take_ctx(&arrivals[i]);
                self.fill_context(
                    &mut ctx,
                    position,
                    plans.at_nodes[i],
                    plans.consumed[i],
                    encode,
                );
                if !use_batch {
                    let action = policy.decide(&ctx, rng);
                    self.metrics.count_decisions(1);
                    plans.wave_actions.push(self.action_space.encode(action));
                }
                plans.wave_states.push_row(&ctx.encoded_state);
                plans.wave_masks.extend_from_slice(&ctx.mask);
                plans
                    .cand_lat
                    .extend(ctx.candidates.iter().map(|c| c.marginal_latency_ms));
                plans
                    .cand_cost
                    .extend(ctx.candidates.iter().map(|c| c.marginal_cost_usd));
                self.scratch.ctx = Some(ctx);
            }
            if use_batch {
                policy.greedy_batch(
                    &plans.wave_states,
                    &plans.wave_masks,
                    &mut plans.wave_actions,
                );
                self.metrics.count_decisions(plans.live.len() as u64);
            }
            // Record the wave and advance the surviving episodes.
            plans.next_live.clear();
            for w in 0..plans.live.len() {
                let i = plans.live[w];
                let action_index = plans.wave_actions[w];
                let row = plans.states.rows();
                plans.states.push_row(plans.wave_states.row(w));
                plans
                    .masks
                    .extend_from_slice(&plans.wave_masks[w * stride..(w + 1) * stride]);
                assert!(
                    plans.masks[row * stride + action_index],
                    "policy {} chose masked action {action_index} at position {position}",
                    policy.name()
                );
                match self.action_space.decode(action_index) {
                    PlacementAction::Reject => {
                        plans.plans[i].steps.push(PlannedStep {
                            row,
                            action_index,
                            reward: self.reward_config.reject_reward(),
                        });
                        plans.plans[i].rejected = true;
                    }
                    PlacementAction::Place(node) => {
                        let lat = plans.cand_lat[w * node_count + node.0];
                        let cost = plans.cand_cost[w * node_count + node.0];
                        plans.plans[i].steps.push(PlannedStep {
                            row,
                            action_index,
                            reward: self.reward_config.step_reward(lat, cost),
                        });
                        plans.consumed[i] += lat;
                        plans.at_nodes[i] = node;
                        if position + 1 < self.chains.get(arrivals[i].chain).len() {
                            plans.next_live.push(i);
                        }
                    }
                }
            }
            std::mem::swap(&mut plans.live, &mut plans.next_live);
            position += 1;
        }
        plans.valid = true;
        self.scratch.plans = plans;
    }

    /// Applies one arrival's snapshot plan against the now-mutating world
    /// (arrival order = apply order). Every planned placement is
    /// re-checked cheaply before committing: if a prior arrival of the
    /// group consumed the capacity (or the node can no longer host), the
    /// whole chain rolls back and the request is rejected — the
    /// deterministic conflict-resolution contract. For learning policies
    /// feedback replays the frozen observations (frozen policies skip
    /// the replay — they discard it); the terminal reward reflects the applied
    /// outcome (real end-to-end latency for an admission, the reject
    /// reward for a planned rejection or a conflict). Planned decisions
    /// past a conflict were never applied, so they get no feedback.
    fn apply_planned_request(
        &mut self,
        index: usize,
        request: &Request,
        policy: &mut dyn PlacementPolicy,
        rng: &mut StdRng,
    ) -> PlacementOutcome {
        let plans = std::mem::take(&mut self.scratch.plans);
        debug_assert!(plans.valid, "apply without a planned group");
        let plan = &plans.plans[index];
        let ctx = self.take_ctx(request);
        let chain = &ctx.chain;
        let stride = self.action_space.len();
        let mut placed = std::mem::take(&mut self.scratch.placed);
        placed.clear();
        let mut deployment_cost = 0.0f64;
        let mut at_node = request.source;
        let mut conflict_at: Option<usize> = None;
        for (p, step) in plan.steps.iter().enumerate() {
            // A planned Reject is always the final step; nothing commits.
            if let PlacementAction::Place(node) = self.action_space.decode(step.action_index) {
                if self.step_feasible(chain, p, at_node, node) {
                    let (instance, spawned, dep_cost) = self.commit_step(chain, p, node);
                    deployment_cost += dep_cost;
                    placed.push((instance, spawned));
                    at_node = node;
                } else {
                    conflict_at = Some(p);
                    break;
                }
            }
        }

        let accepted = conflict_at.is_none() && !plan.rejected;
        // The step carrying the episode's terminal feedback.
        let last = conflict_at.unwrap_or(plan.steps.len() - 1);
        let (outcome, terminal_reward) = if accepted {
            let (latency_ms, sla_violated) =
                self.admit_flow(request, chain, &placed, deployment_cost);
            (
                PlacementOutcome::Accepted {
                    latency_ms,
                    sla_violated,
                },
                plan.steps[last].reward + self.reward_config.completion_reward(sla_violated),
            )
        } else {
            self.rollback(chain, &placed);
            let reward = if conflict_at.is_none() {
                plan.steps[last].reward // the policy's own rejection
            } else {
                self.reward_config.reject_reward() // conflict fallback
            };
            (PlacementOutcome::Rejected, reward)
        };

        // Feedback replay costs a slice-and-struct walk per step; frozen
        // policies (`!is_learning`) discard it, so skip the walk — this
        // is the serving layer's hot path, where every planned row passes
        // through here.
        let replay_steps = if policy.is_learning() { last + 1 } else { 0 };
        for p in 0..replay_steps {
            let step = &plan.steps[p];
            let state = plans.states.row(step.row);
            let mask = &plans.masks[step.row * stride..(step.row + 1) * stride];
            if p == last {
                policy.observe(
                    DecisionFeedback {
                        state,
                        mask,
                        action_index: step.action_index,
                        reward: terminal_reward,
                        next_state: &self.scratch.zero_state,
                        next_mask: &self.scratch.all_true,
                        done: true,
                    },
                    rng,
                );
            } else {
                let next = &plan.steps[p + 1];
                policy.observe(
                    DecisionFeedback {
                        state,
                        mask,
                        action_index: step.action_index,
                        reward: step.reward,
                        next_state: plans.states.row(next.row),
                        next_mask: &plans.masks[next.row * stride..(next.row + 1) * stride],
                        done: false,
                    },
                    rng,
                );
            }
        }
        self.scratch.plans = plans;
        self.scratch.ctx = Some(ctx);
        self.scratch.placed = placed;
        outcome
    }

    /// Decides an arrival group (a slot's arrivals in the slot loop, an
    /// instant's in the event engine) in arrival order, noting each request
    /// and its outcome: the one decision path of both loops. Sequential
    /// semantics place each request on the world its predecessors left;
    /// snapshot semantics plan the WHOLE group on the frozen world first.
    pub(super) fn decide_group(
        &mut self,
        group: &[Request],
        policy: &mut dyn PlacementPolicy,
        rng: &mut StdRng,
    ) {
        for request in group {
            self.note(Note::Requested {
                request,
                replacement: false,
            });
        }
        let snapshot = self.semantics == DecisionSemantics::SlotSnapshot;
        if snapshot && !group.is_empty() {
            self.plan_group_snapshot(group, policy, rng);
        }
        for (row, request) in group.iter().enumerate() {
            let outcome = if snapshot {
                self.apply_planned_request(row, request, policy, rng)
            } else {
                self.place_request(request, policy, rng)
            };
            self.note(Note::decided(request.id, &outcome, false));
        }
        self.scratch.plans.valid = false; // stale once the group ran
    }
}
