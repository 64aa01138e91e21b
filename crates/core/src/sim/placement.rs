//! One placement episode: candidates and the decision context, commit and
//! rollback of a step, admission of a placed chain, and idle retirement.

use super::*;

impl Simulation {
    /// Candidate details for placing `chain[position]` when the traffic is
    /// currently at `at_node`.
    pub fn candidates(
        &self,
        chain: &ChainSpec,
        position: usize,
        at_node: NodeId,
    ) -> Vec<CandidateInfo> {
        let mut out = Vec::new();
        self.candidates_into(chain, position, at_node, &mut out);
        out
    }

    /// [`Simulation::candidates`] into a caller-owned vector (cleared
    /// first) — the allocation-free decision-loop form.
    pub fn candidates_into(
        &self,
        chain: &ChainSpec,
        position: usize,
        at_node: NodeId,
        out: &mut Vec<CandidateInfo>,
    ) {
        let vnf = self.vnfs.get(chain.vnfs[position]);
        let topology = self.network.topology();
        let routes = self.network.routes();
        let ledger = self.network.ledger();
        // What the decision fixes for every node: the source's liveness,
        // the mean lifetime and the hop volume over it, and a fresh
        // instance's queueing.
        let source_alive = self.network.node_alive(at_node);
        let mean_duration_s =
            self.scenario.workload.mean_duration_slots * self.scenario.slot_seconds;
        let gb_lifetime = chain.traffic_gb * self.scenario.workload.mean_duration_slots;
        let fresh_sojourn_ms = mm1_sojourn_ms(vnf.service_rate_rps, chain.arrival_rate_rps);
        let node_count = topology.node_count();
        out.clear();
        out.extend((0..node_count).map(|i| {
            let node_id = NodeId(i);
            let node = topology.node(node_id);
            // A dead node can neither host nor be routed to; a dead
            // *source* leaves every candidate infeasible (the request
            // can only be rejected until the site recovers).
            let alive = self.network.node_alive(node_id) && source_alive;
            let reachable = alive && (at_node == node_id || routes.reachable(at_node, node_id));
            let reusable = self.reusable_instance(vnf, chain, node_id);
            let used = self.pool.used_on(node_id);
            let can_spawn = ledger.fits(node_id, &used, &vnf.demand);
            let feasible = reachable && (reusable.is_some() || can_spawn);

            // Marginal latency: hop + fixed processing + queueing at the
            // post-admission arrival rate.
            let hop = if at_node == node_id {
                0.0
            } else {
                routes.latency_ms(at_node, node_id)
            };
            let sojourn_ms = match reusable {
                Some(inst) => mm1_sojourn_ms(
                    vnf.service_rate_rps,
                    inst.lambda_rps + chain.arrival_rate_rps,
                ),
                None => fresh_sojourn_ms,
            };
            let marginal_latency = hop + vnf.base_processing_ms + sojourn_ms;

            // Marginal cost: deployment + compute over the mean flow
            // lifetime (only when a new instance is needed) + hop
            // traffic over the lifetime.
            let mut cost = 0.0;
            if reusable.is_none() {
                cost += self.scenario.prices.deployment_cost;
                cost +=
                    self.scenario
                        .prices
                        .compute_cost_usd(node, vnf.demand.cpu, mean_duration_s);
            }
            cost += self.scenario.prices.traffic_cost_usd(
                topology.node(at_node),
                node,
                if at_node == node_id { 0.0 } else { gb_lifetime },
            );

            CandidateInfo {
                node: node_id,
                feasible,
                reuse_available: reusable.is_some(),
                marginal_latency_ms: marginal_latency,
                marginal_cost_usd: cost,
                utilization: ledger.utilization_of(node_id, &used),
                is_cloud: node.is_cloud(),
            }
        }));
    }

    /// The engine's one reuse rule: among the instances of `vnf` at `node`
    /// with queueing headroom for one more flow of `chain`, the least
    /// loaded — the lowest id on a tie (`instances_of` yields ascending
    /// ids and `min_by` keeps the first minimum). What a candidate
    /// advertises and what [`Simulation::commit_step`] then does both
    /// come from here.
    pub(super) fn reusable_instance(
        &self,
        vnf: &VnfType,
        chain: &ChainSpec,
        node: NodeId,
    ) -> Option<&Instance> {
        self.pool
            .instances_of(vnf.id, node)
            .filter(|inst| {
                admits_load(
                    vnf.service_rate_rps,
                    inst.lambda_rps,
                    chain.arrival_rate_rps,
                    self.scenario.max_instance_utilization,
                )
            })
            // `partial_cmp`, not `total_cmp`: `remove_flow` can leave
            // `-0.0`, which must tie with `0.0`.
            .min_by(|a, b| {
                a.lambda_rps
                    .partial_cmp(&b.lambda_rps)
                    .expect("arrival rates are never NaN")
            })
    }

    /// Builds the full decision context for one placement decision.
    pub fn decision_context(
        &self,
        request: &Request,
        chain: &ChainSpec,
        position: usize,
        at_node: NodeId,
        consumed_latency_ms: f64,
    ) -> DecisionContext {
        let mut ctx = DecisionContext {
            encoded_state: Vec::new(),
            mask: Vec::new(),
            request: request.clone(),
            chain: chain.clone(),
            position,
            at_node,
            consumed_latency_ms,
            candidates: Vec::new(),
            slot: self.slot,
        };
        self.fill_context(&mut ctx, position, at_node, consumed_latency_ms, true);
        ctx
    }

    /// Refills a decision context's per-decision fields in place: the
    /// candidate list, the action mask, and (when `encode`) the encoded
    /// state all land in the context's reusable buffers (identical values
    /// to a freshly built [`Simulation::decision_context`]). Without
    /// `encode` the state is left empty: the policy answered
    /// [`PlacementPolicy::reads_state`] with `false`. The episode-scoped
    /// fields (`request`, `chain`) are the caller's responsibility and are
    /// read from the context itself.
    pub(super) fn fill_context(
        &self,
        ctx: &mut DecisionContext,
        position: usize,
        at_node: NodeId,
        consumed_latency_ms: f64,
        encode: bool,
    ) {
        self.candidates_into(&ctx.chain, position, at_node, &mut ctx.candidates);
        ctx.mask.clear();
        ctx.mask.extend(ctx.candidates.iter().map(|c| c.feasible));
        ctx.mask.push(true); // reject always valid
        if encode {
            self.encoder.encode_into(
                self.network.ledger(),
                &self.pool,
                &self.vnfs,
                &ctx.chain,
                position,
                ctx.request.source,
                at_node,
                consumed_latency_ms,
                self.scenario.max_instance_utilization,
                self.slot,
                self.network.health(),
                &ctx.candidates,
                &mut ctx.encoded_state,
            );
        } else {
            ctx.encoded_state.clear();
        }
        ctx.position = position;
        ctx.at_node = at_node;
        ctx.consumed_latency_ms = consumed_latency_ms;
        ctx.slot = self.slot;
    }

    /// Takes the recycled decision context (or builds a fresh one) and
    /// re-targets it at `request` and its chain. `clone_from` reuses the
    /// chain buffers held from the previous episode, so the episode reads
    /// the chain from the context instead of cloning the catalog entry.
    pub(super) fn take_ctx(&mut self, request: &Request) -> DecisionContext {
        let chain = self.chains.get(request.chain);
        match self.scratch.ctx.take() {
            Some(mut ctx) => {
                ctx.request = request.clone();
                ctx.chain.clone_from(chain);
                ctx
            }
            None => DecisionContext {
                encoded_state: Vec::new(),
                mask: Vec::new(),
                request: request.clone(),
                chain: chain.clone(),
                position: 0,
                at_node: request.source,
                consumed_latency_ms: 0.0,
                candidates: Vec::new(),
                slot: self.slot,
            },
        }
    }

    /// Commits one VNF placement at `node`: reuses an instance with
    /// headroom or spawns a new one. Returns
    /// `(instance, newly_spawned, deployment_cost_incurred)`. Panics on a
    /// spawn that does not fit at `node`, in release builds too.
    pub(super) fn commit_step(
        &mut self,
        chain: &ChainSpec,
        position: usize,
        node: NodeId,
    ) -> (InstanceId, bool, f64) {
        let vnf = self.vnfs.get(chain.vnfs[position]);
        match self.reusable_instance(vnf, chain, node).map(|inst| inst.id) {
            Some(id) => {
                self.pool
                    .add_flow(id, chain.arrival_rate_rps)
                    .expect("instance exists");
                (id, false, 0.0)
            }
            None => {
                // Candidates offer a spawn only where it fits; one past the
                // node's capacity would skew every later utilization read.
                let used = self.pool.used_on(node);
                assert!(
                    self.network.ledger().fits(node, &used, &vnf.demand),
                    "engine only commits feasible placements: {} does not fit at {node}",
                    vnf.name
                );
                let id = self.pool.spawn(vnf.id, node, self.slot, &self.vnfs);
                self.pool
                    .add_flow(id, chain.arrival_rate_rps)
                    .expect("just spawned");
                (id, true, self.scenario.prices.deployment_cost)
            }
        }
    }

    /// Rolls back partially placed steps of an abandoned episode.
    pub(super) fn rollback(&mut self, chain: &ChainSpec, placed: &[(InstanceId, bool)]) {
        for &(id, spawned) in placed.iter().rev() {
            self.pool
                .remove_flow(id, chain.arrival_rate_rps)
                .expect("flow was added");
            if spawned {
                self.pool
                    .retire(id, &self.vnfs)
                    .expect("spawned instance is now idle");
            } else {
                // A reused instance may have just gone idle again.
                self.note_possible_idle(id);
            }
        }
    }

    /// Runs one request's placement episode under `policy`, at the
    /// simulation's current instant (the clock the last run or slot left
    /// behind): an admitted flow is active from there for its holding
    /// time, and its departure is queued for whichever loop runs next.
    ///
    /// `drive` and `advance_slot` note the requests they decide and their
    /// outcomes; a direct call notes nothing, though the next slot billed
    /// bills its flow and deployment cost like any other.
    ///
    /// A decision allocates nothing at steady state: the decision context
    /// (chain included) and the rollback list are recycled across
    /// episodes, their buffers are refilled in place per decision, the
    /// instance pool is read through its `(node, type)` index, and
    /// feedback borrows engine-owned buffers (policies copy only what
    /// they store). What an *admitted request* still allocates
    /// is the priced hop list of its active-flow record: the
    /// active flows and the telemetry sink's open records are sorted
    /// vectors ([`sfc::idmap::IdMap`]) that grow only to the run's largest
    /// live set. The whole `metro_heuristic` run allocates 1.24 times per
    /// request, under the ceiling `tests/decision_allocs.rs` pins.
    pub fn place_request(
        &mut self,
        request: &Request,
        policy: &mut dyn PlacementPolicy,
        rng: &mut StdRng,
    ) -> PlacementOutcome {
        let mut ctx = self.take_ctx(request);
        let mut placed = std::mem::take(&mut self.scratch.placed);
        placed.clear();
        let encode = policy.reads_state();
        let mut at_node = request.source;
        let mut consumed = 0.0f64;
        let mut deployment_cost = 0.0f64;
        // Feedback for the previous decision, waiting for its next-state.
        // The previous observation itself parks in `scratch.prev_*`.
        let mut pending: Option<(usize, f32)> = None;

        for position in 0..ctx.chain.len() {
            if pending.is_some() {
                // Keep the previous observation alive while the context
                // buffers are refilled for the new decision.
                std::mem::swap(&mut self.scratch.prev_state, &mut ctx.encoded_state);
                std::mem::swap(&mut self.scratch.prev_mask, &mut ctx.mask);
            }
            self.fill_context(&mut ctx, position, at_node, consumed, encode);
            if let Some((action_index, reward)) = pending.take() {
                policy.observe(
                    DecisionFeedback {
                        state: &self.scratch.prev_state,
                        mask: &self.scratch.prev_mask,
                        action_index,
                        reward,
                        next_state: &ctx.encoded_state,
                        next_mask: &ctx.mask,
                        done: false,
                    },
                    rng,
                );
            }
            let action = policy.decide(&ctx, rng);
            self.metrics.count_decisions(1);
            let action_index = self.action_space.encode(action);
            assert!(
                ctx.mask[action_index],
                "policy {} chose masked action {action_index} at position {position}",
                policy.name()
            );

            match action {
                PlacementAction::Reject => {
                    self.rollback(&ctx.chain, &placed);
                    policy.observe(
                        DecisionFeedback {
                            state: &ctx.encoded_state,
                            mask: &ctx.mask,
                            action_index,
                            reward: self.reward_config.reject_reward(),
                            next_state: &self.scratch.zero_state,
                            next_mask: &self.scratch.all_true,
                            done: true,
                        },
                        rng,
                    );
                    self.scratch.ctx = Some(ctx);
                    self.scratch.placed = placed;
                    return PlacementOutcome::Rejected;
                }
                PlacementAction::Place(node) => {
                    let info = &ctx.candidates[node.0];
                    let reward = self
                        .reward_config
                        .step_reward(info.marginal_latency_ms, info.marginal_cost_usd);
                    consumed += info.marginal_latency_ms;
                    let (instance, spawned, dep_cost) =
                        self.commit_step(&ctx.chain, position, node);
                    deployment_cost += dep_cost;
                    placed.push((instance, spawned));
                    at_node = node;

                    if position + 1 == ctx.chain.len() {
                        let (latency_ms, sla_violated) =
                            self.admit_flow(request, &ctx.chain, &placed, deployment_cost);
                        let terminal_reward =
                            reward + self.reward_config.completion_reward(sla_violated);
                        policy.observe(
                            DecisionFeedback {
                                state: &ctx.encoded_state,
                                mask: &ctx.mask,
                                action_index,
                                reward: terminal_reward,
                                next_state: &self.scratch.zero_state,
                                next_mask: &self.scratch.all_true,
                                done: true,
                            },
                            rng,
                        );
                        self.scratch.ctx = Some(ctx);
                        self.scratch.placed = placed;
                        return PlacementOutcome::Accepted {
                            latency_ms,
                            sla_violated,
                        };
                    }
                    pending = Some((action_index, reward));
                }
            }
        }
        unreachable!("placement loop always returns from the final position");
    }

    /// Shared admission bookkeeping for a fully committed chain (`placed`,
    /// its steps in chain order): measures the true end-to-end latency,
    /// prices each hop's traffic, activates the flow, schedules its
    /// departure, and adds the chain's deployment cost to the open slot.
    /// Returns `(latency_ms, sla_violated)`; the admission is noted by the
    /// caller that knows whether it is a replacement.
    pub(super) fn admit_flow(
        &mut self,
        request: &Request,
        chain: &ChainSpec,
        placed: &[(InstanceId, bool)],
        deployment_cost: f64,
    ) -> (f64, bool) {
        let assignment = &mut self.scratch.assignment;
        assignment.request = request.id;
        assignment.instances.clear();
        assignment
            .instances
            .extend(placed.iter().map(|&(id, _)| id));
        let breakdown = assignment_latency(
            assignment,
            chain,
            request.source,
            &self.pool,
            &self.vnfs,
            self.network.routes(),
        )
        .expect("committed assignment is valid");
        let latency_ms = breakdown.total_ms();
        // The hops' endpoints are fixed for the flow's life (an instance
        // never moves; a re-placement is a new admission), so billing and
        // departure read these prices instead of taking them again.
        let topology = self.network.topology();
        let mut at = request.source;
        // A departed flow's emptied list, when there is one. It grows to
        // the chain's exact length, not doubled: spare lists stay on the
        // heap for the rest of the run.
        let mut hops = self.scratch.spare_hops.pop().unwrap_or_default();
        hops.reserve_exact(placed.len());
        hops.extend(placed.iter().map(|&(instance, _)| {
            let node = self.pool.get(instance).expect("placed instance").node;
            let traffic_usd = self.scenario.prices.traffic_cost_usd(
                topology.node(at),
                topology.node(node),
                chain.traffic_gb,
            );
            at = node;
            Hop {
                instance,
                traffic_usd,
            }
        }));
        let sla_violated = latency_ms > chain.latency_budget_ms;
        self.open_slot.deployment_cost += deployment_cost;
        // From the clock for the stated holding time; `departure_ms` is
        // the instant the flow's departure event carries
        // (`handle_departure`).
        let activated_ms = self.now_ms();
        let whole_slots = request.duration_slots as u64 * self.slot_ms;
        let departure_ms = activated_ms + request.duration_ms.unwrap_or(whole_slots);
        let displaced = self.active.insert(
            request.id.0,
            ActiveFlow {
                request: request.clone(),
                hops,
                arrival_rate_rps: chain.arrival_rate_rps,
                latency_ms: if latency_ms.is_finite() {
                    latency_ms
                } else {
                    INFEASIBLE_LATENCY_MS
                },
                activated_ms,
                departure_ms,
            },
        );
        // An overwritten flow's shares would stay on its instances, which
        // then never go idle and bill compute forever.
        assert!(
            displaced.is_none(),
            "request id {} is already active: ids must be unique among live flows",
            request.id.0
        );
        self.latest_activation_ms = self.latest_activation_ms.max(activated_ms);
        // The event loop decides an arrival group in one call because no
        // departure can come due inside it.
        debug_assert!(departure_ms > activated_ms, "a flow holds for some time");
        self.queue.schedule_at(
            SimTime::from_ms(departure_ms),
            SimEvent::FlowDeparture {
                request: request.id,
            },
        );
        (latency_ms, sla_violated)
    }

    /// Retires instances idle longer than the scenario grace period.
    /// Returns how many were retired.
    pub(super) fn retire_idle_instances(&mut self) -> usize {
        let idle = &mut self.scratch.idle;
        self.pool
            .idle_instances_into(self.slot, self.scenario.idle_retire_slots, idle);
        for &id in idle.iter() {
            self.pool
                .retire(id, &self.vnfs)
                .expect("idle instance retires");
        }
        idle.len()
    }
}
