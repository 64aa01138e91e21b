//! Chain-to-instance assignments and end-to-end latency evaluation.

use crate::chain::ChainSpec;
use crate::delay::mm1_sojourn_ms;
use crate::instance::{InstanceId, InstancePool};
use crate::request::RequestId;
use crate::vnf::VnfCatalog;
use edgenet::node::NodeId;
use edgenet::routing::RoutingTable;

/// The instances serving one admitted request, in chain order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChainAssignment {
    /// The request being served.
    pub request: RequestId,
    /// One instance per chain position.
    pub instances: Vec<InstanceId>,
}

/// Errors from assignment validation or latency evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum AssignmentError {
    /// Assignment length differs from the chain length.
    LengthMismatch {
        /// VNFs in the chain.
        expected: usize,
        /// Instances supplied.
        got: usize,
    },
    /// An instance id is not in the pool.
    UnknownInstance(InstanceId),
    /// Instance at `position` runs the wrong VNF type.
    TypeMismatch {
        /// Chain position.
        position: usize,
    },
    /// Some pair of consecutive nodes is not connected.
    Unroutable {
        /// Source of the failing hop.
        from: NodeId,
        /// Destination of the failing hop.
        to: NodeId,
    },
}

impl std::fmt::Display for AssignmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AssignmentError::LengthMismatch { expected, got } => {
                write!(
                    f,
                    "assignment has {got} instances but chain needs {expected}"
                )
            }
            AssignmentError::UnknownInstance(id) => write!(f, "unknown instance {id}"),
            AssignmentError::TypeMismatch { position } => {
                write!(f, "instance at position {position} runs the wrong VNF type")
            }
            AssignmentError::Unroutable { from, to } => write!(f, "no route from {from} to {to}"),
        }
    }
}

impl std::error::Error for AssignmentError {}

/// Validates that `assignment` matches `chain` (length and VNF types).
///
/// # Errors
///
/// Returns the first [`AssignmentError`] encountered.
pub fn validate_assignment(
    assignment: &ChainAssignment,
    chain: &ChainSpec,
    pool: &InstancePool,
) -> Result<(), AssignmentError> {
    if assignment.instances.len() != chain.len() {
        return Err(AssignmentError::LengthMismatch {
            expected: chain.len(),
            got: assignment.instances.len(),
        });
    }
    for (pos, (&inst_id, &expected_type)) in assignment
        .instances
        .iter()
        .zip(chain.vnfs.iter())
        .enumerate()
    {
        let inst = pool
            .get(inst_id)
            .ok_or(AssignmentError::UnknownInstance(inst_id))?;
        if inst.vnf_type != expected_type {
            return Err(AssignmentError::TypeMismatch { position: pos });
        }
    }
    Ok(())
}

/// Latency breakdown of one chain traversal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyBreakdown {
    /// Sum of network latencies between consecutive hops (ms).
    pub network_ms: f64,
    /// Sum of fixed per-VNF processing latencies (ms).
    pub processing_ms: f64,
    /// Sum of M/M/1 queueing sojourn times (ms); infinite if any instance
    /// is overloaded.
    pub queueing_ms: f64,
}

impl LatencyBreakdown {
    /// Total end-to-end latency (ms).
    pub fn total_ms(&self) -> f64 {
        self.network_ms + self.processing_ms + self.queueing_ms
    }
}

/// Computes the end-to-end latency of traversing `assignment` starting at
/// `source`: network transfer source → inst₁ → … → instₙ plus per-instance
/// processing and queueing.
///
/// The returned queueing term reflects each instance's *current* λ; callers
/// evaluating a hypothetical placement should add the flow first or use
/// [`hypothetical_latency_ms`].
///
/// # Errors
///
/// Returns [`AssignmentError`] if validation fails or a hop is unroutable.
pub fn assignment_latency(
    assignment: &ChainAssignment,
    chain: &ChainSpec,
    source: NodeId,
    pool: &InstancePool,
    catalog: &VnfCatalog,
    routes: &RoutingTable,
) -> Result<LatencyBreakdown, AssignmentError> {
    validate_assignment(assignment, chain, pool)?;
    let mut network = 0.0;
    let mut processing = 0.0;
    let mut queueing = 0.0;
    let mut at = source;
    for &inst_id in &assignment.instances {
        let inst = pool.get(inst_id).expect("validated");
        let hop = routes.latency_ms(at, inst.node);
        if !hop.is_finite() {
            return Err(AssignmentError::Unroutable {
                from: at,
                to: inst.node,
            });
        }
        network += hop;
        let vnf = catalog.get(inst.vnf_type);
        processing += vnf.base_processing_ms;
        queueing += mm1_sojourn_ms(vnf.service_rate_rps, inst.lambda_rps);
        at = inst.node;
    }
    Ok(LatencyBreakdown {
        network_ms: network,
        processing_ms: processing,
        queueing_ms: queueing,
    })
}

/// Latency of a *hypothetical* node sequence for `chain` from `source`,
/// assuming fresh instances at the given per-position current loads
/// (`lambda_at[pos]` is the λ the serving instance would have *after*
/// admitting this flow).
///
/// Used by placement policies to score candidate nodes without mutating
/// the pool.
///
/// # Panics
///
/// Panics if `nodes.len() != chain.len()` or `lambda_at.len() != chain.len()`.
pub fn hypothetical_latency_ms(
    chain: &ChainSpec,
    source: NodeId,
    nodes: &[NodeId],
    lambda_at: &[f64],
    catalog: &VnfCatalog,
    routes: &RoutingTable,
) -> f64 {
    assert_eq!(nodes.len(), chain.len(), "node sequence length mismatch");
    assert_eq!(
        lambda_at.len(),
        chain.len(),
        "lambda sequence length mismatch"
    );
    let mut total = 0.0;
    let mut at = source;
    for (pos, (&node, &lambda)) in nodes.iter().zip(lambda_at.iter()).enumerate() {
        let hop = routes.latency_ms(at, node);
        if !hop.is_finite() {
            return f64::INFINITY;
        }
        total += hop;
        let vnf = catalog.get(chain.vnfs[pos]);
        total += vnf.base_processing_ms + mm1_sojourn_ms(vnf.service_rate_rps, lambda);
        at = node;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::{ChainCatalog, ChainId};
    use edgenet::topology::TopologyBuilder;

    struct Fixture {
        pool: InstancePool,
        catalog: VnfCatalog,
        chains: ChainCatalog,
        routes: RoutingTable,
    }

    fn fixture() -> Fixture {
        let catalog = VnfCatalog::standard();
        let chains = ChainCatalog::standard(&catalog);
        let topo = TopologyBuilder::default().metro(4);
        let routes = RoutingTable::build(&topo);
        Fixture {
            pool: InstancePool::new(),
            catalog,
            chains,
            routes,
        }
    }

    #[test]
    fn valid_assignment_passes() {
        let mut f = fixture();
        let chain = f.chains.get(ChainId(1)).clone(); // voip: nat, firewall
        let i0 = f.pool.spawn(chain.vnfs[0], NodeId(0), 0, &f.catalog);
        let i1 = f.pool.spawn(chain.vnfs[1], NodeId(1), 0, &f.catalog);
        let a = ChainAssignment {
            request: RequestId(1),
            instances: vec![i0, i1],
        };
        assert!(validate_assignment(&a, &chain, &f.pool).is_ok());
    }

    #[test]
    fn type_mismatch_detected() {
        let mut f = fixture();
        let chain = f.chains.get(ChainId(1)).clone();
        let i0 = f.pool.spawn(chain.vnfs[1], NodeId(0), 0, &f.catalog); // wrong order
        let i1 = f.pool.spawn(chain.vnfs[0], NodeId(1), 0, &f.catalog);
        let a = ChainAssignment {
            request: RequestId(1),
            instances: vec![i0, i1],
        };
        assert_eq!(
            validate_assignment(&a, &chain, &f.pool),
            Err(AssignmentError::TypeMismatch { position: 0 })
        );
    }

    #[test]
    fn length_mismatch_detected() {
        let mut f = fixture();
        let chain = f.chains.get(ChainId(1)).clone();
        let i0 = f.pool.spawn(chain.vnfs[0], NodeId(0), 0, &f.catalog);
        let a = ChainAssignment {
            request: RequestId(1),
            instances: vec![i0],
        };
        assert!(matches!(
            validate_assignment(&a, &chain, &f.pool),
            Err(AssignmentError::LengthMismatch {
                expected: 2,
                got: 1
            })
        ));
    }

    #[test]
    fn latency_sums_network_processing_queueing() {
        let mut f = fixture();
        let chain = f.chains.get(ChainId(1)).clone();
        let i0 = f.pool.spawn(chain.vnfs[0], NodeId(0), 0, &f.catalog);
        let i1 = f.pool.spawn(chain.vnfs[1], NodeId(1), 0, &f.catalog);
        let a = ChainAssignment {
            request: RequestId(1),
            instances: vec![i0, i1],
        };
        let lat =
            assignment_latency(&a, &chain, NodeId(2), &f.pool, &f.catalog, &f.routes).unwrap();
        assert!(lat.network_ms > 0.0); // source 2 -> node 0 -> node 1
        assert!(lat.processing_ms > 0.0);
        assert!(lat.queueing_ms > 0.0); // idle queues still have service time
        let expected_net =
            f.routes.latency_ms(NodeId(2), NodeId(0)) + f.routes.latency_ms(NodeId(0), NodeId(1));
        assert!((lat.network_ms - expected_net).abs() < 1e-9);
        assert!(lat.total_ms() > lat.network_ms);
    }

    #[test]
    fn colocated_chain_has_zero_network_latency() {
        let mut f = fixture();
        let chain = f.chains.get(ChainId(1)).clone();
        let i0 = f.pool.spawn(chain.vnfs[0], NodeId(0), 0, &f.catalog);
        let i1 = f.pool.spawn(chain.vnfs[1], NodeId(0), 0, &f.catalog);
        let a = ChainAssignment {
            request: RequestId(1),
            instances: vec![i0, i1],
        };
        let lat =
            assignment_latency(&a, &chain, NodeId(0), &f.pool, &f.catalog, &f.routes).unwrap();
        assert_eq!(lat.network_ms, 0.0);
    }

    #[test]
    fn loaded_instance_increases_latency() {
        let mut f = fixture();
        let chain = f.chains.get(ChainId(1)).clone();
        let i0 = f.pool.spawn(chain.vnfs[0], NodeId(0), 0, &f.catalog);
        let i1 = f.pool.spawn(chain.vnfs[1], NodeId(0), 0, &f.catalog);
        let a = ChainAssignment {
            request: RequestId(1),
            instances: vec![i0, i1],
        };
        let idle =
            assignment_latency(&a, &chain, NodeId(0), &f.pool, &f.catalog, &f.routes).unwrap();
        // Load the NAT instance near saturation.
        let mu = f.catalog.get(chain.vnfs[0]).service_rate_rps;
        f.pool.add_flow(i0, 0.95 * mu).unwrap();
        let loaded =
            assignment_latency(&a, &chain, NodeId(0), &f.pool, &f.catalog, &f.routes).unwrap();
        assert!(loaded.queueing_ms > idle.queueing_ms * 5.0);
    }

    #[test]
    fn hypothetical_matches_actual_for_fresh_instances() {
        let mut f = fixture();
        let chain = f.chains.get(ChainId(0)).clone(); // 3 VNFs
        let nodes = vec![NodeId(0), NodeId(1), NodeId(0)];
        let lambdas = vec![0.0, 0.0, 0.0];
        let hypo =
            hypothetical_latency_ms(&chain, NodeId(2), &nodes, &lambdas, &f.catalog, &f.routes);
        let ids: Vec<InstanceId> = chain
            .vnfs
            .iter()
            .zip(nodes.iter())
            .map(|(&v, &n)| f.pool.spawn(v, n, 0, &f.catalog))
            .collect();
        let a = ChainAssignment {
            request: RequestId(0),
            instances: ids,
        };
        let actual = assignment_latency(&a, &chain, NodeId(2), &f.pool, &f.catalog, &f.routes)
            .unwrap()
            .total_ms();
        assert!((hypo - actual).abs() < 1e-9);
    }

    #[test]
    fn overloaded_hypothetical_is_infinite() {
        let f = fixture();
        let chain = f.chains.get(ChainId(1)).clone();
        let mu = f.catalog.get(chain.vnfs[0]).service_rate_rps;
        let lat = hypothetical_latency_ms(
            &chain,
            NodeId(0),
            &[NodeId(0), NodeId(0)],
            &[mu + 1.0, 0.0],
            &f.catalog,
            &f.routes,
        );
        assert!(lat.is_infinite());
    }
}
