//! VNF types: the catalog of network functions the operator can instantiate.

use edgenet::node::Resources;

/// Identifier of a VNF type within a catalog (dense `0..type_count`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VnfTypeId(pub usize);

impl std::fmt::Display for VnfTypeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vnf{}", self.0)
    }
}

/// A VNF type: resource footprint and service characteristics of one
/// instance.
#[derive(Debug, Clone, PartialEq)]
pub struct VnfType {
    /// Dense id within the catalog.
    pub id: VnfTypeId,
    /// Short name, e.g. `"firewall"`.
    pub name: String,
    /// Resources consumed by one instance.
    pub demand: Resources,
    /// Service rate of one instance, in requests per second (the M/M/1 μ).
    pub service_rate_rps: f64,
    /// Fixed packet-processing latency added per traversal, in ms
    /// (lookup/encryption work independent of queueing).
    pub base_processing_ms: f64,
}

impl VnfType {
    /// Creates a VNF type, validating parameters.
    ///
    /// # Panics
    ///
    /// Panics if the service rate or base latency are not positive/finite.
    pub fn new(
        id: VnfTypeId,
        name: impl Into<String>,
        demand: Resources,
        service_rate_rps: f64,
        base_processing_ms: f64,
    ) -> Self {
        assert!(
            service_rate_rps.is_finite() && service_rate_rps > 0.0,
            "service rate must be positive"
        );
        assert!(
            base_processing_ms.is_finite() && base_processing_ms >= 0.0,
            "base latency must be non-negative"
        );
        Self {
            id,
            name: name.into(),
            demand,
            service_rate_rps,
            base_processing_ms,
        }
    }
}

/// An immutable catalog of VNF types.
#[derive(Debug, Clone, PartialEq)]
pub struct VnfCatalog {
    types: Vec<VnfType>,
}

impl VnfCatalog {
    /// Builds a catalog from types.
    ///
    /// # Panics
    ///
    /// Panics if ids are not dense `0..n` or names repeat.
    pub fn new(types: Vec<VnfType>) -> Self {
        assert!(!types.is_empty(), "catalog needs at least one VNF type");
        for (i, t) in types.iter().enumerate() {
            assert_eq!(t.id.0, i, "VNF type ids must be dense 0..n in order");
            assert!(
                !types[..i].iter().any(|o| o.name == t.name),
                "duplicate VNF type name {}",
                t.name
            );
        }
        Self { types }
    }

    /// The standard eight-function catalog used across the experiments.
    ///
    /// Footprints and rates follow the conventional NFV sizing literature:
    /// lightweight L3/L4 functions (NAT, firewall) are cheap and fast; DPI
    /// and transcoding are heavy and slow.
    pub fn standard() -> Self {
        let mk = |i: usize, name: &str, cpu: f64, mem: f64, mu: f64, base: f64| {
            VnfType::new(VnfTypeId(i), name, Resources::new(cpu, mem), mu, base)
        };
        Self::new(vec![
            mk(0, "nat", 1.0, 1.0, 800.0, 0.05),
            mk(1, "firewall", 2.0, 2.0, 600.0, 0.10),
            mk(2, "load-balancer", 2.0, 4.0, 700.0, 0.08),
            mk(3, "ids", 4.0, 8.0, 300.0, 0.40),
            mk(4, "proxy", 2.0, 4.0, 500.0, 0.15),
            mk(5, "wan-optimizer", 4.0, 8.0, 400.0, 0.30),
            mk(6, "video-transcoder", 8.0, 16.0, 150.0, 1.50),
            mk(7, "encryption-gw", 4.0, 4.0, 350.0, 0.25),
        ])
    }

    /// All types, ordered by id.
    pub fn types(&self) -> &[VnfType] {
        &self.types
    }

    /// Number of types.
    pub fn type_count(&self) -> usize {
        self.types.len()
    }

    /// Type by id.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn get(&self, id: VnfTypeId) -> &VnfType {
        &self.types[id.0]
    }

    /// Looks a type up by name.
    pub fn by_name(&self, name: &str) -> Option<&VnfType> {
        self.types.iter().find(|t| t.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_catalog_is_well_formed() {
        let cat = VnfCatalog::standard();
        assert_eq!(cat.type_count(), 8);
        for (i, t) in cat.types().iter().enumerate() {
            assert_eq!(t.id.0, i);
            assert!(t.demand.cpu > 0.0);
            assert!(t.service_rate_rps > 0.0);
        }
    }

    #[test]
    fn lookup_by_name() {
        let cat = VnfCatalog::standard();
        let ids = cat.by_name("ids").expect("ids exists");
        assert_eq!(cat.get(ids.id).name, "ids");
        assert!(cat.by_name("nonexistent").is_none());
    }

    #[test]
    fn heavy_functions_cost_more() {
        let cat = VnfCatalog::standard();
        let nat = cat.by_name("nat").unwrap();
        let transcoder = cat.by_name("video-transcoder").unwrap();
        assert!(transcoder.demand.cpu > nat.demand.cpu);
        assert!(transcoder.service_rate_rps < nat.service_rate_rps);
    }

    #[test]
    #[should_panic(expected = "dense 0..n")]
    fn non_dense_ids_rejected() {
        let t = VnfType::new(VnfTypeId(5), "x", Resources::new(1.0, 1.0), 100.0, 0.1);
        let _ = VnfCatalog::new(vec![t]);
    }

    #[test]
    #[should_panic(expected = "duplicate VNF type name")]
    fn duplicate_names_rejected() {
        let a = VnfType::new(VnfTypeId(0), "x", Resources::new(1.0, 1.0), 100.0, 0.1);
        let b = VnfType::new(VnfTypeId(1), "x", Resources::new(1.0, 1.0), 100.0, 0.1);
        let _ = VnfCatalog::new(vec![a, b]);
    }
}
