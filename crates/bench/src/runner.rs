//! Shared query-execution helpers for the harness binaries.

use rsn_core::{AlgorithmChoice, MacEngine, MacQuery, MacSearchResult, RoadSocialNetwork};
use rsn_datagen::attrs::{generate_attrs, AttrDistribution};
use rsn_datagen::presets::Dataset;
use rsn_geom::region::PrefRegion;
use rsn_geom::weights::WeightVector;
use rsn_graph::graph::VertexId;

/// One concrete MAC query configuration derived from the sweep parameters.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// Query users.
    pub q: Vec<VertexId>,
    /// Coreness threshold.
    pub k: u32,
    /// Query-distance threshold.
    pub t: f64,
    /// Top-j parameter.
    pub j: usize,
    /// Region side length (fraction of each axis).
    pub sigma: f64,
    /// Attribute dimensionality (the dataset is re-attributed when this
    /// differs from its native dimensionality).
    pub d: usize,
}

impl QuerySpec {
    /// The default query of a dataset under a parameter space's defaults.
    pub fn defaults(dataset: &Dataset, k: u32, t: f64, j: usize, sigma: f64, d: usize) -> Self {
        QuerySpec {
            q: dataset.query_vertices(8),
            k,
            t,
            j,
            sigma,
            d,
        }
    }

    /// Builds the region `R`: a hypercube of side `sigma` centred on the
    /// uniform weight vector (the paper samples random hypercubes; a centred
    /// one keeps runs deterministic).
    pub fn region(&self) -> PrefRegion {
        let center = WeightVector::uniform(self.d).expect("d >= 1");
        PrefRegion::around(&center, self.sigma).expect("valid region")
    }

    /// Builds the [`MacQuery`].
    pub fn to_query(&self) -> MacQuery {
        MacQuery::new(self.q.clone(), self.k, self.t, self.region()).with_top_j(self.j)
    }
}

/// Wall-clock timings (seconds) of the four MAC algorithms on one query.
#[derive(Debug, Clone, Default)]
pub struct AlgoTimings {
    /// Global search, Problem 2.
    pub gs_nc: f64,
    /// Global search, Problem 1 (top-j).
    pub gs_t: f64,
    /// Local search, Problem 2.
    pub ls_nc: f64,
    /// Local search, Problem 1 (top-j).
    pub ls_t: f64,
    /// Number of distinct non-contained MACs found by GS-NC.
    pub gs_nc_communities: usize,
    /// Number of distinct non-contained MACs found by LS-NC.
    pub ls_nc_communities: usize,
    /// Number of partitions of `R` produced by GS-NC.
    pub gs_partitions: usize,
    /// Size of the maximal (k,t)-core.
    pub kt_core_size: usize,
    /// Approximate memory of GS-NC (bytes).
    pub gs_memory: usize,
    /// Approximate memory of LS-NC (bytes).
    pub ls_memory: usize,
}

/// Re-attributes a dataset's network for a different dimensionality `d`
/// (used by the d sweep; the attribute regime of the preset is preserved).
pub fn with_dimensionality(dataset: &Dataset, d: usize) -> RoadSocialNetwork {
    let rsn = &dataset.rsn;
    if rsn.attribute_dim() == d {
        return rsn.clone();
    }
    let attrs = generate_attrs(
        rsn.num_users(),
        d,
        dataset.attr_distribution,
        10.0,
        0xD1A ^ d as u64,
    );
    RoadSocialNetwork::new(
        rsn.social().clone(),
        rsn.road().clone(),
        rsn.locations().to_vec(),
        attrs,
    )
    .expect("re-attributed network is consistent")
}

/// Re-attributes with an explicit distribution (used by the comparison runs).
pub fn with_attrs(dataset: &Dataset, d: usize, dist: AttrDistribution) -> RoadSocialNetwork {
    let rsn = &dataset.rsn;
    let attrs = generate_attrs(rsn.num_users(), d, dist, 10.0, 0xA77 ^ d as u64);
    RoadSocialNetwork::new(
        rsn.social().clone(),
        rsn.road().clone(),
        rsn.locations().to_vec(),
        attrs,
    )
    .expect("re-attributed network is consistent")
}

/// Runs all four MAC algorithms for one spec through a prepared engine and
/// returns their timings (the engine build itself is not timed — it is the
/// once-per-network preparation the serving model amortizes away).
pub fn measure_all(rsn: &RoadSocialNetwork, spec: &QuerySpec) -> AlgoTimings {
    let engine = MacEngine::build_uncalibrated(rsn.clone());
    let mut session = engine.session();
    let global = spec.to_query().with_algorithm(AlgorithmChoice::Global);
    let local = spec.to_query().with_algorithm(AlgorithmChoice::Local);
    // The spec's j selects Problem 1; j = 1 is Problem 2.
    let gs_nc: MacSearchResult = session
        .execute(&global.clone().with_top_j(1))
        .unwrap_or_else(|e| panic!("GS-NC failed: {e}"));
    let gs_t = session
        .execute(&global)
        .unwrap_or_else(|e| panic!("GS-T failed: {e}"));
    let ls_nc = session
        .execute(&local.clone().with_top_j(1))
        .unwrap_or_else(|e| panic!("LS-NC failed: {e}"));
    let ls_t = session
        .execute(&local)
        .unwrap_or_else(|e| panic!("LS-T failed: {e}"));
    AlgoTimings {
        gs_nc: gs_nc.stats.elapsed_seconds,
        gs_t: gs_t.stats.elapsed_seconds,
        ls_nc: ls_nc.stats.elapsed_seconds,
        ls_t: ls_t.stats.elapsed_seconds,
        gs_nc_communities: gs_nc.distinct_communities().len(),
        ls_nc_communities: ls_nc.distinct_communities().len(),
        gs_partitions: gs_nc.num_cells(),
        kt_core_size: gs_nc.stats.kt_core_vertices,
        gs_memory: gs_nc.stats.memory_bytes,
        ls_memory: ls_nc.stats.memory_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsn_datagen::presets::{build_preset_scaled, PresetName, PresetScale};

    #[test]
    fn measure_all_runs_on_a_tiny_preset() {
        let dataset = build_preset_scaled(
            PresetName::SfSlashdot,
            PresetScale {
                social: 0.12,
                road: 0.12,
            },
            1,
        );
        let spec = QuerySpec {
            q: dataset.query_vertices(4),
            k: 8,
            t: dataset.default_t,
            j: 2,
            sigma: 0.01,
            d: 3,
        };
        let timings = measure_all(&dataset.rsn, &spec);
        assert!(timings.kt_core_size > 0, "expected a non-empty (k,t)-core");
        assert!(timings.gs_nc >= 0.0 && timings.ls_nc >= 0.0);
        assert!(timings.gs_nc_communities >= 1);
        assert!(timings.ls_nc_communities <= timings.gs_nc_communities + 1);
    }

    #[test]
    fn dimensionality_override_changes_attribute_dim() {
        let dataset = build_preset_scaled(
            PresetName::SfSlashdot,
            PresetScale {
                social: 0.12,
                road: 0.12,
            },
            2,
        );
        let rsn4 = with_dimensionality(&dataset, 4);
        assert_eq!(rsn4.attribute_dim(), 4);
        let rsn3 = with_dimensionality(&dataset, 3);
        assert_eq!(rsn3.attribute_dim(), 3);
    }
}
