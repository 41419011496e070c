//! Named road-social dataset presets.
//!
//! Each preset mirrors one of the paper's road + social combinations
//! (Table II), scaled down so that the full benchmark suite runs on a laptop
//! while keeping the ratios that matter to the algorithms: road networks with
//! average degree ≈ 2.5, heavy-tailed social degree distributions, planted
//! deep cores (so the k sweep of Table III is meaningful), and the attribute
//! regime the paper uses for that dataset (independent for the four
//! network-repository datasets, zero-inflated correlated for Yelp, correlated
//! multi-metric for the Aminer case study).

use crate::attrs::{generate_attrs, AttrDistribution};
use crate::locations::{assign_locations, LocationConfig};
use crate::road::{generate_road, RoadConfig};
use crate::social::{generate_social, PlantedGroup, SocialConfig};
use rsn_core::network::RoadSocialNetwork;
use rsn_graph::graph::VertexId;

/// Identifiers of the available presets (road + social combinations of the
/// evaluation section, plus the two case-study networks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PresetName {
    /// San-Francisco-like road + Slashdot-like social network.
    SfSlashdot,
    /// San-Francisco-like road + Delicious-like social network.
    SfDelicious,
    /// Florida-like road + Lastfm-like social network.
    FlLastfm,
    /// Florida-like road + Flixster-like social network.
    FlFlixster,
    /// Florida-like road + Yelp-like social network (zero-inflated attributes).
    FlYelp,
    /// North-America-like road + Aminer-like collaboration network (4 attrs).
    AminerNa,
    /// San-Francisco-like road + Yelp-like network for the second case study.
    YelpSf,
}

impl PresetName {
    /// All presets, in the order used by the benchmark harness.
    pub fn all() -> &'static [PresetName] {
        &[
            PresetName::SfSlashdot,
            PresetName::SfDelicious,
            PresetName::FlLastfm,
            PresetName::FlFlixster,
            PresetName::FlYelp,
            PresetName::AminerNa,
            PresetName::YelpSf,
        ]
    }

    /// Human-readable name matching the paper's terminology.
    pub fn label(&self) -> &'static str {
        match self {
            PresetName::SfSlashdot => "SF+Slashdot",
            PresetName::SfDelicious => "SF+Delicious",
            PresetName::FlLastfm => "FL+Lastfm",
            PresetName::FlFlixster => "FL+Flixster",
            PresetName::FlYelp => "FL+Yelp",
            PresetName::AminerNa => "NA+Aminer",
            PresetName::YelpSf => "SF+Yelp",
        }
    }

    /// Parses a CLI-style name (e.g. `sf_slashdot`).
    pub fn parse(name: &str) -> Option<PresetName> {
        match name.to_ascii_lowercase().as_str() {
            "sf_slashdot" | "sf+slashdot" => Some(PresetName::SfSlashdot),
            "sf_delicious" | "sf+delicious" => Some(PresetName::SfDelicious),
            "fl_lastfm" | "fl+lastfm" => Some(PresetName::FlLastfm),
            "fl_flixster" | "fl+flixster" => Some(PresetName::FlFlixster),
            "fl_yelp" | "fl+yelp" => Some(PresetName::FlYelp),
            "aminer_na" | "na+aminer" => Some(PresetName::AminerNa),
            "yelp_sf" | "sf+yelp" => Some(PresetName::YelpSf),
            _ => None,
        }
    }
}

/// A generated dataset: the network plus bookkeeping the harness needs to
/// form queries the same way the paper does (query vertices drawn from the
/// k-core, co-located so that a (k,t)-core exists).
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Which preset generated this dataset.
    pub name: PresetName,
    /// The road-social network.
    pub rsn: RoadSocialNetwork,
    /// Members of the planted deep groups (spatially tight, high coreness).
    pub deep_groups: Vec<Vec<VertexId>>,
    /// The attribute regime used.
    pub attr_distribution: AttrDistribution,
    /// A sensible default query-distance threshold for this road network
    /// (plays the role of the per-road-network `t` defaults of Table III).
    pub default_t: f64,
}

impl Dataset {
    /// Query vertices for a sweep: `count` members of the first planted deep
    /// group (they are mutually close in the road network and have high
    /// coreness, mirroring the paper's query selection from the k-core).
    pub fn query_vertices(&self, count: usize) -> Vec<VertexId> {
        let group = &self.deep_groups[0];
        group.iter().copied().take(count.max(1)).collect()
    }
}

/// Scaling factor applied to every preset (1.0 = the default laptop scale).
#[derive(Debug, Clone, Copy)]
pub struct PresetScale {
    /// Multiplier on the number of social users.
    pub social: f64,
    /// Multiplier on the number of road vertices.
    pub road: f64,
}

impl Default for PresetScale {
    fn default() -> Self {
        PresetScale {
            social: 1.0,
            road: 1.0,
        }
    }
}

/// Builds a preset with an explicit scale and seed offset.
pub fn build_preset_scaled(name: PresetName, scale: PresetScale, seed: u64) -> Dataset {
    let (road_n, social_n, attach_m, d, dist, default_t) = match name {
        // road size, social size, PA attachment, #attrs, attr regime, default t
        PresetName::SfSlashdot => (1_600, 2_500, 6, 3, AttrDistribution::Independent, 30.0),
        PresetName::SfDelicious => (1_600, 4_000, 3, 3, AttrDistribution::Independent, 30.0),
        PresetName::FlLastfm => (3_600, 6_000, 4, 3, AttrDistribution::Independent, 40.0),
        PresetName::FlFlixster => (3_600, 8_000, 3, 3, AttrDistribution::Independent, 40.0),
        PresetName::FlYelp => (
            3_600,
            9_000,
            3,
            3,
            AttrDistribution::ZeroInflatedCorrelated,
            40.0,
        ),
        PresetName::AminerNa => (2_500, 3_000, 3, 4, AttrDistribution::Correlated, 50.0),
        PresetName::YelpSf => (
            1_600,
            3_000,
            3,
            3,
            AttrDistribution::ZeroInflatedCorrelated,
            30.0,
        ),
    };
    let road_n = ((road_n as f64) * scale.road).round().max(64.0) as usize;
    let social_n = ((social_n as f64) * scale.social).round().max(256.0) as usize;

    let road = generate_road(&RoadConfig::with_size(road_n, 0xA11CE ^ seed));
    // Planted groups: one deep group supporting the largest k of the sweeps
    // (k = 64) plus two medium groups, mirroring the k_max range of Table II.
    let planted = vec![
        PlantedGroup {
            size: 90,
            degree: 68,
        },
        PlantedGroup {
            size: 60,
            degree: 34,
        },
        PlantedGroup {
            size: 40,
            degree: 18,
        },
    ];
    let social = generate_social(&SocialConfig {
        n: social_n,
        attach_m,
        planted,
        seed: 0xB0B ^ seed,
    });
    let attrs = generate_attrs(social_n, d, dist, 10.0, 0xC0FFEE ^ seed);
    let locations = assign_locations(
        &road,
        social_n,
        &social.groups,
        &LocationConfig {
            clusters: 24,
            radius: 6,
            seed: 0xD00D ^ seed,
        },
    );
    let rsn = RoadSocialNetwork::new(social.graph, road, locations, attrs)
        .expect("generated preset must be consistent");
    Dataset {
        name,
        rsn,
        deep_groups: social.groups,
        attr_distribution: dist,
        default_t,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsn_graph::core_decomp::max_core_number;

    #[test]
    fn preset_names_round_trip() {
        for &p in PresetName::all() {
            let label = p.label();
            assert!(PresetName::parse(label).is_some(), "cannot parse {label}");
        }
        assert_eq!(
            PresetName::parse("sf_slashdot"),
            Some(PresetName::SfSlashdot)
        );
        assert_eq!(PresetName::parse("nonsense"), None);
    }

    #[test]
    fn small_scale_preset_is_consistent() {
        let dataset = build_preset_scaled(
            PresetName::SfSlashdot,
            PresetScale {
                social: 0.2,
                road: 0.2,
            },
            7,
        );
        assert!(dataset.rsn.num_users() >= 256);
        assert_eq!(dataset.rsn.attribute_dim(), 3);
        // the planted deep group supports k = 64
        assert!(max_core_number(dataset.rsn.social()) >= 64);
        let q = dataset.query_vertices(4);
        assert_eq!(q.len(), 4);
        for &v in &q {
            assert!((v as usize) < dataset.rsn.num_users());
        }
    }
}
