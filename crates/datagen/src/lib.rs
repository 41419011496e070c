//! # rsn-datagen
//!
//! Synthetic road-social networks, numerical attributes, and location
//! assignments for the MAC reproduction.
//!
//! The paper evaluates on real road networks (San Francisco, Florida, North
//! America) paired with real social networks (Slashdot, Delicious, Lastfm,
//! Flixster, Yelp, Aminer); four of the social networks carry synthetic
//! attributes generated with the classic independent / correlated /
//! anti-correlated method of the skyline literature, and users are mapped to
//! road locations from check-ins. None of those datasets can be redistributed
//! here, so this crate generates *structurally equivalent* synthetic
//! replacements:
//!
//! * [`road`] — sparse, near-planar road networks with average degree ≈ 2.5.
//! * [`social`] — preferential-attachment graphs with planted dense groups so
//!   that deep k-cores exist (tunable `k_max`).
//! * [`attrs`] — independent / correlated / anti-correlated / zero-inflated
//!   attribute generators.
//! * [`locations`] — check-in style clustered location assignment.
//! * [`presets`] — named road-social datasets mirroring the scale ratios of
//!   Table II, plus the Aminer-like and Yelp-like case-study networks.
//! * [`paper_example`] — the running example of Fig. 1 / Fig. 2 used across
//!   the test suites.
//! * [`stats`] — dataset statistics (Table II columns).

pub mod attrs;
pub mod locations;
pub mod paper_example;
pub mod presets;
pub mod road;
pub mod social;
pub mod stats;

pub use attrs::AttrDistribution;
pub use presets::{Dataset, PresetName};
