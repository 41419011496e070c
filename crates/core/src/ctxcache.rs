//! Session-level answer cache.
//!
//! A result-bearing MAC query pays most of its latency **before** the search
//! proper: the Lemma-1 range filter, the (k,t)-core peel, and the `O(core²)`
//! r-dominance graph build all run per query even when the query is a repeat
//! of one served moments ago — a common shape under production traffic, where
//! popular queries recur (the load harness models this with a Zipf-skewed
//! query population). The [`ContextCache`] closes that gap: a
//! [`QuerySession`](crate::session::QuerySession) with a cache keeps the last
//! complete answer of recently served queries, stored flat and keyed by the
//! query's [signature](crate::query::MacQuery::signature) under the algorithm
//! the session resolved. A repeat of that exact query — same users, `k`, `t`,
//! region, `j` and algorithm — skips every stage; any other query runs the
//! same pipeline as an uncached session, and charges its budget the same.
//!
//! The `Context*` names ([`ContextCache`], [`ContextCacheStats`],
//! `with_context_cache`) date from when entries also kept built search
//! contexts; they stay because the repository benchmark reads them.
//!
//! Coherence is by distance slack, not by epoch. Only Lemma 1 reads the road
//! network: the peel, `G_d` and the answer depend on the kept set
//! `{u : D_Q(u) <= t}`, the social graph, the attributes and the query. A
//! road update keeps the topology, so every location-to-location distance
//! moves by at most the engine's drift ([`EngineEpoch::drift`]) since the
//! entry was built. An entry therefore records, at build time, the slack
//! `min_u |t - D_Q(u)|` and an upper bound on the per-vertex field
//! `max_q d(q, v)` ([`QueryReach`]). At the first lookup in a new epoch the
//! cache syncs:
//!
//! * each user moved since the last sync is checked against the field at
//!   its current location. The field knows distances only up to `t`, so it
//!   can prove that a user stays inside the ball, never that one stays out:
//!   the entry is dropped unless the user is a non-query user the entry
//!   kept and an upper bound on its distance, plus the drift, stays below
//!   `t` by more than the margin. Otherwise the entry's slack tightens to
//!   that distance. Entries built by the G-tree walk carry no field and
//!   drop on any move;
//! * an entry survives while `slack > drift + margin` (the margin is
//!   [`reuse_margin`], a relative EPS of `t`), or while no delta since its
//!   build changed an edge weight (counted exactly, since a change below
//!   the rounding of the cumulative drift leaves it equal). An entry whose
//!   drift lands exactly on the margin is dropped.
//!
//! A kept entry's answer is exactly what a rebuild would return. A cache
//! further behind than the engine's move log clears itself.
//!
//! A hit reads the stored answer in place; an entry is added only once its
//! query completed, so a query that panics mid-search leaves the cache as
//! it was.

use crate::engine::EngineEpoch;
use crate::outcome::{CompactOutcome, CompactScratch};
use crate::query::QuerySignature;
use crate::result::MacSearchResult;
use rsn_graph::graph::VertexId;
use rsn_road::network::Location;
use rsn_road::rangefilter::{reuse_margin, QueryReach};

/// Default number of cached answers when a cache is enabled without an
/// explicit capacity.
pub const DEFAULT_CONTEXT_CACHE_CAPACITY: usize = 32;

/// Hit/miss/eviction/invalidation counters of one [`ContextCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContextCacheStats {
    /// Lookups answered from a stored answer.
    pub hits: u64,
    /// Lookups that found no entry (first sight, an incomplete earlier run,
    /// evicted, or dropped by an update).
    pub misses: u64,
    /// Entries dropped to make room for newer ones.
    pub evictions: u64,
    /// Entries dropped by road updates: the drift expiries, the move drops,
    /// and the entries of a cache that fell further behind than the
    /// engine's move log.
    pub epoch_invalidations: u64,
    /// Entries dropped because the drift since their build reached their
    /// slack minus the margin.
    pub drift_expiries: u64,
    /// Entries dropped because a moved user could change their kept set.
    pub move_drops: u64,
}

impl ContextCacheStats {
    /// Hit fraction in `[0, 1]` (0 when no lookup happened yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// What lets a cache entry outlive the epoch it was built on.
#[derive(Debug)]
pub(crate) struct Reuse {
    /// The range filter's record at build: kept set, field, slack.
    reach: QueryReach,
    /// Lower bound on `min_u |t - D_Q(u)|` at build-time distances,
    /// tightened by every move the entry survived.
    slack: f64,
    /// The engine's drift when the entry was built.
    drift: f64,
    /// The engine's count of weight-changing deltas when the entry was
    /// built.
    reweighted_epochs: u64,
}

/// Why a sync dropped an entry.
enum Expiry {
    Moved,
    Drifted,
}

impl Reuse {
    /// The reuse record of an entry built with `reach` on `epoch`.
    pub(crate) fn new(reach: QueryReach, epoch: &EngineEpoch) -> Self {
        Reuse {
            slack: reach.slack(),
            reach,
            drift: epoch.drift(),
            reweighted_epochs: epoch.reweighted_epochs(),
        }
    }

    /// Brings the record from epoch `since` to `epoch`: checks every user
    /// moved in between, then the drift.
    fn sync(
        &mut self,
        key: &QuerySignature,
        epoch: &EngineEpoch,
        since: u64,
    ) -> Result<(), Expiry> {
        let t = key.t();
        let drift = epoch.drift() - self.drift;
        let margin = reuse_margin(t);
        for user in epoch.moved_since(since).into_iter().flatten() {
            if !self.admit_move(key, epoch, user, t, drift, margin) {
                return Err(Expiry::Moved);
            }
        }
        // No weight changed since the build: every distance is as it was.
        let unchanged = epoch.reweighted_epochs() == self.reweighted_epochs;
        if unchanged || self.slack > drift + margin {
            Ok(())
        } else {
            Err(Expiry::Drifted)
        }
    }

    /// Whether the entry survives `user`'s move to its current location.
    /// The field holds build-time distances only up to `t`, so it can prove
    /// that a user stays inside the ball but never that one stays out: the
    /// move is admitted only when the user was kept and an upper bound on
    /// its distance from the field, plus the drift, stays below `t` by more
    /// than the margin. Tightens the slack to that bound on success.
    fn admit_move(
        &mut self,
        key: &QuerySignature,
        epoch: &EngineEpoch,
        user: VertexId,
        t: f64,
        drift: f64,
        margin: f64,
    ) -> bool {
        let rsn = epoch.network();
        if key.users().contains(&user) || !self.reach.kept(user as usize) {
            return false;
        }
        if !self.reach.has_field() {
            return false;
        }
        let bound = |v| self.reach.distance_bound(v).expect("the entry has a field");
        // Paths through the edge's endpoints bound every query distance
        // from above (a query location on the same edge only adds a
        // shorter path), and `max_q min(..) <= min(max_q ..)`.
        let hi = match *rsn.location(user) {
            Location::Vertex(a) => bound(a),
            Location::OnEdge {
                u: a,
                v: b,
                offset: x,
            } => {
                let w = rsn.road().edge_weight(a, b).expect("a located user's edge");
                (bound(a) + x).min(bound(b) + (w - x))
            }
        };
        if t - hi > drift + margin {
            self.slack = self.slack.min(t - hi);
            true
        } else {
            false
        }
    }
}

/// One cache entry: a complete answer and what makes it reusable across
/// epochs.
#[derive(Debug)]
struct CachedEntry {
    key: QuerySignature,
    reuse: Reuse,
    outcome: CompactOutcome,
}

/// A bounded, LRU-evicting map from a query's answer key (its
/// [signature](crate::query::MacQuery::signature) under the resolved
/// algorithm) to its last complete answer, kept coherent across engine
/// epochs by distance slack (see the [module docs](self)).
///
/// The entry count is intentionally small (a serving thread sees a handful of
/// hot queries), so lookups are a linear scan — cheaper than hashing at this
/// size and free of hasher state.
#[derive(Debug)]
pub struct ContextCache {
    /// Most recently used last.
    entries: Vec<CachedEntry>,
    capacity: usize,
    /// The engine epoch the entries were last synced to.
    epoch: u64,
    stats: ContextCacheStats,
    /// Scratch of the answer compaction.
    compact: CompactScratch,
}

impl ContextCache {
    /// Creates an empty cache holding at most `capacity` answers (minimum 1).
    pub(crate) fn new(capacity: usize) -> Self {
        ContextCache {
            entries: Vec::new(),
            capacity: capacity.max(1),
            epoch: 0,
            stats: ContextCacheStats::default(),
            compact: CompactScratch::default(),
        }
    }

    /// Counter snapshot.
    pub(crate) fn stats(&self) -> ContextCacheStats {
        self.stats
    }

    /// Drops every entry (the counters survive).
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }

    /// Brings the entries from the epoch they were last synced to up to
    /// `epoch`, dropping those a road update could have changed. Called
    /// with the epoch the session pinned for the query, before any lookup
    /// or store.
    fn sync(&mut self, epoch: &EngineEpoch) {
        if self.epoch == epoch.id() {
            return;
        }
        let since = std::mem::replace(&mut self.epoch, epoch.id());
        if self.entries.is_empty() {
            return;
        }
        let stats = &mut self.stats;
        if epoch.moved_since(since).is_none() {
            stats.epoch_invalidations += self.entries.len() as u64;
            self.entries.clear();
            return;
        }
        self.entries
            .retain_mut(|entry| match entry.reuse.sync(&entry.key, epoch, since) {
                Ok(()) => true,
                Err(cause) => {
                    stats.epoch_invalidations += 1;
                    match cause {
                        Expiry::Moved => stats.move_drops += 1,
                        Expiry::Drifted => stats.drift_expiries += 1,
                    }
                    false
                }
            });
    }

    /// The stored answer for `key`, after syncing the cache to `epoch`;
    /// a found entry becomes the most recently used. Counts the lookup as a
    /// hit or a miss.
    pub(crate) fn lookup(
        &mut self,
        epoch: &EngineEpoch,
        key: &QuerySignature,
    ) -> Option<&CompactOutcome> {
        self.sync(epoch);
        let Some(pos) = self.entries.iter().position(|e| &e.key == key) else {
            self.stats.misses += 1;
            return None;
        };
        self.stats.hits += 1;
        self.entries[pos..].rotate_left(1);
        self.entries.last().map(|e| &e.outcome)
    }

    /// Stores `result`, the complete answer of the query keyed by `key`,
    /// with its reuse record as the most recently used entry, evicting the
    /// least recently used entry when full. The caller stores only after a
    /// missed [`lookup`](Self::lookup) on the same epoch, so no entry holds
    /// `key` yet. An answer that does not fit the flat form is not stored.
    pub(crate) fn store(
        &mut self,
        epoch: &EngineEpoch,
        key: QuerySignature,
        reuse: Reuse,
        result: &MacSearchResult,
    ) {
        self.sync(epoch);
        debug_assert!(self.entries.iter().all(|e| e.key != key));
        let Some(outcome) = CompactOutcome::new(result, &mut self.compact) else {
            return;
        };
        if self.entries.len() >= self.capacity {
            self.entries.remove(0);
            self.stats.evictions += 1;
        }
        self.entries.push(CachedEntry {
            key,
            reuse,
            outcome,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::BudgetTicker;
    use crate::context::{BuildOutcome, ContextScratch, SearchContext};
    use crate::engine::{MacEngine, NetworkDelta};
    use crate::network::RoadSocialNetwork;
    use crate::query::MacQuery;
    use crate::result::SearchStats;
    use rsn_geom::region::PrefRegion;
    use rsn_graph::graph::Graph;
    use rsn_road::network::RoadNetwork;
    use rsn_road::rangefilter::{RangeFilterChoice, REUSE_MARGIN_EPS};

    /// K4 on users 0..3 plus user 4, all within distance 1 of the query
    /// user on a unit-weight road path 0-1-2-3-4.
    fn network() -> RoadSocialNetwork {
        let social =
            Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)]);
        let road =
            RoadNetwork::from_edges(5, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)]);
        let locations = vec![
            Location::vertex(0),
            Location::vertex(0),
            Location::vertex(1),
            Location::vertex(1),
            Location::vertex(1),
        ];
        let attrs = vec![
            vec![5.0, 1.0],
            vec![4.0, 2.0],
            vec![3.0, 3.0],
            vec![2.0, 4.0],
            vec![1.0, 5.0],
        ];
        RoadSocialNetwork::new(social, road, locations, attrs).unwrap()
    }

    /// `t = 2.5` keeps every user; the farthest sits at 1, so the slack
    /// is exactly 1.5.
    fn query(k: u32) -> MacQuery {
        let region = PrefRegion::from_ranges(&[(0.3, 0.7)]).unwrap();
        MacQuery::new(vec![0], k, 2.5, region)
    }

    /// The reuse record a cached session would store for `query` on
    /// `epoch`.
    fn reuse_for(query: &MacQuery, epoch: &EngineEpoch) -> Reuse {
        let mut reach = QueryReach::new();
        let built = SearchContext::build_with_ticker(
            epoch.network(),
            query,
            RangeFilterChoice::DijkstraSweep,
            None,
            &mut ContextScratch::new(),
            &mut BudgetTicker::unlimited(),
            Some(&mut reach),
        )
        .unwrap();
        assert!(
            matches!(built, BuildOutcome::Ready(_)),
            "the fixture has a core"
        );
        Reuse::new(reach, epoch)
    }

    /// Stores an (empty) answer for `query` built on `epoch`.
    fn store(cache: &mut ContextCache, query: &MacQuery, epoch: &EngineEpoch) {
        let answer = MacSearchResult {
            cells: Vec::new(),
            stats: SearchStats::default(),
        };
        cache.store(epoch, query.signature(), reuse_for(query, epoch), &answer);
    }

    /// Stores the entry for `query(3)` on the current epoch, applies
    /// `delta`, and reports whether the entry survived the next lookup.
    fn survives(delta: NetworkDelta) -> (bool, ContextCacheStats) {
        let engine = MacEngine::build(network());
        let q = query(3);
        let mut cache = ContextCache::new(4);
        store(&mut cache, &q, &engine.epoch());
        engine.apply_updates(&delta).unwrap();
        let kept = cache.lookup(&engine.epoch(), &q.signature()).is_some();
        (kept, cache.stats())
    }

    #[test]
    fn lookups_count_hits_and_misses() {
        let engine = MacEngine::build(network());
        let epoch = engine.epoch();
        let q = query(3);
        let key = q.signature();
        let mut cache = ContextCache::new(4);
        assert!(cache.lookup(&epoch, &key).is_none());
        store(&mut cache, &q, &epoch);
        assert_eq!(cache.entries.len(), 1);
        assert!(
            cache.entries[0].reuse.reach.has_field(),
            "the entry keeps its distance field"
        );
        // A lookup reads the entry in place: it stays cached.
        assert!(cache.lookup(&epoch, &key).is_some());
        assert!(cache.lookup(&epoch, &key).is_some());
        assert_eq!(cache.entries.len(), 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
        assert!((stats.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_drops_the_oldest_entry() {
        let engine = MacEngine::build(network());
        let epoch = engine.epoch();
        let mut cache = ContextCache::new(2);
        let queries: Vec<_> = (1..4).map(query).collect();
        store(&mut cache, &queries[0], &epoch);
        store(&mut cache, &queries[1], &epoch);
        // A hit refreshes the first entry, so the second is evicted.
        assert!(cache.lookup(&epoch, &queries[0].signature()).is_some());
        store(&mut cache, &queries[2], &epoch);
        assert_eq!(cache.entries.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(
            cache.lookup(&epoch, &queries[1].signature()).is_none(),
            "least recently used entry evicted"
        );
        assert!(cache.lookup(&epoch, &queries[0].signature()).is_some());
        assert!(cache.lookup(&epoch, &queries[2].signature()).is_some());
    }

    #[test]
    fn a_reweight_below_the_slack_keeps_the_entry() {
        // Edge (3, 4) holds no user: the drift is exactly 0.25 < 1.5.
        let (kept, stats) = survives(NetworkDelta::new().reweight_edge(3, 4, 1.25));
        assert!(kept);
        assert_eq!(stats.epoch_invalidations, 0);
    }

    #[test]
    fn a_reweight_across_t_expires_the_entry() {
        // Users 2-4 end up at distance 3 > t.
        let (kept, stats) = survives(NetworkDelta::new().reweight_edge(0, 1, 3.0));
        assert!(!kept);
        assert_eq!((stats.drift_expiries, stats.epoch_invalidations), (1, 1));
    }

    #[test]
    fn drift_landing_exactly_on_the_margin_expires_the_entry() {
        // Dyadic throughout: slack 1.5, margin 2.5 * 2^-30, and a drift of
        // `slack - margin` on the user-free edge (3, 4).
        let margin = reuse_margin(2.5);
        assert_eq!(margin, 2.5 * REUSE_MARGIN_EPS);
        let on_margin = 1.0 + (1.5 - margin);
        let (kept, stats) = survives(NetworkDelta::new().reweight_edge(3, 4, on_margin));
        assert!(!kept, "drift + margin == slack must not be reused");
        assert_eq!(stats.drift_expiries, 1);
        let inside = 1.0 + (1.5 - 2.0 * margin);
        let (kept, _) = survives(NetworkDelta::new().reweight_edge(3, 4, inside));
        assert!(kept, "drift + margin < slack is reused");
    }

    #[test]
    fn a_move_across_t_drops_the_entry_and_a_move_inside_tightens_it() {
        // Vertex 3 lies beyond t = 2.5 (unsettled by the sweep).
        let (kept, stats) = survives(NetworkDelta::new().move_user(4, Location::vertex(3)));
        assert!(!kept);
        assert_eq!((stats.move_drops, stats.epoch_invalidations), (1, 1));
        // Vertex 2 is at distance 2: still kept, 0.5 inside t.
        let engine = MacEngine::build(network());
        let q = query(3);
        let key = q.signature();
        let mut cache = ContextCache::new(4);
        store(&mut cache, &q, &engine.epoch());
        engine
            .apply_updates(&NetworkDelta::new().move_user(4, Location::vertex(2)))
            .unwrap();
        assert!(
            cache.lookup(&engine.epoch(), &key).is_some(),
            "move inside t keeps"
        );
        // The field's bound sits at most two steps of t / 65534 above 2.
        let slack = cache.entries[0].reuse.slack;
        assert!(
            slack <= 0.5 && slack > 0.5 - 2.0 * 2.5 / 65534.0,
            "slack {slack}"
        );
        // The tightened slack now rejects a drift of 0.75.
        engine
            .apply_updates(&NetworkDelta::new().reweight_edge(3, 4, 1.75))
            .unwrap();
        assert!(cache.lookup(&engine.epoch(), &key).is_none());
        assert_eq!(cache.stats().drift_expiries, 1);
    }

    #[test]
    fn moving_a_query_user_or_falling_behind_the_log_drops_entries() {
        let (kept, stats) = survives(NetworkDelta::new().move_user(0, Location::vertex(0)));
        assert!(!kept, "the field is relative to the query locations");
        assert_eq!(stats.move_drops, 1);

        let engine = MacEngine::build(network());
        let q = query(3);
        let mut cache = ContextCache::new(4);
        store(&mut cache, &q, &engine.epoch());
        for _ in 0..=MOVE_LOG_TEST_EPOCHS {
            // Same-weight reweights: new epochs with no drift and no moves.
            engine
                .apply_updates(&NetworkDelta::new().reweight_edge(3, 4, 1.0))
                .unwrap();
        }
        assert!(cache.lookup(&engine.epoch(), &q.signature()).is_none());
        assert_eq!(cache.stats().epoch_invalidations, 1);
    }

    /// An entry with no slack (users at exactly `t`) is reused only while
    /// no delta changed a weight — decided exactly, not from the drift,
    /// which a change below its rounding leaves equal.
    #[test]
    fn a_slackless_entry_drops_at_any_weight_change_even_one_the_drift_absorbs() {
        let engine = MacEngine::build(network());
        // Drive the drift to 2^54, where a change of 0.5 rounds away.
        let far = (1u64 << 54) as f64 + 1.0;
        engine
            .apply_updates(&NetworkDelta::new().reweight_edge(3, 4, far))
            .unwrap();
        // Users 2..4 sit at exactly t = 1.
        let region = PrefRegion::from_ranges(&[(0.3, 0.7)]).unwrap();
        let q = MacQuery::new(vec![0], 3, 1.0, region);
        let key = q.signature();
        let mut cache = ContextCache::new(4);
        store(&mut cache, &q, &engine.epoch());
        assert_eq!(cache.entries[0].reuse.slack, 0.0);
        // A move-only delta keeps every distance.
        engine
            .apply_updates(&NetworkDelta::new().move_user(4, Location::vertex(0)))
            .unwrap();
        assert!(
            cache.lookup(&engine.epoch(), &key).is_some(),
            "no weight changed"
        );
        // Users 2..4 leave the ball, yet the drift does not move.
        let drift = engine.epoch().drift();
        engine
            .apply_updates(&NetworkDelta::new().reweight_edge(0, 1, 1.5))
            .unwrap();
        assert_eq!(engine.epoch().drift(), drift);
        assert!(cache.lookup(&engine.epoch(), &key).is_none());
        assert_eq!(cache.stats().drift_expiries, 1);
    }

    /// One more epoch than the engine's move log holds.
    const MOVE_LOG_TEST_EPOCHS: usize = 64;
}
