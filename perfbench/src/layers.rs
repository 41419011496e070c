//! The traced run's view of the query pipeline. Spans are recorded in
//! memory around calls into each layer's public functions, tagged with the
//! query id and the parent span, and written out when the run ends.
//! Self times follow the pipeline's nesting: the (k,t)-core span minus the
//! range-filter span is the peel, the context span minus the core and
//! dominance-graph spans is assembly, and a session execute minus the layers
//! it ran is the unattributed residual.

use crate::stats::median;
use rsn_core::ktcore::{maximal_kt_core_with, KtScratch};
use rsn_core::{
    ContextScratch, EngineEpoch, MacError, MacQuery, MacSearchResult, QuerySession, SearchContext,
};
use rsn_dom::attrs::AttrMatrix;
use rsn_dom::dominance::DominanceGraph;
use rsn_road::rangefilter::{FilterScratch, RangeFilterChoice};
use std::io::Write;
use std::time::Instant;

/// One recorded span.
struct Span {
    name: &'static str,
    query: u64,
    id: u32,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder. Span ids start at 1; parent 0 means a root.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span that started at `start` and ends now; returns its id
    /// and its duration in milliseconds.
    pub fn record(
        &mut self,
        name: &'static str,
        query: u64,
        parent: u32,
        start: Instant,
    ) -> (u32, f64) {
        let end = Instant::now();
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            name,
            query,
            id,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        (id, (end - start).as_secs_f64() * 1e3)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"query\":{},\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.query, s.id, s.parent, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-layer measurements of one query, taken by re-calling each layer.
#[derive(Debug, Clone, Default)]
pub struct LayerSample {
    pub filter_ms: f64,
    pub kept_share: f64,
    pub sweep: bool,
    pub peel_ms: f64,
    pub core_size: usize,
    pub dom_ms: f64,
    pub dom_tests: usize,
    pub assemble_ms: f64,
    pub explore_ms: f64,
    pub cells: usize,
    pub memory_bytes: usize,
    pub partitions: usize,
    pub halfspaces: usize,
    pub insertions: usize,
    /// What caching this query's context costs: the approximate bytes of
    /// its context parts.
    pub entry_bytes: usize,
}

impl LayerSample {
    /// Everything the context build costs: filter, peel, `G_d`, assembly.
    pub fn context_ms(&self) -> f64 {
        self.filter_ms + self.peel_ms + self.dom_ms + self.assemble_ms
    }
}

/// Re-calls the pipeline's layers for one query with retained scratch, the
/// way a warmed session would run them.
pub struct LayerProbe {
    filter_scratch: FilterScratch,
    within: Vec<bool>,
    kt: KtScratch,
    ctx: ContextScratch,
    /// A one-entry cached session: its second execution of a query skips
    /// the context build, so it times the search stage alone.
    explore: QuerySession,
}

impl LayerProbe {
    pub fn new(explore: QuerySession) -> Self {
        LayerProbe {
            filter_scratch: FilterScratch::new(),
            within: Vec::new(),
            kt: KtScratch::new(),
            ctx: ContextScratch::new(),
            explore: explore.with_context_cache(1),
        }
    }

    /// Measures every layer of `query` on `epoch` (which must be the current
    /// epoch of the explore session's engine).
    pub fn probe(
        &mut self,
        tracer: &mut Tracer,
        qid: u64,
        parent: u32,
        epoch: &EngineEpoch,
        query: &MacQuery,
        policy_filter: RangeFilterChoice,
    ) -> Result<LayerSample, MacError> {
        let rsn = epoch.network();
        let choice = epoch.resolve_filter_with(query, policy_filter);
        let targets = epoch.user_targets();
        let mut s = LayerSample {
            sweep: choice == RangeFilterChoice::DijkstraSweep,
            ..LayerSample::default()
        };

        let q_locations: Vec<_> = query.q.iter().map(|&v| *rsn.location(v)).collect();
        let filter = rsn.range_filter(choice, q_locations.len(), query.t);
        let start = Instant::now();
        filter.users_within_with(
            rsn.road(),
            &q_locations,
            query.t,
            rsn.locations(),
            targets,
            &mut self.filter_scratch,
            &mut self.within,
        );
        let (_, filter_ms) = tracer.record("road.rangefilter", qid, parent, start);
        s.filter_ms = filter_ms;
        s.kept_share =
            self.within.iter().filter(|&&b| b).count() as f64 / self.within.len().max(1) as f64;

        let start = Instant::now();
        let core = maximal_kt_core_with(rsn, query, choice, targets, &mut self.kt)?;
        let (core_id, core_ms) = tracer.record("core.ktcore", qid, parent, start);
        s.peel_ms = (core_ms - filter_ms).max(0.0);
        let Some(core) = core else {
            return Ok(s);
        };
        s.core_size = core.len();

        let mut attrs = AttrMatrix::with_capacity(rsn.attribute_dim(), core.len());
        for &v in &core.vertices {
            attrs.push_row(rsn.attributes(v));
        }
        let ids: Vec<u32> = (0..core.len() as u32).collect();
        let start = Instant::now();
        let gd = DominanceGraph::build_flat(&ids, &attrs, &query.region);
        let (_, dom_ms) = tracer.record("dom.dominance", qid, core_id, start);
        s.dom_ms = dom_ms;
        s.dom_tests = gd.tests_performed();

        let start = Instant::now();
        let ctx = SearchContext::build_with(rsn, query, choice, targets, &mut self.ctx)?;
        let (_, ctx_ms) = tracer.record("core.context", qid, parent, start);
        s.entry_bytes = ctx.map_or(0, |c| c.into_parts().approx_bytes());
        s.assemble_ms = (ctx_ms - core_ms - dom_ms).max(0.0);

        self.explore.execute(query)?;
        let start = Instant::now();
        let result = self.explore.execute(query)?;
        let (_, explore_ms) = tracer.record("core.global", qid, parent, start);
        s.explore_ms = explore_ms;
        s.cells = result.num_cells();
        s.memory_bytes = result.stats.memory_bytes;
        s.partitions = result.stats.partitions_explored;
        s.halfspaces = result.stats.halfspaces_computed;
        s.insertions = result.stats.halfspace_insertions;
        Ok(s)
    }
}

/// Per-layer samples of a traced run, with the execute time and residual of
/// each traced query.
#[derive(Default)]
pub struct LayerAgg {
    samples: Vec<LayerSample>,
    /// Whether the traced execution hit the context cache.
    hits: Vec<bool>,
    execute_ms: Vec<f64>,
    residual_ms: Vec<f64>,
}

impl LayerAgg {
    /// Adds one traced query: its execute time, whether it skipped the
    /// context build through the cache, and its probed layers.
    pub fn add(&mut self, execute_ms: f64, hit: bool, sample: LayerSample) {
        let ran = if hit {
            sample.explore_ms
        } else {
            sample.context_ms() + sample.explore_ms
        };
        self.residual_ms.push(execute_ms - ran);
        self.execute_ms.push(execute_ms);
        self.hits.push(hit);
        self.samples.push(sample);
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    fn med<F: Fn(&LayerSample) -> f64>(&self, f: F) -> f64 {
        median(&self.samples.iter().map(f).collect::<Vec<_>>())
    }

    /// Median per-layer metrics, by metric name.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let share = |f: &dyn Fn(&LayerSample) -> bool| {
            self.samples.iter().filter(|s| f(s)).count() as f64 / self.samples.len().max(1) as f64
        };
        vec![
            ("road.rangefilter.ms", self.med(|s| s.filter_ms), "ms"),
            (
                "road.rangefilter.kept_share",
                self.med(|s| s.kept_share),
                "ratio",
            ),
            ("road.rangefilter.sweep_share", share(&|s| s.sweep), "ratio"),
            ("core.ktcore.peel_ms", self.med(|s| s.peel_ms), "ms"),
            (
                "core.ktcore.core_size",
                self.med(|s| s.core_size as f64),
                "count",
            ),
            ("dom.dominance.ms", self.med(|s| s.dom_ms), "ms"),
            (
                "dom.dominance.tests",
                self.med(|s| s.dom_tests as f64),
                "count",
            ),
            (
                "core.context.assemble_ms",
                self.med(|s| s.assemble_ms),
                "ms",
            ),
            ("core.global.explore_ms", self.med(|s| s.explore_ms), "ms"),
            ("core.global.cells", self.med(|s| s.cells as f64), "count"),
            (
                "core.global.memory_bytes",
                self.med(|s| s.memory_bytes as f64),
                "bytes",
            ),
            (
                "geom.partitions",
                self.med(|s| s.partitions as f64),
                "count",
            ),
            (
                "geom.halfspaces",
                self.med(|s| s.halfspaces as f64),
                "count",
            ),
            (
                "geom.insertions",
                self.med(|s| s.insertions as f64),
                "count",
            ),
            (
                "core.ctxcache.entry_bytes",
                self.med(|s| s.entry_bytes as f64),
                "bytes",
            ),
            ("core.session.execute_ms", median(&self.execute_ms), "ms"),
            ("core.session.residual_ms", median(&self.residual_ms), "ms"),
        ]
    }

    /// Mean time per traced query of each layer, counting the context
    /// layers only for queries that built a context.
    pub fn layer_means(&self) -> Vec<(&'static str, f64)> {
        let mut totals = [
            ("road.rangefilter", 0.0),
            ("core.ktcore", 0.0),
            ("dom.dominance", 0.0),
            ("core.context", 0.0),
            ("core.global", 0.0),
            ("core.session", 0.0),
        ];
        for ((s, &hit), &residual) in self.samples.iter().zip(&self.hits).zip(&self.residual_ms) {
            if !hit {
                totals[0].1 += s.filter_ms;
                totals[1].1 += s.peel_ms;
                totals[2].1 += s.dom_ms;
                totals[3].1 += s.assemble_ms;
            }
            totals[4].1 += s.explore_ms;
            totals[5].1 += residual.max(0.0);
        }
        let n = self.samples.len().max(1) as f64;
        totals.iter().map(|&(name, ms)| (name, ms / n)).collect()
    }
}

/// A traced closed loop: times each session execute as a span and, on every
/// other query, re-calls the layers afterwards. Executes that follow a probe
/// against executes that follow none give the tracing overhead.
pub struct Traced {
    tracer: Tracer,
    probe: LayerProbe,
    agg: LayerAgg,
    policy_filter: RangeFilterChoice,
    next_qid: u64,
    last_probed: bool,
    after_probe_ms: Vec<f64>,
    after_plain_ms: Vec<f64>,
}

impl Traced {
    /// `explore` is a fresh session of the measured engine, under its policy.
    pub fn new(explore: QuerySession) -> Self {
        let policy_filter = explore.policy().filter;
        Traced {
            tracer: Tracer::new(),
            probe: LayerProbe::new(explore),
            agg: LayerAgg::default(),
            policy_filter,
            next_qid: 0,
            last_probed: false,
            after_probe_ms: Vec::new(),
            after_plain_ms: Vec::new(),
        }
    }

    /// Executes `query` on `session` (timed as a root span) and, on every
    /// other query, probes its layers. Returns the result and the execute
    /// time in milliseconds.
    pub fn execute(
        &mut self,
        session: &mut QuerySession,
        query: &MacQuery,
    ) -> Result<(MacSearchResult, f64), MacError> {
        let qid = self.next_qid;
        self.next_qid += 1;
        let hits = session.stats().context_cache_hits;
        let start = Instant::now();
        let result = session.execute(query)?;
        let (span, ms) = self.tracer.record("core.session.execute", qid, 0, start);
        let hit = session.stats().context_cache_hits > hits;
        if self.last_probed {
            self.after_probe_ms.push(ms);
        } else {
            self.after_plain_ms.push(ms);
        }
        self.last_probed = qid.is_multiple_of(2);
        if self.last_probed {
            let epoch = session.engine().epoch();
            let sample = self.probe.probe(
                &mut self.tracer,
                qid,
                span,
                &epoch,
                query,
                self.policy_filter,
            )?;
            self.agg.add(ms, hit, sample);
        }
        Ok((result, ms))
    }

    /// Reports the per-layer metrics, the tracing overhead and the dominant
    /// layer (among the pipeline layers and `extra`, mean milliseconds per
    /// query of layers measured elsewhere), and writes the spans to `path`.
    pub fn finish(
        self,
        report: &mut crate::report::Report,
        extra: &[(&'static str, f64)],
        path: &std::path::Path,
    ) -> Result<(), String> {
        for (name, value, unit) in self.agg.metrics() {
            report.metric(name, value, unit);
        }
        let plain = median(&self.after_plain_ms);
        report.metric(
            "bench.tracing_overhead",
            median(&self.after_probe_ms) / plain.max(1e-12) - 1.0,
            "ratio",
        );
        report.metric("bench.traced_queries", self.agg.len() as f64, "count");
        report.metric("bench.spans", self.tracer.len() as f64, "count");
        let mut means = self.agg.layer_means();
        means.extend_from_slice(extra);
        crate::report_dominant(report, means);
        self.tracer
            .write_jsonl(path)
            .map_err(|e| format!("writing spans to {}: {e}", path.display()))?;
        report.note("spans", &path.display().to_string());
        Ok(())
    }
}

/// Executes `query` on `session`, through `traced` when the run is traced;
/// returns the result and the execute time in milliseconds.
pub fn timed_execute(
    session: &mut QuerySession,
    traced: Option<&mut Traced>,
    query: &MacQuery,
) -> Result<(MacSearchResult, f64), MacError> {
    match traced {
        Some(t) => t.execute(session, query),
        None => {
            let start = Instant::now();
            let result = session.execute(query)?;
            Ok((result, start.elapsed().as_secs_f64() * 1e3))
        }
    }
}
