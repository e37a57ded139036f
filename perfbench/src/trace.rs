//! The traced replay: spans and counts recorded from outside the program,
//! around the benchmark's calls into each layer, plus the per-layer
//! metric list they are reduced to.
//!
//! Every extra call made here is a pure read of the cache
//! (`probe_candidates`, `iso_hash`, `enumerate_paths`), so a traced
//! replay must leave exactly the counters an untraced replay of the same
//! stream leaves.

use crate::served::Served;
use crate::stats::{percentile, ratio, self_time, Metrics};
use gc_core::{GraphCache, MaintStats, QueryIndexConfig, QueryResponse, RunCounters};
use gc_graph::LabeledGraph;
use gc_server::proto::{
    encode_request, encode_response, parse_request, parse_response, QueryFrame, Request, Response,
    ResultFrame,
};
use std::time::{Duration, Instant};

/// Every per-layer metric, in output order, with its unit. Names are
/// prefixed by the layer (module) they measure.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("setup.load_dataset_ms", "ms"),
    ("setup.method_build_ms", "ms"),
    ("setup.cache_build_ms", "ms"),
    ("setup.ready_ms", "ms"),
    ("methods.filter_us", "us"),
    ("methods.verify_us", "us"),
    ("methods.subiso_tests_per_query", "count"),
    ("methods.verify_work_per_query", "count"),
    ("methods.cs_m_mean", "count"),
    ("methods.ref_query_us", "us"),
    ("index.iso_hash_us", "us"),
    ("index.paths_us", "us"),
    ("processors.gc_filter_us", "us"),
    ("processors.probe_us", "us"),
    ("processors.candidates_per_query", "count"),
    ("processors.gc_tests_per_query", "count"),
    ("processors.hit_yield", "ratio"),
    ("processors.exact_fp_share", "ratio"),
    ("processors.truncated_share", "ratio"),
    ("pruner.cs_ratio", "ratio"),
    ("core.assisted_share", "ratio"),
    ("core.execute_us", "us"),
    ("core.execute_self_us", "us"),
    ("core.speedup_vs_m", "ratio"),
    ("core.latency_samples", "count"),
    ("window.maint_us_p50", "us"),
    ("window.maint_us_max", "us"),
    ("window.maint_queries", "count"),
    ("window.victim_select_ms", "ms"),
    ("window.index_delta_ms", "ms"),
    ("window.stats_upkeep_ms", "ms"),
    ("window.flush_ms", "ms"),
    ("window.rounds", "count"),
    ("window.admitted", "count"),
    ("window.evicted", "count"),
    ("window.compactions", "count"),
    ("window.postings_debt", "count"),
    ("fragments.upkeep_ms", "ms"),
    ("fragments.built", "count"),
    ("fragments.probes", "count"),
    ("fragments.hit_ratio", "ratio"),
    ("fragments.pruned_per_query", "count"),
    ("persist.save_ms", "ms"),
    ("persist.restore_ms", "ms"),
    ("persist.snapshot_bytes", "bytes"),
    ("persist.bytes_per_entry", "bytes"),
    ("persist.snapshots_written", "count"),
    ("proto.encode_us", "us"),
    ("proto.parse_us", "us"),
    ("proto.bytes_per_query", "bytes"),
    ("server.ready_ms", "ms"),
    ("server.qps", "1/s"),
    ("server.latency_p50_us", "us"),
    ("server.latency_p99_us", "us"),
    ("server.ping_rtt_us", "us"),
    ("server.busy", "count"),
    ("cache.entries", "count"),
    ("cache.arena_live_bytes", "bytes"),
    ("cache.arena_reserved_bytes", "bytes"),
    ("trace.overhead", "ratio"),
];

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Per-query spans and counts gathered around the calls into each layer.
#[derive(Debug, Default)]
pub struct Tracer {
    queries: u64,
    iso_hash: Duration,
    paths: Duration,
    probe: Duration,
    candidates: u64,
    execute: Duration,
    m_filter: Duration,
    gc_filter: Duration,
    verify: Duration,
    execute_self: Duration,
    maint_us: Vec<f64>,
}

impl Tracer {
    /// Spans taken before a query executes: the query's fingerprint and
    /// path profile (`gc-index`) and the cache's candidate probe
    /// (`gc-core::processors`), all pure reads.
    pub fn before(&mut self, cache: &GraphCache, query: &LabeledGraph) {
        let cfg = QueryIndexConfig::default();
        let t = Instant::now();
        std::hint::black_box(gc_index::fingerprint::iso_hash(query));
        self.iso_hash += t.elapsed();
        let t = Instant::now();
        std::hint::black_box(gc_index::paths::enumerate_paths(
            query,
            cfg.max_path_len,
            cfg.work_cap,
        ));
        self.paths += t.elapsed();
        let t = Instant::now();
        let cands = cache.probe_candidates(query, None);
        self.probe += t.elapsed();
        self.candidates += cands.len() as u64;
    }

    /// Folds in one executed query: its `execute` span split into the
    /// record's four stages and the unexplained self time.
    pub fn after(&mut self, span: Duration, resp: &QueryResponse) {
        let r = &resp.result.record;
        self.queries += 1;
        self.execute += span;
        self.m_filter += r.m_filter;
        self.gc_filter += r.gc_filter;
        self.verify += r.verify;
        self.execute_self += self_time(span, &[r.m_filter, r.gc_filter, r.verify, r.maintenance]);
        if !r.maintenance.is_zero() {
            self.maint_us.push(us(r.maintenance));
        }
    }
}

/// Wire-codec cost of request/result frames, timed on real frames.
#[derive(Debug, Default)]
pub struct Codec {
    frames: u64,
    encode: Duration,
    parse: Duration,
    bytes: u64,
}

impl Codec {
    /// Times `encode_request`/`parse_request` on the query frame and
    /// `encode_response`/`parse_response` on its result frame.
    pub fn add(&mut self, frame: QueryFrame, result: ResultFrame) {
        let req = Request::Query(frame);
        let resp = Response::Result(result);
        let t = Instant::now();
        let req_line = encode_request(&req);
        let resp_line = encode_response(&resp);
        self.encode += t.elapsed();
        let t = Instant::now();
        let _ = std::hint::black_box((
            parse_request(req_line.trim_end()),
            parse_response(resp_line.trim_end()),
        ));
        self.parse += t.elapsed();
        self.frames += 1;
        self.bytes += (req_line.len() + resp_line.len()) as u64;
    }

    /// Mean encode µs, parse µs and bytes per query (request + result).
    pub fn per_frame(&self) -> [f64; 3] {
        let n = self.frames as f64;
        [
            ratio(us(self.encode), n),
            ratio(us(self.parse), n),
            ratio(self.bytes as f64, n),
        ]
    }
}

/// Setup phases of one setup, or their medians over a run's setups.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub load_dataset: Duration,
    pub method_build: Duration,
    pub cache_build: Duration,
    /// Start to ready-to-query.
    pub ready: Duration,
}

impl SetupTimes {
    /// Phase-by-phase medians.
    pub fn median(all: &[SetupTimes]) -> SetupTimes {
        let med = |f: fn(&SetupTimes) -> Duration| {
            let v: Vec<f64> = all.iter().map(|s| f(s).as_secs_f64()).collect();
            Duration::from_secs_f64(crate::stats::median(&v))
        };
        SetupTimes {
            load_dataset: med(|s| s.load_dataset),
            method_build: med(|s| s.method_build),
            cache_build: med(|s| s.cache_build),
            ready: med(|s| s.ready),
        }
    }
}

/// A binary snapshot round trip of the final cache.
#[derive(Debug, Clone, Copy)]
pub struct PersistTimes {
    pub save: Duration,
    pub restore: Duration,
    pub snapshot_bytes: u64,
    pub entries: u64,
}

/// Everything a traced run reduces to per-layer metrics.
pub struct LayerInputs<'a> {
    pub setup: SetupTimes,
    pub tracer: &'a Tracer,
    pub counters: RunCounters,
    pub maint: MaintStats,
    pub flush: Duration,
    /// Summed uncached Method M time over the replayed stream.
    pub reference_total: Duration,
    pub persist: PersistTimes,
    pub served: &'a Served,
    pub latency_samples: usize,
    pub entries: usize,
    pub arena: Vec<(usize, usize)>,
    /// Untraced qps ÷ traced qps.
    pub overhead: f64,
}

/// Reduces a traced run to the [`PER_LAYER`] metrics.
pub fn layer_metrics(inp: &LayerInputs) -> Metrics {
    let t = inp.tracer;
    let c = &inp.counters;
    let m = &inp.maint;
    let n = t.queries.max(1) as f64;
    let per_q = |d: Duration| us(d) / n;
    let maint_sorted = {
        let mut v = t.maint_us.clone();
        v.sort_by(f64::total_cmp);
        v
    };
    let maint_pct = |q: f64| percentile(&maint_sorted, q).map_or(0.0, |p| p.value);
    let sv = inp.served;
    let sv_pct = |q| percentile(&sv.latencies_us, q).map_or(0.0, |p| p.value);
    let codec = sv.codec.per_frame();
    let (live, reserved) = inp
        .arena
        .iter()
        .fold((0, 0), |(l, r), &(a, b)| (l + a, r + b));
    let values: Vec<f64> = vec![
        ms(inp.setup.load_dataset),
        ms(inp.setup.method_build),
        ms(inp.setup.cache_build),
        ms(inp.setup.ready),
        per_q(t.m_filter),
        per_q(t.verify),
        c.subiso_tests as f64 / n,
        c.verify_work as f64 / n,
        c.cs_m as f64 / n,
        per_q(inp.reference_total),
        per_q(t.iso_hash),
        per_q(t.paths),
        per_q(t.gc_filter),
        per_q(t.probe),
        t.candidates as f64 / n,
        c.gc_tests as f64 / n,
        ratio((c.sub_hits + c.super_hits) as f64, c.gc_tests as f64),
        c.exact_fp_hits as f64 / n,
        c.truncated as f64 / n,
        ratio(c.cs_gc as f64, c.cs_m as f64),
        c.cache_assisted as f64 / n,
        per_q(t.execute),
        per_q(t.execute_self),
        ratio(us(inp.reference_total), us(t.execute)),
        inp.latency_samples as f64,
        maint_pct(50.0),
        maint_pct(100.0),
        maint_sorted.len() as f64,
        ms(m.victim_select),
        ms(m.index_delta),
        ms(m.stats_upkeep),
        ms(inp.flush),
        m.rounds as f64,
        m.entries_admitted as f64,
        m.entries_evicted as f64,
        m.compactions as f64,
        m.dead_postings as f64,
        ms(m.fragment_upkeep),
        m.fragments_built as f64,
        c.fragment_probes as f64,
        ratio(c.fragment_hits as f64, c.fragment_probes as f64),
        c.fragment_pruned as f64 / n,
        ms(inp.persist.save),
        ms(inp.persist.restore),
        inp.persist.snapshot_bytes as f64,
        ratio(
            inp.persist.snapshot_bytes as f64,
            inp.persist.entries as f64,
        ),
        sv.snapshots_written as f64,
        codec[0],
        codec[1],
        codec[2],
        ms(sv.ready),
        sv.qps(),
        sv_pct(50.0),
        sv_pct(99.0),
        us(sv.ping_rtt),
        sv.busy as f64,
        inp.entries as f64,
        live as f64,
        reserved as f64,
        inp.overhead,
    ];
    assert_eq!(values.len(), PER_LAYER.len());
    let mut out = Metrics::default();
    for (&(name, unit), value) in PER_LAYER.iter().zip(values) {
        out.push(name, value, unit);
    }
    out
}
