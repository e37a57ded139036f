//! In-process replay: one client thread calling `GraphCache::execute`.

use crate::trace::{PersistTimes, SetupTimes, Tracer};
use crate::workloads::{Reference, Spec};
use gc_core::{GraphCache, PersistFormat, QueryRecord, QueryRequest, RunCounters};
use gc_graph::LabeledGraph;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cache ready to query, with the time each setup phase took.
pub struct Setup {
    pub cache: GraphCache,
    pub times: SetupTimes,
}

/// From the dataset file to a ready cache: `gc_graph::io::load_dataset`,
/// the Method M index build, and the cache build.
pub fn setup(spec: &Spec, dataset_file: &Path) -> Result<Setup, String> {
    let t = Instant::now();
    let dataset = gc_graph::io::load_dataset(dataset_file)
        .map_err(|e| format!("load {}: {e}", dataset_file.display()))?;
    let load_dataset = t.elapsed();
    let t = Instant::now();
    let method = spec.method.builder().build_arc(Arc::new(dataset));
    let method_build = t.elapsed();
    let t = Instant::now();
    let cache = spec
        .builder()
        .try_build(method)
        .map_err(|e| format!("cache build: {e}"))?;
    let cache_build = t.elapsed();
    Ok(Setup {
        cache,
        times: SetupTimes {
            load_dataset,
            method_build,
            cache_build,
            ready: load_dataset + method_build + cache_build,
        },
    })
}

/// The outcome of replaying a query stream once.
pub struct Round {
    /// `execute` latency of every query answered correctly, in µs.
    pub latencies_us: Vec<f64>,
    /// Replay wall time.
    pub wall: Duration,
    /// Queries attempted.
    pub attempted: u64,
    /// Queries whose answer differed from the reference.
    pub failed: u64,
    /// Every query's record.
    pub records: Vec<QueryRecord>,
}

impl Round {
    /// Correct answers per second of replay.
    pub fn qps(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.wall.as_secs_f64()
    }
}

/// Replays stream `k` against `cache`, checking every answer against the
/// uncached reference. With a tracer, also records the per-layer spans
/// around each `execute` call (outside the latency sample, inside the
/// round's wall time).
pub fn replay(
    cache: &GraphCache,
    queries: &[Arc<LabeledGraph>],
    reference: &Reference,
    k: usize,
    mut tracer: Option<&mut Tracer>,
) -> Round {
    let mut latencies_us = Vec::with_capacity(queries.len());
    let mut records = Vec::with_capacity(queries.len());
    let mut failed = 0;
    let start = Instant::now();
    for (i, q) in queries.iter().enumerate() {
        if let Some(t) = tracer.as_deref_mut() {
            t.before(cache, q);
        }
        let request = QueryRequest::new(Arc::clone(q));
        let t0 = Instant::now();
        let resp = cache.execute(request);
        let span = t0.elapsed();
        if resp.result.answer == reference.answer(k, i) {
            latencies_us.push(span.as_secs_f64() * 1e6);
        } else {
            failed += 1;
            eprintln!("perfbench: wrong answer for query {i} of stream {k}");
        }
        if let Some(t) = tracer.as_deref_mut() {
            t.after(span, &resp);
        }
        records.push(resp.result.record);
    }
    Round {
        latencies_us,
        wall: start.elapsed(),
        attempted: queries.len() as u64,
        failed,
        records,
    }
}

/// The deterministic counters a replay leaves: run totals, maintenance
/// totals, and the cache's final entry count.
pub fn deterministic_counters(
    cache: &GraphCache,
    records: &[QueryRecord],
) -> Vec<(&'static str, u64)> {
    let mut out = RunCounters::from_records(records, 0).deterministic_counters();
    out.extend(cache.maint_stats().deterministic_counters());
    out.push(("cache_entries", cache.cache_len() as u64));
    out
}

/// Times a binary snapshot of `cache` into `dir` and its restore into
/// `fresh` (an empty cache of the same configuration).
pub fn persist_round_trip(
    cache: &GraphCache,
    fresh: &GraphCache,
    dir: &Path,
) -> Result<PersistTimes, String> {
    let t = Instant::now();
    cache
        .save_with_format(dir, PersistFormat::Binary)
        .map_err(|e| format!("save snapshot: {e}"))?;
    let save = t.elapsed();
    let snapshot_bytes = std::fs::metadata(dir.join("snapshot.bin"))
        .map_err(|e| format!("snapshot size: {e}"))?
        .len();
    let t = Instant::now();
    let report = fresh
        .restore(dir)
        .map_err(|e| format!("restore snapshot: {e}"))?;
    let restore = t.elapsed();
    if report.entries != cache.cache_len() {
        return Err(format!(
            "restored {} entries, saved {}",
            report.entries,
            cache.cache_len()
        ));
    }
    Ok(PersistTimes {
        save,
        restore,
        snapshot_bytes,
        entries: report.entries as u64,
    })
}
