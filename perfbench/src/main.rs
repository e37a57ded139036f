//! The repository benchmark: replays one workload against GraphCache's
//! public API, checks every answer against uncached Method M, and prints
//! the end-to-end metrics (or, with `--trace 1`, the per-layer metrics)
//! as the last line of standard output.
//!
//! ```text
//! perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--gc PATH]
//! perfbench character [--seed N]
//! ```
//!
//! `--gc` names the `gc` binary a traced run starts as its daemon.
//! `character` prints each workload's distinct-query count and
//! exact-repeat share for a seed (default: the default and held-out seeds).

mod inproc;
mod served;
mod stats;
mod trace;
mod workloads;

use stats::{median, percentile, Metrics};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{LayerInputs, SetupTimes, Tracer};
use workloads::{Character, Reference, Spec};

/// Every end-to-end metric, in output order, with its unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("ok_frac", "ratio"),
    ("cache_mb", "MB"),
];

/// Parsed command line.
pub struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    gc: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: workloads::DEFAULT_SEED,
        seconds: 10,
        trace: false,
        gc: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |e: std::num::ParseIntError| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => out.workload = value.to_string(),
            "--seed" => out.seed = value.parse().map_err(bad)?,
            "--seconds" => out.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                out.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?}: want 0 or 1")),
                }
            }
            "--gc" => out.gc = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if out.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(out)
}

/// A per-run directory under the working directory, removed on drop.
/// Paths stay relative so unix socket paths stay short wherever the
/// checkout lives.
pub struct WorkDir(PathBuf);

impl WorkDir {
    fn create(tag: &str) -> Result<WorkDir, String> {
        let dir = Path::new(".bench_work").join(format!("{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    /// A path inside the directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only removes the parent when no other run is using it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// What one run measured.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// Latency samples, replay wall time and failures pooled over rounds,
/// reduced to the end-to-end metrics.
#[derive(Default)]
pub struct Pooled {
    pub latencies_us: Vec<f64>,
    pub wall: Duration,
    pub attempted: u64,
    pub failed: u64,
    pub setups_s: Vec<f64>,
    pub cache_bytes: Vec<f64>,
}

impl Pooled {
    /// Folds in one round: its setup time, replay wall time, outcome
    /// counts, latency samples and end-of-round cache size.
    pub fn add(
        &mut self,
        setup: Duration,
        wall: Duration,
        attempted: u64,
        failed: u64,
        mut latencies_us: Vec<f64>,
        cache_bytes: usize,
    ) {
        latencies_us.sort_by(f64::total_cmp);
        let pct = |q| percentile(&latencies_us, q).map_or(0.0, |p| p.value);
        println!(
            "round {}: setup {:.4} s | {:.1} q/s | p50 {:.1} us | p99 {:.1} us | {:.4} MB",
            self.setups_s.len(),
            setup.as_secs_f64(),
            (attempted - failed) as f64 / wall.as_secs_f64(),
            pct(50.0),
            pct(99.0),
            cache_bytes as f64 / 1e6
        );
        self.setups_s.push(setup.as_secs_f64());
        self.cache_bytes.push(cache_bytes as f64);
        self.wall += wall;
        self.attempted += attempted;
        self.failed += failed;
        self.latencies_us.extend(latencies_us);
    }

    /// Queries answered correctly per second of replay.
    pub fn qps(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.wall.as_secs_f64()
    }

    /// The [`END_TO_END`] metrics over everything folded in so far.
    pub fn end_to_end(&mut self) -> Metrics {
        self.latencies_us.sort_by(f64::total_cmp);
        let p50 = percentile(&self.latencies_us, 50.0);
        let p99 = percentile(&self.latencies_us, 99.0);
        if let Some(p) = p99 {
            println!(
                "latency samples {} | p99 has {} beyond it",
                p.samples, p.beyond
            );
        }
        let values = [
            median(&self.setups_s),
            self.qps(),
            p50.map_or(0.0, |p| p.value),
            p99.map_or(0.0, |p| p.value),
            (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64,
            median(&self.cache_bytes) / 1e6,
        ];
        let mut m = Metrics::default();
        for (&(name, unit), value) in END_TO_END.iter().zip(values) {
            m.push(name, value, unit);
        }
        m
    }
}

/// Shared inputs of one run.
pub struct Ctx<'a> {
    pub spec: &'a Spec,
    pub args: &'a Args,
    pub work: &'a WorkDir,
    pub dataset_file: PathBuf,
    pub inputs: &'a workloads::Inputs,
    pub reference: &'a Reference,
}

fn measure(ctx: &Ctx) -> Result<Outcome, String> {
    let mut pooled = Pooled::default();
    let mut setups = Vec::new();
    // The first round's counters and qps, which the traced replay of the
    // same stream is held against.
    let mut first = None;
    for (k, stream) in ctx.inputs.streams.iter().enumerate() {
        let s = inproc::setup(ctx.spec, &ctx.dataset_file)?;
        let round = inproc::replay(&s.cache, stream, ctx.reference, k, None);
        if k == 0 {
            first = Some((
                inproc::deterministic_counters(&s.cache, &round.records),
                round.qps(),
            ));
        }
        setups.push(s.times);
        pooled.add(
            s.times.ready,
            round.wall,
            round.attempted,
            round.failed,
            round.latencies_us,
            s.cache.memory_bytes(),
        );
    }
    println!(
        "rounds {} | replay {:.2} s",
        setups.len(),
        pooled.wall.as_secs_f64()
    );
    let mut correct = pooled.failed == 0;
    let mut metrics = pooled.end_to_end();
    if ctx.args.trace {
        let (counters, qps) = first.expect("a run replays at least three rounds");
        let traced = traced_replay(
            ctx,
            SetupTimes::median(&setups),
            qps,
            pooled.latencies_us.len(),
        )?;
        if counters != traced.counters {
            eprintln!("perfbench: the traced replay changed the deterministic counters");
            correct = false;
        }
        correct &= traced.failed == 0;
        pooled.attempted += traced.attempted;
        pooled.failed += traced.failed;
        metrics = traced.metrics;
    }
    Ok(Outcome {
        correct,
        attempted: pooled.attempted,
        failed: pooled.failed,
        metrics,
    })
}

/// A traced replay reduced to per-layer metrics.
struct Traced {
    metrics: Metrics,
    counters: Vec<(&'static str, u64)>,
    attempted: u64,
    failed: u64,
}

/// Replays the first round's stream once more on a fresh cache with every
/// layer span recorded, times the final flush and a snapshot round trip,
/// then serves the same stream through a `gc serve` daemon restored from
/// that snapshot.
fn traced_replay(
    ctx: &Ctx,
    setup: SetupTimes,
    untraced_qps: f64,
    latency_samples: usize,
) -> Result<Traced, String> {
    let spec = ctx.spec;
    let gc = ctx
        .args
        .gc
        .as_deref()
        .ok_or("a traced run needs --gc PATH (the gc binary)")?;
    let s = inproc::setup(spec, &ctx.dataset_file)?;
    let mut tracer = Tracer::default();
    let round = inproc::replay(
        &s.cache,
        &ctx.inputs.streams[0],
        ctx.reference,
        0,
        Some(&mut tracer),
    );
    let counters = inproc::deterministic_counters(&s.cache, &round.records);
    let t = Instant::now();
    s.cache.flush_pending();
    let flush = t.elapsed();
    let fresh = spec
        .builder()
        .try_build(spec.method.build(&ctx.inputs.dataset))
        .map_err(|e| e.to_string())?;
    let persist = inproc::persist_round_trip(&s.cache, &fresh, &ctx.work.path("persist"))?;
    let served = served::serve_stream(ctx, gc, "persist")?;
    let inputs = LayerInputs {
        setup,
        tracer: &tracer,
        counters: gc_core::RunCounters::from_records(&round.records, 0),
        maint: s.cache.maint_stats(),
        flush,
        reference_total: ctx.reference.stream_time(0),
        persist,
        served: &served,
        latency_samples,
        entries: s.cache.cache_len(),
        arena: s.cache.arena_utilization(),
        overhead: untraced_qps / round.qps(),
    };
    Ok(Traced {
        metrics: trace::layer_metrics(&inputs),
        counters,
        attempted: round.attempted + served.attempted,
        failed: round.failed + served.failed,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let spec = workloads::by_name(&args.workload).ok_or_else(|| {
        let names: Vec<_> = workloads::all().iter().map(|s| s.name).collect();
        format!(
            "unknown workload {:?} (have {})",
            args.workload,
            names.join(", ")
        )
    })?;
    let work = WorkDir::create(spec.name)?;
    // Benchmark input, not timed: the dataset file and the query streams.
    let inputs = spec.inputs(args.seed, workloads::rounds(args.seconds));
    let dataset_file = work.path("dataset.txt");
    gc_graph::io::save_dataset(&dataset_file, &inputs.dataset)
        .map_err(|e| format!("write dataset: {e}"))?;
    let character = Character::of(&inputs.streams[0]);
    println!(
        "workload {} seed {}: {} graphs, {} queries/round, capacity {}, {} distinct by iso_hash ({:?}), exact repeats {:.1}%",
        spec.name,
        args.seed,
        inputs.dataset.len(),
        character.queries,
        spec.capacity,
        character.distinct,
        character.fit(spec.capacity),
        character.exact_repeat_share * 100.0
    );
    // Reference answers, outside every timed region.
    let t = Instant::now();
    let method = spec.method.build(&inputs.dataset);
    let reference = Reference::compute(&method, &inputs.streams);
    drop(method);
    println!(
        "reference: {} distinct query graphs in {:.2} s",
        reference.answers.len(),
        t.elapsed().as_secs_f64()
    );
    let ctx = Ctx {
        spec: &spec,
        args,
        work: &work,
        dataset_file,
        inputs: &inputs,
        reference: &reference,
    };
    measure(&ctx)
}

fn character(args: &[String]) -> Result<(), String> {
    let seeds = match args {
        [] => vec![workloads::DEFAULT_SEED, workloads::HELDOUT_SEED],
        [flag, v] if flag == "--seed" => vec![v.parse().map_err(|e| format!("--seed: {e}"))?],
        _ => return Err("usage: perfbench character [--seed N]".into()),
    };
    for seed in seeds {
        for spec in workloads::all() {
            let inputs = spec.inputs(seed, 1);
            let c = Character::of(&inputs.streams[0]);
            println!(
                "{}: seed {seed}, {} graphs, {} queries/round, capacity {}, \
                 {} distinct ({:?}), exact repeats {:.3}",
                spec.name,
                inputs.dataset.len(),
                c.queries,
                spec.capacity,
                c.distinct,
                c.fit(spec.capacity),
                c.exact_repeat_share
            );
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("character") {
        return match character(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let outcome = match parse_args(&argv).and_then(|args| run(&args)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for m in outcome.metrics.iter() {
        println!("{:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        outcome.metrics.to_json()
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_harness::json::{parse, Json};

    fn manifest() -> Json {
        parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    fn listed(json: &Json, key: &str) -> Vec<(String, String)> {
        json.get(key)
            .and_then(Json::as_arr)
            .expect(key)
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn manifest_lists_exactly_the_metrics_the_benchmark_prints() {
        let m = manifest();
        assert_eq!(listed(&m, "end_to_end"), owned(END_TO_END));
        assert_eq!(listed(&m, "per_layer"), owned(trace::PER_LAYER));
        for (name, _) in END_TO_END.iter().chain(trace::PER_LAYER) {
            assert!(stats::valid_metric_name(name), "{name}");
        }
    }

    #[test]
    fn manifest_lists_every_workload_in_order() {
        let m = manifest();
        let names: Vec<&str> = m
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        let ours: Vec<&str> = workloads::all().iter().map(|s| s.name).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn args_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload zipf-fit --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("zipf-fit", 7, 3, true)
        );
        let d = parse_args(&argv("--workload x")).unwrap();
        assert_eq!(d.seed, workloads::DEFAULT_SEED);
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload x --trace 2")).is_err());
        assert!(parse_args(&argv("--workload x --bogus 1")).is_err());
        assert!(parse_args(&argv("--workload x --seed")).is_err());
    }
}
