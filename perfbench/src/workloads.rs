//! The benchmark's workloads: what each one generates from its seed, how
//! the cache serving it is configured, and the workload's character
//! (distinct queries vs capacity, exact-repeat share).

use gc_core::{CostModel, GraphCache, GraphCacheBuilder};
use gc_graph::{GraphDataset, GraphId, LabeledGraph};
use gc_methods::{Method, MethodKind, QueryKind};
use gc_workload::{generate_type_a, DatasetProfile, TypeAConfig};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// Seed kept out of benchmark development; a later performance claim
/// must also hold on it.
pub const HELDOUT_SEED: u64 = 9001;

/// Graphs in the AIDS-shaped bench dataset every workload queries.
pub const GRAPHS: usize = 1000;
/// Seed of that dataset. The dataset is fixed, like the paper's real
/// datasets, and `--seed` draws only the query streams: datasets drawn
/// per seed made the spread between seeds several times wider (one
/// seed's dataset made one 16-edge query cost Method M 2.7 s).
pub const DATASET_SEED: u64 = 1;
/// Window size (queries per maintenance round) of every workload.
pub const WINDOW: usize = 20;
/// Nominal length of one replay round; `round_queries` is sized so a
/// round takes about this long on a 2-core x86-64 host.
pub const NOMINAL_ROUND_SECONDS: f64 = 2.5;

/// Whether the workload's distinct queries fit in the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fit {
    /// Distinct queries ≤ capacity.
    Fits,
    /// Distinct queries > capacity.
    Exceeds,
}

/// Query selection skew (the paper's Type A categories).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Skew {
    /// Zipf graph and node selection.
    Zz(f64),
    /// Uniform at both levels.
    Uu,
}

/// One benchmark workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Query selection skew.
    pub skew: Skew,
    /// Query sizes in edges.
    pub sizes: &'static [usize],
    /// Method M.
    pub method: MethodKind,
    /// Cache capacity in entries.
    pub capacity: usize,
    /// Sub-query fragment cache on or off.
    pub fragments: bool,
    /// Queries in one replay round. Each round replays its own stream
    /// from a fresh cache.
    pub round_queries: usize,
    /// Whether the distinct queries of one round fit in the cache.
    pub fit: Fit,
}

/// Every workload, in `BENCHMARK.json` order.
pub fn all() -> Vec<Spec> {
    vec![
        Spec {
            name: "zipf-fit",
            skew: Skew::Zz(1.4),
            sizes: &[4, 8, 12, 16, 20],
            method: MethodKind::Ggsx,
            capacity: 4000,
            fragments: false,
            round_queries: 4000,
            fit: Fit::Fits,
        },
        Spec {
            name: "uniform-miss",
            skew: Skew::Uu,
            sizes: &[4, 6, 8],
            method: MethodKind::SiVf2,
            capacity: 100,
            fragments: true,
            round_queries: 560,
            fit: Fit::Exceeds,
        },
    ]
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Spec> {
    all().into_iter().find(|s| s.name == name)
}

/// The generated inputs of one run.
pub struct Inputs {
    /// The dataset Method M indexes.
    pub dataset: GraphDataset,
    /// One query stream per replay round.
    pub streams: Vec<Vec<Arc<LabeledGraph>>>,
}

/// Replay rounds in a run of `seconds`: enough to fill it at the nominal
/// round length, and never fewer than three so `setup_s` is a median.
/// The count depends only on `seconds`, so a faster program replays the
/// same queries, not more of them.
pub fn rounds(seconds: u64) -> usize {
    ((seconds as f64 / NOMINAL_ROUND_SECONDS).round() as usize).max(3)
}

impl Spec {
    /// Generates the dataset and `rounds` query streams from `seed`.
    pub fn inputs(&self, seed: u64, rounds: usize) -> Inputs {
        let dataset = dataset();
        let streams = (0..rounds as u64)
            .map(|k| self.queries(&dataset, self.round_queries, stream_seed(seed, k)))
            .collect();
        Inputs { dataset, streams }
    }

    /// A query stream of `count` queries drawn with this workload's skew
    /// and sizes.
    pub fn queries(
        &self,
        dataset: &GraphDataset,
        count: usize,
        seed: u64,
    ) -> Vec<Arc<LabeledGraph>> {
        let cfg = match self.skew {
            Skew::Zz(a) => TypeAConfig::zz(a),
            Skew::Uu => TypeAConfig::uu(),
        };
        let cfg = cfg
            .sizes(self.sizes.to_vec())
            .count(count)
            .seed(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5157);
        generate_type_a(dataset, &cfg)
            .queries
            .into_iter()
            .map(|q| Arc::new(q.graph))
            .collect()
    }

    /// The cache builder for this workload. It uses the deterministic
    /// work cost model, so every replay of the same stream leaves the same
    /// counters.
    pub fn builder(&self) -> GraphCacheBuilder {
        GraphCache::builder()
            .capacity(self.capacity)
            .window(WINDOW)
            .eviction("hd")
            .query_kind(QueryKind::Subgraph)
            .threads(1)
            .fragments(self.fragments)
            .cost_model(CostModel::Work)
    }
}

/// The seed of round `k`'s stream in a run seeded with `seed`.
pub fn stream_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(k)
}

/// The AIDS-shaped bench dataset.
pub fn dataset() -> GraphDataset {
    let aids = DatasetProfile::aids();
    let scale = GRAPHS as f64 / aids.graph_count as f64;
    aids.scaled(scale).generate(DATASET_SEED)
}

/// What a query stream looks like to a cache.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Character {
    /// Queries in the stream.
    pub queries: usize,
    /// Distinct queries by isomorphism fingerprint (`iso_hash`).
    pub distinct: usize,
    /// Share of queries whose fingerprint appeared earlier in the stream.
    pub exact_repeat_share: f64,
}

impl Character {
    /// Measures a stream.
    pub fn of(queries: &[Arc<LabeledGraph>]) -> Character {
        let mut seen = HashSet::new();
        let repeats = queries
            .iter()
            .filter(|q| !seen.insert(gc_index::fingerprint::iso_hash(q)))
            .count();
        Character {
            queries: queries.len(),
            distinct: seen.len(),
            exact_repeat_share: repeats as f64 / queries.len().max(1) as f64,
        }
    }

    /// Whether the distinct queries fit in `capacity` entries.
    pub fn fit(&self, capacity: usize) -> Fit {
        if self.distinct <= capacity {
            Fit::Fits
        } else {
            Fit::Exceeds
        }
    }
}

/// Uncached Method M answers for every stream of a run, computed once
/// per distinct query graph.
pub struct Reference {
    /// Index into `answers` of every query, per stream.
    slots: Vec<Vec<usize>>,
    /// One answer per distinct query graph.
    pub answers: Vec<Vec<GraphId>>,
    /// Uncached `Method::run_directed` time per distinct query graph.
    times: Vec<Duration>,
}

impl Reference {
    /// Runs every distinct query through `method` without a cache, split
    /// over at most two threads.
    pub fn compute(method: &Method, streams: &[Vec<Arc<LabeledGraph>>]) -> Reference {
        let mut index: HashMap<&LabeledGraph, usize> = HashMap::new();
        let mut distinct: Vec<&LabeledGraph> = Vec::new();
        let slots = streams
            .iter()
            .map(|stream| {
                stream
                    .iter()
                    .map(|q| {
                        *index.entry(q.as_ref()).or_insert_with(|| {
                            distinct.push(q.as_ref());
                            distinct.len() - 1
                        })
                    })
                    .collect()
            })
            .collect();
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
        let chunk = distinct.len().div_ceil(threads).max(1);
        let parts: Vec<Vec<(Vec<GraphId>, Duration)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = distinct
                .chunks(chunk)
                .map(|part| {
                    scope.spawn(move || {
                        part.iter()
                            .map(|q| {
                                let t = Instant::now();
                                let answer = method.run_directed(q, QueryKind::Subgraph).answer;
                                (answer, t.elapsed())
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reference thread panicked"))
                .collect()
        });
        let (answers, times) = parts.into_iter().flatten().unzip();
        Reference {
            slots,
            answers,
            times,
        }
    }

    /// The reference answer of query `i` of stream `k`.
    pub fn answer(&self, k: usize, i: usize) -> &[GraphId] {
        &self.answers[self.slots[k][i]]
    }

    /// Summed uncached time of stream `k`, repeats included.
    pub fn stream_time(&self, k: usize) -> Duration {
        self.slots[k].iter().map(|&s| self.times[s]).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_valid() {
        let specs = all();
        let names: HashSet<_> = specs.iter().map(|s| s.name).collect();
        assert_eq!(names.len(), specs.len());
        assert!(specs
            .iter()
            .all(|s| crate::stats::valid_metric_name(s.name)));
        assert_eq!(by_name("zipf-fit").unwrap().capacity, 4000);
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let spec = by_name("uniform-miss").unwrap();
        let d = dataset();
        let a = spec.queries(&d, 50, 5);
        let b = spec.queries(&d, 50, 5);
        let c = spec.queries(&d, 50, 6);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(d.len(), GRAPHS);
        assert_ne!(stream_seed(5, 0), stream_seed(5, 1));
        assert_ne!(stream_seed(5, 1), stream_seed(6, 0));
    }

    #[test]
    fn round_count_follows_seconds_only() {
        assert_eq!(rounds(1), 3);
        assert_eq!(rounds(10), 4);
        assert_eq!(rounds(60), 24);
    }

    #[test]
    fn character_counts_repeats_by_fingerprint() {
        let path = Arc::new(LabeledGraph::from_parts(vec![0, 1, 2], &[(0, 1), (1, 2)]));
        // The same path with its nodes listed in the other order.
        let flipped = Arc::new(LabeledGraph::from_parts(vec![2, 1, 0], &[(0, 1), (1, 2)]));
        let edge = Arc::new(LabeledGraph::from_parts(vec![0, 1], &[(0, 1)]));
        let c = Character::of(&[path, flipped, edge.clone(), edge]);
        assert_eq!(c.queries, 4);
        assert_eq!(c.distinct, 2);
        assert_eq!(c.exact_repeat_share, 0.5);
        assert_eq!(c.fit(2), Fit::Fits);
        assert_eq!(c.fit(1), Fit::Exceeds);
    }

    /// The held-out seed must keep every workload on the same side of its
    /// capacity as the default seed, or a claim checked on it would test
    /// a different regime.
    #[test]
    fn heldout_seed_keeps_each_workloads_fit() {
        for spec in all() {
            for seed in [DEFAULT_SEED, HELDOUT_SEED] {
                let inputs = spec.inputs(seed, 1);
                let c = Character::of(&inputs.streams[0]);
                assert_eq!(
                    c.fit(spec.capacity),
                    spec.fit,
                    "{} seed {seed}: {} distinct vs capacity {}",
                    spec.name,
                    c.distinct,
                    spec.capacity
                );
            }
        }
    }

    #[test]
    fn reference_dedups_identical_queries_across_streams() {
        let d = dataset();
        let spec = by_name("zipf-fit").unwrap();
        let streams = vec![spec.queries(&d, 40, 3), spec.queries(&d, 40, 3)];
        let method = MethodKind::Ggsx.build(&d);
        let r = Reference::compute(&method, &streams);
        assert!(r.answers.len() < 40, "a Zipf stream repeats queries");
        for (k, stream) in streams.iter().enumerate() {
            for (i, g) in stream.iter().enumerate() {
                assert_eq!(
                    r.answer(k, i),
                    method.run_directed(g, QueryKind::Subgraph).answer
                );
            }
        }
        assert_eq!(r.stream_time(0), r.stream_time(1));
    }
}
