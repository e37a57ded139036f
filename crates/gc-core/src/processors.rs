//! The GraphCache<sub>sub</sub> / GraphCache<sub>super</sub> processors
//! (paper §5.1): turn the query index's candidate slots into *verified* hit
//! sets by running sub-iso tests against the cached query graphs.
//!
//! # The hit-detection pipeline
//!
//! Hit detection only pays off while it costs far less than running the
//! query uncached (§5), so candidate verification is organised as three
//! layers, cheapest first:
//!
//! 1. **Exact fingerprint probe** — every cached entry carries an
//!    isomorphism-invariant fingerprint ([`gc_index::fingerprint::iso_hash`])
//!    keyed in a per-shard `fingerprint → slots` map. An incoming query
//!    resolves exact (isomorphic) repeats with one hash lookup plus an iso
//!    *confirmation* on the rare collision — and when the caller only needs
//!    the exact answer ([`VerifyOptions::exact_shortcut`]), candidate
//!    verification is skipped entirely.
//! 2. **Cost-ordered, budget-arbitrated sweep** — sub/super candidates from
//!    all shards merge into a single queue scored by
//!    [`gc_subiso::cost::estimate`] and are verified cheapest-first. A
//!    shared verification work pool ([`VerifyOptions::budget`]) deducts
//!    every test's `nodes_expanded`; when it runs dry the sweep degrades
//!    gracefully to a partial [`HitSet`] with
//!    [`truncated`](HitSet::truncated) set. Same-size candidates are
//!    prefiltered by fingerprint (equal-size containment is isomorphism, so
//!    a fingerprint mismatch proves a non-hit without any search), and the
//!    sweep stops early once the request's hit budget
//!    ([`VerifyOptions::max_hits`]) is satisfied.
//! 3. **Parallel verification** — when the ordered queue is large
//!    ([`VerifyOptions::parallel_threshold`]) the sweep fans across scoped
//!    worker threads ([`VerifyOptions::threads`]); results are assembled in
//!    queue order, so with an unbounded budget the output is identical to
//!    the sequential sweep.
//!
//! [`HitSet`] serial lists are always sorted, making the output canonical
//! across shard counts and thread interleavings. [`find_hits_naive`] keeps
//! the original flat per-shard sweep as the parity oracle
//! (`tests/hit_path.rs`) and the baseline of `benches/hit_path.rs`.

use crate::entry::CacheSnapshot;
use crate::stats::QuerySerial;
use gc_graph::{GraphProfile, LabeledGraph};
use gc_index::fingerprint::iso_hash;
use gc_index::fx::FxHashSet;
use gc_index::paths::PathProfile;
use gc_methods::QueryKind;
use gc_subiso::{cost, MatchConfig, MatchOutcome, Matcher, Prepared};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Verified cache hits for one new query.
#[derive(Debug, Clone, Default)]
pub struct HitSet {
    /// Serials of cached queries `q` with `g ⊆ q` — `Result_sub(g)`.
    /// Sorted ascending (canonical across shard counts and threads).
    pub sub: Vec<QuerySerial>,
    /// Serials of cached queries `q` with `q ⊆ g` — `Result_super(g)`.
    /// Sorted ascending.
    pub super_: Vec<QuerySerial>,
    /// A cached query isomorphic to `g`, when one exists (the first special
    /// case of §5.1). The smallest confirmed serial, so the pick is
    /// deterministic when several isomorphic copies are cached.
    pub exact: Option<QuerySerial>,
    /// Number of sub-iso tests spent verifying sweep candidates. Exact
    /// fingerprint *confirmations* are not counted here (their work still
    /// lands in [`work`](Self::work)): an exact repeat resolved through the
    /// fingerprint map completes with `tests == 0`.
    pub tests: u64,
    /// Total matcher work (recursion steps) spent on this query's hit
    /// detection, confirmations included — what the verification budget
    /// pool deducts.
    pub work: u64,
    /// The shared verification budget ran dry before every candidate was
    /// verified: the hit sets are a (still sound) subset of the full sweep.
    pub truncated: bool,
    /// The exact hit was resolved through the fingerprint map (as opposed
    /// to falling out of a full candidate sweep, as the naive path does).
    pub exact_via_fingerprint: bool,
    /// The per-query deadline expired mid-sweep: the hit sets are a sound
    /// subset, cut short by wall-clock time rather than the work pool.
    /// Implies [`truncated`](Self::truncated).
    pub deadline_exceeded: bool,
}

/// The query-side inputs of hit detection, bundled so the profile and
/// fingerprint are computed once per query and reused across shards (and
/// later for Window admission).
#[derive(Debug, Clone, Copy)]
pub struct HitQuery<'a> {
    /// The incoming query graph.
    pub query: &'a LabeledGraph,
    /// The direction its answer is requested under.
    pub kind: QueryKind,
    /// The query's path-feature profile under the snapshot's index config.
    pub profile: &'a PathProfile,
    /// The query's iso fingerprint ([`iso_hash`]).
    pub fingerprint: u64,
}

impl<'a> HitQuery<'a> {
    /// Bundles a query with a precomputed profile, hashing the fingerprint.
    pub fn new(query: &'a LabeledGraph, kind: QueryKind, profile: &'a PathProfile) -> Self {
        HitQuery {
            query,
            kind,
            profile,
            fingerprint: iso_hash(query),
        }
    }
}

/// Knobs of the verification sweep. The default reproduces the full
/// (unbounded, sequential) sweep with the fingerprint fast path active.
#[derive(Debug, Clone)]
pub struct VerifyOptions {
    /// Shared verification work pool for the whole query: every matcher
    /// test (confirmations included) deducts its `nodes_expanded`, and
    /// tests are clipped to the remaining pool. `None` = unbounded. When
    /// the pool runs dry the sweep stops and the result is marked
    /// [`truncated`](HitSet::truncated) — still sound, just fewer hits.
    pub budget: Option<u64>,
    /// The request's hit budget: stop verifying as soon as this many hits
    /// (sub + super together) have been confirmed. `None` = find them all.
    /// Early exit is not truncation — the caller asked for at most this.
    pub max_hits: Option<usize>,
    /// Return immediately once the fingerprint probe confirms an exact hit,
    /// skipping candidate verification entirely — the query path's mode,
    /// since an exact answer supersedes sub/super pruning.
    pub exact_shortcut: bool,
    /// Worker threads for parallel verification (`<= 1` = sequential).
    pub threads: usize,
    /// Minimum ordered-queue length before verification fans across
    /// threads; below it the sweep stays sequential (spawn cost dominates).
    pub parallel_threshold: usize,
    /// Wall-clock deadline for the sweep, checked at the same arbitration
    /// points as the work pool (between matcher tests, never inside one).
    /// Expiry stops the sweep with
    /// [`deadline_exceeded`](HitSet::deadline_exceeded) set. `None` =
    /// no deadline.
    pub deadline: Option<std::time::Instant>,
    /// Restricts the candidate sweep to these serials (must be sorted
    /// ascending; use [`candidate_serials`] to enumerate the full set).
    /// The exact fingerprint probe is *not* restricted — an exact answer
    /// supersedes pruning and costs O(1) to confirm. Restriction only ever
    /// removes candidates, so the result is always a sound subset: fewer
    /// hits mean less pruning, never a wrong answer. `None` = no filter.
    pub allowed: Option<Vec<QuerySerial>>,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions {
            budget: None,
            max_hits: None,
            exact_shortcut: false,
            threads: 1,
            parallel_threshold: 32,
            deadline: None,
            allowed: None,
        }
    }
}

/// Runs both processors for `query` against the current cache snapshot.
///
/// Only entries answered under the same query `kind` participate: a
/// subgraph-mode answer set means "dataset graphs containing the query"
/// while a supergraph-mode one means "dataset graphs contained in it", so
/// cross-kind hits would prune with the wrong set semantics.
pub fn find_hits(
    snapshot: &CacheSnapshot,
    query: &LabeledGraph,
    kind: QueryKind,
    matcher: &dyn Matcher,
    cfg: &MatchConfig,
) -> HitSet {
    let profile = snapshot.profile_of(query);
    find_hits_with_profile(snapshot, query, kind, &profile, matcher, cfg)
}

/// Like [`find_hits`] but reuses the query's precomputed feature profile.
pub fn find_hits_with_profile(
    snapshot: &CacheSnapshot,
    query: &LabeledGraph,
    kind: QueryKind,
    profile: &PathProfile,
    matcher: &dyn Matcher,
    cfg: &MatchConfig,
) -> HitSet {
    find_hits_opts(
        snapshot,
        &HitQuery::new(query, kind, profile),
        matcher,
        cfg,
        &VerifyOptions::default(),
    )
}

/// Which direction a queued candidate is verified in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Dir {
    /// `query ⊆ candidate` (candidate strictly larger).
    Sub,
    /// `candidate ⊆ query` (candidate strictly smaller).
    Super,
    /// Same size with matching fingerprint: one test decides isomorphism,
    /// i.e. both directions at once.
    Iso,
}

/// One entry of the ordered verification queue.
struct Cand<'a> {
    entry: &'a std::sync::Arc<crate::entry::CacheEntry>,
    dir: Dir,
    cost: f64,
}

/// Runs one matcher test between the prepared query and a cached entry's
/// graph in direction `dir`, clipped to the remaining budget pool. Returns
/// the outcome plus whether the *pool* (not the per-test config) was the
/// binding limit — only then does an incomplete search mean truncation.
fn run_capped(
    matcher: &dyn Matcher,
    query: Prepared<'_>,
    entry: &LabeledGraph,
    dir: Dir,
    cfg: &MatchConfig,
    remaining: Option<u64>,
) -> (MatchOutcome, bool) {
    let (budget, pool_clipped) = match (cfg.budget, remaining) {
        (None, None) => (None, false),
        (Some(b), None) => (Some(b), false),
        (None, Some(p)) => (Some(p), true),
        (Some(b), Some(p)) => {
            if p < b {
                (Some(p), true)
            } else {
                (Some(b), false)
            }
        }
    };
    // The entry's profile is built per test, never stored with the entry,
    // so cached bytes do not change.
    let profile = GraphProfile::of(entry);
    let entry = Prepared::new(entry, profile.view());
    let (pattern, target) = match dir {
        Dir::Sub | Dir::Iso => (query, entry),
        Dir::Super => (entry, query),
    };
    (
        matcher.contains_prepared(pattern, target, &MatchConfig { budget }),
        pool_clipped,
    )
}

/// The full pipeline: fingerprint probe, cost-ordered budget-arbitrated
/// sweep, optional parallel verification. See the module docs.
pub fn find_hits_opts(
    snapshot: &CacheSnapshot,
    hq: &HitQuery<'_>,
    matcher: &dyn Matcher,
    cfg: &MatchConfig,
    opts: &VerifyOptions,
) -> HitSet {
    let mut hits = HitSet::default();
    let qn = hq.query.node_count();
    let qm = hq.query.edge_count();
    let mut pool: Option<u64> = opts.budget;
    // The query's quick-reject profile, built once for every test below.
    let q_profile = GraphProfile::of(hq.query);
    let query = Prepared::new(hq.query, q_profile.view());

    // (1) Exact fast path: probe each shard's fingerprint map, confirm
    // candidates in ascending serial order until the first isomorphism.
    // Confirmed = exact; tested-but-refuted serials are remembered so the
    // sweep never re-tests them.
    let mut bucket: Vec<&std::sync::Arc<crate::entry::CacheEntry>> = Vec::new();
    for shard in snapshot.shards() {
        for &slot in shard.exact_slots(hq.fingerprint) {
            // Kind and size prefilters run on the packed columns; the entry
            // is only dereferenced once the slot survives them.
            if shard.kind_at(slot) != hq.kind || shard.index().size(slot) != (qn as u32, qm as u32)
            {
                continue;
            }
            let Some(entry) = shard.entry_at(slot) else {
                continue;
            };
            bucket.push(entry);
        }
    }
    bucket.sort_unstable_by_key(|e| e.serial);
    let mut refuted: Vec<QuerySerial> = Vec::new();
    for entry in bucket {
        if pool == Some(0) {
            hits.truncated = true;
            break;
        }
        if deadline_expired(opts) {
            hits.truncated = true;
            hits.deadline_exceeded = true;
            break;
        }
        // Equal node and edge counts make containment isomorphism (§5.1),
        // so one directed test confirms the exact hit.
        let (out, pool_clipped) = run_capped(matcher, query, &entry.graph, Dir::Sub, cfg, pool);
        hits.work += out.nodes_expanded;
        if let Some(p) = &mut pool {
            *p = p.saturating_sub(out.nodes_expanded);
        }
        if out.found {
            hits.exact = Some(entry.serial);
            hits.exact_via_fingerprint = true;
            break;
        }
        if !out.complete && pool_clipped {
            hits.truncated = true;
            break;
        }
        refuted.push(entry.serial); // stays sorted: bucket is serial-ordered
    }
    if opts.exact_shortcut && hits.exact.is_some() {
        return finalize(hits);
    }

    // (2) Gather candidates from every shard into one queue, scored by the
    // paper's §5.2 cost estimate. Same-size candidates reduce to potential
    // isomorphisms, so the fingerprint prefilters them for free; they only
    // ever surface through the sub list (isomorphism implies identical
    // feature profiles, and overflow entries are conservative in both
    // directions), so the super list's same-size slots are skipped.
    //
    // The whole gather runs on the shard's packed metadata columns (kind,
    // size, fingerprint, serial, distinct-label count): a linear pass over
    // contiguous arrays with no entry-`Arc` dereference. Only a slot that
    // survives every prefilter touches its entry — and then only to park
    // the graph handle in the verification queue.
    let mut queue: Vec<Cand<'_>> = Vec::new();
    // The query is the *target* of every Super-direction estimate; its
    // distinct-label count is its profile's histogram length.
    let q_distinct = q_profile.view().labels.len() as u64;
    // Candidate restriction: serials outside the allow set
    // never enter the queue. A sorted list + binary search keeps the gather
    // a pure column scan.
    let allow = opts.allowed.as_deref();
    let permitted = |serial: QuerySerial| match allow {
        None => true,
        Some(list) => list.binary_search(&serial).is_ok(),
    };
    for shard in snapshot.shards() {
        let cands = shard
            .index()
            .candidates_from_profile(hq.profile, qn as u32, qm as u32);
        for &slot in &cands.sub {
            if shard.kind_at(slot) != hq.kind || !permitted(shard.index().serial(slot)) {
                continue;
            }
            let (cn, cm) = shard.index().size(slot);
            let same_size = (cn, cm) == (qn as u32, qm as u32);
            // Identical to `cost::estimate(query, candidate)`: the packed
            // column holds the candidate's precomputed distinct-label count.
            let cand_cost =
                cost::estimate_raw(qn as u64, cn as u64, shard.distinct_labels_at(slot) as u64);
            if same_size {
                if shard.fingerprint_at(slot) != hq.fingerprint {
                    continue; // iso-invariant mismatch proves a non-hit
                }
                let serial = shard.index().serial(slot);
                if hits.exact == Some(serial) {
                    // Confirmed isomorphic by the probe: a hit in both
                    // directions, no further test needed.
                    hits.sub.push(serial);
                    hits.super_.push(serial);
                    continue;
                }
                if refuted.binary_search(&serial).is_ok() {
                    continue; // probe already disproved this one
                }
                // Candidate slots are always live (tombstones never leave
                // the index sweep), so the lookup cannot miss.
                let Some(entry) = shard.entry_at(slot) else {
                    continue;
                };
                queue.push(Cand {
                    entry,
                    dir: Dir::Iso,
                    cost: cand_cost,
                });
            } else {
                let Some(entry) = shard.entry_at(slot) else {
                    continue;
                };
                queue.push(Cand {
                    entry,
                    dir: Dir::Sub,
                    cost: cand_cost,
                });
            }
        }
        for &slot in &cands.super_ {
            if shard.kind_at(slot) != hq.kind || !permitted(shard.index().serial(slot)) {
                continue;
            }
            let (cn, cm) = shard.index().size(slot);
            if (cn, cm) == (qn as u32, qm as u32) {
                continue; // same-size: handled through the sub list above
            }
            let Some(entry) = shard.entry_at(slot) else {
                continue;
            };
            queue.push(Cand {
                entry,
                dir: Dir::Super,
                cost: cost::estimate_raw(cn as u64, qn as u64, q_distinct),
            });
        }
    }

    // (3) Cheapest first; serial then direction break ties so the order —
    // and therefore budgeted truncation — is deterministic.
    queue.sort_unstable_by(|a, b| {
        a.cost
            .partial_cmp(&b.cost)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.entry.serial.cmp(&b.entry.serial))
            .then(a.dir.cmp(&b.dir))
    });

    // (4) Verify under the shared pool, early-exiting on the hit budget.
    if opts.threads > 1 && queue.len() >= opts.parallel_threshold.max(2) {
        verify_parallel(&queue, query, matcher, cfg, pool, opts, &mut hits);
    } else {
        verify_sequential(&queue, query, matcher, cfg, pool, opts, &mut hits);
    }
    finalize(hits)
}

/// Enumerates the serials [`find_hits_opts`]'s candidate sweep would
/// consider for this query — the same packed-column prefilters (kind
/// match; same-size slots require fingerprint equality; the super list's
/// same-size slots are skipped) with no matcher tests, no budget
/// accounting and no statistics side effects. Each serial is paired with
/// the candidate entry's iso fingerprint.
///
/// The result is sorted ascending and deduplicated, so passing the full
/// set as [`VerifyOptions::allowed`] leaves the sweep unchanged.
pub fn candidate_serials(snapshot: &CacheSnapshot, hq: &HitQuery<'_>) -> Vec<(QuerySerial, u64)> {
    let qn = hq.query.node_count() as u32;
    let qm = hq.query.edge_count() as u32;
    let mut out: Vec<(QuerySerial, u64)> = Vec::new();
    for shard in snapshot.shards() {
        let cands = shard.index().candidates_from_profile(hq.profile, qn, qm);
        for &slot in &cands.sub {
            if shard.kind_at(slot) != hq.kind {
                continue;
            }
            let same_size = shard.index().size(slot) == (qn, qm);
            if same_size && shard.fingerprint_at(slot) != hq.fingerprint {
                continue; // iso-invariant mismatch proves a non-hit
            }
            out.push((shard.index().serial(slot), shard.fingerprint_at(slot)));
        }
        for &slot in &cands.super_ {
            if shard.kind_at(slot) != hq.kind {
                continue;
            }
            if shard.index().size(slot) == (qn, qm) {
                continue; // same-size: only ever surfaces through the sub list
            }
            out.push((shard.index().serial(slot), shard.fingerprint_at(slot)));
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Counts a verified hit into the set. An iso candidate hits both
/// directions at once (and backstops `exact`, though the probe normally
/// resolved it first).
fn apply_hit(hits: &mut HitSet, dir: Dir, serial: QuerySerial) {
    match dir {
        Dir::Sub => hits.sub.push(serial),
        Dir::Super => hits.super_.push(serial),
        Dir::Iso => {
            hits.sub.push(serial);
            hits.super_.push(serial);
            if hits.exact.is_none() {
                hits.exact = Some(serial);
            }
        }
    }
}

/// True once the request's hit budget is satisfied.
fn hit_budget_met(hits: &HitSet, opts: &VerifyOptions) -> bool {
    opts.max_hits
        .is_some_and(|m| hits.sub.len() + hits.super_.len() >= m)
}

/// True once the sweep's wall-clock deadline has passed.
fn deadline_expired(opts: &VerifyOptions) -> bool {
    opts.deadline
        .is_some_and(|d| std::time::Instant::now() >= d)
}

fn verify_sequential(
    queue: &[Cand<'_>],
    query: Prepared<'_>,
    matcher: &dyn Matcher,
    cfg: &MatchConfig,
    mut pool: Option<u64>,
    opts: &VerifyOptions,
    hits: &mut HitSet,
) {
    for cand in queue {
        if hit_budget_met(hits, opts) {
            break;
        }
        if pool == Some(0) {
            hits.truncated = true;
            break;
        }
        if deadline_expired(opts) {
            hits.truncated = true;
            hits.deadline_exceeded = true;
            break;
        }
        let (out, pool_clipped) =
            run_capped(matcher, query, &cand.entry.graph, cand.dir, cfg, pool);
        hits.tests += 1;
        hits.work += out.nodes_expanded;
        if let Some(p) = &mut pool {
            *p = p.saturating_sub(out.nodes_expanded);
        }
        if !out.complete && pool_clipped {
            hits.truncated = true;
        }
        if out.found {
            apply_hit(hits, cand.dir, cand.entry.serial);
        }
    }
}

/// Fans the ordered queue across scoped worker threads. Workers claim
/// queue indexes from an atomic cursor and share the budget pool and hit
/// counter; outcomes are re-assembled *in queue order*, so with an
/// unbounded pool and no hit budget the result is identical to the
/// sequential sweep. Under a budget, which candidates get verified may
/// vary with thread interleaving (the pool is deducted concurrently) —
/// the result is still a sound, truncation-flagged subset.
fn verify_parallel(
    queue: &[Cand<'_>],
    query: Prepared<'_>,
    matcher: &dyn Matcher,
    cfg: &MatchConfig,
    pool: Option<u64>,
    opts: &VerifyOptions,
    hits: &mut HitSet,
) {
    let n = queue.len();
    let next = AtomicUsize::new(0);
    let hit_count = AtomicUsize::new(hits.sub.len() + hits.super_.len());
    let stop = AtomicBool::new(false);
    let expired = AtomicBool::new(false);
    // u64::MAX stands in for "unbounded" so one atomic covers both cases.
    let pool_left = AtomicU64::new(pool.unwrap_or(u64::MAX));
    let bounded = pool.is_some();

    let mut outcomes: Vec<(usize, MatchOutcome, bool)> = std::thread::scope(|s| {
        let workers = opts.threads.min(n);
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                let hit_count = &hit_count;
                let stop = &stop;
                let expired = &expired;
                let pool_left = &pool_left;
                s.spawn(move || {
                    let mut local: Vec<(usize, MatchOutcome, bool)> = Vec::new();
                    loop {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        if deadline_expired(opts) {
                            expired.store(true, Ordering::Relaxed);
                            stop.store(true, Ordering::Relaxed);
                            break;
                        }
                        if opts
                            .max_hits
                            .is_some_and(|m| hit_count.load(Ordering::Relaxed) >= m)
                        {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let remaining = bounded.then(|| pool_left.load(Ordering::Relaxed));
                        if remaining == Some(0) {
                            stop.store(true, Ordering::Relaxed);
                            break;
                        }
                        let cand = &queue[i];
                        let (out, pool_clipped) =
                            run_capped(matcher, query, &cand.entry.graph, cand.dir, cfg, remaining);
                        if bounded {
                            // Saturating concurrent deduction; slight
                            // overdraw on a race is acceptable (the pool is
                            // an arbiter, not an exact meter).
                            let mut cur = pool_left.load(Ordering::Relaxed);
                            loop {
                                let newv = cur.saturating_sub(out.nodes_expanded);
                                match pool_left.compare_exchange_weak(
                                    cur,
                                    newv,
                                    Ordering::Relaxed,
                                    Ordering::Relaxed,
                                ) {
                                    Ok(_) => break,
                                    Err(c) => cur = c,
                                }
                            }
                        }
                        if out.found {
                            hit_count.fetch_add(
                                match cand.dir {
                                    Dir::Iso => 2,
                                    _ => 1,
                                },
                                Ordering::Relaxed,
                            );
                        }
                        if !out.complete && pool_clipped {
                            stop.store(true, Ordering::Relaxed);
                        }
                        local.push((i, out, pool_clipped));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("verification worker panicked"))
            .collect()
    });

    // Deterministic assembly in queue order. Tests and work are counted
    // for every outcome (the matcher work really was spent), but hits stop
    // being applied once the caller's hit budget is met — workers racing
    // the counter may confirm a few extra candidates, and admitting them
    // here would let a parallel run exceed the `max_hits` contract the
    // sequential sweep honours.
    outcomes.sort_unstable_by_key(|&(i, _, _)| i);
    for &(i, out, pool_clipped) in &outcomes {
        hits.tests += 1;
        hits.work += out.nodes_expanded;
        if !out.complete && pool_clipped {
            hits.truncated = true;
        }
        if out.found && !hit_budget_met(hits, opts) {
            apply_hit(hits, queue[i].dir, queue[i].entry.serial);
        }
    }
    // Candidates left unverified for any reason other than the caller's
    // own hit budget mean the pool cut the sweep short.
    if outcomes.len() < n && !hit_budget_met(hits, opts) {
        hits.truncated = true;
    }
    if expired.load(Ordering::Relaxed) {
        hits.deadline_exceeded = true;
        hits.truncated = true;
    }
}

/// Sorts the serial lists so the output is canonical regardless of shard
/// count, verification order or thread interleaving.
fn finalize(mut hits: HitSet) -> HitSet {
    hits.sub.sort_unstable();
    hits.super_.sort_unstable();
    hits
}

/// The pre-pipeline reference: a flat per-shard sweep in slot order — no
/// fingerprint fast path, no cost ordering, no budget pool, no early exit.
/// Kept as the parity oracle for `tests/hit_path.rs` and the baseline of
/// `benches/hit_path.rs`. Output is canonicalised exactly like the
/// pipeline's (sorted serials, smallest-serial exact pick).
pub fn find_hits_naive(
    snapshot: &CacheSnapshot,
    query: &LabeledGraph,
    kind: QueryKind,
    matcher: &dyn Matcher,
    cfg: &MatchConfig,
) -> HitSet {
    let profile = snapshot.profile_of(query);
    let mut hits = HitSet::default();
    let qn = query.node_count();
    let qm = query.edge_count();
    let mut sub_set: FxHashSet<QuerySerial> = FxHashSet::default();
    for shard in snapshot.shards() {
        let candidates = shard
            .index()
            .candidates_from_profile(&profile, qn as u32, qm as u32);

        for &slot in &candidates.sub {
            let Some(entry) = shard.entry_at(slot) else {
                continue;
            };
            if entry.kind != kind {
                continue;
            }
            let out = matcher.contains_with(query, &entry.graph, cfg);
            hits.tests += 1;
            hits.work += out.nodes_expanded;
            if out.found {
                hits.sub.push(entry.serial);
                sub_set.insert(entry.serial);
                if entry.graph.node_count() == qn && entry.graph.edge_count() == qm {
                    // Smallest serial wins, matching the pipeline's pick.
                    hits.exact = Some(hits.exact.map_or(entry.serial, |e| e.min(entry.serial)));
                }
            }
        }
        for &slot in &candidates.super_ {
            let Some(entry) = shard.entry_at(slot) else {
                continue;
            };
            if entry.kind != kind {
                continue;
            }
            // Same-size slots were already decided by the sub pass:
            // containment in either direction at equal size is isomorphism.
            let same_size = entry.graph.node_count() == qn && entry.graph.edge_count() == qm;
            if same_size {
                if sub_set.contains(&entry.serial) {
                    hits.super_.push(entry.serial);
                }
                continue;
            }
            let out = matcher.contains_with(&entry.graph, query, cfg);
            hits.tests += 1;
            hits.work += out.nodes_expanded;
            if out.found {
                hits.super_.push(entry.serial);
            }
        }
    }
    finalize(hits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::CacheEntry;
    use crate::query_index::QueryIndexConfig;
    use gc_graph::GraphId;
    use gc_subiso::Vf2;
    use std::sync::Arc;

    fn path_graph(labels: &[u32]) -> LabeledGraph {
        let edges: Vec<(u32, u32)> = (0..labels.len() as u32 - 1).map(|i| (i, i + 1)).collect();
        LabeledGraph::from_parts(labels.to_vec(), &edges)
    }

    fn snapshot_of_kind(graphs: Vec<LabeledGraph>, kind: QueryKind) -> CacheSnapshot {
        let entries = graphs
            .into_iter()
            .enumerate()
            .map(|(i, graph)| {
                let profile = gc_index::paths::enumerate_paths(&graph, 4, u64::MAX);
                Arc::new(CacheEntry::new(
                    (i as u64 + 1) * 100,
                    Arc::new(graph),
                    vec![GraphId(i as u32)],
                    kind,
                    profile,
                ))
            })
            .collect();
        CacheSnapshot::build(QueryIndexConfig::default(), entries)
    }

    fn snapshot(graphs: Vec<LabeledGraph>) -> CacheSnapshot {
        snapshot_of_kind(graphs, QueryKind::Subgraph)
    }

    fn run_opts(snap: &CacheSnapshot, g: &LabeledGraph, opts: &VerifyOptions) -> HitSet {
        let profile = snap.profile_of(g);
        find_hits_opts(
            snap,
            &HitQuery::new(g, QueryKind::Subgraph, &profile),
            &Vf2::new(),
            &MatchConfig::UNBOUNDED,
            opts,
        )
    }

    #[test]
    fn sub_and_super_hits_verified() {
        let snap = snapshot(vec![
            path_graph(&[0, 1, 0, 1]), // 100: g ⊆ this
            path_graph(&[0, 1]),       // 200: this ⊆ g
            path_graph(&[7, 7, 7]),    // 300: unrelated
        ]);
        let g = path_graph(&[0, 1, 0]);
        let hits = find_hits(
            &snap,
            &g,
            QueryKind::Subgraph,
            &Vf2::new(),
            &MatchConfig::UNBOUNDED,
        );
        assert_eq!(hits.sub, vec![100]);
        assert_eq!(hits.super_, vec![200]);
        assert!(hits.exact.is_none());
        assert!(hits.tests >= 2);
        assert!(!hits.truncated);
    }

    #[test]
    fn allowed_full_candidate_set_is_a_no_op() {
        let snap = snapshot(vec![
            path_graph(&[0, 1, 0, 1]), // 100: sub candidate
            path_graph(&[0, 1]),       // 200: super candidate
            path_graph(&[7, 7, 7]),    // 300: unrelated
        ]);
        let g = path_graph(&[0, 1, 0]);
        let profile = snap.profile_of(&g);
        let hq = HitQuery::new(&g, QueryKind::Subgraph, &profile);
        let pairs = candidate_serials(&snap, &hq);
        let full: Vec<QuerySerial> = pairs.iter().map(|&(s, _)| s).collect();

        // Partitioning the pairs by fingerprint and merging the parts
        // reassembles the full set.
        let mut merged: Vec<QuerySerial> = pairs
            .iter()
            .filter(|&&(_, fp)| fp % 2 == 0)
            .chain(pairs.iter().filter(|&&(_, fp)| fp % 2 == 1))
            .map(|&(s, _)| s)
            .collect();
        merged.sort_unstable();
        assert_eq!(merged, full);

        let free = run_opts(&snap, &g, &VerifyOptions::default());
        let gated = run_opts(
            &snap,
            &g,
            &VerifyOptions {
                allowed: Some(full),
                ..VerifyOptions::default()
            },
        );
        assert_eq!(gated.sub, free.sub);
        assert_eq!(gated.super_, free.super_);
        assert_eq!(gated.exact, free.exact);
        assert_eq!(gated.tests, free.tests);
        assert_eq!(gated.work, free.work);
    }

    #[test]
    fn allowed_restriction_is_a_sound_subset() {
        let snap = snapshot(vec![
            path_graph(&[0, 1, 0, 1]), // 100: sub candidate
            path_graph(&[0, 1]),       // 200: super candidate
        ]);
        let g = path_graph(&[0, 1, 0]);
        // Only serial 100 allowed: the super hit vanishes,
        // the sub hit survives, nothing panics.
        let hits = run_opts(
            &snap,
            &g,
            &VerifyOptions {
                allowed: Some(vec![100]),
                ..VerifyOptions::default()
            },
        );
        assert_eq!(hits.sub, vec![100]);
        assert!(hits.super_.is_empty());
        // The empty set sweeps nothing at all.
        let none = run_opts(
            &snap,
            &g,
            &VerifyOptions {
                allowed: Some(Vec::new()),
                ..VerifyOptions::default()
            },
        );
        assert!(none.sub.is_empty() && none.super_.is_empty());
        assert_eq!(none.tests, 0);
    }

    #[test]
    fn exact_probe_ignores_the_allow_filter() {
        // An exact answer supersedes pruning, so the O(1) fingerprint probe
        // stays unrestricted even under an empty allow set.
        let snap = snapshot(vec![path_graph(&[0, 1, 0])]);
        let g = path_graph(&[0, 1, 0]);
        let hits = run_opts(
            &snap,
            &g,
            &VerifyOptions {
                exact_shortcut: true,
                allowed: Some(Vec::new()),
                ..VerifyOptions::default()
            },
        );
        assert_eq!(hits.exact, Some(100));
        assert!(hits.exact_via_fingerprint);
    }

    #[test]
    fn candidate_serials_mirror_the_sweep_prefilters() {
        // Same size but different fingerprint: excluded (the sweep proves
        // the non-hit from the packed columns alone). Cross-kind: excluded.
        let snap = snapshot(vec![
            path_graph(&[0, 1, 2]),    // 100: same size, different fingerprint
            path_graph(&[0, 2, 1, 0]), // 200: sub candidate by size
        ]);
        let g = path_graph(&[0, 2, 1]);
        let profile = snap.profile_of(&g);
        let hq = HitQuery::new(&g, QueryKind::Subgraph, &profile);
        let serials: Vec<QuerySerial> = candidate_serials(&snap, &hq)
            .into_iter()
            .map(|(s, _)| s)
            .collect();
        assert!(!serials.contains(&100), "fingerprint-mismatched same-size");
        let cross = HitQuery::new(&g, QueryKind::Supergraph, &profile);
        assert!(
            candidate_serials(&snap, &cross).is_empty(),
            "cross-kind entries are not candidates"
        );
    }

    #[test]
    fn exact_hit_detected_via_fingerprint() {
        let snap = snapshot(vec![path_graph(&[0, 1, 0])]);
        let g = path_graph(&[0, 1, 0]);
        let hits = find_hits(
            &snap,
            &g,
            QueryKind::Subgraph,
            &Vf2::new(),
            &MatchConfig::UNBOUNDED,
        );
        assert_eq!(hits.exact, Some(100));
        assert!(hits.exact_via_fingerprint);
        assert_eq!(hits.sub, vec![100]);
        assert_eq!(hits.super_, vec![100]);
        assert_eq!(hits.tests, 0, "fingerprint confirmations are not tests");
    }

    #[test]
    fn exact_shortcut_skips_candidate_verification() {
        let snap = snapshot(vec![
            path_graph(&[0, 1, 0]),
            path_graph(&[0, 1, 0, 1]), // would be a sub candidate
            path_graph(&[0, 1]),       // would be a super candidate
        ]);
        let g = path_graph(&[0, 1, 0]);
        let hits = run_opts(
            &snap,
            &g,
            &VerifyOptions {
                exact_shortcut: true,
                ..VerifyOptions::default()
            },
        );
        assert_eq!(hits.exact, Some(100));
        assert!(hits.exact_via_fingerprint);
        assert_eq!(hits.tests, 0, "no candidate sweep on the shortcut path");
        assert!(hits.sub.is_empty() && hits.super_.is_empty());
    }

    #[test]
    fn same_size_non_isomorphic_skipped_without_testing() {
        // Same node and edge count, different structure/labels: the
        // fingerprint prefilter proves the non-hit with zero tests.
        let snap = snapshot(vec![path_graph(&[0, 1, 2])]);
        let g = path_graph(&[0, 2, 1]);
        let hits = find_hits(
            &snap,
            &g,
            QueryKind::Subgraph,
            &Vf2::new(),
            &MatchConfig::UNBOUNDED,
        );
        assert!(hits.exact.is_none());
        assert!(hits.sub.is_empty());
        assert!(hits.super_.is_empty());
        assert_eq!(hits.tests, 0);
        assert_eq!(hits.work, 0);
    }

    #[test]
    fn filter_false_positives_rejected_by_verifier() {
        // Same feature counts up to length 4 may still not contain g; the
        // verifier must reject. Cycle of 6 vs two triangles sharing labels:
        let hexagon = LabeledGraph::from_parts(
            vec![0; 6],
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)],
        );
        let snap = snapshot(vec![hexagon]);
        let triangle = LabeledGraph::from_parts(vec![0; 3], &[(0, 1), (1, 2), (2, 0)]);
        let hits = find_hits(
            &snap,
            &triangle,
            QueryKind::Subgraph,
            &Vf2::new(),
            &MatchConfig::UNBOUNDED,
        );
        assert!(hits.sub.is_empty(), "hexagon does not contain a triangle");
    }

    #[test]
    fn empty_cache_no_hits() {
        let snap = snapshot(vec![]);
        let hits = find_hits(
            &snap,
            &path_graph(&[0, 1]),
            QueryKind::Subgraph,
            &Vf2::new(),
            &MatchConfig::UNBOUNDED,
        );
        assert!(hits.sub.is_empty() && hits.super_.is_empty() && hits.exact.is_none());
        assert_eq!(hits.tests, 0);
        assert!(!hits.truncated, "nothing to verify, nothing truncated");
    }

    #[test]
    fn cross_kind_entries_never_hit() {
        // Entries answered under supergraph semantics are invisible to a
        // subgraph query (and vice versa) — even an isomorphic one.
        let snap = snapshot_of_kind(
            vec![path_graph(&[0, 1, 0]), path_graph(&[0, 1])],
            QueryKind::Supergraph,
        );
        let g = path_graph(&[0, 1, 0]);
        let sub = find_hits(
            &snap,
            &g,
            QueryKind::Subgraph,
            &Vf2::new(),
            &MatchConfig::UNBOUNDED,
        );
        assert!(sub.sub.is_empty() && sub.super_.is_empty() && sub.exact.is_none());
        assert_eq!(
            sub.tests, 0,
            "cross-kind entries are skipped before testing"
        );
        assert_eq!(sub.work, 0, "not even a fingerprint confirmation runs");
        let sup = find_hits(
            &snap,
            &g,
            QueryKind::Supergraph,
            &Vf2::new(),
            &MatchConfig::UNBOUNDED,
        );
        assert_eq!(sup.exact, Some(100), "same-kind entries still hit");
    }

    #[test]
    fn zero_budget_truncates_without_hits() {
        let snap = snapshot(vec![path_graph(&[0, 1, 0, 1]), path_graph(&[0, 1])]);
        let g = path_graph(&[0, 1, 0]);
        let hits = run_opts(
            &snap,
            &g,
            &VerifyOptions {
                budget: Some(0),
                ..VerifyOptions::default()
            },
        );
        assert!(hits.truncated);
        assert!(hits.sub.is_empty() && hits.super_.is_empty());
        assert_eq!(hits.tests, 0);
    }

    #[test]
    fn generous_budget_matches_unbounded() {
        let snap = snapshot(vec![
            path_graph(&[0, 1, 0, 1]),
            path_graph(&[0, 1]),
            path_graph(&[7, 7, 7]),
        ]);
        let g = path_graph(&[0, 1, 0]);
        let free = run_opts(&snap, &g, &VerifyOptions::default());
        let budgeted = run_opts(
            &snap,
            &g,
            &VerifyOptions {
                budget: Some(1_000_000),
                ..VerifyOptions::default()
            },
        );
        assert_eq!(budgeted.sub, free.sub);
        assert_eq!(budgeted.super_, free.super_);
        assert_eq!(budgeted.exact, free.exact);
        assert!(!budgeted.truncated);
    }

    #[test]
    fn hit_budget_early_exit_is_not_truncation() {
        let snap = snapshot(vec![
            path_graph(&[0, 1, 0, 1]),
            path_graph(&[0, 1, 0, 1, 0]),
            path_graph(&[0, 1]),
        ]);
        let g = path_graph(&[0, 1, 0]);
        let hits = run_opts(
            &snap,
            &g,
            &VerifyOptions {
                max_hits: Some(1),
                ..VerifyOptions::default()
            },
        );
        assert_eq!(hits.sub.len() + hits.super_.len(), 1);
        assert!(!hits.truncated, "caller-requested early exit");
        let all = run_opts(&snap, &g, &VerifyOptions::default());
        assert!(all.sub.len() + all.super_.len() >= 3);
    }

    #[test]
    fn parallel_matches_sequential_unbounded() {
        let graphs: Vec<LabeledGraph> = (0..12)
            .map(|i| match i % 4 {
                0 => path_graph(&[0, 1, 0, 1]),
                1 => path_graph(&[0, 1]),
                2 => path_graph(&[1, 0, 1, 0, 1]),
                _ => path_graph(&[0, 1, 0]),
            })
            .collect();
        let snap = snapshot(graphs);
        let g = path_graph(&[0, 1, 0]);
        let seq = run_opts(&snap, &g, &VerifyOptions::default());
        let par = run_opts(
            &snap,
            &g,
            &VerifyOptions {
                threads: 4,
                parallel_threshold: 2,
                ..VerifyOptions::default()
            },
        );
        assert_eq!(par.sub, seq.sub);
        assert_eq!(par.super_, seq.super_);
        assert_eq!(par.exact, seq.exact);
        assert_eq!(par.tests, seq.tests);
        assert_eq!(par.work, seq.work);
    }
}
