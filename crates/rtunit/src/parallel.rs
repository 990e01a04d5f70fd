//! Thread-parallel ray-stream tracing — the sharding machinery behind
//! [`ExecMode::Parallel`](crate::ExecMode::Parallel).
//!
//! The datapath model is deterministic and per-ray traversal state is independent, so a ray
//! stream shards trivially: each worker owns a private [`TraversalEngine`] (and therefore a
//! private functional datapath — ray–box and ray–triangle beats carry no cross-beat state) and
//! traverses a contiguous chunk of the stream with the fused wavefront discipline.  Hits are
//! returned in the caller's ray order and per-shard [`TraversalStats`] are summed, so a parallel
//! run reports exactly the same hits and statistics as a single-threaded one — only wall-clock
//! time changes.
//!
//! **Auto-tuned sharding:** spawning workers costs real time, and on one core (or for short
//! streams) the parallel mode used to be *slower* than the plain batched path (measured on
//! all three traversal baseline scenes).  The sharding
//! therefore clamps the worker count so every chunk carries at least [`MIN_RAYS_PER_SHARD`] rays
//! (the remainder chunk may run up to `workers - 1` rays short of the floor), and when the
//! effective count is one it runs the batched wavefront inline on the calling thread — no
//! spawn, no join, identical results.
//!
//! **Work stealing:** fixed index-range shards (one per worker) idle workers whenever traversal
//! depth is uneven — a worker whose shadow rays all retire early sits joined while another grinds
//! through deep bounce rays.  The pool here ([`steal_map`]) is a small hand-rolled
//! chunk-queue-plus-stealing-deque (vendored like the existing rand/proptest shims — no network
//! dependencies): the stream is cut into *more chunks than workers* (up to
//! [`CHUNKS_PER_WORKER`] each, never below the [`MIN_RAYS_PER_SHARD`] floor), the chunks are
//! dealt round-robin onto per-worker deques, and each worker drains its own deque from the front
//! then steals from the *back* of a victim's.  Chunk results are written back by chunk index, so
//! hits assemble in the caller's order no matter which worker ran what; statistics merge by
//! summation and are order-invariant.  Per-run pool utilisation (workers, chunks, steals) is
//! reported as [`PoolStats`] — observability only, deliberately kept out of the mode-invariant
//! [`TraversalStats`].
//!
//! Workers are plain `std::thread::scope` threads rather than a `rayon` pool: the build
//! environment vendors no external crates, and scoped threads let the workers borrow the scene
//! and the chunk queues directly.
//!
//! **Panic isolation:** a panicking worker no longer takes the whole query down.  Every join
//! site observes the worker's panic (via the `Err` of [`std::thread::Scope`] join handles) and
//! retries the poisoned shard's index range **once, inline on the calling thread** — for
//! traversal shards through the scalar reference path, whose outputs and statistics are
//! bit-identical to the fused discipline by the cross-policy invariant.  A successful retry is
//! recorded in [`TraversalStats::shard_fallbacks`]; a shard whose retry *also* dies fails the
//! checked entry point with the shard index
//! ([`QueryError::ShardPanicked`](crate::QueryError::ShardPanicked) through
//! [`TraversalEngine::try_trace`](crate::TraversalEngine::try_trace)), while the plain entry
//! points keep their original panic.  Workers call
//! [`fault::shard_checkpoint`](crate::fault) on entry — one relaxed atomic load — so the
//! deterministic chaos harness can poison a chosen shard.
//!
//! The policy API reaches this machinery through
//! [`TraversalEngine::trace`](crate::TraversalEngine::trace) and the other engines' policy
//! entry points.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use rayflex_core::PipelineConfig;
use rayflex_geometry::Ray;

use crate::fault;
use crate::policy::CoherenceMode;
use crate::scene::SceneView;
use crate::traversal::{TraceRequest, TraversalEngine, TraversalHit, TraversalStats};
use crate::ExecPolicy;

/// Target chunks per worker in the work-stealing pool: enough surplus that a worker finishing
/// early has something to steal, small enough that chunk bookkeeping stays negligible next to
/// the [`MIN_RAYS_PER_SHARD`] floor.
pub const CHUNKS_PER_WORKER: usize = 4;

/// Utilisation counters of one work-stealing pool run — how the chunks moved, not what they
/// computed.  Deliberately separate from [`TraversalStats`]: domain statistics are mode- and
/// schedule-invariant (pinned by the policy matrix tests), while steal counts depend on thread
/// timing.  Merged across runs like the plain-`u64` `TraversalStats` sums.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads the pool spawned.
    pub workers: u64,
    /// Chunks executed through the pool.
    pub chunks: u64,
    /// Chunks a worker took from another worker's deque instead of its own.
    pub steals: u64,
}

impl PoolStats {
    /// Accumulates another run's counters (plain summation, commutative like
    /// [`TraversalStats::merge`]).
    pub fn merge(&mut self, other: &PoolStats) {
        self.workers += other.workers;
        self.chunks += other.chunks;
        self.steals += other.steals;
    }
}

/// Cuts `0..total` into contiguous chunks for `workers` workers: up to [`CHUNKS_PER_WORKER`] per
/// worker so the pool has slack to steal, but never more than `total / min_per_chunk` so no chunk
/// drops below the profitable floor (the remainder chunk may run short, exactly like the old
/// fixed sharding).
fn chunk_ranges(
    total: usize,
    workers: usize,
    min_per_chunk: usize,
) -> Vec<core::ops::Range<usize>> {
    if total == 0 {
        return Vec::new();
    }
    let by_floor = (total / min_per_chunk.max(1)).max(1);
    let chunk_count = (workers * CHUNKS_PER_WORKER).clamp(1, by_floor);
    let chunk_len = total.div_ceil(chunk_count).max(1);
    (0..total)
        .step_by(chunk_len)
        .map(|begin| begin..(begin + chunk_len).min(total))
        .collect()
}

/// The work-stealing pool core: runs `work` over every chunk on up to `workers` scoped threads
/// and returns the per-chunk results **in chunk order** plus the pool's utilisation counters.
///
/// Chunks are dealt round-robin onto per-worker deques; a worker pops its own deque from the
/// front (preserving the locality of the initial deal) and, when empty, steals from the back of
/// the first non-empty victim deque.  Every chunk runs under [`fault::shard_checkpoint`] with its
/// *global chunk index* — deterministic no matter which worker executes it — and inside a
/// per-chunk `catch_unwind`, so a poisoned chunk never takes its worker (or sibling chunks) down:
/// the slot stays `None` and the caller decides the retry semantics.
fn steal_map<C: Sync, R: Send>(
    chunks: &[C],
    workers: usize,
    work: impl Fn(&C) -> R + Sync,
) -> (Vec<Option<R>>, PoolStats) {
    let workers = workers.clamp(1, chunks.len().max(1));
    let queues: Vec<Mutex<VecDeque<usize>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for index in 0..chunks.len() {
        lock_queue(&queues[index % workers]).push_back(index);
    }
    let mut results: Vec<Option<R>> = (0..chunks.len()).map(|_| None).collect();
    let mut pool = PoolStats {
        workers: workers as u64,
        chunks: chunks.len() as u64,
        steals: 0,
    };
    let work = &work;
    let queues = &queues;
    let worker_outputs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                scope.spawn(move || {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    let mut steals = 0u64;
                    loop {
                        let mut next = lock_queue(&queues[worker]).pop_front();
                        if next.is_none() {
                            for offset in 1..workers {
                                let victim = (worker + offset) % workers;
                                if let Some(stolen) = lock_queue(&queues[victim]).pop_back() {
                                    steals += 1;
                                    next = Some(stolen);
                                    break;
                                }
                            }
                        }
                        let Some(index) = next else { break };
                        let result = catch_unwind(AssertUnwindSafe(|| {
                            fault::shard_checkpoint(index);
                            work(&chunks[index])
                        }));
                        if let Ok(result) = result {
                            local.push((index, result));
                        }
                    }
                    (local, steals)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join())
            .collect::<Vec<_>>()
    });
    // Workers catch per-chunk panics themselves; a join error would mean the scaffold
    // itself died, in which case the worker's chunks simply stay `None` and the caller's
    // retry path owns them.
    for (local, steals) in worker_outputs.into_iter().flatten() {
        pool.steals += steals;
        for (index, result) in local {
            results[index] = Some(result);
        }
    }
    (results, pool)
}

/// Locks a chunk queue, shrugging off mutex poisoning: queue state is just indices, and a
/// poisoned lock only means some chunk panicked *outside* its `catch_unwind` window — the indices
/// themselves are still consistent.
fn lock_queue(queue: &Mutex<VecDeque<usize>>) -> std::sync::MutexGuard<'_, VecDeque<usize>> {
    queue
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The result triple of a fused closest-hit + any-hit pair trace: the two hit streams (in the
/// caller's ray order) and the summed traversal statistics.
type PairTraceResult = (
    Vec<Option<TraversalHit>>,
    Vec<Option<TraversalHit>>,
    TraversalStats,
);

/// Minimum rays a shard must carry before an extra worker thread pays for itself.  Below this,
/// per-spawn overhead dominates the wavefront's per-ray cost and the batched single-engine path
/// wins (measured on the PR 1 baseline scenes).
pub const MIN_RAYS_PER_SHARD: usize = 256;

/// Stream-aware chunk floor for **any-hit/shadow** streams
/// ([`ShardHint::Auto`](crate::ShardHint::Auto) only): shadow rays retire on their first
/// accepted hit, so on occluded workloads an any-hit ray costs a fraction of the beats of a
/// closest-hit ray — its per-ray retirement rate is roughly twice the closest-hit stream's on
/// the benchmark scenes.  Halving the chunk floor keeps any-hit chunk *work* (not ray count)
/// near the closest-hit floor, yielding more, finer chunks for the stealing pool to balance.
/// Chunk planning never touches outputs or [`TraversalStats`] — only [`PoolStats`] moves.
pub const MIN_ANY_RAYS_PER_SHARD: usize = MIN_RAYS_PER_SHARD / 2;

/// Default worker count: the machine's available parallelism, or 4 if it cannot be queried.
#[must_use]
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism().map_or(4, usize::from)
}

/// The worker count actually used for `items` work items when `threads` are requested: clamped
/// so every shard carries at least `min_per_shard` items (and never exceeding one worker per
/// item).  A result of 1 means "run inline on the calling thread".  The **single** auto-tuning
/// formula every parallel backend shares, whatever its item granularity (rays, candidate
/// vectors, radius queries).
fn effective_threads_for(threads: usize, items: usize, min_per_shard: usize) -> usize {
    // Floor division: only streams with at least two *full* shards spawn a second worker, so no
    // shard ever drops below the floor.
    let by_shard_size = (items / min_per_shard.max(1)).max(1);
    threads.clamp(1, items.max(1)).min(by_shard_size)
}

/// [`effective_threads_for`] at the traversal granularity ([`MIN_RAYS_PER_SHARD`]).
fn effective_threads(threads: usize, items: usize) -> usize {
    effective_threads_for(threads, items, MIN_RAYS_PER_SHARD)
}

/// The worker count a traversal pair request resolves to — exposed so
/// [`TraversalEngine::trace`] can run small [`ExecMode::Parallel`](crate::ExecMode::Parallel)
/// requests inline on the calling engine (keeping its pools and beat attribution) instead of
/// spinning up a throwaway single worker.
pub(crate) fn pair_effective_threads(closest_len: usize, any_len: usize, threads: usize) -> usize {
    let total = closest_len.max(any_len);
    effective_threads(threads, closest_len + any_len).min(total.max(1))
}

/// Shards `items` into contiguous chunks through the work-stealing pool and collects the
/// per-chunk results in item order, or returns `None` when auto-tuning decides the work should
/// run inline (fewer than two chunks of at least `min_per_shard` items would result).  The
/// skeleton the single-slice parallel backends (the k-NN candidate scorer and the hierarchical
/// filter) share; the traversal pair backend ([`fused_pair_sharded`]) plans its own stream-aware
/// chunk set but drains it through the same pool.  A chunk whose worker panicked is retried once
/// inline (the work is deterministic); a second panic propagates to the caller.
pub(crate) fn shard_chunks<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    min_per_shard: usize,
    work: impl Fn(&[T]) -> R + Sync,
) -> Option<(Vec<R>, PoolStats)> {
    let workers = effective_threads_for(threads, items.len(), min_per_shard);
    if workers <= 1 {
        return None;
    }
    let ranges = chunk_ranges(items.len(), workers, min_per_shard);
    let (results, pool) = steal_map(&ranges, workers, |range| work(&items[range.clone()]));
    let collected = ranges
        .iter()
        .zip(results)
        .map(|(range, result)| result.unwrap_or_else(|| work(&items[range.clone()])))
        .collect();
    Some((collected, pool))
}

/// One chunk of a stream-aware pair plan: the shard hint is resolved *per stream*, so a chunk
/// never straddles the closest/any boundary — a single-kind chunk runs the plain wavefront (the
/// fused run of a single stream reproduces the wavefront loop exactly), and early-retiring
/// shadow chunks free their worker to steal bounce-ray chunks instead of stalling behind them.
#[derive(Debug, Clone)]
enum PairChunk {
    /// A contiguous range of the closest-hit stream.
    Closest(core::ops::Range<usize>),
    /// A contiguous range of the any-hit stream.
    Any(core::ops::Range<usize>),
}

/// The result of a pool-backed pair trace: both hit streams (in the caller's ray order), the
/// summed domain statistics and the pool's utilisation counters.
pub(crate) struct PairPoolTrace {
    /// Closest-hit results, in input order.
    pub closest: Vec<Option<TraversalHit>>,
    /// Any-hit results, in input order.
    pub any: Vec<Option<TraversalHit>>,
    /// Summed traversal statistics (bit-identical to every single-threaded mode).
    pub stats: TraversalStats,
    /// Work-stealing pool utilisation (observability only; empty for inline runs).
    pub pool: PoolStats,
}

/// The [`ExecMode::Parallel`](crate::ExecMode::Parallel) backend for traversal requests: plans a
/// stream-aware chunk set over the (closest-hit, any-hit) pair and drains it through the
/// work-stealing pool, each chunk a private engine running the batched wavefront over its slice.
/// Either stream may be empty and the streams may have different lengths — each stream is
/// chunked independently.
///
/// Returns hits in input order and summed statistics; all bit-identical to every
/// single-threaded execution mode.
///
/// # Panics
///
/// Panics if a worker chunk panics **and** the one-shot scalar retry of its range panics too —
/// the behaviour the pre-hardening code had for any worker panic.  Use
/// [`fused_pair_sharded_checked`] to get the chunk index back instead.
#[allow(clippy::too_many_arguments)] // mirrors the checked variant's full plan description
pub(crate) fn fused_pair_sharded(
    config: PipelineConfig,
    view: SceneView<'_>,
    closest_rays: &[Ray],
    any_rays: &[Ray],
    threads: usize,
    simd_lanes: usize,
    coherence: CoherenceMode,
    stream_aware: bool,
) -> PairPoolTrace {
    fused_pair_sharded_checked(
        config,
        view,
        closest_rays,
        any_rays,
        threads,
        simd_lanes,
        coherence,
        stream_aware,
    )
    .unwrap_or_else(|shard| {
        panic!("fused traversal worker panicked (shard {shard}) and its scalar retry failed")
    })
}

/// [`fused_pair_sharded`] with panic isolation surfaced instead of propagated: a worker chunk
/// that panics is retried once through the scalar reference path (bit-identical results, the
/// fallback counted in [`TraversalStats::shard_fallbacks`]); `Err(shard)` reports the chunk
/// index whose retry *also* panicked — the one failure this layer cannot absorb.
#[allow(clippy::too_many_arguments)] // the full shard plan: geometry, streams, budget, knobs
pub(crate) fn fused_pair_sharded_checked(
    config: PipelineConfig,
    view: SceneView<'_>,
    closest_rays: &[Ray],
    any_rays: &[Ray],
    threads: usize,
    simd_lanes: usize,
    coherence: CoherenceMode,
    stream_aware: bool,
) -> Result<PairPoolTrace, usize> {
    let threads = pair_effective_threads(closest_rays.len(), any_rays.len(), threads);
    if threads <= 1 {
        // Inline single-engine path: one fused (or single-kind wavefront) run on the calling
        // thread — no spawn, no join, identical results.
        let mut engine = TraversalEngine::with_config(config);
        engine.set_simd_lanes(simd_lanes);
        engine.set_coherence(coherence);
        let (closest, any) = if any_rays.is_empty() {
            (
                engine.wavefront_closest_hits(view, closest_rays),
                Vec::new(),
            )
        } else if closest_rays.is_empty() {
            (Vec::new(), engine.wavefront_any_hits(view, any_rays))
        } else {
            engine.fused_pair(
                view,
                closest_rays,
                any_rays,
                0,
                crate::policy::AdmissionOrder::Fifo,
                [0, 0],
            )
        };
        return Ok(PairPoolTrace {
            closest,
            any,
            stats: engine.stats(),
            pool: PoolStats::default(),
        });
    }
    // Stream-aware plan: each stream is chunked independently against the same worker budget,
    // closest chunks first.  Chunk indices — the identity `fault::shard_checkpoint` sees — are
    // fixed by this plan, not by which worker steals what.  Under `stream_aware` (the
    // [`ShardHint::Auto`](crate::ShardHint::Auto) resolution) the any-hit stream plans against
    // its smaller retirement-rate-derived floor.
    let any_floor = if stream_aware {
        MIN_ANY_RAYS_PER_SHARD
    } else {
        MIN_RAYS_PER_SHARD
    };
    let chunks: Vec<PairChunk> = chunk_ranges(closest_rays.len(), threads, MIN_RAYS_PER_SHARD)
        .into_iter()
        .map(PairChunk::Closest)
        .chain(
            chunk_ranges(any_rays.len(), threads, any_floor)
                .into_iter()
                .map(PairChunk::Any),
        )
        .collect();
    let (results, pool) = steal_map(&chunks, threads, |chunk| {
        let mut engine = TraversalEngine::with_config(config);
        engine.set_simd_lanes(simd_lanes);
        engine.set_coherence(coherence);
        let hits = match chunk {
            PairChunk::Closest(range) => {
                engine.wavefront_closest_hits(view, &closest_rays[range.clone()])
            }
            PairChunk::Any(range) => engine.wavefront_any_hits(view, &any_rays[range.clone()]),
        };
        (hits, engine.stats())
    });
    let mut closest = Vec::with_capacity(closest_rays.len());
    let mut any = Vec::with_capacity(any_rays.len());
    let mut stats = TraversalStats::default();
    for (index, (chunk, result)) in chunks.iter().zip(results).enumerate() {
        let (hits, chunk_stats) = match result {
            Some(result) => result,
            None => {
                // The chunk panicked: one scalar-reference retry of just its range, with the
                // fallback recorded.  `Err(index)` if the retry dies too.
                let (closest_range, any_range) = match chunk {
                    PairChunk::Closest(range) => (range.clone(), 0..0),
                    PairChunk::Any(range) => (0..0, range.clone()),
                };
                let (retry_closest, retry_any, retry_stats) = retry_range_scalar(
                    config,
                    view,
                    &closest_rays[closest_range],
                    &any_rays[any_range],
                )
                .ok_or(index)?;
                match chunk {
                    PairChunk::Closest(_) => (retry_closest, retry_stats),
                    PairChunk::Any(_) => (retry_any, retry_stats),
                }
            }
        };
        match chunk {
            PairChunk::Closest(_) => closest.extend(hits),
            PairChunk::Any(_) => any.extend(hits),
        }
        stats.merge(&chunk_stats);
    }
    Ok(PairPoolTrace {
        closest,
        any,
        stats,
        pool,
    })
}

/// The one-shot recovery path for a poisoned traversal shard: re-trace just its index range
/// through the scalar reference mode on a fresh engine — bit-identical hits and statistics by
/// the cross-policy invariant — with the fallback recorded in
/// [`TraversalStats::shard_fallbacks`].  `None` means the retry itself panicked (a persistent
/// fault, not a transient one).
fn retry_range_scalar(
    config: PipelineConfig,
    view: SceneView<'_>,
    closest_rays: &[Ray],
    any_rays: &[Ray],
) -> Option<PairTraceResult> {
    catch_unwind(AssertUnwindSafe(|| {
        let mut engine = TraversalEngine::with_config(config);
        let output = engine.trace(
            &TraceRequest::pair_view(view, closest_rays, any_rays),
            &ExecPolicy::scalar(),
        );
        let mut stats = engine.stats();
        stats.shard_fallbacks += 1;
        (output.closest, output.any, stats)
    }))
    .ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayflex_geometry::{Triangle, Vec3};

    fn scene() -> Vec<Triangle> {
        (0..64)
            .map(|i| {
                let x = (i % 8) as f32 * 2.0 - 8.0;
                let y = (i / 8) as f32 * 2.0 - 8.0;
                let z = 12.0 + (i % 5) as f32;
                Triangle::new(
                    Vec3::new(x, y, z),
                    Vec3::new(x + 1.8, y, z),
                    Vec3::new(x + 0.9, y + 1.8, z),
                )
            })
            .collect()
    }

    fn camera_rays(n: usize) -> Vec<Ray> {
        (0..n)
            .map(|i| {
                let x = (i % 16) as f32 * 0.8 - 6.4;
                let y = (i / 16) as f32 * 0.8 - 6.4;
                Ray::new(Vec3::new(x, y, 0.0), Vec3::new(0.01, -0.02, 1.0))
            })
            .collect()
    }

    #[test]
    fn parallel_hits_and_stats_match_the_single_threaded_run() {
        let scene = crate::Scene::flat(scene());
        let rays = camera_rays(96);
        let request = TraceRequest::closest_hit(&scene, &rays);
        let mut reference = TraversalEngine::baseline();
        let expected = reference.trace(&request, &ExecPolicy::scalar());
        for threads in [1, 2, 3, 8, 96, 200] {
            let mut engine = TraversalEngine::baseline();
            let got = engine.trace(&request, &ExecPolicy::parallel(threads));
            assert_eq!(got, expected, "threads = {threads}");
            assert_eq!(engine.stats(), reference.stats(), "threads = {threads}");
        }
    }

    #[test]
    fn shadow_streams_shard_like_closest_hit_streams() {
        let scene = crate::Scene::flat(scene());
        // Long enough to force real sharding past the auto-tune threshold.
        let rays: Vec<Ray> = camera_rays(96)
            .into_iter()
            .cycle()
            .take(MIN_RAYS_PER_SHARD * 2)
            .collect();
        let request = TraceRequest::any_hit(&scene, &rays);
        let mut reference = TraversalEngine::baseline();
        let expected = reference.trace(&request, &ExecPolicy::scalar());
        for threads in [1, 2, 7] {
            let mut engine = TraversalEngine::baseline();
            let got = engine.trace(&request, &ExecPolicy::parallel(threads));
            assert_eq!(got, expected, "threads = {threads}");
            assert_eq!(engine.stats(), reference.stats(), "threads = {threads}");
        }
    }

    #[test]
    fn short_streams_fall_back_to_the_single_engine_path() {
        // Below the shard threshold every request degenerates to one inline engine.
        assert_eq!(effective_threads(8, 0), 1);
        assert_eq!(effective_threads(8, 1), 1);
        assert_eq!(effective_threads(8, MIN_RAYS_PER_SHARD), 1);
        assert_eq!(effective_threads(1, 10 * MIN_RAYS_PER_SHARD), 1);
        // A stream must hold two *full* shards before a second worker spawns: no worker may
        // ever receive a shard below the floor.
        assert_eq!(effective_threads(8, 2 * MIN_RAYS_PER_SHARD - 1), 1);
        assert_eq!(effective_threads(8, 2 * MIN_RAYS_PER_SHARD), 2);
        assert_eq!(effective_threads(8, 3 * MIN_RAYS_PER_SHARD - 1), 2);
        assert_eq!(effective_threads(2, 64 * MIN_RAYS_PER_SHARD), 2);
        assert_eq!(effective_threads(0, 2 * MIN_RAYS_PER_SHARD), 1);
        // Every spawned worker's contiguous chunk stays at (or within a worker count of) the
        // floor — ceiling chunking can shave at most `threads - 1` rays off the last shard.
        for items in [513usize, 767, 1000, 1025, 4096] {
            let threads = effective_threads(8, items);
            if threads > 1 {
                let shard_len = items.div_ceil(threads);
                let last = items - shard_len * (threads - 1);
                assert!(
                    last + threads > MIN_RAYS_PER_SHARD,
                    "items {items}: last shard {last}"
                );
            }
        }
    }

    #[test]
    fn fused_pair_sharding_matches_the_single_engine_fused_run() {
        let flat = crate::Scene::flat(scene());
        let config = rayflex_core::PipelineConfig::baseline_unified();
        // Unequal stream lengths and a length past the shard threshold both get exercised.
        for (closest_count, any_count) in [(96, 40), (0, 64), (MIN_RAYS_PER_SHARD * 2, 300)] {
            let closest_rays: Vec<Ray> = camera_rays(96)
                .into_iter()
                .cycle()
                .take(closest_count)
                .collect();
            let any_rays: Vec<Ray> = camera_rays(96)
                .into_iter()
                .cycle()
                .take(any_count)
                .map(|r| Ray::with_extent(r.origin, r.dir, 1e-3, 30.0))
                .collect();
            let request = TraceRequest::pair(&flat, &closest_rays, &any_rays);
            let mut reference = TraversalEngine::with_config(config);
            let expected = reference.trace(&request, &ExecPolicy::fused());
            for threads in [1, 2, 5, 8] {
                let mut engine = TraversalEngine::with_config(config);
                let got = engine.trace(&request, &ExecPolicy::parallel(threads));
                assert_eq!(got, expected, "threads = {threads}");
                assert_eq!(engine.stats(), reference.stats(), "threads = {threads}");
            }
        }
    }

    #[test]
    fn empty_streams_are_fine() {
        let scene = crate::Scene::flat(scene());
        let mut engine = TraversalEngine::baseline();
        let output = engine.trace(
            &TraceRequest::closest_hit(&scene, &[]),
            &ExecPolicy::parallel(8),
        );
        assert!(output.closest.is_empty() && output.any.is_empty());
        assert_eq!(engine.stats(), TraversalStats::default());
    }

    #[test]
    fn default_parallelism_is_positive() {
        assert!(default_parallelism() >= 1);
    }

    #[test]
    fn a_poisoned_shard_recovers_bit_identically_through_the_scalar_retry() {
        use crate::fault::{while_armed, FaultKind, FaultPlan};
        let flat = crate::Scene::flat(scene());
        // Two full shards so the parallel mode really spawns two workers.
        let rays: Vec<Ray> = camera_rays(96)
            .into_iter()
            .cycle()
            .take(MIN_RAYS_PER_SHARD * 2)
            .collect();
        let request = TraceRequest::closest_hit(&flat, &rays);
        let mut reference = TraversalEngine::baseline();
        let expected = reference.trace(&request, &ExecPolicy::scalar());

        let plan = FaultPlan::new(FaultKind::PoisonShard(1), 0);
        let mut engine = TraversalEngine::baseline();
        let got = while_armed(&plan, || engine.trace(&request, &ExecPolicy::parallel(2)));
        assert_eq!(got, expected, "recovered hits are bit-identical");
        let mut stats = engine.stats();
        assert_eq!(stats.shard_fallbacks, 1, "the fallback left an audit trail");
        stats.shard_fallbacks = 0;
        assert_eq!(
            stats,
            reference.stats(),
            "beat counts unchanged by recovery"
        );
    }
}
