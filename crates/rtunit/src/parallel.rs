//! Thread-parallel ray-stream tracing — the sharding machinery behind
//! [`ExecMode::Parallel`](crate::ExecMode::Parallel).
//!
//! The datapath model is deterministic and per-item state is independent, so a ray stream, a
//! candidate set or a radius batch shards trivially: each worker builds one private device (a
//! functional datapath — ray–box and ray–triangle beats carry no cross-beat state, and a
//! distance beat train never leaves its chunk — plus its scheduler and arenas) before its first
//! chunk and runs every chunk it takes on it, whatever the query kind.  Hits are returned in the
//! caller's ray order and per-chunk [`TraversalStats`] are summed, so a parallel run reports
//! exactly the same hits and statistics as a single-threaded one — only wall-clock time
//! changes.
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
//! **Panic isolation:** a panicking chunk no longer takes the whole query down.  Each worker
//! catches its chunk's panic, drops its device (a panic may have left it half-updated) and
//! builds a fresh one before its next chunk; the poisoned chunk's index range is retried
//! **once, inline on the calling thread, on a fresh device** — for traversal chunks through the
//! scalar reference path, whose outputs and statistics are bit-identical to the wavefront by
//! the cross-policy invariant.  A successful traversal retry is recorded in
//! [`TraversalStats::shard_fallbacks`]; a shard whose retry *also* dies fails the checked
//! entry point with the shard index
//! ([`QueryError::ShardPanicked`](crate::QueryError::ShardPanicked) through
//! [`TraversalEngine::try_trace`](crate::TraversalEngine::try_trace)), while the plain entry
//! points keep their original panic.  Workers call
//! [`fault::shard_checkpoint`](crate::fault) on entry — one relaxed atomic load — so the
//! deterministic chaos harness can poison a chosen shard.
//!
//! The policy API reaches this machinery from each engine's one run function, and only for
//! uncapped runs: [`TraversalEngine::trace`](crate::TraversalEngine::trace) (through
//! [`fused_pair_sharded_checked`]) and the other engines' policy entry points (through
//! [`shard_chunks`]), plus their `try_*` twins when no deadline is set.  A run capped by
//! [`ExecPolicy::max_total_beats`] always executes inline, because cooperative cancellation is a
//! single-unit discipline.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use rayflex_core::PipelineConfig;

use crate::device::Device;
use crate::fault;
use crate::policy::{ExecMode, ExecPolicy};
use crate::traversal::{TraceOutput, TraceRequest, TraversalStats};

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
/// Each worker builds one [`Device`] of `config` before its first chunk and hands it to `work`
/// for every chunk it runs, so a datapath, a scheduler and their warm arenas are paid for once
/// per worker rather than once per chunk.  Chunks are dealt round-robin onto
/// per-worker deques; a worker pops its own deque from the front (preserving the locality of
/// the initial deal) and, when empty, steals from the back of the first non-empty victim
/// deque.  Every chunk runs under [`fault::shard_checkpoint`] with its *global chunk index* —
/// deterministic no matter which worker executes it — and inside a per-chunk `catch_unwind`, so
/// a poisoned chunk never takes its worker (or sibling chunks) down: the slot stays `None`, the
/// caller decides the retry semantics, and the worker rebuilds its device before the next chunk
/// rather than trust what the panic left behind.
fn steal_map<C: Sync, R: Send>(
    chunks: &[C],
    workers: usize,
    config: PipelineConfig,
    work: impl Fn(&mut Device, &C) -> R + Sync,
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
                    let mut owned: Option<Device> = None;
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
                        let device = owned.get_or_insert_with(|| Device::new(config));
                        let result = catch_unwind(AssertUnwindSafe(|| {
                            fault::shard_checkpoint(index);
                            work(device, &chunks[index])
                        }));
                        match result {
                            Ok(result) => local.push((index, result)),
                            Err(_) => owned = None,
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

/// Minimum rays a shard must carry before an extra worker thread pays for itself.  Below this,
/// per-spawn overhead dominates the wavefront's per-ray cost and the batched single-engine path
/// wins (measured on the PR 1 baseline scenes).
pub const MIN_RAYS_PER_SHARD: usize = 256;

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

/// The worker count a traversal pair request resolves to; at one, the request runs inline on
/// the calling engine (keeping its pools and beat attribution) instead of spinning up a
/// throwaway single worker.
fn pair_effective_threads(closest_len: usize, any_len: usize, threads: usize) -> usize {
    let total = closest_len.max(any_len);
    effective_threads(threads, closest_len + any_len).min(total.max(1))
}

/// Shards `items` into contiguous chunks through the work-stealing pool and collects the
/// per-chunk results in item order, or returns `None` when auto-tuning decides the work should
/// run inline (fewer than two chunks of at least `min_per_shard` items would result).  The
/// skeleton the single-slice parallel backends (the k-NN candidate scorer and the hierarchical
/// filter) share; the traversal pair backend ([`fused_pair_sharded_checked`]) plans its own
/// stream-aware chunk set but drains it through the same pool.  `work` runs each chunk on its
/// worker's device (a [`Device`] of `config`).  A chunk whose worker panicked is retried once
/// inline on a fresh device (the work is deterministic); a second panic propagates to the
/// caller.
pub(crate) fn shard_chunks<T: Sync, R: Send>(
    config: PipelineConfig,
    items: &[T],
    threads: usize,
    min_per_shard: usize,
    work: impl Fn(&mut Device, &[T]) -> R + Sync,
) -> Option<(Vec<R>, PoolStats)> {
    let workers = effective_threads_for(threads, items.len(), min_per_shard);
    if workers <= 1 {
        return None;
    }
    let ranges = chunk_ranges(items.len(), workers, min_per_shard);
    let (results, pool) = steal_map(&ranges, workers, config, |device, range| {
        work(device, &items[range.clone()])
    });
    let collected = ranges
        .iter()
        .zip(results)
        .map(|(range, result)| {
            result.unwrap_or_else(|| work(&mut Device::new(config), &items[range.clone()]))
        })
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

/// The [`ExecMode::Parallel`] backend for traversal requests: plans a stream-aware chunk set
/// over the request's (closest-hit, any-hit) pair and drains it through the work-stealing pool,
/// each worker running the batched wavefront over every chunk it takes on its one device, at
/// the policy's lane width and coherence; each chunk's run returns that chunk's own
/// statistics.  Either stream may be empty and the streams may have different lengths — each
/// stream is chunked independently.  `Ok(None)` means the request is too small
/// to shard (or the policy is not parallel) and belongs inline on the caller's engine.
///
/// Returns hits in input order, summed statistics (both bit-identical to every single-threaded
/// execution mode) and the pool's utilisation counters.  A worker chunk that panics is retried
/// once through the scalar reference path on a fresh device (bit-identical by the cross-policy
/// invariant, the fallback counted in [`TraversalStats::shard_fallbacks`]); `Err(shard)`
/// reports the chunk index whose retry *also* panicked — the one failure this layer cannot
/// absorb.
pub(crate) fn fused_pair_sharded_checked(
    config: PipelineConfig,
    request: &TraceRequest<'_>,
    policy: &ExecPolicy,
) -> Result<Option<(TraceOutput, TraversalStats, PoolStats)>, usize> {
    let ExecMode::Parallel { shards } = policy.mode else {
        return Ok(None);
    };
    let (view, closest_rays, any_rays) =
        (request.view(), request.closest_rays(), request.any_rays());
    let threads = pair_effective_threads(
        closest_rays.len(),
        any_rays.len(),
        shards.requested_threads(),
    );
    if threads <= 1 {
        return Ok(None);
    }
    let worker = ExecPolicy::wavefront()
        .with_simd_lanes(policy.simd_lanes)
        .with_coherence(policy.coherence);
    // Stream-aware plan: each stream is chunked independently against the same worker budget
    // and chunk floor, closest chunks first.  Chunk indices — the identity
    // `fault::shard_checkpoint` sees — are fixed by this plan, not by which worker steals what.
    let chunks: Vec<PairChunk> = chunk_ranges(closest_rays.len(), threads, MIN_RAYS_PER_SHARD)
        .into_iter()
        .map(PairChunk::Closest)
        .chain(
            chunk_ranges(any_rays.len(), threads, MIN_RAYS_PER_SHARD)
                .into_iter()
                .map(PairChunk::Any),
        )
        .collect();
    let run = |device: &mut Device, chunk: &PairChunk, policy: &ExecPolicy| {
        let (closest, any) = match chunk {
            PairChunk::Closest(range) => (&closest_rays[range.clone()], &any_rays[..0]),
            PairChunk::Any(range) => (&closest_rays[..0], &any_rays[range.clone()]),
        };
        device.trace(&TraceRequest::pair_view(view, closest, any), policy, 0)
    };
    let (results, pool) = steal_map(&chunks, threads, config, |device, chunk| {
        run(device, chunk, &worker)
    });
    let mut output = TraceOutput {
        closest: Vec::with_capacity(closest_rays.len()),
        any: Vec::with_capacity(any_rays.len()),
    };
    let mut stats = TraversalStats::default();
    for (index, (chunk, result)) in chunks.iter().zip(results).enumerate() {
        // A chunk that panicked gets one scalar-reference retry of just its range, with the
        // fallback recorded; `Err(index)` if the retry dies too.
        let (hits, chunk_stats, _) = match result {
            Some(result) => result,
            None => {
                let scalar = ExecPolicy::scalar();
                let retry = || run(&mut Device::new(config), chunk, &scalar);
                let (hits, mut stats, progress) =
                    catch_unwind(AssertUnwindSafe(retry)).map_err(|_| index)?;
                stats.shard_fallbacks += 1;
                (hits, stats, progress)
            }
        };
        output.closest.extend(hits.closest);
        output.any.extend(hits.any);
        stats.merge(&chunk_stats);
    }
    Ok(Some((output, stats, pool)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraversalEngine;
    use rayflex_geometry::{Ray, Triangle, Vec3};

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
    fn each_worker_builds_one_device_and_again_after_a_panic() {
        let chunks: Vec<usize> = (0..12).collect();
        let config = PipelineConfig::extended_unified();
        let (results, pool) = steal_map(&chunks, 3, config, |device, &chunk| {
            assert_ne!(chunk, 5, "chunk 5 is poisoned");
            // Every chunk runs a beat, so only a device no chunk has run on yet reads zero.
            let fresh = device.datapath.executed_beats() == 0;
            let policy = ExecPolicy::wavefront();
            device.score(&[1.0], &[[2.0]], crate::KnnMetric::Euclidean, &policy, 0);
            (chunk * 2, fresh)
        });
        for (chunk, result) in results.iter().enumerate() {
            let expected = (chunk != 5).then_some(chunk * 2);
            assert_eq!(
                result.map(|(doubled, _)| doubled),
                expected,
                "chunk {chunk}"
            );
        }
        // One device per worker that ran a chunk, plus at most one rebuild after the panic —
        // not one per chunk.
        let built = results.iter().flatten().filter(|(_, fresh)| *fresh).count() as u64;
        assert!(
            (1..=pool.workers + 1).contains(&built),
            "{built} devices for {} workers",
            pool.workers
        );
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
