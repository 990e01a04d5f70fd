//! Thread-parallel ray-stream tracing — the sharding machinery behind
//! [`ExecMode::Parallel`](crate::ExecMode::Parallel).
//!
//! The datapath model is deterministic and per-item state is independent, so a ray stream, a
//! candidate set or a radius batch shards trivially: each worker builds one private device (a
//! functional datapath — ray–box and ray–triangle beats carry no cross-beat state, and a
//! distance beat train never leaves its chunk — plus its scheduler and arenas) before its first
//! chunk and runs every chunk it takes on it, whatever the query kind.  Hits are returned in the
//! caller's ray order and per-chunk [`TraversalStats`](crate::TraversalStats) are summed, so a
//! parallel run reports exactly the same hits and statistics as a single-threaded one — only
//! wall-clock time changes.
//!
//! **Auto-tuned sharding:** spawning workers costs real time, and on one core (or for short
//! streams) the parallel mode used to be *slower* than the plain batched path (measured on
//! all three traversal baseline scenes).  The sharding
//! therefore clamps the worker count so every chunk carries at least [`MIN_RAYS_PER_SHARD`] rays
//! (the remainder chunk may run up to `workers - 1` rays short of the floor), and when the
//! effective count is one the request runs inline on the calling engine — no spawn, no join,
//! identical results.
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
//! [`TraversalStats`](crate::TraversalStats).
//!
//! Workers are plain `std::thread::scope` threads rather than a `rayon` pool: the build
//! environment vendors no external crates, and scoped threads let the workers borrow the scene
//! and the chunk queues directly.
//!
//! **Panic isolation:** a panicking chunk no longer takes the whole query down.  Each worker
//! catches its chunk's panic, drops its device (a panic may have left it half-updated) and
//! builds a fresh one before its next chunk.  Every engine's chunks then follow one retry rule
//! ([`ShardPlan::run`]): the poisoned chunk is retried **once, inline on the calling thread, on
//! a fresh device, under [`ExecPolicy::scalar`]**, whose outputs and statistics are
//! bit-identical to every batched mode by the cross-policy invariant.  Traversal records each
//! retry in [`TraversalStats::shard_fallbacks`](crate::TraversalStats::shard_fallbacks).  A
//! chunk whose retry *also* dies fails the run with its chunk index:
//! [`QueryError::ShardPanicked`](crate::QueryError::ShardPanicked) through
//! [`TraversalEngine::try_trace`](crate::TraversalEngine::try_trace), a panic from every other
//! entry point.  Workers call [`fault::shard_checkpoint`](crate::fault) on entry — one relaxed
//! atomic load — so the deterministic chaos harness can poison a chosen chunk.
//!
//! The policy API reaches this machinery from each engine's one run function:
//! [`TraversalEngine::trace`](crate::TraversalEngine::trace), the k-NN scorer and the
//! hierarchical filter each plan their streams with [`ShardPlan::new`] and run the plan with
//! [`ShardPlan::run`], plus their `try_*` twins when no deadline is set.  A run capped by
//! [`ExecPolicy::max_total_beats`] always executes inline, because cooperative cancellation is a
//! single-unit discipline.

use core::ops::Range;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use rayflex_core::PipelineConfig;

use crate::device::Device;
use crate::fault;
use crate::policy::{ExecMode, ExecPolicy};

/// Target chunks per worker in the work-stealing pool: enough surplus that a worker finishing
/// early has something to steal, small enough that chunk bookkeeping stays negligible next to
/// the [`MIN_RAYS_PER_SHARD`] floor.
pub const CHUNKS_PER_WORKER: usize = 4;

/// Utilisation counters of one work-stealing pool run — how the chunks moved, not what they
/// computed.  Deliberately separate from [`TraversalStats`](crate::TraversalStats): domain
/// statistics are mode- and schedule-invariant (pinned by the policy matrix tests), while steal
/// counts depend on thread timing.  Merged across runs like the plain-`u64` `TraversalStats` sums.
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
    /// [`TraversalStats::merge`](crate::TraversalStats::merge)).
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
) -> impl Iterator<Item = Range<usize>> {
    let by_floor = (total / min_per_chunk.max(1)).max(1);
    let chunk_count = (workers * CHUNKS_PER_WORKER).clamp(1, by_floor);
    let chunk_len = total.div_ceil(chunk_count).max(1);
    (0..total)
        .step_by(chunk_len)
        .map(move |begin| begin..(begin + chunk_len).min(total))
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
/// a poisoned chunk never takes its worker (or sibling chunks) down: the slot stays `None` for
/// [`ShardPlan::run`] to retry, and the worker rebuilds its device before the next chunk rather
/// than trust what the panic left behind.
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
    // itself died, in which case the worker's chunks simply stay `None` and the retry owns
    // them.
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

/// The chunk plan of one sharded run: how many pool workers to spawn and every chunk as its
/// stream's index and an item range of that stream, stream by stream.  The plan fixes chunk
/// indices — the identity [`fault::shard_checkpoint`] sees — whichever worker runs what.
#[derive(Debug)]
pub(crate) struct ShardPlan {
    workers: usize,
    chunks: Vec<(usize, Range<usize>)>,
}

impl ShardPlan {
    /// Plans an uncapped [`ExecMode::Parallel`] run of `policy` over streams of the given
    /// lengths (traversal passes its closest-hit and any-hit streams, the other engines one).
    /// Returns `None` when the run belongs inline on the calling engine, keeping its warm device
    /// and beat attribution: in every other mode, under a beat cap `cap` (cooperative
    /// cancellation is a single-unit discipline), and when the work is too short for two
    /// workers.
    ///
    /// The **single** auto-tuning formula every engine shares, whatever its item granularity
    /// (rays, candidate vectors, radius queries): the policy's thread hint is clamped so every
    /// chunk carries at least `min_per_chunk` items of the streams' total — floor division, so
    /// only work holding two *full* chunks spawns a second worker — and to the longest stream.
    /// Each stream is then cut on its own by [`chunk_ranges`], so a chunk never straddles two
    /// streams and an early-retiring shadow chunk frees its worker to steal bounce-ray chunks.
    pub(crate) fn new(
        policy: &ExecPolicy,
        cap: u64,
        streams: &[usize],
        min_per_chunk: usize,
    ) -> Option<Self> {
        let (0, ExecMode::Parallel { shards }) = (cap, policy.mode) else {
            return None;
        };
        let total: usize = streams.iter().sum();
        let longest = streams.iter().copied().max().unwrap_or(0);
        let workers = shards
            .requested_threads()
            .min(total / min_per_chunk.max(1))
            .min(longest);
        if workers <= 1 {
            return None;
        }
        let chunks = streams
            .iter()
            .enumerate()
            .flat_map(|(stream, &len)| {
                chunk_ranges(len, workers, min_per_chunk).map(move |range| (stream, range))
            })
            .collect();
        Some(ShardPlan { workers, chunks })
    }

    /// Runs every chunk through the work-stealing pool: `work` gets the worker's device, the
    /// chunk's stream index and item range, and the policy to run it under — the caller's.  A
    /// chunk whose worker panicked is retried once, inline on a fresh device under
    /// [`ExecPolicy::scalar`], inside `catch_unwind`; the work is deterministic and the scalar
    /// reference bit-identical to every batched mode, so a retried chunk returns exactly what
    /// its worker would have.
    ///
    /// Returns the chunk results in plan order, the pool's counters and the number of retried
    /// chunks, or `Err(chunk)`: the plan index of the first chunk whose retry panicked too.
    pub(crate) fn run<R: Send>(
        &self,
        config: PipelineConfig,
        policy: &ExecPolicy,
        work: impl Fn(&mut Device, usize, Range<usize>, &ExecPolicy) -> R + Sync,
    ) -> Result<(Vec<R>, PoolStats, u64), usize> {
        let (results, pool) = steal_map(&self.chunks, self.workers, config, |device, chunk| {
            work(device, chunk.0, chunk.1.clone(), policy)
        });
        let scalar = ExecPolicy::scalar();
        let mut retried = 0;
        let results = self
            .chunks
            .iter()
            .zip(results)
            .enumerate()
            .map(|(index, ((stream, range), result))| match result {
                Some(result) => Ok(result),
                None => {
                    retried += 1;
                    let retry = || work(&mut Device::new(config), *stream, range.clone(), &scalar);
                    catch_unwind(AssertUnwindSafe(retry)).map_err(|_| index)
                }
            })
            .collect::<Result<_, _>>()?;
        Ok((results, pool, retried))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::{TraceRequest, TraversalStats};
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

    /// The `(workers, chunks)` of the plan over `streams`, `(1, 0)` when the work runs inline.
    fn plan(streams: &[usize], threads: usize, floor: usize) -> (usize, usize) {
        ShardPlan::new(&ExecPolicy::parallel(threads), 0, streams, floor)
            .map_or((1, 0), |plan| (plan.workers, plan.chunks.len()))
    }

    #[test]
    fn short_streams_fall_back_to_the_single_engine_path() {
        let workers = |threads, items| plan(&[items], threads, MIN_RAYS_PER_SHARD).0;
        // Below the shard threshold every request degenerates to one inline engine.
        assert_eq!(workers(8, 0), 1);
        assert_eq!(workers(8, 1), 1);
        assert_eq!(workers(8, MIN_RAYS_PER_SHARD), 1);
        assert_eq!(workers(1, 10 * MIN_RAYS_PER_SHARD), 1);
        // A stream must hold two *full* shards before a second worker spawns: no worker may
        // ever receive a shard below the floor.
        assert_eq!(workers(8, 2 * MIN_RAYS_PER_SHARD - 1), 1);
        assert_eq!(workers(8, 2 * MIN_RAYS_PER_SHARD), 2);
        assert_eq!(workers(8, 3 * MIN_RAYS_PER_SHARD - 1), 2);
        assert_eq!(workers(2, 64 * MIN_RAYS_PER_SHARD), 2);
        assert_eq!(workers(0, 2 * MIN_RAYS_PER_SHARD), 1);
        // Every spawned worker's contiguous chunk stays at (or within a worker count of) the
        // floor — ceiling chunking can shave at most `threads - 1` rays off the last shard.
        for items in [513usize, 767, 1000, 1025, 4096] {
            let threads = workers(8, items);
            if threads > 1 {
                let shard_len = items.div_ceil(threads);
                let last = items - shard_len * (threads - 1);
                assert!(
                    last + threads > MIN_RAYS_PER_SHARD,
                    "items {items}: last shard {last}"
                );
            }
        }
        // A pair shares one worker budget over both streams' total, capped by the longer
        // stream, and each stream is cut on its own.
        let floor = MIN_RAYS_PER_SHARD;
        for (streams, threads, floor, expected) in [
            ([0, 0], 8, floor, (1, 0)),
            ([100, 100], 8, floor, (1, 0)),
            ([256, 255], 8, floor, (1, 0)),
            ([256, 256], 8, floor, (2, 2)),
            ([512, 0], 8, floor, (2, 2)),
            ([0, 512], 8, floor, (2, 2)),
            ([0, 600], 2, floor, (2, 2)),
            ([300, 300], 8, floor, (2, 2)),
            ([1024, 300], 2, floor, (2, 5)),
            ([511, 511], 8, floor, (3, 2)),
            ([2048, 2048], 8, floor, (8, 16)),
            // The longer stream clamps the worker count.
            ([3, 2], 8, 1, (3, 5)),
            ([5, 1], 8, 1, (5, 6)),
        ] {
            assert_eq!(
                plan(&streams, threads, floor),
                expected,
                "{streams:?} at {threads}"
            );
        }
    }

    #[test]
    fn a_chunk_whose_retry_dies_too_fails_the_run_with_its_index() {
        // Eight chunks of eight items over two workers; chunk 5 holds items 40..48.
        let policy = ExecPolicy::parallel(2);
        let plan = ShardPlan::new(&policy, 0, &[64], 8).expect("64 items shard");
        let config = PipelineConfig::baseline_unified();
        let always = plan.run(config, &policy, |_, _, range, _| {
            assert_ne!(range.start, 40, "chunk 5 is poisoned");
            range.len()
        });
        assert_eq!(always.err(), Some(5), "the retry died too");

        let (lens, pool, retried) = plan
            .run(config, &policy, |_, _, range, policy| {
                let retry = policy.mode == ExecMode::ScalarReference;
                assert!(
                    range.start != 40 || retry,
                    "chunk 5 is poisoned on the pool"
                );
                range.len()
            })
            .expect("the scalar retry recovers");
        assert_eq!(lens, vec![8; 8]);
        assert_eq!((pool.chunks, retried), (8, 1));
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

        // A pair plans its closest-hit chunks (0 and 1) before its any-hit chunks (2 and 3);
        // poisoning an any-hit chunk retries it as a lone any-hit stream.
        let shadow: Vec<Ray> = rays
            .iter()
            .map(|r| Ray::with_extent(r.origin, r.dir, 1e-3, 30.0))
            .collect();
        let request = TraceRequest::pair(&flat, &rays, &shadow);
        let mut reference = TraversalEngine::baseline();
        let expected = reference.trace(&request, &ExecPolicy::scalar());
        let plan = FaultPlan::new(FaultKind::PoisonShard(3), 0);
        let mut engine = TraversalEngine::baseline();
        let got = while_armed(&plan, || engine.trace(&request, &ExecPolicy::parallel(2)));
        assert_eq!(got.closest, expected.closest);
        assert_eq!(got.any, expected.any);
        assert_eq!(engine.pool_stats().chunks, 4);
        let mut stats = engine.stats();
        assert_eq!(stats.shard_fallbacks, 1, "the any-hit chunk fell back");
        stats.shard_fallbacks = 0;
        assert_eq!(stats, reference.stats());
    }
}
