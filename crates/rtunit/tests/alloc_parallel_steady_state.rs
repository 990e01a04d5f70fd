//! The warm-worker contract of the work-stealing pool, verified by a counting global allocator:
//! each pool worker builds one device (datapath, scheduler and arenas) before its first chunk
//! and scores every chunk it takes on it, so doubling the chunk count of a parallel kNN call
//! adds only the new chunks' result vectors — not a device per chunk.
//!
//! This file deliberately holds a single `#[test]` (plus the allocator plumbing): the counting
//! allocator tallies process-wide, so a sibling test running on another harness thread would
//! pollute the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use rayflex_rtunit::{ExecPolicy, KnnEngine, KnnMetric};

/// [`System`] with an on/off allocation counter: `alloc`/`realloc` calls are tallied while
/// armed, `dealloc` is not (what the contract bounds is new heap traffic).
struct CountingAllocator;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

/// Runs `f` with the counter armed and returns how many allocations it performed (the pool's
/// worker threads included: the counter is process-wide).
fn count_allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCATIONS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let value = f();
    ARMED.store(false, Ordering::SeqCst);
    (value, ALLOCATIONS.load(Ordering::SeqCst))
}

const DIM: usize = 40;

fn vectors(count: usize, salt: usize) -> Vec<Vec<f32>> {
    (0..count)
        .map(|i| {
            (0..DIM)
                .map(|d| ((i * 31 + d * 7 + salt) % 97) as f32 * 0.25 - 12.0)
                .collect()
        })
        .collect()
}

/// Allocations a chunk may add: its distance vector, the scheduler's output vector it is
/// copied from, and one for the amortised growth of the pool's per-worker result list and
/// chunk deques.
const PER_CHUNK: u64 = 3;

#[test]
fn a_warm_parallel_knn_call_builds_one_device_per_worker_not_per_chunk() {
    let query = vectors(1, 5).remove(0);
    let policy = ExecPolicy::parallel(2);
    let candidates = vectors(512, 11);
    // 64 candidates per chunk (`MIN_CANDIDATES_PER_SHARD`): 256 candidates are 4 chunks and
    // 512 are 8, both across 2 workers.
    let (small, large) = (&candidates[..256], &candidates[..]);

    // What one device costs: a cold engine scoring one chunk's worth of candidates inline (too
    // few to shard) against the same call on the now-warm engine.
    let one_chunk = &candidates[..64];
    let mut engine = KnnEngine::new();
    let (expected_one, cold) = count_allocations(|| {
        let mut cold_engine = KnnEngine::new();
        cold_engine.distances(&query, one_chunk, KnnMetric::Euclidean, &policy)
    });
    let _ = engine.distances(&query, one_chunk, KnnMetric::Euclidean, &policy);
    let (got_one, warm) =
        count_allocations(|| engine.distances(&query, one_chunk, KnnMetric::Euclidean, &policy));
    assert_eq!(got_one, expected_one);
    let device = cold.saturating_sub(warm);
    assert!(
        device > 0,
        "a cold device allocates ({cold} cold, {warm} warm)"
    );

    let expected_small = engine.distances(&query, small, KnnMetric::Euclidean, &policy);
    let expected_large = engine.distances(&query, large, KnnMetric::Euclidean, &policy);
    let (mut small_counts, mut large_counts) = (Vec::new(), Vec::new());
    for _ in 0..4 {
        let (got, count) =
            count_allocations(|| engine.distances(&query, small, KnnMetric::Euclidean, &policy));
        assert_eq!(
            got, expected_small,
            "256 candidates: a repeat moved a distance"
        );
        small_counts.push(count);
        let (got, count) =
            count_allocations(|| engine.distances(&query, large, KnnMetric::Euclidean, &policy));
        assert_eq!(
            got, expected_large,
            "512 candidates: a repeat moved a distance"
        );
        large_counts.push(count);
    }
    let pool = engine.pool_stats();
    assert_eq!(
        pool.chunks,
        5 * (4 + 8),
        "every call above ran through the pool"
    );

    // Each call builds one device per worker that ran a chunk: one or two, whichever the
    // thread timing gives.  So the four extra chunks may cost their result vectors plus, at
    // most, the second worker's device that a 256-candidate call happened not to build.
    let min_large = large_counts.iter().copied().min().unwrap_or_default();
    let max_small = small_counts.iter().copied().max().unwrap_or_default();
    let extra = min_large.saturating_sub(max_small);
    let bound = 4 * PER_CHUNK + device;
    assert!(
        extra <= bound,
        "8 chunks allocated {large_counts:?} times and 4 chunks {small_counts:?}: the extra \
         {extra} exceeds 4 chunks x {PER_CHUNK} plus one device ({device}); a device per chunk?"
    );
}
