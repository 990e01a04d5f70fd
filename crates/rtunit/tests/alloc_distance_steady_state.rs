//! The zero-alloc contract of the distance path, verified by a counting global allocator:
//! a distance beat is a 16-byte descriptor naming its candidate and chunk (the kernel reads
//! both vectors in place, from the query and the caller's dataset), so a warm scoring run
//! allocates a small constant — its output vectors — however many beats it issues.
//!
//! This file deliberately holds a single `#[test]` (plus the allocator plumbing): the counting
//! allocator tallies process-wide, so a sibling test running on another harness thread would
//! pollute the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use rayflex_core::{PipelineConfig, RayFlexDatapath};
use rayflex_rtunit::{
    DistanceStream, ExecPolicy, FusedScheduler, FusedStream, KnnEngine, KnnMetric, KnnStats,
};

/// [`System`] with an on/off allocation counter: `alloc`/`realloc` calls are tallied while
/// armed, `dealloc` is not (returning pooled buffers is free; what the contract bounds is new
/// heap traffic).
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

/// Runs `f` with the counter armed and returns how many allocations it performed.
fn count_allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCATIONS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let value = f();
    ARMED.store(false, Ordering::SeqCst);
    (value, ALLOCATIONS.load(Ordering::SeqCst))
}

/// Forty dimensions: two full sixteen-lane Euclidean beats plus a masked tail beat per
/// candidate (five cosine beats), so both the exact-chunk and the padded emission paths run.
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

/// One fused scoring run of a fresh [`DistanceStream`] through a warm scheduler and datapath.
fn fused_scoring(
    scheduler: &mut FusedScheduler,
    datapath: &mut RayFlexDatapath,
    query: &[f32],
    candidates: &[Vec<f32>],
) -> (Vec<f32>, KnnStats) {
    let mut stream = DistanceStream::new(query, candidates, KnnMetric::Euclidean);
    scheduler.run(datapath, &mut [&mut stream as &mut dyn FusedStream]);
    stream.finish()
}

#[test]
fn warm_distance_runs_allocate_a_constant_independent_of_the_beat_count() {
    let query = vectors(1, 5).remove(0);
    let policy = ExecPolicy::wavefront().with_simd_lanes(16);

    // `KnnEngine::distances`: two warm-ups size the scheduler's pass arena and state pool;
    // after that a call costs the same handful of allocations at 256 and at 1024 candidates
    // (the boxed-vector request layout cost one allocation per beat here).
    let mut engine_counts = Vec::new();
    for metric in [KnnMetric::Euclidean, KnnMetric::Cosine] {
        for count in [256, 1024] {
            let candidates = vectors(count, 11);
            let mut engine = KnnEngine::new();
            let expected = engine.distances(&query, &candidates, metric, &policy);
            let second = engine.distances(&query, &candidates, metric, &policy);
            assert_eq!(
                second, expected,
                "{metric:?}/{count}: warm run moved a distance"
            );
            let (third, steady) =
                count_allocations(|| engine.distances(&query, &candidates, metric, &policy));
            assert_eq!(
                third, expected,
                "{metric:?}/{count}: steady run moved a distance"
            );
            engine_counts.push((metric, count, steady));
        }
    }
    let (_, _, first) = engine_counts[0];
    for &(metric, count, steady) in &engine_counts {
        assert_eq!(
            steady, first,
            "{metric:?}/{count}: a warm distances call allocated {steady} times, not the \
             constant {first}; allocations must not scale with the beat count"
        );
    }
    // The returned distance vector and the scheduler's per-chunk output vector.
    assert!(
        first <= 2,
        "a warm distances call allocated {first} times; only its outputs may allocate"
    );

    // A fused `DistanceStream` run plus `finish`: the stream is new each time (its per-item
    // state is its own), but the scheduler and datapath are warm, so the count depends on the
    // stream's shape only — not on how many beats it issues.
    let mut scheduler = FusedScheduler::new();
    let mut datapath = RayFlexDatapath::new(PipelineConfig::extended_unified());
    datapath.set_simd_lanes(16);
    let mut fused_counts = Vec::new();
    for count in [64, 512] {
        let candidates = vectors(count, 3);
        let expected = fused_scoring(&mut scheduler, &mut datapath, &query, &candidates);
        let _ = fused_scoring(&mut scheduler, &mut datapath, &query, &candidates);
        let (got, steady) =
            count_allocations(|| fused_scoring(&mut scheduler, &mut datapath, &query, &candidates));
        assert_eq!(
            got.0, expected.0,
            "{count}: a warm fused run moved a distance"
        );
        assert_eq!(
            got.1, expected.1,
            "{count}: a warm fused run moved the stats"
        );
        fused_counts.push(steady);
    }
    assert_eq!(
        fused_counts[0], fused_counts[1],
        "a warm fused distance run must allocate the same at 64 and at 512 candidates"
    );
    // The fresh stream's per-item buffers (admission order, its inverse, states, active list,
    // pass spans) and the distance vector `finish` returns.
    assert!(
        fused_counts[0] <= 6,
        "a warm fused distance run allocated {} times",
        fused_counts[0]
    );
}
