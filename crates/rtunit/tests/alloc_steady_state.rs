//! The zero-alloc steady-state contract of the wavefront hot path, verified by a counting
//! global allocator: after one warm-up trace has sized the engine's pooled buffers (pass
//! request/response buffers, the admission permutation and its sort keys, the per-ray operand
//! buffer, the pooled per-ray state roster), every further trace of a same-shape workload
//! performs **no allocation inside the pass loop** — the only heap traffic left is the hit
//! vector each call returns to the caller.  The scalar reference, which runs the same pass
//! loop, is pinned to the same count.
//!
//! This file deliberately holds a single `#[test]` (plus the allocator plumbing): the counting
//! allocator tallies process-wide, so a sibling test running on another harness thread would
//! pollute the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use rayflex_geometry::{Ray, Triangle, Vec3};
use rayflex_rtunit::{CoherenceMode, ExecPolicy, Scene, TraceRequest, TraversalEngine};

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

fn wall(count: usize) -> Vec<Triangle> {
    (0..count)
        .map(|i| {
            let x = (i % 8) as f32 * 2.0 - 8.0;
            let y = (i / 8) as f32 * 2.0 - 6.0;
            let z = 10.0 + (i % 5) as f32;
            Triangle::new(
                Vec3::new(x, y, z),
                Vec3::new(x + 1.8, y, z),
                Vec3::new(x + 0.9, y + 1.8, z),
            )
        })
        .collect()
}

fn camera_rays(count: usize) -> Vec<Ray> {
    (0..count)
        .map(|i| {
            let x = (i % 16) as f32 * 0.8 - 6.4;
            let y = (i / 16) as f32 * 0.8 - 6.4;
            // Alternate direction signs so the octant sorter has real work to do.
            let flip = if i % 2 == 0 { 1.0 } else { -1.0 };
            Ray::new(
                Vec3::new(x, y * flip, 0.0),
                Vec3::new(0.01 * flip, -0.02, 1.0),
            )
        })
        .collect()
}

#[test]
fn a_warm_wavefront_trace_allocates_only_its_output_vector() {
    let scene = Scene::flat(wall(48));
    let rays = camera_rays(96);
    let request = TraceRequest::closest_hit(&scene, &rays);

    for coherence in CoherenceMode::ALL {
        let policy = ExecPolicy::wavefront()
            .with_simd_lanes(8)
            .with_coherence(coherence);
        let mut engine = TraversalEngine::baseline();
        // Two warm-ups: the first sizes the scheduler's pass arena (request/response/owner
        // buffers, admission permutation, sort keys), the operand pool and the per-ray state
        // roster; the second settles the pooled per-ray stacks into their steady pool ordering
        // (states return to the pool in retirement order, which is fixed from here on, so each
        // state's capacity now fits the item it will serve on every later run).
        let expected = engine.trace(&request, &policy);
        let second = engine.trace(&request, &policy);
        assert_eq!(second, expected, "{coherence:?}: warm run changed the hits");

        // Exactly one allocation: the `Vec<Option<TraversalHit>>` collected for the caller
        // (exact-size iterator).  Everything inside the pass loop — requests, responses, owner
        // maps, sort keys, the admission permutation, per-ray stacks — is recycled.
        let (third, steady) = count_allocations(|| engine.trace(&request, &policy));
        assert_eq!(
            third, expected,
            "{coherence:?}: steady run changed the hits"
        );
        assert_eq!(
            steady, 1,
            "{coherence:?}: a steady-state wavefront trace allocated {steady} times; \
             the pass arena must be fully recycled"
        );

        // Steady state is steady: the next run costs exactly the same.
        let (fourth, still) = count_allocations(|| engine.trace(&request, &policy));
        assert_eq!(
            fourth, expected,
            "{coherence:?}: steady run changed the hits"
        );
        assert_eq!(
            still, 1,
            "{coherence:?}: allocation count must not grow across steady runs"
        );
    }

    // The scalar reference runs the same pass loop, executing each beat alone on the emulated
    // path a response window at a time, so a warm scalar trace recycles the same buffers.
    let policy = ExecPolicy::scalar();
    let mut engine = TraversalEngine::baseline();
    let expected = engine.trace(&request, &policy);
    let _ = engine.trace(&request, &policy);
    let (warm, steady) = count_allocations(|| engine.trace(&request, &policy));
    assert_eq!(warm, expected, "scalar: steady run changed the hits");
    assert_eq!(
        steady, 1,
        "a steady-state scalar trace allocated {steady} times"
    );
}
