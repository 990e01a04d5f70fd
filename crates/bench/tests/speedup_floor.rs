//! The batched-versus-scalar speedup floor: the repository's one wall-clock check.
//!
//! It traces `ExecPolicy::scalar()` (the softfloat stage emulation, one beat at a time, through
//! the same scheduler passes as the batched side) against
//! `ExecPolicy::wavefront().with_simd_lanes(16)` on three traversal scenes at 1024 rays.  Each
//! scene checks the hits once, outside the timed region, then times [`PAIRS`] interleaved
//! scalar/batched pairs, alternating which of the two runs first.  It prints each scene's median
//! ratio and interquartile range, and fails when the geometric mean of the three medians falls
//! below [`FLOOR`].  Per-scene medians alone are too noisy to gate.  Every deterministic counter
//! of these scenes is pinned exactly in `crates/rtunit/tests/golden_counters.rs`.
//!
//! Wall-clock timing needs an optimised build, so the test is ignored by default:
//!
//! ```text
//! cargo test --release -p rayflex-bench --test speedup_floor -- --ignored --nocapture
//! ```

use std::hint::black_box;
use std::time::Instant;

use rayflex_geometry::{Aabb, Ray, Triangle, Vec3};
use rayflex_rtunit::{ExecPolicy, Scene, TraceRequest, TraversalEngine};
use rayflex_workloads::{rays, scenes};

/// Rays per scene.
const RAYS: usize = 1024;

/// Interleaved scalar/batched pairs timed per scene.
const PAIRS: usize = 11;

/// The lowest passing geometric mean of the per-scene median speedups.
///
/// Calibrated on a 2-vCPU Intel Xeon VM (x86-64, shared with other tenants) after the bulk path
/// gained its fetch stage.  There, fifteen runs of unchanged code gave geomeans of 15.09–17.60,
/// and fifteen interleaved runs with the batched path made 25% slower (each batched trace
/// spinning a further third of its own time, so rays/s × 0.75) gave 11.34–13.39.  The floor
/// sits between the two bands; recalibrate on a host whose bands differ.  (Earlier
/// calibrations: before descriptors, 11.7–14.6 unchanged and 9.0–11.0 slowed, for a floor of
/// 11.4; with descriptors, 14.44–15.72 and 10.76–12.42, for 13.0.)
const FLOOR: f64 = 14.2;

fn traversal_scenes() -> [(&'static str, Vec<Triangle>, Vec<Ray>); 3] {
    let side = 32;
    let soup_bounds = Aabb::new(Vec3::splat(-30.0), Vec3::splat(30.0));
    [
        (
            "icosphere",
            scenes::icosphere(3, 5.0, Vec3::new(0.0, 0.0, 20.0)),
            rays::camera_grid(side, side, 12.0),
        ),
        (
            "quad_wall",
            scenes::quad_wall(24, 1.2, 15.0),
            rays::camera_grid(side, side, 24.0),
        ),
        (
            "triangle_soup",
            scenes::random_triangle_soup(2024, 600, 30.0),
            rays::random_rays(7, RAYS, &soup_bounds),
        ),
    ]
}

/// The `q` quantile of sorted `values`, interpolated linearly between neighbours.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let position = q * (sorted.len() - 1) as f64;
    let (low, high) = (position.floor() as usize, position.ceil() as usize);
    sorted[low] + (sorted[high] - sorted[low]) * (position - low as f64)
}

#[test]
#[ignore = "wall-clock check; run with `cargo test --release -- --ignored`"]
fn batched_traversal_clears_the_speedup_floor() {
    let scalar = ExecPolicy::scalar();
    let batched = ExecPolicy::wavefront().with_simd_lanes(16);
    let mut medians = Vec::new();
    for (name, triangles, rays) in traversal_scenes() {
        let scene = Scene::flat(triangles);
        let request = TraceRequest::closest_hit(&scene, &rays);
        let trace = |policy: &ExecPolicy| {
            TraversalEngine::baseline()
                .trace(&request, policy)
                .into_closest()
        };
        assert_eq!(trace(&scalar), trace(&batched), "{name}: hits diverged");

        let seconds = |policy: &ExecPolicy| {
            let start = Instant::now();
            black_box(trace(policy));
            start.elapsed().as_secs_f64()
        };
        let mut ratios: Vec<f64> = (0..PAIRS)
            .map(|pair| {
                let (scalar_s, batched_s) = if pair % 2 == 0 {
                    let scalar_s = seconds(&scalar);
                    (scalar_s, seconds(&batched))
                } else {
                    let batched_s = seconds(&batched);
                    (seconds(&scalar), batched_s)
                };
                scalar_s / batched_s
            })
            .collect();
        ratios.sort_by(f64::total_cmp);
        let (q1, median, q3) = (
            quantile(&ratios, 0.25),
            quantile(&ratios, 0.5),
            quantile(&ratios, 0.75),
        );
        println!(
            "{name}: median {median:.2}x, IQR {:.2} ({q1:.2}-{q3:.2}x) over {PAIRS} pairs",
            q3 - q1
        );
        medians.push(median);
    }
    let geomean = (medians.iter().map(|m| m.ln()).sum::<f64>() / medians.len() as f64).exp();
    println!("geomean of medians: {geomean:.2}x (floor {FLOOR:.1}x)");
    assert!(
        geomean >= FLOOR,
        "batched traversal is {geomean:.2}x scalar, below the {FLOOR:.1}x floor"
    );
}
