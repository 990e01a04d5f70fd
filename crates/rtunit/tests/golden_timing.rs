//! Golden timing: the exact [`RtUnitStats`] of the RT-unit timing model on two seeded flat
//! closest-hit workloads under four timing configurations, pinned as constants.
//!
//! The constants were recorded from the earlier `RtUnit`, which walked the BVH with its own
//! state machine and private datapath.  [`RtUnitConfig::estimate`] instead observes each ray's
//! beats through the traversal engine, so these rows prove that the two derive the same
//! transaction sequence, cycle count and issue conflicts — and catch any later change to the
//! schedule or to the per-ray beat counts it consumes.
//!
//! The scenes are an `icosphere(3)` seen by a 20 × 20 pinhole camera and an `icosphere(4)`
//! crossed by 1 000 random rays; a last row pins the empty scene, whose rays issue no beat but
//! still cost one transaction each.

use rayflex_geometry::{Aabb, Ray, Vec3};
use rayflex_rtunit::{Camera, RtUnitConfig, RtUnitStats, Scene, TraceRequest};
use rayflex_workloads::{rays, scenes};

/// The timing configurations every golden row is measured under, in table order.
fn configs() -> [RtUnitConfig; 4] {
    [
        RtUnitConfig::default(),
        RtUnitConfig {
            datapath_latency: 2,
            ..RtUnitConfig::default()
        },
        RtUnitConfig {
            max_rays_in_flight: 1,
            ..RtUnitConfig::default()
        },
        RtUnitConfig {
            max_rays_in_flight: 64,
            node_fetch_latency: 3,
            ..RtUnitConfig::default()
        },
    ]
}

fn stats(
    cycles: u64,
    box_ops: u64,
    triangle_ops: u64,
    issue_conflicts: u64,
    rays: u64,
) -> RtUnitStats {
    RtUnitStats {
        cycles,
        box_ops,
        triangle_ops,
        issue_conflicts,
        rays,
    }
}

fn check(label: &str, scene: &Scene, rays: &[Ray], golden: [RtUnitStats; 4]) {
    let request = TraceRequest::closest_hit(scene, rays);
    for (config, expected) in configs().into_iter().zip(golden) {
        assert_eq!(config.estimate(&request), expected, "{label}: {config:?}");
    }
}

#[test]
fn camera_icosphere_timing_matches_the_golden_values() {
    let scene = Scene::flat(scenes::icosphere(3, 3.0, Vec3::new(0.0, 0.0, 12.0)));
    let rays = Camera::looking_at(Vec3::ZERO, Vec3::new(0.0, 0.0, 12.0)).primary_rays(20, 20);
    check(
        "camera",
        &scene,
        &rays,
        [
            stats(2346, 1534, 529, 2005, 400),
            stats(2247, 1534, 529, 2007, 400),
            stats(63953, 1534, 529, 0, 400),
            stats(2169, 1534, 529, 1970, 400),
        ],
    );
}

#[test]
fn random_ray_icosphere_timing_matches_the_golden_values() {
    let scene = Scene::flat(scenes::icosphere(4, 3.0, Vec3::ZERO));
    let bounds = Aabb::new(Vec3::splat(-4.0), Vec3::splat(4.0));
    let rays = rays::random_rays(7, 1000, &bounds);
    check(
        "random",
        &scene,
        &rays,
        [
            stats(9631, 7163, 2021, 8892, 1000),
            stats(9431, 7163, 2021, 9013, 1000),
            stats(284704, 7163, 2021, 0, 1000),
            stats(9258, 7163, 2021, 9122, 1000),
        ],
    );
}

#[test]
fn empty_scene_rays_cost_one_transaction_each() {
    let scene = Scene::flat(Vec::new());
    let bounds = Aabb::new(Vec3::splat(-4.0), Vec3::splat(4.0));
    let rays = rays::random_rays(7, 5, &bounds);
    let estimate = RtUnitConfig::default().estimate(&TraceRequest::closest_hit(&scene, &rays));
    assert_eq!(estimate, stats(35, 0, 0, 4, 5));
}
