//! Property-based tests of the fused multi-stream scheduler: for arbitrary random mixed
//! workloads — a closest-hit render stream, an any-hit shadow stream, a k-NN distance-scoring
//! stream and a batch of radius-query candidate collections — a **fused** run (all streams
//! merged into shared mixed-opcode bulk passes over one datapath) produces per-stream outputs,
//! per-stream statistics and per-kind `BeatMix` attribution identical to the same streams run
//! **sequentially**, and identical to the scalar **round-robin reference** mode
//! (`FusedScheduler::run_policy` under `ExecPolicy::scalar()`).  The tentpole bit-identity
//! guarantee of the fused scheduler, pinned one layer above `rtunit`'s single-stream property
//! tests.

use proptest::prelude::*;

use rayflex_core::{PipelineConfig, QueryKind, RayFlexDatapath};
use rayflex_geometry::{Ray, Sphere, Triangle, Vec3};
use rayflex_rtunit::{
    Bvh4, CollectStream, DistanceStream, ExecPolicy, FusedScheduler, KnnMetric, Scene,
    TraversalStream,
};

fn coordinate() -> impl Strategy<Value = f32> {
    -50.0f32..50.0
}

fn vec3() -> impl Strategy<Value = Vec3> {
    (coordinate(), coordinate(), coordinate()).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

fn triangle() -> impl Strategy<Value = Triangle> {
    (vec3(), vec3(), vec3())
        .prop_map(|(a, b, c)| Triangle::new(a, b, c))
        .prop_filter("non-degenerate", |t| t.area() > 1e-3)
}

fn scene() -> impl Strategy<Value = Vec<Triangle>> {
    prop::collection::vec(triangle(), 1..24)
}

/// Rays with random origins/directions and a mix of infinite and finite (shadow-style) extents.
fn ray() -> impl Strategy<Value = Ray> {
    (vec3(), vec3(), any::<bool>(), 1.0f32..120.0).prop_filter_map(
        "non-zero direction",
        |(origin, toward, finite, t_end)| {
            let dir = toward - origin;
            if dir.length_squared() <= 1e-6 {
                return None;
            }
            Some(if finite {
                Ray::with_extent(origin, dir, 1e-3, t_end)
            } else {
                Ray::new(origin, dir)
            })
        },
    )
}

fn vector(dim: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-8.0f32..8.0, dim..dim + 1)
}

fn points() -> impl Strategy<Value = Vec<Vec3>> {
    prop::collection::vec(vec3(), 1..40)
}

fn radius_queries() -> impl Strategy<Value = Vec<(Vec3, f32)>> {
    prop::collection::vec((vec3(), 1.0f32..25.0), 1..5)
}

/// The per-stream results of one mixed-workload run, whatever the scheduling discipline.
#[derive(Debug, PartialEq)]
struct MixedResults {
    closest: Vec<Option<rayflex_rtunit::TraversalHit>>,
    closest_stats: rayflex_rtunit::TraversalStats,
    shadow: Vec<Option<rayflex_rtunit::TraversalHit>>,
    shadow_stats: rayflex_rtunit::TraversalStats,
    distances: Vec<u32>,
    distance_beats: u64,
    candidates: Vec<Vec<usize>>,
    collect_beats: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Sequential,
    Fused,
    RoundRobinReference,
}

#[allow(clippy::too_many_arguments)]
fn run_mixed(
    mode: Mode,
    scene_bvh: &Bvh4,
    triangles: &[Triangle],
    closest_rays: &[Ray],
    shadow_rays: &[Ray],
    query_vector: &[f32],
    candidates: &[Vec<f32>],
    sphere_bvh: &Bvh4,
    queries: &[(Vec3, f32)],
) -> (MixedResults, RayFlexDatapath) {
    let mut datapath = RayFlexDatapath::new(PipelineConfig::extended_unified());
    let mut scheduler = FusedScheduler::new();
    let world = Scene::from_parts(scene_bvh.clone(), triangles.to_vec());
    let mut closest = TraversalStream::closest_hit(&world, closest_rays);
    let mut shadow = TraversalStream::any_hit(&world, shadow_rays);
    let mut distance = DistanceStream::new(query_vector, candidates, KnnMetric::Euclidean);
    let mut collect = CollectStream::new(sphere_bvh, queries);
    match mode {
        Mode::Sequential => {
            scheduler.run(&mut datapath, &mut [&mut closest]);
            scheduler.run(&mut datapath, &mut [&mut shadow]);
            scheduler.run(&mut datapath, &mut [&mut distance]);
            scheduler.run(&mut datapath, &mut [&mut collect]);
        }
        Mode::Fused => scheduler.run(
            &mut datapath,
            &mut [&mut closest, &mut shadow, &mut distance, &mut collect],
        ),
        Mode::RoundRobinReference => {
            scheduler.run_policy(
                &mut datapath,
                &mut [&mut closest, &mut shadow, &mut distance, &mut collect],
                &ExecPolicy::scalar(),
                0,
            );
        }
    }
    let (closest, closest_stats) = closest.finish();
    let (shadow, shadow_stats) = shadow.finish();
    let (distances, distance_stats) = distance.finish();
    let (candidates, collect_beats) = collect.finish();
    (
        MixedResults {
            closest,
            closest_stats,
            shadow,
            shadow_stats,
            distances: distances.iter().map(|d| d.to_bits()).collect(),
            distance_beats: distance_stats.beats,
            candidates,
            collect_beats,
        },
        datapath,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn a_fused_mixed_workload_is_bit_identical_to_sequential_scheduling(
        triangles in scene(),
        closest_rays in prop::collection::vec(ray(), 1..10),
        shadow_rays in prop::collection::vec(ray(), 1..10),
        candidates in prop::collection::vec(vector(19), 1..8),
        dataset in points(),
        queries in radius_queries(),
    ) {
        let scene_bvh = Bvh4::build(&triangles);
        let query_vector = candidates[0].clone();
        let spheres: Vec<Sphere> = dataset.iter().map(|&p| Sphere::new(p, 0.05)).collect();
        let sphere_bvh = Bvh4::build(&spheres);

        let (sequential, sequential_dp) = run_mixed(
            Mode::Sequential, &scene_bvh, &triangles, &closest_rays, &shadow_rays,
            &query_vector, &candidates, &sphere_bvh, &queries,
        );
        let (fused, fused_dp) = run_mixed(
            Mode::Fused, &scene_bvh, &triangles, &closest_rays, &shadow_rays,
            &query_vector, &candidates, &sphere_bvh, &queries,
        );

        // Per-stream outputs and statistics are bit-identical, stream by stream.
        prop_assert_eq!(&fused, &sequential);

        // The datapath agrees too: same total work, same per-kind × per-opcode attribution.
        prop_assert_eq!(fused_dp.executed_beats(), sequential_dp.executed_beats());
        for (kind, opcode, count) in sequential_dp.beat_mix().iter_kinds() {
            prop_assert_eq!(
                fused_dp.beat_mix().count_for(kind, opcode), count,
                "kind {} opcode {}", kind, opcode
            );
        }

        // The fused run really interleaved distinct kinds in shared bulk passes: with at least
        // two non-empty streams admitted, the first pass always mixes kinds.
        prop_assert!(fused_dp.beat_mix().fused_passes() > 0, "no pass mixed query kinds");
        prop_assert!(
            fused_dp.beat_mix().passes() <= sequential_dp.beat_mix().passes(),
            "pass sharing cannot increase the pass count"
        );
        prop_assert_eq!(
            fused_dp.beat_mix().kind_total(QueryKind::Distance),
            fused.distance_beats
        );
        prop_assert_eq!(
            fused_dp.beat_mix().kind_total(QueryKind::Collect),
            fused.collect_beats
        );
    }

    #[test]
    fn the_scalar_round_robin_reference_pins_the_fused_run(
        triangles in scene(),
        closest_rays in prop::collection::vec(ray(), 1..6),
        shadow_rays in prop::collection::vec(ray(), 1..6),
        candidates in prop::collection::vec(vector(9), 1..5),
        dataset in points(),
        queries in radius_queries(),
    ) {
        let scene_bvh = Bvh4::build(&triangles);
        let query_vector = candidates[0].clone();
        let spheres: Vec<Sphere> = dataset.iter().map(|&p| Sphere::new(p, 0.05)).collect();
        let sphere_bvh = Bvh4::build(&spheres);

        let (fused, fused_dp) = run_mixed(
            Mode::Fused, &scene_bvh, &triangles, &closest_rays, &shadow_rays,
            &query_vector, &candidates, &sphere_bvh, &queries,
        );
        let (reference, reference_dp) = run_mixed(
            Mode::RoundRobinReference, &scene_bvh, &triangles, &closest_rays, &shadow_rays,
            &query_vector, &candidates, &sphere_bvh, &queries,
        );

        // Bulk fused dispatch and beat-at-a-time round-robin execution agree bit for bit, per
        // stream and per attribution counter — only pass accounting differs (the reference
        // never dispatches a bulk pass).
        prop_assert_eq!(&fused, &reference);
        prop_assert_eq!(fused_dp.executed_beats(), reference_dp.executed_beats());
        for (kind, opcode, count) in fused_dp.beat_mix().iter_kinds() {
            prop_assert_eq!(
                reference_dp.beat_mix().count_for(kind, opcode), count,
                "kind {} opcode {}", kind, opcode
            );
        }
        prop_assert_eq!(reference_dp.beat_mix().passes(), 0);
    }
}
