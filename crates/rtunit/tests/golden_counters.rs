//! Golden counters: the exact deterministic counters of seeded closest-hit and any-hit traces,
//! pinned as constants.
//!
//! The cross-policy matrices prove that every execution mode agrees with the scalar reference;
//! they cannot notice a change that moves *every* mode the same way.  This file can: a BVH
//! storage change (node format, leaf encoding, triangle order) must leave the tree topology,
//! every beat and its order untouched, so every [`TraversalStats`] field, the datapath's box and
//! triangle beat counts, its lane slots and its pass count must equal the values recorded here —
//! and so must a digest of the hits, which pins reported primitive ids to the caller's order.
//!
//! The scenes are `icosphere(4)` (5 120 triangles, flat) and a 3 × 3 crowd of `icosphere(2)`
//! placements (two-level), traced by 512 divergent random rays under `ExecPolicy::scalar()` and
//! `ExecPolicy::wavefront().with_simd_lanes(16)`.  Under the `force-scalar` feature the lane
//! kernels never engage, so the lane-slot counter is expected to read zero there.
//!
//! The distance rows do the same for the extended datapath's distance path: seeded
//! `KnnEngine::distances` + `k_nearest` runs (Euclidean and cosine, 37-dimensional vectors, so
//! every candidate ends in a masked tail beat) and one `HierarchicalSearch::radius_queries`
//! batch, under the scalar, wavefront and fused policies.  A change to the request layout or to
//! how distance beats are emitted, grouped or accumulated must leave the `KnnStats`, the
//! per-opcode and per-kind beat counts, the passes, the (zero) lane slots and the bits of every
//! distance exactly where they were.

use rayflex_core::{clamp_simd_lanes, Opcode, PipelineConfig, QueryKind, RayFlexRequest};
use rayflex_geometry::{Aabb, Ray, Vec3};
use rayflex_rtunit::{
    Blas, ExecPolicy, HierarchicalSearch, HierarchicalStats, Instance, KnnEngine, KnnMetric,
    Neighbor, Scene, TraceRequest, TraversalEngine, TraversalHit,
};
use rayflex_workloads::{rays, scenes, vectors};

const SEED: u64 = 271_828;
const RAYS: usize = 512;

/// Every counter a golden row pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counters {
    box_ops: u64,
    triangle_ops: u64,
    nodes_visited: u64,
    leaves_visited: u64,
    rays: u64,
    tlas_box_ops: u64,
    instances_visited: u64,
    shard_fallbacks: u64,
    box_beats: u64,
    triangle_beats: u64,
    simd_lane_slots: u64,
    passes: u64,
    /// Order-sensitive digest of `(ray, primitive, t bits)` over every hit.
    hit_digest: u64,
}

fn digest(hits: &[Option<TraversalHit>]) -> u64 {
    hits.iter()
        .enumerate()
        .fold(0xcbf2_9ce4_8422_2325, |acc, (ray, hit)| {
            let word = hit.map_or(u64::MAX, |h| {
                ((h.primitive as u64) << 32) | u64::from(h.t.to_bits())
            });
            (acc ^ word ^ (ray as u64).rotate_left(17)).wrapping_mul(0x0100_0000_01b3)
        })
}

fn trace(scene: &Scene, rays: &[Ray], any_hit: bool, policy: &ExecPolicy) -> Counters {
    let mut engine = TraversalEngine::baseline();
    let request = if any_hit {
        TraceRequest::any_hit(scene, rays)
    } else {
        TraceRequest::closest_hit(scene, rays)
    };
    let output = engine.trace(&request, policy);
    let hits = if any_hit { output.any } else { output.closest };
    let stats = engine.stats();
    let mix = engine.beat_mix();
    Counters {
        box_ops: stats.box_ops,
        triangle_ops: stats.triangle_ops,
        nodes_visited: stats.nodes_visited,
        leaves_visited: stats.leaves_visited,
        rays: stats.rays,
        tlas_box_ops: stats.tlas_box_ops,
        instances_visited: stats.instances_visited,
        shard_fallbacks: stats.shard_fallbacks,
        box_beats: mix.count(Opcode::RayBox),
        triangle_beats: mix.count(Opcode::RayTriangle),
        simd_lane_slots: mix.simd_lane_slots(),
        passes: mix.passes(),
        hit_digest: digest(&hits),
    }
}

fn flat_scene() -> (Scene, Vec<Ray>) {
    let scene = Scene::flat(scenes::icosphere(4, 1.0, Vec3::ZERO));
    let bounds = Aabb::new(Vec3::splat(-1.5), Vec3::splat(1.5));
    (scene, rays::random_rays(SEED, RAYS, &bounds))
}

fn instanced_scene() -> (Scene, Vec<Ray>) {
    let desc = scenes::icosphere_crowd(2, 3, 3.0);
    let scene = Scene::instanced(
        desc.meshes.into_iter().map(Blas::new).collect(),
        desc.placements
            .iter()
            .map(|&(mesh, transform)| Instance::new(mesh, transform))
            .collect(),
    );
    let bounds = Aabb::new(Vec3::new(-4.5, -1.5, -4.5), Vec3::new(4.5, 1.5, 4.5));
    (scene, rays::random_rays(SEED, RAYS, &bounds))
}

fn policies() -> [(&'static str, ExecPolicy); 2] {
    [
        ("scalar", ExecPolicy::scalar()),
        ("wavefront16", ExecPolicy::wavefront().with_simd_lanes(16)),
    ]
}

fn check(scene_label: &str, scene: &Scene, rays: &[Ray], golden: &[(&str, Counters)]) {
    let mut index = 0;
    for any_hit in [false, true] {
        for (policy_label, policy) in policies() {
            let label = format!(
                "{scene_label}/{}/{policy_label}",
                if any_hit { "any" } else { "closest" }
            );
            let got = trace(scene, rays, any_hit, &policy);
            let (expected_label, mut expected) = golden[index];
            if clamp_simd_lanes(policy.simd_lanes) == 1 {
                // The `force-scalar` build never engages the lane kernels; every other counter
                // (passes included) is unchanged by that.
                expected.simd_lane_slots = 0;
            }
            assert_eq!(expected_label, label, "golden table out of order");
            assert_eq!(got, expected, "{label}: counters moved");
            index += 1;
        }
    }
    assert_eq!(index, golden.len());
}

#[test]
fn flat_icosphere_counters_match_the_golden_values() {
    let (scene, rays) = flat_scene();
    check("flat", &scene, &rays, &FLAT_GOLDEN);
}

#[test]
fn instanced_crowd_counters_match_the_golden_values() {
    let (scene, rays) = instanced_scene();
    check("instanced", &scene, &rays, &INSTANCED_GOLDEN);
}

/// Recorded from the node-per-leaf layout (160-byte enum nodes, `usize` index table) before
/// the compact layout replaced it.
const FLAT_GOLDEN: [(&str, Counters); 4] = [
    (
        "flat/closest/scalar",
        Counters {
            box_ops: 3510,
            triangle_ops: 1051,
            nodes_visited: 3510,
            leaves_visited: 766,
            rays: 512,
            tlas_box_ops: 0,
            instances_visited: 0,
            shard_fallbacks: 0,
            box_beats: 3510,
            triangle_beats: 1051,
            simd_lane_slots: 0,
            passes: 0,
            hit_digest: 2782331847142333647,
        },
    ),
    (
        "flat/closest/wavefront16",
        Counters {
            box_ops: 3510,
            triangle_ops: 1051,
            nodes_visited: 3510,
            leaves_visited: 766,
            rays: 512,
            tlas_box_ops: 0,
            instances_visited: 0,
            shard_fallbacks: 0,
            box_beats: 3510,
            triangle_beats: 1051,
            simd_lane_slots: 16736,
            passes: 48,
            hit_digest: 2782331847142333647,
        },
    ),
    (
        "flat/any/scalar",
        Counters {
            box_ops: 3213,
            triangle_ops: 869,
            nodes_visited: 3213,
            leaves_visited: 647,
            rays: 512,
            tlas_box_ops: 0,
            instances_visited: 0,
            shard_fallbacks: 0,
            box_beats: 3213,
            triangle_beats: 869,
            simd_lane_slots: 0,
            passes: 0,
            hit_digest: 2782331847142333647,
        },
    ),
    (
        "flat/any/wavefront16",
        Counters {
            box_ops: 3213,
            triangle_ops: 869,
            nodes_visited: 3213,
            leaves_visited: 647,
            rays: 512,
            tlas_box_ops: 0,
            instances_visited: 0,
            shard_fallbacks: 0,
            box_beats: 3213,
            triangle_beats: 869,
            simd_lane_slots: 15616,
            passes: 52,
            hit_digest: 2782331847142333647,
        },
    ),
];

/// Recorded alongside [`FLAT_GOLDEN`].
const INSTANCED_GOLDEN: [(&str, Counters); 4] = [
    (
        "instanced/closest/scalar",
        Counters {
            box_ops: 4393,
            triangle_ops: 1367,
            nodes_visited: 4393,
            leaves_visited: 994,
            rays: 512,
            tlas_box_ops: 512,
            instances_visited: 1225,
            shard_fallbacks: 0,
            box_beats: 4393,
            triangle_beats: 1367,
            simd_lane_slots: 0,
            passes: 0,
            hit_digest: 5090470854421313516,
        },
    ),
    (
        "instanced/closest/wavefront16",
        Counters {
            box_ops: 4393,
            triangle_ops: 1367,
            nodes_visited: 4393,
            leaves_visited: 994,
            rays: 512,
            tlas_box_ops: 512,
            instances_visited: 1225,
            shard_fallbacks: 0,
            box_beats: 4393,
            triangle_beats: 1367,
            simd_lane_slots: 20128,
            passes: 41,
            hit_digest: 5090470854421313516,
        },
    ),
    (
        "instanced/any/scalar",
        Counters {
            box_ops: 3695,
            triangle_ops: 1123,
            nodes_visited: 3695,
            leaves_visited: 836,
            rays: 512,
            tlas_box_ops: 512,
            instances_visited: 1068,
            shard_fallbacks: 0,
            box_beats: 3695,
            triangle_beats: 1123,
            simd_lane_slots: 0,
            passes: 0,
            hit_digest: 17682912454830074962,
        },
    ),
    (
        "instanced/any/wavefront16",
        Counters {
            box_ops: 3695,
            triangle_ops: 1123,
            nodes_visited: 3695,
            leaves_visited: 836,
            rays: 512,
            tlas_box_ops: 512,
            instances_visited: 1068,
            shard_fallbacks: 0,
            box_beats: 3695,
            triangle_beats: 1123,
            simd_lane_slots: 17200,
            passes: 45,
            hit_digest: 17682912454830074962,
        },
    ),
];

/// Every counter a golden distance row pins: the kNN statistics, the datapath's per-opcode and
/// per-kind distance beat counts, its pass and lane-slot counters, and a digest of the scored
/// distances and selected neighbours.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DistanceCounters {
    beats: u64,
    candidates: u64,
    euclidean_beats: u64,
    cosine_beats: u64,
    distance_kind_beats: u64,
    simd_lane_slots: u64,
    passes: u64,
    /// Order-sensitive digest of every scored distance's bits and every selected neighbour.
    digest: u64,
}

const DISTANCE_DIM: usize = 37;
const DISTANCE_CANDIDATES: usize = 300;
const DISTANCE_QUERIES: usize = 4;
const DISTANCE_K: usize = 8;

fn fold_digest(acc: u64, word: u64) -> u64 {
    (acc ^ word).wrapping_mul(0x0100_0000_01b3).rotate_left(7)
}

fn neighbours_digest(acc: u64, neighbours: &[Neighbor]) -> u64 {
    neighbours.iter().fold(acc, |acc, n| {
        fold_digest(
            acc,
            ((n.index as u64) << 32) | u64::from(n.distance.to_bits()),
        )
    })
}

/// Seeded `k_nearest` runs of one metric under one policy, on a fresh engine: every query
/// scores the whole dataset through `distances` and then selects its top-k through `k_nearest`.
fn knn_counters(metric: KnnMetric, policy: &ExecPolicy) -> DistanceCounters {
    let dataset = vectors::clustered_dataset(SEED, DISTANCE_CANDIDATES, DISTANCE_DIM, 6, 4.0);
    let queries = vectors::queries_near_dataset(SEED + 1, &dataset, DISTANCE_QUERIES, 2.0);
    let mut engine = KnnEngine::new();
    let mut digest = 0xcbf2_9ce4_8422_2325;
    for query in &queries {
        let distances = engine.distances(query, &dataset.vectors, metric, policy);
        digest = distances
            .iter()
            .fold(digest, |acc, d| fold_digest(acc, u64::from(d.to_bits())));
        let neighbours = engine.k_nearest(query, &dataset.vectors, DISTANCE_K, metric, policy);
        digest = neighbours_digest(digest, &neighbours);
    }
    let stats = engine.stats();
    let mix = engine.beat_mix();
    DistanceCounters {
        beats: stats.beats,
        candidates: stats.candidates,
        euclidean_beats: mix.count(Opcode::Euclidean),
        cosine_beats: mix.count(Opcode::Cosine),
        distance_kind_beats: mix.kind_total(QueryKind::Distance),
        simd_lane_slots: mix.simd_lane_slots(),
        passes: mix.passes(),
        digest,
    }
}

fn distance_policies() -> [(&'static str, ExecPolicy); 3] {
    [
        ("scalar", ExecPolicy::scalar()),
        ("wavefront16", ExecPolicy::wavefront().with_simd_lanes(16)),
        ("fused16", ExecPolicy::fused().with_simd_lanes(16)),
    ]
}

#[test]
fn knn_distance_counters_match_the_golden_values() {
    let mut index = 0;
    for (metric_label, metric) in [
        ("euclidean", KnnMetric::Euclidean),
        ("cosine", KnnMetric::Cosine),
    ] {
        for (policy_label, policy) in distance_policies() {
            let label = format!("{metric_label}/{policy_label}");
            let got = knn_counters(metric, &policy);
            let (expected_label, expected) = KNN_GOLDEN[index];
            assert_eq!(expected_label, label, "golden table out of order");
            assert_eq!(got, expected, "{label}: counters moved");
            index += 1;
        }
    }
    assert_eq!(index, KNN_GOLDEN.len());
}

#[test]
fn radius_query_counters_match_the_golden_values() {
    let bounds = Aabb::new(Vec3::splat(-4.0), Vec3::splat(4.0));
    let points: Vec<Vec3> = rays::random_rays(SEED, 600, &bounds)
        .iter()
        .map(|ray| ray.origin)
        .collect();
    let queries: Vec<(Vec3, f32)> = points
        .iter()
        .step_by(75)
        .enumerate()
        .map(|(i, &p)| (p + Vec3::splat(0.1), 0.6 + 0.2 * i as f32))
        .collect();
    let mut index = 0;
    for (policy_label, policy) in distance_policies() {
        let mut search =
            HierarchicalSearch::build(points.clone(), 0.01, PipelineConfig::extended_unified());
        let results = search.radius_queries(&queries, &policy);
        let digest = results.iter().fold(0xcbf2_9ce4_8422_2325, |acc, list| {
            neighbours_digest(acc, list)
        });
        let got = (search.stats(), digest);
        let (expected_label, expected) = RADIUS_GOLDEN[index];
        assert_eq!(expected_label, policy_label, "golden table out of order");
        assert_eq!(got, expected, "{policy_label}: radius counters moved");
        index += 1;
    }
    assert_eq!(index, RADIUS_GOLDEN.len());
}

#[test]
fn a_request_beat_fits_in_176_bytes() {
    assert!(
        std::mem::size_of::<RayFlexRequest>() <= 176,
        "RayFlexRequest grew to {} bytes",
        std::mem::size_of::<RayFlexRequest>()
    );
}

/// Recorded from the boxed-vector request layout with per-beat distance dispatch, before the
/// operand union and the distance-run kernel replaced them.  Distance beats never charge lane
/// slots, so `simd_lane_slots` reads zero in every row (and under `force-scalar`).
const KNN_GOLDEN: [(&str, DistanceCounters); 6] = [
    (
        "euclidean/scalar",
        DistanceCounters {
            beats: 7200,
            candidates: 2400,
            euclidean_beats: 7200,
            cosine_beats: 0,
            distance_kind_beats: 7200,
            simd_lane_slots: 0,
            passes: 0,
            digest: 9485871898385996214,
        },
    ),
    (
        "euclidean/wavefront16",
        DistanceCounters {
            beats: 7200,
            candidates: 2400,
            euclidean_beats: 7200,
            cosine_beats: 0,
            distance_kind_beats: 7200,
            simd_lane_slots: 0,
            passes: 8,
            digest: 9485871898385996214,
        },
    ),
    (
        "euclidean/fused16",
        DistanceCounters {
            beats: 7200,
            candidates: 2400,
            euclidean_beats: 7200,
            cosine_beats: 0,
            distance_kind_beats: 7200,
            simd_lane_slots: 0,
            passes: 8,
            digest: 9485871898385996214,
        },
    ),
    (
        "cosine/scalar",
        DistanceCounters {
            beats: 12000,
            candidates: 2400,
            euclidean_beats: 0,
            cosine_beats: 12000,
            distance_kind_beats: 12000,
            simd_lane_slots: 0,
            passes: 0,
            digest: 8566271400438914297,
        },
    ),
    (
        "cosine/wavefront16",
        DistanceCounters {
            beats: 12000,
            candidates: 2400,
            euclidean_beats: 0,
            cosine_beats: 12000,
            distance_kind_beats: 12000,
            simd_lane_slots: 0,
            passes: 8,
            digest: 8566271400438914297,
        },
    ),
    (
        "cosine/fused16",
        DistanceCounters {
            beats: 12000,
            candidates: 2400,
            euclidean_beats: 0,
            cosine_beats: 12000,
            distance_kind_beats: 12000,
            simd_lane_slots: 0,
            passes: 8,
            digest: 8566271400438914297,
        },
    ),
];

/// Recorded alongside [`KNN_GOLDEN`]: the radius batch's hierarchy-filter and scoring counters
/// and the digest of its neighbour lists, identical under every policy.
const RADIUS_GOLDEN: [(&str, (HierarchicalStats, u64)); 3] = [
    (
        "scalar",
        (
            HierarchicalStats {
                box_beats: 115,
                euclidean_beats: 362,
                candidates_scored: 362,
                dataset_size: 600,
            },
            16817826642025643287,
        ),
    ),
    (
        "wavefront16",
        (
            HierarchicalStats {
                box_beats: 115,
                euclidean_beats: 362,
                candidates_scored: 362,
                dataset_size: 600,
            },
            16817826642025643287,
        ),
    ),
    (
        "fused16",
        (
            HierarchicalStats {
                box_beats: 115,
                euclidean_beats: 362,
                candidates_scored: 362,
                dataset_size: 600,
            },
            16817826642025643287,
        ),
    ),
];
