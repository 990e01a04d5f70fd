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
//!
//! The baseline rows pin the deterministic figures of the retired wall-clock suites at their
//! size of 4096 items: per-scene beats and lane accounting of `icosphere`, `quad_wall` and
//! `triangle_soup` at SIMD-16 with coherence off and with `SortAndCompact`, the instancing
//! presets' memory, the fused mixed workload's per-kind × per-opcode beat mix, passes and
//! beat-budget sweep, and the rays, beats and lanes of each render-pass configuration and
//! query-engine stream.  Lane occupancy is pinned as the exact pair `(lanes_busy, lane_slots)`.

use rayflex_core::{
    clamp_simd_lanes, BeatMix, Opcode, PipelineConfig, QueryKind, RayFlexDatapath, RayFlexRequest,
};
use rayflex_geometry::{Aabb, Ray, Sphere, Triangle, Vec3};
use rayflex_rtunit::{
    Blas, Bvh4, Camera, CoherenceMode, CollectStream, DistanceStream, ExecPolicy, FrameDesc,
    FusedScheduler, HierarchicalSearch, HierarchicalStats, Instance, KnnEngine, KnnMetric,
    Neighbor, RenderPasses, Renderer, Scene, TraceRequest, TraversalEngine, TraversalHit,
    TraversalStream,
};
use rayflex_workloads::{mixed, rays, scenes, vectors};

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

fn instanced(desc: scenes::InstancedSceneDesc) -> Scene {
    Scene::instanced(
        desc.meshes.into_iter().map(Blas::new).collect(),
        desc.placements
            .iter()
            .map(|&(mesh, transform)| Instance::new(mesh, transform))
            .collect(),
    )
}

fn instanced_scene() -> (Scene, Vec<Ray>) {
    let scene = instanced(scenes::icosphere_crowd(2, 3, 3.0));
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

/// Items per stream of the baseline rows below: rays per traversal scene, pixels per frame,
/// candidates per k-NN run and rays per mixed-workload stream.
const ITEMS: usize = 4096;

/// Lane accounting of a lane-batched run as the exact integers `(lanes_busy, lane_slots)`; the
/// lane occupancy is their quotient.  Both read zero under `force-scalar`.
type Lanes = (u64, u64);

fn lanes(mix: &BeatMix) -> Lanes {
    (mix.simd_lanes_busy(), mix.simd_lane_slots())
}

/// The golden lane pair as this build reports it: zero when `force-scalar` keeps the lane
/// kernels from engaging.
fn expected_lanes(pinned: Lanes) -> Lanes {
    if clamp_simd_lanes(16) == 1 {
        (0, 0)
    } else {
        pinned
    }
}

fn simd16(coherence: CoherenceMode) -> ExecPolicy {
    ExecPolicy::wavefront()
        .with_simd_lanes(16)
        .with_coherence(coherence)
}

/// One traversal scene of the baseline rows, traced closest-hit by [`ITEMS`] rays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SceneRow {
    triangles: u64,
    rays: u64,
    beats: u64,
    /// SIMD-16 under `CoherenceMode::Off`.
    simd: Lanes,
    /// SIMD-16 under `CoherenceMode::SortAndCompact`.
    coherent: Lanes,
    /// `(workers, chunks)` of `ExecPolicy::parallel(2)`; steals depend on thread timing and are
    /// not pinned.
    pool: (u64, u64),
}

fn baseline_scenes() -> [(&'static str, Vec<Triangle>, Vec<Ray>); 3] {
    let side = 64;
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
            rays::random_rays(7, ITEMS, &soup_bounds),
        ),
    ]
}

#[test]
fn baseline_scene_counters_match_the_golden_values() {
    let got: Vec<(&str, SceneRow)> = baseline_scenes()
        .into_iter()
        .map(|(name, triangles, rays)| {
            let scene = Scene::flat(triangles);
            let request = TraceRequest::closest_hit(&scene, &rays);
            let run = |policy: &ExecPolicy| {
                let mut engine = TraversalEngine::baseline();
                let _ = engine.trace(&request, policy);
                engine
            };
            let simd = run(&simd16(CoherenceMode::Off));
            let coherent = run(&simd16(CoherenceMode::SortAndCompact));
            let parallel = run(&ExecPolicy::parallel(2)
                .with_simd_lanes(16)
                .with_coherence(CoherenceMode::Off));
            assert_eq!(coherent.stats(), simd.stats(), "{name}: coherent stats");
            assert_eq!(parallel.stats(), simd.stats(), "{name}: parallel stats");
            let pool = parallel.pool_stats();
            let row = SceneRow {
                triangles: scene.triangle_count() as u64,
                rays: simd.stats().rays,
                beats: simd.stats().total_ops(),
                simd: lanes(&simd.beat_mix()),
                coherent: lanes(&coherent.beat_mix()),
                pool: (pool.workers, pool.chunks),
            };
            (name, row)
        })
        .collect();
    let expected: Vec<(&str, SceneRow)> = SCENE_GOLDEN
        .iter()
        .map(|&(name, row)| {
            let simd = expected_lanes(row.simd);
            let coherent = expected_lanes(row.coherent);
            (
                name,
                SceneRow {
                    simd,
                    coherent,
                    ..row
                },
            )
        })
        .collect();
    assert_eq!(got, expected, "baseline scene counters moved");
}

/// Recorded from the legacy simulator-baseline suite's scenes at 4096 rays, before that suite
/// was retired.  The lane slots of this table and of [`FRAME_GOLDEN`] and [`QUERY_GOLDEN`] were
/// re-recorded when the wavefront stopped dispatching each pass in 1024-beat tiles: a whole
/// pass splits fewer same-opcode lane runs, so only `lane_slots` fell.
const SCENE_GOLDEN: [(&str, SceneRow); 3] = [
    (
        "icosphere",
        SceneRow {
            triangles: 1280,
            rays: 4096,
            beats: 52591,
            simd: (165_424, 308_368),
            coherent: (165_424, 166_608),
            pool: (2, 8),
        },
    ),
    (
        "quad_wall",
        SceneRow {
            triangles: 1152,
            rays: 4096,
            beats: 33671,
            simd: (89_969, 105_920),
            coherent: (89_969, 90_208),
            pool: (2, 8),
        },
    ),
    (
        "triangle_soup",
        SceneRow {
            triangles: 600,
            rays: 4096,
            beats: 1_020_937,
            simd: (1_678_687, 7_026_048),
            coherent: (1_678_687, 1_688_048),
            pool: (2, 8),
        },
    ),
];

/// Size of a two-level preset and of its flattened twin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct InstancingRow {
    instances: u64,
    placed_triangles: u64,
    instanced_bytes: u64,
    flattened_bytes: u64,
}

#[test]
fn instancing_memory_matches_the_golden_values() {
    let got: Vec<(&str, InstancingRow)> = [
        ("debris_field", scenes::debris_field(29, 4, 96, 30.0)),
        ("icosphere_crowd", scenes::icosphere_crowd(1, 6, 9.0)),
    ]
    .into_iter()
    .map(|(name, desc)| {
        let flattened = Scene::flat(desc.flatten());
        let instanced = instanced(desc);
        let row = InstancingRow {
            instances: instanced.instances().len() as u64,
            placed_triangles: instanced.triangle_count() as u64,
            instanced_bytes: instanced.memory_bytes() as u64,
            flattened_bytes: flattened.memory_bytes() as u64,
        };
        (name, row)
    })
    .collect();
    assert_eq!(got, INSTANCING_GOLDEN, "instancing sizes moved");
}

/// Recorded alongside [`SCENE_GOLDEN`].
const INSTANCING_GOLDEN: [(&str, InstancingRow); 2] = [
    (
        "debris_field",
        InstancingRow {
            instances: 96,
            placed_triangles: 1152,
            instanced_bytes: 11_840,
            flattened_bytes: 77_952,
        },
    ),
    (
        "icosphere_crowd",
        InstancingRow {
            instances: 36,
            placed_triangles: 2880,
            instanced_bytes: 9296,
            flattened_bytes: 170_368,
        },
    ),
];

/// The mixed workload (closest-hit, any-hit, k-NN distance and radius-collect streams) fused
/// over one extended datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FusedRow {
    /// Primary rays, shadow rays, candidate vectors and radius queries.
    workload: [u64; 4],
    /// Bulk passes of the width-1 fused run, and those mixing at least two query kinds.
    passes: u64,
    fused_passes: u64,
    /// Beats of the width-1 fused run per kind ([`QueryKind::ALL`] order) × opcode
    /// ([`Opcode::ALL`] order).
    mix: [[u64; 4]; 4],
    /// The fused run at SIMD-16 under `CoherenceMode::Off`.
    simd: Lanes,
    /// The fused run at SIMD-16 under `CoherenceMode::SortAndCompact`.
    coherent: Lanes,
}

/// Runs the mixed workload's four streams fused through one scheduler and returns the
/// datapath's beat mix and the passes each stream contributed a beat to.
fn run_mixed(
    workload: &mixed::MixedWorkload,
    world: &Scene,
    sphere_bvh: &Bvh4,
    beat_budget_per_stream: usize,
    simd_lanes: usize,
    coherence: CoherenceMode,
) -> (BeatMix, [u64; 4]) {
    let mut datapath = RayFlexDatapath::new(PipelineConfig::extended_unified());
    datapath.set_simd_lanes(simd_lanes);
    let mut scheduler = FusedScheduler::new();
    let mut closest =
        TraversalStream::closest_hit(world, &workload.primary_rays).with_coherence(coherence);
    let mut shadow =
        TraversalStream::any_hit(world, &workload.shadow_rays).with_coherence(coherence);
    let mut distance = DistanceStream::new(
        &workload.query_vector,
        &workload.candidates,
        KnnMetric::Euclidean,
    );
    let mut collect = CollectStream::new(sphere_bvh, &workload.radius_queries);
    scheduler.run_policy(
        &mut datapath,
        &mut [&mut closest, &mut shadow, &mut distance, &mut collect],
        &ExecPolicy::fused().with_beat_budget(beat_budget_per_stream),
        0,
    );
    let mut stream_passes = [0; 4];
    stream_passes.copy_from_slice(scheduler.last_run_stream_passes());
    (datapath.beat_mix(), stream_passes)
}

#[test]
fn fused_mix_counters_match_the_golden_values() {
    let workload = mixed::mixed_workload(2024, ITEMS);
    let world = Scene::flat(workload.triangles.clone());
    let spheres: Vec<Sphere> = workload
        .points
        .iter()
        .map(|&p| Sphere::new(p, workload.point_radius))
        .collect();
    let sphere_bvh = Bvh4::build(&spheres);
    let run = |budget, simd_lanes, coherence| {
        run_mixed(
            &workload,
            &world,
            &sphere_bvh,
            budget,
            simd_lanes,
            coherence,
        )
    };

    let (mix, _) = run(0, 1, CoherenceMode::Off);
    let (simd, _) = run(0, 16, CoherenceMode::Off);
    let (coherent, _) = run(0, 16, CoherenceMode::SortAndCompact);
    let got = FusedRow {
        workload: [
            workload.primary_rays.len() as u64,
            workload.shadow_rays.len() as u64,
            workload.candidates.len() as u64,
            workload.radius_queries.len() as u64,
        ],
        passes: mix.passes(),
        fused_passes: mix.fused_passes(),
        mix: QueryKind::ALL.map(|kind| Opcode::ALL.map(|opcode| mix.count_for(kind, opcode))),
        simd: lanes(&simd),
        coherent: lanes(&coherent),
    };
    let expected = FusedRow {
        simd: expected_lanes(FUSED_GOLDEN.simd),
        coherent: expected_lanes(FUSED_GOLDEN.coherent),
        ..FUSED_GOLDEN
    };
    assert_eq!(got, expected, "fused mix counters moved");

    // The beat-budget fairness sweep: per-stream admission budgets reshape the passes only.
    let sweep: Vec<(usize, u64, [u64; 4])> = [0, 1, 4]
        .into_iter()
        .map(|budget| {
            let (mix, stream_passes) = run(budget, 1, CoherenceMode::Off);
            (budget, mix.passes(), stream_passes)
        })
        .collect();
    assert_eq!(sweep, BUDGET_GOLDEN, "budget sweep passes moved");
}

/// Recorded alongside [`SCENE_GOLDEN`] from the legacy fused suite.
const FUSED_GOLDEN: FusedRow = FusedRow {
    workload: [4096, 4096, 4096, 128],
    passes: 310,
    fused_passes: 35,
    mix: [
        [9865, 2482, 0, 0],
        [32_828, 8666, 0, 0],
        [0, 0, 8192, 0],
        [12_190, 0, 0, 0],
    ],
    simd: (230_680, 335_536),
    coherent: (230_680, 234_384),
};

/// `(beat budget per stream, passes, passes per closest/shadow/distance/collect stream)`;
/// budget 0 is unlimited and budget 1 strict round-robin.
const BUDGET_GOLDEN: [(usize, u64, [u64; 4]); 3] = [
    (0, 310, [30, 35, 1, 310]),
    (1, 41_494, [12_174, 41_494, 4096, 12_190]),
    (4, 10_374, [3089, 10_374, 2048, 3174]),
];

/// One frame or query stream at SIMD-16 (default coherence): its items (pixels, rays or
/// candidates), the rays it traced, its beats and its lane accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StreamRow {
    items: u64,
    rays: u64,
    beats: u64,
    simd: Lanes,
}

fn expected_streams(golden: &[(&'static str, StreamRow)]) -> Vec<(&'static str, StreamRow)> {
    golden
        .iter()
        .map(|&(name, row)| {
            let simd = expected_lanes(row.simd);
            (name, StreamRow { simd, ..row })
        })
        .collect()
}

#[test]
fn render_pass_counters_match_the_golden_values() {
    let side = 64;
    let lit = scenes::lit_scene(2, 24.0);
    let world = Scene::flat(lit.triangles.clone());
    let camera = Camera::looking_at(lit.eye, lit.target);
    let shadowed = RenderPasses::shadowed(lit.light);
    let frames = [
        ("primary", FrameDesc::primary(camera, side, side)),
        (
            "shadowed",
            FrameDesc::deferred(camera, side, side, shadowed),
        ),
        (
            "shadowed_ao",
            FrameDesc::deferred(
                camera,
                side,
                side,
                shadowed.with_ambient_occlusion(4, 6.0, 2024),
            ),
        ),
    ];
    let got: Vec<(&str, StreamRow)> = frames
        .into_iter()
        .map(|(name, frame)| {
            let mut renderer = Renderer::new();
            let _ = renderer.render(&world, &frame, &ExecPolicy::wavefront().with_simd_lanes(16));
            let stats = renderer.stats();
            let row = StreamRow {
                items: (side * side) as u64,
                rays: stats.rays,
                beats: stats.total_ops(),
                simd: lanes(&renderer.beat_mix()),
            };
            (name, row)
        })
        .collect();
    assert_eq!(got, expected_streams(&FRAME_GOLDEN), "frame counters moved");
}

/// Recorded alongside [`SCENE_GOLDEN`] from the legacy render-pass suite (64 × 64 frames of
/// the lit scene).
const FRAME_GOLDEN: [(&str, StreamRow); 3] = [
    (
        "primary",
        StreamRow {
            items: 4096,
            rays: 4096,
            beats: 26_444,
            simd: (74_852, 75_856),
        },
    ),
    (
        "shadowed",
        StreamRow {
            items: 4096,
            rays: 6556,
            beats: 50_830,
            simd: (145_411, 148_000),
        },
    ),
    (
        "shadowed_ao",
        StreamRow {
            items: 4096,
            rays: 16_396,
            beats: 113_412,
            simd: (348_699, 352_688),
        },
    ),
];

#[test]
fn query_engine_counters_match_the_golden_values() {
    let side = 64;
    let policy = ExecPolicy::wavefront().with_simd_lanes(16);

    let mut renderer = Renderer::new();
    let world = Scene::flat(scenes::icosphere(3, 5.0, Vec3::new(0.0, 0.0, 20.0)));
    let camera = Camera::looking_at(Vec3::ZERO, Vec3::new(0.0, 0.0, 20.0));
    let _ = renderer.render(&world, &FrameDesc::primary(camera, side, side), &policy);
    let render = StreamRow {
        items: (side * side) as u64,
        rays: renderer.stats().rays,
        beats: renderer.stats().total_ops(),
        simd: lanes(&renderer.beat_mix()),
    };

    let mut engine = TraversalEngine::baseline();
    let world = Scene::flat(scenes::soft_shadow(3, 24.0));
    let light = Vec3::new(0.0, 20.0, 0.0);
    let shadow_rays = rays::floor_shadow_rays(side, side, 24.0, 0.0, light);
    let _ = engine.trace(&TraceRequest::any_hit(&world, &shadow_rays), &policy);
    let shadow = StreamRow {
        items: shadow_rays.len() as u64,
        rays: engine.stats().rays,
        beats: engine.stats().total_ops(),
        simd: lanes(&engine.beat_mix()),
    };

    let mut knn = KnnEngine::new();
    let dataset = vectors::clustered_dataset(2024, ITEMS, 24, 8, 4.0);
    let _ = knn.distances(
        &dataset.vectors[0],
        &dataset.vectors,
        KnnMetric::Euclidean,
        &policy,
    );
    let knn_row = StreamRow {
        items: knn.stats().candidates,
        rays: 0,
        beats: knn.stats().beats,
        simd: lanes(&knn.beat_mix()),
    };

    let got = vec![("render", render), ("shadow", shadow), ("knn", knn_row)];
    assert_eq!(got, expected_streams(&QUERY_GOLDEN), "query counters moved");
}

/// Recorded alongside [`SCENE_GOLDEN`] from the legacy query-engine suite.
const QUERY_GOLDEN: [(&str, StreamRow); 3] = [
    (
        "render",
        StreamRow {
            items: 4096,
            rays: 4096,
            beats: 22_316,
            simd: (72_149, 73_152),
        },
    ),
    (
        "shadow",
        StreamRow {
            items: 4096,
            rays: 4096,
            beats: 102_680,
            simd: (324_974, 326_592),
        },
    ),
    (
        "knn",
        StreamRow {
            items: 4096,
            rays: 0,
            beats: 8192,
            simd: (0, 0),
        },
    ),
];
