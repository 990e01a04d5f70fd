//! The cross-policy matrix property test — the tentpole invariant of the `ExecPolicy` API,
//! stated once and enforced everywhere: for arbitrary random workloads of **every** query kind
//! (render frames, closest-hit streams, any-hit streams, k-NN scoring, radius/collect batches),
//! **every** [`ExecMode`] — wavefront, parallel, fused, and fused under beat budgets including
//! the `0` (unlimited) and `1` (strict round-robin) edge values — produces outputs and
//! statistics bit-identical to [`ExecMode::ScalarReference`].
//!
//! A separate property pins the fairness knob itself: `beat_budget_per_stream = 1` must
//! *change* the fused pass structure (more, smaller passes) while changing no stream's outputs.

use proptest::prelude::*;

use rayflex_core::{PipelineConfig, RayFlexDatapath};
use rayflex_geometry::{Ray, Triangle, Vec3};
use rayflex_rtunit::{
    AdmissionOrder, Bvh4, Camera, CoherenceMode, ExecMode, ExecPolicy, FrameDesc, FusedScheduler,
    HierarchicalSearch, KnnEngine, KnnMetric, RenderPasses, Renderer, Scene, ShardHint,
    TraceRequest, TraversalEngine, TraversalStream,
};

fn coordinate() -> impl Strategy<Value = f32> {
    -30.0f32..30.0
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
    prop::collection::vec(triangle(), 1..20)
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

fn camera() -> impl Strategy<Value = Camera> {
    (vec3(), vec3()).prop_filter_map("camera must look somewhere", |(position, look_at)| {
        ((look_at - position).length_squared() > 1e-4)
            .then(|| Camera::looking_at(position, look_at))
    })
}

fn passes() -> impl Strategy<Value = RenderPasses> {
    (
        vec3(),
        0usize..3,
        0.5f32..20.0,
        any::<u64>(),
        any::<bool>(),
        0.0f32..1.0,
    )
        .prop_map(|(light, samples, radius, seed, adaptive, bounce)| {
            RenderPasses::shadowed(light)
                .with_ambient_occlusion(samples, radius, seed)
                .with_adaptive_ao(adaptive)
                .with_bounce(bounce)
        })
}

fn vector(dim: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-8.0f32..8.0, dim..dim + 1)
}

fn points() -> impl Strategy<Value = Vec<Vec3>> {
    prop::collection::vec(vec3(), 1..32)
}

fn radius_queries() -> impl Strategy<Value = Vec<(Vec3, f32)>> {
    prop::collection::vec((vec3(), 1.0f32..25.0), 1..5)
}

/// The non-reference policies of the matrix sweep, including both beat-budget edge values
/// (`0` = unlimited, `1` = strict round-robin), a mid value, the SIMD lane widths of the
/// lane-batched fast path (1 = plain scalar fast path, 4 and 8 engage the lane kernels) and the
/// two coherence disciplines (the defaulted entries already run
/// [`CoherenceMode::SortAndCompact`]; `Off` is crossed in explicitly), all over
/// the dispatch modes they feed (wavefront, the work-stealing parallel pool, and fused —
/// including fused under a strict beat budget).
fn swept_policies() -> Vec<ExecPolicy> {
    vec![
        ExecPolicy::wavefront(),
        ExecPolicy::wavefront().with_simd_lanes(4),
        ExecPolicy::wavefront().with_simd_lanes(8),
        ExecPolicy::wavefront().with_coherence(CoherenceMode::Off),
        ExecPolicy::parallel(3),
        ExecPolicy::parallel(3).with_simd_lanes(8),
        ExecPolicy::parallel(3)
            .with_coherence(CoherenceMode::Off)
            .with_simd_lanes(4),
        ExecPolicy::with_mode(ExecMode::Parallel {
            shards: ShardHint::Auto,
        }),
        ExecPolicy::fused(),
        ExecPolicy::fused().with_simd_lanes(4),
        ExecPolicy::fused()
            .with_coherence(CoherenceMode::Off)
            .with_simd_lanes(8),
        ExecPolicy::fused().with_beat_budget(1),
        ExecPolicy::fused().with_beat_budget(1).with_simd_lanes(8),
        ExecPolicy::fused().with_beat_budget(4),
        ExecPolicy::fused()
            .with_beat_budget(4)
            .with_coherence(CoherenceMode::Off),
        ExecPolicy::fused().with_admission_order(AdmissionOrder::EarliestDeadlineFirst),
        ExecPolicy::fused()
            .with_admission_order(AdmissionOrder::EarliestDeadlineFirst)
            .with_beat_budget(1),
        ExecPolicy::fused()
            .with_admission_order(AdmissionOrder::EarliestDeadlineFirst)
            .with_beat_budget(4)
            .with_simd_lanes(8),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// ExecMode × {closest-hit, any-hit}: hits and stats pinned to the scalar reference.
    #[test]
    fn traversal_outputs_and_stats_are_policy_invariant(
        triangles in scene(),
        closest_rays in prop::collection::vec(ray(), 0..10),
        shadow_rays in prop::collection::vec(ray(), 0..10),
    ) {
        let bvh = Bvh4::build(&triangles);
        let scene = Scene::from_parts(bvh.clone(), triangles.clone());
        let request = TraceRequest::pair(&scene, &closest_rays, &shadow_rays);

        let mut reference = TraversalEngine::baseline();
        let expected = reference.trace(&request, &ExecPolicy::scalar());

        for policy in swept_policies() {
            let mut engine = TraversalEngine::baseline();
            let got = engine.trace(&request, &policy);
            prop_assert_eq!(&got, &expected, "{} hits diverged", policy.mode);
            prop_assert_eq!(engine.stats(), reference.stats(), "{} stats diverged", policy.mode);

            // One scheduler: a single stream under the wavefront is the fused run at budget 0,
            // down to the pass count and the lane pair — and so is the same stream driven by
            // hand through a public `TraversalStream`, whose segments close box trains first.
            if policy.mode == ExecMode::Wavefront {
                let fused = ExecPolicy { mode: ExecMode::Fused, ..policy };
                for (single, stream) in [
                    (
                        TraceRequest::closest_hit(&scene, &closest_rays),
                        TraversalStream::closest_hit(&scene, &closest_rays),
                    ),
                    (
                        TraceRequest::any_hit(&scene, &shadow_rays),
                        TraversalStream::any_hit(&scene, &shadow_rays),
                    ),
                ] {
                    let mut wavefront_engine = TraversalEngine::baseline();
                    let _ = wavefront_engine.trace(&single, &policy);
                    // The scalar reference attributes the same beats to the same kinds (it
                    // counts no pass and engages no lane kernel).
                    let mut scalar_engine = TraversalEngine::baseline();
                    let _ = scalar_engine.trace(&single, &ExecPolicy::scalar());
                    let (scalar_mix, wavefront_mix) =
                        (scalar_engine.beat_mix(), wavefront_engine.beat_mix());
                    prop_assert_eq!(
                        scalar_mix.iter_kinds().collect::<Vec<_>>(),
                        wavefront_mix.iter_kinds().collect::<Vec<_>>(),
                        "scalar and wavefront per-kind beat counts diverged"
                    );
                    prop_assert_eq!(scalar_mix.tlas_box_beats(), wavefront_mix.tlas_box_beats());
                    let mut fused_engine = TraversalEngine::baseline();
                    let _ = fused_engine.trace(&single, &fused);
                    prop_assert_eq!(
                        wavefront_engine.beat_mix(),
                        fused_engine.beat_mix(),
                        "wavefront and budget-0 fused beat mixes diverged"
                    );
                    let mut datapath = RayFlexDatapath::new(PipelineConfig::baseline_unified());
                    datapath.set_simd_lanes(policy.effective_simd_lanes());
                    let mut stream = stream.with_coherence(policy.effective_coherence());
                    FusedScheduler::new().run(&mut datapath, &mut [&mut stream]);
                    prop_assert_eq!(
                        wavefront_engine.beat_mix(),
                        datapath.beat_mix(),
                        "the engine's lone stream and a hand-driven stream diverged"
                    );
                }
            }
        }
    }

    /// ExecMode × render: frames (primary, deferred, bounce, adaptive AO) pinned pixel-bit and
    /// stat-for-stat to the scalar reference.
    #[test]
    fn rendered_frames_are_policy_invariant(
        triangles in scene(),
        camera in camera(),
        passes in passes(),
        width in 1usize..10,
        height in 1usize..10,
        primary_only in any::<bool>(),
    ) {
        let bvh = Bvh4::build(&triangles);
        let scene = Scene::from_parts(bvh.clone(), triangles.clone());
        let frame = if primary_only {
            FrameDesc::primary(camera, width, height)
        } else {
            FrameDesc::deferred(camera, width, height, passes)
        };

        let mut reference = Renderer::new();
        let expected = reference.render(&scene, &frame, &ExecPolicy::scalar());

        for policy in swept_policies() {
            let mut renderer = Renderer::new();
            let image = renderer.render(&scene, &frame, &policy);
            prop_assert_eq!(
                image.first_mismatch(&expected), None,
                "{} frame diverged", policy.mode
            );
            prop_assert_eq!(renderer.stats(), reference.stats(), "{} stats diverged", policy.mode);
        }
    }

    /// ExecMode × kNN: distances, neighbours and stats pinned to the scalar reference.
    #[test]
    fn knn_distances_and_neighbours_are_policy_invariant(
        candidates in prop::collection::vec(vector(19), 1..10),
        k in 0usize..6,
        cosine in any::<bool>(),
    ) {
        let metric = if cosine { KnnMetric::Cosine } else { KnnMetric::Euclidean };
        let query = candidates[0].clone();

        let mut reference = KnnEngine::new();
        let expected: Vec<u32> = reference
            .distances(&query, &candidates, metric, &ExecPolicy::scalar())
            .iter()
            .map(|d| d.to_bits())
            .collect();
        let expected_neighbours =
            KnnEngine::new().k_nearest(&query, &candidates, k, metric, &ExecPolicy::scalar());

        for policy in swept_policies() {
            let mut engine = KnnEngine::new();
            let got: Vec<u32> = engine
                .distances(&query, &candidates, metric, &policy)
                .iter()
                .map(|d| d.to_bits())
                .collect();
            prop_assert_eq!(&got, &expected, "{} distances diverged", policy.mode);
            prop_assert_eq!(engine.stats(), reference.stats(), "{} stats diverged", policy.mode);
            let neighbours =
                KnnEngine::new().k_nearest(&query, &candidates, k, metric, &policy);
            prop_assert_eq!(&neighbours, &expected_neighbours, "{} top-k diverged", policy.mode);
        }
    }

    /// ExecMode × radius/collect: neighbour lists and stats pinned to the scalar reference.
    #[test]
    fn radius_queries_are_policy_invariant(
        dataset in points(),
        queries in radius_queries(),
    ) {
        let build = |points: &Vec<Vec3>| {
            HierarchicalSearch::build(points.clone(), 0.05, PipelineConfig::extended_unified())
        };
        let mut reference = build(&dataset);
        let expected = reference.radius_queries(&queries, &ExecPolicy::scalar());

        for policy in swept_policies() {
            let mut search = build(&dataset);
            let got = search.radius_queries(&queries, &policy);
            prop_assert_eq!(&got, &expected, "{} results diverged", policy.mode);
            prop_assert_eq!(search.stats(), reference.stats(), "{} stats diverged", policy.mode);
        }
    }

    /// The work-stealing pool under load: streams long enough to cut into several chunks per
    /// worker run through `ExecMode::Parallel` at every SIMD lane width, and hits and stats stay
    /// bit-identical to the scalar reference while the pool demonstrably engages (the chunk
    /// counter proves the run really sharded; the small-stream properties above all fall back
    /// inline).
    #[test]
    fn the_work_stealing_pool_is_bit_identical_at_every_lane_width(
        triangles in scene(),
        base_rays in prop::collection::vec(ray(), 4..8),
        threads in 2usize..5,
    ) {
        use rayflex_rtunit::MIN_RAYS_PER_SHARD;
        // Tile a handful of generated rays into streams long enough that `threads` workers get
        // several chunks each (adaptive chunking floors at MIN_RAYS_PER_SHARD rays per chunk).
        let closest_rays: Vec<Ray> = base_rays
            .iter()
            .cycle()
            .take(MIN_RAYS_PER_SHARD * threads * 2)
            .copied()
            .collect();
        let shadow_rays: Vec<Ray> = base_rays
            .iter()
            .rev()
            .cycle()
            .take(MIN_RAYS_PER_SHARD * threads)
            .copied()
            .collect();
        let bvh = Bvh4::build(&triangles);
        let scene = Scene::from_parts(bvh.clone(), triangles.clone());
        let request = TraceRequest::pair(&scene, &closest_rays, &shadow_rays);

        let mut reference = TraversalEngine::baseline();
        let expected = reference.trace(&request, &ExecPolicy::scalar());

        for lanes in [1usize, 4, 8] {
            let policy = ExecPolicy::parallel(threads).with_simd_lanes(lanes);
            let mut engine = TraversalEngine::baseline();
            let got = engine.trace(&request, &policy);
            prop_assert_eq!(&got, &expected, "lanes={} hits diverged", lanes);
            prop_assert_eq!(engine.stats(), reference.stats(), "lanes={} stats diverged", lanes);
            let pool = engine.pool_stats();
            prop_assert!(
                pool.chunks >= threads as u64,
                "lanes={}: expected the pool to engage ({} chunks < {} workers)",
                lanes, pool.chunks, threads
            );
            prop_assert_eq!(pool.workers, threads as u64, "lanes={} worker count", lanes);
        }
    }

    /// The fairness knob itself: a strict round-robin budget reshapes the fused pass structure
    /// (strictly more passes whenever a pass carried more than one beat per stream) without
    /// changing any stream's outputs or statistics.
    #[test]
    fn a_beat_budget_of_one_reshapes_passes_without_changing_outputs(
        triangles in scene(),
        closest_rays in prop::collection::vec(ray(), 2..10),
        shadow_rays in prop::collection::vec(ray(), 2..10),
    ) {
        let bvh = Bvh4::build(&triangles);
        let scene = Scene::from_parts(bvh.clone(), triangles.clone());
        let request = TraceRequest::pair(&scene, &closest_rays, &shadow_rays);

        let mut unlimited = TraversalEngine::baseline();
        let free = unlimited.trace(&request, &ExecPolicy::fused());
        let free_passes = unlimited.last_fused_passes();

        let mut strict = TraversalEngine::baseline();
        let budgeted = strict.trace(&request, &ExecPolicy::fused().with_beat_budget(1));
        let strict_passes = strict.last_fused_passes();

        prop_assert_eq!(&budgeted, &free, "a beat budget must not change any hit");
        prop_assert_eq!(strict.stats(), unlimited.stats());
        // Each unlimited pass carries one beat per active ray of each stream; with at least two
        // rays per stream the strict budget must split passes.
        prop_assert!(
            strict_passes > free_passes,
            "budget 1 must increase the pass count ({} vs {})", strict_passes, free_passes
        );
        // Total datapath work is identical either way.
        prop_assert_eq!(strict.beat_mix().total(), unlimited.beat_mix().total());
    }

    /// The admission-order knob: earliest-deadline-first admission under arbitrary per-stream
    /// deadlines (including the `0` = "no deadline" sentinel and ties) must be output- and
    /// stat-invariant against FIFO admission in every fused configuration — EDF reorders segment
    /// issue *within* shared passes, it never changes what work runs.  This is the invariant
    /// that lets an online server re-order its admission queue by deadline without perturbing
    /// bit-identity with offline runs.
    #[test]
    fn edf_admission_is_output_invariant_under_arbitrary_deadlines(
        triangles in scene(),
        closest_rays in prop::collection::vec(ray(), 1..10),
        shadow_rays in prop::collection::vec(ray(), 1..10),
        closest_deadline in any::<u64>(),
        any_deadline in any::<u64>(),
        beat_budget in 0usize..5,
    ) {
        let bvh = Bvh4::build(&triangles);
        let scene = Scene::from_parts(bvh.clone(), triangles.clone());
        let plain = TraceRequest::pair(&scene, &closest_rays, &shadow_rays);
        let dated = plain.with_stream_deadlines(closest_deadline, any_deadline);

        let mut reference = TraversalEngine::baseline();
        let expected = reference.trace(&plain, &ExecPolicy::fused().with_beat_budget(beat_budget));

        for order in AdmissionOrder::ALL {
            let policy = ExecPolicy::fused()
                .with_beat_budget(beat_budget)
                .with_admission_order(order);
            let mut engine = TraversalEngine::baseline();
            let got = engine.trace(&dated, &policy);
            prop_assert_eq!(&got, &expected, "{} hits diverged", order);
            prop_assert_eq!(engine.stats(), reference.stats(), "{} stats diverged", order);
            prop_assert_eq!(
                engine.last_fused_passes(),
                reference.last_fused_passes(),
                "{} pass structure diverged", order
            );

            // The scalar reference honours the same admission order bit-identically.
            let mut scalar = TraversalEngine::baseline();
            let scalar_policy = ExecPolicy::scalar().with_admission_order(order);
            prop_assert_eq!(&scalar.trace(&dated, &scalar_policy), &expected);
        }
    }
}

/// Empty and zero-length inputs are valid requests in every `ExecMode`: a 0-ray `TraceRequest`,
/// a 0×0 `FrameDesc`, k = 0 kNN and a radius-0 query all complete — empty outputs where outputs
/// would be, zero-distance matches only for the zero radius — and agree with the scalar
/// reference exactly.
#[test]
fn empty_and_zero_sized_inputs_are_valid_in_every_mode() {
    let triangles = vec![
        Triangle::new(
            Vec3::new(-2.0, -2.0, 5.0),
            Vec3::new(2.0, -2.0, 5.0),
            Vec3::new(0.0, 2.0, 5.0),
        ),
        Triangle::new(
            Vec3::new(-2.0, 2.0, 7.0),
            Vec3::new(2.0, 2.0, 7.0),
            Vec3::new(0.0, -2.0, 7.0),
        ),
    ];
    let bvh = Bvh4::build(&triangles);
    let scene = Scene::from_parts(bvh.clone(), triangles.clone());
    let no_rays: Vec<Ray> = Vec::new();
    let camera = Camera::looking_at(Vec3::new(0.0, 0.0, -10.0), Vec3::ZERO);
    let candidates = vec![vec![1.0f32; 5], vec![4.0f32; 5]];
    let points = vec![Vec3::ZERO, Vec3::splat(3.0)];

    for mode in ExecMode::ALL {
        let policy = ExecPolicy::with_mode(mode);

        // 0-ray trace: both streams empty in, both streams empty out, no beats spent.
        let mut engine = TraversalEngine::baseline();
        let out = engine.trace(&TraceRequest::pair(&scene, &no_rays, &no_rays), &policy);
        assert!(out.closest.is_empty() && out.any.is_empty(), "{mode}");
        assert_eq!(
            engine.stats().total_ops(),
            0,
            "{mode}: no beats for no rays"
        );

        // 0×0 frame: a legal degenerate viewport.
        let mut renderer = Renderer::new();
        let image = renderer.render(&scene, &FrameDesc::primary(camera, 0, 0), &policy);
        assert_eq!((image.width(), image.height()), (0, 0), "{mode}");

        // k = 0: a valid query with an empty answer, regardless of the candidate set.
        let neighbours = KnnEngine::new().k_nearest(
            &candidates[0],
            &candidates,
            0,
            KnnMetric::Euclidean,
            &policy,
        );
        assert!(neighbours.is_empty(), "{mode}: k = 0 returns nothing");

        // radius = 0: only exact (zero-distance) matches can qualify.
        let mut search =
            HierarchicalSearch::build(points.clone(), 0.05, PipelineConfig::extended_unified());
        let exact = search.radius_query(Vec3::ZERO, 0.0, &policy);
        assert!(
            exact.iter().all(|n| n.distance == 0.0),
            "{mode}: radius 0 admits only exact matches"
        );
        let miss = search.radius_query(Vec3::splat(1.0), 0.0, &policy);
        assert!(miss.is_empty(), "{mode}: radius 0 off-point finds nothing");
    }
}
