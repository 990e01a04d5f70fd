//! End-to-end integration tests across the whole stack: scenes → BVH → traversal/RT unit →
//! datapath → results, plus the validation suite and figure harnesses exercised through the
//! public facade crate.

use rayflex::core::{validation, PipelineConfig};
use rayflex::geometry::{golden, Ray, Vec3};
use rayflex::rtunit::{
    Camera, ExecPolicy, FrameDesc, KnnEngine, KnnMetric, Renderer, RtUnitConfig, Scene,
    TraceRequest, TraversalEngine,
};
use rayflex::workloads::{scenes, vectors};

#[test]
fn the_twenty_directed_cases_pass_on_every_configuration() {
    for config in PipelineConfig::evaluated_configs() {
        let report = validation::run_directed_suite(config);
        assert!(report.all_green(), "{}: {:?}", config.name(), report);
        assert_eq!(report.passed(), 20);
    }
}

#[test]
fn icosphere_traversal_matches_a_brute_force_golden_scan() {
    let triangles = scenes::icosphere(2, 3.0, Vec3::new(0.0, 0.0, 10.0));
    let world = Scene::flat(triangles.clone());
    let mut engine = TraversalEngine::baseline();
    let mut hits = 0usize;
    let rays: Vec<Ray> = (0..100)
        .map(|i| {
            let x = (i % 10) as f32 * 0.8 - 3.6;
            let y = (i / 10) as f32 * 0.8 - 3.6;
            Ray::new(Vec3::new(x, y, 0.0), Vec3::new(0.0, 0.0, 1.0))
        })
        .collect();
    let traversals = engine
        .trace(
            &TraceRequest::closest_hit(&world, &rays),
            &ExecPolicy::scalar(),
        )
        .into_closest();
    for (i, (ray, traversal)) in rays.iter().zip(traversals).enumerate() {
        // Brute force over every triangle with the golden model.
        let mut best: Option<(usize, f32)> = None;
        for (p, tri) in triangles.iter().enumerate() {
            let hit = golden::watertight::ray_triangle(ray, tri);
            if hit.hit {
                let t = hit.distance();
                if best.is_none_or(|(_, bt)| t < bt) {
                    best = Some((p, t));
                }
            }
        }
        match (traversal, best) {
            (None, None) => {}
            (Some(a), Some((prim, t))) => {
                hits += 1;
                assert_eq!(a.primitive, prim, "ray {i}");
                assert!((a.t - t).abs() < 1e-6, "ray {i}");
            }
            other => panic!("ray {i}: {other:?}"),
        }
    }
    assert!(
        hits > 20,
        "the ray grid should intersect the sphere many times ({hits})"
    );
    // The BVH makes the traversal cheaper than testing every triangle for every ray.
    let stats = engine.stats();
    assert!(stats.triangle_ops < (triangles.len() * 100) as u64 / 4);
}

#[test]
fn rendering_and_rt_unit_timing_work_through_the_facade() {
    let triangles = scenes::icosphere(2, 3.0, Vec3::new(0.0, 0.0, 12.0));
    let world = Scene::flat(triangles);
    let camera = Camera::looking_at(Vec3::ZERO, Vec3::new(0.0, 0.0, 12.0));
    let mut renderer = Renderer::new();
    let image = renderer.render(
        &world,
        &FrameDesc::primary(camera, 32, 32),
        &ExecPolicy::wavefront(),
    );
    assert!(image.coverage() > 0.1 && image.coverage() < 0.9);
    assert!(image.pixel(16, 16) > 0.0, "sphere centre must be shaded");

    let rays: Vec<Ray> = (0..64)
        .map(|i| camera.primary_ray((i % 8) * 4, (i / 8) * 4, 32, 32))
        .collect();
    let stats = RtUnitConfig::default().estimate(&TraceRequest::closest_hit(&world, &rays));
    assert_eq!(stats.rays, 64);
    assert!(stats.cycles > 0);
    assert!(stats.ops_per_ray() >= 1.0);
}

#[test]
fn knn_results_are_consistent_between_metrics_and_reference_scans() {
    let dataset = vectors::clustered_dataset(11, 150, 20, 5, 2.0);
    let queries = vectors::queries_near_dataset(12, &dataset, 3, 0.5);
    let mut engine = KnnEngine::new();
    for query in &queries {
        let neighbors = engine.k_nearest(
            query,
            &dataset.vectors,
            10,
            KnnMetric::Euclidean,
            &ExecPolicy::wavefront(),
        );
        assert_eq!(neighbors.len(), 10);
        // Distances agree bit-exactly with the golden streaming reference.
        for n in &neighbors {
            let gold =
                golden::distance::euclidean_distance_squared(query, &dataset.vectors[n.index]);
            assert_eq!(n.distance.to_bits(), gold.to_bits());
        }
        // Monotone distances.
        for pair in neighbors.windows(2) {
            assert!(pair[0].distance <= pair[1].distance);
        }
        // Most of the ten nearest neighbours of a query drawn next to a cluster member belong to
        // that member's cluster.
        let dominant = dataset.assignments[neighbors[0].index];
        let same_cluster = neighbors
            .iter()
            .filter(|n| dataset.assignments[n.index] == dominant)
            .count();
        assert!(
            same_cluster >= 6,
            "only {same_cluster}/10 neighbours share the cluster"
        );
    }
}

#[test]
fn figure_harnesses_regenerate_through_the_bench_crate() {
    // Keep the integration-test cost modest: the full sweeps run under `cargo bench`.
    let fig7 = rayflex_bench::fig7_headline_summary();
    assert!(fig7.contains("paper +13%"));
    let report = rayflex_bench::validation_report(50);
    assert!(report.contains("all green: true"));
    let counts = rayflex_bench::random_equivalence_counts(100, 99);
    assert_eq!(counts.total_mismatches(), 0);
}

#[test]
fn ray_streams_trace_identically_across_all_frontends() {
    // The full stack through the facade: a camera ray stream -> wavefront + parallel policies
    // -> bit-identical hits and statistics versus the scalar reference.
    use rayflex::core::RayFlexDatapath;
    use rayflex::workloads::rays;

    let triangles = scenes::icosphere(2, 3.0, Vec3::new(0.0, 0.0, 10.0));
    let world = Scene::flat(triangles.clone());
    let slice = rays::camera_grid(12, 12, 7.0);

    let config = PipelineConfig::baseline_unified();
    let request = TraceRequest::closest_hit(&world, &slice);
    let mut scalar = TraversalEngine::with_config(config);
    let expected = scalar.trace(&request, &ExecPolicy::scalar()).into_closest();
    let mut wavefront = TraversalEngine::with_config(config);
    let wavefront_hits = wavefront
        .trace(&request, &ExecPolicy::wavefront())
        .into_closest();
    let mut parallel = TraversalEngine::with_config(config);
    let parallel_hits = parallel
        .trace(&request, &ExecPolicy::parallel(3))
        .into_closest();
    assert_eq!(expected, wavefront_hits);
    assert_eq!(expected, parallel_hits);
    assert_eq!(scalar.stats(), wavefront.stats());
    assert_eq!(scalar.stats(), parallel.stats());

    // The batched datapath interface matches the per-beat interface on a real beat stream.
    let requests = rayflex_bench::random_ray_box_requests(64, 5);
    let mut per_beat = RayFlexDatapath::new(config);
    let expected_responses: Vec<_> = requests.iter().map(|r| per_beat.execute(r)).collect();
    let mut batched = RayFlexDatapath::new(config);
    assert_eq!(batched.execute_batch(&requests), expected_responses);
}
