//! Batched and parallel ray-stream traversal: builds a scene, generates a camera ray stream,
//! traces it under the scalar-reference, wavefront and parallel execution policies through the
//! single policy-driven entry point ([`TraversalEngine::trace`]), and reports their agreement
//! and relative throughput.

use std::time::Instant;

use rayflex::geometry::Vec3;
use rayflex::rtunit::{default_parallelism, ExecPolicy, Scene, TraceRequest, TraversalEngine};
use rayflex::workloads::{rays, scenes};

fn main() {
    let scene = Scene::flat(scenes::icosphere(3, 5.0, Vec3::new(0.0, 0.0, 20.0)));
    let stream = rays::camera_grid(64, 64, 12.0);
    let request = TraceRequest::closest_hit(&scene, &stream);
    println!(
        "scene: icosphere with {} triangles, stream of {} rays",
        scene.triangle_count(),
        stream.len()
    );

    // Scalar reference: one ray at a time through the register-accurate datapath emulation.
    let mut scalar = TraversalEngine::baseline();
    let start = Instant::now();
    let scalar_hits = scalar.trace(&request, &ExecPolicy::scalar()).into_closest();
    let scalar_time = start.elapsed();

    // Wavefront: the whole stream in flight, beats dispatched in bulk on the fast model.
    let mut wavefront = TraversalEngine::baseline();
    let start = Instant::now();
    let wavefront_hits = wavefront
        .trace(&request, &ExecPolicy::wavefront())
        .into_closest();
    let wavefront_time = start.elapsed();

    // Parallel: the wavefront sharded across worker threads.
    let threads = default_parallelism();
    let mut parallel = TraversalEngine::baseline();
    let start = Instant::now();
    let parallel_hits = parallel
        .trace(&request, &ExecPolicy::parallel(threads))
        .into_closest();
    let parallel_time = start.elapsed();

    assert_eq!(scalar_hits, wavefront_hits, "policies must agree");
    assert_eq!(scalar_hits, parallel_hits, "parallel shards must agree");
    assert_eq!(scalar.stats(), wavefront.stats());
    assert_eq!(scalar.stats(), parallel.stats());

    let hit_count = scalar_hits.iter().flatten().count();
    let stats = scalar.stats();
    println!(
        "hits: {hit_count}/{} rays, {} box beats + {} triangle beats",
        stream.len(),
        stats.box_ops,
        stats.triangle_ops
    );
    let rate = |t: std::time::Duration| stream.len() as f64 / t.as_secs_f64();
    println!(
        "scalar:    {:>8.1} ms  ({:>9.0} rays/s)",
        scalar_time.as_secs_f64() * 1e3,
        rate(scalar_time)
    );
    println!(
        "wavefront: {:>8.1} ms  ({:>9.0} rays/s, {:.1}x)",
        wavefront_time.as_secs_f64() * 1e3,
        rate(wavefront_time),
        scalar_time.as_secs_f64() / wavefront_time.as_secs_f64()
    );
    println!(
        "parallel:  {:>8.1} ms  ({:>9.0} rays/s, {:.1}x on {threads} thread(s))",
        parallel_time.as_secs_f64() * 1e3,
        rate(parallel_time),
        scalar_time.as_secs_f64() / parallel_time.as_secs_f64()
    );
}
