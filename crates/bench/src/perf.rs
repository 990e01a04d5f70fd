//! Simulator performance baselines: rays/sec and beats/sec for the scalar, batched-wavefront and
//! thread-parallel execution paths across several scenes, emitted as a human-readable table and a
//! machine-readable JSON document (`BENCH_baseline.json`).
//!
//! These are *simulator* numbers, not paper claims — they track how fast the Rust model runs so
//! future scaling work (sharding, async serving, new backends) has a baseline to beat.  The
//! definitions:
//!
//! * **scalar** — [`ExecPolicy::scalar`], driving the recoded-format stage emulation one beat
//!   at a time per ray (the execution model of the original reproduction);
//! * **batched** — [`ExecPolicy::wavefront`], the ray-stream frontend dispatching bulk beats
//!   through the native fast model;
//! * **simd** — the batched frontend with the lane-batched fast path at its maximum width
//!   ([`ExecPolicy::with_simd_lanes`]), evaluating several requests per kernel step;
//! * **coherent** — the simd mode plus the coherence layer ([`ExecPolicy::with_coherence`],
//!   [`CoherenceMode::SortAndCompact`]): octant-sorted admission and active-lane compaction
//!   between passes, filling more lanes per kernel step on divergent streams;
//! * **parallel** — [`ExecPolicy::parallel`], the SIMD-batched frontend sharded across the
//!   work-stealing worker pool (with auto-tuned chunk sizing, a single-core or short-stream run
//!   falls back to the batched path instead of paying spawn overhead).
//!
//! All five are the same entry point — [`TraversalEngine::trace`] — under different policies.
//! The batched/simd/parallel rows pin [`CoherenceMode::Off`] so their numbers stay comparable
//! with earlier baselines; the coherent row is the only one that turns the new layer on.
//!
//! All five paths produce bit-identical hits; the suite cross-checks that on every run before
//! timing anything.  Each measurement also records the datapath's SIMD lane occupancy
//! ([`BeatMix::simd_lane_occupancy`]) so the coherence win is visible as filled lanes, not just
//! wall time.
//!
//! A second suite ([`run_query_engine_suite`], `BENCH_query_engine.json`) covers the query kinds
//! retrofitted onto the generic batched query engine — rendering (one batched primary-ray stream
//! per frame), any-hit/shadow streams, and k-NN distance scoring — each timed against its scalar
//! per-beat drive loop and cross-checked bit-for-bit first.
//!
//! A third suite ([`run_render_pass_suite`], `BENCH_render_passes.json`) covers the multi-pass
//! deferred renderer: primary-only, shadowed, and shadowed+AO frame configurations, each timed
//! batched versus the scalar multi-pass reference after a pixel-bit-identity cross-check.

use std::time::Instant;

use rayflex_core::{
    BeatMix, Opcode, PipelineConfig, QueryKind, RayFlexDatapath, RayFlexRequest, MAX_SIMD_LANES,
};
use rayflex_geometry::golden::distance::EUCLIDEAN_LANES;
use rayflex_geometry::{Aabb, Ray, Sphere, Triangle, Vec3};
use rayflex_rtunit::{
    default_light_dir, shade, Blas, Bvh4, Camera, CoherenceMode, CollectStream, DistanceStream,
    ExecPolicy, FrameDesc, FusedScheduler, Image, Instance, KnnEngine, KnnMetric, PoolStats,
    RenderPasses, Renderer, Scene, TraceRequest, TraversalEngine, TraversalHit, TraversalStream,
};
use rayflex_workloads::{mixed, rays, scenes, vectors};

/// One benchmark scene: geometry plus the ray stream traced against it.
pub struct PerfScene {
    /// Scene name as it appears in reports.
    pub name: &'static str,
    /// Scene geometry.
    pub triangles: Vec<Triangle>,
    /// The ray stream.
    pub rays: Vec<Ray>,
}

/// The three standard scenes of the baseline suite.
#[must_use]
pub fn standard_perf_scenes(rays_per_scene: usize) -> Vec<PerfScene> {
    let side = (rays_per_scene as f64).sqrt().ceil() as usize;
    vec![
        PerfScene {
            name: "icosphere",
            triangles: scenes::icosphere(3, 5.0, Vec3::new(0.0, 0.0, 20.0)),
            rays: rays::camera_grid(side, side, 12.0),
        },
        PerfScene {
            name: "quad_wall",
            triangles: scenes::quad_wall(24, 1.2, 15.0),
            rays: rays::camera_grid(side, side, 24.0),
        },
        PerfScene {
            name: "triangle_soup",
            triangles: scenes::random_triangle_soup(2024, 600, 30.0),
            rays: rays::random_rays(
                7,
                side * side,
                &Aabb::new(Vec3::splat(-30.0), Vec3::splat(30.0)),
            ),
        },
    ]
}

/// One timed execution mode on one scene.
#[derive(Debug, Clone)]
pub struct PerfMeasurement {
    /// Mode name (`scalar`, `batched`, `simd`, `coherent`, `parallel`).
    pub mode: &'static str,
    /// Best-of-`repeats` wall time for the whole stream, in seconds.
    pub seconds: f64,
    /// Rays traced per second.
    pub rays_per_sec: f64,
    /// Datapath beats executed per second.
    pub beats_per_sec: f64,
    /// Throughput relative to the scalar mode on the same scene.
    pub speedup_vs_scalar: f64,
    /// Average fraction of SIMD lane slots carrying live work in this mode's lane-batched
    /// kernel issues ([`BeatMix::simd_lane_occupancy`]; 0 when the mode never batches lanes).
    pub lane_occupancy: f64,
}

/// All measurements for one scene.
#[derive(Debug, Clone)]
pub struct ScenePerf {
    /// Scene name.
    pub scene: &'static str,
    /// Triangles in the scene.
    pub triangles: u64,
    /// Rays in the stream.
    pub rays: u64,
    /// Datapath beats per full trace of the stream.
    pub beats: u64,
    /// Work-stealing pool counters of one parallel trace of the stream (all zero when the
    /// auto-tuner ran the stream inline, e.g. on a single-core host).
    pub pool: PoolStats,
    /// Per-mode measurements (scalar, batched, simd, coherent, parallel).
    pub measurements: Vec<PerfMeasurement>,
}

impl ScenePerf {
    /// Throughput of the named mode relative to scalar (1.0 if the mode is missing).
    #[must_use]
    pub fn speedup(&self, mode: &str) -> f64 {
        self.measurements
            .iter()
            .find(|m| m.mode == mode)
            .map_or(1.0, |m| m.speedup_vs_scalar)
    }
}

/// Beat-level datapath micro-benchmark results.
#[derive(Debug, Clone, Copy)]
pub struct DatapathPerf {
    /// Beats per second through the per-beat recoded-format emulation.
    pub emulated_beats_per_sec: f64,
    /// Beats per second through the batched native fast model.
    pub batched_beats_per_sec: f64,
    /// Beats per second through the lane-batched fast path at its maximum width.
    pub simd_beats_per_sec: f64,
}

/// Instanced-vs-flattened measurements for one two-level scene preset: acceleration-structure
/// build time, resident memory, and trace throughput.  The throughput rows are cross-checked
/// bit-identical against the flattened scalar reference before timing, and the instanced
/// batched-vs-scalar speedup feeds the same acceptance gate as the flat scenes
/// ([`PerfBaseline::min_best_speedup`]).
#[derive(Debug, Clone)]
pub struct InstancingPerf {
    /// Preset name (`debris_field`, `icosphere_crowd`).
    pub scene: &'static str,
    /// Placed instances in the TLAS.
    pub instances: u64,
    /// Total world-space triangles the scene addresses (the flattened count).
    pub placed_triangles: u64,
    /// Best-of build time of the two-level scene (per-BLAS builds + TLAS), in seconds.
    pub instanced_build_seconds: f64,
    /// Best-of build time of the flattened twin (bake every placement + one flat BVH build).
    pub flattened_build_seconds: f64,
    /// Resident bytes of the instanced representation.
    pub instanced_memory_bytes: u64,
    /// Resident bytes of the flattened twin.
    pub flattened_memory_bytes: u64,
    /// Instanced scalar-reference trace throughput.
    pub scalar_rays_per_sec: f64,
    /// Instanced trace throughput under the lane-batched wavefront mode.
    pub instanced_rays_per_sec: f64,
    /// Flattened-twin trace throughput under the same lane-batched wavefront mode.
    pub flattened_rays_per_sec: f64,
    /// Instanced batched throughput over instanced scalar — the gate contribution.
    pub speedup_vs_scalar: f64,
}

/// The complete baseline document.
#[derive(Debug, Clone)]
pub struct PerfBaseline {
    /// Worker threads used by the parallel mode.
    pub threads: usize,
    /// Timing repeats per measurement (best-of).
    pub repeats: usize,
    /// Beat-level micro-benchmark.
    pub datapath: DatapathPerf,
    /// Per-scene traversal measurements.
    pub scenes: Vec<ScenePerf>,
    /// Two-level instanced-vs-flattened measurements.
    pub instancing: Vec<InstancingPerf>,
}

fn time_best_of<R>(repeats: usize, mut run: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..repeats.max(1) {
        let start = Instant::now();
        let value = run();
        best = best.min(start.elapsed().as_secs_f64());
        result = Some(value);
    }
    (best, result.expect("at least one repeat"))
}

fn assert_hits_match(
    scene: &str,
    mode: &str,
    expected: &[Option<TraversalHit>],
    got: &[Option<TraversalHit>],
) {
    assert_eq!(expected.len(), got.len(), "{scene}/{mode}: ray count");
    for (i, (e, g)) in expected.iter().zip(got).enumerate() {
        match (e, g) {
            (None, None) => {}
            (Some(e), Some(g)) => {
                assert!(
                    e.primitive == g.primitive && e.t.to_bits() == g.t.to_bits(),
                    "{scene}/{mode}: ray {i} diverged ({e:?} vs {g:?})"
                );
            }
            other => panic!("{scene}/{mode}: ray {i} diverged ({other:?})"),
        }
    }
}

/// Runs the full baseline suite.
///
/// `rays_per_scene` is rounded up to a square grid.  `repeats` is the best-of count per
/// measurement, and `threads` the worker count for the parallel mode.
#[must_use]
pub fn run_perf_suite(rays_per_scene: usize, repeats: usize, threads: usize) -> PerfBaseline {
    let config = PipelineConfig::baseline_unified();

    // Beat-level micro-benchmark.
    let requests = crate::random_ray_box_requests(1024, 11);
    let (emulated_seconds, _) = time_best_of(repeats, || {
        let mut datapath = RayFlexDatapath::new(config);
        datapath.execute_batch_emulated(&requests)
    });
    let (batched_seconds, _) = time_best_of(repeats, || {
        let mut datapath = RayFlexDatapath::new(config);
        datapath.execute_batch(&requests)
    });
    let (simd_micro_seconds, _) = time_best_of(repeats, || {
        let mut datapath = RayFlexDatapath::new(config);
        datapath.set_simd_lanes(MAX_SIMD_LANES);
        datapath.execute_batch(&requests)
    });
    let datapath = DatapathPerf {
        emulated_beats_per_sec: requests.len() as f64 / emulated_seconds,
        batched_beats_per_sec: requests.len() as f64 / batched_seconds,
        simd_beats_per_sec: requests.len() as f64 / simd_micro_seconds,
    };

    let mut scene_results = Vec::new();
    for scene in standard_perf_scenes(rays_per_scene) {
        let world = Scene::flat(scene.triangles.clone());
        let request = TraceRequest::closest_hit(&world, &scene.rays);
        let trace_with = |policy: &ExecPolicy| {
            let mut engine = TraversalEngine::with_config(config);
            engine.trace(&request, policy).into_closest()
        };
        // One untimed run on a kept engine per mode to read the lane occupancy of its kernel
        // issues (the ratio is deterministic, so the probe matches what the timed runs did).
        let occupancy_of = |policy: &ExecPolicy| {
            let mut engine = TraversalEngine::with_config(config);
            let _ = engine.trace(&request, policy);
            engine.beat_mix().simd_lane_occupancy()
        };

        // Reference run: hits and beat counts, used for correctness and the beats/sec metric.
        let mut reference = TraversalEngine::with_config(config);
        let expected = reference
            .trace(&request, &ExecPolicy::scalar())
            .into_closest();
        let beats = reference.stats().total_ops();

        let (scalar_seconds, scalar_hits) =
            time_best_of(repeats, || trace_with(&ExecPolicy::scalar()));
        assert_hits_match(scene.name, "scalar", &expected, &scalar_hits);

        // batched/simd/parallel pin the coherence layer off so these columns keep measuring
        // what they always did; `coherent` below is the only row that turns it on.
        let batched_policy = ExecPolicy::wavefront().with_coherence(CoherenceMode::Off);
        let (batched_seconds, batched_hits) = time_best_of(repeats, || trace_with(&batched_policy));
        assert_hits_match(scene.name, "batched", &expected, &batched_hits);

        let simd_policy = ExecPolicy::wavefront()
            .with_simd_lanes(MAX_SIMD_LANES)
            .with_coherence(CoherenceMode::Off);
        let (simd_seconds, simd_hits) = time_best_of(repeats, || trace_with(&simd_policy));
        assert_hits_match(scene.name, "simd", &expected, &simd_hits);

        let coherent_policy = ExecPolicy::wavefront()
            .with_simd_lanes(MAX_SIMD_LANES)
            .with_coherence(CoherenceMode::SortAndCompact);
        let (coherent_seconds, coherent_hits) =
            time_best_of(repeats, || trace_with(&coherent_policy));
        assert_hits_match(scene.name, "coherent", &expected, &coherent_hits);

        // The parallel mode inherits the lane-batched kernels: each pool worker's private
        // datapath runs at the same width the simd mode uses.
        let parallel_policy = ExecPolicy::parallel(threads)
            .with_simd_lanes(MAX_SIMD_LANES)
            .with_coherence(CoherenceMode::Off);
        let (parallel_seconds, parallel_hits) =
            time_best_of(repeats, || trace_with(&parallel_policy));
        assert_hits_match(scene.name, "parallel", &expected, &parallel_hits);

        // One extra parallel run on a kept engine to record how the work-stealing pool moved.
        let mut pool_probe = TraversalEngine::with_config(config);
        let probe_hits = pool_probe.trace(&request, &parallel_policy).into_closest();
        assert_hits_match(scene.name, "parallel-pool-probe", &expected, &probe_hits);
        let pool = pool_probe.pool_stats();

        let ray_count = scene.rays.len() as f64;
        let measurement = |mode: &'static str, seconds: f64, lane_occupancy: f64| PerfMeasurement {
            mode,
            seconds,
            rays_per_sec: ray_count / seconds,
            beats_per_sec: beats as f64 / seconds,
            speedup_vs_scalar: scalar_seconds / seconds,
            lane_occupancy,
        };
        scene_results.push(ScenePerf {
            scene: scene.name,
            triangles: scene.triangles.len() as u64,
            rays: scene.rays.len() as u64,
            beats,
            pool,
            measurements: vec![
                measurement("scalar", scalar_seconds, 0.0),
                measurement("batched", batched_seconds, occupancy_of(&batched_policy)),
                measurement("simd", simd_seconds, occupancy_of(&simd_policy)),
                measurement("coherent", coherent_seconds, occupancy_of(&coherent_policy)),
                // The sharded run's beats execute on worker-private datapaths, so the caller's
                // own mix records nothing; report the per-worker width via the simd probe.
                measurement("parallel", parallel_seconds, occupancy_of(&simd_policy)),
            ],
        });
    }

    let instancing = run_instancing_suite(rays_per_scene, repeats, config);

    PerfBaseline {
        threads,
        repeats,
        datapath,
        scenes: scene_results,
        instancing,
    }
}

/// The instancing presets of the baseline suite, lifted from the workloads crate's
/// geometry-level descriptions into two-level scenes.
fn instancing_perf_scenes() -> Vec<(&'static str, scenes::InstancedSceneDesc)> {
    vec![
        ("debris_field", scenes::debris_field(29, 4, 96, 30.0)),
        ("icosphere_crowd", scenes::icosphere_crowd(1, 6, 9.0)),
    ]
}

/// Times instanced-vs-flattened builds, memory, and trace throughput for each instancing
/// preset.  Every timed trace is first cross-checked bit-identical against the flattened
/// scalar reference — the tentpole invariant of the two-level scene refactor, re-verified on
/// every benchmark run.
fn run_instancing_suite(
    rays_per_scene: usize,
    repeats: usize,
    config: PipelineConfig,
) -> Vec<InstancingPerf> {
    let mut results = Vec::new();
    for (name, desc) in instancing_perf_scenes() {
        let blas: Vec<Blas> = desc.meshes.iter().cloned().map(Blas::new).collect();
        let placements: Vec<Instance> = desc
            .placements
            .iter()
            .map(|(mesh, transform)| Instance::new(*mesh, *transform))
            .collect();

        let (instanced_build_seconds, instanced) = time_best_of(repeats, || {
            Scene::instanced(blas.clone(), placements.clone())
        });
        // The flattened build pays for what instancing avoids: baking every placement to world
        // space and building one flat BVH over the multiplied triangle set.
        let (flattened_build_seconds, flattened) =
            time_best_of(repeats, || Scene::flat(desc.flatten()));

        let stream = rays::random_rays(
            41,
            rays_per_scene.min(2048),
            &Aabb::new(Vec3::splat(-45.0), Vec3::splat(45.0)),
        );
        let request = TraceRequest::closest_hit(&instanced, &stream);
        let flat_request = TraceRequest::closest_hit(&flattened, &stream);

        let expected = TraversalEngine::with_config(config)
            .trace(&flat_request, &ExecPolicy::scalar())
            .into_closest();

        let (scalar_seconds, scalar_hits) = time_best_of(repeats, || {
            TraversalEngine::with_config(config)
                .trace(&request, &ExecPolicy::scalar())
                .into_closest()
        });
        assert_hits_match(name, "instanced-scalar", &expected, &scalar_hits);

        // Pinned `Off` like the baseline suite's legacy rows: these numbers compare against
        // pre-coherence baselines, and the per-run sort cost does not amortize over a
        // 2048-ray instancing trace.
        let batched_policy = ExecPolicy::wavefront()
            .with_simd_lanes(MAX_SIMD_LANES)
            .with_coherence(CoherenceMode::Off);
        let (instanced_seconds, instanced_hits) = time_best_of(repeats, || {
            TraversalEngine::with_config(config)
                .trace(&request, &batched_policy)
                .into_closest()
        });
        assert_hits_match(name, "instanced-batched", &expected, &instanced_hits);

        let (flattened_seconds, flattened_hits) = time_best_of(repeats, || {
            TraversalEngine::with_config(config)
                .trace(&flat_request, &batched_policy)
                .into_closest()
        });
        assert_hits_match(name, "flattened-batched", &expected, &flattened_hits);

        let ray_count = stream.len() as f64;
        results.push(InstancingPerf {
            scene: name,
            instances: instanced.instances().len() as u64,
            placed_triangles: instanced.triangle_count() as u64,
            instanced_build_seconds,
            flattened_build_seconds,
            instanced_memory_bytes: instanced.memory_bytes() as u64,
            flattened_memory_bytes: flattened.memory_bytes() as u64,
            scalar_rays_per_sec: ray_count / scalar_seconds,
            instanced_rays_per_sec: ray_count / instanced_seconds,
            flattened_rays_per_sec: ray_count / flattened_seconds,
            speedup_vs_scalar: scalar_seconds / instanced_seconds,
        });
    }
    results
}

impl PerfBaseline {
    /// The smallest best-mode speedup over scalar across all scenes — the headline number the
    /// acceptance gate checks (best of batched/simd/coherent/parallel per scene, worst case
    /// over scenes).
    #[must_use]
    pub fn min_best_speedup(&self) -> f64 {
        self.scenes
            .iter()
            .map(|s| {
                s.speedup("batched")
                    .max(s.speedup("simd"))
                    .max(s.speedup("coherent"))
                    .max(s.speedup("parallel"))
            })
            .chain(self.instancing.iter().map(|i| i.speedup_vs_scalar))
            .fold(f64::INFINITY, f64::min)
    }

    /// Renders the machine-readable JSON baseline.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str(&format!("  \"repeats\": {},\n", self.repeats));
        out.push_str(&format!(
            "  \"datapath\": {{\"emulated_beats_per_sec\": {:.0}, \"batched_beats_per_sec\": {:.0}, \"simd_beats_per_sec\": {:.0}}},\n",
            self.datapath.emulated_beats_per_sec,
            self.datapath.batched_beats_per_sec,
            self.datapath.simd_beats_per_sec
        ));
        out.push_str(&format!(
            "  \"min_best_speedup\": {:.2},\n",
            self.min_best_speedup()
        ));
        out.push_str("  \"scenes\": [\n");
        for (i, scene) in self.scenes.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"scene\": \"{}\", \"triangles\": {}, \"rays\": {}, \"beats\": {}, \"pool\": {{\"workers\": {}, \"chunks\": {}, \"steals\": {}}}, \"modes\": [",
                scene.scene,
                scene.triangles,
                scene.rays,
                scene.beats,
                scene.pool.workers,
                scene.pool.chunks,
                scene.pool.steals
            ));
            for (j, m) in scene.measurements.iter().enumerate() {
                out.push_str(&format!(
                    "{{\"mode\": \"{}\", \"seconds\": {:.6}, \"rays_per_sec\": {:.0}, \"beats_per_sec\": {:.0}, \"speedup_vs_scalar\": {:.2}, \"simd_lane_occupancy\": {:.3}}}",
                    m.mode, m.seconds, m.rays_per_sec, m.beats_per_sec, m.speedup_vs_scalar,
                    m.lane_occupancy
                ));
                if j + 1 < scene.measurements.len() {
                    out.push_str(", ");
                }
            }
            out.push_str("]}");
            out.push_str(if i + 1 < self.scenes.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n");
        out.push_str("  \"instancing\": [\n");
        for (i, inst) in self.instancing.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"scene\": \"{}\", \"instances\": {}, \"placed_triangles\": {}, \
                 \"build\": {{\"instanced_seconds\": {:.6}, \"flattened_seconds\": {:.6}}}, \
                 \"memory\": {{\"instanced_bytes\": {}, \"flattened_bytes\": {}}}, \
                 \"trace\": {{\"scalar_rays_per_sec\": {:.0}, \"instanced_rays_per_sec\": {:.0}, \
                 \"flattened_rays_per_sec\": {:.0}, \"speedup_vs_scalar\": {:.2}}}}}",
                inst.scene,
                inst.instances,
                inst.placed_triangles,
                inst.instanced_build_seconds,
                inst.flattened_build_seconds,
                inst.instanced_memory_bytes,
                inst.flattened_memory_bytes,
                inst.scalar_rays_per_sec,
                inst.instanced_rays_per_sec,
                inst.flattened_rays_per_sec,
                inst.speedup_vs_scalar
            ));
            out.push_str(if i + 1 < self.instancing.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Renders the human-readable report.
    #[must_use]
    pub fn render_table(&self) -> String {
        use rayflex_synth::report::Table;
        let mut table = Table::new(vec![
            "scene",
            "rays",
            "beats",
            "mode",
            "time (ms)",
            "rays/s",
            "beats/s",
            "vs scalar",
            "lane occ",
        ]);
        for scene in &self.scenes {
            for m in &scene.measurements {
                table.add_row(vec![
                    scene.scene.to_string(),
                    scene.rays.to_string(),
                    scene.beats.to_string(),
                    m.mode.to_string(),
                    format!("{:.2}", m.seconds * 1e3),
                    format!("{:.0}", m.rays_per_sec),
                    format!("{:.0}", m.beats_per_sec),
                    format!("{:.2}x", m.speedup_vs_scalar),
                    format!("{:.3}", m.lane_occupancy),
                ]);
            }
        }
        let mut instancing_table = Table::new(vec![
            "preset",
            "instances",
            "placed tris",
            "build inst/flat (ms)",
            "mem inst/flat (KiB)",
            "rays/s scalar",
            "rays/s inst",
            "rays/s flat",
            "vs scalar",
        ]);
        for inst in &self.instancing {
            instancing_table.add_row(vec![
                inst.scene.to_string(),
                inst.instances.to_string(),
                inst.placed_triangles.to_string(),
                format!(
                    "{:.2} / {:.2}",
                    inst.instanced_build_seconds * 1e3,
                    inst.flattened_build_seconds * 1e3
                ),
                format!(
                    "{} / {}",
                    inst.instanced_memory_bytes / 1024,
                    inst.flattened_memory_bytes / 1024
                ),
                format!("{:.0}", inst.scalar_rays_per_sec),
                format!("{:.0}", inst.instanced_rays_per_sec),
                format!("{:.0}", inst.flattened_rays_per_sec),
                format!("{:.2}x", inst.speedup_vs_scalar),
            ]);
        }
        format!(
            "Simulator performance baseline ({} threads, best of {} runs)\n\
             Datapath micro-benchmark: {:.0} emulated beats/s vs {:.0} batched beats/s ({:.1}x) \
             vs {:.0} simd beats/s ({:.1}x)\n{}\n\
             Two-level instancing (TLAS/BLAS) vs flattened:\n{}\n\
             Minimum best-mode speedup over scalar across scenes: {:.2}x\n",
            self.threads,
            self.repeats,
            self.datapath.emulated_beats_per_sec,
            self.datapath.batched_beats_per_sec,
            self.datapath.batched_beats_per_sec / self.datapath.emulated_beats_per_sec,
            self.datapath.simd_beats_per_sec,
            self.datapath.simd_beats_per_sec / self.datapath.emulated_beats_per_sec,
            table.render(),
            instancing_table.render(),
            self.min_best_speedup(),
        )
    }
}

/// One mode of the query-engine suite: a query kind timed scalar (per-beat emulated drive loop)
/// versus batched (the generic wavefront query engine).
#[derive(Debug, Clone)]
pub struct QueryModePerf {
    /// Mode name (`render`, `shadow`, `knn`).
    pub mode: &'static str,
    /// Items processed per run (pixels, shadow rays, candidate vectors).
    pub items: u64,
    /// Datapath beats per run.
    pub beats: u64,
    /// Best-of wall time of the scalar reference, in seconds.
    pub scalar_seconds: f64,
    /// Best-of wall time of the batched query engine, in seconds.
    pub batched_seconds: f64,
    /// Best-of wall time of the batched engine with the lane-batched fast path at its maximum
    /// width, in seconds.
    pub simd_seconds: f64,
    /// `scalar_seconds / batched_seconds`.
    pub speedup: f64,
    /// `scalar_seconds / simd_seconds`.
    pub simd_speedup: f64,
    /// Lane occupancy of the simd run's lane-batched kernel issues
    /// ([`BeatMix::simd_lane_occupancy`]; 0 when the kind never batches lanes, e.g. the k-NN
    /// accumulator chain that stays on the scalar fast path).
    pub simd_lane_occupancy: f64,
}

/// The query-engine baseline document (`BENCH_query_engine.json`): how much the generic batched
/// query engine buys over scalar drive loops for every retrofitted query kind.
#[derive(Debug, Clone)]
pub struct QueryEngineBaseline {
    /// Timing repeats per measurement (best-of).
    pub repeats: usize,
    /// Per-mode measurements.
    pub modes: Vec<QueryModePerf>,
}

impl QueryEngineBaseline {
    /// The smallest batched-over-scalar speedup across modes (the acceptance gate checks this
    /// against the 3× floor).
    #[must_use]
    pub fn min_speedup(&self) -> f64 {
        self.modes
            .iter()
            .map(|m| m.speedup)
            .fold(f64::INFINITY, f64::min)
    }

    /// Renders the machine-readable JSON baseline.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"repeats\": {},\n", self.repeats));
        out.push_str(&format!("  \"min_speedup\": {:.2},\n", self.min_speedup()));
        out.push_str("  \"modes\": [\n");
        for (i, m) in self.modes.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"mode\": \"{}\", \"items\": {}, \"beats\": {}, \"scalar_seconds\": {:.6}, \"batched_seconds\": {:.6}, \"simd_seconds\": {:.6}, \"speedup\": {:.2}, \"simd_speedup\": {:.2}, \"simd_lane_occupancy\": {:.3}}}",
                m.mode, m.items, m.beats, m.scalar_seconds, m.batched_seconds, m.simd_seconds,
                m.speedup, m.simd_speedup, m.simd_lane_occupancy
            ));
            out.push_str(if i + 1 < self.modes.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Renders the human-readable report.
    #[must_use]
    pub fn render_table(&self) -> String {
        use rayflex_synth::report::Table;
        let mut table = Table::new(vec![
            "mode",
            "items",
            "beats",
            "scalar (ms)",
            "batched (ms)",
            "simd (ms)",
            "speedup",
            "simd speedup",
            "lane occ",
        ]);
        for m in &self.modes {
            table.add_row(vec![
                m.mode.to_string(),
                m.items.to_string(),
                m.beats.to_string(),
                format!("{:.2}", m.scalar_seconds * 1e3),
                format!("{:.2}", m.batched_seconds * 1e3),
                format!("{:.2}", m.simd_seconds * 1e3),
                format!("{:.2}x", m.speedup),
                format!("{:.2}x", m.simd_speedup),
                format!("{:.3}", m.simd_lane_occupancy),
            ]);
        }
        format!(
            "Query-engine baseline (best of {} runs): scalar drive loops vs the batched wavefront query engine\n{}\n\
             Minimum batched-over-scalar speedup across query kinds: {:.2}x\n",
            self.repeats,
            table.render(),
            self.min_speedup(),
        )
    }
}

/// One pass configuration of the deferred-renderer suite, timed batched versus the scalar
/// multi-pass reference.
#[derive(Debug, Clone)]
pub struct RenderPassPerf {
    /// Pass configuration name (`primary`, `shadowed`, `shadowed_ao`).
    pub pass: &'static str,
    /// Pixels per frame.
    pub pixels: u64,
    /// Total rays traced per frame across all passes (primary + shadow + AO).
    pub rays: u64,
    /// Datapath beats per frame.
    pub beats: u64,
    /// Best-of wall time of the scalar multi-pass reference frame, in seconds.
    pub scalar_seconds: f64,
    /// Best-of wall time of the batched multi-pass frame, in seconds.
    pub batched_seconds: f64,
    /// Best-of wall time of the batched frame with the lane-batched fast path at its maximum
    /// width, in seconds.
    pub simd_seconds: f64,
    /// `scalar_seconds / batched_seconds`.
    pub speedup: f64,
    /// `scalar_seconds / simd_seconds`.
    pub simd_speedup: f64,
    /// Lane occupancy of the simd frame's lane-batched kernel issues
    /// ([`BeatMix::simd_lane_occupancy`]).
    pub simd_lane_occupancy: f64,
}

/// The deferred-renderer baseline document (`BENCH_render_passes.json`): how much the batched
/// wavefront passes buy over the scalar per-pixel multi-pass reference for every render-pass
/// configuration.
#[derive(Debug, Clone)]
pub struct RenderPassBaseline {
    /// Timing repeats per measurement (best-of).
    pub repeats: usize,
    /// Frame width in pixels.
    pub width: usize,
    /// Frame height in pixels.
    pub height: usize,
    /// Per-pass-configuration measurements.
    pub passes: Vec<RenderPassPerf>,
}

impl RenderPassBaseline {
    /// The smallest batched-over-scalar speedup across pass configurations (the acceptance gate
    /// checks this against the 3× floor).
    #[must_use]
    pub fn min_speedup(&self) -> f64 {
        self.passes
            .iter()
            .map(|p| p.speedup)
            .fold(f64::INFINITY, f64::min)
    }

    /// Renders the machine-readable JSON baseline.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"repeats\": {},\n", self.repeats));
        out.push_str(&format!(
            "  \"frame\": {{\"width\": {}, \"height\": {}}},\n",
            self.width, self.height
        ));
        out.push_str(&format!("  \"min_speedup\": {:.2},\n", self.min_speedup()));
        out.push_str("  \"passes\": [\n");
        for (i, p) in self.passes.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"pass\": \"{}\", \"pixels\": {}, \"rays\": {}, \"beats\": {}, \"scalar_seconds\": {:.6}, \"batched_seconds\": {:.6}, \"simd_seconds\": {:.6}, \"speedup\": {:.2}, \"simd_speedup\": {:.2}, \"simd_lane_occupancy\": {:.3}}}",
                p.pass, p.pixels, p.rays, p.beats, p.scalar_seconds, p.batched_seconds,
                p.simd_seconds, p.speedup, p.simd_speedup, p.simd_lane_occupancy
            ));
            out.push_str(if i + 1 < self.passes.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Renders the human-readable report.
    #[must_use]
    pub fn render_table(&self) -> String {
        use rayflex_synth::report::Table;
        let mut table = Table::new(vec![
            "pass",
            "pixels",
            "rays",
            "beats",
            "scalar (ms)",
            "batched (ms)",
            "simd (ms)",
            "speedup",
            "simd speedup",
            "lane occ",
        ]);
        for p in &self.passes {
            table.add_row(vec![
                p.pass.to_string(),
                p.pixels.to_string(),
                p.rays.to_string(),
                p.beats.to_string(),
                format!("{:.2}", p.scalar_seconds * 1e3),
                format!("{:.2}", p.batched_seconds * 1e3),
                format!("{:.2}", p.simd_seconds * 1e3),
                format!("{:.2}x", p.speedup),
                format!("{:.2}x", p.simd_speedup),
                format!("{:.3}", p.simd_lane_occupancy),
            ]);
        }
        format!(
            "Deferred-render baseline ({}x{} frame, best of {} runs): scalar multi-pass reference vs batched wavefront passes\n{}\n\
             Minimum batched-over-scalar speedup across pass configurations: {:.2}x\n",
            self.width,
            self.height,
            self.repeats,
            table.render(),
            self.min_speedup(),
        )
    }
}

fn assert_frames_match(pass: &str, expected: &Image, got: &Image) {
    assert_eq!(
        expected.first_mismatch(got),
        None,
        "{pass}: batched frame diverged from the reference"
    );
}

/// Runs the deferred-renderer suite: times the scalar multi-pass reference against the batched
/// wavefront passes for the primary-only, shadowed and shadowed+AO configurations on the lit
/// scene, cross-checking that each pair produces bit-identical frames (and identical traversal
/// statistics) before timing anything.
///
/// `pixels_per_frame` is rounded up to a square frame.  `repeats` is the best-of count per
/// measurement.
#[must_use]
pub fn run_render_pass_suite(pixels_per_frame: usize, repeats: usize) -> RenderPassBaseline {
    let side = (pixels_per_frame.max(4) as f64).sqrt().ceil() as usize;
    let (width, height) = (side, side);
    let config = PipelineConfig::baseline_unified();
    let scene = scenes::lit_scene(2, 24.0);
    let world = Scene::flat(scene.triangles.clone());
    let camera = Camera::looking_at(scene.eye, scene.target);

    let shadowed = RenderPasses::shadowed(scene.light);
    let with_ao = shadowed.with_ambient_occlusion(4, 6.0, 2024);
    let pass_configs: [(&'static str, Option<RenderPasses>); 3] = [
        ("primary", None),
        ("shadowed", Some(shadowed)),
        ("shadowed_ao", Some(with_ao)),
    ];

    let mut passes = Vec::new();
    for (name, pass) in pass_configs {
        let frame = match pass {
            None => FrameDesc::primary(camera, width, height),
            Some(p) => FrameDesc::deferred(camera, width, height, p),
        };
        let scalar_frame =
            |renderer: &mut Renderer| renderer.render(&world, &frame, &ExecPolicy::scalar());
        let batched_frame =
            |renderer: &mut Renderer| renderer.render(&world, &frame, &ExecPolicy::wavefront());
        let simd_frame = |renderer: &mut Renderer| {
            renderer.render(
                &world,
                &frame,
                &ExecPolicy::wavefront().with_simd_lanes(MAX_SIMD_LANES),
            )
        };

        // Reference run: the expected frame, rays and beat counts, then the bit-identity
        // cross-check of the batched and simd frames (pixels *and* statistics).
        let mut reference = Renderer::with_config(config);
        let expected = scalar_frame(&mut reference);
        let reference_stats = reference.stats();
        let mut batched = Renderer::with_config(config);
        let image = batched_frame(&mut batched);
        assert_frames_match(name, &expected, &image);
        assert_eq!(
            batched.stats(),
            reference_stats,
            "{name}: batched TraversalStats diverged from the reference"
        );
        let mut simd = Renderer::with_config(config);
        let simd_image = simd_frame(&mut simd);
        assert_frames_match(name, &expected, &simd_image);
        assert_eq!(
            simd.stats(),
            reference_stats,
            "{name}: simd TraversalStats diverged from the reference"
        );
        let simd_lane_occupancy = simd.beat_mix().simd_lane_occupancy();

        let (scalar_seconds, _) = time_best_of(repeats, || {
            let mut renderer = Renderer::with_config(config);
            scalar_frame(&mut renderer)
        });
        let (batched_seconds, _) = time_best_of(repeats, || {
            let mut renderer = Renderer::with_config(config);
            batched_frame(&mut renderer)
        });
        let (simd_seconds, _) = time_best_of(repeats, || {
            let mut renderer = Renderer::with_config(config);
            simd_frame(&mut renderer)
        });
        passes.push(RenderPassPerf {
            pass: name,
            pixels: (width * height) as u64,
            rays: reference_stats.rays,
            beats: reference_stats.total_ops(),
            scalar_seconds,
            batched_seconds,
            simd_seconds,
            speedup: scalar_seconds / batched_seconds,
            simd_speedup: scalar_seconds / simd_seconds,
            simd_lane_occupancy,
        });
    }

    RenderPassBaseline {
        repeats,
        width,
        height,
        passes,
    }
}

/// Per-beat emulated Euclidean scoring of a candidate set — the pre-refactor scalar k-NN drive
/// loop, kept here as the timing/correctness reference (the library itself only has the batched
/// path).
fn emulated_knn_distances(
    datapath: &mut RayFlexDatapath,
    query: &[f32],
    dataset: &[Vec<f32>],
) -> Vec<f32> {
    dataset
        .iter()
        .map(|candidate| {
            assert_eq!(query.len(), candidate.len());
            let mut result = 0.0;
            let mut offset = 0;
            while offset < query.len() || offset == 0 {
                let lanes = (query.len() - offset).min(EUCLIDEAN_LANES);
                let mut beat_a = [0.0f32; EUCLIDEAN_LANES];
                let mut beat_b = [0.0f32; EUCLIDEAN_LANES];
                beat_a[..lanes].copy_from_slice(&query[offset..offset + lanes]);
                beat_b[..lanes].copy_from_slice(&candidate[offset..offset + lanes]);
                let mask = if lanes == EUCLIDEAN_LANES {
                    u16::MAX
                } else {
                    (1u16 << lanes) - 1
                };
                let last = offset + lanes >= query.len();
                let response =
                    datapath.execute(&RayFlexRequest::euclidean(0, beat_a, beat_b, mask, last));
                let distance = response.distance_result.expect("euclidean beat");
                if last {
                    result = distance.euclidean_accumulator;
                    break;
                }
                offset += lanes;
            }
            result
        })
        .collect()
}

/// Runs the query-engine suite: times the scalar and batched execution of the render, shadow and
/// k-NN query kinds and cross-checks that both produce bit-identical results before timing
/// anything.
///
/// `items_per_mode` sizes each mode (pixels per frame, shadow rays, candidate vectors); it is
/// rounded up to a square grid where a grid is needed.
#[must_use]
pub fn run_query_engine_suite(items_per_mode: usize, repeats: usize) -> QueryEngineBaseline {
    let side = (items_per_mode.max(4) as f64).sqrt().ceil() as usize;
    let mut modes = Vec::new();

    // --- render: one batched primary-ray stream per frame vs per-pixel scalar traversal. ---
    {
        let config = PipelineConfig::baseline_unified();
        let triangles = scenes::icosphere(3, 5.0, Vec3::new(0.0, 0.0, 20.0));
        let world = Scene::flat(triangles.clone());
        let camera = Camera::looking_at(Vec3::ZERO, Vec3::new(0.0, 0.0, 20.0));
        let (width, height) = (side, side);
        let light_dir = default_light_dir();

        // Ray generation stays inside the timed closure so both modes pay it: the batched
        // measurement (Renderer::render) generates the frame rays inside its timed region too.
        let scalar_frame = |engine: &mut TraversalEngine| -> Vec<f32> {
            let frame_rays = camera.primary_rays(width, height);
            engine
                .trace(
                    &TraceRequest::closest_hit(&world, &frame_rays),
                    &ExecPolicy::scalar(),
                )
                .into_closest()
                .iter()
                .map(|hit| shade(&triangles, light_dir, hit.as_ref()))
                .collect()
        };

        // Reference run for beats and the bit-identity cross-check.
        let mut reference = TraversalEngine::with_config(config);
        let expected = scalar_frame(&mut reference);
        let beats = reference.stats().total_ops();

        let (scalar_seconds, _) = time_best_of(repeats, || {
            let mut engine = TraversalEngine::with_config(config);
            scalar_frame(&mut engine)
        });
        let (batched_seconds, image) = time_best_of(repeats, || {
            let mut renderer = Renderer::with_config(config);
            renderer.render(
                &world,
                &FrameDesc::primary(camera, width, height),
                &ExecPolicy::wavefront(),
            )
        });
        let (simd_seconds, simd_image) = time_best_of(repeats, || {
            let mut renderer = Renderer::with_config(config);
            renderer.render(
                &world,
                &FrameDesc::primary(camera, width, height),
                &ExecPolicy::wavefront().with_simd_lanes(MAX_SIMD_LANES),
            )
        });
        for y in 0..height {
            for x in 0..width {
                assert_eq!(
                    image.pixel(x, y).to_bits(),
                    expected[y * width + x].to_bits(),
                    "render: pixel ({x}, {y}) diverged"
                );
                assert_eq!(
                    simd_image.pixel(x, y).to_bits(),
                    expected[y * width + x].to_bits(),
                    "render/simd: pixel ({x}, {y}) diverged"
                );
            }
        }
        // One untimed simd frame on a kept renderer to read the lane occupancy the timed
        // runs achieved (the ratio is deterministic).
        let mut occupancy_probe = Renderer::with_config(config);
        occupancy_probe.render(
            &world,
            &FrameDesc::primary(camera, width, height),
            &ExecPolicy::wavefront().with_simd_lanes(MAX_SIMD_LANES),
        );
        modes.push(QueryModePerf {
            mode: "render",
            items: (width * height) as u64,
            beats,
            scalar_seconds,
            batched_seconds,
            simd_seconds,
            speedup: scalar_seconds / batched_seconds,
            simd_speedup: scalar_seconds / simd_seconds,
            simd_lane_occupancy: occupancy_probe.beat_mix().simd_lane_occupancy(),
        });
    }

    // --- shadow: any-hit wavefront vs scalar any-hit over a soft-shadow scene. ---
    {
        let config = PipelineConfig::baseline_unified();
        let triangles = scenes::soft_shadow(3, 24.0);
        let world = Scene::flat(triangles.clone());
        let light = Vec3::new(0.0, 20.0, 0.0);
        let shadow_rays = rays::floor_shadow_rays(side, side, 24.0, 0.0, light);

        let request = TraceRequest::any_hit(&world, &shadow_rays);
        let mut reference = TraversalEngine::with_config(config);
        let expected = reference.trace(&request, &ExecPolicy::scalar()).into_any();
        let beats = reference.stats().total_ops();

        let (scalar_seconds, scalar_hits) = time_best_of(repeats, || {
            let mut engine = TraversalEngine::with_config(config);
            engine.trace(&request, &ExecPolicy::scalar()).into_any()
        });
        assert_hits_match("soft_shadow", "scalar", &expected, &scalar_hits);
        let (batched_seconds, batched_hits) = time_best_of(repeats, || {
            let mut engine = TraversalEngine::with_config(config);
            engine.trace(&request, &ExecPolicy::wavefront()).into_any()
        });
        assert_hits_match("soft_shadow", "batched", &expected, &batched_hits);
        let (simd_seconds, simd_hits) = time_best_of(repeats, || {
            let mut engine = TraversalEngine::with_config(config);
            engine
                .trace(
                    &request,
                    &ExecPolicy::wavefront().with_simd_lanes(MAX_SIMD_LANES),
                )
                .into_any()
        });
        assert_hits_match("soft_shadow", "simd", &expected, &simd_hits);
        assert!(
            expected.iter().any(Option::is_some) && expected.iter().any(Option::is_none),
            "the soft-shadow scene must mix occluded and open rays"
        );
        let mut occupancy_probe = TraversalEngine::with_config(config);
        let _ = occupancy_probe.trace(
            &request,
            &ExecPolicy::wavefront().with_simd_lanes(MAX_SIMD_LANES),
        );
        modes.push(QueryModePerf {
            mode: "shadow",
            items: shadow_rays.len() as u64,
            beats,
            scalar_seconds,
            batched_seconds,
            simd_seconds,
            speedup: scalar_seconds / batched_seconds,
            simd_speedup: scalar_seconds / simd_seconds,
            simd_lane_occupancy: occupancy_probe.beat_mix().simd_lane_occupancy(),
        });
    }

    // --- knn: batched distance scoring vs the per-beat emulated candidate loop. ---
    {
        let config = PipelineConfig::extended_unified();
        let dataset = vectors::clustered_dataset(2024, items_per_mode.max(4), 24, 8, 4.0);
        let query = dataset.vectors[0].clone();

        let mut reference_dp = RayFlexDatapath::new(config);
        let expected = emulated_knn_distances(&mut reference_dp, &query, &dataset.vectors);
        // What the reference run actually issued — stays correct if the dataset shape changes.
        let beats = reference_dp.executed_beats();

        let (scalar_seconds, scalar_distances) = time_best_of(repeats, || {
            let mut datapath = RayFlexDatapath::new(config);
            emulated_knn_distances(&mut datapath, &query, &dataset.vectors)
        });
        let (batched_seconds, batched_distances) = time_best_of(repeats, || {
            let mut engine = KnnEngine::with_config(config);
            engine.distances(
                &query,
                &dataset.vectors,
                KnnMetric::Euclidean,
                &ExecPolicy::wavefront(),
            )
        });
        // Distance beats carry a serial accumulator chain, so the lane kernels leave them on
        // the scalar fast path — the simd column records that the knob is output-neutral here.
        let (simd_seconds, simd_distances) = time_best_of(repeats, || {
            let mut engine = KnnEngine::with_config(config);
            engine.distances(
                &query,
                &dataset.vectors,
                KnnMetric::Euclidean,
                &ExecPolicy::wavefront().with_simd_lanes(MAX_SIMD_LANES),
            )
        });
        for (i, (e, g)) in expected
            .iter()
            .zip(&scalar_distances)
            .chain(expected.iter().zip(&batched_distances))
            .chain(expected.iter().zip(&simd_distances))
            .enumerate()
        {
            assert_eq!(
                e.to_bits(),
                g.to_bits(),
                "knn: candidate {} diverged",
                i % expected.len()
            );
        }
        let mut occupancy_probe = KnnEngine::with_config(config);
        let _ = occupancy_probe.distances(
            &query,
            &dataset.vectors,
            KnnMetric::Euclidean,
            &ExecPolicy::wavefront().with_simd_lanes(MAX_SIMD_LANES),
        );
        modes.push(QueryModePerf {
            mode: "knn",
            items: dataset.vectors.len() as u64,
            beats,
            scalar_seconds,
            batched_seconds,
            simd_seconds,
            speedup: scalar_seconds / batched_seconds,
            simd_speedup: scalar_seconds / simd_seconds,
            simd_lane_occupancy: occupancy_probe.beat_mix().simd_lane_occupancy(),
        });
    }

    QueryEngineBaseline { repeats, modes }
}

/// One execution mode of the fused suite, timed over the whole mixed workload.
#[derive(Debug, Clone)]
pub struct FusedModePerf {
    /// Mode name (`scalar`, `sequential`, `fused`, `simd`, `coherent`).
    pub mode: &'static str,
    /// Best-of wall time for all four streams, in seconds.
    pub seconds: f64,
    /// Throughput relative to the scalar mode.
    pub speedup_vs_scalar: f64,
    /// Lane occupancy of this mode's lane-batched kernel issues
    /// ([`BeatMix::simd_lane_occupancy`]; 0 for the scalar and width-1 modes).
    pub lane_occupancy: f64,
}

/// One row of the fused per-kind × per-opcode mix table.
#[derive(Debug, Clone)]
pub struct FusedMixRow {
    /// Query kind owning the beats.
    pub kind: QueryKind,
    /// Beats per opcode, in [`Opcode::ALL`] order.
    pub counts: [u64; Opcode::ALL.len()],
}

/// The stream names of the mixed workload, in admission order (also the order of
/// [`FusedBudgetPerf::stream_passes`]).
pub const MIXED_STREAM_NAMES: [&str; 4] = ["closest", "shadow", "distance", "collect"];

/// One point of the beat-budget fairness sweep: the fused mixed workload re-run under a
/// per-stream admission budget, with the pass structure it produced.  Outputs are bit-identical
/// at every budget (asserted before recording); only the pass shape — and therefore the
/// QoS/fairness cost — moves.
#[derive(Debug, Clone)]
pub struct FusedBudgetPerf {
    /// The per-stream beat budget (`0` = unlimited, `1` = strict round-robin).
    pub beat_budget_per_stream: usize,
    /// Bulk passes the budgeted fused run dispatched.
    pub passes: u64,
    /// Passes each stream contributed at least one beat to, in [`MIXED_STREAM_NAMES`] order.
    pub stream_passes: [u64; 4],
    /// Best-of wall time of the budgeted fused run, in seconds.
    pub seconds: f64,
}

/// The fused-scheduler baseline document (`BENCH_fused.json`): the mixed multi-workload
/// (closest-hit render stream + any-hit shadow stream + k-NN scoring + radius-query candidate
/// collection) executed scalar, sequential-batched and fused over one extended datapath, plus
/// the per-kind × per-opcode beat mix of the fused run and the beat-budget fairness sweep.
#[derive(Debug, Clone)]
pub struct FusedBaseline {
    /// Timing repeats per measurement (best-of).
    pub repeats: usize,
    /// Rays in the closest-hit stream.
    pub primary_rays: u64,
    /// Rays in the shadow stream.
    pub shadow_rays: u64,
    /// Candidate vectors scored.
    pub candidates: u64,
    /// Radius queries filtered.
    pub radius_queries: u64,
    /// Bulk passes of the fused run.
    pub passes: u64,
    /// Passes of the fused run that interleaved at least two query kinds.
    pub fused_passes: u64,
    /// Per-mode measurements.
    pub modes: Vec<FusedModePerf>,
    /// The fused run's per-kind × per-opcode beat attribution.
    pub mix: Vec<FusedMixRow>,
    /// The beat-budget fairness sweep (budgets 0, 1 and 4 over the same workload).
    pub budget_sweep: Vec<FusedBudgetPerf>,
}

impl FusedBaseline {
    /// The fused-over-scalar speedup on the mixed workload (the acceptance gate checks this
    /// against the 3× floor).
    #[must_use]
    pub fn fused_speedup(&self) -> f64 {
        self.modes
            .iter()
            .find(|m| m.mode == "fused")
            .map_or(0.0, |m| m.speedup_vs_scalar)
    }

    /// Renders the machine-readable JSON baseline.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"repeats\": {},\n", self.repeats));
        out.push_str(&format!(
            "  \"workload\": {{\"primary_rays\": {}, \"shadow_rays\": {}, \"candidates\": {}, \"radius_queries\": {}}},\n",
            self.primary_rays, self.shadow_rays, self.candidates, self.radius_queries
        ));
        out.push_str(&format!(
            "  \"passes\": {}, \"fused_passes\": {},\n",
            self.passes, self.fused_passes
        ));
        out.push_str(&format!(
            "  \"min_speedup\": {:.2},\n",
            self.fused_speedup()
        ));
        out.push_str("  \"modes\": [\n");
        for (i, m) in self.modes.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"mode\": \"{}\", \"seconds\": {:.6}, \"speedup_vs_scalar\": {:.2}, \"simd_lane_occupancy\": {:.3}}}",
                m.mode, m.seconds, m.speedup_vs_scalar, m.lane_occupancy
            ));
            out.push_str(if i + 1 < self.modes.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n  \"mix\": [\n");
        for (i, row) in self.mix.iter().enumerate() {
            out.push_str(&format!("    {{\"kind\": \"{}\"", row.kind));
            for (opcode, count) in Opcode::ALL.iter().zip(row.counts) {
                out.push_str(&format!(", \"{opcode}\": {count}"));
            }
            out.push('}');
            out.push_str(if i + 1 < self.mix.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n  \"budget_sweep\": [\n");
        for (i, point) in self.budget_sweep.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"beat_budget_per_stream\": {}, \"passes\": {}, \"seconds\": {:.6}, \"stream_passes\": {{",
                point.beat_budget_per_stream, point.passes, point.seconds
            ));
            for (j, (name, passes)) in MIXED_STREAM_NAMES
                .iter()
                .zip(point.stream_passes)
                .enumerate()
            {
                out.push_str(&format!("\"{name}\": {passes}"));
                if j + 1 < MIXED_STREAM_NAMES.len() {
                    out.push_str(", ");
                }
            }
            out.push_str("}}");
            out.push_str(if i + 1 < self.budget_sweep.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Renders the human-readable report, including the fused mix table.
    #[must_use]
    pub fn render_table(&self) -> String {
        use rayflex_synth::report::Table;
        let mut table = Table::new(vec!["mode", "time (ms)", "vs scalar", "lane occ"]);
        for m in &self.modes {
            table.add_row(vec![
                m.mode.to_string(),
                format!("{:.2}", m.seconds * 1e3),
                format!("{:.2}x", m.speedup_vs_scalar),
                format!("{:.3}", m.lane_occupancy),
            ]);
        }
        // Column headers come from Opcode::ALL so the cells (also in ALL order) can never drift
        // under a renamed or reordered opcode.
        let mut mix_headers = vec!["kind".to_string()];
        mix_headers.extend(Opcode::ALL.iter().map(ToString::to_string));
        mix_headers.push("total".to_string());
        let mut mix = Table::new(mix_headers);
        for row in &self.mix {
            let mut cells = vec![row.kind.to_string()];
            cells.extend(row.counts.iter().map(u64::to_string));
            cells.push(row.counts.iter().sum::<u64>().to_string());
            mix.add_row(cells);
        }
        let mut budget_headers = vec!["beat budget".to_string(), "passes".to_string()];
        budget_headers.extend(
            MIXED_STREAM_NAMES
                .iter()
                .map(|name| format!("{name} passes")),
        );
        budget_headers.push("time (ms)".to_string());
        let mut budget = Table::new(budget_headers);
        for point in &self.budget_sweep {
            let mut cells = vec![
                if point.beat_budget_per_stream == 0 {
                    "unlimited".to_string()
                } else {
                    point.beat_budget_per_stream.to_string()
                },
                point.passes.to_string(),
            ];
            cells.extend(point.stream_passes.iter().map(u64::to_string));
            cells.push(format!("{:.2}", point.seconds * 1e3));
            budget.add_row(cells);
        }
        format!(
            "Fused-scheduler baseline (best of {} runs): mixed workload ({} primary + {} shadow rays, \
             {} candidates, {} radius queries) scalar vs sequential-batched vs fused\n{}\n\
             Fused mix: {} bulk passes, {} mixing at least two query kinds\n{}\n\
             Beat-budget fairness sweep (outputs bit-identical at every budget):\n{}\n\
             Fused-over-scalar speedup on the mixed workload: {:.2}x\n",
            self.repeats,
            self.primary_rays,
            self.shadow_rays,
            self.candidates,
            self.radius_queries,
            table.render(),
            self.passes,
            self.fused_passes,
            mix.render(),
            budget.render(),
            self.fused_speedup(),
        )
    }
}

/// The per-stream outputs of one mixed-workload execution, for the bit-identity cross-checks.
struct MixedOutputs {
    closest: Vec<Option<TraversalHit>>,
    shadow: Vec<Option<TraversalHit>>,
    distances: Vec<f32>,
    candidates: Vec<Vec<usize>>,
}

/// Runs the four streams of the mixed workload over one extended datapath through the fused
/// scheduler — all four merged into shared passes when `fuse` is true (under the given
/// per-stream beat budget), one stream at a time (sequential batched scheduling) when false.
/// `coherence` sets the admission discipline of the two traversal streams (the distance and
/// collect streams have no ray octants to sort).  Returns the outputs, the datapath's beat mix,
/// the pass count and the per-stream pass counts of the (fused) run.
fn run_mixed_batched(
    workload: &mixed::MixedWorkload,
    world: &Scene,
    sphere_bvh: &Bvh4,
    fuse: bool,
    beat_budget_per_stream: usize,
    simd_lanes: usize,
    coherence: CoherenceMode,
) -> (MixedOutputs, BeatMix, u64, [u64; 4]) {
    let mut datapath = RayFlexDatapath::new(PipelineConfig::extended_unified());
    datapath.set_simd_lanes(simd_lanes);
    let mut scheduler = FusedScheduler::new().with_beat_budget(beat_budget_per_stream);
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
    let mut stream_passes = [0u64; 4];
    if fuse {
        scheduler.run(
            &mut datapath,
            &mut [&mut closest, &mut shadow, &mut distance, &mut collect],
        );
        stream_passes.copy_from_slice(scheduler.last_run_stream_passes());
    } else {
        scheduler.run(&mut datapath, &mut [&mut closest]);
        scheduler.run(&mut datapath, &mut [&mut shadow]);
        scheduler.run(&mut datapath, &mut [&mut distance]);
        scheduler.run(&mut datapath, &mut [&mut collect]);
    }
    let passes = scheduler.last_run_passes();
    let outputs = MixedOutputs {
        closest: closest.finish().0,
        shadow: shadow.finish().0,
        distances: distance.finish().0,
        candidates: collect.finish().0,
    };
    (outputs, datapath.beat_mix(), passes, stream_passes)
}

/// The scalar reference of the mixed workload: per-ray traversal loops, the per-beat emulated
/// k-NN candidate loop, and a per-beat scalar BVH filter walk.
fn run_mixed_scalar(
    workload: &mixed::MixedWorkload,
    world: &Scene,
    sphere_bvh: &Bvh4,
) -> MixedOutputs {
    let mut engine = TraversalEngine::with_config(PipelineConfig::extended_unified());
    let closest = engine
        .trace(
            &TraceRequest::closest_hit(world, &workload.primary_rays),
            &ExecPolicy::scalar(),
        )
        .into_closest();
    let shadow = engine
        .trace(
            &TraceRequest::any_hit(world, &workload.shadow_rays),
            &ExecPolicy::scalar(),
        )
        .into_any();
    let mut datapath = RayFlexDatapath::new(PipelineConfig::extended_unified());
    let distances =
        emulated_knn_distances(&mut datapath, &workload.query_vector, &workload.candidates);
    let candidates = workload
        .radius_queries
        .iter()
        .map(|&(query, radius)| scalar_collect_walk(&mut datapath, sphere_bvh, query, radius))
        .collect();
    MixedOutputs {
        closest,
        shadow,
        distances,
        candidates,
    }
}

/// The pre-refactor scalar hierarchy filter, kept here as the timing/correctness reference: one
/// emulated `execute` call per ray–box beat while walking the sphere BVH.
fn scalar_collect_walk(
    datapath: &mut RayFlexDatapath,
    bvh: &Bvh4,
    query: Vec3,
    radius: f32,
) -> Vec<usize> {
    let ray = Ray::with_extent(
        query - Vec3::new(radius, 0.0, 0.0),
        Vec3::new(1.0, 0.0, 0.0),
        0.0,
        2.0 * radius,
    );
    let mut found = Vec::new();
    let mut stack = vec![bvh.root()];
    while let Some(child) = stack.pop() {
        let Some(index) = child.node_index() else {
            found.extend(bvh.leaf_primitives(child).iter().map(|&id| id as usize));
            continue;
        };
        let node = bvh.node(index);
        let boxes = core::array::from_fn(|i| {
            if node.child_bounds[i].is_empty() {
                Aabb::new(Vec3::splat(f32::MAX), Vec3::splat(f32::MAX))
            } else {
                node.child_bounds[i].inflated(radius)
            }
        });
        let result = datapath
            .execute(&RayFlexRequest::ray_box(0, &ray, &boxes))
            .box_result
            .expect("box beat");
        for (slot, &child) in node.children.iter().enumerate() {
            if result.hit[slot] && !child.is_empty() {
                stack.push(child);
            }
        }
    }
    found
}

fn assert_mixed_outputs_match(mode: &str, expected: &MixedOutputs, got: &MixedOutputs) {
    assert_hits_match(
        "mixed",
        &format!("{mode}/closest"),
        &expected.closest,
        &got.closest,
    );
    assert_hits_match(
        "mixed",
        &format!("{mode}/shadow"),
        &expected.shadow,
        &got.shadow,
    );
    assert_eq!(
        expected.distances.len(),
        got.distances.len(),
        "mixed/{mode}: candidate count"
    );
    for (i, (e, g)) in expected.distances.iter().zip(&got.distances).enumerate() {
        assert_eq!(
            e.to_bits(),
            g.to_bits(),
            "mixed/{mode}: candidate {i} diverged"
        );
    }
    assert_eq!(
        expected.candidates, got.candidates,
        "mixed/{mode}: collected candidates diverged"
    );
}

/// Runs the fused suite: executes the mixed workload scalar, sequential-batched, **fused** (all
/// four query kinds sharing bulk passes over one extended datapath), **simd** (the fused
/// discipline with the lane-batched fast path at its maximum width) and **coherent** (the simd
/// discipline with octant-sorted, lane-compacted admission on the traversal streams),
/// cross-checks that all modes produce bit-identical per-stream outputs first, then times each
/// mode and captures the fused run's per-kind × per-opcode beat mix.
///
/// `items_per_mode` sizes the workload (rays per traversal stream, candidate vectors).
///
/// # Panics
///
/// Panics if any mode's outputs diverge from the scalar reference, or if the fused run fails to
/// interleave at least two query kinds in one pass.
#[must_use]
pub fn run_fused_suite(items_per_mode: usize, repeats: usize) -> FusedBaseline {
    let workload = mixed::mixed_workload(2024, items_per_mode.max(4));
    let world = Scene::flat(workload.triangles.clone());
    let spheres: Vec<Sphere> = workload
        .points
        .iter()
        .map(|&p| Sphere::new(p, workload.point_radius))
        .collect();
    let sphere_bvh = Bvh4::build(&spheres);

    // Cross-check: all modes agree per stream, bit for bit, before timing anything.  The
    // sequential/fused/simd modes pin the coherence layer off to keep their columns comparable
    // with earlier baselines; `coherent` is the simd discipline with sorted-and-compacted
    // admission on the two traversal streams.
    let expected = run_mixed_scalar(&workload, &world, &sphere_bvh);
    let (sequential_outputs, _, _, _) = run_mixed_batched(
        &workload,
        &world,
        &sphere_bvh,
        false,
        0,
        1,
        CoherenceMode::Off,
    );
    assert_mixed_outputs_match("sequential", &expected, &sequential_outputs);
    let (fused_outputs, fused_mix, fused_pass_count, fused_stream_passes) = run_mixed_batched(
        &workload,
        &world,
        &sphere_bvh,
        true,
        0,
        1,
        CoherenceMode::Off,
    );
    assert_mixed_outputs_match("fused", &expected, &fused_outputs);
    let (simd_outputs, simd_mix, _, _) = run_mixed_batched(
        &workload,
        &world,
        &sphere_bvh,
        true,
        0,
        MAX_SIMD_LANES,
        CoherenceMode::Off,
    );
    assert_mixed_outputs_match("simd", &expected, &simd_outputs);
    let (coherent_outputs, coherent_mix, _, _) = run_mixed_batched(
        &workload,
        &world,
        &sphere_bvh,
        true,
        0,
        MAX_SIMD_LANES,
        CoherenceMode::SortAndCompact,
    );
    assert_mixed_outputs_match("coherent", &expected, &coherent_outputs);
    assert!(
        fused_mix.fused_passes() > 0,
        "the fused run must interleave at least two query kinds in one pass"
    );

    let (scalar_seconds, _) =
        time_best_of(repeats, || run_mixed_scalar(&workload, &world, &sphere_bvh));
    let (sequential_seconds, _) = time_best_of(repeats, || {
        run_mixed_batched(
            &workload,
            &world,
            &sphere_bvh,
            false,
            0,
            1,
            CoherenceMode::Off,
        )
    });
    let (fused_seconds, _) = time_best_of(repeats, || {
        run_mixed_batched(
            &workload,
            &world,
            &sphere_bvh,
            true,
            0,
            1,
            CoherenceMode::Off,
        )
    });
    let (simd_seconds, _) = time_best_of(repeats, || {
        run_mixed_batched(
            &workload,
            &world,
            &sphere_bvh,
            true,
            0,
            MAX_SIMD_LANES,
            CoherenceMode::Off,
        )
    });
    let (coherent_seconds, _) = time_best_of(repeats, || {
        run_mixed_batched(
            &workload,
            &world,
            &sphere_bvh,
            true,
            0,
            MAX_SIMD_LANES,
            CoherenceMode::SortAndCompact,
        )
    });

    // Beat-budget fairness sweep: the same fused workload under per-stream admission budgets.
    // Every budgeted run is cross-checked bit-identical first, so the recorded pass counts
    // measure pure fairness cost.  Budget 0 *is* the plain fused run measured above — its
    // cross-checked pass counts and best-of timing are reused rather than re-run.
    let budget_sweep = [0usize, 1, 4]
        .into_iter()
        .map(|budget| {
            if budget == 0 {
                return FusedBudgetPerf {
                    beat_budget_per_stream: 0,
                    passes: fused_pass_count,
                    stream_passes: fused_stream_passes,
                    seconds: fused_seconds,
                };
            }
            let (outputs, _, passes, stream_passes) = run_mixed_batched(
                &workload,
                &world,
                &sphere_bvh,
                true,
                budget,
                1,
                CoherenceMode::Off,
            );
            assert_mixed_outputs_match(&format!("fused-budget-{budget}"), &expected, &outputs);
            let (seconds, _) = time_best_of(repeats, || {
                run_mixed_batched(
                    &workload,
                    &world,
                    &sphere_bvh,
                    true,
                    budget,
                    1,
                    CoherenceMode::Off,
                )
            });
            FusedBudgetPerf {
                beat_budget_per_stream: budget,
                passes,
                stream_passes,
                seconds,
            }
        })
        .collect();

    let measurement = |mode: &'static str, seconds: f64, lane_occupancy: f64| FusedModePerf {
        mode,
        seconds,
        speedup_vs_scalar: scalar_seconds / seconds,
        lane_occupancy,
    };
    FusedBaseline {
        repeats,
        primary_rays: workload.primary_rays.len() as u64,
        shadow_rays: workload.shadow_rays.len() as u64,
        candidates: workload.candidates.len() as u64,
        radius_queries: workload.radius_queries.len() as u64,
        passes: fused_mix.passes(),
        fused_passes: fused_mix.fused_passes(),
        modes: vec![
            measurement("scalar", scalar_seconds, 0.0),
            measurement("sequential", sequential_seconds, 0.0),
            measurement("fused", fused_seconds, 0.0),
            measurement("simd", simd_seconds, simd_mix.simd_lane_occupancy()),
            measurement(
                "coherent",
                coherent_seconds,
                coherent_mix.simd_lane_occupancy(),
            ),
        ],
        mix: QueryKind::ALL
            .iter()
            .map(|&kind| FusedMixRow {
                kind,
                counts: core::array::from_fn(|i| fused_mix.count_for(kind, Opcode::ALL[i])),
            })
            .collect(),
        budget_sweep,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_fused_suite_runs_cross_checked_and_reports_the_mix() {
        let baseline = run_fused_suite(96, 1);
        assert_eq!(baseline.modes.len(), 5);
        assert!(baseline.modes.iter().any(|m| m.mode == "simd"));
        for mode in &baseline.modes {
            assert!(mode.seconds > 0.0 && mode.speedup_vs_scalar > 0.0);
        }
        // Sorted-and-compacted admission can only fill lanes better than unsorted admission.
        let occupancy = |name: &str| {
            baseline
                .modes
                .iter()
                .find(|m| m.mode == name)
                .map_or(0.0, |m| m.lane_occupancy)
        };
        assert!(occupancy("coherent") >= occupancy("simd"));
        assert!(occupancy("simd") > 0.0);
        assert!(baseline.fused_speedup() > 0.0);
        assert!(baseline.fused_passes > 0 && baseline.passes >= baseline.fused_passes);
        // Every query kind of the mixed workload shows up in the fused mix.
        let total_for = |kind: QueryKind| {
            baseline
                .mix
                .iter()
                .find(|row| row.kind == kind)
                .map_or(0, |row| row.counts.iter().sum::<u64>())
        };
        assert!(total_for(QueryKind::ClosestHit) > 0);
        assert!(total_for(QueryKind::AnyHit) > 0);
        assert!(total_for(QueryKind::Distance) > 0);
        assert!(total_for(QueryKind::Collect) > 0);
        let json = baseline.to_json();
        assert!(json.contains("\"mix\"") && json.contains("fused_passes"));
        assert!(json.contains("sequential") && json.contains("fused"));
        assert!(json.contains("\"coherent\"") && json.contains("simd_lane_occupancy"));
        let table = baseline.render_table();
        assert!(table.contains("collect") && table.contains("vs scalar"));

        // The beat-budget fairness sweep: strict round-robin admission must cost passes (the
        // fairness price) while the recorded runs stayed bit-identical (asserted inside the
        // suite before timing).
        assert_eq!(baseline.budget_sweep.len(), 3);
        let unlimited = &baseline.budget_sweep[0];
        let strict = &baseline.budget_sweep[1];
        assert_eq!(unlimited.beat_budget_per_stream, 0);
        assert_eq!(strict.beat_budget_per_stream, 1);
        assert!(
            strict.passes > unlimited.passes,
            "strict round-robin needs more passes ({} vs {})",
            strict.passes,
            unlimited.passes
        );
        for (name, passes) in MIXED_STREAM_NAMES.iter().zip(strict.stream_passes) {
            assert!(passes > 0, "stream {name} contributed no pass");
        }
        assert!(json.contains("budget_sweep") && json.contains("stream_passes"));
        assert!(table.contains("beat budget") && table.contains("unlimited"));
    }

    #[test]
    fn the_query_engine_suite_runs_and_reports_consistent_numbers() {
        let baseline = run_query_engine_suite(64, 1);
        assert_eq!(baseline.modes.len(), 3);
        for mode in &baseline.modes {
            assert!(mode.items > 0 && mode.beats > 0);
            assert!(mode.scalar_seconds > 0.0 && mode.batched_seconds > 0.0);
            assert!(mode.simd_seconds > 0.0);
            assert!(mode.speedup > 0.0 && mode.simd_speedup > 0.0);
        }
        assert!(baseline.min_speedup() > 0.0);
        let json = baseline.to_json();
        assert!(json.contains("\"modes\"") && json.contains("simd_speedup"));
        assert!(json.contains("simd_lane_occupancy"));
        assert!(json.contains("render") && json.contains("shadow") && json.contains("knn"));
        let table = baseline.render_table();
        assert!(table.contains("speedup") && table.contains("shadow"));
    }

    #[test]
    fn the_render_pass_suite_runs_and_reports_consistent_numbers() {
        let baseline = run_render_pass_suite(64, 1);
        assert_eq!(baseline.passes.len(), 3);
        assert_eq!(baseline.width * baseline.height, 64);
        let mut rays = Vec::new();
        for pass in &baseline.passes {
            assert!(pass.pixels > 0 && pass.rays > 0 && pass.beats > 0);
            assert!(pass.scalar_seconds > 0.0 && pass.batched_seconds > 0.0);
            assert!(pass.simd_seconds > 0.0);
            assert!(pass.speedup > 0.0 && pass.simd_speedup > 0.0);
            rays.push(pass.rays);
        }
        // Each configuration adds a pass, so each traces strictly more rays per frame.
        assert!(rays[0] < rays[1] && rays[1] < rays[2]);
        let json = baseline.to_json();
        assert!(json.contains("\"passes\""));
        assert!(json.contains("simd_lane_occupancy"));
        assert!(json.contains("primary") && json.contains("shadowed_ao"));
        let table = baseline.render_table();
        assert!(table.contains("speedup") && table.contains("shadowed"));
    }

    #[test]
    fn the_suite_runs_and_reports_consistent_numbers() {
        let baseline = run_perf_suite(64, 1, 2);
        assert_eq!(baseline.scenes.len(), 3);
        assert!(baseline.datapath.simd_beats_per_sec > 0.0);
        for scene in &baseline.scenes {
            assert_eq!(scene.measurements.len(), 5);
            assert!(scene.beats > 0);
            for m in &scene.measurements {
                assert!(m.seconds > 0.0 && m.rays_per_sec > 0.0 && m.beats_per_sec > 0.0);
            }
            assert!((scene.speedup("scalar") - 1.0).abs() < 1e-9);
            // Sorted-and-compacted admission can only fill lanes better than unsorted.
            let occupancy = |name: &str| {
                scene
                    .measurements
                    .iter()
                    .find(|m| m.mode == name)
                    .map_or(0.0, |m| m.lane_occupancy)
            };
            assert!(occupancy("coherent") >= occupancy("simd"));
            assert!(occupancy("simd") > 0.0);
        }
        assert!(baseline.min_best_speedup() > 0.0);
        let json = baseline.to_json();
        assert!(json.contains("\"scenes\""));
        assert!(json.contains("icosphere"));
        assert!(json.contains("batched") && json.contains("\"simd\""));
        assert!(json.contains("\"coherent\"") && json.contains("simd_lane_occupancy"));
        assert!(json.contains("\"pool\"") && json.contains("\"steals\""));
        let table = baseline.render_table();
        assert!(table.contains("quad_wall") && table.contains("vs scalar"));
        assert!(table.contains("lane occ"));
    }
}
