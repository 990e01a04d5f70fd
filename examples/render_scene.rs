//! Render a procedural scene through the RT-unit substrate: build a four-wide BVH over the lit
//! scene preset (floor + occluder sphere + grounded contact sphere), run the multi-pass deferred
//! renderer — a closest-hit primary pass, an any-hit shadow pass and an any-hit
//! ambient-occlusion pass — print both the primary-only and the shadowed+AO frame as ASCII art,
//! then report the traversal statistics and a first-order cycle estimate from the simplified
//! RT-unit timing model.
//!
//! Run with `cargo run --release --example render_scene`.  Flags:
//!
//! * `--mode scalar|wavefront|parallel|fused` — the execution policy every pass stream is
//!   traced under (default `wavefront`); all modes render bit-identical frames, so the flag is
//!   a live demonstration of the `ExecPolicy` invariant.
//! * `--bounce` — adds the one-bounce mirror-reflection pass, whose bounce closest-hit stream
//!   and shadow any-hit stream are traced as one pair request; under `--mode fused` they share
//!   bulk passes over one datapath, and the example prints the per-kind beat mix the fusion
//!   produced.  The frame is cross-checked against the same frame rendered under the scalar
//!   reference policy, and the example panics on the first differing pixel.  CI smokes this
//!   path once per `--mode`.
//! * `--instanced` — renders the lit scene as a two-level TLAS/BLAS scene (one BLAS, three
//!   placed instances) instead of one flat BVH, and cross-checks that the instanced frame is
//!   bit-identical to rendering `Scene::flatten()` of the same geometry.  CI smokes this path
//!   once per `--mode`.
//! * `--corrupt` — deliberately poisons the scene (a NaN vertex, or a NaN instance transform
//!   under `--instanced`) and renders through the hardened `try_render` entry point: the run
//!   prints the structured `invalid scene` error and exits with status 2 instead of panicking.
//!   CI smokes this path.
//!
//! Setting `RAYFLEX_SMOKE=1` shrinks the frame (and so the timed ray stream) — the CI smoke mode
//! that keeps the example from rotting (CI runs it once per `--mode`).

use rayflex::core::PipelineConfig;
use rayflex::geometry::{Affine, Vec3};
use rayflex::rtunit::{
    Blas, Bvh4, Camera, ExecMode, ExecPolicy, FrameDesc, Instance, RenderPasses, Renderer,
    RtUnitConfig, Scene, TraceRequest,
};
use rayflex::workloads::scenes;

/// The valid `--mode` values, straight from the mode enum so the help text can never go stale.
fn mode_list() -> String {
    ExecMode::ALL
        .iter()
        .map(|mode| mode.name())
        .collect::<Vec<_>>()
        .join(", ")
}

fn main() {
    let smoke = std::env::var("RAYFLEX_SMOKE").is_ok_and(|v| v != "0");
    let args: Vec<String> = std::env::args().collect();
    let bounce = args.iter().any(|arg| arg == "--bounce");
    let corrupt = args.iter().any(|arg| arg == "--corrupt");
    let instanced = args.iter().any(|arg| arg == "--instanced");
    let mode = args
        .iter()
        .position(|arg| arg == "--mode")
        .map(|at| {
            let Some(name) = args.get(at + 1) else {
                eprintln!("--mode needs a value; valid modes: {}", mode_list());
                std::process::exit(2);
            };
            ExecMode::parse(name).unwrap_or_else(|| {
                eprintln!("unknown mode {name:?}; valid modes: {}", mode_list());
                std::process::exit(2);
            })
        })
        .unwrap_or(ExecMode::Wavefront);
    let policy = ExecPolicy::with_mode(mode);
    let (width, height) = if smoke { (36, 18) } else { (72, 36) };

    // The scene: a floor, a floating occluder icosphere and a small grounded sphere, with a
    // point light placed so the occluder's shadow falls across the floor.
    let scene = scenes::lit_scene(if smoke { 1 } else { 3 }, 24.0);
    let world = if instanced {
        // Two-level form: the lit scene as one BLAS, placed three times (the extra copies sit
        // far off to the sides, outside the camera frustum, so the visible frame must stay
        // bit-identical to the flat render of the original geometry).
        Scene::instanced(
            vec![Blas::new(scene.triangles.clone())],
            vec![
                Instance::new(0, Affine::identity()),
                Instance::new(0, Affine::translation(Vec3::new(-500.0, 0.0, 0.0))),
                Instance::new(0, Affine::translation(Vec3::new(500.0, 0.0, 0.0))),
            ],
        )
    } else {
        Scene::flat(scene.triangles.clone())
    };
    match world.bvh() {
        Some(bvh) => println!(
            "scene: {} triangles, BVH with {} nodes, depth {} — policy: {}",
            world.triangle_count(),
            bvh.node_count(),
            bvh.depth(),
            policy.mode,
        ),
        None => println!(
            "scene: {} instances x {} BLAS triangles = {} placed triangles, TLAS with {} nodes \
             — policy: {}",
            world.instances().len(),
            world.blas_list()[0].triangle_count(),
            world.triangle_count(),
            world.tlas().map_or(0, Bvh4::node_count),
            policy.mode,
        ),
    }

    let camera = Camera::looking_at(scene.eye, scene.target);
    let mut renderer = Renderer::with_config(PipelineConfig::baseline_unified());

    if corrupt {
        // The hardened-path demonstration CI smokes: poison one vertex (or one instance
        // placement) and render through `try_render`, which must reject the scene with a
        // structured error — no panic, a clean nonzero exit.
        let poisoned_world = if instanced {
            let mut poisoned = world.clone();
            poisoned.set_instance_transform(1, Affine::translation(Vec3::new(f32::NAN, 0.0, 0.0)));
            poisoned
        } else {
            let mut poisoned = scene.triangles.clone();
            poisoned[0].v0.x = f32::NAN;
            Scene::flat(poisoned)
        };
        match renderer.try_render(
            &poisoned_world,
            &FrameDesc::primary(camera, width, height),
            &policy,
        ) {
            Ok(_) => {
                eprintln!("the corrupted scene rendered anyway — validation is broken");
                std::process::exit(1);
            }
            Err(err) => {
                eprintln!("error: {err}");
                std::process::exit(2);
            }
        }
    }

    // Pass 1 only: the primary-ray frame under the fixed directional light.
    let primary = renderer.render(&world, &FrameDesc::primary(camera, width, height), &policy);
    println!("primary-only frame:\n{}", primary.to_ascii());
    if instanced {
        // The tentpole invariant, live: the two-level trace must shade every pixel exactly as
        // the same geometry baked into one flat BVH does.
        let flat_frame = Renderer::with_config(PipelineConfig::baseline_unified()).render(
            &world.flatten(),
            &FrameDesc::primary(camera, width, height),
            &policy,
        );
        assert_eq!(
            primary.first_mismatch(&flat_frame),
            None,
            "instanced frame diverged from the flattened reference"
        );
        println!("instanced frame is bit-identical to the flattened-scene render");
    }

    // The full deferred pipeline: primary + shadow + ambient-occlusion passes (+ the one-bounce
    // mirror pass with --bounce), every stream traced under the selected policy.
    let mut passes = RenderPasses::shadowed(scene.light).with_ambient_occlusion(
        if smoke { 2 } else { 8 },
        6.0,
        2024,
    );
    if bounce {
        passes = passes.with_bounce(0.35);
    }
    let frame = FrameDesc::deferred(camera, width, height, passes);
    let deferred = renderer.render(&world, &frame, &policy);
    if bounce {
        println!(
            "shadowed + AO + one-bounce reflection frame ({}):\n{}",
            policy.mode,
            deferred.to_ascii()
        );
        // The pair request must render exactly as the scalar reference renders it.
        let reference = Renderer::with_config(PipelineConfig::baseline_unified()).render(
            &world,
            &frame,
            &ExecPolicy::scalar(),
        );
        assert_eq!(
            deferred.first_mismatch(&reference),
            None,
            "{} bounce frame diverged from the scalar reference",
            policy.mode
        );
        println!("bounce frame is bit-identical to the scalar-reference render");
        if mode == ExecMode::Fused {
            let mix = renderer.beat_mix();
            println!(
                "fused scheduler: {} bulk passes mixed >= 2 query kinds; per-kind beats: \
                 closest-hit {}, any-hit {}",
                mix.fused_passes(),
                mix.kind_total(rayflex::core::QueryKind::ClosestHit),
                mix.kind_total(rayflex::core::QueryKind::AnyHit),
            );
        }
    } else {
        println!(
            "shadowed + ambient-occlusion frame ({}):\n{}",
            policy.mode,
            deferred.to_ascii()
        );
    }

    let stats = renderer.stats();
    println!(
        "rays (both frames): {}   ray-box beats: {}   ray-triangle beats: {}   coverage: {:.1}%",
        stats.rays,
        stats.box_ops,
        stats.triangle_ops,
        deferred.coverage() * 100.0
    );

    // First-order timing through the simplified RT-unit scheduler: compare the RayFlex 11-cycle
    // datapath against the 2-cycle assumption Vulkan-Sim uses (§IV-B of the paper), over a
    // quarter-resolution primary stream of the rendered `world` (flat or instanced).
    let rays: Vec<_> = (0..width * height / 4)
        .map(|i| {
            let x = i % (width / 2);
            let y = i / (width / 2);
            camera.primary_ray(x * 2, y * 2, width, height)
        })
        .collect();
    let request = TraceRequest::closest_hit(&world, &rays);
    let rayflex_timing = RtUnitConfig::default().estimate(&request);
    let optimistic_timing = RtUnitConfig {
        datapath_latency: 2,
        ..RtUnitConfig::default()
    }
    .estimate(&request);
    println!(
        "RT-unit estimate over {} rays: {} cycles with the 11-cycle RayFlex datapath, {} cycles \
         with a 2-cycle datapath assumption ({:.1}% faster — the Vulkan-Sim configuration is \
         optimistic, as §IV-B argues)",
        rays.len(),
        rayflex_timing.cycles,
        optimistic_timing.cycles,
        (1.0 - optimistic_timing.cycles as f64 / rayflex_timing.cycles as f64) * 100.0
    );
}
