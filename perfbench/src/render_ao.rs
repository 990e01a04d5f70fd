//! `render_ao`: repeated deferred frames (primary, shadow and ambient-occlusion passes) of the
//! small `scenes::lit_scene` through `Renderer::render` under
//! `ExecPolicy::parallel(2).with_simd_lanes(16)` — the only workload on the work-stealing pool.
//!
//! The traced run recomposes the frame from the renderer's public pieces
//! ([`TraversalEngine::trace`], [`extract_surfels`], the `rays::*` generators and
//! [`shade_deferred`]), times each piece, and checks the recomposed frame bit for bit against
//! `Renderer::render`.

use rayflex_geometry::{Ray, Triangle, Vec3};
use rayflex_rtunit::{
    extract_surfels, shade_deferred, Camera, ExecPolicy, FrameDesc, Image, PoolStats, RenderPasses,
    Renderer, Scene, TraceRequest, TraversalEngine,
};
use rayflex_workloads::{rays, scenes};

use crate::stats::{median, median_setup, timed, windowed_quantile, Metrics, Outcome, WINDOWS};

pub const WIDTH: usize = 96;
pub const HEIGHT: usize = 72;
const AO_SAMPLES: usize = 4;
const AO_RADIUS: f32 = 6.0;
const THREADS: usize = 2;
const SETUP_REPEATS: usize = 15;
/// Recomposed frames of the traced phase; the median frame is reported.
const TRACE_FRAMES: usize = 21;

fn policy() -> ExecPolicy {
    ExecPolicy::parallel(THREADS).with_simd_lanes(16)
}

/// The frame: the lit scene's camera and light, AO probe directions drawn from `seed`.
pub struct Frame {
    triangles: Vec<Triangle>,
    desc: FrameDesc,
    light: Vec3,
    ao_seed: u64,
}

impl Frame {
    pub fn new(seed: u64, width: usize, height: usize) -> Self {
        let lit = scenes::lit_scene(2, 10.0);
        let passes =
            RenderPasses::shadowed(lit.light).with_ambient_occlusion(AO_SAMPLES, AO_RADIUS, seed);
        Frame {
            desc: FrameDesc::deferred(
                Camera::looking_at(lit.eye, lit.target),
                width,
                height,
                passes,
            ),
            light: lit.light,
            triangles: lit.triangles,
            ao_seed: seed,
        }
    }

    fn pixels(&self) -> usize {
        self.desc.width * self.desc.height
    }
}

/// The program's set-up: the scene's BVH and the renderer.
fn setup(frame: &Frame) -> (Scene, Renderer) {
    (Scene::flat(frame.triangles.clone()), Renderer::new())
}

/// Pixels whose bit patterns differ.
fn pixel_mismatches(got: &[f32], want: &Image) -> u64 {
    let (width, height) = (want.width(), want.height());
    if got.len() != width * height {
        return (width * height).max(1) as u64;
    }
    (0..height)
        .flat_map(|y| (0..width).map(move |x| (x, y)))
        .filter(|&(x, y)| got[y * width + x].to_bits() != want.pixel(x, y).to_bits())
        .count() as u64
}

fn image_pixels(image: &Image) -> Vec<f32> {
    (0..image.height())
        .flat_map(|y| (0..image.width()).map(move |x| image.pixel(x, y)))
        .collect()
}

/// The end-to-end run: `Renderer::render` frames until `seconds` have passed.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    run_sized(seed, seconds, WIDTH, HEIGHT)
}

/// [`run`] at a given frame size.
pub fn run_sized(seed: u64, seconds: f64, width: usize, height: usize) -> Outcome {
    let mut outcome = Outcome::default();
    let frame = Frame::new(seed, width, height);
    let ((scene, mut renderer), setup_s) = median_setup(SETUP_REPEATS, || setup(&frame));

    // The oracle: one frame against the scalar reference; every timed frame against that one.
    let reference = Renderer::new().render(&scene, &frame.desc, &ExecPolicy::scalar());
    let first = image_pixels(&renderer.render(&scene, &frame.desc, &policy()));
    outcome.checked(1, u64::from(pixel_mismatches(&first, &reference) > 0));
    let slots = device_slots(&scene, &frame);

    let mut times = Vec::new();
    let started = std::time::Instant::now();
    while times.len() < 10 || started.elapsed().as_secs_f64() < seconds {
        let (image, seconds) = timed(|| renderer.render(&scene, &frame.desc, &policy()));
        times.push(seconds);
        outcome.checked(1, u64::from(image.first_mismatch(&reference).is_some()));
    }
    let m = &mut outcome.metrics;
    m.put("setup_s", setup_s, "s");
    let p50 = windowed_quantile(&times, WINDOWS, 0.5);
    m.put("items_per_s", frame.pixels() as f64 / p50, "1/s");
    m.put("latency_p50_ms", p50 * 1e3, "ms");
    m.put("device_slots_per_item", slots, "slots");
    outcome
}

/// Modelled lane slots per pixel when one frame's passes issue on a single RT unit (the
/// wavefront schedule at the same lane width): the parallel policy splits the frame across host
/// threads, which a device model should not see.
fn device_slots(scene: &Scene, frame: &Frame) -> f64 {
    let mut renderer = Renderer::new();
    let _ = renderer.render(
        scene,
        &frame.desc,
        &ExecPolicy::wavefront().with_simd_lanes(16),
    );
    renderer.beat_mix().simd_lane_slots() as f64 / frame.pixels() as f64
}

/// Self times of one recomposed frame, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct FrameTimes {
    pub total_s: f64,
    pub primary_s: f64,
    pub surfels_s: f64,
    pub shadow_s: f64,
    pub ao_s: f64,
    pub shade_s: f64,
    /// Time inside `TraversalEngine::trace` alone, across the three passes.
    pub trace_s: f64,
    pub rays: u64,
}

/// One deferred frame recomposed from the renderer's public pieces, timed piece by piece.
fn recompose(
    engine: &mut TraversalEngine,
    scene: &Scene,
    frame: &Frame,
    policy: &ExecPolicy,
) -> (Vec<f32>, FrameTimes) {
    let mut t = FrameTimes::default();
    let desc = &frame.desc;
    let passes = desc.passes.expect("a deferred frame");
    let trace_any = |engine: &mut TraversalEngine, rays: &[Ray], t: &mut FrameTimes| {
        let (out, seconds) = timed(|| engine.trace(&TraceRequest::pair(scene, &[], rays), policy));
        t.trace_s += seconds;
        out.any
    };
    let (pixels, total_s) = timed(|| {
        let ((primary, hits), primary_s) = timed(|| {
            let primary = desc.camera.primary_rays(desc.width, desc.height);
            let (out, seconds) =
                timed(|| engine.trace(&TraceRequest::closest_hit(scene, &primary), policy));
            t.trace_s += seconds;
            (primary, out.closest)
        });
        let ((surfels, surfel_pixels), surfels_s) =
            timed(|| extract_surfels(&frame.triangles, &primary, &hits));
        let ((shadow_rays, shadow_hits), shadow_s) = timed(|| {
            let shadow = rays::surfel_shadow_rays(&surfels, frame.light);
            let hits = trace_any(engine, &shadow, &mut t);
            (shadow, hits)
        });
        let ((ao_rays, visibility), ao_s) = timed(|| {
            let ao = rays::ambient_occlusion_rays(
                frame.ao_seed,
                &surfels,
                passes.ao_samples,
                passes.ao_radius,
            );
            let ao_hits = trace_any(engine, &ao, &mut t);
            let visibility: Vec<f32> = ao_hits
                .chunks(passes.ao_samples)
                .map(|probes| {
                    let occluded = probes.iter().filter(|probe| probe.is_some()).count();
                    1.0 - occluded as f32 / passes.ao_samples as f32
                })
                .collect();
            (ao.len(), visibility)
        });
        let (pixels, shade_s) = timed(|| {
            let mut pixels = vec![0.0f32; desc.width * desc.height];
            for (surfel, &pixel) in surfel_pixels.iter().enumerate() {
                let (point, normal) = surfels[surfel];
                let value = shade_deferred(
                    point,
                    normal,
                    frame.light,
                    shadow_hits[surfel].is_some(),
                    visibility[surfel],
                );
                pixels[pixel] = value.clamp(0.0, 1.0);
            }
            pixels
        });
        t.primary_s = primary_s;
        t.surfels_s = surfels_s;
        t.shadow_s = shadow_s;
        t.ao_s = ao_s;
        t.shade_s = shade_s;
        t.rays = (primary.len() + shadow_rays.len() + ao_rays) as u64;
        pixels
    });
    t.total_s = total_s;
    (pixels, t)
}

/// Layer metrics of one recomposed frame; the layer self times plus the unattributed part sum
/// to `trace.e2e_s` by construction.
pub fn frame_metrics(t: &FrameTimes, untraced_s: f64) -> Metrics {
    let mut m = Metrics::default();
    m.put("renderer.primary_s", t.primary_s, "s");
    m.put("renderer.surfels_s", t.surfels_s, "s");
    m.put("renderer.shadow_s", t.shadow_s, "s");
    m.put("renderer.ao_s", t.ao_s, "s");
    m.put("renderer.shade_s", t.shade_s, "s");
    m.put("renderer.rays_per_frame", t.rays as f64, "count");
    let layers = t.primary_s + t.surfels_s + t.shadow_s + t.ao_s + t.shade_s;
    m.put("own.trace.e2e_s", t.total_s, "s");
    m.put(
        "own.trace.unattributed_share",
        (t.total_s - layers) / t.total_s,
        "ratio",
    );
    m.put("own.trace.overhead", t.total_s / untraced_s - 1.0, "ratio");
    m
}

/// The traced phase at a given frame size.
pub fn trace_sized(seed: u64, width: usize, height: usize, frames: usize) -> Outcome {
    let mut outcome = Outcome::default();
    let frame = Frame::new(seed, width, height);
    let (scene, mut renderer) = setup(&frame);
    let mut engine = TraversalEngine::baseline();
    let mut serial = TraversalEngine::baseline();
    let serial_policy = ExecPolicy::wavefront().with_simd_lanes(16);
    let wanted = renderer.render(&scene, &frame.desc, &policy());

    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut serial_trace = Vec::new();
    let mut pool = PoolStats::default();
    for _ in 0..frames.max(1) {
        let (_, seconds) = timed(|| renderer.render(&scene, &frame.desc, &policy()));
        untraced.push(seconds);
        let before = engine.pool_stats();
        let (pixels, times) = recompose(&mut engine, &scene, &frame, &policy());
        let after = engine.pool_stats();
        pool.workers += after.workers - before.workers;
        pool.chunks += after.chunks - before.chunks;
        pool.steals += after.steals - before.steals;
        outcome.checked(1, u64::from(pixel_mismatches(&pixels, &wanted) > 0));
        traced.push(times);
        let (_, serial_times) = recompose(&mut serial, &scene, &frame, &serial_policy);
        serial_trace.push(serial_times.trace_s);
    }
    traced.sort_by(|a, b| a.total_s.total_cmp(&b.total_s));
    let mid = traced[traced.len() / 2];
    let mut parallel_trace: Vec<f64> = traced.iter().map(|t| t.trace_s).collect();
    let parallel_s = median(&mut parallel_trace);
    let serial_s = median(&mut serial_trace);
    let frames = frames.max(1) as f64;
    let m = &mut outcome.metrics;
    m.extend(frame_metrics(&mid, median(&mut untraced)));
    m.put("pool.workers", pool.workers as f64 / frames, "count");
    m.put("pool.chunks", pool.chunks as f64 / frames, "count");
    m.put("pool.steals", pool.steals as f64 / frames, "count");
    m.put("pool.serial_trace_s", serial_s, "s");
    m.put("pool.parallel_trace_s", parallel_s, "s");
    m.put(
        "pool.efficiency",
        serial_s / (THREADS as f64 * parallel_s),
        "ratio",
    );
    outcome
}

/// The traced phase at the benchmark's frame size.
pub fn trace(seed: u64, _seconds: f64) -> Outcome {
    trace_sized(seed, WIDTH, HEIGHT, TRACE_FRAMES)
}
