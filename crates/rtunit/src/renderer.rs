//! A multi-pass deferred renderer driving the batched query engine (used by the examples and the
//! `render_ao` benchmark workload).
//!
//! Rendering is a sequence of traversal queries over one frame, described by a [`FrameDesc`]:
//!
//! 1. **Primary pass** — one closest-hit ray per pixel (a [`FrameDesc::primary`] frame stops
//!    here and shades with a fixed directional light);
//! 2. **Surfel extraction** — every hit becomes a `(point, normal)` G-buffer record
//!    ([`extract_surfels`]), the deferred inputs of the secondary passes;
//! 3. **Bounce + shadow passes** — one any-hit ray per surfel toward the scene's point light
//!    ([`rayflex_workloads::rays::surfel_shadow_rays`]; a hit means the surfel is shadowed),
//!    paired with an optional one-bounce mirror closest-hit stream
//!    ([`rayflex_workloads::rays::surfel_reflection_rays`]) — a heterogeneous pair the
//!    [`Fused`](crate::ExecMode::Fused) policy traces in shared bulk passes;
//! 4. **Ambient-occlusion pass** (optional) — `ao_samples` any-hit hemisphere probes per surfel
//!    ([`rayflex_workloads::rays::ambient_occlusion_rays`]); the unoccluded fraction scales the
//!    pixel.
//!
//! Shading composes diffuse × shadow visibility × AO visibility ([`shade_deferred`]) into a
//! grayscale [`Image`].  **One entry point, every execution mode:** [`Renderer::render`] takes
//! the frame description plus an [`ExecPolicy`](crate::ExecPolicy), and every pass stream is
//! traced through [`TraversalEngine::trace`] under that policy — scalar reference, wavefront,
//! parallel or fused, all pixel-bit-identical with identical [`TraversalStats`] (pinned by the
//! golden tests, `rtunit/tests/proptest_render.rs` and the cross-policy matrix in
//! `rtunit/tests/proptest_policy.rs`).

use rayflex_core::PipelineConfig;
use rayflex_geometry::{Ray, Triangle, Vec3};
use rayflex_workloads::rays::{ambient_occlusion_rays, surfel_reflection_rays, surfel_shadow_rays};

use crate::error::{QueryError, QueryOutcome, SceneValidator};
use crate::policy::ExecPolicy;
use crate::traversal::{TraceOutput, TraceRequest};
use crate::{Scene, TraversalEngine, TraversalHit, TraversalStats};

/// A pinhole camera generating one primary ray per pixel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Camera {
    /// Camera position.
    pub position: Vec3,
    /// Point the camera looks at.
    pub look_at: Vec3,
    /// Up direction.
    pub up: Vec3,
    /// Vertical field of view in degrees.
    pub fov_degrees: f32,
}

impl Camera {
    /// A camera at `position` looking at `look_at` with a 60° field of view.
    #[must_use]
    pub fn looking_at(position: Vec3, look_at: Vec3) -> Self {
        Camera {
            position,
            look_at,
            up: Vec3::new(0.0, 1.0, 0.0),
            fov_degrees: 60.0,
        }
    }

    /// The precomputed frame basis for a `width`×`height` image: orthonormal axes and view-plane
    /// half-extents computed **once** per frame rather than once per pixel, so frame-ray
    /// generation is O(1) setup plus O(pixels) ray construction.
    ///
    /// When `up` is (anti-)parallel to the view direction — a camera looking straight up or down
    /// with the default `up` — the naive `up × forward` basis is the zero vector and normalising
    /// it would poison every ray of the frame with NaN directions.  The basis falls back to a
    /// stable alternate axis (the world axis least aligned with the view direction) instead.
    // Never inlined: the basis holds the frame's only evaluation of `tan`, and letting it inline
    // allowed constant folding to produce rays differing in the last ulp between call sites
    // (observed between `render` and the per-pixel reference under thin-LTO), breaking the
    // bit-identity the golden tests pin.  One out-of-line evaluation is shared by every frontend.
    #[inline(never)]
    #[must_use]
    pub fn basis(&self, width: usize, height: usize) -> CameraBasis {
        let forward = (self.look_at - self.position).normalized();
        let cross = self.up.cross(forward);
        let right = if cross.length_squared() > 0.0 {
            cross.normalized()
        } else {
            // `up` is parallel to the view direction; use the world axis least aligned with it.
            let alternate = if forward.x.abs() < 0.5 {
                Vec3::new(1.0, 0.0, 0.0)
            } else {
                Vec3::new(0.0, 0.0, 1.0)
            };
            alternate.cross(forward).normalized()
        };
        let true_up = forward.cross(right);
        let aspect = width as f32 / height as f32;
        let half_height = (self.fov_degrees.to_radians() * 0.5).tan();
        let half_width = half_height * aspect;
        CameraBasis {
            position: self.position,
            forward,
            right,
            true_up,
            half_width,
            half_height,
            width: width as f32,
            height: height as f32,
        }
    }

    /// The primary ray through pixel `(x, y)` of a `width`×`height` image.
    ///
    /// Scalar convenience wrapper: builds the frame basis and casts one ray through it.  Frame
    /// loops should hoist [`Camera::basis`] (or call [`Camera::primary_rays`]) so the basis is
    /// computed once, not per pixel; the per-ray results are bit-identical either way.
    #[must_use]
    pub fn primary_ray(&self, x: usize, y: usize, width: usize, height: usize) -> Ray {
        self.basis(width, height).primary_ray(x, y)
    }

    /// All primary rays of a `width`×`height` frame in row-major pixel order — the ray stream a
    /// batched frame traces in one wavefront pass.  The camera basis is computed once for the
    /// whole frame.
    #[must_use]
    pub fn primary_rays(&self, width: usize, height: usize) -> Vec<Ray> {
        let basis = self.basis(width, height);
        let mut rays = Vec::with_capacity(width * height);
        for y in 0..height {
            for x in 0..width {
                rays.push(basis.primary_ray(x, y));
            }
        }
        rays
    }
}

/// The per-frame camera state precomputed by [`Camera::basis`]: the orthonormal view axes, the
/// view-plane half-extents, and the frame dimensions as floats.  Casting a ray through the basis
/// costs a handful of multiply-adds and no trigonometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CameraBasis {
    position: Vec3,
    forward: Vec3,
    right: Vec3,
    true_up: Vec3,
    half_width: f32,
    half_height: f32,
    width: f32,
    height: f32,
}

impl CameraBasis {
    /// The primary ray through pixel `(x, y)` of the frame this basis was built for.
    #[must_use]
    pub fn primary_ray(&self, x: usize, y: usize) -> Ray {
        let u = ((x as f32 + 0.5) / self.width * 2.0 - 1.0) * self.half_width;
        let v = (1.0 - (y as f32 + 0.5) / self.height * 2.0) * self.half_height;
        let dir = self.forward + self.right * u + self.true_up * v;
        Ray::new(self.position, dir)
    }
}

/// The renderer's shading model for one primary-ray hit under the fixed directional light:
/// two-sided Lambertian with a small ambient term, `0.0` for a miss.  Public so reference paths
/// (benchmarks, golden tests) can shade scalar hits with the exact arithmetic the batched frame
/// uses.
#[must_use]
pub fn shade(triangles: &[Triangle], light_dir: Vec3, hit: Option<&TraversalHit>) -> f32 {
    shade_primitive(&|prim| triangles[prim], light_dir, hit)
}

/// [`shade`] over an arbitrary primitive-id → world-triangle lookup — the shared arithmetic
/// behind the slice frontend and the scene-backed frame pipelines (instanced scenes have no
/// triangle slice; they materialise the hit triangle through [`Scene::triangle`]).
fn shade_primitive(
    triangle: &dyn Fn(usize) -> Triangle,
    light_dir: Vec3,
    hit: Option<&TraversalHit>,
) -> f32 {
    match hit {
        Some(hit) => {
            let normal = triangle(hit.primitive).normal().normalized();
            let diffuse = normal.dot(light_dir).abs();
            (0.15 + 0.85 * diffuse).clamp(0.0, 1.0)
        }
        None => 0.0,
    }
}

/// The fixed directional light the primary-only renderer shades with.
#[must_use]
pub fn default_light_dir() -> Vec3 {
    Vec3::new(0.4, 0.8, -0.45).normalized()
}

/// Deferred shading for one surfel: Lambertian diffuse toward the point light, zeroed while the
/// surfel is shadowed, scaled by the ambient-occlusion visibility, plus a small ambient term that
/// AO alone can darken.  Shared verbatim by the batched, scalar-reference and parallel frames, so
/// bit-identical traversal verdicts compose into bit-identical pixels.
///
/// Degenerate inputs stay finite: a light sitting exactly on the surfel shades as if lit along
/// the normal (full diffuse) instead of normalising a zero vector.
#[must_use]
pub fn shade_deferred(
    point: Vec3,
    normal: Vec3,
    light: Vec3,
    shadowed: bool,
    ao_visibility: f32,
) -> f32 {
    let to_light = light - point;
    let distance = to_light.length();
    let light_dir = if distance > 0.0 {
        to_light / distance
    } else {
        normal
    };
    let diffuse = normal.dot(light_dir).max(0.0);
    let visibility = if shadowed { 0.0 } else { 1.0 };
    ((0.15 + 0.85 * diffuse * visibility) * ao_visibility).clamp(0.0, 1.0)
}

/// Parameters of the deferred passes: the point light of the shadow pass, the configuration of
/// the optional ambient-occlusion pass (`ao_samples == 0` skips it entirely, `adaptive_ao`
/// restricts it to penumbra surfels), and the reflectivity of the optional one-bounce
/// reflection pass (`bounce_reflectivity == 0.0` skips it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RenderPasses {
    /// Point-light position the shadow pass traces toward.
    pub light: Vec3,
    /// Hemisphere probes per surfel in the ambient-occlusion pass; `0` disables the pass.
    pub ao_samples: usize,
    /// Maximum parametric extent of an ambient-occlusion probe.
    pub ao_radius: f32,
    /// Seed of the deterministic ambient-occlusion probe directions.
    pub ao_seed: u64,
    /// Adaptive ambient-occlusion sampling: trace AO probes only for surfels in the shadow
    /// penumbra (a 4-neighbour pixel whose shadow verdict differs), treating fully-lit and
    /// fully-shadowed regions as unoccluded.  `false` keeps the uniform per-surfel sampling.
    pub adaptive_ao: bool,
    /// Mirror reflectivity of the one-bounce reflection pass (step 3 of the module
    /// documentation); `0.0` disables the bounce stream entirely.
    pub bounce_reflectivity: f32,
}

impl RenderPasses {
    /// Shadow pass only (no ambient occlusion, no bounce), lit by a point light at `light`.
    #[must_use]
    pub fn shadowed(light: Vec3) -> Self {
        RenderPasses {
            light,
            ao_samples: 0,
            ao_radius: 1.0,
            ao_seed: 0x5eed,
            adaptive_ao: false,
            bounce_reflectivity: 0.0,
        }
    }

    /// Adds an ambient-occlusion pass of `samples` probes per surfel with the given probe radius
    /// and direction seed.
    #[must_use]
    pub fn with_ambient_occlusion(mut self, samples: usize, radius: f32, seed: u64) -> Self {
        self.ao_samples = samples;
        self.ao_radius = radius;
        self.ao_seed = seed;
        self
    }

    /// Enables or disables adaptive (penumbra-only) ambient-occlusion sampling.
    #[must_use]
    pub fn with_adaptive_ao(mut self, adaptive: bool) -> Self {
        self.adaptive_ao = adaptive;
        self
    }

    /// Sets the mirror reflectivity of the one-bounce reflection pass (clamped to `[0, 1]`).
    #[must_use]
    pub fn with_bounce(mut self, reflectivity: f32) -> Self {
        self.bounce_reflectivity = reflectivity.clamp(0.0, 1.0);
        self
    }
}

impl Default for RenderPasses {
    /// The shadow-only configuration under an overhead point light at `(0, 10, 0)` — no ambient
    /// occlusion, no bounce.  A neutral starting point for the builder methods.
    fn default() -> Self {
        RenderPasses::shadowed(Vec3::new(0.0, 10.0, 0.0))
    }
}

/// One frame description: the camera, the image dimensions, and the pass configuration —
/// `None` for a primary-only frame shaded under the fixed directional light
/// ([`default_light_dir`]), `Some` for the full deferred pipeline (shadows, optional ambient
/// occlusion, optional one-bounce reflections).
///
/// This is the *what* of a frame; the [`ExecPolicy`](crate::ExecPolicy) passed alongside it to
/// [`Renderer::render`] is the *how*.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameDesc {
    /// The pinhole camera generating one primary ray per pixel.
    pub camera: Camera,
    /// Frame width in pixels.
    pub width: usize,
    /// Frame height in pixels.
    pub height: usize,
    /// The deferred pass configuration, or `None` for a primary-only frame.
    pub passes: Option<RenderPasses>,
}

impl FrameDesc {
    /// A primary-only frame: one closest-hit ray per pixel, shaded with the fixed directional
    /// light — no shadow, ambient-occlusion or bounce passes.
    #[must_use]
    pub fn primary(camera: Camera, width: usize, height: usize) -> Self {
        FrameDesc {
            camera,
            width,
            height,
            passes: None,
        }
    }

    /// A full deferred frame under the given pass configuration.
    #[must_use]
    pub fn deferred(camera: Camera, width: usize, height: usize, passes: RenderPasses) -> Self {
        FrameDesc {
            camera,
            width,
            height,
            passes: Some(passes),
        }
    }
}

/// Extracts the G-buffer of a primary pass: one `(point, normal)` surfel per hit pixel (in pixel
/// order) plus the pixel index each surfel shades.  Normals are unit length and oriented toward
/// the viewer (two-sided shading); a degenerate sliver triangle whose geometric normal cannot be
/// normalised falls back to facing the incoming ray, so no NaN ever enters the G-buffer.
#[must_use]
pub fn extract_surfels(
    triangles: &[Triangle],
    rays: &[Ray],
    hits: &[Option<TraversalHit>],
) -> (Vec<(Vec3, Vec3)>, Vec<usize>) {
    extract_surfels_with(&|prim| triangles[prim], rays, hits)
}

/// [`extract_surfels`] over an arbitrary primitive-id → world-triangle lookup — shared by the
/// slice frontend and the scene-backed frame pipelines.
fn extract_surfels_with(
    triangle: &dyn Fn(usize) -> Triangle,
    rays: &[Ray],
    hits: &[Option<TraversalHit>],
) -> (Vec<(Vec3, Vec3)>, Vec<usize>) {
    let mut surfels = Vec::new();
    let mut pixels = Vec::new();
    for (pixel, (ray, hit)) in rays.iter().zip(hits).enumerate() {
        let Some(hit) = hit else { continue };
        let point = ray.at(hit.t);
        let mut normal = triangle(hit.primitive).normal().normalized();
        if !normal.is_finite() {
            normal = -ray.dir.normalized();
        }
        if normal.dot(ray.dir) > 0.0 {
            normal = -normal;
        }
        surfels.push((point, normal));
        pixels.push(pixel);
    }
    (surfels, pixels)
}

/// Which query kind a deferred pass traces — the hook the three execution modes implement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PassKind {
    /// The primary pass: closest-hit rays.
    ClosestHit,
    /// The shadow and ambient-occlusion passes: any-hit rays.
    AnyHit,
}

/// The surfels that trace ambient-occlusion probes under **adaptive** sampling: surfels in the
/// shadow *penumbra*, i.e. with a 4-neighbour pixel whose surfel carries the opposite shadow
/// verdict.  Interior surfels of fully-lit or fully-shadowed regions (and surfels with no
/// surfel neighbours at all) skip their probes entirely.
fn penumbra_mask(
    width: usize,
    height: usize,
    surfel_pixels: &[usize],
    shadow_hits: &[Option<TraversalHit>],
) -> Vec<bool> {
    // Per-pixel shadow verdicts (None where the primary ray missed).
    let mut verdicts: Vec<Option<bool>> = vec![None; width * height];
    for (surfel, &pixel) in surfel_pixels.iter().enumerate() {
        verdicts[pixel] = Some(shadow_hits[surfel].is_some());
    }
    surfel_pixels
        .iter()
        .enumerate()
        .map(|(surfel, &pixel)| {
            let own = shadow_hits[surfel].is_some();
            let (x, y) = (pixel % width, pixel / width);
            let mut neighbours = [None; 4];
            if x > 0 {
                neighbours[0] = verdicts[pixel - 1];
            }
            if x + 1 < width {
                neighbours[1] = verdicts[pixel + 1];
            }
            if y > 0 {
                neighbours[2] = verdicts[pixel - width];
            }
            if y + 1 < height {
                neighbours[3] = verdicts[pixel + width];
            }
            neighbours
                .iter()
                .any(|&verdict| matches!(verdict, Some(v) if v != own))
        })
        .collect()
}

/// The ambient-occlusion pass shared by every frame pipeline: traces `ao_samples` hemisphere
/// probes per selected surfel (all surfels, or only the penumbra under adaptive sampling) and
/// returns one ambient visibility per surfel — `1.0` for skipped surfels.
fn ao_visibilities(
    width: usize,
    height: usize,
    passes: &RenderPasses,
    surfels: &[(Vec3, Vec3)],
    surfel_pixels: &[usize],
    shadow_hits: &[Option<TraversalHit>],
    trace: &mut impl FnMut(PassKind, &[Ray]) -> Vec<Option<TraversalHit>>,
) -> Vec<f32> {
    if passes.ao_samples == 0 {
        return vec![1.0; surfels.len()];
    }
    let visibility = |probes: &[Option<TraversalHit>]| {
        let occluded = probes.iter().filter(|probe| probe.is_some()).count();
        1.0 - occluded as f32 / passes.ao_samples as f32
    };
    if !passes.adaptive_ao {
        // Uniform sampling probes every surfel straight off the G-buffer slice — no mask and no
        // surfel copy on the default path.
        let ao_rays =
            ambient_occlusion_rays(passes.ao_seed, surfels, passes.ao_samples, passes.ao_radius);
        let ao_hits = trace(PassKind::AnyHit, &ao_rays);
        return ao_hits.chunks(passes.ao_samples).map(visibility).collect();
    }
    let probed_mask = penumbra_mask(width, height, surfel_pixels, shadow_hits);
    let probed: Vec<(Vec3, Vec3)> = surfels
        .iter()
        .zip(&probed_mask)
        .filter(|(_, &traced)| traced)
        .map(|(&surfel, _)| surfel)
        .collect();
    let ao_rays =
        ambient_occlusion_rays(passes.ao_seed, &probed, passes.ao_samples, passes.ao_radius);
    let ao_hits = trace(PassKind::AnyHit, &ao_rays);
    let mut probe_chunks = ao_hits.chunks(passes.ao_samples);
    probed_mask
        .iter()
        .map(|&traced| {
            if !traced {
                return 1.0;
            }
            // One probe chunk exists per traced surfel by construction; treat a missing
            // chunk as fully visible rather than panicking.
            probe_chunks.next().map_or(1.0, visibility)
        })
        .collect()
}

/// Validates a frame description before any beat is issued: the camera basis must be finite
/// and non-degenerate, and every configured pass knob finite.  Zero-dimension frames are valid
/// (they render an empty image), so this guards *malformed* requests, not small ones.
fn validate_frame(frame: &FrameDesc) -> Result<(), QueryError> {
    let invalid = |reason: &str| QueryError::InvalidRequest {
        reason: reason.to_owned(),
    };
    let camera = &frame.camera;
    if !camera.position.is_finite() || !camera.look_at.is_finite() || !camera.up.is_finite() {
        return Err(invalid("camera position/look_at/up must be finite"));
    }
    if (camera.look_at - camera.position).length_squared() == 0.0 {
        return Err(invalid("camera look_at coincides with its position"));
    }
    if camera.up.length_squared() == 0.0 {
        return Err(invalid("camera up vector must be non-zero"));
    }
    if !camera.fov_degrees.is_finite() || camera.fov_degrees <= 0.0 || camera.fov_degrees >= 180.0 {
        return Err(invalid("camera field of view must lie in (0, 180) degrees"));
    }
    if let Some(passes) = &frame.passes {
        if !passes.light.is_finite() {
            return Err(invalid("pass light position must be finite"));
        }
        if passes.ao_samples > 0 && !(passes.ao_radius.is_finite() && passes.ao_radius > 0.0) {
            return Err(invalid(
                "ambient-occlusion radius must be finite and positive when ao_samples > 0",
            ));
        }
        if !passes.bounce_reflectivity.is_finite()
            || !(0.0..=1.0).contains(&passes.bounce_reflectivity)
        {
            return Err(invalid("bounce reflectivity must be finite within [0, 1]"));
        }
    }
    Ok(())
}

/// The traversal backend of a frame: one engine, one scene, one policy.  Every pass stream —
/// single-kind or the fused bounce+shadow pair — routes through
/// [`TraversalEngine::trace`] under the same [`ExecPolicy`], which is what makes all execution
/// modes bit-identical by construction: the pipeline around the tracer is common code.
struct FrameTracer<'a> {
    engine: &'a mut TraversalEngine,
    scene: &'a Scene,
    policy: ExecPolicy,
    /// Frame-wide beat deadline ([`ExecPolicy::max_total_beats`]); `0` disables the budget and
    /// every pass traces to completion.
    budget: u64,
    /// The engine's lifetime beat total when the frame started — the budget is charged against
    /// `total_ops() - baseline_ops`, which also accounts the beats a cancelled pass spent.
    baseline_ops: u64,
    /// Set once the frame crosses its deadline; every later pass yields all-miss outputs
    /// without touching the datapath, so the pipeline drains cheaply and the caller can surface
    /// a typed error instead of a silently wrong image.
    exhausted: bool,
}

impl FrameTracer<'_> {
    /// Routes one request through the engine, enforcing the frame-level beat budget when one is
    /// set: a request starting past the deadline — or cancelled mid-run by the capped
    /// scheduler — marks the tracer exhausted.
    fn run(&mut self, request: &TraceRequest<'_>) -> TraceOutput {
        if self.budget == 0 {
            return self.engine.trace(request, &self.policy);
        }
        if !self.exhausted {
            let spent = self.engine.stats().total_ops() - self.baseline_ops;
            let remaining = self.budget.saturating_sub(spent);
            if remaining > 0 {
                let capped = self.policy.with_max_total_beats(remaining);
                if let Ok(QueryOutcome::Complete(output)) =
                    self.engine.trace_capped(request, &capped)
                {
                    return output;
                }
            }
            self.exhausted = true;
        }
        TraceOutput {
            closest: vec![None; request.closest_rays().len()],
            any: vec![None; request.any_rays().len()],
        }
    }

    /// Traces one single-kind pass stream under the frame's policy.
    fn trace(&mut self, kind: PassKind, rays: &[Ray]) -> Vec<Option<TraversalHit>> {
        let request = match kind {
            PassKind::ClosestHit => TraceRequest::closest_hit(self.scene, rays),
            PassKind::AnyHit => TraceRequest::any_hit(self.scene, rays),
        };
        let output = self.run(&request);
        match kind {
            PassKind::ClosestHit => output.closest,
            PassKind::AnyHit => output.any,
        }
    }

    /// Traces the bounce closest-hit stream and the shadow any-hit stream as one heterogeneous
    /// pair, returning `(bounce hits, shadow hits)`.  Under the fused policy the two kinds share
    /// bulk passes; under every other mode they trace closest-first — bit-identical either way.
    fn trace_pair(
        &mut self,
        bounce: &[Ray],
        shadow: &[Ray],
    ) -> (Vec<Option<TraversalHit>>, Vec<Option<TraversalHit>>) {
        let output = self.run(&TraceRequest::pair(self.scene, bounce, shadow));
        (output.closest, output.any)
    }
}

/// The bounce contribution of one surfel: the one-bounce mirror term, shading the bounce hit
/// with the same deferred model (unshadowed, full ambient visibility), `0.0` for an escaped
/// bounce ray.  Shared by the fused and reference frames so their pixels stay bit-identical.
fn shade_bounce(
    triangle: &dyn Fn(usize) -> Triangle,
    bounce_ray: &Ray,
    hit: Option<&TraversalHit>,
    light: Vec3,
) -> f32 {
    let Some(hit) = hit else { return 0.0 };
    let point = bounce_ray.at(hit.t);
    let mut normal = triangle(hit.primitive).normal().normalized();
    if !normal.is_finite() {
        normal = -bounce_ray.dir.normalized();
    }
    if normal.dot(bounce_ray.dir) > 0.0 {
        normal = -normal;
    }
    shade_deferred(point, normal, light, false, 1.0)
}

/// The primary-only frame pipeline: one closest-hit ray per pixel traced under the frame's
/// policy, shaded with the fixed directional light ([`default_light_dir`]).
fn primary_frame(
    camera: &Camera,
    width: usize,
    height: usize,
    tracer: &mut FrameTracer<'_>,
) -> Image {
    let light_dir = default_light_dir();
    let scene = tracer.scene;
    let rays = camera.primary_rays(width, height);
    let hits = tracer.trace(PassKind::ClosestHit, &rays);
    let pixels = hits
        .iter()
        .map(|hit| shade_primitive(&|prim| scene.triangle(prim), light_dir, hit.as_ref()))
        .collect();
    Image {
        width,
        height,
        pixels,
    }
}

/// The deferred frame pipeline: primary pass, surfel extraction, the bounce+shadow pair, the
/// optional ambient-occlusion pass, compose.  After surfel extraction the mirror-bounce
/// closest-hit stream and the shadow any-hit stream are traced **together** through the
/// tracer's pair hook, and the composed pixel adds `bounce_reflectivity × bounce term`.  With
/// `bounce_reflectivity == 0` the bounce stream is empty and the frame degenerates to the plain
/// shadow/AO pipeline (same rays, same beats — pinned by the zero-reflectivity golden test).
fn deferred_frame(
    camera: &Camera,
    width: usize,
    height: usize,
    passes: &RenderPasses,
    tracer: &mut FrameTracer<'_>,
) -> Image {
    let scene = tracer.scene;
    let triangle = |prim: usize| scene.triangle(prim);
    // Pass 1: primary closest-hit stream, one ray per pixel.
    let rays = camera.primary_rays(width, height);
    let hits = tracer.trace(PassKind::ClosestHit, &rays);

    // G-buffer: one surfel per hit pixel.
    let (surfels, surfel_pixels) = extract_surfels_with(&triangle, &rays, &hits);

    // Pass 2, fused: the bounce closest-hit stream and the shadow any-hit stream share the same
    // bulk passes over one datapath.  Each surfel's bounce ray mirrors the incident direction
    // that produced it (its pixel's primary ray).
    let bounce_rays = if passes.bounce_reflectivity > 0.0 {
        let incident: Vec<Vec3> = surfel_pixels.iter().map(|&pixel| rays[pixel].dir).collect();
        surfel_reflection_rays(&surfels, &incident)
    } else {
        Vec::new()
    };
    let shadow_rays = surfel_shadow_rays(&surfels, passes.light);
    let (bounce_hits, shadow_hits) = tracer.trace_pair(&bounce_rays, &shadow_rays);

    // Pass 3 (optional): ambient occlusion, exactly as in the plain deferred pipeline.
    let ao_visibility = ao_visibilities(
        width,
        height,
        passes,
        &surfels,
        &surfel_pixels,
        &shadow_hits,
        &mut |kind, rays| tracer.trace(kind, rays),
    );

    // Compose: the deferred base term plus the mirrored one-bounce contribution.
    let mut pixels = vec![0.0f32; width * height];
    for (surfel, &pixel) in surfel_pixels.iter().enumerate() {
        let (point, normal) = surfels[surfel];
        let mut value = shade_deferred(
            point,
            normal,
            passes.light,
            shadow_hits[surfel].is_some(),
            ao_visibility[surfel],
        );
        if passes.bounce_reflectivity > 0.0 {
            value += passes.bounce_reflectivity
                * shade_bounce(
                    &triangle,
                    &bounce_rays[surfel],
                    bounce_hits[surfel].as_ref(),
                    passes.light,
                );
        }
        pixels[pixel] = value.clamp(0.0, 1.0);
    }
    Image {
        width,
        height,
        pixels,
    }
}

/// A grayscale image produced by the renderer (one intensity in `[0, 1]` per pixel, row-major).
#[derive(Debug, Clone, PartialEq)]
pub struct Image {
    width: usize,
    height: usize,
    pixels: Vec<f32>,
}

impl Image {
    /// Image width in pixels.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// The intensity of pixel `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    #[must_use]
    pub fn pixel(&self, x: usize, y: usize) -> f32 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.pixels[y * self.width + x]
    }

    /// Fraction of pixels whose primary ray hit geometry.
    #[must_use]
    pub fn coverage(&self) -> f32 {
        if self.pixels.is_empty() {
            return 0.0;
        }
        self.pixels.iter().filter(|&&p| p > 0.0).count() as f32 / self.pixels.len() as f32
    }

    /// Renders the image as ASCII art (one character per pixel), brightest to darkest.
    #[must_use]
    pub fn to_ascii(&self) -> String {
        const RAMP: &[u8] = b" .:-=+*#%@";
        let mut out = String::with_capacity((self.width + 1) * self.height);
        for y in 0..self.height {
            for x in 0..self.width {
                let value = self.pixel(x, y).clamp(0.0, 1.0);
                let index = (value * (RAMP.len() - 1) as f32).round() as usize;
                out.push(RAMP[index] as char);
            }
            out.push('\n');
        }
        out
    }

    /// The coordinates of the first pixel whose **bit pattern** differs from `other`'s, scanning
    /// in row-major order, or `None` when every pixel is bit-identical — the comparison the
    /// golden tests, property tests and benchmark cross-checks all share.
    ///
    /// # Panics
    ///
    /// Panics if the images have different dimensions.
    #[must_use]
    pub fn first_mismatch(&self, other: &Image) -> Option<(usize, usize)> {
        assert_eq!(
            (self.width, self.height),
            (other.width, other.height),
            "image shapes differ"
        );
        self.pixels
            .iter()
            .zip(&other.pixels)
            .position(|(a, b)| a.to_bits() != b.to_bits())
            .map(|index| (index % self.width, index / self.width))
    }

    /// Encodes the image as a binary PGM (portable graymap) file.
    #[must_use]
    pub fn to_pgm(&self) -> Vec<u8> {
        let mut out = format!("P5\n{} {}\n255\n", self.width, self.height).into_bytes();
        out.extend(
            self.pixels
                .iter()
                .map(|p| (p.clamp(0.0, 1.0) * 255.0).round() as u8),
        );
        out
    }
}

/// The multi-pass deferred renderer, entirely driven by datapath beats.  One entry point —
/// [`Renderer::render`] — takes the frame description ([`FrameDesc`]: primary-only or the full
/// deferred pipeline) and the execution policy ([`ExecPolicy`](crate::ExecPolicy)); every mode
/// renders the same frame bit for bit.
#[derive(Debug)]
pub struct Renderer {
    engine: TraversalEngine,
}

impl Renderer {
    /// Creates a renderer over a baseline-unified datapath.
    #[must_use]
    pub fn new() -> Self {
        Self::with_config(PipelineConfig::baseline_unified())
    }

    /// Creates a renderer over a datapath of the given configuration.
    #[must_use]
    pub fn with_config(config: PipelineConfig) -> Self {
        Renderer {
            engine: TraversalEngine::with_config(config),
        }
    }

    /// Renders one frame — **the** rendering entry point, for every frame shape and every
    /// execution mode.
    ///
    /// The [`FrameDesc`] describes *what* to render (camera, dimensions, pass configuration:
    /// primary-only, shadowed, +AO, +bounce); the [`Scene`] carries the geometry (flat or
    /// two-level instanced — instanced frames are pixel-bit-identical to rendering
    /// [`Scene::flatten`]); the [`ExecPolicy`](crate::ExecPolicy) selects *how* every pass
    /// stream is traced (scalar reference, wavefront, parallel sharding, or fused — where the
    /// bounce closest-hit stream and the shadow any-hit stream share bulk passes over the
    /// engine's single datapath, the paper's §V-A scenario, honouring the policy's beat
    /// budget).
    ///
    /// Pixels and accumulated [`TraversalStats`] are **bit-identical across all execution
    /// modes** — pinned by the golden tests, `rtunit/tests/proptest_render.rs` and the
    /// cross-policy matrix in `rtunit/tests/proptest_policy.rs`.
    ///
    /// # Example
    ///
    /// ```
    /// use rayflex_geometry::{Triangle, Vec3};
    /// use rayflex_rtunit::{Camera, ExecPolicy, FrameDesc, Renderer, Scene};
    ///
    /// let scene = Scene::flat(vec![Triangle::new(
    ///     Vec3::new(-2.0, -2.0, 5.0),
    ///     Vec3::new(2.0, -2.0, 5.0),
    ///     Vec3::new(0.0, 2.0, 5.0),
    /// )]);
    /// let camera = Camera::looking_at(Vec3::ZERO, Vec3::new(0.0, 0.0, 5.0));
    /// let mut renderer = Renderer::new();
    /// let frame = FrameDesc::primary(camera, 16, 12);
    /// let image = renderer.render(&scene, &frame, &ExecPolicy::wavefront());
    /// assert!(image.coverage() > 0.0);
    /// ```
    pub fn render(&mut self, scene: &Scene, frame: &FrameDesc, policy: &ExecPolicy) -> Image {
        let mut tracer = FrameTracer {
            engine: &mut self.engine,
            scene,
            policy: *policy,
            budget: 0,
            baseline_ops: 0,
            exhausted: false,
        };
        match &frame.passes {
            None => primary_frame(&frame.camera, frame.width, frame.height, &mut tracer),
            Some(passes) => deferred_frame(
                &frame.camera,
                frame.width,
                frame.height,
                passes,
                &mut tracer,
            ),
        }
    }

    /// Renders one frame with up-front validation and deadline-aware cancellation — the
    /// `Result`-returning variant of [`Renderer::render`].
    ///
    /// The scene is checked by [`SceneValidator`] and the frame description is checked for
    /// finiteness (camera basis, field of view, light, AO radius, bounce reflectivity) before
    /// any beat is issued.  When the policy carries a deadline
    /// ([`ExecPolicy::with_max_total_beats`]) the budget spans the **whole frame**: every pass
    /// stream runs capped by the remaining beats, the first pass to overrun is cancelled
    /// cooperatively at a pass boundary, and the rest of the pipeline drains without touching
    /// the datapath.  A frame that crosses its deadline surfaces
    /// [`QueryError::DeadlineExceeded`] rather than a silently incomplete image; an uncapped
    /// `try_render` is pixel-bit-identical to [`Renderer::render`].
    ///
    /// # Errors
    ///
    /// * [`QueryError::InvalidScene`] — non-finite vertices, degenerate triangles, or a
    ///   malformed BVH.
    /// * [`QueryError::InvalidRequest`] — a non-finite or degenerate camera / pass
    ///   configuration.  Zero-dimension frames are *valid* and render an empty image.
    /// * [`QueryError::DeadlineExceeded`] — the frame crossed
    ///   [`ExecPolicy::max_total_beats`].
    ///
    /// # Example
    ///
    /// ```
    /// use rayflex_geometry::{Triangle, Vec3};
    /// use rayflex_rtunit::{Camera, ExecPolicy, FrameDesc, QueryError, Renderer, Scene};
    ///
    /// let scene = Scene::flat(vec![Triangle::new(
    ///     Vec3::new(-2.0, -2.0, 5.0),
    ///     Vec3::new(2.0, -2.0, 5.0),
    ///     Vec3::new(0.0, 2.0, 5.0),
    /// )]);
    /// let camera = Camera::looking_at(Vec3::ZERO, Vec3::new(0.0, 0.0, 5.0));
    /// let frame = FrameDesc::primary(camera, 16, 12);
    /// let mut renderer = Renderer::new();
    ///
    /// let image = renderer
    ///     .try_render(&scene, &frame, &ExecPolicy::wavefront())
    ///     .unwrap();
    /// assert!(image.coverage() > 0.0);
    ///
    /// // One beat is never enough for a 16x12 frame: the deadline surfaces as a typed error.
    /// let starved = ExecPolicy::wavefront().with_max_total_beats(1);
    /// let err = renderer.try_render(&scene, &frame, &starved).unwrap_err();
    /// assert!(matches!(err, QueryError::DeadlineExceeded { .. }));
    /// ```
    pub fn try_render(
        &mut self,
        scene: &Scene,
        frame: &FrameDesc,
        policy: &ExecPolicy,
    ) -> Result<Image, QueryError> {
        SceneValidator::validate_scene(scene)?;
        validate_frame(frame)?;
        let baseline_ops = self.engine.stats().total_ops();
        let mut tracer = FrameTracer {
            engine: &mut self.engine,
            scene,
            policy: *policy,
            budget: policy.max_total_beats,
            baseline_ops,
            exhausted: false,
        };
        let image = match &frame.passes {
            None => primary_frame(&frame.camera, frame.width, frame.height, &mut tracer),
            Some(passes) => deferred_frame(
                &frame.camera,
                frame.width,
                frame.height,
                passes,
                &mut tracer,
            ),
        };
        let exhausted = tracer.exhausted;
        if exhausted {
            return Err(QueryError::DeadlineExceeded {
                beats_spent: self.engine.stats().total_ops() - baseline_ops,
                max_total_beats: policy.max_total_beats,
            });
        }
        Ok(image)
    }

    /// Per-opcode (and per-query-kind) breakdown of every beat the renderer's datapath has
    /// executed — the fused bounce+shadow passes show up in its `fused_passes` count and
    /// per-kind columns.
    #[must_use]
    pub fn beat_mix(&self) -> rayflex_core::BeatMix {
        self.engine.beat_mix()
    }

    /// The traversal statistics accumulated over everything rendered so far.
    #[must_use]
    pub fn stats(&self) -> TraversalStats {
        self.engine.stats()
    }
}

impl Default for Renderer {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ExecMode;
    use rayflex_workloads::scenes;

    fn quad_at_z(z: f32, half: f32) -> Vec<Triangle> {
        vec![
            Triangle::new(
                Vec3::new(-half, -half, z),
                Vec3::new(half, -half, z),
                Vec3::new(half, half, z),
            ),
            Triangle::new(
                Vec3::new(-half, -half, z),
                Vec3::new(half, half, z),
                Vec3::new(-half, half, z),
            ),
        ]
    }

    /// A floor quad at `y = 0` spanning ±`half` in x/z, wound like the `soft_shadow` floor so
    /// rays arriving from above hit it under the paper's `dir · (AB × AC) > 0` culling
    /// convention.
    fn floor_quad(half: f32) -> Vec<Triangle> {
        vec![
            Triangle::new(
                Vec3::new(-half, 0.0, -half),
                Vec3::new(half, 0.0, -half),
                Vec3::new(half, 0.0, half),
            ),
            Triangle::new(
                Vec3::new(-half, 0.0, -half),
                Vec3::new(half, 0.0, half),
                Vec3::new(-half, 0.0, half),
            ),
        ]
    }

    fn assert_images_bit_identical(a: &Image, b: &Image, what: &str) {
        assert_eq!(a.first_mismatch(b), None, "{what}");
    }

    /// The policy sweep of the renderer golden tests: the reference first, then every other
    /// mode (including budgeted fusion).
    fn non_reference_policies() -> Vec<ExecPolicy> {
        vec![
            ExecPolicy::wavefront(),
            ExecPolicy::parallel(4),
            ExecPolicy::fused(),
            ExecPolicy::fused().with_beat_budget(1),
        ]
    }

    #[test]
    fn camera_rays_cover_the_view_frustum() {
        let camera = Camera::looking_at(Vec3::ZERO, Vec3::new(0.0, 0.0, 1.0));
        let center = camera.primary_ray(16, 16, 32, 32);
        assert!(center.dir.z > 0.9 * center.dir.length());
        let corner = camera.primary_ray(0, 0, 32, 32);
        assert!(corner.dir.x < 0.0 && corner.dir.y > 0.0);
    }

    #[test]
    fn the_hoisted_basis_matches_per_pixel_rays_bit_for_bit() {
        let camera = Camera::looking_at(Vec3::new(1.0, 2.0, -3.0), Vec3::new(0.5, 0.0, 9.0));
        let (width, height) = (17, 11);
        let basis = camera.basis(width, height);
        let frame = camera.primary_rays(width, height);
        for y in 0..height {
            for x in 0..width {
                let per_pixel = camera.primary_ray(x, y, width, height);
                let from_basis = basis.primary_ray(x, y);
                assert_eq!(per_pixel, from_basis, "pixel ({x}, {y})");
                assert_eq!(frame[y * width + x], per_pixel, "pixel ({x}, {y})");
            }
        }
    }

    #[test]
    fn straight_down_camera_renders_without_nan_rays() {
        // Regression test for the degenerate-basis bug: `up × forward` is the zero vector when
        // the camera looks straight along the up axis, and normalising it poisoned every ray of
        // the frame with NaN directions.
        let triangles = floor_quad(50.0);
        let world = Scene::flat(triangles.clone());
        for look in [Vec3::new(0.0, -1.0, 0.0), Vec3::new(0.0, 1.0, 0.0)] {
            let camera = Camera::looking_at(
                Vec3::new(0.0, 10.0, 0.0),
                Vec3::new(0.0, 10.0, 0.0) + look * 10.0,
            );
            let rays = camera.primary_rays(16, 16);
            assert!(
                rays.iter()
                    .all(|r| r.dir.is_finite() && r.origin.is_finite()),
                "no NaN ray directions looking along {look:?}"
            );
            let mut renderer = Renderer::new();
            let image = renderer.render(
                &world,
                &FrameDesc::primary(camera, 16, 16),
                &ExecPolicy::wavefront(),
            );
            for y in 0..16 {
                for x in 0..16 {
                    assert!(image.pixel(x, y).is_finite(), "pixel ({x}, {y}) is NaN");
                }
            }
            if look.y < 0.0 {
                assert!(image.coverage() > 0.9, "the floor fills the downward view");
            }
        }
    }

    #[test]
    fn rendering_a_facing_quad_covers_the_image_centre() {
        let triangles = quad_at_z(5.0, 2.0);
        let world = Scene::flat(triangles.clone());
        let camera = Camera::looking_at(Vec3::ZERO, Vec3::new(0.0, 0.0, 5.0));
        let mut renderer = Renderer::new();
        let image = renderer.render(
            &world,
            &FrameDesc::primary(camera, 24, 24),
            &ExecPolicy::wavefront(),
        );
        assert_eq!(image.width(), 24);
        assert_eq!(image.height(), 24);
        assert!(image.pixel(12, 12) > 0.0, "centre pixel must be covered");
        assert!(image.coverage() > 0.3, "coverage {}", image.coverage());
        assert!(image.coverage() < 1.0, "corners should miss");
        assert!(renderer.stats().rays >= 24 * 24);
    }

    #[test]
    fn primary_frames_are_bit_identical_across_every_policy() {
        // The golden test of the primary renderer: every execution mode's frame equals the
        // scalar per-pixel reference frame, and the traversal statistics match exactly.
        let triangles = scenes::icosphere(2, 5.0, Vec3::new(0.0, 0.0, 20.0));
        let world = Scene::flat(triangles.clone());
        let camera = Camera::looking_at(Vec3::ZERO, Vec3::new(0.0, 0.0, 20.0));
        let frame = FrameDesc::primary(camera, 32, 24);

        let mut reference = Renderer::new();
        let expected = reference.render(&world, &frame, &ExecPolicy::scalar());
        assert!(expected.coverage() > 0.1, "the icosphere is visible");

        for policy in non_reference_policies() {
            let mut renderer = Renderer::new();
            let image = renderer.render(&world, &frame, &policy);
            assert_images_bit_identical(&image, &expected, "primary frame");
            assert_eq!(
                renderer.stats(),
                reference.stats(),
                "identical TraversalStats under {}",
                policy.mode
            );
        }
    }

    #[test]
    fn deferred_frames_are_bit_identical_across_every_policy() {
        // The golden test of the multi-pass deferred renderer: shadowed and shadowed+AO frames
        // equal the scalar multi-pass reference pixel-bit-for-bit and stat-for-stat under every
        // execution policy.
        let scene = scenes::lit_scene(1, 24.0);
        let world = Scene::flat(scene.triangles.clone());
        let camera = Camera::looking_at(scene.eye, scene.target);
        let configs = [
            RenderPasses::shadowed(scene.light),
            RenderPasses::shadowed(scene.light).with_ambient_occlusion(3, 6.0, 2024),
        ];
        for passes in configs {
            let frame = FrameDesc::deferred(camera, 24, 18, passes);
            let mut reference = Renderer::new();
            let expected = reference.render(&world, &frame, &ExecPolicy::scalar());
            assert!(expected.coverage() > 0.2, "the lit scene is visible");

            for policy in non_reference_policies() {
                let mut renderer = Renderer::new();
                let image = renderer.render(&world, &frame, &policy);
                assert_images_bit_identical(&image, &expected, "deferred frame");
                assert_eq!(
                    renderer.stats(),
                    reference.stats(),
                    "identical TraversalStats under {}",
                    policy.mode
                );
            }
        }
    }

    #[test]
    fn bounce_frames_are_bit_identical_across_every_policy_and_observably_fused() {
        // The golden test of the one-bounce reflection pass: the frame whose bounce closest-hit
        // stream and shadow any-hit stream can share bulk passes equals the scalar sequential
        // reference pixel-bit-for-bit and stat-for-stat, with and without AO, under every
        // policy — and under the fused policy the sharing is observable in the beat mix.
        let scene = scenes::lit_scene(1, 24.0);
        let world = Scene::flat(scene.triangles.clone());
        let camera = Camera::looking_at(scene.eye, scene.target);
        let configs = [
            RenderPasses::shadowed(scene.light).with_bounce(0.4),
            RenderPasses::shadowed(scene.light)
                .with_bounce(0.25)
                .with_ambient_occlusion(3, 6.0, 2024),
        ];
        for passes in configs {
            let frame = FrameDesc::deferred(camera, 24, 18, passes);
            let mut reference = Renderer::new();
            let expected = reference.render(&world, &frame, &ExecPolicy::scalar());

            for policy in non_reference_policies() {
                let mut renderer = Renderer::new();
                let image = renderer.render(&world, &frame, &policy);
                assert_images_bit_identical(&image, &expected, "bounce frame");
                assert_eq!(
                    renderer.stats(),
                    reference.stats(),
                    "identical TraversalStats under {}",
                    policy.mode
                );
                if policy.mode == ExecMode::Fused {
                    // The fusion itself is observable: bounce (closest-hit) and shadow
                    // (any-hit) beats shared bulk passes on the fused renderer's datapath.
                    let mix = renderer.beat_mix();
                    assert!(mix.fused_passes() > 0, "bounce and shadow shared passes");
                    assert!(mix.kind_total(rayflex_core::QueryKind::ClosestHit) > 0);
                    assert!(mix.kind_total(rayflex_core::QueryKind::AnyHit) > 0);
                }
            }
        }
    }

    #[test]
    fn a_zero_reflectivity_bounce_frame_equals_the_plain_deferred_frame() {
        let scene = scenes::lit_scene(1, 24.0);
        let world = Scene::flat(scene.triangles.clone());
        let camera = Camera::looking_at(scene.eye, scene.target);
        let passes = RenderPasses::shadowed(scene.light).with_ambient_occlusion(2, 5.0, 9);
        let frame = FrameDesc::deferred(camera, 20, 14, passes.with_bounce(0.0));
        let mut renderer = Renderer::new();
        let deferred = renderer.render(&world, &frame, &ExecPolicy::wavefront());
        let fused = renderer.render(&world, &frame, &ExecPolicy::fused());
        assert_images_bit_identical(&deferred, &fused, "reflectivity 0 disables the bounce");
    }

    #[test]
    fn the_bounce_pass_only_brightens_and_shows_reflections() {
        let scene = scenes::lit_scene(1, 24.0);
        let world = Scene::flat(scene.triangles.clone());
        let camera = Camera::looking_at(scene.eye, scene.target);
        let base_passes = RenderPasses::shadowed(scene.light);
        let mut renderer = Renderer::new();
        let base = renderer.render(
            &world,
            &FrameDesc::deferred(camera, 24, 18, base_passes),
            &ExecPolicy::fused(),
        );
        let bounced = renderer.render(
            &world,
            &FrameDesc::deferred(camera, 24, 18, base_passes.with_bounce(0.5)),
            &ExecPolicy::fused(),
        );
        let mut brightened = 0;
        for y in 0..18 {
            for x in 0..24 {
                assert!(
                    bounced.pixel(x, y) >= base.pixel(x, y) - 1e-6,
                    "an additive mirror term cannot darken pixel ({x}, {y})"
                );
                if bounced.pixel(x, y) > base.pixel(x, y) + 1e-3 {
                    brightened += 1;
                }
            }
        }
        assert!(brightened > 0, "some pixels pick up reflected light");
    }

    #[test]
    fn adaptive_ao_off_pins_the_uniform_sampling_frame() {
        // The golden test of the adaptive-AO satellite: with adaptivity off the frame is the
        // uniform-sampling frame, bit for bit (the flag defaults to off, so this also pins
        // backward compatibility of the deferred pipeline).
        let scene = scenes::lit_scene(1, 24.0);
        let world = Scene::flat(scene.triangles.clone());
        let camera = Camera::looking_at(scene.eye, scene.target);
        let uniform = RenderPasses::shadowed(scene.light).with_ambient_occlusion(4, 6.0, 2024);
        let explicit_off = uniform.with_adaptive_ao(false);
        let mut renderer = Renderer::new();
        let policy = ExecPolicy::wavefront();
        let a = renderer.render(
            &world,
            &FrameDesc::deferred(camera, 24, 18, uniform),
            &policy,
        );
        let b = renderer.render(
            &world,
            &FrameDesc::deferred(camera, 24, 18, explicit_off),
            &policy,
        );
        assert_images_bit_identical(&a, &b, "adaptivity off is the uniform frame");
    }

    #[test]
    fn adaptive_ao_skips_probes_outside_the_penumbra_in_every_mode() {
        let scene = scenes::lit_scene(1, 24.0);
        let world = Scene::flat(scene.triangles.clone());
        // The straight-down framing guarantees large fully-lit floor regions around a real
        // shadow boundary, so adaptivity has something to skip *and* something to keep.
        let camera = Camera::looking_at(Vec3::new(0.0, 20.0, -0.1), Vec3::new(0.0, 0.0, 0.0));
        let uniform = RenderPasses::shadowed(scene.light).with_ambient_occlusion(4, 6.0, 7);
        let adaptive = uniform.with_adaptive_ao(true);
        let (width, height) = (24, 24);
        let uniform_frame = FrameDesc::deferred(camera, width, height, uniform);
        let adaptive_frame = FrameDesc::deferred(camera, width, height, adaptive);

        let mut uniform_renderer = Renderer::new();
        let _ = uniform_renderer.render(&world, &uniform_frame, &ExecPolicy::wavefront());
        let mut adaptive_renderer = Renderer::new();
        let adaptive_image =
            adaptive_renderer.render(&world, &adaptive_frame, &ExecPolicy::wavefront());
        assert!(
            adaptive_renderer.stats().rays < uniform_renderer.stats().rays,
            "penumbra-only sampling traces fewer AO probes ({} vs {})",
            adaptive_renderer.stats().rays,
            uniform_renderer.stats().rays
        );

        // Every execution mode agrees on the adaptive frame too.
        let mut reference = Renderer::new();
        let expected = reference.render(&world, &adaptive_frame, &ExecPolicy::scalar());
        assert_images_bit_identical(&adaptive_image, &expected, "adaptive frame");
        assert_eq!(adaptive_renderer.stats(), reference.stats());
        let mut parallel = Renderer::new();
        let parallel_image = parallel.render(&world, &adaptive_frame, &ExecPolicy::parallel(4));
        assert_images_bit_identical(&adaptive_image, &parallel_image, "parallel adaptive frame");
        assert_eq!(adaptive_renderer.stats(), parallel.stats());
    }

    #[test]
    fn the_shadow_pass_darkens_occluded_floor_pixels() {
        let scene = scenes::lit_scene(1, 24.0);
        let world = Scene::flat(scene.triangles.clone());
        // Look straight down at the floor under the occluder from high above: the shadow of the
        // floating sphere must produce pixels strictly darker than the lit floor around them.
        let camera = Camera::looking_at(Vec3::new(0.0, 20.0, -0.1), Vec3::new(0.0, 0.0, 0.0));
        let frame = FrameDesc::deferred(camera, 24, 24, RenderPasses::shadowed(scene.light));
        let mut renderer = Renderer::new();
        let image = renderer.render(&world, &frame, &ExecPolicy::wavefront());
        let mut values: Vec<f32> = (0..24 * 24)
            .map(|i| image.pixel(i % 24, i / 24))
            .filter(|&p| p > 0.0)
            .collect();
        values.sort_by(f32::total_cmp);
        assert!(!values.is_empty());
        let (darkest, brightest) = (values[0], values[values.len() - 1]);
        assert!(
            brightest > darkest + 0.3,
            "shadowed pixels ({darkest}) must be darker than lit ones ({brightest})"
        );
    }

    #[test]
    fn ambient_occlusion_darkens_but_never_brightens() {
        let scene = scenes::lit_scene(1, 24.0);
        let world = Scene::flat(scene.triangles.clone());
        let camera = Camera::looking_at(scene.eye, scene.target);
        let shadow_only = RenderPasses::shadowed(scene.light);
        let with_ao = shadow_only.with_ambient_occlusion(8, 8.0, 7);
        let mut renderer = Renderer::new();
        let policy = ExecPolicy::wavefront();
        let base = renderer.render(
            &world,
            &FrameDesc::deferred(camera, 20, 16, shadow_only),
            &policy,
        );
        let ao = renderer.render(
            &world,
            &FrameDesc::deferred(camera, 20, 16, with_ao),
            &policy,
        );
        let mut darkened = 0;
        for y in 0..16 {
            for x in 0..20 {
                assert!(
                    ao.pixel(x, y) <= base.pixel(x, y) + 1e-6,
                    "AO can only darken pixel ({x}, {y})"
                );
                if ao.pixel(x, y) < base.pixel(x, y) - 1e-3 {
                    darkened += 1;
                }
            }
        }
        assert!(darkened > 0, "some pixels show ambient occlusion");
    }

    #[test]
    fn zero_sized_frames_render_without_panicking() {
        let triangles = quad_at_z(5.0, 2.0);
        let world = Scene::flat(triangles.clone());
        let camera = Camera::looking_at(Vec3::ZERO, Vec3::new(0.0, 0.0, 5.0));
        let passes = RenderPasses::shadowed(Vec3::new(0.0, 10.0, 0.0));
        let mut renderer = Renderer::new();
        for (width, height) in [(0, 0), (0, 8), (8, 0)] {
            let frame = FrameDesc::deferred(camera, width, height, passes);
            let image = renderer.render(&world, &frame, &ExecPolicy::wavefront());
            assert_eq!((image.width(), image.height()), (width, height));
            assert_eq!(image.coverage(), 0.0);
            assert!(image.to_ascii().chars().all(|c| c == '\n'));
            let parallel_image = renderer.render(&world, &frame, &ExecPolicy::parallel(4));
            assert_eq!(image, parallel_image);
        }
    }

    #[test]
    fn a_light_exactly_on_a_surfel_stays_finite() {
        // The degenerate shadow-ray extent: place the light exactly on the surfel of the centre
        // pixel.  The shadow ray collapses to an empty extent (never reports occlusion) and
        // shading must not divide by the zero light distance.
        let triangles = quad_at_z(5.0, 4.0);
        let world = Scene::flat(triangles.clone());
        let camera = Camera::looking_at(Vec3::ZERO, Vec3::new(0.0, 0.0, 5.0));
        let (width, height) = (9, 9);
        let mut engine = TraversalEngine::baseline();
        let rays = camera.primary_rays(width, height);
        let hits = engine
            .trace(
                &TraceRequest::closest_hit(&world, &rays),
                &ExecPolicy::wavefront(),
            )
            .into_closest();
        let (surfels, _) = extract_surfels(&triangles, &rays, &hits);
        let light_on_surfel = surfels[surfels.len() / 2].0;

        let passes = RenderPasses::shadowed(light_on_surfel).with_ambient_occlusion(2, 1.0, 3);
        let frame = FrameDesc::deferred(camera, width, height, passes);
        let mut renderer = Renderer::new();
        let image = renderer.render(&world, &frame, &ExecPolicy::wavefront());
        let mut reference = Renderer::new();
        let expected = reference.render(&world, &frame, &ExecPolicy::scalar());
        assert_images_bit_identical(&image, &expected, "degenerate-light frame");
        for y in 0..height {
            for x in 0..width {
                assert!(image.pixel(x, y).is_finite(), "pixel ({x}, {y}) is NaN");
            }
        }
    }

    #[test]
    fn zero_ao_samples_equals_the_shadow_only_frame() {
        let scene = scenes::lit_scene(1, 24.0);
        let world = Scene::flat(scene.triangles.clone());
        let camera = Camera::looking_at(scene.eye, scene.target);
        let shadow_only = RenderPasses::shadowed(scene.light);
        let zero_ao = shadow_only.with_ambient_occlusion(0, 4.0, 11);
        let mut renderer = Renderer::new();
        let policy = ExecPolicy::wavefront();
        let a = renderer.render(
            &world,
            &FrameDesc::deferred(camera, 16, 12, shadow_only),
            &policy,
        );
        let b = renderer.render(
            &world,
            &FrameDesc::deferred(camera, 16, 12, zero_ao),
            &policy,
        );
        assert_images_bit_identical(&a, &b, "samples_per_point == 0 skips the AO pass");
    }

    #[test]
    fn fully_shadowed_frames_stay_well_formed() {
        // A floor seen from above with an occluder quad covering the whole sky between floor and
        // light: every surfel is shadowed, leaving only the ambient term.  Coverage, ASCII and
        // PGM outputs must stay well-formed with no NaN.
        let mut triangles = floor_quad(40.0);
        // The occluder ceiling is wound the other way (normal up) so the upward shadow rays
        // strike its front face.
        let half = 60.0;
        triangles.push(Triangle::new(
            Vec3::new(-half, 15.0, -half),
            Vec3::new(half, 15.0, half),
            Vec3::new(half, 15.0, -half),
        ));
        triangles.push(Triangle::new(
            Vec3::new(-half, 15.0, -half),
            Vec3::new(-half, 15.0, half),
            Vec3::new(half, 15.0, half),
        ));
        let world = Scene::flat(triangles.clone());
        let camera = Camera::looking_at(Vec3::new(0.0, 10.0, -20.0), Vec3::new(0.0, 0.0, 10.0));
        let frame = FrameDesc::deferred(
            camera,
            16,
            8,
            RenderPasses::shadowed(Vec3::new(0.0, 100.0, 0.0)),
        );
        let mut renderer = Renderer::new();
        let image = renderer.render(&world, &frame, &ExecPolicy::wavefront());
        assert!(image.coverage() > 0.0, "the floor is visible");
        let floor_pixels: Vec<f32> = (0..16 * 8)
            .map(|i| image.pixel(i % 16, i / 16))
            .filter(|&p| p > 0.0)
            .collect();
        assert!(
            floor_pixels
                .iter()
                .all(|&p| p.is_finite() && p <= 0.15 + 1e-6),
            "every covered pixel is shadowed down to the ambient term"
        );
        let ascii = image.to_ascii();
        assert_eq!(ascii.lines().count(), 8);
        let pgm = image.to_pgm();
        assert_eq!(pgm.len(), b"P5\n16 8\n255\n".len() + 16 * 8);
    }

    #[test]
    fn ascii_and_pgm_outputs_are_well_formed() {
        let triangles = quad_at_z(5.0, 2.0);
        let world = Scene::flat(triangles.clone());
        let camera = Camera::looking_at(Vec3::ZERO, Vec3::new(0.0, 0.0, 5.0));
        let image = Renderer::new().render(
            &world,
            &FrameDesc::primary(camera, 16, 8),
            &ExecPolicy::wavefront(),
        );
        let ascii = image.to_ascii();
        assert_eq!(ascii.lines().count(), 8);
        assert!(ascii.lines().all(|l| l.chars().count() == 16));
        let pgm = image.to_pgm();
        assert!(pgm.starts_with(b"P5\n16 8\n255\n"));
        assert_eq!(pgm.len(), b"P5\n16 8\n255\n".len() + 16 * 8);
    }

    #[test]
    fn render_passes_default_is_the_shadowed_builder_seed() {
        let default = RenderPasses::default();
        assert_eq!(default, RenderPasses::shadowed(Vec3::new(0.0, 10.0, 0.0)));
        assert_eq!(default.ao_samples, 0);
        assert_eq!(default.bounce_reflectivity, 0.0);
        assert!(!default.adaptive_ao);
    }

    #[test]
    fn try_render_rejects_bad_scenes_and_frames_before_any_beat() {
        let triangles = quad_at_z(5.0, 2.0);
        let world = Scene::flat(triangles.clone());
        let camera = Camera::looking_at(Vec3::ZERO, Vec3::new(0.0, 0.0, 5.0));
        let policy = ExecPolicy::wavefront();
        let mut renderer = Renderer::new();

        let mut poisoned = triangles.clone();
        poisoned[0].v0.x = f32::NAN;
        let poisoned_scene = Scene::from_parts(world.bvh().expect("flat").clone(), poisoned);
        let err = renderer
            .try_render(&poisoned_scene, &FrameDesc::primary(camera, 8, 8), &policy)
            .unwrap_err();
        assert!(matches!(err, QueryError::InvalidScene { .. }), "{err}");

        let bad_frames = [
            FrameDesc::primary(
                Camera::looking_at(Vec3::new(f32::NAN, 0.0, 0.0), Vec3::new(0.0, 0.0, 5.0)),
                8,
                8,
            ),
            FrameDesc::primary(Camera::looking_at(Vec3::ZERO, Vec3::ZERO), 8, 8),
            FrameDesc::primary(
                Camera {
                    up: Vec3::ZERO,
                    ..camera
                },
                8,
                8,
            ),
            FrameDesc::primary(
                Camera {
                    fov_degrees: f32::INFINITY,
                    ..camera
                },
                8,
                8,
            ),
            FrameDesc::deferred(
                camera,
                8,
                8,
                RenderPasses::shadowed(Vec3::new(0.0, f32::NAN, 0.0)),
            ),
            FrameDesc::deferred(
                camera,
                8,
                8,
                RenderPasses::shadowed(Vec3::ZERO).with_ambient_occlusion(2, -1.0, 7),
            ),
        ];
        for frame in &bad_frames {
            let err = renderer.try_render(&world, frame, &policy).unwrap_err();
            assert!(matches!(err, QueryError::InvalidRequest { .. }), "{err}");
        }
        assert_eq!(
            renderer.stats(),
            TraversalStats::default(),
            "rejected frames must not issue a single beat"
        );
    }

    #[test]
    fn try_render_without_a_deadline_matches_render_in_every_mode() {
        let scene = scenes::lit_scene(1, 24.0);
        let world = Scene::flat(scene.triangles.clone());
        let camera = Camera::looking_at(scene.eye, scene.target);
        let passes = RenderPasses::shadowed(scene.light)
            .with_ambient_occlusion(2, 5.0, 9)
            .with_bounce(0.25);
        for frame in [
            FrameDesc::primary(camera, 16, 12),
            FrameDesc::deferred(camera, 16, 12, passes),
            FrameDesc::primary(camera, 0, 0),
        ] {
            for policy in std::iter::once(ExecPolicy::scalar()).chain(non_reference_policies()) {
                let expected = Renderer::new().render(&world, &frame, &policy);
                let mut renderer = Renderer::new();
                let image = renderer.try_render(&world, &frame, &policy).unwrap();
                assert_images_bit_identical(&image, &expected, "uncapped try_render");
            }
        }
    }

    #[test]
    fn a_starved_frame_surfaces_deadline_exceeded_in_every_mode() {
        let scene = scenes::lit_scene(1, 24.0);
        let world = Scene::flat(scene.triangles.clone());
        let camera = Camera::looking_at(scene.eye, scene.target);
        let frame = FrameDesc::deferred(camera, 16, 12, RenderPasses::shadowed(scene.light));
        for base in std::iter::once(ExecPolicy::scalar()).chain(non_reference_policies()) {
            let starved = base.with_max_total_beats(1);
            let err = Renderer::new()
                .try_render(&world, &frame, &starved)
                .unwrap_err();
            assert!(
                matches!(
                    err,
                    QueryError::DeadlineExceeded {
                        max_total_beats: 1,
                        ..
                    }
                ),
                "{} gave {err}",
                base.mode
            );

            let generous = base.with_max_total_beats(u64::MAX);
            let expected = Renderer::new().render(&world, &frame, &base);
            let image = Renderer::new()
                .try_render(&world, &frame, &generous)
                .unwrap();
            assert_images_bit_identical(&image, &expected, "generous deadline");
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_pixel_access_panics() {
        let triangles = quad_at_z(5.0, 2.0);
        let world = Scene::flat(triangles.clone());
        let camera = Camera::looking_at(Vec3::ZERO, Vec3::new(0.0, 0.0, 5.0));
        let image = Renderer::new().render(
            &world,
            &FrameDesc::primary(camera, 4, 4),
            &ExecPolicy::wavefront(),
        );
        let _ = image.pixel(4, 0);
    }
}
