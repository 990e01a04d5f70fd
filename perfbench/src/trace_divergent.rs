//! `trace_divergent`: single-threaded closest-hit traversal of seeded random rays through a mesh
//! whose BVH plus triangles are far larger than a 2 MiB per-core L2, under
//! `ExecPolicy::wavefront().with_simd_lanes(16)` and the default coherence mode.
//!
//! The traced run drives the same rays through [`FusedScheduler`] with each
//! [`TraversalStream`] wrapped in [`TimedStream`], a timing adapter around the public
//! [`FusedStream`] trait: it times the traversal layer's build and apply calls and captures every
//! pass, which is then replayed through `RayFlexDatapath::execute_batch_segmented` to time the
//! kernels on their own.

use rayflex_core::{Opcode, PipelineConfig, QueryKind, RayFlexDatapath, RayFlexRequest};
use rayflex_geometry::{Aabb, Ray, Vec3};
use rayflex_rtunit::{
    Bvh4, ExecPolicy, FusedScheduler, FusedStream, Scene, TraceRequest, TraversalEngine,
    TraversalHit, TraversalStream,
};
use rayflex_workloads::{rays, scenes};

use crate::stats::{
    median, median_setup, timed, windowed_quantile, Metrics, Outcome, Rng, WINDOWS,
};

/// Icosphere subdivision level: 81 920 triangles, about 17.6 MB of BVH plus triangles.
const SUBDIVISIONS: u32 = 6;
/// Rays per `trace` call — one timed operation.
pub const BATCH: usize = 4096;
/// Distinct seeded batches; a run cycles through them.
pub const BATCHES: usize = 16;
/// Rays of the seeded sample checked against the scalar reference.
const ORACLE_RAYS: usize = 256;
const SETUP_REPEATS: usize = 5;
/// Traced rounds over the batch pool; the median round is reported.
const TRACE_ROUNDS: usize = 3;

fn policy() -> ExecPolicy {
    ExecPolicy::wavefront().with_simd_lanes(16)
}

/// The program's set-up: the mesh, its BVH and the traversal engine.
fn setup() -> (Scene, TraversalEngine, f64) {
    let triangles = scenes::icosphere(SUBDIVISIONS, 1.0, Vec3::ZERO);
    let (bvh, bvh_s) = timed(|| Bvh4::build(&triangles));
    (
        Scene::from_parts(bvh, triangles),
        TraversalEngine::baseline(),
        bvh_s,
    )
}

/// The seeded ray batches: origins in a box just around the unit sphere, uniform directions.
pub fn ray_batches(seed: u64, batches: usize, batch: usize) -> Vec<Vec<Ray>> {
    let mut rng = Rng::new(seed);
    let bounds = Aabb::new(Vec3::splat(-1.25), Vec3::splat(1.25));
    (0..batches)
        .map(|_| rays::random_rays(rng.next_u64(), batch, &bounds))
        .collect()
}

/// Rays whose hits differ bit for bit.
fn mismatches(got: &[Option<TraversalHit>], want: &[Option<TraversalHit>]) -> u64 {
    if got.len() != want.len() {
        return want.len() as u64;
    }
    got.iter()
        .zip(want)
        .filter(|(a, b)| match (a, b) {
            (None, None) => false,
            (Some(a), Some(b)) => a.primitive != b.primitive || a.t.to_bits() != b.t.to_bits(),
            _ => true,
        })
        .count() as u64
}

/// One untimed pass over the pool: the reference hits every timed call is checked against, the
/// exact per-pass counters, and the scalar-reference check of a seeded ray sample.
struct Reference {
    hits: Vec<Vec<Option<TraversalHit>>>,
    counters: Metrics,
    lane_slots: u64,
    rays: u64,
}

fn reference(
    scene: &Scene,
    engine: &mut TraversalEngine,
    batches: &[Vec<Ray>],
    seed: u64,
    outcome: &mut Outcome,
) -> Reference {
    let before_mix = engine.beat_mix();
    let before_stats = engine.stats();
    let hits: Vec<Vec<Option<TraversalHit>>> = batches
        .iter()
        .map(|rays| {
            engine
                .trace(&TraceRequest::closest_hit(scene, rays), &policy())
                .into_closest()
        })
        .collect();
    let mix = engine.beat_mix();
    let rays: u64 = batches.iter().map(|b| b.len() as u64).sum();
    let mut counters = Metrics::default();
    for opcode in [Opcode::RayBox, Opcode::RayTriangle] {
        let name = opcode.name().to_ascii_lowercase().replace(['-', ' '], "_");
        counters.put(
            format!("core.beats.{name}"),
            (mix.count(opcode) - before_mix.count(opcode)) as f64,
            "count",
        );
    }
    let lane_slots = mix.simd_lane_slots() - before_mix.simd_lane_slots();
    counters.put("core.lane_slots", lane_slots as f64, "count");
    counters.put(
        "core.lanes_busy",
        (mix.simd_lanes_busy() - before_mix.simd_lanes_busy()) as f64,
        "count",
    );
    let beats = engine.stats().total_ops() - before_stats.total_ops();
    counters.put(
        "traversal.beats_per_ray",
        beats as f64 / rays as f64,
        "beats",
    );

    // The scalar reference over a seeded sample of (batch, ray) picks.
    let mut rng = Rng::new(seed ^ 0x0a4c_1e00);
    let picks: Vec<(usize, usize)> = (0..ORACLE_RAYS)
        .map(|_| {
            let batch = rng.below(batches.len() as u64) as usize;
            (batch, rng.below(batches[batch].len() as u64) as usize)
        })
        .collect();
    let sample: Vec<Ray> = picks.iter().map(|&(b, r)| batches[b][r]).collect();
    let want = TraversalEngine::baseline()
        .trace(
            &TraceRequest::closest_hit(scene, &sample),
            &ExecPolicy::scalar(),
        )
        .into_closest();
    let got: Vec<Option<TraversalHit>> = picks.iter().map(|&(b, r)| hits[b][r]).collect();
    outcome.checked(sample.len() as u64, mismatches(&got, &want));
    Reference {
        hits,
        counters,
        lane_slots,
        rays,
    }
}

/// The end-to-end run: `trace` calls over the batch pool until `seconds` have passed.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    run_sized(seed, seconds, BATCHES, BATCH)
}

/// [`run`] over a pool of `batches` × `batch` rays.
pub fn run_sized(seed: u64, seconds: f64, batches: usize, batch: usize) -> Outcome {
    let mut outcome = Outcome::default();
    let ((scene, mut engine, _), setup_s) = median_setup(SETUP_REPEATS, setup);
    let batches = ray_batches(seed, batches, batch);
    let reference = reference(&scene, &mut engine, &batches, seed, &mut outcome);

    let mut times = Vec::new();
    let started = std::time::Instant::now();
    let mut index = 0;
    while times.len() < 10 || started.elapsed().as_secs_f64() < seconds {
        let rays = &batches[index % batches.len()];
        let (hits, seconds) = timed(|| {
            engine
                .trace(&TraceRequest::closest_hit(&scene, rays), &policy())
                .into_closest()
        });
        times.push(seconds);
        outcome.checked(
            rays.len() as u64,
            mismatches(&hits, &reference.hits[index % batches.len()]),
        );
        index += 1;
    }
    let m = &mut outcome.metrics;
    m.put("setup_s", setup_s, "s");
    let p50 = windowed_quantile(&times, WINDOWS, 0.5);
    m.put("items_per_s", batch as f64 / p50, "1/s");
    m.put("latency_p50_ms", p50 * 1e3, "ms");
    m.put(
        "device_slots_per_item",
        reference.lane_slots as f64 / reference.rays as f64,
        "slots",
    );
    outcome
}

/// A timing adapter around any [`FusedStream`]: times the stream's own `start`, `build_pass`
/// and `apply_pass`, and captures every pass it builds so the kernels can be replayed alone.
pub struct TimedStream<S> {
    pub inner: S,
    pub start_s: f64,
    pub build_s: f64,
    pub apply_s: f64,
    /// Time spent copying passes out — the tracer's own cost.
    pub capture_s: f64,
    pub captured: Vec<RayFlexRequest>,
    pub pass_lengths: Vec<usize>,
}

impl<S: FusedStream> TimedStream<S> {
    pub fn new(inner: S) -> Self {
        TimedStream {
            inner,
            start_s: 0.0,
            build_s: 0.0,
            apply_s: 0.0,
            capture_s: 0.0,
            captured: Vec::new(),
            pass_lengths: Vec::new(),
        }
    }
}

impl<S: FusedStream> FusedStream for TimedStream<S> {
    fn kind(&self) -> QueryKind {
        self.inner.kind()
    }

    fn start(&mut self) {
        let ((), seconds) = timed(|| self.inner.start());
        self.start_s += seconds;
    }

    fn is_active(&self) -> bool {
        self.inner.is_active()
    }

    fn build_pass(&mut self, out: &mut Vec<RayFlexRequest>, max_beats: usize) -> usize {
        let before = out.len();
        let (beats, seconds) = timed(|| self.inner.build_pass(out, max_beats));
        self.build_s += seconds;
        let ((), seconds) = timed(|| {
            self.captured.extend_from_slice(&out[before..]);
            self.pass_lengths.push(beats);
        });
        self.capture_s += seconds;
        beats
    }

    fn apply_pass(&mut self, responses: &[rayflex_core::RayFlexResponse]) {
        let ((), seconds) = timed(|| self.inner.apply_pass(responses));
        self.apply_s += seconds;
    }
}

/// Self times of one traced pass over the batch pool, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Round {
    pub untraced_s: f64,
    pub traced_s: f64,
    pub construct_s: f64,
    pub start_s: f64,
    pub build_s: f64,
    pub apply_s: f64,
    pub capture_s: f64,
    pub kernel_s: f64,
    pub sched_s: f64,
    pub finish_s: f64,
    pub passes: u64,
    pub beats: u64,
}

/// Untraced then traced, batch by batch over the pool; every traced output is checked against
/// the reference hits.
fn round(
    scene: &Scene,
    engine: &mut TraversalEngine,
    batches: &[Vec<Ray>],
    reference: &Reference,
    outcome: &mut Outcome,
) -> Round {
    let coherence = policy().effective_coherence();
    let lanes = policy().effective_simd_lanes();
    let mut datapath = RayFlexDatapath::new(PipelineConfig::baseline_unified());
    datapath.set_simd_lanes(lanes);
    let mut replay = RayFlexDatapath::new(PipelineConfig::baseline_unified());
    replay.set_simd_lanes(lanes);
    let mut fused = FusedScheduler::new();
    let mut responses = Vec::new();
    let mut r = Round::default();
    for (rays, want) in batches.iter().zip(&reference.hits) {
        let (_, untraced) = timed(|| {
            engine
                .trace(&TraceRequest::closest_hit(scene, rays), &policy())
                .into_closest()
        });
        r.untraced_s += untraced;

        let (mut stream, construct) = timed(|| {
            TimedStream::new(TraversalStream::closest_hit(scene, rays).with_coherence(coherence))
        });
        let ((), run_s) =
            timed(|| fused.run(&mut datapath, &mut [&mut stream as &mut dyn FusedStream]));
        let TimedStream {
            inner,
            start_s,
            build_s,
            apply_s,
            capture_s,
            captured,
            pass_lengths,
        } = stream;
        let ((hits, _), finish) = timed(|| inner.finish());
        outcome.checked(rays.len() as u64, mismatches(&hits, want));

        // The kernels alone: every captured pass through the same segmented dispatch.
        let mut offset = 0;
        let ((), kernel_s) = timed(|| {
            for &len in &pass_lengths {
                replay.execute_batch_segmented(
                    &captured[offset..offset + len],
                    &[(QueryKind::ClosestHit, len)],
                    &mut responses,
                );
                offset += len;
            }
        });
        r.traced_s += construct + run_s + finish;
        r.construct_s += construct;
        r.finish_s += finish;
        r.start_s += start_s;
        r.build_s += build_s;
        r.apply_s += apply_s;
        r.capture_s += capture_s;
        r.kernel_s += kernel_s;
        r.sched_s += run_s - start_s - build_s - apply_s - capture_s - kernel_s;
        r.passes += fused.last_run_passes();
        r.beats += captured.len() as u64;
    }
    r
}

/// Layer metrics of one traced round.  `trace.e2e_s` is the traced time less the tracer's own
/// pass capture; the layer self times plus the unattributed part sum to it by construction.
pub fn round_metrics(r: &Round) -> Metrics {
    let mut m = Metrics::default();
    m.put("traversal.start_s", r.start_s, "s");
    m.put("traversal.build_s", r.build_s, "s");
    m.put("traversal.apply_s", r.apply_s, "s");
    m.put("core.kernel_s", r.kernel_s, "s");
    m.put(
        "core.kernel_beats_per_s",
        r.beats as f64 / r.kernel_s.max(1e-12),
        "1/s",
    );
    m.put("query.sched_self_s", r.sched_s, "s");
    m.put("query.passes", r.passes as f64, "count");
    m.put(
        "query.beats_per_pass",
        r.beats as f64 / r.passes.max(1) as f64,
        "beats",
    );
    let layers = r.start_s + r.build_s + r.apply_s + r.kernel_s + r.sched_s;
    let e2e = r.traced_s - r.capture_s;
    m.put("own.trace.e2e_s", e2e, "s");
    m.put(
        "own.trace.unattributed_share",
        (e2e - layers) / e2e,
        "ratio",
    );
    m.put(
        "own.trace.overhead",
        r.traced_s / r.untraced_s - 1.0,
        "ratio",
    );
    m
}

/// The traced phase over a pool of `batches` × `batch` rays.
pub fn trace_sized(seed: u64, batches: usize, batch: usize) -> Outcome {
    let mut outcome = Outcome::default();
    let mut bvh_times = Vec::new();
    let ((scene, mut engine, _), _) = median_setup(SETUP_REPEATS, || {
        let built = setup();
        bvh_times.push(built.2);
        built
    });
    let pool = ray_batches(seed, batches, batch);
    let reference = reference(&scene, &mut engine, &pool, seed, &mut outcome);
    let mut rounds: Vec<Round> = (0..TRACE_ROUNDS)
        .map(|_| round(&scene, &mut engine, &pool, &reference, &mut outcome))
        .collect();
    rounds.sort_by(|a, b| a.traced_s.total_cmp(&b.traced_s));
    let m = &mut outcome.metrics;
    m.put("bvh.build_s", median(&mut bvh_times), "s");
    m.put("scene.memory_bytes", scene.memory_bytes() as f64, "bytes");
    m.extend(reference.counters.clone());
    m.extend(round_metrics(&rounds[rounds.len() / 2]));
    outcome
}

/// The traced phase at the benchmark's size.
pub fn trace(seed: u64, _seconds: f64) -> Outcome {
    trace_sized(seed, BATCHES, BATCH)
}
