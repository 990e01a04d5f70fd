//! `serve_mix`: the online service driven in-process as an open loop.
//!
//! One generator thread (the caller's) sends seeded Poisson arrivals of loadgen's small mix
//! through `wire::encode_request` / `decode_request` into the public [`AdmissionQueue`]; one
//! executor thread runs the `ServerConfig::default()` batching knobs through
//! [`BatchExecutor::execute`] and passes every response through `encode_response` /
//! `decode_response`.  Latency runs from each request's scheduled send time to its decoded
//! response.  The TCP front end is not measured: on a 2-core host two one-in-flight
//! connections cannot coalesce, so sockets would only measure the kernel's loopback.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rayflex_core::{PipelineConfig, RayFlexDatapath};
use rayflex_geometry::Vec3;
use rayflex_rtunit::{
    select_k_nearest, Bvh4, DistanceStream, ExecPolicy, FusedScheduler, FusedStream,
    HierarchicalSearch, KnnEngine, KnnMetric, QueryOutcome, Scene, TraceRequest, TraversalEngine,
    TraversalStream,
};
use rayflex_server::{AdmissionQueue, BatchExecutor, ExecConfig, Job, Registry, ServerConfig};
use rayflex_workloads::wire::{
    catalog, decode_request, decode_response, encode_request, encode_response, RequestBody,
    RequestFrame, ResponseBody, ResponseFrame, WireHit, WireNeighbor,
};

use crate::stats::{
    mean, median, median_setup, quantile, timed, windowed_quantile, Outcome, Rng, WINDOWS,
};

/// The two fixed offered rates (requests/s), about 1/4 and 3/4 of the highest rate the service
/// sustained with `--seed 1` when the benchmark was calibrated (see `perfbench/README.md`).
pub const LOW_RPS: f64 = 10_000.0;
pub const HIGH_RPS: f64 = 30_000.0;
/// The fixed ladder `serve.max_rate_rps` climbs (requests/s), one rung of [`RUNG_SECONDS`] each.
pub const LADDER_RPS: [f64; 8] = [
    20_000.0, 25_000.0, 30_000.0, 35_000.0, 40_000.0, 45_000.0, 50_000.0, 55_000.0,
];
const RUNG_SECONDS: f64 = 2.0;
/// The p99 latency limit of `serve.max_rate_rps` — the mix's own 20 ms request deadline.
const P99_LIMIT_US: f64 = 20_000.0;
/// A rate whose end-of-run backlog exceeds this many requests is growing its queue.
const BACKLOG_LIMIT: u64 = 64;
/// The generator stops sending once this many requests are outstanding: the queue's
/// earliest-deadline-first selection costs time quadratic in its depth, so an unbounded backlog
/// would take minutes to drain.  Requests never sent count as failed.
const OVERLOAD_BACKLOG: u64 = 2048;
/// Distinct seeded requests; longer runs cycle through them with fresh request ids.
const POOL: usize = 16384;
/// Requests per closed-loop saturation run.
const BURST: usize = 4096;
/// Requests the closed loop keeps outstanding: two full batches, so the executor always finds
/// a full batch waiting while the queue stays shallow.
const CLOSED_LOOP_WINDOW: u64 = 64;

/// The service under test: the preloaded registry and the batch executor over it.
pub struct Service {
    registry: Arc<Registry>,
    executor: BatchExecutor,
    config: ServerConfig,
}

/// Builds the service the way `ServerHandle::spawn` does, timing its two set-up layers.
pub fn setup() -> (Service, f64, f64) {
    let (registry, preload_s) = timed(|| Registry::preload().expect("the catalog preloads"));
    let registry = Arc::new(registry);
    let config = ServerConfig::default();
    let exec_config = ExecConfig {
        beat_budget: config.beat_budget,
        max_batch_beats: config.max_batch_beats,
        admission: config.admission,
        simd_lanes: config.simd_lanes,
    };
    let (executor, new_s) = timed(|| BatchExecutor::new(Arc::clone(&registry), exec_config));
    (
        Service {
            registry,
            executor,
            config,
        },
        preload_s,
        new_s,
    )
}

/// loadgen's small mix, drawn from `seed`: 1–2-ray trace and any-hit requests on `lit` /
/// `wall`, k=4 kNN on `clusters`, radius queries on `cloud`; one third carry a 20 ms deadline;
/// four tenants.
pub fn request_pool(seed: u64, count: usize) -> Vec<RequestFrame> {
    let mut rng = Rng::new(seed);
    let queries = catalog::sample_queries("clusters", rng.next_u64(), count).expect("catalog");
    let centers = catalog::sample_centers("cloud", rng.next_u64(), count).expect("catalog");
    (0..count)
        .map(|index| {
            let class = rng.below(7);
            let deadline_us = if rng.below(3) == 0 { 20_000 } else { 0 };
            let tenant = rng.below(4) as u32;
            let stream_seed = rng.next_u64();
            let (scene, body) = match class {
                5 => (
                    "clusters",
                    RequestBody::Knn {
                        k: 4,
                        query: queries[index].clone(),
                    },
                ),
                6 => {
                    let (center, radius) = centers[index];
                    (
                        "cloud",
                        RequestBody::Radius {
                            center: [center.x, center.y, center.z],
                            radius,
                        },
                    )
                }
                class => {
                    let scene = if class % 2 == 0 { "lit" } else { "wall" };
                    let count = 1 + (class % 2) as usize;
                    let rays = catalog::sample_rays(scene, stream_seed, count).expect("catalog");
                    let body = if class % 3 == 0 {
                        RequestBody::Trace { rays }
                    } else {
                        RequestBody::AnyHit { rays }
                    };
                    (scene, body)
                }
            };
            RequestFrame {
                request_id: index as u64,
                tenant,
                deadline_us,
                scene: scene.into(),
                body,
            }
        })
        .collect()
}

/// Seeded Poisson arrival offsets (seconds from the start) at `rate` requests/s over `seconds`.
fn poisson_schedule(seed: u64, rate: f64, seconds: f64) -> Vec<f64> {
    let mut rng = Rng::new(seed ^ rate.to_bits());
    let mut offsets = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    let mut at = 0.0;
    loop {
        at += -rng.unit().ln() / rate;
        if at >= seconds {
            return offsets;
        }
        offsets.push(at);
    }
}

/// Sleeps until shortly before `due`, then yields until it passes: a sleeping virtual CPU can
/// take milliseconds to wake on a busy host, while a yielding one stays awake yet gives way to
/// the executor whenever both want the same core.  Lateness shows up in `gen.lag_us_p99` and in
/// the latencies, which count from `due`.
fn wait_until(due: Instant) {
    let margin = Duration::from_micros(300);
    let now = Instant::now();
    if due > now + margin {
        std::thread::sleep(due - now - margin);
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// One executed batch, as the executor thread saw it.
struct BatchRecord {
    ids: Vec<u64>,
    /// Microseconds each job waited in the queue before its batch was released.
    waits_us: Vec<f64>,
    exec_s: f64,
    /// Jobs still queued right after the batch was released.
    depth: usize,
}

/// One decoded response, with the stamps of the request's trip through the layers.
struct Completion {
    id: u64,
    enqueued: Instant,
    released: Instant,
    executed: Instant,
    done: Instant,
    /// Seconds spent encoding and decoding this response (only when traced).
    wire_s: f64,
    bytes: Vec<u8>,
    decoded: bool,
}

/// Everything one open-loop (or burst) run recorded.
struct Run {
    /// Request `k` of this run carries the body of pool entry `(offset + k) % pool.len()`.
    offset: usize,
    start: Instant,
    due: Vec<Instant>,
    lag_us: Vec<f64>,
    /// Seconds spent encoding and decoding each request (only when traced).
    request_wire_s: Vec<f64>,
    refused: u64,
    /// Requests never sent because the backlog passed [`OVERLOAD_BACKLOG`].
    unsent: u64,
    backlog: u64,
    completions: Vec<Completion>,
    batches: Vec<BatchRecord>,
    lanes: (u64, u64),
    /// Wire-layer time and bytes (only when traced).
    encode_s: f64,
    decode_s: f64,
    request_bytes: u64,
    response_bytes: u64,
}

impl Run {
    /// Latencies in completion order.
    fn latencies_us(&self) -> Vec<f64> {
        self.completions
            .iter()
            .map(|c| c.done.duration_since(self.due[c.id as usize]).as_secs_f64() * 1e6)
            .collect()
    }

    fn elapsed_s(&self) -> f64 {
        self.completions
            .iter()
            .map(|c| c.done)
            .max()
            .map_or(0.0, |last| last.duration_since(self.start).as_secs_f64())
    }
}

#[derive(Default)]
struct WireTally {
    encode_s: f64,
    decode_s: f64,
    bytes: u64,
}

/// Calls `f`, timing it only when `traced` (the untraced run carries no benchmark spans).
fn span<T>(traced: bool, f: impl FnOnce() -> T) -> (T, f64) {
    if traced {
        timed(f)
    } else {
        (f(), 0.0)
    }
}

/// Sends `schedule` (offsets in seconds) through the queue and executor.  With `window`, a
/// request is also held back until fewer than that many are outstanding (a closed loop).  With
/// `traced`, the wire calls are timed individually.
fn drive(
    service: &mut Service,
    pool: &[RequestFrame],
    offset: usize,
    schedule: &[f64],
    window: Option<u64>,
    traced: bool,
) -> Run {
    let queue = AdmissionQueue::new();
    let completed = AtomicU64::new(0);
    let (responder, _never_read) = sync_channel::<ResponseFrame>(1);
    let config = service.config.clone();
    let lanes_before = service.executor.lane_usage();
    let start = Instant::now() + Duration::from_millis(1);
    let due: Vec<Instant> = schedule
        .iter()
        .map(|&offset| start + Duration::from_secs_f64(offset))
        .collect();
    let executor = &mut service.executor;
    let (queue, completed) = (&queue, &completed);

    let (sent, backlog, (completions, batches, response_wire)) = std::thread::scope(|scope| {
        let worker = scope.spawn(move || {
            let mut completions = Vec::new();
            let mut batches = Vec::new();
            let mut wire = WireTally::default();
            while let Some(batch) =
                queue.next_batch(config.max_batch, config.flush_us, config.admission)
            {
                let released = Instant::now();
                let depth = queue.depth();
                let responses = executor.execute(&batch);
                let executed = Instant::now();
                for (job, response) in batch.iter().zip(&responses) {
                    let (bytes, encode_s) = span(traced, || encode_response(response));
                    let (decoded, decode_s) = span(traced, || decode_response(&bytes));
                    wire.encode_s += encode_s;
                    wire.decode_s += decode_s;
                    wire.bytes += bytes.len() as u64;
                    completions.push(Completion {
                        id: response.request_id,
                        enqueued: job.enqueued_at,
                        released,
                        executed,
                        done: Instant::now(),
                        wire_s: encode_s + decode_s,
                        decoded: decoded.as_ref().is_ok_and(|frame| frame == response),
                        bytes,
                    });
                }
                completed.fetch_add(responses.len() as u64, Ordering::SeqCst);
                batches.push(BatchRecord {
                    ids: batch.iter().map(|job| job.request.request_id).collect(),
                    waits_us: batch
                        .iter()
                        .map(|job| released.duration_since(job.enqueued_at).as_secs_f64() * 1e6)
                        .collect(),
                    exec_s: executed.duration_since(released).as_secs_f64(),
                    depth,
                });
            }
            (completions, batches, wire)
        });

        let mut lag_us = Vec::with_capacity(due.len());
        let mut request_wire_s = Vec::with_capacity(due.len());
        let mut wire = WireTally::default();
        let mut refused = 0u64;
        let mut unsent = 0u64;
        for (index, &at) in due.iter().enumerate() {
            let outstanding =
                (index as u64 - refused).saturating_sub(completed.load(Ordering::SeqCst));
            if outstanding > OVERLOAD_BACKLOG {
                unsent = (due.len() - index) as u64;
                break;
            }
            wait_until(at);
            if let Some(window) = window {
                let sent = index as u64 - refused;
                while sent.saturating_sub(completed.load(Ordering::SeqCst)) >= window {
                    std::thread::yield_now();
                }
            }
            lag_us.push(Instant::now().duration_since(at).as_secs_f64() * 1e6);
            let mut request = pool[(offset + index) % pool.len()].clone();
            request.request_id = index as u64;
            let (payload, encode_s) = span(traced, || encode_request(&request));
            let (decoded, decode_s) = span(traced, || decode_request(&payload));
            wire.encode_s += encode_s;
            wire.decode_s += decode_s;
            wire.bytes += payload.len() as u64;
            request_wire_s.push(encode_s + decode_s);
            match decoded {
                Ok(decoded) if decoded == request => {
                    if !queue.submit(decoded, responder.clone()) {
                        refused += 1;
                    }
                }
                _ => refused += 1,
            }
        }
        let backlog =
            (due.len() as u64 - refused - unsent).saturating_sub(completed.load(Ordering::SeqCst));
        queue.close();
        let recorded = worker.join().expect("the executor thread finishes");
        (
            (lag_us, request_wire_s, wire, refused, unsent),
            backlog,
            recorded,
        )
    });
    let (lag_us, request_wire_s, request_wire, refused, unsent) = sent;
    let lanes_after = service.executor.lane_usage();
    Run {
        offset,
        start,
        due,
        lag_us,
        request_wire_s,
        refused,
        unsent,
        backlog,
        completions,
        batches,
        lanes: (
            lanes_after.0 - lanes_before.0,
            lanes_after.1 - lanes_before.1,
        ),
        encode_s: request_wire.encode_s + response_wire.encode_s,
        decode_s: request_wire.decode_s + response_wire.decode_s,
        request_bytes: request_wire.bytes,
        response_bytes: response_wire.bytes,
    }
}

/// The correctness oracle: every response, byte for byte, against the same request issued
/// directly against the library under the fused policy (as `server/tests/bit_identity.rs`
/// composes it).  Expected bodies are cached per pool entry.
struct Oracle {
    scenes: HashMap<String, Scene>,
    datasets: HashMap<String, Vec<Vec<f32>>>,
    clouds: HashMap<String, HierarchicalSearch>,
    traversal: TraversalEngine,
    knn: KnnEngine,
    expected: Vec<Option<ResponseBody>>,
}

impl Oracle {
    fn new(pool_len: usize) -> Self {
        let scenes = catalog::SCENES
            .iter()
            .map(|&name| {
                let triangles = catalog::scene_triangles(name).expect("catalog scene");
                let scene = Scene::from_parts(Bvh4::build(&triangles), triangles);
                (name.to_string(), scene)
            })
            .collect();
        let datasets = catalog::DATASETS
            .iter()
            .map(|&name| {
                (
                    name.to_string(),
                    catalog::dataset_vectors(name).expect("catalog dataset"),
                )
            })
            .collect();
        let clouds = catalog::CLOUDS
            .iter()
            .map(|&name| {
                let points = catalog::cloud_points(name).expect("catalog cloud");
                let engine =
                    HierarchicalSearch::build(points, 0.05, PipelineConfig::extended_unified());
                (name.to_string(), engine)
            })
            .collect();
        Oracle {
            scenes,
            datasets,
            clouds,
            traversal: TraversalEngine::with_config(PipelineConfig::extended_unified()),
            knn: KnnEngine::new(),
            expected: vec![None; pool_len],
        }
    }

    fn body(&mut self, request: &RequestFrame) -> Option<ResponseBody> {
        let fused = ExecPolicy::fused();
        let wire_hits = |hits: Vec<Option<rayflex_rtunit::TraversalHit>>| ResponseBody::Hits {
            hits: hits
                .into_iter()
                .map(|hit| {
                    hit.map(|hit| WireHit {
                        primitive: hit.primitive as u64,
                        t: hit.t,
                    })
                })
                .collect(),
        };
        let wire_neighbors = |neighbors: &[rayflex_rtunit::Neighbor]| ResponseBody::Neighbors {
            neighbors: neighbors
                .iter()
                .map(|n| WireNeighbor {
                    index: n.index as u64,
                    distance: n.distance,
                })
                .collect(),
        };
        match &request.body {
            RequestBody::Trace { rays } | RequestBody::AnyHit { rays } => {
                let scene = self.scenes.get(&request.scene)?;
                let any = matches!(request.body, RequestBody::AnyHit { .. });
                let trace = if any {
                    TraceRequest::any_hit(scene, rays)
                } else {
                    TraceRequest::closest_hit(scene, rays)
                };
                match self.traversal.try_trace(&trace, &fused).ok()? {
                    QueryOutcome::Complete(out) => Some(wire_hits(if any {
                        out.into_any()
                    } else {
                        out.into_closest()
                    })),
                    QueryOutcome::Partial(_) => None,
                }
            }
            RequestBody::Knn { k, query } => {
                let dataset = self.datasets.get(&request.scene)?;
                let neighbors = self
                    .knn
                    .try_k_nearest(query, dataset, *k as usize, KnnMetric::Euclidean, &fused)
                    .ok()?;
                Some(wire_neighbors(&neighbors))
            }
            RequestBody::Radius { center, radius } => {
                let engine = self.clouds.get_mut(&request.scene)?;
                let center = Vec3::new(center[0], center[1], center[2]);
                match engine
                    .try_radius_queries(&[(center, *radius)], &fused)
                    .ok()?
                {
                    QueryOutcome::Complete(results) => {
                        Some(wire_neighbors(results.first().map_or(&[], Vec::as_slice)))
                    }
                    QueryOutcome::Partial(_) => None,
                }
            }
            RequestBody::Shutdown => None,
        }
    }

    /// Checks every response of `run` into `outcome`: a wrong or undecodable response is a
    /// mismatch; a refused, unsent or unanswered request is a failure.
    fn check(&mut self, pool: &[RequestFrame], run: &Run, outcome: &mut Outcome) {
        let attempted = run.due.len() as u64;
        let mut answered = vec![false; run.due.len()];
        let mut mismatched = 0u64;
        for completion in &run.completions {
            let id = completion.id as usize;
            let slot = (run.offset + id) % pool.len();
            if self.expected[slot].is_none() {
                self.expected[slot] = self.body(&pool[slot]);
            }
            let want = self.expected[slot].clone().map(|body| {
                encode_response(&ResponseFrame {
                    request_id: completion.id,
                    body,
                })
            });
            let fresh = answered.get(id).is_some_and(|seen| !seen);
            if fresh {
                answered[id] = true;
            }
            if !fresh || !completion.decoded || want.as_deref() != Some(&completion.bytes[..]) {
                mismatched += 1;
            }
        }
        let unanswered = answered.iter().filter(|seen| !**seen).count() as u64;
        outcome.attempted += attempted;
        outcome.mismatched += mismatched;
        outcome.failed += (mismatched + unanswered + run.refused).min(attempted);
    }
}

/// Setup repeats for `setup_s` (a median).
const SETUP_REPEATS: usize = 15;

/// One workload instance: the service, the seed's request pool and the oracle.
struct Bench {
    service: Service,
    pool: Vec<RequestFrame>,
    seed: u64,
    oracle: Oracle,
}

impl Bench {
    /// Sets the service up [`SETUP_REPEATS`] times; returns the bench with the median set-up,
    /// preload and executor-construction seconds.
    fn new(seed: u64) -> (Self, f64, f64, f64) {
        let mut preload = Vec::new();
        let mut new = Vec::new();
        let (service, setup_s) = median_setup(SETUP_REPEATS, || {
            let (service, preload_s, new_s) = setup();
            preload.push(preload_s);
            new.push(new_s);
            service
        });
        let pool = request_pool(seed, POOL);
        let bench = Bench {
            service,
            oracle: Oracle::new(pool.len()),
            pool,
            seed,
        };
        (bench, setup_s, median(&mut preload), median(&mut new))
    }

    /// The untimed warm-up, then closed-loop runs of [`BURST`] requests with
    /// [`CLOSED_LOOP_WINDOW`] outstanding until `budget` has passed: the executor always finds
    /// a full batch, so this is its sustained throughput.  Returns each run's seconds.
    fn saturation(&mut self, budget: Duration, outcome: &mut Outcome) -> Vec<f64> {
        let burst = vec![0.0; BURST];
        let window = Some(CLOSED_LOOP_WINDOW);
        drive(
            &mut self.service,
            &self.pool,
            0,
            &burst[..BURST / 4],
            window,
            false,
        );
        let mut seconds = Vec::new();
        let started = Instant::now();
        while seconds.len() < 2 || started.elapsed() < budget {
            let offset = seconds.len() * BURST;
            let run = drive(&mut self.service, &self.pool, offset, &burst, window, false);
            seconds.push(run.elapsed_s());
            self.oracle.check(&self.pool, &run, outcome);
        }
        seconds
    }

    /// Modelled lane slots per request when the whole pool is served in full batches of
    /// `max_batch`, in pool order — a deterministic figure, unlike the slots of a live run,
    /// whose batch boundaries follow arrival timing.
    fn device_slots(&mut self) -> f64 {
        let (responder, _never_read) = sync_channel::<ResponseFrame>(1);
        let enqueued_at = Instant::now();
        let executor = &mut self.service.executor;
        let before = executor.lane_usage();
        let max_batch = self.service.config.max_batch.max(1);
        for (chunk_index, chunk) in self.pool.chunks(max_batch).enumerate() {
            let jobs: Vec<Job> = chunk
                .iter()
                .enumerate()
                .map(|(index, request)| Job {
                    request: request.clone(),
                    enqueued_at,
                    seq: (chunk_index * max_batch + index) as u64,
                    responder: responder.clone(),
                })
                .collect();
            executor.execute(&jobs);
        }
        let after = executor.lane_usage();
        (after.1 - before.1) as f64 / self.pool.len() as f64
    }

    /// Runs one offered rate for `seconds` and checks its responses.
    fn offered(&mut self, rate: f64, seconds: f64, traced: bool, outcome: &mut Outcome) -> Run {
        let schedule = poisson_schedule(self.seed, rate, seconds);
        let run = drive(&mut self.service, &self.pool, 0, &schedule, None, traced);
        self.oracle.check(&self.pool, &run, outcome);
        run
    }
}

/// The untraced run: set-up, closed-loop throughput, then the low offered rate.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut outcome = Outcome::default();
    let (mut bench, setup_s, _, _) = Bench::new(seed);
    let mut bursts = bench.saturation(Duration::from_secs_f64(seconds * 0.3), &mut outcome);
    let slots = bench.device_slots();
    let low = bench.offered(LOW_RPS, seconds * 0.7, false, &mut outcome);
    let latencies = low.latencies_us();
    let m = &mut outcome.metrics;
    m.put("setup_s", setup_s, "s");
    m.put("items_per_s", BURST as f64 / median(&mut bursts), "1/s");
    m.put(
        "latency_p50_ms",
        windowed_quantile(&latencies, WINDOWS, 0.5) / 1e3,
        "ms",
    );
    m.put("device_slots_per_item", slots, "slots");
    outcome
}

/// The traced serve phase: both offered rates with the wire timed, the max-rate ladder, and the
/// offline replay of the recorded batches through the kNN and radius layers.
pub fn trace(seed: u64, seconds: f64) -> Outcome {
    let mut outcome = Outcome::default();
    let (mut bench, _, preload_s, new_s) = Bench::new(seed);
    bench.saturation(Duration::ZERO, &mut outcome);
    let m = &mut outcome.metrics;
    m.put("registry.preload_s", preload_s, "s");
    m.put("exec.new_s", new_s, "s");

    let per_rate = (seconds / 2.0).max(0.5);
    let low = bench.offered(LOW_RPS, per_rate, true, &mut outcome);
    let high = bench.offered(HIGH_RPS, per_rate, true, &mut outcome);
    for (label, run) in [("low", &low), ("high", &high)] {
        let mut latencies = run.latencies_us();
        let m = &mut outcome.metrics;
        m.put(
            format!("serve.lat_p50_us.{label}"),
            quantile(&mut latencies, 0.5),
            "us",
        );
        m.put(
            format!("serve.lat_p99_us.{label}"),
            quantile(&mut latencies, 0.99),
            "us",
        );
        m.put(
            format!("gen.lag_us_p99.{label}"),
            quantile(&mut run.lag_us.clone(), 0.99),
            "us",
        );
        m.put(
            format!("serve.backlog.{label}"),
            run.backlog as f64,
            "count",
        );
    }

    // Per-layer figures of the loaded (high-rate) run.
    let m = &mut outcome.metrics;
    let mut waits: Vec<f64> = high
        .batches
        .iter()
        .flat_map(|b| b.waits_us.iter().copied())
        .collect();
    let mut sizes: Vec<f64> = high.batches.iter().map(|b| b.ids.len() as f64).collect();
    let mut exec_us: Vec<f64> = high.batches.iter().map(|b| b.exec_s * 1e6).collect();
    let depth_max = high.batches.iter().map(|b| b.depth).max().unwrap_or(0);
    m.put("queue.wait_us_p50", quantile(&mut waits, 0.5), "us");
    m.put("queue.wait_us_p99", quantile(&mut waits, 0.99), "us");
    m.put("queue.batch_size_mean", mean(&sizes), "count");
    m.put("queue.batch_size_p99", quantile(&mut sizes, 0.99), "count");
    m.put("queue.depth_max", depth_max as f64, "count");
    m.put("exec.batch_us_p50", quantile(&mut exec_us, 0.5), "us");
    m.put("exec.batch_us_p99", quantile(&mut exec_us, 0.99), "us");
    m.put(
        "exec.lane_occupancy",
        high.lanes.0 as f64 / high.lanes.1.max(1) as f64,
        "ratio",
    );
    let requests = high.completions.len().max(1) as f64;
    m.put("wire.encode_us", high.encode_s * 1e6 / requests, "us");
    m.put("wire.decode_us", high.decode_s * 1e6 / requests, "us");
    m.put(
        "wire.bytes_per_req",
        high.request_bytes as f64 / requests,
        "bytes",
    );
    m.put(
        "wire.bytes_per_resp",
        high.response_bytes as f64 / requests,
        "bytes",
    );

    // Attribution: each request's latency split into generator lateness, request wire, queue
    // wait, batch execution and response wire; what those spans leave is unattributed.
    let (mut latency_sum, mut unattributed) = (0.0, 0.0);
    for c in &high.completions {
        let id = c.id as usize;
        let latency = c.done.duration_since(high.due[id]).as_secs_f64();
        let spans = high.lag_us[id] / 1e6
            + high.request_wire_s[id]
            + c.released.duration_since(c.enqueued).as_secs_f64()
            + c.executed.duration_since(c.released).as_secs_f64()
            + c.wire_s;
        latency_sum += latency;
        unattributed += latency - spans;
    }
    let untraced = bench.offered(HIGH_RPS, per_rate, false, &mut outcome);
    let m = &mut outcome.metrics;
    m.put("own.trace.e2e_s", latency_sum / requests, "s");
    m.put(
        "own.trace.unattributed_share",
        unattributed / latency_sum.max(1e-12),
        "ratio",
    );
    m.put(
        "own.trace.overhead",
        quantile(&mut high.latencies_us(), 0.5) / quantile(&mut untraced.latencies_us(), 0.5) - 1.0,
        "ratio",
    );

    // The ladder: the highest rung whose p99 stays within the limit without a growing backlog.
    let mut max_rate = 0.0;
    for rate in LADDER_RPS {
        // A rung past saturation is expected to leave requests unsent; only wrong answers
        // count against the run.
        let mut rung = Outcome::default();
        let run = bench.offered(rate, RUNG_SECONDS, false, &mut rung);
        outcome.attempted += rung.attempted;
        outcome.failed += rung.mismatched;
        outcome.mismatched += rung.mismatched;
        let p99 = quantile(&mut run.latencies_us(), 0.99);
        if p99 <= P99_LIMIT_US && run.backlog <= BACKLOG_LIMIT && run.unsent == 0 {
            max_rate = rate;
        } else {
            break;
        }
    }
    outcome.metrics.put("serve.max_rate_rps", max_rate, "1/s");
    replay(&bench.service, &bench.pool, &high, &mut outcome);
    outcome
}

/// Replays the recorded high-rate batches offline: each batch's trace / any-hit / kNN streams
/// through one [`FusedScheduler`] run (pass structure), each kNN request through
/// [`DistanceStream`] and [`select_k_nearest`], and each batch's radius group through
/// [`HierarchicalSearch::radius_queries`].
fn replay(service: &Service, pool: &[RequestFrame], run: &Run, outcome: &mut Outcome) {
    let registry = &service.registry;
    let mut datapath = RayFlexDatapath::new(PipelineConfig::extended_unified());
    datapath.set_simd_lanes(service.config.simd_lanes);
    let mut fused = FusedScheduler::new();
    let mut clouds = registry.build_cloud_engines();
    let policy = ExecPolicy::fused()
        .with_admission_order(service.config.admission)
        .with_simd_lanes(service.config.simd_lanes);
    let (mut score_s, mut topk_s, mut radius_s) = (0.0, 0.0, 0.0);
    let (mut knn_calls, mut radius_calls) = (0u64, 0u64);
    for batch in &run.batches {
        let requests: Vec<&RequestFrame> = batch
            .ids
            .iter()
            .map(|&id| &pool[(run.offset + id as usize) % pool.len()])
            .collect();
        let mut traces = Vec::new();
        let mut distances = Vec::new();
        let mut radius: HashMap<&str, Vec<(Vec3, f32)>> = HashMap::new();
        for request in &requests {
            match &request.body {
                RequestBody::Trace { rays } => {
                    if let Some(scene) = registry.scene(&request.scene) {
                        traces.push(TraversalStream::closest_hit(scene, rays));
                    }
                }
                RequestBody::AnyHit { rays } => {
                    if let Some(scene) = registry.scene(&request.scene) {
                        traces.push(TraversalStream::any_hit(scene, rays));
                    }
                }
                RequestBody::Knn { query, k } => {
                    if let Some(dataset) = registry.dataset(&request.scene) {
                        distances.push((
                            DistanceStream::new(query, dataset, KnnMetric::Euclidean),
                            *k,
                        ));
                        let ((scored, _), score) = timed(|| {
                            let mut stream =
                                DistanceStream::new(query, dataset, KnnMetric::Euclidean);
                            let mut solo = FusedScheduler::new();
                            solo.run(&mut datapath, &mut [&mut stream as &mut dyn FusedStream]);
                            stream.finish()
                        });
                        let (_, topk) = timed(|| select_k_nearest(&scored, *k as usize));
                        score_s += score;
                        topk_s += topk;
                        knn_calls += 1;
                    }
                }
                RequestBody::Radius { center, radius: r } => radius
                    .entry(request.scene.as_str())
                    .or_default()
                    .push((Vec3::new(center[0], center[1], center[2]), *r)),
                RequestBody::Shutdown => {}
            }
        }
        let mut streams: Vec<&mut dyn FusedStream> = traces
            .iter_mut()
            .map(|s| s as &mut dyn FusedStream)
            .chain(distances.iter_mut().map(|(s, _)| s as &mut dyn FusedStream))
            .collect();
        fused.run(&mut datapath, &mut streams);
        for (name, queries) in radius {
            if let Some(engine) = clouds.get_mut(name) {
                let (_, seconds) = timed(|| engine.radius_queries(&queries, &policy));
                radius_s += seconds;
                radius_calls += 1;
            }
        }
    }
    let mix = datapath.beat_mix();
    let m = &mut outcome.metrics;
    m.put("knn.score_s", score_s / knn_calls.max(1) as f64, "s");
    m.put("knn.topk_s", topk_s / knn_calls.max(1) as f64, "s");
    m.put(
        "hierarchical.radius_s",
        radius_s / radius_calls.max(1) as f64,
        "s",
    );
    m.put(
        "query.fused_passes",
        mix.fused_passes() as f64 / run.batches.len().max(1) as f64,
        "count",
    );
}
