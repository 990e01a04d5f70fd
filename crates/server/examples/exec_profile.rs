//! Warm batch-executor time per batch kind: the serving cost of one admitted batch with the
//! queue, the wire and the sockets taken out.
//!
//! Builds the preloaded registry and one [`BatchExecutor`] with the server's default knobs,
//! then times [`BatchExecutor::execute`] on four fixed 32-request batches:
//!
//! * `trace`  — 1–2-ray closest-hit and any-hit requests on the `lit` and `wall` scenes;
//! * `knn`    — k = 4 Euclidean kNN requests on the 256-vector `clusters` dataset;
//! * `radius` — radius queries on the `cloud` point set;
//! * `mix`    — loadgen's small mix (five trace/any-hit steps, one kNN, one radius in seven).
//!
//! After a warm-up, every rep times one batch of each kind in turn, so a drift of the host
//! lands on all four alike.  It prints, per kind, the median and interquartile range of the
//! batch time, the median per request and the `(lanes_busy, lane_slots)` one batch adds to
//! [`BatchExecutor::lane_usage`] (every query kind, radius included, runs on the executor's
//! datapath; both read zero under `force-scalar`), and finally the median µs per kNN request.
//! Parameters are fixed; the command takes no flags:
//!
//! ```text
//! cargo run --release -p rayflex-server --example exec_profile
//! ```

use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::time::Instant;

use rayflex_server::{BatchExecutor, ExecConfig, Job, Registry, ServerConfig};
use rayflex_workloads::wire::{catalog, RequestBody, RequestFrame, ResponseBody};

/// Requests per batch: the server's default `max_batch`.
const BATCH: usize = 32;
/// Untimed batches of each kind before timing starts.
const WARMUP: usize = 50;
/// Timed batches of each kind.
const REPS: usize = 201;

/// One request of a batch kind at `step`, with loadgen's seeding.
fn request(kind: &str, step: usize) -> RequestFrame {
    let seed = (step as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let class = match kind {
        "trace" => step % 5,
        "knn" => 5,
        "radius" => 6,
        _ => step % 7,
    };
    let (scene, body) = match class {
        5 => {
            let query = catalog::sample_queries("clusters", seed, 1).expect("catalog queries");
            let query = query.into_iter().next().expect("one query");
            ("clusters", RequestBody::Knn { k: 4, query })
        }
        6 => {
            let (center, radius) = catalog::sample_centers("cloud", seed, 1).expect("centers")[0];
            let center = [center.x, center.y, center.z];
            ("cloud", RequestBody::Radius { center, radius })
        }
        class => {
            let scene = if class % 2 == 0 { "lit" } else { "wall" };
            let rays = catalog::sample_rays(scene, seed, 1 + class % 2).expect("catalog rays");
            let body = if class % 3 == 0 {
                RequestBody::Trace { rays }
            } else {
                RequestBody::AnyHit { rays }
            };
            (scene, body)
        }
    };
    RequestFrame {
        request_id: step as u64,
        tenant: (step % 4) as u32,
        deadline_us: 0,
        scene: scene.into(),
        body,
    }
}

/// The 32 jobs of one batch kind.
fn batch(kind: &str) -> Vec<Job> {
    (0..BATCH)
        .map(|step| Job {
            request: request(kind, step),
            enqueued_at: Instant::now(),
            seq: step as u64,
            responder: sync_channel(1).0,
        })
        .collect()
}

/// The `q`-quantile of sorted samples (nearest rank).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

fn main() {
    let registry = Arc::new(Registry::preload().expect("the catalog preloads"));
    let server = ServerConfig::default();
    let mut executor = BatchExecutor::new(
        registry,
        ExecConfig {
            beat_budget: server.beat_budget,
            max_batch_beats: server.max_batch_beats,
            admission: server.admission,
            simd_lanes: server.simd_lanes,
        },
    );
    let kinds = ["trace", "knn", "radius", "mix"];
    let batches: Vec<Vec<Job>> = kinds.iter().map(|kind| batch(kind)).collect();
    let mut lanes = Vec::with_capacity(kinds.len());
    for (kind, jobs) in kinds.iter().zip(&batches) {
        let (busy, slots) = executor.lane_usage();
        let responses = executor.execute(jobs);
        let (busy_after, slots_after) = executor.lane_usage();
        lanes.push((busy_after - busy, slots_after - slots));
        assert!(
            responses
                .iter()
                .all(|frame| !matches!(frame.body, ResponseBody::Error { .. })),
            "{kind}: the executor answered an error"
        );
        for _ in 1..WARMUP {
            executor.execute(jobs);
        }
    }
    let mut samples = vec![Vec::with_capacity(REPS); kinds.len()];
    for _ in 0..REPS {
        for (times, jobs) in samples.iter_mut().zip(&batches) {
            let start = Instant::now();
            let responses = executor.execute(jobs);
            times.push(start.elapsed().as_secs_f64() * 1e6);
            assert_eq!(responses.len(), BATCH);
        }
    }
    println!("warm BatchExecutor::execute, {BATCH}-request batches, {REPS} interleaved reps");
    println!(
        "{:<8} {:>12} {:>10} {:>14} {:>11} {:>11}",
        "kind", "median_us", "iqr_us", "us_per_request", "lanes_busy", "lane_slots"
    );
    let mut knn_per_request = 0.0;
    for ((kind, times), (busy, slots)) in kinds.iter().zip(&mut samples).zip(lanes) {
        times.sort_by(f64::total_cmp);
        let median = quantile(times, 0.5);
        let iqr = quantile(times, 0.75) - quantile(times, 0.25);
        let per_request = median / BATCH as f64;
        if *kind == "knn" {
            knn_per_request = per_request;
        }
        println!("{kind:<8} {median:>12.1} {iqr:>10.1} {per_request:>14.2} {busy:>11} {slots:>11}");
    }
    println!("knn_us_per_request {knn_per_request:.2}");
}
