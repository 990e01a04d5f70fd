//! The modeled batching win, pinned exactly: the same request set fed to
//! [`BatchExecutor::execute`] one request per batch and in fixed 32-request batches.
//!
//! The TCP benchmark (`scripts/bench_server.sh`) reports the ratio of the two variants' SIMD
//! lane slots, but there batch composition follows arrival timing, so no two runs agree.
//! Here the batches are fixed, in arrival order, and every deadline is zero (an EDF key reads
//! the wall clock), so `lanes_busy`, `lane_slots` and their ratio are deterministic.  The
//! requests are loadgen's small mix (five trace/any-hit steps, one kNN, one radius in seven),
//! seeded as the `exec_profile` example seeds them.  Every query kind runs on the executor's one
//! datapath, so the pairs count the radius queries' collection and scoring lanes too.  Under
//! the `force-scalar` build no lane kernel runs, so both lane pairs read zero.

use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::time::Instant;

use rayflex_core::clamp_simd_lanes;
use rayflex_server::{BatchExecutor, ExecConfig, Job, Registry, ServerConfig};
use rayflex_workloads::wire::{catalog, RequestBody, RequestFrame, ResponseBody};

/// Requests in the set: as many as the TCP benchmark sends (64 clients × 25).
const REQUESTS: usize = 1600;
/// Requests per batch of the coalesced feed: the server's default `max_batch`.
const BATCH: usize = 32;

/// The small-mix request at `step`.
fn request(step: usize) -> RequestFrame {
    let seed = (step as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let (scene, body) = match step % 7 {
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

/// Feeds the request set to a fresh executor in batches of `batch` and returns its
/// `(lanes_busy, lane_slots)`.
fn lane_usage(registry: &Arc<Registry>, jobs: &[Job], batch: usize) -> (u64, u64) {
    let server = ServerConfig::default();
    let mut executor = BatchExecutor::new(
        Arc::clone(registry),
        ExecConfig {
            beat_budget: server.beat_budget,
            max_batch_beats: server.max_batch_beats,
            admission: server.admission,
            simd_lanes: server.simd_lanes,
        },
    );
    for batch in jobs.chunks(batch) {
        let responses = executor.execute(batch);
        assert_eq!(responses.len(), batch.len());
        assert!(
            responses
                .iter()
                .all(|frame| !matches!(frame.body, ResponseBody::Error { .. })),
            "the executor answered an error"
        );
    }
    executor.lane_usage()
}

#[test]
fn fixed_batches_pin_the_modeled_batching_ratio() {
    let registry = Arc::new(Registry::preload().expect("the catalog preloads"));
    let jobs: Vec<Job> = (0..REQUESTS)
        .map(|step| Job {
            request: request(step),
            enqueued_at: Instant::now(),
            seq: step as u64,
            responder: sync_channel(1).0,
        })
        .collect();
    let alone = lane_usage(&registry, &jobs, 1);
    let coalesced = lane_usage(&registry, &jobs, BATCH);
    // The `force-scalar` build never engages the lane kernels.
    let lanes = clamp_simd_lanes(ServerConfig::default().simd_lanes) > 1;
    let pin = |pair: (u64, u64)| if lanes { pair } else { (0, 0) };
    assert_eq!(alone, pin((13_836, 56_288)), "one request per batch");
    assert_eq!(coalesced, pin((13_836, 23_840)), "{BATCH}-request batches");
    if lanes {
        let ratio = alone.1 as f64 / coalesced.1 as f64;
        assert_eq!(format!("{ratio:.4}"), "2.3611", "modeled batching ratio");
    }
}
