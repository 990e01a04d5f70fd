//! Closed-loop load generator for `rayflex-server`: N concurrent clients (default 64) each
//! fire a mixed request stream — traces, any-hits, kNN and radius queries, a third of them
//! carrying deadlines to exercise earliest-deadline-first admission — back-to-back over their
//! own connection, so the offered load is identical across server configurations and only the
//! batching policy differs.
//!
//! In spawn mode (`--server-bin PATH`) it launches one server per variant — `batch1`
//! (`--max-batch 1 --flush-us 0`, every request its own fused run) and `dynamic` (the real
//! coalescing knobs) — measures p50/p99 latency and wire throughput for each, shuts the server
//! down with a protocol shutdown frame, asserts a clean drain (exit status 0), and writes
//! `BENCH_server.json`.  Against an already-running server (`--addr`), it runs a single
//! `external` variant with no ratio.
//!
//! Two throughputs are reported, and they answer different questions.  The *wire* numbers
//! (req/s, p50/p99) time the whole host process; on a single-core host the kernel scheduler
//! interleaves client threads so every policy self-batches and the wire ratio hovers near 1.
//! The *modeled device* numbers come from the datapath's SIMD lane accounting
//! (`lanes_busy`/`lane_slots` on the server's drained summary): every kernel issue charges the
//! full device width, so coalesced passes that fill wide issues need proportionally fewer
//! slots for the same busy beats.  Both variants execute the identical request set — equal
//! offered load, equal busy lanes — so `slots(batch1) / slots(dynamic)` is the modeled
//! RT-device throughput ratio of dynamic fused batching, the paper's own utilisation lens.
//! That ratio is recorded as `speedup_vs_scalar`, and `--min-ratio` turns it into a hard
//! floor.  Only the batch1 slot count repeats exactly: how many requests share a dynamic batch
//! depends on arrival timing, so the dynamic ratio varies from run to run.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use rayflex_workloads::wire::{catalog, RequestBody, RequestFrame, ResponseBody, WireClient};

const USAGE: &str = "usage: loadgen (--server-bin PATH | --addr HOST:PORT) [--clients N] \
                     [--requests N] [--max-batch N] [--flush-us N] [--out PATH] [--min-ratio R] \
                     [--max-p99-us N]";

#[derive(Debug, Clone)]
struct Options {
    server_bin: Option<String>,
    addr: Option<String>,
    clients: usize,
    requests: usize,
    max_batch: usize,
    flush_us: u64,
    out: String,
    min_ratio: f64,
    max_p99_us: u64,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            server_bin: None,
            addr: None,
            clients: 64,
            requests: 25,
            max_batch: 32,
            flush_us: 200,
            out: "BENCH_server.json".into(),
            min_ratio: 0.0,
            max_p99_us: 0,
        }
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options::default();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--server-bin" => options.server_bin = Some(value("--server-bin")?),
            "--addr" => options.addr = Some(value("--addr")?),
            "--clients" => {
                options.clients = value("--clients")?
                    .parse()
                    .map_err(|e| format!("--clients: {e}"))?;
            }
            "--requests" => {
                options.requests = value("--requests")?
                    .parse()
                    .map_err(|e| format!("--requests: {e}"))?;
            }
            "--max-batch" => {
                options.max_batch = value("--max-batch")?
                    .parse()
                    .map_err(|e| format!("--max-batch: {e}"))?;
            }
            "--flush-us" => {
                options.flush_us = value("--flush-us")?
                    .parse()
                    .map_err(|e| format!("--flush-us: {e}"))?;
            }
            "--out" => options.out = value("--out")?,
            "--min-ratio" => {
                options.min_ratio = value("--min-ratio")?
                    .parse()
                    .map_err(|e| format!("--min-ratio: {e}"))?;
            }
            "--max-p99-us" => {
                options.max_p99_us = value("--max-p99-us")?
                    .parse()
                    .map_err(|e| format!("--max-p99-us: {e}"))?;
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    if options.server_bin.is_none() && options.addr.is_none() {
        return Err(format!(
            "one of --server-bin or --addr is required\n{USAGE}"
        ));
    }
    Ok(options)
}

/// The request a given client issues at a given step: a deterministic mix of all four query
/// kinds, one third carrying a deadline so EDF admission has real work to do.
fn build_request(client: usize, step: usize) -> RequestFrame {
    let request_id = (client as u64) << 32 | step as u64;
    let seed = request_id.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let deadline_us = if step.is_multiple_of(3) { 20_000 } else { 0 };
    let body = match step % 7 {
        5 => {
            let queries = catalog::sample_queries("clusters", seed, 1).expect("catalog queries");
            RequestBody::Knn {
                k: 4,
                query: queries.into_iter().next().expect("one query"),
            }
        }
        6 => {
            let centers = catalog::sample_centers("cloud", seed, 1).expect("catalog centers");
            let (center, radius) = centers[0];
            RequestBody::Radius {
                center: [center.x, center.y, center.z],
                radius,
            }
        }
        step_mod => {
            // The service premise is many concurrent *small* queries: one or two rays against
            // the small scenes keeps every solo stream's passes far narrower than the device,
            // so batch-size-1 dispatch genuinely underfills the lanes.
            let scene = if step_mod.is_multiple_of(2) {
                "lit"
            } else {
                "wall"
            };
            let rays = catalog::sample_rays(scene, seed, 1 + step_mod % 2).expect("catalog rays");
            if step_mod.is_multiple_of(3) {
                RequestBody::Trace { rays }
            } else {
                RequestBody::AnyHit { rays }
            }
        }
    };
    let scene = match &body {
        RequestBody::Knn { .. } => "clusters",
        RequestBody::Radius { .. } => "cloud",
        RequestBody::Trace { .. } | RequestBody::AnyHit { .. } => {
            if (step % 7).is_multiple_of(2) {
                "lit"
            } else {
                "wall"
            }
        }
        RequestBody::Shutdown => unreachable!(),
    };
    RequestFrame {
        request_id,
        tenant: (client % 4) as u32,
        deadline_us,
        scene: scene.into(),
        body,
    }
}

#[derive(Debug, Clone)]
struct VariantResult {
    mode: String,
    max_batch: usize,
    flush_us: u64,
    requests: usize,
    errors: usize,
    seconds: f64,
    throughput_rps: f64,
    p50_us: u64,
    p99_us: u64,
    /// Lane counters from the server's drained summary (zero for the `external` variant, which
    /// never sees the server exit).
    lanes_busy: u64,
    lane_slots: u64,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Runs the closed-loop phase against `addr` and aggregates latency/throughput.
fn run_load(
    addr: &str,
    options: &Options,
    mode: &str,
    max_batch: usize,
    flush_us: u64,
) -> VariantResult {
    let barrier = Arc::new(Barrier::new(options.clients + 1));
    let handles: Vec<_> = (0..options.clients)
        .map(|client| {
            let addr = addr.to_string();
            let barrier = Arc::clone(&barrier);
            let requests = options.requests;
            std::thread::spawn(move || {
                let mut wire = WireClient::connect(&addr).expect("client connects");
                wire.stream_mut()
                    .set_read_timeout(Some(Duration::from_secs(60)))
                    .expect("timeout set");
                let mut latencies = Vec::with_capacity(requests);
                let mut errors = 0usize;
                barrier.wait();
                for step in 0..requests {
                    let request = build_request(client, step);
                    let begin = Instant::now();
                    let response = wire.request(&request).expect("request round-trips");
                    latencies.push(begin.elapsed().as_micros() as u64);
                    assert_eq!(response.request_id, request.request_id);
                    if matches!(response.body, ResponseBody::Error { .. }) {
                        errors += 1;
                    }
                }
                (latencies, errors)
            })
        })
        .collect();

    barrier.wait();
    let begin = Instant::now();
    let mut latencies = Vec::with_capacity(options.clients * options.requests);
    let mut errors = 0usize;
    for handle in handles {
        let (thread_latencies, thread_errors) = handle.join().expect("client thread finishes");
        latencies.extend(thread_latencies);
        errors += thread_errors;
    }
    let seconds = begin.elapsed().as_secs_f64();
    latencies.sort_unstable();
    let requests = latencies.len();
    VariantResult {
        mode: mode.to_string(),
        max_batch,
        flush_us,
        requests,
        errors,
        seconds,
        throughput_rps: requests as f64 / seconds.max(1e-9),
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
        lanes_busy: 0,
        lane_slots: 0,
    }
}

/// Spawns a server child with the given batching knobs and returns it, its bound address
/// (parsed from the `listening on` line), and a handle that yields the `(lanes_busy,
/// lane_slots)` counters from the drained summary once the child exits.
fn spawn_server(
    bin: &str,
    max_batch: usize,
    flush_us: u64,
) -> (Child, String, std::thread::JoinHandle<Option<(u64, u64)>>) {
    let mut child = Command::new(bin)
        .args([
            "--addr",
            "127.0.0.1:0",
            "--max-batch",
            &max_batch.to_string(),
            "--flush-us",
            &flush_us.to_string(),
            "--admission",
            "edf",
            "--simd-lanes",
            "16",
        ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("server spawns");
    let stdout = child.stdout.take().expect("server stdout is piped");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("server prints its address")
            .expect("server stdout reads");
        if let Some(addr) = line.strip_prefix("listening on ") {
            break addr.to_string();
        }
    };
    // Keep draining stdout in the background so the child never blocks on a full pipe; the
    // drained summary carries the modeled lane counters this benchmark is after.
    let drain = std::thread::spawn(move || {
        let mut lanes = None;
        for line in lines.map_while(Result::ok) {
            if line.starts_with("drained: ") {
                lanes = parse_drained_lanes(&line);
            }
            eprintln!("[server] {line}");
        }
        lanes
    });
    (child, addr, drain)
}

/// Pulls `lanes_busy=` and `lane_slots=` out of the server's drained summary line.
fn parse_drained_lanes(line: &str) -> Option<(u64, u64)> {
    let field = |key: &str| {
        line.split_whitespace()
            .find_map(|token| token.strip_prefix(key))
            .and_then(|value| value.parse().ok())
    };
    Some((field("lanes_busy=")?, field("lane_slots=")?))
}

/// Sends a protocol shutdown frame, asserts the child drains and exits cleanly, and returns
/// the lane counters its drained summary reported.
fn shutdown_server(
    mut child: Child,
    addr: &str,
    drain: std::thread::JoinHandle<Option<(u64, u64)>>,
) -> (u64, u64) {
    let mut wire = WireClient::connect(addr).expect("shutdown client connects");
    let response = wire
        .request(&RequestFrame {
            request_id: u64::MAX,
            tenant: 0,
            deadline_us: 0,
            scene: String::new(),
            body: RequestBody::Shutdown,
        })
        .expect("shutdown acks");
    assert!(
        matches!(response.body, ResponseBody::ShutdownAck),
        "expected a shutdown ack, got {:?}",
        response.body
    );
    let status = child.wait().expect("server child reaps");
    assert!(
        status.success(),
        "server must drain and exit 0, got {status}"
    );
    drain
        .join()
        .expect("drain thread finishes")
        .unwrap_or((0, 0))
}

fn variant_json(result: &VariantResult, speedup: f64) -> String {
    let occupancy = result.lanes_busy as f64 / (result.lane_slots.max(1)) as f64;
    format!(
        "    {{\"mode\": \"{}\", \"max_batch\": {}, \"flush_us\": {}, \"requests\": {}, \
         \"errors\": {}, \"seconds\": {:.6}, \"throughput_rps\": {:.0}, \"p50_us\": {}, \
         \"p99_us\": {}, \"lanes_busy\": {}, \"lane_slots\": {}, \"lane_occupancy\": {:.4}, \
         \"speedup_vs_scalar\": {:.2}}}",
        result.mode,
        result.max_batch,
        result.flush_us,
        result.requests,
        result.errors,
        result.seconds,
        result.throughput_rps,
        result.p50_us,
        result.p99_us,
        result.lanes_busy,
        result.lane_slots,
        occupancy,
        speedup
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };

    let mut results: Vec<VariantResult> = Vec::new();
    if let Some(bin) = &options.server_bin {
        for (mode, max_batch, flush_us) in [
            ("batch1", 1usize, 0u64),
            ("dynamic", options.max_batch, options.flush_us),
        ] {
            let (child, addr, drain) = spawn_server(bin, max_batch, flush_us);
            let mut result = run_load(&addr, &options, mode, max_batch, flush_us);
            let (lanes_busy, lane_slots) = shutdown_server(child, &addr, drain);
            result.lanes_busy = lanes_busy;
            result.lane_slots = lane_slots;
            eprintln!(
                "{mode}: {} req in {:.3}s  ({:.0} req/s, p50 {}us, p99 {}us, {} errors, \
                 lane occupancy {:.3})",
                result.requests,
                result.seconds,
                result.throughput_rps,
                result.p50_us,
                result.p99_us,
                result.errors,
                result.lanes_busy as f64 / result.lane_slots.max(1) as f64
            );
            results.push(result);
        }
    } else if let Some(addr) = &options.addr {
        let result = run_load(
            addr,
            &options,
            "external",
            options.max_batch,
            options.flush_us,
        );
        eprintln!(
            "external: {} req in {:.3}s  ({:.0} req/s, p50 {}us, p99 {}us, {} errors)",
            result.requests,
            result.seconds,
            result.throughput_rps,
            result.p50_us,
            result.p99_us,
            result.errors
        );
        results.push(result);
    }

    let wire_ratio = match (results.first(), results.get(1)) {
        (Some(batch1), Some(dynamic)) if batch1.throughput_rps > 0.0 => {
            Some(dynamic.throughput_rps / batch1.throughput_rps)
        }
        _ => None,
    };
    // Both variants executed the identical request set, so busy lanes should agree; the slot
    // ratio is then the modeled device throughput of coalescing at equal offered load.
    let modeled_ratio = match (results.first(), results.get(1)) {
        (Some(batch1), Some(dynamic)) if batch1.lane_slots > 0 && dynamic.lane_slots > 0 => {
            if batch1.lanes_busy != dynamic.lanes_busy {
                eprintln!(
                    "note: busy-lane totals differ across variants ({} vs {}) — offered \
                     loads were not identical",
                    batch1.lanes_busy, dynamic.lanes_busy
                );
            }
            Some(batch1.lane_slots as f64 / dynamic.lane_slots as f64)
        }
        _ => None,
    };

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"clients\": {}, \"requests_per_client\": {},\n",
        options.clients, options.requests
    ));
    json.push_str("  \"modes\": [\n");
    let lines: Vec<String> = results
        .iter()
        .enumerate()
        .map(|(index, result)| {
            let speedup = if index == 0 {
                1.0
            } else {
                modeled_ratio.unwrap_or(1.0)
            };
            variant_json(result, speedup)
        })
        .collect();
    json.push_str(&lines.join(",\n"));
    json.push_str("\n  ]");
    if let Some(modeled) = modeled_ratio {
        let wire = wire_ratio.unwrap_or(1.0);
        json.push_str(&format!(
            ",\n  \"batch_ratio\": [\n    {{\"mode\": \"batch-ratio\", \
             \"wire_throughput_ratio\": {wire:.2}, \"speedup_vs_scalar\": {modeled:.2}}}\n  ]"
        ));
    }
    json.push_str("\n}\n");

    let mut file = std::fs::File::create(&options.out).expect("bench json writes");
    file.write_all(json.as_bytes()).expect("bench json writes");
    eprintln!("wrote {}", options.out);
    if options.max_p99_us > 0 {
        for result in &results {
            if result.p99_us > options.max_p99_us {
                eprintln!(
                    "FAIL: {} p99 {}us exceeds the --max-p99-us {}us sanity bound",
                    result.mode, result.p99_us, options.max_p99_us
                );
                std::process::exit(1);
            }
        }
    }
    if let Some(wire) = wire_ratio {
        eprintln!("wire throughput ratio (dynamic/batch1): {wire:.2}x");
    }
    if let Some(modeled) = modeled_ratio {
        eprintln!("modeled device throughput ratio (dynamic/batch1): {modeled:.2}x");
        if options.min_ratio > 0.0 && modeled < options.min_ratio {
            eprintln!(
                "FAIL: modeled ratio {modeled:.2} below the --min-ratio {:.2} floor",
                options.min_ratio
            );
            std::process::exit(1);
        }
    }
}
