//! Ingress chaos: seeded [`FaultPlan`]s drive the four transport-level fault kinds —
//! [`FaultKind::MalformedFrame`], [`FaultKind::TruncatedFrame`], [`FaultKind::Disconnect`] and
//! [`FaultKind::DeadlineStorm`] — against a live loopback server.  The contract under every
//! fault: the client observes a structured error or a correct response, never a protocol
//! violation; and the server never panics or hangs a worker — proven by a healthy probe
//! request on a fresh connection after every injection, and a clean drain at the end.

use std::io::Write;
use std::time::Duration;

use proptest::prelude::*;

use rayflex_rtunit::fault::{FaultKind, FaultPlan};
use rayflex_rtunit::SceneValidator;
use rayflex_server::{ServerConfig, ServerHandle};
use rayflex_workloads::wire::{
    catalog, code, decode_request, encode_request, RequestBody, RequestFrame, ResponseBody,
    ResponseFrame, WireClient,
};

const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

fn trace_request(request_id: u64, seed: u64, rays: usize, deadline_us: u64) -> RequestFrame {
    RequestFrame {
        request_id,
        tenant: 0,
        deadline_us,
        scene: "wall".into(),
        body: RequestBody::Trace {
            rays: catalog::sample_rays("wall", seed, rays).expect("catalog rays"),
        },
    }
}

/// A full wire frame (length prefix + payload) for `request`.
fn frame_bytes(request: &RequestFrame) -> Vec<u8> {
    let payload = encode_request(request);
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&payload);
    frame
}

/// Asserts that `response` is exactly the answer the server owes the complete (possibly
/// corrupted) trace `frame`, derived by decoding the frame locally the way the server does.
///
/// A one-bit flip need not break decoding: it may land in a ray component, the request id, the
/// deadline or the scene name (`"wall"` → `"gall"`).  So the expectation follows the decoded
/// request: a decode error earns `INVALID_REQUEST` (request id 0); an unknown target name
/// earns `UNKNOWN_SCENE`; a non-trace body on a catalog target earns `UNSUPPORTED`; otherwise
/// the request is served as decoded — the validation error its rays earn, or one hit slot per
/// ray (a flipped-in deadline may also cut the run short) — echoing the decoded request id.
fn assert_answer_matches_decoded(frame: &[u8], response: &ResponseFrame) {
    let code_of = |body: &ResponseBody| match body {
        ResponseBody::Error { code, .. } => Some(*code),
        _ => None,
    };
    let Ok(request) = decode_request(&frame[4..]) else {
        assert_eq!(
            response.request_id, 0,
            "decode failures carry no request id"
        );
        assert_eq!(
            code_of(&response.body),
            Some(code::INVALID_REQUEST),
            "decode failures map to INVALID_REQUEST, got {:?}",
            response.body
        );
        return;
    };
    assert_eq!(
        response.request_id, request.request_id,
        "a decoded request's id is echoed"
    );
    let name = request.scene.as_str();
    let known = catalog::SCENES.contains(&name)
        || catalog::DATASETS.contains(&name)
        || catalog::CLOUDS.contains(&name);
    let expected_error = match &request.body {
        _ if !known => Some(code::UNKNOWN_SCENE),
        RequestBody::Trace { rays } | RequestBody::AnyHit { rays }
            if catalog::SCENES.contains(&name) =>
        {
            SceneValidator::validate_rays(rays, "request")
                .err()
                .map(|_| code::INVALID_REQUEST)
        }
        _ => Some(code::UNSUPPORTED),
    };
    if let Some(expected) = expected_error {
        assert_eq!(
            code_of(&response.body),
            Some(expected),
            "decoded {request:?}, got {:?}",
            response.body
        );
        return;
    }
    let rays = match &request.body {
        RequestBody::Trace { rays } | RequestBody::AnyHit { rays } => rays.len(),
        _ => unreachable!("only trace bodies are served"),
    };
    match &response.body {
        ResponseBody::Hits { hits } => assert_eq!(hits.len(), rays, "one hit slot per ray"),
        ResponseBody::PartialHits { .. } if request.deadline_us != 0 => {}
        ResponseBody::Error { code: got, .. }
            if request.deadline_us != 0
                && (*got == code::DEADLINE_EXCEEDED || *got == code::BUDGET_EXHAUSTED) => {}
        other => panic!("decoded {request:?} must be served, got {other:?}"),
    }
}

fn connect(addr: &str) -> WireClient {
    let mut client = WireClient::connect(addr).expect("client connects");
    client
        .stream_mut()
        .set_read_timeout(Some(CLIENT_TIMEOUT))
        .expect("timeout set");
    client
}

/// Sends one healthy request on a fresh connection and asserts a correct answer — the
/// "no hung or dead worker" probe run after every fault injection.
fn probe(addr: &str, request_id: u64) {
    let mut client = connect(addr);
    let response = client
        .request(&trace_request(request_id, request_id, 3, 0))
        .expect("probe request round-trips after the fault");
    assert_eq!(response.request_id, request_id);
    assert!(
        matches!(response.body, ResponseBody::Hits { .. }),
        "probe must be served normally, got {:?}",
        response.body
    );
}

fn inject(addr: &str, plan: &FaultPlan, seed: u64) {
    match plan.kind {
        FaultKind::MalformedFrame => {
            // A complete frame with one payload bit flipped: the server must answer exactly as
            // the decoded frame deserves (see `assert_answer_matches_decoded`), and the
            // connection must survive.
            let mut client = connect(addr);
            let mut frame = frame_bytes(&trace_request(1, seed, 4, 0));
            let flipped = plan.corrupt_frame(&mut frame);
            assert!(flipped.is_some(), "a request frame is never empty");
            client
                .stream_mut()
                .write_all(&frame)
                .expect("corrupt frame writes");
            let response = client
                .receive()
                .expect("a complete frame always gets a response");
            assert_answer_matches_decoded(&frame, &response);
            // Same connection still serves.
            let response = client
                .request(&trace_request(2, seed ^ 1, 2, 0))
                .expect("connection survives a malformed frame");
            assert_eq!(response.request_id, 2);
        }
        FaultKind::TruncatedFrame => {
            // The length prefix promises more bytes than ever arrive, then the client vanishes.
            // The server must treat it as a silent disconnect (no response owed for an
            // incomplete frame) without wedging the reader thread.
            let mut client = connect(addr);
            let mut frame = frame_bytes(&trace_request(1, seed, 4, 0));
            let kept = plan.truncate_frame(&mut frame);
            assert_eq!(kept, frame.len(), "truncation reports the kept length");
            client
                .stream_mut()
                .write_all(&frame)
                .expect("truncated frame writes");
            drop(client);
        }
        FaultKind::Disconnect => {
            // Mid-stream disconnect: one whole request is served, then the connection dies with
            // a second frame half-written.
            let mut client = connect(addr);
            let response = client
                .request(&trace_request(1, seed, 3, 0))
                .expect("first request serves");
            assert_eq!(response.request_id, 1);
            let frame = frame_bytes(&trace_request(2, seed ^ 2, 3, 0));
            let cut = 4 + (seed as usize % (frame.len() - 4));
            client
                .stream_mut()
                .write_all(&frame[..cut])
                .expect("partial frame writes");
            drop(client);
        }
        FaultKind::DeadlineStorm => {
            // Every request carries a ~1µs deadline: all of them are due immediately, so the
            // batcher must flush at once and EDF ordering churns constantly.  Each request is
            // still owed a response — complete, partial, or a structured error — in order.
            let mut client = connect(addr);
            for id in 1..=6u64 {
                let response = client
                    .request(&trace_request(id, seed ^ id, 4, 1))
                    .expect("deadline-storm requests are always answered");
                assert_eq!(response.request_id, id);
                match response.body {
                    ResponseBody::Hits { .. } | ResponseBody::PartialHits { .. } => {}
                    ResponseBody::Error { code: got, .. } => assert!(
                        got == code::DEADLINE_EXCEEDED || got == code::BUDGET_EXHAUSTED,
                        "storm errors must be deadline-shaped, got code {got}"
                    ),
                    other => panic!("unexpected body {other:?}"),
                }
            }
        }
        _ => unreachable!("only ingress kinds are injected here"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// One server per case survives a seeded sequence of all four ingress faults, serves a
    /// healthy probe after each, and drains cleanly.
    #[test]
    fn ingress_faults_yield_structured_outcomes_and_never_kill_the_server(
        seed in any::<u64>(),
        order in 0usize..4,
    ) {
        let server = ServerHandle::spawn(ServerConfig {
            max_batch: 4,
            flush_us: 300,
            ..ServerConfig::default()
        })
        .expect("server spawns");
        let addr = server.local_addr().to_string();

        let kinds = [
            FaultKind::MalformedFrame,
            FaultKind::TruncatedFrame,
            FaultKind::Disconnect,
            FaultKind::DeadlineStorm,
        ];
        for offset in 0..kinds.len() {
            let kind = kinds[(order + offset) % kinds.len()];
            let plan = FaultPlan::new(kind, seed.wrapping_add(offset as u64));
            inject(&addr, &plan, plan.seed);
            probe(&addr, 900 + offset as u64);
        }

        let report = server.shutdown();
        // Probes (4) + malformed follow-up (2) + disconnect's first request (1) + the storm (6).
        prop_assert!(report.served >= 11, "drain lost requests: {report:?}");
        prop_assert!(report.connections >= 8);
    }

    /// Raw corrupt-frame soup at higher volume: every seed's corruption against a shared
    /// server, each answered or cleanly dropped, with the server healthy throughout.
    #[test]
    fn repeated_malformed_frames_never_accumulate_damage(seeds in prop::collection::vec(any::<u64>(), 1..8)) {
        let server = ServerHandle::spawn(ServerConfig::default()).expect("server spawns");
        let addr = server.local_addr().to_string();
        let mut client = connect(&addr);
        for (index, seed) in seeds.iter().enumerate() {
            let plan = FaultPlan::new(FaultKind::MalformedFrame, *seed);
            let mut frame = frame_bytes(&trace_request(index as u64, *seed, 3, 0));
            plan.corrupt_frame(&mut frame);
            client.stream_mut().write_all(&frame).expect("frame writes");
            let response = client.receive().expect("every complete frame is answered");
            assert_answer_matches_decoded(&frame, &response);
        }
        drop(client);
        probe(&addr, 999);
        server.shutdown();
    }
}
