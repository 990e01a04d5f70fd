//! The batch executor — the single thread that serves an admitted batch of heterogeneous
//! requests as at most two [`FusedScheduler`] rounds on one [`RayFlexDatapath`] (the paper's
//! unified RT unit, §V-A), under one [`ExecPolicy`] whose batch beat cap spans both rounds.
//! Round 1 fuses the trace and any-hit [`TraversalStream`]s with one [`CollectStream`] per
//! queried point cloud; round 2 fuses one [`DistanceStream`] per kNN request and one per radius
//! query over its collected candidates, whose answer [`radius_neighbors`] then filters and sorts.
//!
//! The fused-batching contract is the repo's tentpole invariant: which requests share a batch
//! changes pass structure and wall-clock only, never a request's outputs or statistics — so a
//! batched server response is bit-identical to the same request served alone, or issued
//! directly against the library.  Every failure maps to a structured
//! [`ResponseBody::Error`]; a panic anywhere in batch execution is caught, answered with
//! [`code::INTERNAL`], and the datapath state rebuilt — a worker is never lost to one bad
//! batch.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use rayflex_core::{PipelineConfig, RayFlexDatapath};
use rayflex_geometry::Vec3;
use rayflex_rtunit::{
    radius_neighbors, select_k_nearest, AdmissionOrder, Bvh4, CollectStream, DistanceStream,
    ExecPolicy, FusedScheduler, FusedStream, KnnMetric, Neighbor, QueryError, SceneValidator,
    TraversalHit, TraversalStream,
};
use rayflex_workloads::wire::{
    code, RequestBody, ResponseBody, ResponseFrame, WireHit, WireNeighbor,
};

use crate::queue::Job;
use crate::registry::{Registry, TargetKind};

/// The executor's scheduling knobs, frozen at server startup.
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    /// Per-stream per-pass beat budget for the fused scheduler (`0` = unlimited) — the
    /// per-tenant QoS lever: no stream may flood a shared pass past this many beats.
    pub beat_budget: usize,
    /// Total beat cap per batch, spanning both of its fused rounds (`0` = uncapped); crossing it
    /// cancels cooperatively at a pass boundary and answers unfinished requests with a partial
    /// or a structured error.
    pub max_batch_beats: u64,
    /// Segment admission order inside shared passes (and batch selection order upstream).
    pub admission: AdmissionOrder,
    /// SIMD lane width of the datapath's bulk interfaces.  Responses are bit-identical at
    /// every width; wide lanes are what dynamic batching feeds — a lone 4-ray request cannot
    /// fill a 16-lane pass, a coalesced batch of strangers can.
    pub simd_lanes: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            beat_budget: 0,
            max_batch_beats: 0,
            admission: AdmissionOrder::EarliestDeadlineFirst,
            simd_lanes: 16,
        }
    }
}

/// Maps a library [`QueryError`] to its wire error code.
#[must_use]
pub fn error_code(error: &QueryError) -> u8 {
    match error {
        QueryError::InvalidRequest { .. } => code::INVALID_REQUEST,
        QueryError::InvalidScene { .. } => code::INVALID_SCENE,
        QueryError::DeadlineExceeded { .. } => code::DEADLINE_EXCEEDED,
        QueryError::BudgetExhausted { .. } => code::BUDGET_EXHAUSTED,
        QueryError::ShardPanicked { .. } => code::SHARD_PANICKED,
    }
}

fn error_body(error: &QueryError) -> ResponseBody {
    ResponseBody::Error {
        code: error_code(error),
        reason: error.to_string(),
    }
}

fn reject(code: u8, reason: impl Into<String>) -> ResponseBody {
    ResponseBody::Error {
        code,
        reason: reason.into(),
    }
}

/// The radius queries of one batch on one cloud, which share one [`CollectStream`].
struct RadiusGroup<'a> {
    points: &'a [Vec3],
    bvh: &'a Bvh4,
    /// The group's jobs in batch order, and their `(centre, radius)` queries.
    jobs: Vec<usize>,
    queries: Vec<(Vec3, f32)>,
}

/// One fused stream of a round, tagged with what it serves.
enum BatchStream<'a> {
    Trace {
        stream: TraversalStream<'a>,
        job: usize,
        rays: usize,
    },
    Collect {
        stream: CollectStream<'a>,
        group: usize,
    },
    Knn {
        stream: DistanceStream<'a, Vec<f32>>,
        job: usize,
        k: u32,
    },
    /// Scoring of the candidates of the radius query `collected[at]`.
    Radius {
        stream: DistanceStream<'a, [f32; 3]>,
        at: usize,
    },
}

impl BatchStream<'_> {
    fn as_dyn(&mut self) -> &mut dyn FusedStream {
        match self {
            BatchStream::Trace { stream, .. } => stream,
            BatchStream::Collect { stream, .. } => stream,
            BatchStream::Knn { stream, .. } => stream,
            BatchStream::Radius { stream, .. } => stream,
        }
    }
}

/// The single-threaded batch executor.  Owns the one datapath and fused scheduler every batch
/// runs on; borrows the immutable registry.
pub struct BatchExecutor {
    registry: Arc<Registry>,
    datapath: RayFlexDatapath,
    fused: FusedScheduler,
    config: ExecConfig,
    /// The one policy both rounds of every batch run under: `config`'s beat budget, admission
    /// order, lane width and batch beat cap.
    policy: ExecPolicy,
}

impl std::fmt::Debug for BatchExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchExecutor")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl BatchExecutor {
    /// Builds the executor over a preloaded registry.
    #[must_use]
    pub fn new(registry: Arc<Registry>, config: ExecConfig) -> Self {
        let mut datapath = RayFlexDatapath::new(PipelineConfig::extended_unified());
        datapath.set_simd_lanes(config.simd_lanes);
        BatchExecutor {
            registry,
            datapath,
            fused: FusedScheduler::new(),
            config,
            policy: ExecPolicy::fused()
                .with_beat_budget(config.beat_budget)
                .with_admission_order(config.admission)
                .with_simd_lanes(config.simd_lanes)
                .with_max_total_beats(config.max_batch_beats),
        }
    }

    /// Cumulative `(busy, slots)` SIMD lane counters of the executor's datapath, which every
    /// query kind runs on — the modeled device utilisation
    /// ([`rayflex_core::BeatMix::simd_lane_occupancy`]) the server's drain report exposes.
    /// Busy lanes count live beats; slots charge every kernel issue its full dispatch width,
    /// so `busy / slots` is the fraction of the modeled RT-unit's lanes that did useful work.
    /// Resets if a panic forces a datapath rebuild.
    #[must_use]
    pub fn lane_usage(&self) -> (u64, u64) {
        let mix = self.datapath.beat_mix();
        (mix.simd_lanes_busy(), mix.simd_lane_slots())
    }

    /// Executes one admitted batch and returns one response per job, aligned by index.
    /// Panics anywhere inside are converted to [`code::INTERNAL`] errors for every job of the
    /// batch, and the executor's datapath state is rebuilt so the next batch starts clean.
    pub fn execute(&mut self, jobs: &[Job]) -> Vec<ResponseFrame> {
        let bodies = match catch_unwind(AssertUnwindSafe(|| self.execute_inner(jobs))) {
            Ok(bodies) => bodies,
            Err(_) => {
                // The scheduler/datapath may be mid-flight; rebuild rather than reason about
                // the wreckage.  Rare path — correctness over cost.
                *self = BatchExecutor::new(Arc::clone(&self.registry), self.config);
                jobs.iter()
                    .map(|_| reject(code::INTERNAL, "batch execution panicked"))
                    .collect()
            }
        };
        jobs.iter()
            .zip(bodies)
            .map(|(job, body)| ResponseFrame {
                request_id: job.request.request_id,
                body,
            })
            .collect()
    }

    fn execute_inner(&mut self, jobs: &[Job]) -> Vec<ResponseBody> {
        let registry = Arc::clone(&self.registry);
        let mut bodies: Vec<Option<ResponseBody>> =
            jobs.iter().map(|job| validate(&registry, job)).collect();
        let admitted: Vec<usize> = (0..jobs.len())
            .filter(|&job| bodies[job].is_none())
            .collect();
        let now = Instant::now();
        let deadline = |job: usize| jobs[job].remaining_deadline_us(now);
        let cap = self.config.max_batch_beats;

        // Round 1: trace and any-hit streams, then one candidate collection per cloud.
        let mut round = Vec::new();
        for &job in &admitted {
            let request = &jobs[job].request;
            let (RequestBody::Trace { rays } | RequestBody::AnyHit { rays }) = &request.body else {
                continue;
            };
            let Some(scene) = registry.scene(&request.scene) else {
                continue;
            };
            let stream = match request.body {
                RequestBody::Trace { .. } => TraversalStream::closest_hit(scene, rays),
                _ => TraversalStream::any_hit(scene, rays),
            };
            let rays = rays.len();
            round.push((BatchStream::Trace { stream, job, rays }, deadline(job)));
        }
        let groups = radius_groups(&registry, jobs, &admitted);
        for (group, members) in groups.iter().enumerate() {
            // A collection serves several jobs and carries no deadline of its own, so EDF admits
            // it after every stream that has one; that packs the pass's box lanes tighter.
            let stream = CollectStream::new(members.bvh, &members.queries);
            round.push((BatchStream::Collect { stream, group }, 0));
        }
        let spent = self.run_round(&mut round, cap);

        // Each collected radius query: its job, candidates and their points.
        let mut collected: Vec<(usize, Vec<usize>, Vec<[f32; 3]>)> = Vec::new();
        for (entry, _) in round {
            match entry {
                BatchStream::Trace { stream, job, rays } => {
                    bodies[job] = Some(trace_body(&stream.finish_partial().0, rays));
                }
                BatchStream::Collect { stream, group } => {
                    let group = &groups[group];
                    for (&job, candidates) in group.jobs.iter().zip(stream.finish().0) {
                        let points = candidates.iter().map(|&index| group.points[index]);
                        let points = points.map(|p| [p.x, p.y, p.z]).collect();
                        collected.push((job, candidates, points));
                    }
                }
                BatchStream::Knn { .. } | BatchStream::Radius { .. } => {}
            }
        }

        // Round 2: every distance stream, under what is left of the cap.
        let mut round = Vec::new();
        for &job in &admitted {
            let request = &jobs[job].request;
            let RequestBody::Knn { query, k } = &request.body else {
                continue;
            };
            if let Some(dataset) = registry.dataset(&request.scene) {
                let stream = DistanceStream::new(query, dataset, KnnMetric::Euclidean);
                round.push((BatchStream::Knn { stream, job, k: *k }, deadline(job)));
            }
        }
        for (at, (job, _, points)) in collected.iter().enumerate() {
            let Some((center, _)) = radius_query(&jobs[*job]) else {
                continue;
            };
            let stream = DistanceStream::new(center, points, KnnMetric::Euclidean);
            round.push((BatchStream::Radius { stream, at }, deadline(*job)));
        }
        // A spent cap leaves round 2 unrun; `0` leaves it uncapped.
        let left = match cap {
            0 => Some(0),
            _ => cap.checked_sub(spent).filter(|&left| left > 0),
        };
        let ran = left.map(|left| self.run_round(&mut round, left)).is_some();
        for (mut entry, _) in round {
            // A distance result is a reduction over every candidate, so an unfinished stream
            // has no meaningful prefix.
            let finished = ran && !entry.as_dyn().is_active();
            match entry {
                BatchStream::Knn { job, .. } if !finished => {
                    bodies[job] = Some(reject(
                        code::DEADLINE_EXCEEDED,
                        "batch beat cap fired before every candidate was scored",
                    ));
                }
                BatchStream::Knn { stream, job, k } => {
                    let (distances, _stats) = stream.finish();
                    bodies[job] = Some(neighbor_body(&select_k_nearest(&distances, k as usize)));
                }
                BatchStream::Radius { stream, at } if finished => {
                    let (job, candidates, _) = &collected[at];
                    let scored = candidates.iter().zip(stream.finish().0);
                    let scored = scored.map(|(&index, distance)| Neighbor { index, distance });
                    let radius = radius_query(&jobs[*job]).map_or(0.0, |(_, radius)| radius);
                    let neighbors = radius_neighbors(scored.collect(), radius);
                    bodies[*job] = Some(neighbor_body(&neighbors));
                }
                _ => {}
            }
        }

        // A radius query unanswered by now lost its collection or its scoring to the cap.
        for group in &groups {
            let answered = group.jobs.iter().any(|&job| bodies[job].is_some());
            for &job in &group.jobs {
                bodies[job].get_or_insert_with(|| {
                    if answered {
                        reject(
                            code::DEADLINE_EXCEEDED,
                            "batch beat cap fired before this radius query completed",
                        )
                    } else {
                        error_body(&QueryError::BudgetExhausted {
                            max_total_beats: cap,
                        })
                    }
                });
            }
        }

        bodies
            .into_iter()
            .map(|body| body.unwrap_or_else(|| reject(code::INTERNAL, "request fell through")))
            .collect()
    }

    /// Runs one round's streams as one fused run on the executor's datapath, capped at `cap`
    /// beats (`0` = uncapped), each stream admitted by its deadline.  Returns the beats spent.
    fn run_round(&mut self, round: &mut [(BatchStream<'_>, u64)], cap: u64) -> u64 {
        if round.is_empty() {
            return 0;
        }
        let deadlines: Vec<u64> = round.iter().map(|&(_, deadline)| deadline).collect();
        self.fused.set_stream_deadlines(&deadlines);
        let mut handles: Vec<&mut dyn FusedStream> = round
            .iter_mut()
            .map(|(stream, _)| stream.as_dyn())
            .collect();
        self.fused
            .run_policy(&mut self.datapath, &mut handles, &self.policy, cap)
            .beats
    }
}

/// Validates one request against the registry: the answer of a request that runs no stream
/// (a reject or a shutdown acknowledgement), or `None` for one that joins the batch's rounds.
fn validate(registry: &Registry, job: &Job) -> Option<ResponseBody> {
    let request = &job.request;
    if matches!(request.body, RequestBody::Shutdown) {
        return Some(ResponseBody::ShutdownAck);
    }
    let Some(kind) = registry.kind_of(&request.scene) else {
        return Some(reject(
            code::UNKNOWN_SCENE,
            format!("no preloaded target named {:?}", request.scene),
        ));
    };
    match (&request.body, kind) {
        (RequestBody::Trace { rays } | RequestBody::AnyHit { rays }, TargetKind::Scene) => {
            SceneValidator::validate_rays(rays, "request")
                .err()
                .map(|error| error_body(&error))
        }
        (RequestBody::Knn { query, .. }, TargetKind::Dataset) => {
            let dimension = registry
                .dataset(&request.scene)
                .and_then(|dataset| dataset.first())
                .map_or(0, Vec::len);
            if query.len() != dimension {
                Some(reject(
                    code::INVALID_REQUEST,
                    format!(
                        "query dimension {} does not match dataset dimension {dimension}",
                        query.len()
                    ),
                ))
            } else if query.iter().any(|value| !value.is_finite()) {
                Some(reject(code::INVALID_REQUEST, "non-finite query component"))
            } else {
                None
            }
        }
        (RequestBody::Radius { center, radius }, TargetKind::Cloud) => {
            if center.iter().any(|value| !value.is_finite()) {
                Some(reject(code::INVALID_REQUEST, "non-finite query centre"))
            } else if !radius.is_finite() || *radius < 0.0 {
                Some(reject(
                    code::INVALID_REQUEST,
                    format!("invalid radius {radius}"),
                ))
            } else {
                None
            }
        }
        (_, kind) => Some(reject(
            code::UNSUPPORTED,
            format!(
                "target {:?} is a {kind:?}, wrong kind for this query",
                request.scene
            ),
        )),
    }
}

/// The centre and radius of a radius request.
fn radius_query(job: &Job) -> Option<(&[f32; 3], f32)> {
    match &job.request.body {
        RequestBody::Radius { center, radius } => Some((center, *radius)),
        _ => None,
    }
}

/// The admitted radius queries grouped by cloud, groups in cloud-name order and each group's
/// queries in batch order.  Validation admits only radius queries on a cloud.
fn radius_groups<'a>(
    registry: &'a Registry,
    jobs: &[Job],
    admitted: &[usize],
) -> Vec<RadiusGroup<'a>> {
    let mut groups = Vec::new();
    for (name, points, bvh) in registry.clouds() {
        let on_cloud = admitted.iter().copied();
        let on_cloud: Vec<usize> = on_cloud
            .filter(|&job| jobs[job].request.scene == name)
            .collect();
        if on_cloud.is_empty() {
            continue;
        }
        let queries = on_cloud.iter().filter_map(|&job| radius_query(&jobs[job]));
        let queries = queries.map(|(c, radius)| (Vec3::new(c[0], c[1], c[2]), radius));
        groups.push(RadiusGroup {
            points,
            bvh,
            queries: queries.collect(),
            jobs: on_cloud,
        });
    }
    groups
}

/// The answer to a trace or any-hit request from the completed ray prefix of its stream.
fn trace_body(hits: &[Option<TraversalHit>], rays: usize) -> ResponseBody {
    let hits: Vec<Option<WireHit>> = hits.iter().map(wire_hit).collect();
    if hits.len() == rays {
        ResponseBody::Hits { hits }
    } else if hits.is_empty() {
        reject(
            code::BUDGET_EXHAUSTED,
            "batch beat cap fired before the first ray completed",
        )
    } else {
        let total = rays as u32;
        ResponseBody::PartialHits { total, hits }
    }
}

fn wire_hit(hit: &Option<TraversalHit>) -> Option<WireHit> {
    hit.as_ref().map(|hit| WireHit {
        primitive: hit.primitive as u64,
        t: hit.t,
    })
}

fn wire_neighbor(neighbor: &Neighbor) -> WireNeighbor {
    WireNeighbor {
        index: neighbor.index as u64,
        distance: neighbor.distance,
    }
}

fn neighbor_body(neighbors: &[Neighbor]) -> ResponseBody {
    ResponseBody::Neighbors {
        neighbors: neighbors.iter().map(wire_neighbor).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayflex_rtunit::{TraceRequest, TraversalEngine};
    use rayflex_workloads::wire::{catalog, RequestFrame};
    use std::sync::mpsc::sync_channel;
    use std::time::Instant as StdInstant;

    fn job(request_id: u64, scene: &str, body: RequestBody) -> Job {
        let (tx, rx) = sync_channel(1);
        std::mem::forget(rx);
        Job {
            request: RequestFrame {
                request_id,
                tenant: 0,
                deadline_us: 0,
                scene: scene.into(),
                body,
            },
            enqueued_at: StdInstant::now(),
            seq: request_id,
            responder: tx,
        }
    }

    fn executor() -> BatchExecutor {
        let registry = Arc::new(Registry::preload().expect("catalog preloads"));
        BatchExecutor::new(registry, ExecConfig::default())
    }

    #[test]
    fn a_mixed_batch_answers_every_job_and_matches_the_library() {
        let mut exec = executor();
        let rays = catalog::sample_rays("wall", 7, 6).expect("catalog rays");
        let queries = catalog::sample_queries("clusters", 11, 1).expect("catalog queries");
        let centers = catalog::sample_centers("cloud", 13, 1).expect("catalog centers");
        let jobs = vec![
            job(1, "wall", RequestBody::Trace { rays: rays.clone() }),
            job(2, "wall", RequestBody::AnyHit { rays: rays.clone() }),
            job(
                3,
                "clusters",
                RequestBody::Knn {
                    k: 4,
                    query: queries[0].clone(),
                },
            ),
            job(
                4,
                "cloud",
                RequestBody::Radius {
                    center: [centers[0].0.x, centers[0].0.y, centers[0].0.z],
                    radius: centers[0].1,
                },
            ),
        ];
        let responses = exec.execute(&jobs);
        assert_eq!(responses.len(), 4);
        for (job, response) in jobs.iter().zip(&responses) {
            assert_eq!(response.request_id, job.request.request_id);
        }

        // The batched trace answer equals the direct library call, hit for hit.
        let mut engine = TraversalEngine::with_config(PipelineConfig::extended_unified());
        let registry = Registry::preload().expect("catalog preloads");
        let scene = registry.scene("wall").expect("wall preloads");
        let solo = engine
            .trace(
                &TraceRequest::closest_hit(scene, &rays),
                &ExecPolicy::fused(),
            )
            .into_closest();
        match &responses[0].body {
            ResponseBody::Hits { hits } => {
                assert_eq!(hits.len(), solo.len());
                for (got, want) in hits.iter().zip(&solo) {
                    match (got, want) {
                        (None, None) => {}
                        (Some(got), Some(want)) => {
                            assert_eq!(got.primitive, want.primitive as u64);
                            assert_eq!(got.t.to_bits(), want.t.to_bits());
                        }
                        other => panic!("hit mismatch: {other:?}"),
                    }
                }
            }
            other => panic!("expected hits, got {other:?}"),
        }
    }

    #[test]
    fn validation_rejects_map_to_structured_codes() {
        let mut exec = executor();
        let jobs = vec![
            job(1, "no-such", RequestBody::Trace { rays: vec![] }),
            job(
                2,
                "clusters",
                RequestBody::Trace { rays: vec![] }, // dataset asked to trace
            ),
            job(
                3,
                "clusters",
                RequestBody::Knn {
                    k: 3,
                    query: vec![1.0; 3], // wrong dimension
                },
            ),
            job(
                4,
                "cloud",
                RequestBody::Radius {
                    center: [0.0, f32::NAN, 0.0],
                    radius: 1.0,
                },
            ),
        ];
        let responses = exec.execute(&jobs);
        let codes: Vec<u8> = responses
            .iter()
            .map(|response| match &response.body {
                ResponseBody::Error { code, .. } => *code,
                other => panic!("expected an error, got {other:?}"),
            })
            .collect();
        assert_eq!(
            codes,
            vec![
                code::UNKNOWN_SCENE,
                code::UNSUPPORTED,
                code::INVALID_REQUEST,
                code::INVALID_REQUEST
            ]
        );
    }

    fn radius_job(request_id: u64, center: Vec3, radius: f32) -> Job {
        job(
            request_id,
            "cloud",
            RequestBody::Radius {
                center: [center.x, center.y, center.z],
                radius,
            },
        )
    }

    fn error_code_of(body: &ResponseBody) -> Option<u8> {
        match body {
            ResponseBody::Error { code, .. } => Some(*code),
            _ => None,
        }
    }

    #[test]
    fn a_radius_only_batch_runs_on_the_executors_datapath() {
        let mut exec = executor();
        let centers = catalog::sample_centers("cloud", 13, 8).expect("catalog centers");
        let jobs: Vec<Job> = (0u64..)
            .zip(&centers)
            .map(|(id, &(center, radius))| radius_job(id, center, radius))
            .collect();
        assert_eq!(exec.lane_usage(), (0, 0));
        let responses = exec.execute(&jobs);
        let (busy, slots) = exec.lane_usage();
        // The `force-scalar` build never engages the lane kernels.
        if rayflex_core::clamp_simd_lanes(ExecConfig::default().simd_lanes) > 1 {
            assert!(busy > 0 && slots >= busy, "({busy}, {slots})");
        } else {
            assert_eq!((busy, slots), (0, 0));
        }
        let mut engines = Registry::preload()
            .expect("catalog preloads")
            .build_cloud_engines();
        let engine = engines.get_mut("cloud").expect("cloud preloads");
        for (response, &(center, radius)) in responses.iter().zip(&centers) {
            let want = engine
                .try_radius_queries(&[(center, radius)], &ExecPolicy::fused())
                .expect("a valid radius query")
                .into_output()
                .remove(0);
            assert_eq!(response.body, neighbor_body(&want));
        }
    }

    #[test]
    fn a_tiny_batch_cap_degrades_to_partials_or_structured_errors() {
        // One beat per stream per pass, so the batch beat cap fires after a few beats.
        let rays = catalog::sample_rays("soup", 3, 64).expect("catalog rays");
        let centers = catalog::sample_centers("cloud", 5, 2).expect("catalog centers");
        let queries = catalog::sample_queries("clusters", 11, 1).expect("catalog queries");
        let answer = |max_batch_beats, jobs: &[Job]| -> Vec<ResponseBody> {
            let mut exec = BatchExecutor::new(
                Arc::new(Registry::preload().expect("catalog preloads")),
                ExecConfig {
                    beat_budget: 1,
                    max_batch_beats,
                    ..ExecConfig::default()
                },
            );
            exec.execute(jobs)
                .into_iter()
                .map(|frame| frame.body)
                .collect()
        };
        let trace = job(9, "soup", RequestBody::Trace { rays: rays.clone() });
        match &answer(1, std::slice::from_ref(&trace))[0] {
            ResponseBody::Error { code: got, .. } => assert_eq!(*got, code::BUDGET_EXHAUSTED),
            other => panic!("a one-beat cap retires no ray, got {other:?}"),
        }
        match &answer(40, std::slice::from_ref(&trace))[0] {
            ResponseBody::PartialHits { total, hits } => {
                assert_eq!(*total, 64);
                assert!(!hits.is_empty() && hits.len() < 64, "{} hits", hits.len());
            }
            other => panic!("a 40-beat cap retires a strict prefix, got {other:?}"),
        }

        // A radius query collects in round 1 and scores in round 2.
        let (center, radius) = centers[0];
        let radius_only = [radius_job(10, center, radius)];
        let capped = answer(1, &radius_only);
        assert_eq!(
            error_code_of(&capped[0]),
            Some(code::BUDGET_EXHAUSTED),
            "{capped:?}"
        );
        let registry = Registry::preload().expect("catalog preloads");
        let mut engines = registry.build_cloud_engines();
        let want = engines
            .get_mut("cloud")
            .expect("cloud preloads")
            .try_radius_queries(&[(center, radius)], &ExecPolicy::fused())
            .expect("a valid radius query")
            .into_output()
            .remove(0);
        assert_eq!(answer(0, &radius_only)[0], neighbor_body(&want));

        // A cap one beat past round 1 lets every trace ray and collection finish, then fires
        // in round 2's first pass.
        let (_, _, bvh) = registry.clouds().next().expect("cloud preloads");
        let scene = registry.scene("soup").expect("soup preloads");
        let mut round_one = [
            &mut TraversalStream::closest_hit(scene, &rays) as &mut dyn FusedStream,
            &mut CollectStream::new(bvh, &centers),
        ];
        let round_one_beats = FusedScheduler::new()
            .run_policy(
                &mut RayFlexDatapath::new(PipelineConfig::extended_unified()),
                &mut round_one,
                &ExecPolicy::fused().with_beat_budget(1),
                0,
            )
            .beats;
        let mut mixed = vec![
            trace,
            job(
                11,
                "clusters",
                RequestBody::Knn {
                    k: 4,
                    query: queries[0].clone(),
                },
            ),
        ];
        mixed.extend(
            (12u64..)
                .zip(&centers)
                .map(|(id, &(center, radius))| radius_job(id, center, radius)),
        );
        let bodies = answer(round_one_beats + 1, &mixed);
        assert!(
            matches!(&bodies[0], ResponseBody::Hits { hits } if hits.len() == 64),
            "round 1 completes: {:?}",
            bodies[0]
        );
        assert_eq!(error_code_of(&bodies[1]), Some(code::DEADLINE_EXCEEDED));
        for body in &bodies[2..] {
            match error_code_of(body) {
                None => assert!(matches!(body, ResponseBody::Neighbors { .. }), "{body:?}"),
                Some(got) => assert!(
                    got == code::DEADLINE_EXCEEDED || got == code::BUDGET_EXHAUSTED,
                    "{body:?}"
                ),
            }
        }
    }
}
