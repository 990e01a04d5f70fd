//! The batch executor — the single thread that turns an admitted batch of heterogeneous
//! requests into one shared [`FusedScheduler`] run.  Trace, any-hit and kNN-distance requests
//! become per-request [`FusedStream`]s interleaved beat-by-beat on one
//! [`RayFlexDatapath`]; radius queries run per-cloud through the preloaded
//! [`HierarchicalSearch`] engines under the same [`ExecPolicy`].
//!
//! The fused-batching contract is the repo's tentpole invariant: which requests share a batch
//! changes pass structure and wall-clock only, never a request's outputs or statistics — so a
//! batched server response is bit-identical to the same request served alone, or issued
//! directly against the library.  Every failure maps to a structured
//! [`ResponseBody::Error`]; a panic anywhere in batch execution is caught, answered with
//! [`code::INTERNAL`], and the datapath state rebuilt — a worker is never lost to one bad
//! batch.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use rayflex_core::{PipelineConfig, RayFlexDatapath};
use rayflex_geometry::Vec3;
use rayflex_rtunit::{
    select_k_nearest, AdmissionOrder, DistanceStream, ExecPolicy, FusedScheduler, FusedStream,
    HierarchicalSearch, KnnMetric, Neighbor, QueryError, QueryOutcome, SceneValidator,
    TraversalStream,
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
    /// Total beat cap per batch run (`0` = uncapped); crossing it cancels cooperatively at a
    /// pass boundary and answers unfinished requests with a partial or a structured error.
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

/// What one job contributes to the batch plan after validation.
enum Plan {
    /// Index of the job a fused stream serves, plus whether it is a kNN stream (`Some(k)`).
    Stream { knn_k: Option<u32> },
    /// A radius query, grouped per cloud after the fused run.
    Radius {
        cloud: String,
        center: Vec3,
        radius: f32,
    },
    /// Already answered (validation reject or shutdown acknowledgement).
    Done(ResponseBody),
}

/// One fused stream of the mixed batch, tagged with the job it serves.
enum BatchStream<'a> {
    Trace {
        stream: TraversalStream<'a>,
        job: usize,
        rays: usize,
    },
    Distance {
        stream: DistanceStream<'a, Vec<f32>>,
        job: usize,
        k: u32,
    },
}

impl BatchStream<'_> {
    fn job(&self) -> usize {
        match self {
            BatchStream::Trace { job, .. } | BatchStream::Distance { job, .. } => *job,
        }
    }

    fn as_dyn(&mut self) -> &mut dyn FusedStream {
        match self {
            BatchStream::Trace { stream, .. } => stream,
            BatchStream::Distance { stream, .. } => stream,
        }
    }
}

/// The single-threaded batch executor.  Owns the datapath, the fused scheduler and the
/// per-cloud radius engines; borrows the immutable registry.
pub struct BatchExecutor {
    registry: Arc<Registry>,
    datapath: RayFlexDatapath,
    fused: FusedScheduler,
    clouds: HashMap<String, HierarchicalSearch>,
    config: ExecConfig,
    /// The one policy every batch runs under, fused runs and radius queries alike: `config`'s
    /// beat budget, admission order, lane width and batch beat cap.
    policy: ExecPolicy,
}

impl std::fmt::Debug for BatchExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchExecutor")
            .field("config", &self.config)
            .field("clouds", &self.clouds.len())
            .finish_non_exhaustive()
    }
}

impl BatchExecutor {
    /// Builds the executor over a preloaded registry.
    #[must_use]
    pub fn new(registry: Arc<Registry>, config: ExecConfig) -> Self {
        let clouds = registry.build_cloud_engines();
        let mut datapath = RayFlexDatapath::new(PipelineConfig::extended_unified());
        datapath.set_simd_lanes(config.simd_lanes);
        BatchExecutor {
            registry,
            datapath,
            fused: FusedScheduler::new(),
            clouds,
            config,
            policy: ExecPolicy::fused()
                .with_beat_budget(config.beat_budget)
                .with_admission_order(config.admission)
                .with_simd_lanes(config.simd_lanes)
                .with_max_total_beats(config.max_batch_beats),
        }
    }

    /// Cumulative `(busy, slots)` SIMD lane counters of the executor's datapath — the modeled
    /// device utilisation ([`rayflex_core::BeatMix::simd_lane_occupancy`]) the server's drain
    /// report exposes.  Busy lanes count live beats; slots charge every kernel issue its full
    /// dispatch width, so `busy / slots` is the fraction of the modeled RT-unit's lanes that
    /// did useful work.  Resets if a panic forces a datapath rebuild.
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
                self.datapath = RayFlexDatapath::new(PipelineConfig::extended_unified());
                self.datapath.set_simd_lanes(self.config.simd_lanes);
                self.fused = FusedScheduler::new();
                self.clouds = self.registry.build_cloud_engines();
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
        let plans: Vec<Plan> = jobs.iter().map(|job| self.plan(job)).collect();
        let mut bodies: Vec<Option<ResponseBody>> = plans
            .iter()
            .map(|plan| match plan {
                Plan::Done(body) => Some(body.clone()),
                _ => None,
            })
            .collect();

        self.run_fused(jobs, &plans, &mut bodies);
        self.run_radius(&plans, &mut bodies);

        bodies
            .into_iter()
            .map(|body| body.unwrap_or_else(|| reject(code::INTERNAL, "request fell through")))
            .collect()
    }

    /// Validates one request against the registry and classifies its execution path.
    fn plan(&self, job: &Job) -> Plan {
        let request = &job.request;
        if matches!(request.body, RequestBody::Shutdown) {
            return Plan::Done(ResponseBody::ShutdownAck);
        }
        let Some(kind) = self.registry.kind_of(&request.scene) else {
            return Plan::Done(reject(
                code::UNKNOWN_SCENE,
                format!("no preloaded target named {:?}", request.scene),
            ));
        };
        match (&request.body, kind) {
            (RequestBody::Trace { rays } | RequestBody::AnyHit { rays }, TargetKind::Scene) => {
                match SceneValidator::validate_rays(rays, "request") {
                    Ok(()) => Plan::Stream { knn_k: None },
                    Err(error) => Plan::Done(error_body(&error)),
                }
            }
            (RequestBody::Knn { k, query }, TargetKind::Dataset) => {
                let dimension = self
                    .registry
                    .dataset(&request.scene)
                    .and_then(|dataset| dataset.first())
                    .map_or(0, Vec::len);
                if query.len() != dimension {
                    Plan::Done(reject(
                        code::INVALID_REQUEST,
                        format!(
                            "query dimension {} does not match dataset dimension {dimension}",
                            query.len()
                        ),
                    ))
                } else if query.iter().any(|value| !value.is_finite()) {
                    Plan::Done(reject(code::INVALID_REQUEST, "non-finite query component"))
                } else {
                    Plan::Stream { knn_k: Some(*k) }
                }
            }
            (RequestBody::Radius { center, radius }, TargetKind::Cloud) => {
                if center.iter().any(|value| !value.is_finite()) {
                    Plan::Done(reject(code::INVALID_REQUEST, "non-finite query centre"))
                } else if !radius.is_finite() || *radius < 0.0 {
                    Plan::Done(reject(
                        code::INVALID_REQUEST,
                        format!("invalid radius {radius}"),
                    ))
                } else {
                    Plan::Radius {
                        cloud: request.scene.clone(),
                        center: Vec3::new(center[0], center[1], center[2]),
                        radius: *radius,
                    }
                }
            }
            (_, kind) => Plan::Done(reject(
                code::UNSUPPORTED,
                format!(
                    "target {:?} is a {kind:?}, wrong kind for this query",
                    request.scene
                ),
            )),
        }
    }

    /// Runs every trace / any-hit / kNN request of the batch as one shared fused run.
    fn run_fused(&mut self, jobs: &[Job], plans: &[Plan], bodies: &mut [Option<ResponseBody>]) {
        let mut streams: Vec<BatchStream<'_>> = Vec::new();
        for (index, plan) in plans.iter().enumerate() {
            let Plan::Stream { knn_k } = plan else {
                continue;
            };
            let request = &jobs[index].request;
            match (&request.body, knn_k) {
                (RequestBody::Trace { rays }, None) => {
                    if let Some(scene) = self.registry.scene(&request.scene) {
                        streams.push(BatchStream::Trace {
                            stream: TraversalStream::closest_hit(scene, rays),
                            job: index,
                            rays: rays.len(),
                        });
                    }
                }
                (RequestBody::AnyHit { rays }, None) => {
                    if let Some(scene) = self.registry.scene(&request.scene) {
                        streams.push(BatchStream::Trace {
                            stream: TraversalStream::any_hit(scene, rays),
                            job: index,
                            rays: rays.len(),
                        });
                    }
                }
                (RequestBody::Knn { query, .. }, Some(k)) => {
                    if let Some(dataset) = self.registry.dataset(&request.scene) {
                        streams.push(BatchStream::Distance {
                            stream: DistanceStream::new(query, dataset, KnnMetric::Euclidean),
                            job: index,
                            k: *k,
                        });
                    }
                }
                _ => {}
            }
        }
        if streams.is_empty() {
            return;
        }

        let now = Instant::now();
        let deadlines: Vec<u64> = streams
            .iter()
            .map(|stream| jobs[stream.job()].remaining_deadline_us(now))
            .collect();
        self.fused.set_stream_deadlines(&deadlines);
        {
            let mut handles: Vec<&mut dyn FusedStream> =
                streams.iter_mut().map(BatchStream::as_dyn).collect();
            self.fused.run_policy(
                &mut self.datapath,
                &mut handles,
                &self.policy,
                self.config.max_batch_beats,
            );
        }

        for entry in streams {
            match entry {
                BatchStream::Trace { stream, job, rays } => {
                    let (hits, _stats) = stream.finish_partial();
                    let prefix = hits.len();
                    bodies[job] = Some(if prefix == rays {
                        ResponseBody::Hits {
                            hits: hits.iter().map(wire_hit).collect(),
                        }
                    } else if prefix > 0 {
                        ResponseBody::PartialHits {
                            total: rays as u32,
                            hits: hits[..prefix].iter().map(wire_hit).collect(),
                        }
                    } else {
                        reject(
                            code::BUDGET_EXHAUSTED,
                            "batch beat cap fired before the first ray completed",
                        )
                    });
                }
                BatchStream::Distance { stream, job, k } => {
                    // A k-nearest result is a global reduction over every candidate distance —
                    // there is no meaningful completed prefix, so an unfinished stream is a
                    // deadline miss, not a partial.
                    bodies[job] = Some(if stream.is_active() {
                        reject(
                            code::DEADLINE_EXCEEDED,
                            "batch beat cap fired before every candidate was scored",
                        )
                    } else {
                        let (distances, _stats) = stream.finish();
                        ResponseBody::Neighbors {
                            neighbors: select_k_nearest(&distances, k as usize)
                                .iter()
                                .map(wire_neighbor)
                                .collect(),
                        }
                    });
                }
            }
        }
    }

    /// Runs the batch's radius queries, grouped per cloud so each group shares one fused run
    /// inside its [`HierarchicalSearch`] engine.
    fn run_radius(&mut self, plans: &[Plan], bodies: &mut [Option<ResponseBody>]) {
        let mut groups: HashMap<&str, Vec<(usize, Vec3, f32)>> = HashMap::new();
        for (index, plan) in plans.iter().enumerate() {
            if let Plan::Radius {
                cloud,
                center,
                radius,
            } = plan
            {
                groups
                    .entry(cloud.as_str())
                    .or_default()
                    .push((index, *center, *radius));
            }
        }
        // Deterministic group order (HashMap iteration is not) so statistics accumulate
        // reproducibly; outputs are per-query and unaffected.
        let mut names: Vec<&str> = groups.keys().copied().collect();
        names.sort_unstable();
        for name in names {
            let Some(group) = groups.get(name) else {
                continue;
            };
            let Some(engine) = self.clouds.get_mut(name) else {
                for &(index, _, _) in group {
                    bodies[index] = Some(reject(
                        code::UNKNOWN_SCENE,
                        format!("no preloaded cloud named {name:?}"),
                    ));
                }
                continue;
            };
            let queries: Vec<(Vec3, f32)> = group
                .iter()
                .map(|&(_, center, radius)| (center, radius))
                .collect();
            match engine.try_radius_queries(&queries, &self.policy) {
                Ok(QueryOutcome::Complete(results)) => {
                    for (&(index, _, _), neighbors) in group.iter().zip(&results) {
                        bodies[index] = Some(neighbor_body(neighbors));
                    }
                }
                Ok(QueryOutcome::Partial(partial)) => {
                    for (position, &(index, _, _)) in group.iter().enumerate() {
                        bodies[index] =
                            Some(if let Some(neighbors) = partial.output.get(position) {
                                neighbor_body(neighbors)
                            } else {
                                reject(
                                    code::DEADLINE_EXCEEDED,
                                    "batch beat cap fired before this radius query completed",
                                )
                            });
                    }
                }
                Err(error) => {
                    for &(index, _, _) in group {
                        bodies[index] = Some(error_body(&error));
                    }
                }
            }
        }
    }
}

fn wire_hit(hit: &Option<rayflex_rtunit::TraversalHit>) -> Option<WireHit> {
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

    #[test]
    fn a_tiny_batch_cap_degrades_to_partials_or_structured_errors() {
        // One 64-ray `soup` trace job at one beat per stream per pass, so the batch beat cap
        // fires after a few rays retire.
        let rays = catalog::sample_rays("soup", 3, 64).expect("catalog rays");
        let answer = |max_batch_beats| {
            let mut exec = BatchExecutor::new(
                Arc::new(Registry::preload().expect("catalog preloads")),
                ExecConfig {
                    beat_budget: 1,
                    max_batch_beats,
                    ..ExecConfig::default()
                },
            );
            let jobs = vec![job(9, "soup", RequestBody::Trace { rays: rays.clone() })];
            exec.execute(&jobs).remove(0).body
        };
        match answer(1) {
            ResponseBody::Error { code: got, .. } => assert_eq!(got, code::BUDGET_EXHAUSTED),
            other => panic!("a one-beat cap retires no ray, got {other:?}"),
        }
        match answer(40) {
            ResponseBody::PartialHits { total, hits } => {
                assert_eq!(total, 64);
                assert!(!hits.is_empty() && hits.len() < 64, "{} hits", hits.len());
            }
            other => panic!("a 40-beat cap retires a strict prefix, got {other:?}"),
        }
    }
}
