//! k-nearest-neighbour search on the extended datapath (case study §V-A).
//!
//! Candidate scoring is a batched query: every candidate vector is one item of a
//! [`QueryKind::Distance`] stream run through the generic batched scheduler.  A candidate
//! appends its whole beat train (16-lane Euclidean or 8-lane cosine beats, accumulator reset
//! asserted on the last) in a single build call, so the beats stay adjacent in the dispatched
//! batch and the datapath's shared accumulator sees each candidate contiguously — which is what
//! lets any number of candidates (and unrelated beats) share one bulk pass.  Each beat is a
//! 16-byte descriptor naming the candidate and the chunk; the kernel reads the query chunk and
//! the candidate chunk in place, from the query and the caller's dataset, so scoring copies no
//! vector.  The single-pair distance methods are one-candidate instantiations of the same query;
//! there is no separate scalar drive loop.
//!
//! The public entry points ([`KnnEngine::distances`], [`KnnEngine::k_nearest`]) take an
//! [`ExecPolicy`](crate::ExecPolicy): the same candidate beat trains dispatch one emulated beat
//! at a time (scalar reference), in bulk wavefront passes, in fused shared passes, or sharded
//! across worker threads — distances and [`KnnStats`] bit-identical in every mode.

use rayflex_core::{quad_sort, BeatMix, Opcode, PipelineConfig, RayFlexResponse};
use rayflex_geometry::golden::distance::{COSINE_LANES, EUCLIDEAN_LANES};

use crate::beat::{BeatPass, BeatTables};
use crate::device::Device;
use crate::error::{QueryError, QueryOutcome};
use crate::policy::{ExecMode, ExecPolicy};
use crate::query::{remaining_beats, BatchQuery, CappedFusedRun, QueryKind, StreamRunner};
use crate::scene::Scene;

/// The distance metric used by a search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnnMetric {
    /// Squared Euclidean distance (smaller is closer), computed with the extended datapath's
    /// Euclidean operation.
    Euclidean,
    /// Cosine distance `1 - cos(a, b)` (smaller is closer), computed from the extended datapath's
    /// dot-product and candidate-norm accumulators.
    Cosine,
}

/// One search result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Index of the dataset vector.
    pub index: usize,
    /// Distance to the query under the chosen metric.
    pub distance: f32,
}

/// Statistics of a search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KnnStats {
    /// Datapath beats issued.
    pub beats: u64,
    /// Candidate vectors scored.
    pub candidates: u64,
}

impl KnnStats {
    /// Accumulates another counter set into this one (used when merging the statistics of a
    /// finished distance stream — or a parallel run's shards — into an engine's totals).
    ///
    /// Same merge semantics as
    /// [`TraversalStats::merge`](crate::TraversalStats::merge): plain `u64` sums, commutative
    /// and associative with the zero set as identity, so shard totals equal single-threaded
    /// accounting exactly.
    pub fn merge(&mut self, other: &KnnStats) {
        self.beats += other.beats;
        self.candidates += other.candidates;
    }
}

/// Per-candidate state of a batched distance query.
#[derive(Debug, Default)]
pub struct DistanceWork {
    issued: bool,
    euclidean: f32,
    dot: f32,
    norm_sq: f32,
}

/// A batched distance query: one item per candidate vector, all beats of a candidate appended in
/// one build call (see the module documentation for why adjacency matters).  The query owns its
/// statistics so distance streams can run fused alongside other query kinds; consumers merge
/// them when the stream finishes.
#[derive(Debug)]
struct DistanceQuery<'a, C: AsRef<[f32]>> {
    query: &'a [f32],
    candidates: &'a [C],
    metric: KnnMetric,
    /// Pre-computed query norm for the cosine metric (a property of the query alone; like the
    /// ray shear constants it is computed outside the datapath).
    query_norm: f32,
    stats: KnnStats,
}

impl<'a, C: AsRef<[f32]>> DistanceQuery<'a, C> {
    fn new(query: &'a [f32], candidates: &'a [C], metric: KnnMetric) -> Self {
        let query_norm = match metric {
            KnnMetric::Euclidean => 0.0,
            KnnMetric::Cosine => query.iter().map(|x| x * x).sum::<f32>().sqrt(),
        };
        DistanceQuery {
            query,
            candidates,
            metric,
            query_norm,
            stats: KnnStats::default(),
        }
    }
}

impl<C: AsRef<[f32]>> BatchQuery for DistanceQuery<'_, C> {
    type State = DistanceWork;
    type Output = f32;

    fn kind(&self) -> QueryKind {
        QueryKind::Distance
    }

    fn items(&self) -> usize {
        self.candidates.len()
    }

    fn reset(&mut self, _item: usize, state: &mut DistanceWork) {
        *state = DistanceWork::default();
    }

    fn build(&mut self, item: usize, state: &mut DistanceWork, out: &mut BeatPass) -> bool {
        if state.issued {
            return false;
        }
        state.issued = true;
        let candidate = self.candidates[item].as_ref();
        assert_eq!(
            self.query.len(),
            candidate.len(),
            "vector dimensions must match"
        );
        self.stats.candidates += 1;
        let opcode = match self.metric {
            KnnMetric::Euclidean => Opcode::Euclidean,
            KnnMetric::Cosine => Opcode::Cosine,
        };
        self.stats.beats += out.extend_vector(opcode, item, self.query.len()) as u64;
        true
    }

    fn tables(&self) -> BeatTables<'_> {
        BeatTables::vectors(self.query, &self.candidates)
    }

    fn apply(&mut self, _item: usize, state: &mut DistanceWork, response: &RayFlexResponse) {
        let Some(result) = response.distance_result else {
            unreachable!("a distance beat always carries a distance result");
        };
        // Only the last beat of the candidate (the one echoing the accumulator reset) carries
        // the completed reduction.
        match self.metric {
            KnnMetric::Euclidean => {
                if result.euclidean_reset {
                    state.euclidean = result.euclidean_accumulator;
                }
            }
            KnnMetric::Cosine => {
                if result.angular_reset {
                    state.dot = result.angular_dot_product;
                    state.norm_sq = result.angular_norm;
                }
            }
        }
    }

    fn finish(&mut self, _item: usize, state: &mut DistanceWork) -> f32 {
        match self.metric {
            KnnMetric::Euclidean => state.euclidean,
            KnnMetric::Cosine => {
                let candidate_norm = state.norm_sq.sqrt();
                if self.query_norm == 0.0 || candidate_norm == 0.0 {
                    1.0
                } else {
                    1.0 - state.dot / (self.query_norm * candidate_norm)
                }
            }
        }
    }
}

/// A candidate-scoring stream packaged for **fused** scheduling: squared-Euclidean or cosine
/// distances of `candidates` to `query`, runnable side by side with traversal and collection
/// streams in the shared passes of a [`FusedScheduler`](crate::FusedScheduler).
///
/// Distances and [`KnnStats`] are bit-identical to [`KnnEngine::distances`] over the same
/// candidate slice (each candidate's beat train stays contiguous inside the stream's pass
/// segment, so the shared accumulator semantics are untouched by fusion).
///
/// Unlike [`KnnEngine::distances`], a fused stream does **not** chunk its candidate set: every
/// candidate's beat train lands in the first shared pass, so the pass buffer scales with
/// `candidates × ceil(dim / lanes)` beats.  Each is a 16-byte descriptor naming its candidate
/// and chunk (the kernel reads both vectors in place), so 65 536 beats take 1 MiB.  Callers
/// fusing very large scoring workloads should split the candidate slice into several streams
/// (or several fused runs) themselves.
#[derive(Debug)]
pub struct DistanceStream<'a, C: AsRef<[f32]>> {
    runner: StreamRunner<DistanceQuery<'a, C>>,
}

impl<'a, C: AsRef<[f32]>> DistanceStream<'a, C> {
    /// A distance-scoring stream of every candidate against `query` under `metric`.
    #[must_use]
    pub fn new(query: &'a [f32], candidates: &'a [C], metric: KnnMetric) -> Self {
        DistanceStream {
            runner: StreamRunner::new(DistanceQuery::new(query, candidates, metric)),
        }
    }

    /// One distance per candidate (in candidate order) plus the stream's statistics, after a
    /// fused run completed.
    ///
    /// # Panics
    ///
    /// Panics if the stream was never run to completion.
    #[must_use]
    pub fn finish(self) -> (Vec<f32>, KnnStats) {
        let (query, distances) = self.runner.finish();
        (distances, query.stats)
    }
}

crate::query::delegate_fused_stream_to_runner!([C: AsRef<[f32]>] DistanceStream<'_, C>);

/// A k-nearest-neighbour engine that streams candidate vectors through the extended RayFlex
/// datapath, exactly as the hierarchical-search accelerators the paper cites would: each
/// candidate is consumed in 16-lane (Euclidean) or 8-lane (cosine) beats with the accumulator
/// reset asserted on the last beat, and any number of unrelated beats may be interleaved between
/// two candidates.  All candidate scoring runs through the generic batched query engine.
#[derive(Debug)]
pub struct KnnEngine {
    /// The RT unit every policy entry point scores on (the hierarchical search filters on it
    /// too); its distance arena is recycled across chunks and calls.
    pub(crate) device: Device,
    stats: KnnStats,
    /// Work-stealing pool counters accumulated across parallel scoring runs (scheduling
    /// artefacts, kept apart from the mode-invariant [`KnnStats`]).
    pool: crate::parallel::PoolStats,
}

impl KnnEngine {
    /// Creates an engine over an extended-unified datapath.
    #[must_use]
    pub fn new() -> Self {
        Self::with_config(PipelineConfig::extended_unified())
    }

    /// Creates an engine over a datapath of the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not support the distance operations.
    #[must_use]
    pub fn with_config(config: PipelineConfig) -> Self {
        assert!(
            config.supports(Opcode::Euclidean),
            "k-nearest-neighbour search needs the extended datapath"
        );
        KnnEngine {
            device: Device::new(config),
            stats: KnnStats::default(),
            pool: crate::parallel::PoolStats::default(),
        }
    }

    /// The accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> KnnStats {
        self.stats
    }

    /// Work-stealing pool counters accumulated across every parallel scoring run.  Unlike
    /// [`KnnEngine::stats`] these are **not** mode-invariant: steal counts depend on runtime
    /// scheduling, and non-parallel modes leave them untouched.
    #[must_use]
    pub fn pool_stats(&self) -> crate::parallel::PoolStats {
        self.pool
    }

    /// The datapath configuration this engine drives.
    #[must_use]
    pub fn config(&self) -> &PipelineConfig {
        self.device.datapath.config()
    }

    /// Per-opcode breakdown of every beat this engine's datapath has executed (the
    /// hierarchical-search frontend mixes ray–box filter beats with distance beats on this one
    /// unit).
    #[must_use]
    pub fn beat_mix(&self) -> BeatMix {
        self.device.datapath.beat_mix()
    }

    /// Upper bound on the beats a single scheduler pass materialises while scoring candidates.
    /// Scoring runs chunk the candidate set so the reusable pass buffers stay bounded no
    /// matter how large the dataset is (a candidate's own beat train is never split, so results
    /// stay bit-identical to an unchunked run).
    const MAX_BEATS_PER_PASS: usize = 1 << 16;

    /// Minimum candidates a parallel shard must carry before an extra worker pays for itself
    /// (scoring a candidate is a handful of beats, so small sets run inline).
    const MIN_CANDIDATES_PER_SHARD: usize = 64;

    /// Scores every candidate against `query` under the chosen metric — **the** Distance-kind
    /// entry point, dispatched by the execution policy:
    ///
    /// * [`ExecMode::ScalarReference`] — every beat executes one at a time through the
    ///   register-accurate emulated path (the streams' round-robin reference discipline);
    /// * [`ExecMode::Wavefront`] — candidates share bulk datapath dispatches;
    /// * [`ExecMode::Fused`] — the same bulk passes, honouring the policy's beat budget;
    /// * [`ExecMode::Parallel`] — the candidate set shards contiguously across workers, each
    ///   keeping one warm datapath for every shard it scores.
    ///
    /// Single-threaded modes chunk the candidate set so no pass materialises more than
    /// `MAX_BEATS_PER_PASS` (65536) beats — memory stays flat for arbitrarily large datasets,
    /// and a candidate's own beat train is never split, so chunking never changes a bit.
    /// Returns one distance per candidate, in candidate order; distances and [`KnnStats`] are
    /// bit-identical across every mode (pinned by `rtunit/tests/proptest_policy.rs`).
    ///
    /// # Panics
    ///
    /// Panics if any candidate has a different dimension from the query.
    pub fn distances<C: AsRef<[f32]> + Sync>(
        &mut self,
        query: &[f32],
        candidates: &[C],
        metric: KnnMetric,
        policy: &ExecPolicy,
    ) -> Vec<f32> {
        self.run_distances(query, candidates, metric, policy, 0).0
    }

    /// The one scoring run behind every Distance-kind entry point: scores `candidates` as
    /// `policy` says, capped at `cap` beats (`0` = uncapped), and returns the distances of the
    /// completed candidate prefix with the run's progress.
    ///
    /// Only an uncapped [`ExecMode::Parallel`] run shards: contiguous candidate shards, each
    /// scored under the caller's policy on the device its pool worker keeps for every shard it
    /// takes, shard statistics merged into this engine's totals.  Candidates are independent,
    /// so shard boundaries never change a bit.  A capped run — cooperative cancellation is a
    /// single-unit discipline — and a request too small to shard score inline on this engine's
    /// device.  Crate-visible so the hierarchical search can score under a shared deadline
    /// without re-validating per query.
    pub(crate) fn run_distances<C: AsRef<[f32]> + Sync>(
        &mut self,
        query: &[f32],
        candidates: &[C],
        metric: KnnMetric,
        policy: &ExecPolicy,
        cap: u64,
    ) -> (Vec<f32>, CappedFusedRun) {
        if let (0, ExecMode::Parallel { shards }) = (cap, policy.mode) {
            let sharded = crate::parallel::shard_chunks(
                *self.config(),
                candidates,
                shards.requested_threads(),
                Self::MIN_CANDIDATES_PER_SHARD,
                |device, shard| device.score(query, shard, metric, policy, 0),
            );
            if let Some((shards, pool)) = sharded {
                self.pool.merge(&pool);
                let before = self.stats.beats;
                let mut results = Vec::with_capacity(candidates.len());
                for (shard_distances, shard_stats, _) in shards {
                    results.extend(shard_distances);
                    self.stats.merge(&shard_stats);
                }
                let beats = self.stats.beats - before;
                return (
                    results,
                    CappedFusedRun {
                        beats,
                        complete: true,
                    },
                );
            }
        }
        let (distances, stats, progress) =
            self.device.score(query, candidates, metric, policy, cap);
        self.stats.merge(&stats);
        (distances, progress)
    }

    /// Squared Euclidean distance between two vectors of arbitrary equal dimension, computed on
    /// the datapath (a one-candidate batched query).
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different dimensions.
    pub fn euclidean_distance_squared(&mut self, a: &[f32], b: &[f32]) -> f32 {
        self.distances(a, &[b], KnnMetric::Euclidean, &ExecPolicy::wavefront())[0]
    }

    /// Cosine distance (`1 - cosine similarity`) between two vectors of arbitrary equal
    /// dimension, computed on the datapath (a one-candidate batched query).  Returns 1.0 when
    /// either vector has zero norm.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different dimensions.
    pub fn cosine_distance(&mut self, a: &[f32], b: &[f32]) -> f32 {
        self.distances(a, &[b], KnnMetric::Cosine, &ExecPolicy::wavefront())[0]
    }

    /// Finds the `k` nearest dataset vectors to `query` under the chosen metric, sorted from
    /// nearest to farthest (ties broken by index) — **the** kNN entry point.  The whole dataset
    /// is scored through [`KnnEngine::distances`] under the given policy, and the winners are
    /// picked by the **bounded on-engine top-k** ([`select_k_nearest`]) built on the paper's
    /// quad-sort substrate — no full CPU sort of all scored candidates.  Neighbours and
    /// [`KnnStats`] are bit-identical across every [`ExecMode`].
    ///
    /// # Panics
    ///
    /// Panics if any dataset vector has a different dimension from the query.
    pub fn k_nearest(
        &mut self,
        query: &[f32],
        dataset: &[Vec<f32>],
        k: usize,
        metric: KnnMetric,
        policy: &ExecPolicy,
    ) -> Vec<Neighbor> {
        let distances = self.distances(query, dataset, metric, policy);
        select_k_nearest(&distances, k)
    }

    /// Finds the `k` triangles of `scene` whose **world-space centroids** are nearest to
    /// `query` (squared-Euclidean, scored on the datapath) — the [`Scene`]-boundary entry
    /// point, with neighbour indices being the scene's global primitive ids.
    ///
    /// Instanced scenes score their placed centroids ([`Scene::centroids`]), so the result is
    /// identical for a scene and its [`Scene::flatten`]ed form.
    pub fn k_nearest_in_scene(
        &mut self,
        query: rayflex_geometry::Vec3,
        scene: &Scene,
        k: usize,
        policy: &ExecPolicy,
    ) -> Vec<Neighbor> {
        let centroids: Vec<[f32; 3]> = scene.centroids().iter().map(|c| [c.x, c.y, c.z]).collect();
        let distances = self.distances(
            &[query.x, query.y, query.z],
            &centroids,
            KnnMetric::Euclidean,
            policy,
        );
        select_k_nearest(&distances, k)
    }

    /// Scores every candidate with up-front validation and deadline-aware cancellation — the
    /// `Result`-returning variant of [`KnnEngine::distances`].
    ///
    /// Dimension mismatches and non-finite vectors surface as
    /// [`QueryError::InvalidRequest`] instead of a panic, before any beat is issued.
    /// [`KnnEngine::distances`] is this same run at cap 0, so without a deadline the outcome is
    /// [`QueryOutcome::Complete`] and bit-identical to it.  With [`ExecPolicy::max_total_beats`] set, the run cancels
    /// cooperatively at a pass boundary and yields the completed candidate **prefix** as
    /// [`QueryOutcome::Partial`] (each surfaced distance bit-identical to the uncapped run), or
    /// [`QueryError::BudgetExhausted`] when not even one candidate finished.  Capped runs
    /// score inline on this engine's own datapath in every mode —
    /// cooperative cancellation is a single-unit admission discipline, so
    /// [`ExecMode::Parallel`] does not shard under a deadline.
    ///
    /// # Errors
    ///
    /// [`QueryError::InvalidRequest`] or [`QueryError::BudgetExhausted`], as above.
    pub fn try_distances<C: AsRef<[f32]> + Sync>(
        &mut self,
        query: &[f32],
        candidates: &[C],
        metric: KnnMetric,
        policy: &ExecPolicy,
    ) -> Result<QueryOutcome<Vec<f32>>, QueryError> {
        validate_vectors(query, candidates)?;
        let cap = policy.max_total_beats;
        let (distances, run) = self.run_distances(query, candidates, metric, policy, cap);
        let completed = distances.len();
        QueryOutcome::from_run(
            distances,
            completed,
            candidates.len(),
            run,
            cap,
            self.beat_mix(),
        )
    }

    /// Finds the `k` nearest neighbours with up-front validation and deadline-aware
    /// cancellation — the `Result`-returning variant of [`KnnEngine::k_nearest`].
    ///
    /// A top-k set is a **global reduction**: a winner may hide anywhere in the dataset, so a
    /// partially-scored prefix has no meaningful "completed" subset and a deadline that fires
    /// surfaces as [`QueryError::DeadlineExceeded`] rather than a silently wrong neighbour
    /// list.  `k == 0` is a valid request and returns an empty list.
    ///
    /// # Errors
    ///
    /// [`QueryError::InvalidRequest`], [`QueryError::DeadlineExceeded`] or
    /// [`QueryError::BudgetExhausted`], as above.
    pub fn try_k_nearest(
        &mut self,
        query: &[f32],
        dataset: &[Vec<f32>],
        k: usize,
        metric: KnnMetric,
        policy: &ExecPolicy,
    ) -> Result<Vec<Neighbor>, QueryError> {
        match self.try_distances(query, dataset, metric, policy)? {
            QueryOutcome::Complete(distances) => Ok(select_k_nearest(&distances, k)),
            QueryOutcome::Partial(partial) => Err(QueryError::DeadlineExceeded {
                beats_spent: partial.beats_spent,
                max_total_beats: policy.max_total_beats,
            }),
        }
    }
}

impl Device {
    /// Scores `candidates` inline on this device at the policy's lane width, dispatched as
    /// `policy` says ([`FusedScheduler::run_policy`](crate::FusedScheduler::run_policy)), with
    /// what is left of the `cap` threaded through the runs.  Returns the distances of the
    /// completed candidate prefix, the run's statistics and its progress.  The candidate set is
    /// chunked so no pass materialises more than `MAX_BEATS_PER_PASS` beats; a candidate's own
    /// beat train is never split, so chunking never changes a bit.
    pub(crate) fn score<C: AsRef<[f32]>>(
        &mut self,
        query: &[f32],
        candidates: &[C],
        metric: KnnMetric,
        policy: &ExecPolicy,
        cap: u64,
    ) -> (Vec<f32>, KnnStats, CappedFusedRun) {
        let lanes = match metric {
            KnnMetric::Euclidean => EUCLIDEAN_LANES,
            KnnMetric::Cosine => COSINE_LANES,
        };
        let chunk_len = (KnnEngine::MAX_BEATS_PER_PASS / query.len().div_ceil(lanes).max(1)).max(1);
        self.datapath.set_simd_lanes(policy.effective_simd_lanes());
        let mut results = Vec::with_capacity(candidates.len());
        let mut stats = KnnStats::default();
        let mut progress = CappedFusedRun {
            beats: 0,
            complete: true,
        };
        for chunk in candidates.chunks(chunk_len) {
            let Some(remaining) = remaining_beats(cap, progress.beats) else {
                progress.complete = false;
                break;
            };
            let mut runner = StreamRunner::with_arena(
                DistanceQuery::new(query, chunk, metric),
                core::mem::take(&mut self.distance),
            );
            let run = self.scheduler.run_policy(
                &mut self.datapath,
                &mut [&mut runner],
                policy,
                remaining,
            );
            let (batch, distances, arena) = runner.into_parts();
            self.distance = arena;
            stats.merge(&batch.stats);
            results.extend(distances);
            progress.beats += run.beats;
            if !run.complete {
                progress.complete = false;
                break;
            }
        }
        (results, stats, progress)
    }
}

/// Validates a distance request before a `try_*` run accepts it: the query vector and every
/// candidate must be finite, and every candidate must share the query's dimension (the plain
/// entry points panic on a mismatch mid-run; the `try_*` ones reject it up front).
fn validate_vectors<C: AsRef<[f32]>>(query: &[f32], candidates: &[C]) -> Result<(), QueryError> {
    if !query.iter().all(|x| x.is_finite()) {
        return Err(QueryError::InvalidRequest {
            reason: "query vector has a non-finite component".to_owned(),
        });
    }
    for (index, candidate) in candidates.iter().enumerate() {
        let candidate = candidate.as_ref();
        if candidate.len() != query.len() {
            return Err(QueryError::InvalidRequest {
                reason: format!(
                    "candidate {index} has dimension {} but the query has {}",
                    candidate.len(),
                    query.len()
                ),
            });
        }
        if !candidate.iter().all(|x| x.is_finite()) {
            return Err(QueryError::InvalidRequest {
                reason: format!("candidate {index} has a non-finite component"),
            });
        }
    }
    Ok(())
}

/// Bounded top-k selection over a scored distance slice: returns the `k` nearest candidates
/// sorted from nearest to farthest (ties broken by index), identical to sorting the whole slice
/// by `(distance, index)` and truncating — but in O(n log k) without materialising that sort.
///
/// A `NaN` distance marks an unordered candidate (a non-finite reduction); NaN candidates are
/// treated as infinitely far and are **never selected**, exactly like a missed child in the
/// hardware sorter (whose key is forced to +∞).
///
/// Candidates are consumed four at a time through the quad-sort network
/// ([`rayflex_core::quad_sort::sort_four_f32`], the five-comparator sorter the datapath's
/// ray–box operation uses), so each quad arrives in visit order and the scan of a quad stops at
/// the first candidate that cannot enter the running top-k — the software shape of folding the
/// selection into the distance query's finish path on the quad-sort substrate.  Once the top-k
/// is full, a quad with no lane strictly below the current worst distance is rejected without
/// sorting: every candidate already held has a smaller index, so a tie with the worst loses
/// and no lane of the quad could enter.
#[must_use]
pub fn select_k_nearest(distances: &[f32], k: usize) -> Vec<Neighbor> {
    let mut best: Vec<Neighbor> = Vec::with_capacity(k.min(distances.len()).saturating_add(1));
    if k == 0 {
        return best;
    }
    for (quad, chunk) in distances.chunks(4).enumerate() {
        if best.len() == k {
            let worst = best[k - 1].distance;
            // NaN lanes compare false, so they never keep a quad alive.
            if !chunk.iter().any(|&d| d < worst) {
                continue;
            }
        }
        let mut keys = [0.0f32; 4];
        let mut valid = [false; 4];
        keys[..chunk.len()].copy_from_slice(chunk);
        for (lane, &key) in chunk.iter().enumerate() {
            // NaN lanes stay invalid: like a hardware miss they sort last and never select.
            valid[lane] = !key.is_nan();
        }
        // The quad-sort network yields this quad's candidates nearest-first (equal keys keep
        // index order), so the first one that fails to displace the current worst ends the quad.
        for &slot in &quad_sort::sort_four_f32(&valid, &keys) {
            let slot = usize::from(slot);
            if !valid[slot] {
                // An invalid lane (padding or NaN) carries the +inf miss key, which TIES with a
                // genuine +inf distance — and ties keep original lane order — so a valid lane
                // may still follow.  Skip, don't break.
                continue;
            }
            let candidate = Neighbor {
                index: quad * 4 + slot,
                distance: keys[slot],
            };
            if best.len() == k {
                let worst = best[k - 1];
                if candidate.distance > worst.distance
                    || (candidate.distance == worst.distance && candidate.index > worst.index)
                {
                    break;
                }
            }
            let position = best.partition_point(|n| {
                n.distance < candidate.distance
                    || (n.distance == candidate.distance && n.index < candidate.index)
            });
            best.insert(position, candidate);
            best.truncate(k);
        }
    }
    best
}

/// Sorts neighbours nearest first, ties (and unordered `NaN` distances) broken by index — the
/// `(distance, index)` order every sorted neighbour list uses.
pub(crate) fn sort_nearest_first(neighbors: &mut [Neighbor]) {
    neighbors.sort_by(|a, b| {
        a.distance
            .partial_cmp(&b.distance)
            .unwrap_or(core::cmp::Ordering::Equal)
            .then(a.index.cmp(&b.index))
    });
}

impl Default for KnnEngine {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayflex_core::RayFlexDatapath;
    use rayflex_geometry::golden;

    fn dataset(dim: usize, count: usize) -> Vec<Vec<f32>> {
        (0..count)
            .map(|i| {
                (0..dim)
                    .map(|d| ((i * 31 + d * 7) % 17) as f32 * 0.25 - 2.0)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn euclidean_distances_match_the_golden_model_for_any_dimension() {
        let mut engine = KnnEngine::new();
        for dim in [1usize, 3, 16, 17, 40, 64] {
            let data = dataset(dim, 4);
            let d = engine.euclidean_distance_squared(&data[0], &data[1]);
            let gold = golden::distance::euclidean_distance_squared(&data[0], &data[1]);
            assert_eq!(d.to_bits(), gold.to_bits(), "dim {dim}");
        }
        assert!(engine.stats().beats > 0);
    }

    #[test]
    fn batched_distances_match_single_pair_calls() {
        // Batching candidates (multi-beat trains adjacent in one bulk pass) must not change a
        // single bit of any reduction, even when every candidate needs several beats.
        for dim in [3usize, 16, 33] {
            let data = dataset(dim, 12);
            let query = data[0].clone();
            let mut batched = KnnEngine::new();
            let distances = batched.distances(
                &query,
                &data,
                KnnMetric::Euclidean,
                &ExecPolicy::wavefront(),
            );
            let mut single = KnnEngine::new();
            for (i, (candidate, got)) in data.iter().zip(&distances).enumerate() {
                let expected = single.euclidean_distance_squared(&query, candidate);
                assert_eq!(expected.to_bits(), got.to_bits(), "dim {dim} candidate {i}");
            }
            assert_eq!(batched.stats(), single.stats(), "identical beat accounting");
        }
    }

    #[test]
    fn chunked_scoring_of_large_high_dimensional_datasets_stays_exact() {
        // 70 candidates x 1024 beats each crosses MAX_BEATS_PER_PASS (65536), so the run chunks;
        // chunk boundaries must not change a bit of any reduction.
        let dim = EUCLIDEAN_LANES * 1024;
        let count = 70;
        let candidates: Vec<Vec<f32>> = (0..count)
            .map(|i| {
                (0..dim)
                    .map(|d| ((i * 13 + d) % 29) as f32 * 0.125 - 1.5)
                    .collect()
            })
            .collect();
        let query: Vec<f32> = (0..dim).map(|d| (d % 7) as f32 * 0.5 - 1.0).collect();
        let mut engine = KnnEngine::new();
        let distances = engine.distances(
            &query,
            &candidates,
            KnnMetric::Euclidean,
            &ExecPolicy::wavefront(),
        );
        assert_eq!(distances.len(), count);
        for (i, (candidate, got)) in candidates.iter().zip(&distances).enumerate() {
            let gold = golden::distance::euclidean_distance_squared(&query, candidate);
            assert_eq!(got.to_bits(), gold.to_bits(), "candidate {i}");
        }
        assert_eq!(engine.stats().candidates, count as u64);
        assert_eq!(engine.stats().beats, (count * 1024) as u64);
    }

    #[test]
    fn cosine_distance_matches_a_software_reference() {
        let mut engine = KnnEngine::new();
        for dim in [2usize, 8, 9, 24] {
            let data = dataset(dim, 4);
            let got = engine.cosine_distance(&data[2], &data[3]);
            let dot: f32 = data[2].iter().zip(&data[3]).map(|(a, b)| a * b).sum();
            let na: f32 = data[2].iter().map(|x| x * x).sum::<f32>().sqrt();
            let nb: f32 = data[3].iter().map(|x| x * x).sum::<f32>().sqrt();
            let expect = 1.0 - dot / (na * nb);
            assert!((got - expect).abs() < 1e-4, "dim {dim}: {got} vs {expect}");
        }
    }

    #[test]
    fn k_nearest_matches_brute_force_ordering() {
        let data = dataset(24, 50);
        let query = data[7].clone();
        let mut engine = KnnEngine::new();
        let neighbors = engine.k_nearest(
            &query,
            &data,
            5,
            KnnMetric::Euclidean,
            &ExecPolicy::wavefront(),
        );
        assert_eq!(neighbors.len(), 5);
        // The query itself is in the dataset, so the nearest neighbour is itself at distance 0.
        assert_eq!(neighbors[0].index, 7);
        assert_eq!(neighbors[0].distance, 0.0);
        // Distances are non-decreasing.
        for pair in neighbors.windows(2) {
            assert!(pair[0].distance <= pair[1].distance);
        }
        // Compare against a full software sort.
        let mut reference: Vec<(usize, f32)> = data
            .iter()
            .enumerate()
            .map(|(i, v)| (i, golden::distance::euclidean_distance_squared(&query, v)))
            .collect();
        reference.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
        for (n, (ri, rd)) in neighbors.iter().zip(reference.iter()) {
            assert_eq!(n.index, *ri);
            assert_eq!(n.distance.to_bits(), rd.to_bits());
        }
        // The whole dataset was scored in one batched run, all through distance beats.
        assert_eq!(engine.stats().candidates, 50);
        assert_eq!(
            engine.beat_mix().count(Opcode::Euclidean),
            engine.stats().beats
        );
    }

    /// The pre-top-k reference: sort *all* scored candidates by `(distance, index)`.
    fn full_sort_reference(distances: &[f32], k: usize) -> Vec<Neighbor> {
        let mut scored: Vec<Neighbor> = distances
            .iter()
            .enumerate()
            .map(|(index, &distance)| Neighbor { index, distance })
            .collect();
        sort_nearest_first(&mut scored);
        scored.truncate(k);
        scored
    }

    #[test]
    fn bounded_top_k_matches_the_full_sort_path() {
        // Distances with plenty of duplicates so the index tie-breaking is exercised, across
        // every interesting k (0, 1, mid, n-1, n, > n) and slice lengths off the quad boundary.
        for count in [0usize, 1, 3, 4, 5, 17, 64, 101] {
            let distances: Vec<f32> = (0..count)
                .map(|i| ((i * 7 + 3) % 13) as f32 * 0.5)
                .collect();
            for k in [0usize, 1, 2, count.saturating_sub(1), count, count + 5] {
                let got = select_k_nearest(&distances, k);
                let expected = full_sort_reference(&distances, k);
                assert_eq!(got.len(), expected.len(), "count {count}, k {k}");
                for (g, e) in got.iter().zip(&expected) {
                    assert_eq!(g.index, e.index, "count {count}, k {k}");
                    assert_eq!(
                        g.distance.to_bits(),
                        e.distance.to_bits(),
                        "count {count}, k {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn nan_distances_are_never_selected_by_the_bounded_top_k() {
        let distances = [3.0f32, f32::NAN, 1.0, f32::NAN, 2.0, 4.0];
        let got = select_k_nearest(&distances, 4);
        let indices: Vec<usize> = got.iter().map(|n| n.index).collect();
        assert_eq!(indices, vec![2, 4, 0, 5], "NaN candidates sort as +inf");
        assert!(got.iter().all(|n| !n.distance.is_nan()));
        // Even when k exceeds the finite candidate count, NaN never enters the result.
        assert_eq!(select_k_nearest(&distances, 6).len(), 4);
        assert!(select_k_nearest(&[f32::NAN; 3], 2).is_empty());
        // A genuine +inf distance ties with a NaN lane's miss key inside the quad-sort network;
        // it must still be selected (regression test: the NaN lane used to end the quad scan).
        let infinity_after_nan = select_k_nearest(&[f32::NAN, f32::INFINITY], 1);
        assert_eq!(infinity_after_nan.len(), 1);
        assert_eq!(infinity_after_nan[0].index, 1);
        assert_eq!(infinity_after_nan[0].distance, f32::INFINITY);
    }

    #[test]
    fn k_nearest_equals_the_full_sort_of_its_own_distances() {
        let data = dataset(24, 75);
        let query = data[11].clone();
        let mut engine = KnnEngine::new();
        let neighbors = engine.k_nearest(
            &query,
            &data,
            9,
            KnnMetric::Euclidean,
            &ExecPolicy::wavefront(),
        );
        let distances = KnnEngine::new().distances(
            &query,
            &data,
            KnnMetric::Euclidean,
            &ExecPolicy::wavefront(),
        );
        assert_eq!(neighbors, full_sort_reference(&distances, 9));
    }

    #[test]
    fn sharded_parallel_scoring_matches_wavefront_above_the_shard_floor() {
        // More than two full shards of candidates force real worker sharding (the matrix
        // proptest stays below MIN_CANDIDATES_PER_SHARD and only exercises the inline
        // fallback), pinning the spawn path's result order and merged statistics.
        let data = dataset(17, 2 * KnnEngine::MIN_CANDIDATES_PER_SHARD + 5);
        let query = data[3].clone();
        let mut wavefront = KnnEngine::new();
        let expected = wavefront.distances(
            &query,
            &data,
            KnnMetric::Euclidean,
            &ExecPolicy::wavefront(),
        );
        for threads in [2usize, 3, 8] {
            let mut parallel = KnnEngine::new();
            let got = parallel.distances(
                &query,
                &data,
                KnnMetric::Euclidean,
                &ExecPolicy::parallel(threads),
            );
            for (i, (e, g)) in expected.iter().zip(&got).enumerate() {
                assert_eq!(e.to_bits(), g.to_bits(), "threads {threads} candidate {i}");
            }
            assert_eq!(parallel.stats(), wavefront.stats(), "threads {threads}");
        }
    }

    #[test]
    fn fused_distance_streams_match_engine_scoring() {
        use crate::query::FusedScheduler;

        let data = dataset(19, 14);
        let query = data[2].clone();
        let mut engine = KnnEngine::new();
        let expected = engine.distances(
            &query,
            &data,
            KnnMetric::Euclidean,
            &ExecPolicy::wavefront(),
        );

        let mut datapath = RayFlexDatapath::new(PipelineConfig::extended_unified());
        let mut stream = DistanceStream::new(&query, &data, KnnMetric::Euclidean);
        let mut fused = FusedScheduler::new();
        fused.run(&mut datapath, &mut [&mut stream]);
        let (distances, stats) = stream.finish();
        for (i, (e, g)) in expected.iter().zip(&distances).enumerate() {
            assert_eq!(e.to_bits(), g.to_bits(), "candidate {i}");
        }
        assert_eq!(stats, engine.stats());
        assert_eq!(
            datapath.beat_mix().kind_total(QueryKind::Distance),
            stats.beats
        );
    }

    #[test]
    fn cosine_metric_prefers_aligned_vectors() {
        let dataset = vec![
            vec![1.0, 0.0, 0.0, 0.0],
            vec![10.0, 0.1, 0.0, 0.0],
            vec![0.0, 1.0, 0.0, 0.0],
            vec![-1.0, 0.0, 0.0, 0.0],
        ];
        let query = vec![2.0, 0.0, 0.0, 0.0];
        let mut engine = KnnEngine::new();
        let neighbors = engine.k_nearest(
            &query,
            &dataset,
            4,
            KnnMetric::Cosine,
            &ExecPolicy::wavefront(),
        );
        assert_eq!(neighbors[0].index, 0, "exactly aligned vector is nearest");
        assert_eq!(neighbors[3].index, 3, "opposite vector is farthest");
    }

    #[test]
    #[should_panic(expected = "extended datapath")]
    fn baseline_configurations_are_rejected() {
        let _ = KnnEngine::with_config(PipelineConfig::baseline_unified());
    }

    #[test]
    fn zero_norm_candidates_get_maximum_cosine_distance() {
        let mut engine = KnnEngine::new();
        let d = engine.cosine_distance(&[1.0, 2.0], &[0.0, 0.0]);
        assert_eq!(d, 1.0);
    }

    #[test]
    #[should_panic(expected = "vector dimensions must match")]
    fn mismatched_dimensions_are_rejected() {
        let mut engine = KnnEngine::new();
        let _ = engine.euclidean_distance_squared(&[1.0, 2.0], &[1.0]);
    }

    #[test]
    fn try_distances_rejects_bad_vectors_before_any_beat() {
        let mut engine = KnnEngine::new();
        let policy = ExecPolicy::wavefront();
        type Case<'a> = (&'a [f32], Vec<Vec<f32>>, &'a str);
        let cases: [Case; 3] = [
            (&[1.0, f32::NAN], vec![vec![0.0, 1.0]], "query"),
            (&[1.0, 2.0], vec![vec![0.0]], "dimension"),
            (&[1.0, 2.0], vec![vec![0.0, f32::INFINITY]], "candidate 0"),
        ];
        for (query, candidates, needle) in cases {
            let err = engine
                .try_distances(query, &candidates, KnnMetric::Euclidean, &policy)
                .unwrap_err();
            let QueryError::InvalidRequest { reason } = &err else {
                panic!("expected InvalidRequest, got {err}");
            };
            assert!(reason.contains(needle), "{reason}");
        }
        assert_eq!(
            engine.stats(),
            KnnStats::default(),
            "rejected requests must not issue a single beat"
        );
    }

    #[test]
    fn try_distances_without_a_deadline_matches_distances_in_every_mode() {
        let data = dataset(17, 20);
        let query = data[5].clone();
        let policies = [
            ExecPolicy::scalar(),
            ExecPolicy::wavefront(),
            ExecPolicy::parallel(2),
            ExecPolicy::fused(),
            ExecPolicy::fused().with_beat_budget(3),
        ];
        for policy in policies {
            let expected = KnnEngine::new().distances(&query, &data, KnnMetric::Euclidean, &policy);
            let mut engine = KnnEngine::new();
            let outcome = engine
                .try_distances(&query, &data, KnnMetric::Euclidean, &policy)
                .unwrap();
            assert!(outcome.is_complete(), "{}", policy.mode);
            for (i, (e, g)) in expected.iter().zip(outcome.output()).enumerate() {
                assert_eq!(e.to_bits(), g.to_bits(), "{} candidate {i}", policy.mode);
            }
        }
    }

    #[test]
    fn a_capped_distance_run_returns_a_bit_identical_completed_prefix() {
        // dim 8 = one Euclidean beat per candidate; a fused beat budget of 4 admits 4 candidates
        // per shared pass, and a candidate retires on its *next* build call.  A 10-beat deadline
        // cancels at the boundary after the third pass (12 beats spent), when exactly the first
        // 8 candidates have retired.
        let data = dataset(8, 20);
        let query = data[0].clone();
        let uncapped = KnnEngine::new().distances(
            &query,
            &data,
            KnnMetric::Euclidean,
            &ExecPolicy::wavefront(),
        );

        let capped_policy = ExecPolicy::fused()
            .with_beat_budget(4)
            .with_max_total_beats(10);
        let mut engine = KnnEngine::new();
        let outcome = engine
            .try_distances(&query, &data, KnnMetric::Euclidean, &capped_policy)
            .unwrap();
        let partial = outcome.partial().expect("the deadline must fire");
        assert_eq!(partial.completed, 8);
        assert_eq!(partial.total, 20);
        assert_eq!(partial.output.len(), 8);
        assert_eq!(
            partial.beats_spent, 12,
            "cancellation overshoots by the pass in flight"
        );
        for (i, (e, g)) in uncapped.iter().zip(&partial.output).enumerate() {
            assert_eq!(e.to_bits(), g.to_bits(), "prefix candidate {i}");
        }

        let generous = ExecPolicy::fused()
            .with_beat_budget(4)
            .with_max_total_beats(u64::MAX);
        let outcome = KnnEngine::new()
            .try_distances(&query, &data, KnnMetric::Euclidean, &generous)
            .unwrap();
        assert!(outcome.is_complete());
        for (e, g) in uncapped.iter().zip(outcome.output()) {
            assert_eq!(e.to_bits(), g.to_bits());
        }
    }

    #[test]
    fn try_k_nearest_surfaces_deadlines_as_typed_errors() {
        let data = dataset(8, 20);
        let query = data[3].clone();
        let expected = KnnEngine::new().k_nearest(
            &query,
            &data,
            4,
            KnnMetric::Euclidean,
            &ExecPolicy::wavefront(),
        );
        let got = KnnEngine::new()
            .try_k_nearest(
                &query,
                &data,
                4,
                KnnMetric::Euclidean,
                &ExecPolicy::wavefront(),
            )
            .unwrap();
        assert_eq!(got, expected);

        // A top-k over a partial score set would be silently wrong, so a fired deadline is an
        // error for this global reduction.
        let capped = ExecPolicy::fused()
            .with_beat_budget(4)
            .with_max_total_beats(10);
        let err = KnnEngine::new()
            .try_k_nearest(&query, &data, 4, KnnMetric::Euclidean, &capped)
            .unwrap_err();
        assert!(
            matches!(
                err,
                QueryError::DeadlineExceeded {
                    max_total_beats: 10,
                    ..
                }
            ),
            "{err}"
        );
    }
}
