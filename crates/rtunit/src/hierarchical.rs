//! Hierarchical (BVH-filtered) neighbour search: the workload shape that motivates the extended
//! RT unit (paper §V-A).
//!
//! The RT-accelerated search systems the paper cites (RTNN, RT-kNNS, Arkade, RT-DBSCAN, …)
//! represent the dataset as tiny spheres grouped into a BVH and express a query as a short ray:
//! the fixed-function traversal hardware filters the dataset down to the few leaves whose bounds
//! the query can possibly reach, and the candidate points surviving the filter are then scored
//! exactly.  With the extended datapath the exact scoring also runs on the RT unit (Euclidean
//! distance operation) instead of being bounced back to the shader core — that is precisely the
//! functionality whose area/power cost the paper's case study evaluates.
//!
//! [`HierarchicalSearch`] reproduces that pipeline on top of this crate's substrates: a [`Bvh4`]
//! over the dataset spheres, ray–box beats for the hierarchy filter, and Euclidean beats for the
//! exact scoring — so a radius query issues *only* datapath operations.  **Both** phases run
//! through the generic batched query engine: the hierarchy filter is the
//! [`QueryKind::Collect`] state machine (one item per radius query, bulk ray–box passes shared
//! across a whole query batch — no scalar per-beat datapath calls), and the exact scoring is one
//! batched distance run per query.  [`CollectStream`] packages the filter for *fused*
//! scheduling beside unrelated traversal streams (the server's batch executor runs every radius
//! query so), and [`radius_neighbors`] finishes every radius answer.

use rayflex_core::{Opcode, PipelineConfig, RayFlexResponse, RayOperand};
use rayflex_geometry::{Ray, Sphere, Vec3};

use crate::beat::{BeatPass, BeatTables};
use crate::bvh::ChildRef;
use crate::device::Device;
use crate::error::{QueryError, QueryOutcome};
use crate::knn::sort_nearest_first;
use crate::policy::{ExecMode, ExecPolicy};
use crate::query::{remaining_beats, BatchQuery, CappedFusedRun, QueryKind, StreamRunner};
use crate::{Bvh4, KnnEngine, Neighbor};

/// Statistics of one hierarchical query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchicalStats {
    /// Ray–box beats issued while filtering the hierarchy.
    pub box_beats: u64,
    /// Euclidean beats issued while scoring the surviving candidates.
    pub euclidean_beats: u64,
    /// Candidate points that survived the hierarchy filter and were scored exactly.
    pub candidates_scored: u64,
    /// Dataset points in total (for filter-efficiency reporting).
    pub dataset_size: u64,
}

impl HierarchicalStats {
    /// Fraction of the dataset that had to be scored exactly (lower is better filtering).
    #[must_use]
    pub fn scored_fraction(&self) -> f64 {
        if self.dataset_size == 0 {
            0.0
        } else {
            self.candidates_scored as f64 / self.dataset_size as f64
        }
    }

    /// Accumulates another query's counters into this one (`dataset_size` is a property of the
    /// search structure, not a counter, and is left untouched).  Same merge semantics as
    /// [`TraversalStats::merge`](crate::TraversalStats::merge): plain `u64` sums, order-free.
    pub fn merge(&mut self, other: &HierarchicalStats) {
        self.box_beats += other.box_beats;
        self.euclidean_beats += other.euclidean_beats;
        self.candidates_scored += other.candidates_scored;
    }
}

/// Per-query state of a batched candidate-collection run: the inflation radius, the traversal
/// stack and the candidates collected so far.  Pooled by the scheduler.
#[derive(Debug, Default)]
pub struct CollectWork {
    radius: f32,
    stack: Vec<ChildRef>,
    found: Vec<usize>,
}

/// BVH candidate collection as a batched query ([`QueryKind::Collect`]): one item per radius
/// query, each walking the sphere hierarchy with ray–box beats (the paper's
/// query-as-a-short-ray formulation) and gathering every point whose leaf the query reaches.
///
/// The per-query walk order is exactly the old scalar filter's — nodes pop LIFO, hit children
/// push in slot order — so the collected candidate lists are identical; only the dispatch
/// changes, from one `execute` call per beat to bulk passes shared by every query in the batch
/// (and, under a fused run, by unrelated query kinds).
///
/// A beat is a [`BeatPass::push_boxes`] descriptor: the node's radius-inflated child bounds
/// and its tag go in the pass's side table, and the filter ray is the query's entry in the
/// stream's ray operand table.
#[derive(Debug)]
struct CollectQuery<'a> {
    bvh: &'a Bvh4,
    queries: &'a [(Vec3, f32)],
    /// The filter ray of each query, built once per run.
    rays: Vec<RayOperand>,
    box_beats: u64,
}

impl<'a> CollectQuery<'a> {
    fn new(bvh: &'a Bvh4, queries: &'a [(Vec3, f32)]) -> Self {
        let rays = queries.iter().map(|&(query, radius)| {
            // A short ray through the query point along +x with extent [0, 2r], starting at
            // query - (r, 0, 0): exactly the formulation RTNN-style systems use.  Inflating the
            // child bounds by the radius makes the box test conservative in y/z as well.
            RayOperand::from_ray(&Ray::with_extent(
                query - Vec3::new(radius, 0.0, 0.0),
                Vec3::new(1.0, 0.0, 0.0),
                0.0,
                2.0 * radius,
            ))
        });
        CollectQuery {
            bvh,
            queries,
            rays: rays.collect(),
            box_beats: 0,
        }
    }
}

impl BatchQuery for CollectQuery<'_> {
    type State = CollectWork;
    type Output = Vec<usize>;

    fn kind(&self) -> QueryKind {
        QueryKind::Collect
    }

    fn items(&self) -> usize {
        self.queries.len()
    }

    fn reset(&mut self, item: usize, state: &mut CollectWork) {
        state.radius = self.queries[item].1;
        state.stack.clear();
        state.stack.push(self.bvh.root());
        state.found.clear();
    }

    fn build(&mut self, item: usize, state: &mut CollectWork, out: &mut BeatPass) -> bool {
        while let Some(child) = state.stack.pop() {
            let Some(index) = child.node_index() else {
                let points = self.bvh.leaf_primitives(child);
                state
                    .found
                    .extend(points.iter().map(|&point| point as usize));
                continue;
            };
            let node = self.bvh.node(index);
            self.box_beats += 1;
            let radius = state.radius;
            // Absent slots already hold the never-hit point box at +MAX (padded at BVH build
            // time); only occupied slots are inflated by the query radius.
            let boxes = core::array::from_fn(|i| {
                if node.children[i].is_empty() {
                    node.child_bounds[i]
                } else {
                    node.child_bounds[i].inflated(radius)
                }
            });
            out.push_boxes(item, index as u64, boxes);
            return true;
        }
        false
    }

    fn tables(&self) -> BeatTables<'_> {
        BeatTables::new(&[], &[], &self.rays)
    }

    fn apply(&mut self, _item: usize, state: &mut CollectWork, response: &RayFlexResponse) {
        let Some(result) = response.box_result else {
            unreachable!("a collect beat always carries a box result");
        };
        let children = &self.bvh.node(response.tag as usize).children;
        for (slot, &child) in children.iter().enumerate() {
            if result.hit[slot] && !child.is_empty() {
                state.stack.push(child);
            }
        }
    }

    fn finish(&mut self, _item: usize, state: &mut CollectWork) -> Vec<usize> {
        core::mem::take(&mut state.found)
    }
}

/// A candidate-collection stream packaged for **fused** scheduling: BVH filtering of a batch of
/// `(query point, radius)` pairs, runnable side by side with traversal and distance streams in
/// the shared passes of a [`FusedScheduler`](crate::FusedScheduler).
///
/// Per-query candidate lists are identical to [`HierarchicalSearch::radius_query`]'s filter
/// phase over the same sphere hierarchy.
#[derive(Debug)]
pub struct CollectStream<'a> {
    runner: StreamRunner<CollectQuery<'a>>,
}

impl<'a> CollectStream<'a> {
    /// A collection stream of `queries` against a sphere hierarchy.
    #[must_use]
    pub fn new(bvh: &'a Bvh4, queries: &'a [(Vec3, f32)]) -> Self {
        CollectStream {
            runner: StreamRunner::new(CollectQuery::new(bvh, queries)),
        }
    }

    /// One candidate-index list per query of the completed query prefix (every query, if the
    /// run completed) plus the ray–box beats the filter issued, as
    /// [`TraversalStream::finish_partial`](crate::TraversalStream::finish_partial) does.
    ///
    /// # Panics
    ///
    /// Panics if the stream was never run.
    #[must_use]
    pub fn finish(self) -> (Vec<Vec<usize>>, u64) {
        let (query, candidates, _items) = self.runner.finish_partial();
        (candidates, query.box_beats)
    }
}

crate::query::delegate_fused_stream_to_runner!(CollectStream<'_>);

impl Device {
    /// One collection run of `queries` over `bvh` on this device at the policy's lane width and
    /// coherence, dispatched as `policy` says
    /// ([`FusedScheduler::run_policy`](crate::FusedScheduler::run_policy)) and capped at `cap`
    /// beats (`0` = uncapped): the candidate lists of the completed query prefix, the ray–box
    /// beats the filter issued, and the run's progress.  Its `CollectWork` states are recycled
    /// across runs.
    pub(crate) fn collect(
        &mut self,
        bvh: &Bvh4,
        queries: &[(Vec3, f32)],
        policy: &ExecPolicy,
        cap: u64,
    ) -> (Vec<Vec<usize>>, u64, CappedFusedRun) {
        self.datapath.set_simd_lanes(policy.effective_simd_lanes());
        let mut runner = StreamRunner::with_arena(
            CollectQuery::new(bvh, queries),
            core::mem::take(&mut self.collect),
        )
        .with_coherence(policy.effective_coherence());
        let run = self
            .scheduler
            .run_policy(&mut self.datapath, &mut [&mut runner], policy, cap);
        let (collect, candidates, arena) = runner.into_parts();
        self.collect = arena;
        (candidates, collect.box_beats, run)
    }
}

/// A radius / nearest-neighbour search engine over 3-D points, implemented entirely with
/// datapath beats: BVH filtering through the ray–box operation and exact scoring through the
/// Euclidean-distance operation of the extended datapath.
#[derive(Debug)]
pub struct HierarchicalSearch {
    points: Vec<Vec3>,
    bvh: Bvh4,
    /// Scores the surviving candidates; the hierarchy filter runs on its device too.
    scorer: KnnEngine,
    stats: HierarchicalStats,
    /// Work-stealing pool counters of the parallel filter phase (the scoring phase's counters
    /// live on the embedded [`KnnEngine`]; [`HierarchicalSearch::pool_stats`] merges both).
    pool: crate::parallel::PoolStats,
}

impl HierarchicalSearch {
    /// Builds the search structure over a set of 3-D points, representing each point as a sphere
    /// of radius `point_radius` (the small epsilon the RT-accelerated search systems use).
    ///
    /// # Panics
    ///
    /// Panics if the datapath configuration does not support the Euclidean operation or if
    /// `point_radius` is negative.
    #[must_use]
    pub fn build(points: Vec<Vec3>, point_radius: f32, config: PipelineConfig) -> Self {
        assert!(
            config.supports(Opcode::Euclidean),
            "hierarchical search scores candidates with the extended datapath"
        );
        let spheres: Vec<Sphere> = points
            .iter()
            .map(|&p| Sphere::new(p, point_radius))
            .collect();
        let bvh = Bvh4::build(&spheres);
        let dataset_size = points.len() as u64;
        HierarchicalSearch {
            points,
            bvh,
            scorer: KnnEngine::with_config(config),
            stats: HierarchicalStats {
                dataset_size,
                ..HierarchicalStats::default()
            },
            pool: crate::parallel::PoolStats::default(),
        }
    }

    /// Builds the search structure over the **world-space triangle centroids** of a
    /// [`Scene`](crate::Scene) — the scene-boundary constructor.  Instanced scenes contribute
    /// one centroid per *placed* triangle ([`Scene::centroids`](crate::Scene::centroids)), so a
    /// scene and its [`Scene::flatten`](crate::Scene::flatten)ed form build identical search
    /// structures and answer every query identically.
    ///
    /// # Panics
    ///
    /// As [`HierarchicalSearch::build`].
    #[must_use]
    pub fn from_scene(scene: &crate::Scene, point_radius: f32, config: PipelineConfig) -> Self {
        Self::build(scene.centroids(), point_radius, config)
    }

    /// The dataset points.
    #[must_use]
    pub fn points(&self) -> &[Vec3] {
        &self.points
    }

    /// The accumulated statistics across every query so far.
    #[must_use]
    pub fn stats(&self) -> HierarchicalStats {
        self.stats
    }

    /// Work-stealing pool counters accumulated across every parallel run (filter-phase shards
    /// plus the embedded scorer's parallel scoring runs).  Scheduling artefacts — **not**
    /// mode-invariant, unlike [`HierarchicalSearch::stats`].
    #[must_use]
    pub fn pool_stats(&self) -> crate::parallel::PoolStats {
        let mut merged = self.pool;
        merged.merge(&self.scorer.pool_stats());
        merged
    }

    /// Minimum radius queries a parallel filter shard must carry before an extra worker pays
    /// for itself (one query's hierarchy walk is a handful of passes).
    const MIN_QUERIES_PER_SHARD: usize = 8;

    /// Returns every dataset point within `radius` of `query` (squared-Euclidean scored on the
    /// datapath), sorted from nearest to farthest — a one-query
    /// [`HierarchicalSearch::radius_queries`] batch.
    pub fn radius_query(&mut self, query: Vec3, radius: f32, policy: &ExecPolicy) -> Vec<Neighbor> {
        self.radius_queries(&[(query, radius)], policy)
            .pop()
            .unwrap_or_default()
    }

    /// Runs a whole batch of radius queries, returning one sorted neighbour list per query —
    /// **the** radius/collect entry point, dispatched by the execution policy.
    ///
    /// Both phases honour the policy: the hierarchy filter is one [`QueryKind::Collect`] run —
    /// per-beat emulated (scalar reference), bulk wavefront/fused passes shared by every query
    /// of the batch, or sharded across workers (parallel) — and the surviving candidates are
    /// scored through [`KnnEngine::distances`] under the same policy.  Neighbour lists and
    /// [`HierarchicalStats`] are bit-identical across every [`ExecMode`] (pinned by
    /// `rtunit/tests/proptest_policy.rs`).
    pub fn radius_queries(
        &mut self,
        queries: &[(Vec3, f32)],
        policy: &ExecPolicy,
    ) -> Vec<Vec<Neighbor>> {
        self.run_radius(queries, policy, 0).0
    }

    /// Returns the nearest dataset point to `query`, searching with an expanding radius (each
    /// round doubles the radius until a neighbour is found), or `None` for an empty dataset.
    pub fn nearest(
        &mut self,
        query: Vec3,
        initial_radius: f32,
        policy: &ExecPolicy,
    ) -> Option<Neighbor> {
        self.run_nearest(query, initial_radius, policy, 0)
            .unwrap_or_else(|_| unreachable!("an uncapped search always completes"))
    }

    /// Runs a batch of radius queries with up-front validation and deadline-aware
    /// cancellation — the `Result`-returning variant of [`HierarchicalSearch::radius_queries`].
    ///
    /// Non-finite query points and non-finite or negative radii surface as
    /// [`QueryError::InvalidRequest`] before any beat is issued.  With
    /// [`ExecPolicy::max_total_beats`] set, the budget spans **both phases** — the hierarchy
    /// filter and the exact scoring — and a fired deadline yields the completed query
    /// **prefix** as [`QueryOutcome::Partial`]: a query appears only when its filter *and* its
    /// scoring finished, with a neighbour list bit-identical to the uncapped run's.
    ///
    /// # Errors
    ///
    /// [`QueryError::InvalidRequest`], or [`QueryError::BudgetExhausted`] when not even one
    /// query completed within the deadline.
    pub fn try_radius_queries(
        &mut self,
        queries: &[(Vec3, f32)],
        policy: &ExecPolicy,
    ) -> Result<QueryOutcome<Vec<Vec<Neighbor>>>, QueryError> {
        validate_radius_queries(queries)?;
        let cap = policy.max_total_beats;
        let (lists, run) = self.run_radius(queries, policy, cap);
        let completed = lists.len();
        QueryOutcome::from_run(
            lists,
            completed,
            queries.len(),
            run,
            cap,
            self.scorer.beat_mix(),
        )
    }

    /// Finds the nearest dataset point with up-front validation and deadline-aware
    /// cancellation — the `Result`-returning variant of [`HierarchicalSearch::nearest`].
    ///
    /// The nearest neighbour is a **global reduction**, so a deadline that fires mid-search
    /// surfaces as [`QueryError::DeadlineExceeded`] rather than a possibly wrong neighbour.
    /// The budget spans every expanding-radius round, including the brute-force fallback for
    /// far-away queries.
    ///
    /// # Errors
    ///
    /// [`QueryError::InvalidRequest`] or [`QueryError::DeadlineExceeded`].
    pub fn try_nearest(
        &mut self,
        query: Vec3,
        initial_radius: f32,
        policy: &ExecPolicy,
    ) -> Result<Option<Neighbor>, QueryError> {
        if !query.is_finite() {
            return Err(QueryError::InvalidRequest {
                reason: "nearest-neighbour query point has a non-finite component".to_owned(),
            });
        }
        if !initial_radius.is_finite() || initial_radius < 0.0 {
            return Err(QueryError::InvalidRequest {
                reason: format!("initial radius {initial_radius} must be finite and non-negative"),
            });
        }
        let cap = policy.max_total_beats;
        self.run_nearest(query, initial_radius, policy, cap)
            .map_err(|beats_spent| QueryError::DeadlineExceeded {
                beats_spent,
                max_total_beats: cap,
            })
    }

    /// The one nearest-neighbour search behind [`HierarchicalSearch::nearest`] and
    /// [`HierarchicalSearch::try_nearest`]: expanding-radius rounds, then — once the radius
    /// outgrows the scene — one brute-force scoring of every point, all capped at `cap` beats
    /// together (`0` = uncapped).  `Err(beats_spent)` when the cap fired first.
    fn run_nearest(
        &mut self,
        query: Vec3,
        initial_radius: f32,
        policy: &ExecPolicy,
        cap: u64,
    ) -> Result<Option<Neighbor>, u64> {
        if self.points.is_empty() {
            return Ok(None);
        }
        let mut beats_spent = 0u64;
        let mut radius = initial_radius.max(f32::EPSILON);
        let scene = self.bvh.scene_bounds();
        let scene_diagonal = (scene.max - scene.min).length().max(1.0);
        loop {
            let remaining = remaining_beats(cap, beats_spent).ok_or(beats_spent)?;
            let (lists, round) = self.run_radius(&[(query, radius)], policy, remaining);
            beats_spent += round.beats;
            if !round.complete {
                // The round itself crossed the line: no later round can be cheaper.
                return Err(beats_spent);
            }
            if let Some(&nearest) = lists.first().and_then(|list| list.first()) {
                return Ok(Some(nearest));
            }
            if radius > 2.0 * scene_diagonal {
                // The query is farther from every point than the whole scene extent: score
                // everything once, under whatever budget is left.
                let remaining = remaining_beats(cap, beats_spent).ok_or(beats_spent)?;
                let all: Vec<usize> = (0..self.points.len()).collect();
                let (scored, beats) = self.score_candidates(query, &all, policy, remaining);
                beats_spent += beats;
                let mut results = scored.ok_or(beats_spent)?;
                sort_nearest_first(&mut results);
                return Ok(results.into_iter().next());
            }
            radius *= 2.0;
        }
    }

    /// The one radius-batch run behind every radius entry point: the hierarchy filter of the
    /// whole batch ([`HierarchicalSearch::collect`]), then each query's surviving candidates
    /// scored exactly, capped at `cap` beats across both phases (`0` = uncapped).  Returns the
    /// neighbour lists (within the radius, nearest first) of the completed query prefix — a
    /// query counts only when its filter *and* its scoring finished — with the run's progress.
    fn run_radius(
        &mut self,
        queries: &[(Vec3, f32)],
        policy: &ExecPolicy,
        cap: u64,
    ) -> (Vec<Vec<Neighbor>>, CappedFusedRun) {
        let (candidates, mut progress) = self.collect(queries, policy, cap);
        let mut results: Vec<Vec<Neighbor>> = Vec::with_capacity(candidates.len());
        for (&(query, radius), candidates) in queries.iter().zip(&candidates) {
            let Some(remaining) = remaining_beats(cap, progress.beats) else {
                progress.complete = false;
                break;
            };
            let (scored, beats) = self.score_candidates(query, candidates, policy, remaining);
            progress.beats += beats;
            let Some(scored) = scored else {
                progress.complete = false;
                break;
            };
            results.push(radius_neighbors(scored, radius));
        }
        (results, progress)
    }

    /// Hierarchy filter of a query batch: one [`QueryKind::Collect`] run walking the sphere BVH
    /// (the paper's query-as-a-short-ray formulation), returning, per query of the completed
    /// prefix, the indices of every point whose leaf the query reaches, with the run's
    /// progress.  Dispatched as `policy` says at its lane width and coherence — per-beat
    /// emulated reference or bulk ray–box passes shared by the whole batch on the scorer's
    /// device, capped at `cap` beats (`0` = uncapped) — except that an uncapped
    /// [`ExecMode::Parallel`] run shards the batch contiguously across the pool workers'
    /// devices, each kept warm for every shard its worker takes.  The per-query walk order is
    /// policy-invariant, so the candidate lists — and the `box_beats` accounting — never
    /// change.
    fn collect(
        &mut self,
        queries: &[(Vec3, f32)],
        policy: &ExecPolicy,
        cap: u64,
    ) -> (Vec<Vec<usize>>, CappedFusedRun) {
        if let (0, ExecMode::Parallel { shards }) = (cap, policy.mode) {
            let bvh = &self.bvh;
            let sharded = crate::parallel::shard_chunks(
                *self.scorer.config(),
                queries,
                shards.requested_threads(),
                Self::MIN_QUERIES_PER_SHARD,
                |device, shard| device.collect(bvh, shard, policy, 0),
            );
            if let Some((shards, pool)) = sharded {
                self.pool.merge(&pool);
                let mut results = Vec::with_capacity(queries.len());
                let mut beats = 0;
                for (shard_candidates, box_beats, _) in shards {
                    results.extend(shard_candidates);
                    beats += box_beats;
                }
                self.stats.box_beats += beats;
                return (
                    results,
                    CappedFusedRun {
                        beats,
                        complete: true,
                    },
                );
            }
        }
        let (candidates, box_beats, run) =
            self.scorer.device.collect(&self.bvh, queries, policy, cap);
        self.stats.box_beats += box_beats;
        (candidates, run)
    }

    /// Scores an explicit candidate list against the query as one distance run under the
    /// policy, capped at `cap` beats (`0` = uncapped).  Returns one [`Neighbor`] per candidate
    /// in candidate order (unsorted, unfiltered) — or `None` when the run could not complete,
    /// since a partially-scored query has no meaningful neighbour list — and the beats spent.
    fn score_candidates(
        &mut self,
        query: Vec3,
        candidates: &[usize],
        policy: &ExecPolicy,
        cap: u64,
    ) -> (Option<Vec<Neighbor>>, u64) {
        let query_vec = [query.x, query.y, query.z];
        let points: Vec<[f32; 3]> = candidates
            .iter()
            .map(|&index| {
                let p = self.points[index];
                [p.x, p.y, p.z]
            })
            .collect();
        let (distances, run) = self.scorer.run_distances(
            &query_vec,
            &points,
            crate::KnnMetric::Euclidean,
            policy,
            cap,
        );
        self.stats.euclidean_beats += run.beats;
        if !run.complete {
            return (None, run.beats);
        }
        self.stats.candidates_scored += candidates.len() as u64;
        let neighbors = candidates
            .iter()
            .zip(distances)
            .map(|(&index, distance)| Neighbor { index, distance })
            .collect();
        (Some(neighbors), run.beats)
    }
}

/// A radius query's answer from its scored candidates: those within `radius` (squared distance
/// at most `radius²`), nearest first.  Every radius answer, [`HierarchicalSearch`]'s included,
/// is finished here.
#[must_use]
pub fn radius_neighbors(mut scored: Vec<Neighbor>, radius: f32) -> Vec<Neighbor> {
    let radius_sq = radius * radius;
    scored.retain(|n| n.distance <= radius_sq);
    sort_nearest_first(&mut scored);
    scored
}

/// Validates a radius-query batch before a `try_*` run accepts it: every query point finite,
/// every radius finite and non-negative (`0.0` is valid — it matches only exact hits).
fn validate_radius_queries(queries: &[(Vec3, f32)]) -> Result<(), QueryError> {
    for (index, &(point, radius)) in queries.iter().enumerate() {
        if !point.is_finite() {
            return Err(QueryError::InvalidRequest {
                reason: format!("radius query {index} has a non-finite point"),
            });
        }
        if !radius.is_finite() || radius < 0.0 {
            return Err(QueryError::InvalidRequest {
                reason: format!(
                    "radius query {index} has radius {radius} (must be finite and non-negative)"
                ),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_points(seed: u64, count: usize, extent: f32) -> Vec<Vec3> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                Vec3::new(
                    rng.gen_range(-extent..extent),
                    rng.gen_range(-extent..extent),
                    rng.gen_range(-extent..extent),
                )
            })
            .collect()
    }

    fn brute_force_radius(points: &[Vec3], query: Vec3, radius: f32) -> Vec<usize> {
        let mut found: Vec<(usize, f32)> = points
            .iter()
            .enumerate()
            .map(|(i, p)| (i, (*p - query).length_squared()))
            .filter(|(_, d)| *d <= radius * radius)
            .collect();
        found.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
        found.into_iter().map(|(i, _)| i).collect()
    }

    #[test]
    fn radius_queries_match_brute_force() {
        let points = random_points(5, 300, 50.0);
        let mut search =
            HierarchicalSearch::build(points.clone(), 0.01, PipelineConfig::extended_unified());
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..20 {
            let query = Vec3::new(
                rng.gen_range(-50.0f32..50.0),
                rng.gen_range(-50.0f32..50.0),
                rng.gen_range(-50.0f32..50.0),
            );
            let radius = rng.gen_range(2.0f32..15.0);
            let got: Vec<usize> = search
                .radius_query(query, radius, &ExecPolicy::wavefront())
                .into_iter()
                .map(|n| n.index)
                .collect();
            let expected = brute_force_radius(&points, query, radius);
            assert_eq!(got, expected, "query {query} radius {radius}");
        }
        assert_eq!(search.stats().dataset_size, 300);
        assert!(search.stats().box_beats > 0);
        assert!(search.stats().euclidean_beats >= search.stats().candidates_scored);
    }

    #[test]
    fn from_scene_searches_world_space_centroids_identically_for_both_forms() {
        use crate::{Blas, Instance, Scene};
        use rayflex_geometry::{Affine, Triangle};
        let mesh: Vec<Triangle> = (0..8)
            .map(|i| {
                let x = i as f32 * 1.5;
                Triangle::new(
                    Vec3::new(x, 0.0, 0.0),
                    Vec3::new(x + 1.0, 0.0, 0.0),
                    Vec3::new(x, 1.0, 0.0),
                )
            })
            .collect();
        let instances: Vec<Instance> = (0..6)
            .map(|i| Instance::new(0, Affine::translation(Vec3::new(0.0, i as f32 * 4.0, 3.0))))
            .collect();
        let scene = Scene::instanced(vec![Blas::new(mesh)], instances);
        let flattened = scene.flatten();

        let config = PipelineConfig::extended_unified();
        let mut instanced_search = HierarchicalSearch::from_scene(&scene, 0.01, config);
        let mut flat_search = HierarchicalSearch::from_scene(&flattened, 0.01, config);
        assert_eq!(instanced_search.points(), flat_search.points());

        let query = Vec3::new(2.0, 9.0, 3.0);
        let got = instanced_search.radius_query(query, 6.0, &ExecPolicy::wavefront());
        let expected = flat_search.radius_query(query, 6.0, &ExecPolicy::wavefront());
        assert!(
            !expected.is_empty(),
            "the query sphere must catch centroids"
        );
        assert_eq!(got, expected);
        assert_eq!(instanced_search.stats(), flat_search.stats());

        // The scene-boundary kNN entry point agrees with the search's exact ordering.
        let mut knn = KnnEngine::with_config(config);
        let nearest = knn.k_nearest_in_scene(query, &scene, 4, &ExecPolicy::wavefront());
        assert_eq!(nearest.len(), 4);
        for (n, e) in nearest.iter().zip(&expected) {
            assert_eq!(n.index, e.index);
            assert_eq!(n.distance.to_bits(), e.distance.to_bits());
        }
    }

    #[test]
    fn the_hierarchy_filters_most_of_the_dataset_for_small_radii() {
        let points = random_points(9, 2000, 100.0);
        let mut search =
            HierarchicalSearch::build(points, 0.01, PipelineConfig::extended_unified());
        let _ = search.radius_query(Vec3::new(10.0, -20.0, 30.0), 5.0, &ExecPolicy::wavefront());
        let fraction = search.stats().scored_fraction();
        assert!(
            fraction < 0.25,
            "the BVH filter should prune most of the dataset (scored {:.1}%)",
            fraction * 100.0
        );
    }

    #[test]
    fn nearest_matches_an_exhaustive_scan_even_for_far_queries() {
        let points = random_points(11, 200, 20.0);
        let mut search =
            HierarchicalSearch::build(points.clone(), 0.01, PipelineConfig::extended_unified());
        for query in [
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(19.0, -19.0, 5.0),
            Vec3::new(500.0, 500.0, 500.0), // far outside the dataset: exercises the fallback
        ] {
            let got = search
                .nearest(query, 1.0, &ExecPolicy::wavefront())
                .expect("non-empty dataset");
            let expected = points
                .iter()
                .enumerate()
                .min_by(|a, b| {
                    (*a.1 - query)
                        .length_squared()
                        .partial_cmp(&(*b.1 - query).length_squared())
                        .unwrap()
                })
                .unwrap()
                .0;
            assert_eq!(got.index, expected, "query {query}");
        }
    }

    #[test]
    fn batched_radius_queries_match_individual_queries() {
        let points = random_points(13, 400, 40.0);
        let queries: Vec<(Vec3, f32)> = (0..8)
            .map(|i| {
                (
                    Vec3::new(
                        (i as f32 * 9.0) - 30.0,
                        ((i * 7) % 11) as f32 * 5.0 - 25.0,
                        ((i * 3) % 13) as f32 * 4.0 - 20.0,
                    ),
                    4.0 + (i % 4) as f32 * 3.0,
                )
            })
            .collect();

        let mut batched =
            HierarchicalSearch::build(points.clone(), 0.01, PipelineConfig::extended_unified());
        let batch_results = batched.radius_queries(&queries, &ExecPolicy::wavefront());

        let mut individual =
            HierarchicalSearch::build(points, 0.01, PipelineConfig::extended_unified());
        for (i, &(query, radius)) in queries.iter().enumerate() {
            assert_eq!(
                batch_results[i],
                individual.radius_query(query, radius, &ExecPolicy::wavefront()),
                "query {i}"
            );
        }
        // Same filter and scoring work, whether the queries batch or not.
        assert_eq!(batched.stats(), individual.stats());
    }

    #[test]
    fn the_filter_runs_through_the_batched_engine_not_scalar_beats() {
        let points = random_points(21, 500, 50.0);
        let mut search =
            HierarchicalSearch::build(points, 0.01, PipelineConfig::extended_unified());
        let _ = search.radius_query(Vec3::new(5.0, -3.0, 12.0), 8.0, &ExecPolicy::wavefront());
        let mix = search.scorer.beat_mix();
        // Every filter beat is attributed to the collect kind through bulk passes; none are
        // unattributed scalar calls.
        assert_eq!(
            mix.count_for(rayflex_core::QueryKind::Collect, Opcode::RayBox),
            search.stats().box_beats
        );
        assert_eq!(
            mix.count(Opcode::RayBox),
            search.stats().box_beats,
            "no ray-box beat bypassed the collect attribution"
        );
        assert!(mix.passes() > 0, "the filter dispatched bulk passes");
    }

    #[test]
    fn fused_collect_streams_match_the_search_filter() {
        use crate::query::FusedScheduler;
        use rayflex_core::RayFlexDatapath;

        let points = random_points(17, 300, 30.0);
        let queries: Vec<(Vec3, f32)> = vec![
            (Vec3::new(0.0, 0.0, 0.0), 6.0),
            (Vec3::new(10.0, -5.0, 3.0), 9.0),
            (Vec3::new(-20.0, 14.0, -8.0), 4.0),
        ];
        let spheres: Vec<Sphere> = points.iter().map(|&p| Sphere::new(p, 0.01)).collect();
        let bvh = Bvh4::build(&spheres);

        let mut search =
            HierarchicalSearch::build(points, 0.01, PipelineConfig::extended_unified());
        let (expected, _) = search.collect(&queries, &ExecPolicy::wavefront(), 0);

        let mut datapath = RayFlexDatapath::new(PipelineConfig::extended_unified());
        let mut stream = CollectStream::new(&bvh, &queries);
        let mut fused = FusedScheduler::new();
        fused.run(&mut datapath, &mut [&mut stream]);
        let (candidates, box_beats) = stream.finish();
        assert_eq!(candidates, expected);
        assert_eq!(box_beats, search.stats().box_beats);
    }

    #[test]
    fn the_filter_lane_width_comes_from_the_policy_not_the_previous_call() {
        // The filter shares the scorer's datapath with the distance runs, so a filter that
        // never set its own lane width would inherit whatever the last scoring run left
        // behind: two identical calls must charge identical lane slots.
        let points = random_points(41, 500, 50.0);
        let mut search =
            HierarchicalSearch::build(points, 0.01, PipelineConfig::extended_unified());
        let queries = [(Vec3::new(5.0, -3.0, 12.0), 8.0), (Vec3::ZERO, 6.0)];
        let policy = ExecPolicy::wavefront().with_simd_lanes(16);
        let _ = search.radius_queries(&queries, &policy);
        let first = search.scorer.beat_mix().simd_lane_slots();
        let _ = search.radius_queries(&queries, &policy);
        let second = search.scorer.beat_mix().simd_lane_slots() - first;
        assert_eq!(first, second, "lane slots of two identical calls");
    }

    #[test]
    fn sharded_parallel_filtering_matches_wavefront_above_the_shard_floor() {
        // More than two full shards of radius queries force real worker sharding in the filter
        // phase (the matrix proptest stays below MIN_QUERIES_PER_SHARD and only exercises the
        // inline fallback), pinning the spawn path's per-query results and merged statistics.
        let points = random_points(31, 600, 50.0);
        let queries: Vec<(Vec3, f32)> = (0..2 * HierarchicalSearch::MIN_QUERIES_PER_SHARD + 3)
            .map(|i| {
                (
                    Vec3::new(
                        (i as f32 * 3.7) % 50.0 - 25.0,
                        (i as f32 * 7.3) % 50.0 - 25.0,
                        (i as f32 * 1.9) % 50.0 - 25.0,
                    ),
                    3.0 + (i % 5) as f32 * 2.0,
                )
            })
            .collect();
        let mut wavefront =
            HierarchicalSearch::build(points.clone(), 0.01, PipelineConfig::extended_unified());
        let expected = wavefront.radius_queries(&queries, &ExecPolicy::wavefront());
        for threads in [2usize, 4] {
            let mut parallel =
                HierarchicalSearch::build(points.clone(), 0.01, PipelineConfig::extended_unified());
            let got = parallel.radius_queries(&queries, &ExecPolicy::parallel(threads));
            assert_eq!(got, expected, "threads {threads}");
            assert_eq!(parallel.stats(), wavefront.stats(), "threads {threads}");
        }
    }

    #[test]
    fn empty_datasets_return_nothing() {
        let mut search =
            HierarchicalSearch::build(Vec::new(), 0.01, PipelineConfig::extended_unified());
        assert!(search
            .nearest(Vec3::ZERO, 1.0, &ExecPolicy::wavefront())
            .is_none());
        assert!(search
            .radius_query(Vec3::ZERO, 10.0, &ExecPolicy::wavefront())
            .is_empty());
        assert_eq!(search.stats().scored_fraction(), 0.0);
        assert_eq!(search.stats().dataset_size, 0);
    }

    #[test]
    #[should_panic(expected = "extended datapath")]
    fn baseline_configurations_are_rejected() {
        let _ = HierarchicalSearch::build(Vec::new(), 0.01, PipelineConfig::baseline_unified());
    }

    #[test]
    fn try_radius_queries_reject_bad_requests_before_any_beat() {
        let points = random_points(3, 50, 20.0);
        let mut search =
            HierarchicalSearch::build(points, 0.01, PipelineConfig::extended_unified());
        let baseline = search.stats();
        let bad_batches: Vec<(Vec<(Vec3, f32)>, &str)> = vec![
            (vec![(Vec3::new(f32::NAN, 0.0, 0.0), 5.0)], "point"),
            (vec![(Vec3::ZERO, f32::NAN)], "radius"),
            (vec![(Vec3::ZERO, -1.0)], "radius"),
        ];
        for (batch, needle) in bad_batches {
            let err = search
                .try_radius_queries(&batch, &ExecPolicy::wavefront())
                .unwrap_err();
            let QueryError::InvalidRequest { reason } = &err else {
                panic!("expected InvalidRequest, got {err}");
            };
            assert!(reason.contains(needle), "{reason}");
        }
        let err = search
            .try_nearest(Vec3::ZERO, f32::INFINITY, &ExecPolicy::wavefront())
            .unwrap_err();
        assert!(matches!(err, QueryError::InvalidRequest { .. }), "{err}");
        assert_eq!(
            search.stats(),
            baseline,
            "rejected requests must not issue a single beat"
        );
    }

    #[test]
    fn try_radius_queries_without_a_deadline_match_the_plain_path() {
        let points = random_points(23, 200, 30.0);
        let queries: Vec<(Vec3, f32)> = vec![
            (Vec3::new(0.0, 0.0, 0.0), 8.0),
            (Vec3::new(12.0, -4.0, 7.0), 5.0),
            (Vec3::new(-15.0, 10.0, -2.0), 0.0),
        ];
        for policy in [
            ExecPolicy::scalar(),
            ExecPolicy::wavefront(),
            ExecPolicy::parallel(2),
            ExecPolicy::fused().with_beat_budget(2),
        ] {
            let expected =
                HierarchicalSearch::build(points.clone(), 0.01, PipelineConfig::extended_unified())
                    .radius_queries(&queries, &policy);
            let mut search =
                HierarchicalSearch::build(points.clone(), 0.01, PipelineConfig::extended_unified());
            let outcome = search.try_radius_queries(&queries, &policy).unwrap();
            assert!(outcome.is_complete(), "{}", policy.mode);
            assert_eq!(*outcome.output(), expected, "{}", policy.mode);
        }
    }

    #[test]
    fn a_capped_radius_batch_returns_a_bit_identical_completed_prefix() {
        let points = random_points(29, 400, 40.0);
        let queries: Vec<(Vec3, f32)> = (0..6)
            .map(|i| {
                (
                    Vec3::new(i as f32 * 11.0 - 27.0, (i % 3) as f32 * 9.0 - 9.0, 4.0),
                    6.0 + (i % 2) as f32 * 4.0,
                )
            })
            .collect();
        let uncapped =
            HierarchicalSearch::build(points.clone(), 0.01, PipelineConfig::extended_unified())
                .radius_queries(&queries, &ExecPolicy::wavefront());

        for base in [
            ExecPolicy::scalar(),
            ExecPolicy::wavefront(),
            ExecPolicy::fused().with_beat_budget(2),
        ] {
            // A one-beat deadline can never finish the filter *and* score a query.
            let starved = base.with_max_total_beats(1);
            let mut search =
                HierarchicalSearch::build(points.clone(), 0.01, PipelineConfig::extended_unified());
            let err = search.try_radius_queries(&queries, &starved).unwrap_err();
            assert!(
                matches!(err, QueryError::BudgetExhausted { max_total_beats: 1 }),
                "{} gave {err}",
                base.mode
            );

            // A mid-size deadline completes some query prefix; every surfaced list must be
            // bit-identical to the uncapped run's.
            let mut search =
                HierarchicalSearch::build(points.clone(), 0.01, PipelineConfig::extended_unified());
            for cap in [200u64, 800, 3000] {
                match search.try_radius_queries(&queries, &base.with_max_total_beats(cap)) {
                    Ok(outcome) => {
                        let lists = outcome.output();
                        if let Some(partial) = outcome.partial() {
                            assert!(partial.completed < queries.len());
                            assert_eq!(partial.completed, lists.len());
                            assert!(partial.beats_spent > 0);
                        } else {
                            assert_eq!(lists.len(), queries.len());
                        }
                        for (i, list) in lists.iter().enumerate() {
                            assert_eq!(*list, uncapped[i], "{} cap {cap} query {i}", base.mode);
                        }
                    }
                    Err(err) => assert!(
                        matches!(err, QueryError::BudgetExhausted { .. }),
                        "{} cap {cap} gave {err}",
                        base.mode
                    ),
                }
            }

            // A generous deadline completes the whole batch, bit-identically.
            let mut search =
                HierarchicalSearch::build(points.clone(), 0.01, PipelineConfig::extended_unified());
            let outcome = search
                .try_radius_queries(&queries, &base.with_max_total_beats(u64::MAX))
                .unwrap();
            assert!(outcome.is_complete(), "{}", base.mode);
            assert_eq!(*outcome.output(), uncapped, "{}", base.mode);
        }
    }

    #[test]
    fn try_nearest_matches_nearest_and_surfaces_deadlines() {
        let points = random_points(37, 150, 25.0);
        let mut search =
            HierarchicalSearch::build(points.clone(), 0.01, PipelineConfig::extended_unified());
        for query in [Vec3::new(2.0, -3.0, 8.0), Vec3::new(400.0, 400.0, 400.0)] {
            let expected = search.nearest(query, 1.0, &ExecPolicy::wavefront());
            let got = search
                .try_nearest(query, 1.0, &ExecPolicy::wavefront())
                .unwrap();
            assert_eq!(got, expected, "query {query}");
            let generous = ExecPolicy::wavefront().with_max_total_beats(u64::MAX);
            let got = search.try_nearest(query, 1.0, &generous).unwrap();
            assert_eq!(got, expected, "capped query {query}");
        }
        let starved = ExecPolicy::wavefront().with_max_total_beats(1);
        let err = search
            .try_nearest(Vec3::new(2.0, -3.0, 8.0), 1.0, &starved)
            .unwrap_err();
        assert!(
            matches!(
                err,
                QueryError::DeadlineExceeded {
                    max_total_beats: 1,
                    ..
                }
            ),
            "{err}"
        );
    }
}
