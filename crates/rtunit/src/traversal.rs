//! Stack-based BVH traversal issuing beats to the datapath.
//!
//! The public face is **one policy-driven entry point**: [`TraversalEngine::trace`] takes a
//! [`TraceRequest`] — the indexed scene plus a closest-hit ray slice and/or an any-hit ray slice
//! — and an [`ExecPolicy`](crate::ExecPolicy) selecting the execution mode:
//!
//! * [`ExecMode::ScalarReference`](crate::ExecMode::ScalarReference) runs the fused pass
//!   schedule below, but executes every beat alone on the register-accurate emulated path — the
//!   reference every other mode is tested against;
//! * [`ExecMode::Wavefront`](crate::ExecMode::Wavefront) keeps each whole ray stream in flight
//!   through the generic [`FusedScheduler`](crate::FusedScheduler), each pass carrying one stream's segment alone
//!   (closest-hit first): every pass builds one beat train per active ray into a reusable pass
//!   of 16-byte beat descriptors, dispatches it in bulk — the kernels fetch each beat's ray from
//!   the stream's operand table and its boxes or triangle straight from the scene — and applies
//!   the responses to the per-ray states as they stream back.  Per-ray state (traversal stack,
//!   pending leaf range) lives in the engine's reusable arenas, so a steady-state stream
//!   performs no allocation per ray;
//! * [`ExecMode::Fused`](crate::ExecMode::Fused) runs the request's closest-hit and any-hit
//!   streams through the same scheduler together, in **shared mixed-kind bulk passes** over the
//!   engine's single datapath (the unified RT unit of §V-A), honouring the policy's per-stream
//!   beat budget;
//! * [`ExecMode::Parallel`](crate::ExecMode::Parallel) shards the streams contiguously across
//!   worker threads; each worker builds one device (datapath, scheduler and arenas) and runs
//!   the wavefront over every chunk it takes on it.
//!
//! Because a ray's own beat sequence is identical under every mode (pending leaf primitives
//! first, then the next stack node, children pushed nearest-first — with best-hit pruning for
//! closest-hit, and first-accepted-hit termination for any-hit), all modes return bit-identical
//! hits *and* identical [`TraversalStats`] — the batched modes merely interleave beats of
//! different rays (and, fused, of different query kinds).
//!
//! The traversal queries are two instantiations ([`QueryKind::ClosestHit`] and
//! [`QueryKind::AnyHit`]) of the crate's per-item query state machine; the renderer and the k-NN /
//! hierarchical engines run their own kinds through the same scheduler under the same policies.

use core::ops::Range;
use rayflex_core::{BeatMix, PipelineConfig, RayFlexResponse, RayOperand};

use rayflex_geometry::Ray;

use crate::beat::{BeatPass, BeatTables};
use crate::bvh::ChildRef;
use crate::device::Device;
use crate::error::{validate_rays, QueryError, QueryOutcome, SceneValidator};
use crate::parallel::{ShardPlan, MIN_RAYS_PER_SHARD};
use crate::policy::{CoherenceMode, ExecMode, ExecPolicy};
use crate::query::{BatchQuery, CappedFusedRun, QueryKind, RunnerArena, StreamRunner};
use crate::scene::{handle, handle_low, BoxBounds, NodeStep, Scene, SceneView};

/// The closest hit found by a traversal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraversalHit {
    /// Index of the hit primitive in the caller's primitive array.
    pub primitive: usize,
    /// Parametric hit distance along the ray.
    pub t: f32,
}

/// Operation counts gathered while traversing (the workload statistics fed to the RT-unit timing
/// model and the benchmark harnesses).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraversalStats {
    /// Ray–box beats issued (each tests up to four children).
    pub box_ops: u64,
    /// Ray–triangle beats issued.
    pub triangle_ops: u64,
    /// Internal nodes visited.
    pub nodes_visited: u64,
    /// Geometry leaf nodes visited (flat BVH or BLAS leaves — TLAS leaves are counted in
    /// [`TraversalStats::instances_visited`] instead).
    pub leaves_visited: u64,
    /// Rays traversed.
    pub rays: u64,
    /// The TLAS-phase share of [`TraversalStats::box_ops`]: ray–box beats testing top-level
    /// (instance-bounds) nodes of a two-level scene.  Always zero for flat scenes — this is the
    /// structural cost instancing adds, reported separately so the flat-vs-instanced beat
    /// comparison is one subtraction.
    pub tlas_box_ops: u64,
    /// Instance descents: TLAS leaf entries expanded into BLAS-root stack pushes.  Always zero
    /// for flat scenes.
    pub instances_visited: u64,
    /// Parallel shards whose worker panicked and were recovered by the one-shot scalar retry
    /// (see `crate::parallel`).  Always zero in a healthy run, so the cross-policy
    /// stats-equality invariant is unaffected; a non-zero count is the audit trail of a
    /// tolerated fault.
    pub shard_fallbacks: u64,
}

impl TraversalStats {
    /// Total datapath beats issued.
    #[must_use]
    pub fn total_ops(&self) -> u64 {
        self.box_ops + self.triangle_ops
    }

    /// Accumulates another counter set into this one — the reduction used when the per-shard
    /// statistics of a parallel run (or the per-stream statistics of a fused run) fold into an
    /// engine's totals.
    ///
    /// **Merge semantics:** every field is a plain `u64` sum — neither saturating nor
    /// explicitly wrapping, so an overflow panics in debug builds and wraps in release builds,
    /// per standard Rust integer arithmetic.  That is deliberate: the counters tally datapath
    /// beats and node visits, which sit tens of orders of magnitude below `u64::MAX` for any
    /// representable workload, so a saturating add would only hide an accounting bug.  Merging
    /// is commutative and associative, and merging a default (all-zero) set is the identity, so
    /// shard totals are independent of merge order — which is what makes parallel statistics
    /// bit-identical to single-threaded runs.
    pub fn merge(&mut self, other: &TraversalStats) {
        self.box_ops += other.box_ops;
        self.triangle_ops += other.triangle_ops;
        self.nodes_visited += other.nodes_visited;
        self.leaves_visited += other.leaves_visited;
        self.rays += other.rays;
        self.tlas_box_ops += other.tlas_box_ops;
        self.instances_visited += other.instances_visited;
        self.shard_fallbacks += other.shard_fallbacks;
    }
}

/// One traversal request: a [`Scene`] plus up to two ray streams — a **closest-hit** stream and
/// an **any-hit** (shadow/occlusion) stream.  Either stream may be empty; a request carrying
/// both is the fused pair the unified RT unit time-multiplexes.
///
/// This is the single argument of [`TraversalEngine::trace`], the one policy-taking entry point
/// both traversal query kinds share.  The scene may be flat or two-level instanced — every
/// execution mode traverses either representation, and an instanced scene yields bit-identical
/// hits to its [`Scene::flatten`] twin.
#[derive(Debug, Clone, Copy)]
pub struct TraceRequest<'a> {
    view: SceneView<'a>,
    closest: &'a [Ray],
    any: &'a [Ray],
    deadlines: [u64; 2],
}

impl<'a> TraceRequest<'a> {
    /// A closest-hit request over `rays` against `scene`.
    #[must_use]
    pub fn closest_hit(scene: &'a Scene, rays: &'a [Ray]) -> Self {
        TraceRequest {
            view: scene.view(),
            closest: rays,
            any: &[],
            deadlines: [0, 0],
        }
    }

    /// An any-hit (shadow/occlusion) request over `rays` against `scene`.
    #[must_use]
    pub fn any_hit(scene: &'a Scene, rays: &'a [Ray]) -> Self {
        TraceRequest {
            view: scene.view(),
            closest: &[],
            any: rays,
            deadlines: [0, 0],
        }
    }

    /// A request carrying both streams — the heterogeneous pair
    /// [`ExecMode::Fused`](crate::ExecMode::Fused) merges into shared passes (the other modes
    /// trace the two streams closest-first).
    #[must_use]
    pub fn pair(scene: &'a Scene, closest: &'a [Ray], any: &'a [Ray]) -> Self {
        TraceRequest {
            view: scene.view(),
            closest,
            any,
            deadlines: [0, 0],
        }
    }

    /// The scene view the request traverses.
    pub(crate) fn view(&self) -> SceneView<'a> {
        self.view
    }

    /// A both-streams request straight over a borrowed view (a parallel chunk, or one ray of the
    /// RT-unit timing model).
    pub(crate) fn pair_view(view: SceneView<'a>, closest: &'a [Ray], any: &'a [Ray]) -> Self {
        TraceRequest {
            view,
            closest,
            any,
            deadlines: [0, 0],
        }
    }

    /// Attaches per-stream deadlines, in whatever monotone unit the caller measures urgency in
    /// (a server uses microseconds-until-flush).  `0` means "no deadline" and always sorts
    /// last.  Deadlines only matter under
    /// [`AdmissionOrder::EarliestDeadlineFirst`](crate::AdmissionOrder::EarliestDeadlineFirst):
    /// the fused scheduler then builds and issues the tighter-deadline stream's segment first
    /// within every shared pass.  Outputs and statistics are unaffected — the knob reorders
    /// work inside passes, it does not change what work runs.
    #[must_use]
    pub fn with_stream_deadlines(mut self, closest: u64, any: u64) -> Self {
        self.deadlines = [closest, any];
        self
    }

    /// The per-stream `[closest, any]` deadlines (`0` = none) set by
    /// [`TraceRequest::with_stream_deadlines`].
    #[must_use]
    pub fn stream_deadlines(&self) -> [u64; 2] {
        self.deadlines
    }

    /// Total primitives the request's scene addresses by global id (a flat scene's triangle
    /// count, or the sum over every placed instance of a two-level scene).
    #[must_use]
    pub fn triangle_count(&self) -> usize {
        self.view.triangle_count()
    }

    /// The closest-hit ray stream (possibly empty).
    #[must_use]
    pub fn closest_rays(&self) -> &'a [Ray] {
        self.closest
    }

    /// The any-hit ray stream (possibly empty).
    #[must_use]
    pub fn any_rays(&self) -> &'a [Ray] {
        self.any
    }
}

/// The outputs of one [`TraversalEngine::trace`] call: one optional hit per ray of each stream,
/// in the request's ray order (empty where the request's stream was empty).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceOutput {
    /// Closest-hit results, parallel to [`TraceRequest::closest_rays`].
    pub closest: Vec<Option<TraversalHit>>,
    /// Any-hit results, parallel to [`TraceRequest::any_rays`] (`Some` means occluded).
    pub any: Vec<Option<TraversalHit>>,
}

impl TraceOutput {
    /// Consumes the output of a closest-hit-only request.
    #[must_use]
    pub fn into_closest(self) -> Vec<Option<TraversalHit>> {
        self.closest
    }

    /// Consumes the output of an any-hit-only request.
    #[must_use]
    pub fn into_any(self) -> Vec<Option<TraversalHit>> {
        self.any
    }
}

/// Per-ray wavefront traversal state, shared by the closest-hit and any-hit queries.  The stack
/// lives in the engine's runner arenas and is reused across rays and calls.
///
/// Stack entries are traversal *handles* (see `crate::scene`): a context id in the high bits —
/// the top-level structure, or one instance's BLAS — and a node / mesh-local primitive index in
/// the low bits, so one stack walks a flat BVH and a two-level TLAS/BLAS hierarchy with the same
/// machinery.
#[derive(Debug, Default)]
pub struct RayWork {
    stack: Vec<u64>,
    /// Leaf positions awaiting their ray–triangle beat, tested front to back in leaf order:
    /// the untested rest of one leaf (a leaf drains before the next pops).
    pending: Range<u32>,
    /// Context the pending positions live in.
    pending_ctx: u32,
    best: Option<TraversalHit>,
}

impl RayWork {
    fn reset(&mut self, root: u64) {
        self.stack.clear();
        self.stack.push(root);
        self.pending = 0..0;
        self.best = None;
    }

    /// The handle of the next pending primitive.
    fn next_pending(&self) -> u64 {
        handle(self.pending_ctx, self.pending.start)
    }
}

/// Both traversal kinds as one [`BatchQuery`]: the scene, the ray stream, the query kind
/// (closest-hit or any-hit) and the statistics the stream accumulates.  The query owns its
/// statistics so several traversal streams can run *fused* in the same passes (each merges into
/// the engine's counters when it finishes).
#[derive(Debug)]
struct TraversalQuery<'a> {
    kind: QueryKind,
    view: SceneView<'a>,
    rays: &'a [Ray],
    /// One prebuilt datapath operand per ray — the operand table the stream's beat descriptors
    /// name by slot, so a beat carries no copy of its ray.  Indexed by item until
    /// [`BatchQuery::reorder`] rebuilds it in admission order; the scheduler addresses the
    /// query by admission slot, so every access here is sequential.
    operands: Vec<RayOperand>,
    stats: TraversalStats,
}

impl<'a> TraversalQuery<'a> {
    /// A query over `rays`, recycling a caller-pooled operand buffer: the buffer is cleared
    /// and refilled, so a warm buffer makes query construction allocation-free — the engine
    /// reclaims it after the run (the zero-alloc steady-state contract of the batched hot
    /// path).
    fn with_operand_buffer(
        kind: QueryKind,
        view: SceneView<'a>,
        rays: &'a [Ray],
        mut operands: Vec<RayOperand>,
    ) -> Self {
        debug_assert!(matches!(kind, QueryKind::ClosestHit | QueryKind::AnyHit));
        assert!(
            u32::try_from(rays.len()).is_ok(),
            "a traversal stream addresses its rays with 32-bit operand slots"
        );
        operands.clear();
        operands.extend(rays.iter().map(RayOperand::from_ray));
        TraversalQuery {
            kind,
            view,
            rays,
            operands,
            stats: TraversalStats {
                rays: rays.len() as u64,
                ..TraversalStats::default()
            },
        }
    }

    /// Builds the next beat for one ray, advancing its state; `false` retires the ray.
    ///
    /// The per-ray beat order is the same under every policy: all pending leaf primitives (in
    /// leaf order), then the next stack node — with TLAS leaves of an instanced scene expanded
    /// beat-free into BLAS-root pushes.  Box beats carry the node's traversal handle as their
    /// tag so the response can be matched back to the node's child table (TLAS-phase beats
    /// additionally carry [`TLAS_PHASE_TAG`](rayflex_core::TLAS_PHASE_TAG) for the datapath's
    /// beat attribution); triangle beats carry the ray index.
    ///
    /// Beats are descriptors: a flat scene's box and triangle beats, and a two-level scene's
    /// TLAS box beats, name their node or leaf position and the ray's operand slot, and the
    /// kernels fetch the operands from [`BatchQuery::tables`].  A BLAS-phase beat tests bounds
    /// or a triangle transformed for this visit, which exist in no table, so it carries them in
    /// the pass's owned side table.
    fn build_next_beat(&mut self, item: usize, state: &mut RayWork, out: &mut BeatPass) -> bool {
        loop {
            if !state.pending.is_empty() {
                if self.kind == QueryKind::ClosestHit {
                    // Closest-hit tests every primitive of the leaf unconditionally, so the
                    // whole pending run is emitted as one beat train: contiguous in the pass,
                    // which is what lets the lane-batched triangle kernel engage across them.
                    self.stats.triangle_ops += state.pending.len() as u64;
                    match &self.view {
                        SceneView::Flat(_) => out.extend_leaf(item, state.pending.clone()),
                        view => {
                            for position in state.pending.clone() {
                                let pending = handle(state.pending_ctx, position);
                                out.push_triangle(item, view.pending_triangle(pending));
                            }
                        }
                    }
                } else {
                    // Any-hit stops at the first accepted hit, so beats past it must never
                    // issue: one beat per pass.
                    self.stats.triangle_ops += 1;
                    let next = state.pending.start;
                    match &self.view {
                        SceneView::Flat(_) => out.extend_leaf(item, next..next + 1),
                        view => {
                            out.push_triangle(item, view.pending_triangle(state.next_pending()))
                        }
                    }
                }
                return true;
            }
            let Some(popped) = state.stack.pop() else {
                return false;
            };
            match self.view.step(popped) {
                NodeStep::Leaf { positions, ctx } => {
                    self.stats.leaves_visited += 1;
                    state.pending = positions;
                    state.pending_ctx = ctx;
                }
                NodeStep::Instances { ids } => {
                    // A TLAS leaf costs no beat: each instance descends straight to its BLAS
                    // root, reversed so the first instance in leaf order pops first.
                    self.stats.instances_visited += ids.len() as u64;
                    state
                        .stack
                        .extend(ids.iter().rev().map(|&inst| self.view.instance_root(inst)));
                }
                NodeStep::BoxBeat { tag, bounds, tlas } => {
                    self.stats.nodes_visited += 1;
                    self.stats.box_ops += 1;
                    if tlas {
                        self.stats.tlas_box_ops += 1;
                    }
                    match bounds {
                        BoxBounds::Stored => out.push_node(item, handle_low(tag), tlas),
                        BoxBounds::Owned(boxes) => out.push_boxes(item, tag, boxes),
                    }
                    return true;
                }
            }
        }
    }
}

impl BatchQuery for TraversalQuery<'_> {
    type State = RayWork;
    type Output = Option<TraversalHit>;

    fn kind(&self) -> QueryKind {
        self.kind
    }

    fn items(&self) -> usize {
        self.rays.len()
    }

    /// Coherence key for octant-sorted admission: rays sharing a direction octant and an
    /// origin-Morton neighbourhood dispatch adjacently, so their box/triangle beat trains land
    /// contiguously in the pass buffer where the SIMD fast path can batch them.
    fn sort_key(&self, item: usize) -> u64 {
        self.operands[item].coherence_key()
    }

    /// Rebuilds the operand table in admission order, as the scheduler's admission-slot
    /// addressing requires of a non-identity key: a sorted run's build/apply loops then walk
    /// `operands` sequentially.  The item-order table has served its one purpose (the sort
    /// keys), and an operand is a plain copy of its ray's fields, so the rebuild needs no
    /// second buffer.  Everything else the query touches is either shared and read-only (the
    /// scene view), owned by the addressed state (stack, pending, best hit), or an
    /// order-insensitive aggregate (the statistics), so slot addressing is output-exact.
    fn reorder(&mut self, order: &[usize]) {
        self.operands.clear();
        self.operands.extend(
            order
                .iter()
                .map(|&item| RayOperand::from_ray(&self.rays[item])),
        );
    }

    fn reset(&mut self, _item: usize, state: &mut RayWork) {
        state.reset(self.view.root_handle());
    }

    /// The top-level structure's node table (the flat BVH, or the TLAS of a two-level scene),
    /// a flat scene's leaf-order triangles, and the ray operands.
    fn tables(&self) -> BeatTables<'_> {
        match self.view {
            SceneView::Flat(mesh) => {
                BeatTables::new(mesh.bvh().nodes(), mesh.leaf_triangles(), &self.operands)
            }
            SceneView::Instanced(scene) => BeatTables::new(scene.tlas.nodes(), &[], &self.operands),
        }
    }

    fn build(&mut self, item: usize, state: &mut RayWork, out: &mut BeatPass) -> bool {
        // Any-hit: a recorded hit terminates the ray before any further beat is issued, so the
        // ray stops right after the hitting beat.
        if self.kind == QueryKind::AnyHit && state.best.is_some() {
            return false;
        }
        self.build_next_beat(item, state, out)
    }

    fn apply(&mut self, item: usize, state: &mut RayWork, response: &RayFlexResponse) {
        if let Some(result) = response.triangle_result {
            let Some(position) = state.pending.next() else {
                unreachable!("a triangle beat always has a pending primitive");
            };
            let entry = handle(state.pending_ctx, position);
            // The parametric extent comes from the operand table (same values as the source
            // ray's), indexed by admission slot.  The global-primitive decode happens only on
            // an accepted hit — most triangle tests miss, and this is the hottest apply path in
            // the engine.  Closest-hit keeps ties on the first-tested primitive (only a strictly
            // closer hit replaces the best).
            let operand = &self.operands[item];
            match self.kind {
                // Closest-hit: keep the nearest accepted hit, keep traversing.
                QueryKind::ClosestHit => {
                    if result.hit {
                        let t = result.distance();
                        if t >= operand.t_beg
                            && t <= operand.t_end
                            && state.best.is_none_or(|b| t < b.t)
                        {
                            state.best = Some(TraversalHit {
                                primitive: self.view.global_primitive(entry),
                                t,
                            });
                        }
                    }
                }
                // Any-hit: the first accepted hit terminates the ray.
                _ => {
                    if result.hit {
                        let t = result.distance();
                        if t >= operand.t_beg && t <= operand.t_end {
                            state.best = Some(TraversalHit {
                                primitive: self.view.global_primitive(entry),
                                t,
                            });
                            state.stack.clear();
                            state.pending = 0..0;
                        }
                    }
                }
            }
        } else if let Some(result) = response.box_result {
            let (children, ctx) = self.view.children_for_tag(response.tag);
            // Closest-hit prunes children farther than the best hit so far; any-hit never does.
            let prune = if self.kind == QueryKind::ClosestHit {
                state.best.as_ref()
            } else {
                None
            };
            push_hit_children(&mut state.stack, &result, children, ctx, prune);
        }
    }

    fn finish(&mut self, _item: usize, state: &mut RayWork) -> Option<TraversalHit> {
        state.best.take()
    }
}

/// The reusable buffers of one traversal stream: the runner arena (per-ray states and pass
/// bookkeeping) plus the query's operand table.
#[derive(Debug, Default)]
pub(crate) struct TraversalArena {
    runner: RunnerArena<RayWork>,
    operands: Vec<RayOperand>,
}

/// A traversal ray stream packaged for **fused** scheduling: a closest-hit or any-hit query over
/// one scene and ray slice, runnable side by side with other
/// [`FusedStream`](crate::FusedStream)s (another traversal
/// stream, distance scoring, candidate collection) in the shared passes of a
/// [`FusedScheduler`](crate::FusedScheduler).
///
/// Because the per-ray state machine is exactly the one the engine runs, the hits and
/// [`TraversalStats`] a fused stream yields are bit-identical to [`TraversalEngine::trace`]
/// under any [`ExecPolicy`](crate::ExecPolicy) over the same rays.
#[derive(Debug)]
pub struct TraversalStream<'a> {
    runner: StreamRunner<TraversalQuery<'a>>,
}

impl<'a> TraversalStream<'a> {
    /// A closest-hit stream over `rays` against `scene`.
    #[must_use]
    pub fn closest_hit(scene: &'a Scene, rays: &'a [Ray]) -> Self {
        Self::with_arena(
            QueryKind::ClosestHit,
            scene.view(),
            rays,
            TraversalArena::default(),
            false,
        )
    }

    /// An any-hit (shadow/occlusion) stream over `rays` against `scene`.
    #[must_use]
    pub fn any_hit(scene: &'a Scene, rays: &'a [Ray]) -> Self {
        Self::with_arena(
            QueryKind::AnyHit,
            scene.view(),
            rays,
            TraversalArena::default(),
            false,
        )
    }

    /// A `kind` stream over a borrowed view, built in a recycled arena; `lone` as
    /// [`StreamRunner::lone`].
    fn with_arena(
        kind: QueryKind,
        view: SceneView<'a>,
        rays: &'a [Ray],
        arena: TraversalArena,
        lone: bool,
    ) -> Self {
        let query = TraversalQuery::with_operand_buffer(kind, view, rays, arena.operands);
        TraversalStream {
            runner: StreamRunner::with_arena(query, arena.runner).lone(lone),
        }
    }

    /// Selects the coherence mode for this stream's admission ordering (takes effect when the
    /// stream starts; the policy entry points do this automatically, so this only matters when
    /// driving a [`FusedScheduler`](crate::FusedScheduler) by hand).
    #[must_use]
    pub fn with_coherence(self, coherence: CoherenceMode) -> Self {
        TraversalStream {
            runner: self.runner.with_coherence(coherence),
        }
    }

    /// One optional hit per ray (in ray order) plus the stream's traversal statistics, after a
    /// fused run completed.
    ///
    /// # Panics
    ///
    /// Panics if the stream was never run to completion.
    #[must_use]
    pub fn finish(self) -> (Vec<Option<TraversalHit>>, TraversalStats) {
        let (query, hits) = self.runner.finish();
        (hits, query.stats)
    }

    /// Like [`TraversalStream::finish`], but tolerant of a budget-cancelled run: yields the
    /// hits of the longest fully-retired item prefix (everything, if the run completed; the
    /// prefix length is the vector's length) and the stream's statistics.  Rays cancelled
    /// mid-flight surface nothing — a premature best-hit would be silently wrong.  A server
    /// mapping an incomplete [`CappedFusedRun`](crate::CappedFusedRun) onto a partial protocol
    /// response calls this to salvage the completed prefix.
    #[must_use]
    pub fn finish_partial(self) -> (Vec<Option<TraversalHit>>, TraversalStats) {
        let (query, hits, _items) = self.runner.finish_partial();
        (hits, query.stats)
    }

    /// [`TraversalStream::finish_partial`] handing the arena back for the next run.
    fn into_parts(self) -> (Vec<Option<TraversalHit>>, TraversalStats, TraversalArena) {
        let (query, hits, runner) = self.runner.into_parts();
        let arena = TraversalArena {
            runner,
            operands: query.operands,
        };
        (hits, query.stats, arena)
    }
}

crate::query::delegate_fused_stream_to_runner!(TraversalStream<'_>);

/// A BVH traversal engine driving a functional RayFlex datapath.
///
/// The engine reproduces the traversal loop the RT unit implements above the datapath (paper
/// Fig. 2 / Fig. 3): internal nodes are tested with one four-wide ray–box beat, children are
/// visited in the order of intersection returned by the datapath's sort network, and leaves issue
/// one ray–triangle beat per primitive.  Closest-hit traversal prunes hit children farther than
/// the best hit found so far; any-hit traversal terminates a ray on its first accepted
/// intersection (the shadow/occlusion query).
#[derive(Debug)]
pub struct TraversalEngine {
    /// The RT unit every mode runs its streams on (a sharded parallel run, on each pool
    /// worker's own device).  Its arenas make a steady-state trace call allocate nothing but
    /// its output.
    device: Device,
    stats: TraversalStats,
    /// Work-stealing pool counters accumulated across parallel runs (see
    /// [`TraversalEngine::pool_stats`]); kept apart from [`TraversalStats`] because steal counts
    /// are scheduling artefacts, not mode-invariant workload facts.
    pool: crate::parallel::PoolStats,
}

impl TraversalEngine {
    /// Creates an engine over a baseline-unified datapath (the paper's reference design).
    #[must_use]
    pub fn baseline() -> Self {
        Self::with_config(PipelineConfig::baseline_unified())
    }

    /// Creates an engine over a datapath of the given configuration.
    #[must_use]
    pub fn with_config(config: PipelineConfig) -> Self {
        TraversalEngine {
            device: Device::new(config),
            stats: TraversalStats::default(),
            pool: crate::parallel::PoolStats::default(),
        }
    }

    /// The datapath configuration this engine drives.
    #[must_use]
    pub fn config(&self) -> &PipelineConfig {
        self.device.datapath.config()
    }

    /// The accumulated traversal statistics.
    #[must_use]
    pub fn stats(&self) -> TraversalStats {
        self.stats
    }

    /// Per-opcode breakdown of every beat this engine's datapath has executed (closest-hit and
    /// any-hit passes share the datapath, so this attributes mixed workloads).
    #[must_use]
    pub fn beat_mix(&self) -> BeatMix {
        self.device.datapath.beat_mix()
    }

    /// Work-stealing pool counters accumulated across every parallel run this engine has
    /// dispatched.  Unlike [`TraversalEngine::stats`] these are **not** mode-invariant: steal
    /// counts depend on runtime scheduling, and non-parallel modes leave them untouched.
    #[must_use]
    pub fn pool_stats(&self) -> crate::parallel::PoolStats {
        self.pool
    }

    /// Traces a [`TraceRequest`] under an execution policy — **the** traversal entry point, for
    /// both query kinds and every [`ExecMode`]:
    ///
    /// * [`ExecMode::ScalarReference`] — both streams share the fused passes, but every beat
    ///   executes alone on the register-accurate emulated path;
    /// * [`ExecMode::Wavefront`] — each pass carries one stream's segment alone as one bulk
    ///   dispatch, so the streams drain one after another through the engine's scheduler,
    ///   closest-hit first;
    /// * [`ExecMode::Fused`] — both streams merge into shared mixed-kind passes over this
    ///   engine's single datapath, with at most
    ///   [`beat_budget_per_stream`](ExecPolicy::beat_budget_per_stream) beats per stream per
    ///   pass;
    /// * [`ExecMode::Parallel`] — each stream shards contiguously across worker threads; each
    ///   worker keeps one warm datapath for every chunk it takes, a chunk of one stream fills
    ///   its passes alone as under the wavefront, and per-chunk statistics merge into this
    ///   engine's totals.
    ///
    /// Hits and accumulated [`TraversalStats`] are **bit-identical across all four modes** (and
    /// all beat budgets) — the cross-policy invariant `rtunit/tests/proptest_policy.rs` pins.
    ///
    /// # Example
    ///
    /// ```
    /// use rayflex_geometry::{Ray, Triangle, Vec3};
    /// use rayflex_rtunit::{ExecPolicy, Scene, TraceRequest, TraversalEngine};
    ///
    /// let scene = Scene::flat(vec![Triangle::new(
    ///     Vec3::new(-1.0, -1.0, 3.0),
    ///     Vec3::new(1.0, -1.0, 3.0),
    ///     Vec3::new(0.0, 1.0, 3.0),
    /// )]);
    /// let rays = [Ray::new(Vec3::ZERO, Vec3::new(0.0, 0.0, 1.0))];
    /// let mut engine = TraversalEngine::baseline();
    /// let hits = engine
    ///     .trace(&TraceRequest::closest_hit(&scene, &rays), &ExecPolicy::wavefront())
    ///     .into_closest();
    /// assert!(hits[0].is_some());
    /// ```
    pub fn trace(&mut self, request: &TraceRequest<'_>, policy: &ExecPolicy) -> TraceOutput {
        self.run_or_panic(request, policy, 0).0
    }

    /// [`TraversalEngine::trace`] with the hardened failure contract: structured errors instead
    /// of garbage or panics, and cooperative deadline cancellation.
    ///
    /// * The scene is checked up front by the [`SceneValidator`] (finite non-degenerate
    ///   triangles, consistent BVH topology and bounds) and both ray streams by the datapath
    ///   guards — malformed input fails [`QueryError::InvalidScene`] /
    ///   [`QueryError::InvalidRequest`] before any beat is issued.
    /// * Under [`ExecMode::Parallel`], a worker shard that panics is retried once through the
    ///   scalar reference path (bit-identical, counted in
    ///   [`TraversalStats::shard_fallbacks`]); a shard whose retry also dies fails
    ///   [`QueryError::ShardPanicked`] instead of unwinding through the caller.
    /// * With [`ExecPolicy::max_total_beats`] set, the run cancels cooperatively at a pass
    ///   boundary once the budget is spent and returns [`QueryOutcome::Partial`]: the hits of
    ///   the longest fully-retired item prefix — bit-identical to the same prefix of the
    ///   uncapped run — plus progress counters.  A cap too small to retire a single item fails
    ///   [`QueryError::BudgetExhausted`].  Capped runs never shard: they execute inline on this
    ///   engine's datapath in every mode.
    ///
    /// [`TraversalEngine::trace`] is this same run at cap 0, so a run that completes within its
    /// budget (or with no budget) returns [`QueryOutcome::Complete`] carrying exactly what
    /// `trace` would have; this entry point only adds O(scene + rays) validation.
    ///
    /// # Errors
    ///
    /// [`QueryError::InvalidScene`], [`QueryError::InvalidRequest`],
    /// [`QueryError::ShardPanicked`] or [`QueryError::BudgetExhausted`], as above.
    ///
    /// # Example
    ///
    /// ```
    /// use rayflex_geometry::{Ray, Triangle, Vec3};
    /// use rayflex_rtunit::{ExecPolicy, QueryError, Scene, TraceRequest, TraversalEngine};
    ///
    /// let scene = Scene::flat(vec![Triangle::new(
    ///     Vec3::new(-1.0, -1.0, 3.0),
    ///     Vec3::new(1.0, -1.0, 3.0),
    ///     Vec3::new(0.0, 1.0, 3.0),
    /// )]);
    /// let mut rays = [Ray::new(Vec3::ZERO, Vec3::new(0.0, 0.0, 1.0))];
    /// let mut engine = TraversalEngine::baseline();
    /// let outcome = engine
    ///     .try_trace(&TraceRequest::closest_hit(&scene, &rays), &ExecPolicy::wavefront())
    ///     .unwrap();
    /// assert!(outcome.is_complete());
    ///
    /// rays[0].origin.x = f32::NAN;
    /// let err = engine
    ///     .try_trace(&TraceRequest::closest_hit(&scene, &rays), &ExecPolicy::wavefront())
    ///     .unwrap_err();
    /// assert!(matches!(err, QueryError::InvalidRequest { .. }));
    /// ```
    pub fn try_trace(
        &mut self,
        request: &TraceRequest<'_>,
        policy: &ExecPolicy,
    ) -> Result<QueryOutcome<TraceOutput>, QueryError> {
        SceneValidator::validate_view(request.view())?;
        validate_rays(request.closest, "closest-hit")?;
        validate_rays(request.any, "any-hit")?;
        let cap = policy.max_total_beats;
        let (output, progress) = self
            .run(request, policy, cap)
            .map_err(|shard| QueryError::ShardPanicked { shard })?;
        let completed = output.closest.len() + output.any.len();
        let total = request.closest.len() + request.any.len();
        QueryOutcome::from_run(output, completed, total, progress, cap, self.beat_mix())
    }

    /// [`TraversalEngine::run`] for the plain entry points, which keep the panic of a parallel
    /// shard whose scalar retry died too.
    pub(crate) fn run_or_panic(
        &mut self,
        request: &TraceRequest<'_>,
        policy: &ExecPolicy,
        cap: u64,
    ) -> (TraceOutput, CappedFusedRun) {
        self.run(request, policy, cap).unwrap_or_else(|shard| {
            panic!("fused traversal worker panicked (shard {shard}) and its scalar retry failed")
        })
    }

    /// The one traversal run behind every entry point: traces `request` as `policy` says,
    /// capped at `cap` beats (`0` = uncapped), and returns each stream's retired prefix with the
    /// run's progress.
    ///
    /// Every mode runs on this engine's device ([`Device::trace`]), the scalar reference
    /// included, except an uncapped [`ExecMode::Parallel`] run, which shards across the pool
    /// workers' devices when the request is large enough to pay for them.  A capped run cancels
    /// at pass boundaries, a single-unit discipline, so it always runs inline.  `Err(shard)`
    /// names a parallel shard whose scalar retry panicked too.
    fn run(
        &mut self,
        request: &TraceRequest<'_>,
        policy: &ExecPolicy,
        cap: u64,
    ) -> Result<(TraceOutput, CappedFusedRun), usize> {
        let (closest, any) = (request.closest, request.any);
        let plan = ShardPlan::new(policy, cap, &[closest.len(), any.len()], MIN_RAYS_PER_SHARD);
        if let Some(plan) = plan {
            let view = request.view();
            let (chunks, pool, retried) =
                plan.run(*self.config(), policy, |device, stream, range, policy| {
                    let (closest, any) = if stream == 0 {
                        (&closest[range], &any[..0])
                    } else {
                        (&closest[..0], &any[range])
                    };
                    device.trace(&TraceRequest::pair_view(view, closest, any), policy, 0)
                })?;
            let mut output = TraceOutput {
                closest: Vec::with_capacity(closest.len()),
                any: Vec::with_capacity(any.len()),
            };
            let mut stats = TraversalStats {
                shard_fallbacks: retried,
                ..TraversalStats::default()
            };
            for (hits, chunk_stats, _) in chunks {
                output.closest.extend(hits.closest);
                output.any.extend(hits.any);
                stats.merge(&chunk_stats);
            }
            self.stats.merge(&stats);
            self.pool.merge(&pool);
            let progress = CappedFusedRun {
                beats: stats.total_ops(),
                complete: true,
            };
            return Ok((output, progress));
        }
        let (output, stats, progress) = self.device.trace(request, policy, cap);
        self.stats.merge(&stats);
        Ok((output, progress))
    }

    /// Number of bulk passes the engine's most recent fused run dispatched (how a beat budget
    /// reshapes the pass structure — diagnostics for the fairness knob).
    #[must_use]
    pub fn last_fused_passes(&self) -> u64 {
        self.device.scheduler.last_run_passes()
    }

    /// Per-ray states parked in the two stream arenas.
    #[cfg(test)]
    fn pooled_states(&self) -> [usize; 2] {
        self.device
            .traversal
            .each_ref()
            .map(|arena| arena.runner.pooled_states())
    }
}

impl Device {
    /// Runs the request's streams on this device through its scheduler, dispatched as `policy`
    /// says ([`FusedScheduler::run_policy`](crate::FusedScheduler::run_policy)) and capped at
    /// `cap` beats (`0` = uncapped).  Returns each stream's retired prefix, the two streams'
    /// summed statistics and the run's progress.
    pub(crate) fn trace(
        &mut self,
        request: &TraceRequest<'_>,
        policy: &ExecPolicy,
        cap: u64,
    ) -> (TraceOutput, TraversalStats, CappedFusedRun) {
        self.datapath.set_simd_lanes(policy.effective_simd_lanes());
        self.scheduler.set_stream_deadlines(&request.deadlines);
        let coherence = policy.effective_coherence();
        let stream = |kind, rays, arena, lone| {
            TraversalStream::with_arena(kind, request.view(), rays, arena, lone)
                .with_coherence(coherence)
        };
        // Each stream runs in its own arena.  A stream fills its passes alone when its partner
        // is empty, or under the wavefront, whose passes carry one stream's segment each.  A
        // lone any-hit stream borrows the first arena, so single-kind requests of either kind
        // recycle one set of per-ray states.
        let wavefront = policy.mode == ExecMode::Wavefront;
        let lone_any = request.closest.is_empty();
        if lone_any {
            self.traversal.swap(0, 1);
        }
        let [first, second] = core::mem::take(&mut self.traversal);
        let mut closest = stream(
            QueryKind::ClosestHit,
            request.closest,
            first,
            wavefront || request.any.is_empty(),
        );
        let mut any = stream(
            QueryKind::AnyHit,
            request.any,
            second,
            wavefront || request.closest.is_empty(),
        );
        let progress = self.scheduler.run_policy(
            &mut self.datapath,
            &mut [&mut closest, &mut any],
            policy,
            cap,
        );
        let (closest, mut stats, first) = closest.into_parts();
        let (any, any_stats, second) = any.into_parts();
        self.traversal = [first, second];
        if lone_any {
            self.traversal.swap(0, 1);
        }
        stats.merge(&any_stats);
        (TraceOutput { closest, any }, stats, progress)
    }
}

/// Pushes the hit children of one box-beat result onto a traversal stack in reverse traversal
/// order (so the closest child pops first), pruning children farther than the best hit so far
/// (pass `None` for query kinds that never prune).  Children are encoded as handles in `ctx` —
/// the context the tested node lives in (children never cross a structure boundary; TLAS leaves
/// do the descent instead).
pub(crate) fn push_hit_children(
    stack: &mut Vec<u64>,
    result: &rayflex_core::BoxResult,
    children: &[ChildRef; 4],
    ctx: u32,
    best: Option<&TraversalHit>,
) {
    for &slot in result.traversal_order.iter().rev() {
        let slot = usize::from(slot);
        if !result.hit[slot] {
            continue;
        }
        if let Some(best_hit) = best {
            if result.t_entry[slot] > best_hit.t {
                continue;
            }
        }
        let child = children[slot];
        if !child.is_empty() {
            stack.push(handle(ctx, child.bits()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Bvh4;
    use rayflex_geometry::{golden, Triangle, Vec3};

    /// A little wall of front-facing triangles at varying depths.
    fn wall() -> Vec<Triangle> {
        (0..32)
            .map(|i| {
                let x = (i % 8) as f32 * 2.0 - 8.0;
                let y = (i / 8) as f32 * 2.0 - 4.0;
                let z = 10.0 + (i % 3) as f32;
                Triangle::new(
                    Vec3::new(x, y, z),
                    Vec3::new(x + 1.8, y, z),
                    Vec3::new(x + 0.9, y + 1.8, z),
                )
            })
            .collect()
    }

    fn wall_rays(n: usize) -> Vec<Ray> {
        (0..n)
            .map(|i| {
                let x = (i % 10) as f32 - 5.0;
                let y = (i / 10) as f32 - 3.0;
                Ray::new(Vec3::new(x, y, 0.0), Vec3::new(0.03, -0.01, 1.0))
            })
            .collect()
    }

    /// Brute-force reference: closest golden hit over all triangles.
    fn brute_force(triangles: &[Triangle], ray: &Ray) -> Option<TraversalHit> {
        let mut best: Option<TraversalHit> = None;
        for (i, tri) in triangles.iter().enumerate() {
            let hit = golden::watertight::ray_triangle(ray, tri);
            if hit.hit {
                let t = hit.distance();
                if t >= ray.t_beg && t <= ray.t_end && best.is_none_or(|b| t < b.t) {
                    best = Some(TraversalHit { primitive: i, t });
                }
            }
        }
        best
    }

    #[test]
    fn traversal_agrees_with_brute_force() {
        let triangles = wall();
        let scene = Scene::from_parts(Bvh4::build(&triangles), triangles.clone());
        let rays = wall_rays(60);
        let mut engine = TraversalEngine::baseline();
        let hits = engine
            .trace(
                &TraceRequest::closest_hit(&scene, &rays),
                &ExecPolicy::scalar(),
            )
            .into_closest();
        for (i, (ray, got)) in rays.iter().zip(&hits).enumerate() {
            let expected = brute_force(&triangles, ray);
            match (expected, got) {
                (None, None) => {}
                (Some(e), Some(g)) => {
                    assert_eq!(e.primitive, g.primitive, "ray {i}");
                    assert_eq!(e.t.to_bits(), g.t.to_bits(), "ray {i}");
                }
                other => panic!("ray {i}: mismatch {other:?}"),
            }
        }
        let stats = engine.stats();
        assert!(stats.box_ops > 0);
        assert!(stats.triangle_ops > 0);
        assert_eq!(stats.rays, 60);
    }

    #[test]
    fn pruning_keeps_the_traversal_cheaper_than_brute_force() {
        let triangles = wall();
        let scene = Scene::from_parts(Bvh4::build(&triangles), triangles.clone());
        let mut engine = TraversalEngine::baseline();
        let rays = [Ray::new(Vec3::new(0.5, 0.5, 0.0), Vec3::new(0.0, 0.0, 1.0))];
        let _ = engine.trace(
            &TraceRequest::closest_hit(&scene, &rays),
            &ExecPolicy::scalar(),
        );
        // A single ray should not have to test every triangle in the scene.
        assert!(engine.stats().triangle_ops < triangles.len() as u64);
    }

    #[test]
    fn missing_rays_return_none() {
        let triangles = wall();
        let scene = Scene::from_parts(Bvh4::build(&triangles), triangles.clone());
        let mut engine = TraversalEngine::baseline();
        let rays = [Ray::new(
            Vec3::new(100.0, 100.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
        )];
        let output = engine.trace(
            &TraceRequest::pair(&scene, &rays, &rays),
            &ExecPolicy::scalar(),
        );
        assert!(output.closest[0].is_none());
        assert!(output.any[0].is_none());
    }

    #[test]
    fn batch_traversal_matches_individual_calls() {
        let triangles = wall();
        let scene = Scene::from_parts(Bvh4::build(&triangles), triangles.clone());
        let rays: Vec<Ray> = (0..10)
            .map(|i| {
                Ray::new(
                    Vec3::new(i as f32 - 5.0, 0.2, 0.0),
                    Vec3::new(0.0, 0.0, 1.0),
                )
            })
            .collect();
        let mut batch_engine = TraversalEngine::baseline();
        let batch = batch_engine
            .trace(
                &TraceRequest::closest_hit(&scene, &rays),
                &ExecPolicy::scalar(),
            )
            .into_closest();
        let mut single_engine = TraversalEngine::baseline();
        for (ray, expected) in rays.iter().zip(&batch) {
            let got = single_engine
                .trace(
                    &TraceRequest::closest_hit(&scene, core::slice::from_ref(ray)),
                    &ExecPolicy::scalar(),
                )
                .into_closest();
            assert_eq!(got[0], *expected);
        }
    }

    #[test]
    fn every_exec_mode_matches_the_scalar_reference_bit_for_bit() {
        let triangles = wall();
        let scene = Scene::from_parts(Bvh4::build(&triangles), triangles.clone());
        let closest_rays = wall_rays(60);
        let any_rays: Vec<Ray> = wall_rays(40)
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                let t_end = if i % 3 == 0 { 5.0 } else { 40.0 };
                Ray::with_extent(r.origin, r.dir, 1e-3, t_end)
            })
            .collect();
        let request = TraceRequest::pair(&scene, &closest_rays, &any_rays);

        let mut reference = TraversalEngine::baseline();
        let expected = reference.trace(&request, &ExecPolicy::scalar());

        for policy in [
            ExecPolicy::wavefront(),
            ExecPolicy::parallel(3),
            ExecPolicy::fused(),
            ExecPolicy::fused().with_beat_budget(1),
            ExecPolicy::fused().with_beat_budget(4),
        ] {
            let mut engine = TraversalEngine::baseline();
            let got = engine.trace(&request, &policy);
            assert_eq!(got, expected, "{} diverged", policy.mode);
            assert_eq!(
                engine.stats(),
                reference.stats(),
                "{} stats diverged",
                policy.mode
            );
        }
    }

    #[test]
    fn a_beat_budget_changes_fused_pass_counts_but_not_hits() {
        let triangles = wall();
        let scene = Scene::from_parts(Bvh4::build(&triangles), triangles.clone());
        let closest_rays = wall_rays(40);
        let any_rays = wall_rays(25);
        let request = TraceRequest::pair(&scene, &closest_rays, &any_rays);

        let mut unlimited = TraversalEngine::baseline();
        let free = unlimited.trace(&request, &ExecPolicy::fused());
        let free_passes = unlimited.last_fused_passes();

        let mut strict = TraversalEngine::baseline();
        let budgeted = strict.trace(&request, &ExecPolicy::fused().with_beat_budget(1));
        let strict_passes = strict.last_fused_passes();

        assert_eq!(free, budgeted, "a beat budget must not change any hit");
        assert_eq!(unlimited.stats(), strict.stats());
        assert!(
            strict_passes > free_passes,
            "strict round-robin admission needs more passes ({strict_passes} vs {free_passes})"
        );
    }

    #[test]
    fn any_hit_short_rays_cannot_be_occluded() {
        let triangles = wall();
        let scene = Scene::from_parts(Bvh4::build(&triangles), triangles.clone());
        // Shadow-style rays: finite extents, some reaching the wall, some stopping short.
        let rays: Vec<Ray> = wall_rays(40)
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                let t_end = if i % 3 == 0 { 5.0 } else { 40.0 };
                Ray::with_extent(r.origin, r.dir, 1e-3, t_end)
            })
            .collect();
        let mut engine = TraversalEngine::baseline();
        let got = engine
            .trace(
                &TraceRequest::any_hit(&scene, &rays),
                &ExecPolicy::wavefront(),
            )
            .into_any();
        for (i, hit) in got.iter().enumerate() {
            if i % 3 == 0 {
                assert!(hit.is_none(), "short ray {i} cannot reach the wall");
            }
        }
        assert!(got.iter().any(Option::is_some), "some rays are occluded");
    }

    #[test]
    fn any_hit_terminates_early_compared_to_closest_hit() {
        let triangles = wall();
        let scene = Scene::from_parts(Bvh4::build(&triangles), triangles.clone());
        let rays = wall_rays(40);
        let mut closest = TraversalEngine::baseline();
        let closest_hits = closest
            .trace(
                &TraceRequest::closest_hit(&scene, &rays),
                &ExecPolicy::wavefront(),
            )
            .into_closest();
        let mut any = TraversalEngine::baseline();
        let any_hits = any
            .trace(
                &TraceRequest::any_hit(&scene, &rays),
                &ExecPolicy::wavefront(),
            )
            .into_any();
        // The verdicts agree even though the reported hit may differ.
        for (i, (c, a)) in closest_hits.iter().zip(&any_hits).enumerate() {
            assert_eq!(c.is_some(), a.is_some(), "ray {i}");
        }
        assert!(
            any.stats().total_ops() <= closest.stats().total_ops(),
            "first-hit termination can only reduce the beat count"
        );
    }

    #[test]
    fn wavefront_state_pools_are_reused_across_calls() {
        let triangles = wall();
        let scene = Scene::from_parts(Bvh4::build(&triangles), triangles.clone());
        let rays = wall_rays(20);
        let request = TraceRequest::closest_hit(&scene, &rays);
        let mut engine = TraversalEngine::baseline();
        let first = engine.trace(&request, &ExecPolicy::wavefront());
        assert_eq!(engine.pooled_states(), [rays.len(), 0]);
        let second = engine.trace(&request, &ExecPolicy::wavefront());
        assert_eq!(first, second);
        assert_eq!(
            engine.pooled_states(),
            [rays.len(), 0],
            "states recycled, not leaked"
        );
        // The wavefront runs one stream at a time, so the any-hit stream reuses the same
        // parked states; only streams sharing passes need the second arena.
        let _ = engine.trace(
            &TraceRequest::any_hit(&scene, &rays[..5]),
            &ExecPolicy::wavefront(),
        );
        assert_eq!(engine.pooled_states(), [rays.len(), 0]);
        let _ = engine.trace(
            &TraceRequest::pair(&scene, &rays[..5], &rays),
            &ExecPolicy::fused(),
        );
        assert_eq!(engine.pooled_states(), [rays.len(), rays.len()]);

        // Under the modes that share passes, a lone stream of either kind takes the first
        // arena too, so single-kind calls never park a second set of states.
        let mut scalar = TraversalEngine::baseline();
        let _ = scalar.trace(&request, &ExecPolicy::scalar());
        let _ = scalar.trace(&TraceRequest::any_hit(&scene, &rays), &ExecPolicy::scalar());
        assert_eq!(scalar.pooled_states(), [rays.len(), 0]);
    }

    #[test]
    fn fused_closest_and_any_hit_streams_match_sequential_scheduling() {
        let triangles = wall();
        let scene = Scene::from_parts(Bvh4::build(&triangles), triangles.clone());
        let closest_rays = wall_rays(40);
        let any_rays: Vec<Ray> = wall_rays(25)
            .into_iter()
            .map(|r| Ray::with_extent(r.origin, r.dir, 1e-3, 40.0))
            .collect();

        let mut sequential = TraversalEngine::baseline();
        let expected = sequential.trace(
            &TraceRequest::pair(&scene, &closest_rays, &any_rays),
            &ExecPolicy::wavefront(),
        );

        let mut fused = TraversalEngine::baseline();
        let got = fused.trace(
            &TraceRequest::pair(&scene, &closest_rays, &any_rays),
            &ExecPolicy::fused(),
        );
        assert_eq!(got, expected);
        assert_eq!(fused.stats(), sequential.stats(), "identical merged stats");

        // The fusion is observable: both kinds appear in the per-kind mix, and at least one
        // bulk pass carried beats of both.
        let mix = fused.beat_mix();
        assert!(mix.kind_total(rayflex_core::QueryKind::ClosestHit) > 0);
        assert!(mix.kind_total(rayflex_core::QueryKind::AnyHit) > 0);
        assert!(mix.fused_passes() > 0, "streams shared at least one pass");
        assert_eq!(mix.total(), sequential.beat_mix().total());

        // The wavefront pair keeps the pass structure of its two streams traced one after the
        // other: no pass carries both kinds, and every pass, beat and lane slot matches.
        let mut one_by_one = TraversalEngine::baseline();
        let _ = one_by_one.trace(
            &TraceRequest::closest_hit(&scene, &closest_rays),
            &ExecPolicy::wavefront(),
        );
        let _ = one_by_one.trace(
            &TraceRequest::any_hit(&scene, &any_rays),
            &ExecPolicy::wavefront(),
        );
        let pair_mix = sequential.beat_mix();
        assert_eq!(pair_mix, one_by_one.beat_mix());
        assert_eq!(pair_mix.fused_passes(), 0, "no wavefront pass mixes kinds");
        assert_eq!(sequential.last_fused_passes(), pair_mix.passes());
    }

    #[test]
    fn traversal_stats_merge_sums_every_field() {
        // The parallel mode's reduction: shard totals merge by plain summation, order-free,
        // with the all-zero set as identity.
        let a = TraversalStats {
            box_ops: 3,
            triangle_ops: 5,
            nodes_visited: 7,
            leaves_visited: 2,
            rays: 11,
            shard_fallbacks: 1,
            tlas_box_ops: 2,
            instances_visited: 1,
        };
        let b = TraversalStats {
            box_ops: 10,
            triangle_ops: 20,
            nodes_visited: 30,
            leaves_visited: 40,
            rays: 50,
            shard_fallbacks: 0,
            tlas_box_ops: 5,
            instances_visited: 9,
        };
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba, "merge is commutative");
        assert_eq!(
            ab,
            TraversalStats {
                box_ops: 13,
                triangle_ops: 25,
                nodes_visited: 37,
                leaves_visited: 42,
                rays: 61,
                shard_fallbacks: 1,
                tlas_box_ops: 7,
                instances_visited: 10,
            }
        );
        let mut identity = ab;
        identity.merge(&TraversalStats::default());
        assert_eq!(identity, ab, "the zero set is the merge identity");
        assert_eq!(ab.total_ops(), 13 + 25);
    }

    #[test]
    fn parallel_shard_stats_merge_to_the_single_engine_totals() {
        // Trace one stream whole, then in two halves on separate engines, and merge the halves:
        // the merged statistics must equal the whole-stream run exactly (the invariant the
        // Parallel mode's per-shard reduction relies on).
        let triangles = wall();
        let scene = Scene::from_parts(Bvh4::build(&triangles), triangles.clone());
        let rays = wall_rays(48);

        let mut whole = TraversalEngine::baseline();
        let _ = whole.trace(
            &TraceRequest::closest_hit(&scene, &rays),
            &ExecPolicy::wavefront(),
        );

        let mut merged = TraversalStats::default();
        for shard in rays.chunks(rays.len() / 2) {
            let mut engine = TraversalEngine::baseline();
            let _ = engine.trace(
                &TraceRequest::closest_hit(&scene, shard),
                &ExecPolicy::wavefront(),
            );
            merged.merge(&engine.stats());
        }
        assert_eq!(merged, whole.stats());
    }

    #[test]
    fn beat_mix_reflects_the_traversal_workload() {
        let triangles = wall();
        let scene = Scene::from_parts(Bvh4::build(&triangles), triangles.clone());
        let rays = wall_rays(10);
        let mut engine = TraversalEngine::baseline();
        let _ = engine.trace(
            &TraceRequest::closest_hit(&scene, &rays),
            &ExecPolicy::wavefront(),
        );
        let mix = engine.beat_mix();
        assert_eq!(
            mix.count(rayflex_core::Opcode::RayBox),
            engine.stats().box_ops
        );
        assert_eq!(
            mix.count(rayflex_core::Opcode::RayTriangle),
            engine.stats().triangle_ops
        );
        assert_eq!(mix.total(), engine.stats().total_ops());
    }

    #[test]
    fn try_trace_rejects_bad_scenes_and_rays_before_any_beat() {
        use crate::QueryError;
        let triangles = wall();
        let scene = Scene::from_parts(Bvh4::build(&triangles), triangles.clone());
        let mut engine = TraversalEngine::baseline();

        // A NaN vertex in the scene: InvalidScene, no beats issued.
        let mut bad_triangles = triangles.clone();
        bad_triangles[3].v1.y = f32::NAN;
        let bad_scene = Scene::from_parts(Bvh4::build(&triangles), bad_triangles);
        let err = engine
            .try_trace(
                &TraceRequest::closest_hit(&bad_scene, &wall_rays(4)),
                &ExecPolicy::wavefront(),
            )
            .unwrap_err();
        assert!(matches!(err, QueryError::InvalidScene { .. }), "{err}");
        assert_eq!(engine.stats(), TraversalStats::default());

        // A corrupt ray: InvalidRequest naming the stream.
        let mut rays = wall_rays(4);
        rays[2].dir = Vec3::new(0.0, 0.0, 0.0);
        let err = engine
            .try_trace(
                &TraceRequest::any_hit(&scene, &rays),
                &ExecPolicy::wavefront(),
            )
            .unwrap_err();
        assert!(err.to_string().contains("any-hit"), "{err}");
        assert_eq!(engine.stats(), TraversalStats::default());
    }

    #[test]
    fn try_trace_without_a_cap_matches_trace_in_every_mode() {
        let triangles = wall();
        let scene = Scene::from_parts(Bvh4::build(&triangles), triangles.clone());
        let closest = wall_rays(40);
        let any = wall_rays(25);
        let request = TraceRequest::pair(&scene, &closest, &any);
        for policy in [
            ExecPolicy::scalar(),
            ExecPolicy::wavefront(),
            ExecPolicy::fused(),
            ExecPolicy::parallel(3),
        ] {
            let mut plain = TraversalEngine::baseline();
            let expected = plain.trace(&request, &policy);
            let mut hardened = TraversalEngine::baseline();
            let outcome = hardened.try_trace(&request, &policy).unwrap();
            assert!(outcome.is_complete(), "{}", policy.mode);
            assert_eq!(outcome.into_output(), expected, "{}", policy.mode);
            assert_eq!(hardened.stats(), plain.stats(), "{}", policy.mode);
        }
    }

    #[test]
    fn a_capped_trace_returns_a_bit_identical_completed_prefix() {
        use crate::{QueryError, QueryOutcome};
        let triangles = wall();
        let scene = Scene::from_parts(Bvh4::build(&triangles), triangles.clone());
        let closest = wall_rays(40);
        let any = wall_rays(25);
        let request = TraceRequest::pair(&scene, &closest, &any);
        let mut reference = TraversalEngine::baseline();
        let expected = reference.trace(&request, &ExecPolicy::scalar());

        for base in [
            ExecPolicy::scalar(),
            ExecPolicy::wavefront(),
            ExecPolicy::fused(),
            ExecPolicy::parallel(3),
        ] {
            // A one-beat budget cannot retire a single ray of this scene.
            let starved = base.with_max_total_beats(1);
            let mut engine = TraversalEngine::baseline();
            let err = engine.try_trace(&request, &starved).unwrap_err();
            assert!(
                matches!(err, QueryError::BudgetExhausted { max_total_beats: 1 }),
                "{}: {err}",
                base.mode
            );

            // A mid-sized budget yields a partial whose prefix matches the uncapped run.  The
            // first ten rays miss the scene entirely (one root-box beat each, retiring in the
            // first pass); the rest keep traversing, so a 45-beat cap cancels after the second
            // pass with exactly that ten-ray prefix retired — in every mode, since all modes
            // issue one beat per active ray per pass.
            let mut mixed = wall_rays(40);
            for ray in mixed.iter_mut().take(10) {
                *ray = Ray::new(Vec3::new(100.0, 100.0, 0.0), Vec3::new(0.0, 0.0, -1.0));
            }
            let mixed_request = TraceRequest::closest_hit(&scene, &mixed);
            let mut mixed_reference = TraversalEngine::baseline();
            let mixed_expected = mixed_reference.trace(&mixed_request, &ExecPolicy::scalar());
            let capped = base.with_max_total_beats(45);
            let mut engine = TraversalEngine::baseline();
            match engine.try_trace(&mixed_request, &capped).unwrap() {
                QueryOutcome::Partial(partial) => {
                    let got = &partial.output;
                    assert_eq!(partial.completed, 10, "{}", base.mode);
                    assert_eq!(partial.total, mixed.len());
                    assert!(partial.beats_spent >= 45, "cap fires only once exceeded");
                    assert_eq!(
                        got.closest[..],
                        mixed_expected.closest[..got.closest.len()],
                        "{}: closest prefix diverged",
                        base.mode
                    );
                }
                QueryOutcome::Complete(_) => {
                    panic!("{}: 45 beats must not finish this request", base.mode)
                }
            }

            // A generous budget completes and matches the plain path exactly.
            let generous = base.with_max_total_beats(u64::MAX);
            let mut engine = TraversalEngine::baseline();
            let outcome = engine.try_trace(&request, &generous).unwrap();
            assert!(outcome.is_complete(), "{}", base.mode);
            assert_eq!(outcome.into_output(), expected, "{}", base.mode);
        }
    }

    #[test]
    fn request_accessors_expose_the_streams() {
        let triangles = wall();
        let scene = Scene::from_parts(Bvh4::build(&triangles), triangles.clone());
        let closest = wall_rays(3);
        let any = wall_rays(2);
        let request = TraceRequest::pair(&scene, &closest, &any);
        assert_eq!(request.closest_rays().len(), 3);
        assert_eq!(request.any_rays().len(), 2);
        assert_eq!(request.triangle_count(), triangles.len());
        assert!(TraceRequest::closest_hit(&scene, &closest)
            .any_rays()
            .is_empty());
        assert!(TraceRequest::any_hit(&scene, &any)
            .closest_rays()
            .is_empty());
    }
}
