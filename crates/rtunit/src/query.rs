//! The generic batched query engine: one wavefront scheduler for every query kind the RT unit
//! supports.
//!
//! PR 1 introduced a throughput-oriented wavefront frontend for closest-hit traversal: keep a
//! whole stream of queries in flight, build one request buffer per pass, dispatch it through
//! [`RayFlexDatapath::execute_batch_into`] in bulk, apply the responses, repeat until every query
//! retires.  That scheduling core is independent of *what* is being queried — the same loop
//! drives closest-hit rays, any-hit/shadow rays, primary-ray rendering and distance scoring —
//! so this module extracts it into a reusable pair:
//!
//! * [`BatchQuery`] — the per-item state machine a query kind implements: how to initialise an
//!   item, which beats it wants next, how a response advances it, and what it yields when it
//!   retires;
//! * [`WavefrontScheduler`] — the engine that owns the pooled per-item states and the reusable
//!   request/response/ownership buffers and runs any [`BatchQuery`] to completion against a
//!   datapath.
//!
//! Consumers instantiate the scheduler once and reuse it: a steady-state stream performs no
//! per-item allocation, exactly as the hand-rolled wavefront loop did.  Because the scheduler
//! preserves each item's own beat order (an item's beats are built in sequence, and the beats an
//! item appends within one pass stay adjacent in the batch), every query kind retains the
//! semantics — and, where a scalar reference exists, the bit-identical results and statistics —
//! of its scalar drive loop.
//!
//! Multi-beat accumulator jobs (the Euclidean/cosine distance operations) are safe under
//! interleaving *between* items precisely because of that adjacency guarantee: a distance query
//! appends all beats of one candidate in a single [`BatchQuery::build`] call, so the shared
//! accumulator sees each candidate's beat train contiguously and resets at its end, no matter
//! how many unrelated items share the pass.
//!
//! On top of the single-stream scheduler sits the **fused** layer: [`FusedScheduler`] owns any
//! number of type-erased [`FusedStream`]s — heterogeneous query kinds wrapped in
//! [`StreamRunner`]s — and merges their per-pass beats into *shared mixed-opcode bulk passes*
//! over one datapath, demuxing the responses back per stream.  Because each stream's own
//! build/apply order is exactly what it would be under a private [`WavefrontScheduler`] run (the
//! fused pass merely concatenates per-stream segments, and no datapath state crosses segment
//! boundaries mid-item), every stream's outputs and statistics are bit-identical to sequential
//! scheduling — pinned by `rtunit/tests/proptest_fused.rs` and by the scalar round-robin
//! reference mode ([`FusedScheduler::run_reference`]).

use rayflex_core::{Opcode, RayFlexDatapath, RayFlexRequest, RayFlexResponse};

use crate::policy::CoherenceMode;

pub use rayflex_core::QueryKind;

/// A batched query: a set of independent items, each advanced by datapath beats through a
/// per-item state machine.
///
/// The scheduler calls the methods in a fixed protocol, for each item `0..items()`:
///
/// 1. [`BatchQuery::reset`] once, on a pooled state of unknown previous content;
/// 2. [`BatchQuery::build`] once per pass while the item is active — append **at least one**
///    beat and return `true` to stay in flight, or append nothing and return `false` to retire
///    (beats appended by one call stay adjacent in the dispatched batch, in append order);
/// 3. [`BatchQuery::apply`] once per response to a beat the item appended, in append order;
/// 4. [`BatchQuery::finish`] once after the item retires, yielding its output.
///
/// Implementations update their own statistics (beat counts, node visits) inside `build`, which
/// keeps the per-item beat accounting identical to a scalar drive loop that issues the same
/// beats.
pub trait BatchQuery {
    /// Pooled per-item state.  `Default` provides the blank state the pool grows with; `reset`
    /// must fully re-initialise recycled states.
    type State: Default;
    /// What each item yields when it retires.
    type Output;

    /// The kind of query, for reports and diagnostics.
    fn kind(&self) -> QueryKind;

    /// Number of items in this run.
    fn items(&self) -> usize;

    /// Re-initialises a pooled state for `item`.
    fn reset(&mut self, item: usize, state: &mut Self::State);

    /// Appends the item's next beat(s) to `out` and returns `true`, or returns `false` (having
    /// appended nothing) to retire the item.
    fn build(
        &mut self,
        item: usize,
        state: &mut Self::State,
        out: &mut Vec<RayFlexRequest>,
    ) -> bool;

    /// Applies one response to a beat this item appended.
    fn apply(&mut self, item: usize, state: &mut Self::State, response: &RayFlexResponse);

    /// Extracts the item's output after it retired.
    fn finish(&mut self, item: usize, state: &mut Self::State) -> Self::Output;

    /// The coherence sort key of `item` (see [`CoherenceMode`](crate::CoherenceMode)): a
    /// coherence-enabled scheduler admits items in ascending key order, ties broken by item
    /// index.  The default — the item index itself — makes sorting a no-op, which is correct
    /// for every query; ray queries override it with an octant + origin-Morton key so
    /// like-minded rays build adjacent pass slots.  Keys are consulted once per run, before
    /// the first pass; because results are reassembled by item index, *any* key function is
    /// output-identical.
    fn sort_key(&self, item: usize) -> u64 {
        item as u64
    }

    /// Called once per run after coherent admission ordered the items (`order[slot] = item`, a
    /// permutation of `0..items()`): the query may physically gather its per-item operand tables
    /// into admission order and return `true`, after which the scheduler addresses `reset` /
    /// `build` / `apply` / `finish` by **admission slot** instead of item index.  The scheduler
    /// still reassembles outputs in item order, so opting in changes nothing observable — it
    /// merely turns the sorted run's per-item table walks sequential (the scheduler iterates
    /// slots in ascending order), instead of striding randomly through item-indexed storage.
    ///
    /// The default keeps item addressing, which is correct for every query; only queries with a
    /// non-identity [`BatchQuery::sort_key`] gain anything by opting in.  Never called when
    /// admission order is the identity (coherence off, or fewer than two items).
    fn reorder(&mut self, order: &[usize]) -> bool {
        let _ = order;
        false
    }
}

/// Flush threshold (in beats) of the schedulers' tiled pass dispatch: one logical pass is built,
/// dispatched and applied in tiles of roughly this many beats, so the request/response buffers
/// stay cache-resident instead of streaming a whole multi-thousand-beat pass through memory
/// three times (build-write, dispatch-read, apply-read).  Tiles flush only at item boundaries —
/// an item's beat train never splits — and pass accounting is per logical pass, not per tile
/// ([`RayFlexDatapath::record_pass`]), so pass counters and all outputs are tile-size-invariant;
/// only where same-opcode lane runs split moves.  At 1024 beats a tile's requests + responses
/// occupy ~264 KiB, comfortably inside per-core L2 (a measured sweet spot: smaller tiles split
/// more lane runs at tile boundaries, larger ones fall out of L2).
const PASS_TILE_BEATS: usize = 1024;

/// The result of a deadline-capped scheduler run ([`WavefrontScheduler::run_capped`]): the
/// outputs of the longest fully-retired item prefix, plus how far the run got.
///
/// The prefix discipline makes a cancelled run safe to consume: an item either appears with its
/// complete output — bit-identical to what the uncapped run returns for it, because
/// cancellation never alters a surviving item's beat sequence — or not at all.  Items that
/// happened to retire beyond the first still-active item are discarded rather than surfaced out
/// of order.
#[derive(Debug)]
pub struct CappedRun<T> {
    /// Outputs of the retired prefix, in item order (`total` outputs when `complete`).
    pub outputs: Vec<T>,
    /// Items the run was admitted with.
    pub total: usize,
    /// Beats the run dispatched before finishing or cancelling.
    pub beats: u64,
    /// `true` when every item retired — the cap (if any) never fired.
    pub complete: bool,
}

/// Progress report of a deadline-capped fused run ([`FusedScheduler::run_capped`] /
/// [`FusedScheduler::run_reference_capped`]): how many beats the run spent and whether every
/// stream drained.  A cancelled run leaves its streams mid-flight; extract each stream's
/// completed prefix with [`StreamRunner::finish_partial`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CappedFusedRun {
    /// Beats the run dispatched before finishing or cancelling.
    pub beats: u64,
    /// `true` when every stream drained — the cap (if any) never fired.
    pub complete: bool,
}

/// The wavefront scheduler: active-set management, pooled per-item state and reusable beat
/// buffers around [`RayFlexDatapath::execute_batch_into`], generic over the query kind.
///
/// One scheduler instance serves any number of runs; its pools and buffers amortise across them.
/// The type parameter is the pooled state, so an engine serving several query kinds with the
/// same state type (closest-hit and any-hit traversal, say) needs only one scheduler.
#[derive(Debug)]
pub struct WavefrontScheduler<S> {
    /// Pooled per-item states, recycled across runs.
    pool: Vec<S>,
    /// Reusable per-run state roster (one checked-out pooled state per item); parked empty
    /// between runs so a steady-state stream never reallocates it.
    states: Vec<S>,
    /// Reusable request buffer: one batch per pass.
    requests: Vec<RayFlexRequest>,
    /// Reusable response buffer, parallel to `requests` after dispatch.
    responses: Vec<RayFlexResponse>,
    /// Admission slot owning each in-flight beat (parallel to `requests`).
    beat_owner: Vec<usize>,
    /// Admission slots still in flight, always in ascending slot order (retirement compacts in
    /// place), so the build loop walks the state roster sequentially.
    active: Vec<usize>,
    /// The run's admission permutation: `order[slot] = item`.  Identity when coherence is off;
    /// otherwise the coherence sort of the item indices.  Results reassemble through it, so any
    /// admission order is output-identical.
    order: Vec<usize>,
    /// Inverse of `order` (`slot_of[item] = slot`): where an item's state lives in the roster.
    slot_of: Vec<usize>,
    /// Reusable per-item coherence keys (indexed by item; filled when sorting is on).
    keys: Vec<u64>,
    /// Reusable tail buffer of [`CoherenceMode::SortAndCompact`]: ray–triangle trains deferred
    /// behind the pass's other beats (cleared every pass by the append).
    deferred: Vec<RayFlexRequest>,
    /// Item owning each deferred beat (parallel to `deferred`).
    deferred_owner: Vec<usize>,
    /// Coherence discipline of subsequent runs (see [`WavefrontScheduler::set_coherence`]).
    coherence: CoherenceMode,
}

impl<S> Default for WavefrontScheduler<S> {
    fn default() -> Self {
        WavefrontScheduler {
            pool: Vec::new(),
            states: Vec::new(),
            requests: Vec::new(),
            responses: Vec::new(),
            beat_owner: Vec::new(),
            active: Vec::new(),
            order: Vec::new(),
            slot_of: Vec::new(),
            keys: Vec::new(),
            deferred: Vec::new(),
            deferred_owner: Vec::new(),
            coherence: CoherenceMode::Off,
        }
    }
}

impl<S: Default> WavefrontScheduler<S> {
    /// Creates an empty scheduler (pools grow on first use).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the coherence discipline of subsequent runs (see
    /// [`CoherenceMode`](crate::CoherenceMode)).  A directly-driven scheduler defaults to
    /// [`CoherenceMode::Off`] — caller admission order, exactly the pre-coherence behaviour;
    /// the policy engines wire [`ExecPolicy::coherence`](crate::ExecPolicy::coherence) through
    /// here.  Outputs and per-item statistics are identical in every mode.
    pub fn set_coherence(&mut self, coherence: CoherenceMode) {
        self.coherence = coherence;
    }

    /// Number of states currently parked in the pool (diagnostics / pooling tests).
    #[must_use]
    pub fn pooled_states(&self) -> usize {
        self.pool.len()
    }

    /// Runs `query` to completion against `datapath`, returning one output per item in item
    /// order.
    ///
    /// Every pass builds the beats of all active items into one request buffer, dispatches them
    /// in bulk, and applies the responses to the owning items.  Items retire in place; the run
    /// ends when no item is active.
    ///
    /// # Panics
    ///
    /// Panics if a beat's opcode is not supported by the datapath configuration (propagated from
    /// [`RayFlexDatapath::execute_batch_into`]).
    pub fn run<Q>(&mut self, datapath: &mut RayFlexDatapath, query: &mut Q) -> Vec<Q::Output>
    where
        Q: BatchQuery<State = S>,
    {
        self.run_capped(datapath, query, 0).outputs
    }

    /// Runs `query` like [`WavefrontScheduler::run`], but cooperatively cancels at the first
    /// pass boundary where the run has spent at least `max_total_beats` datapath beats
    /// (`0` disables the cap — the run is then identical to [`WavefrontScheduler::run`]).
    ///
    /// Cancellation is **cooperative**: the check sits at the top of the pass loop, so the pass
    /// in flight when the budget crosses the line completes, and the run may overshoot the cap
    /// by that pass's beats.  With a cap of at least one, the first pass always executes, so a
    /// capped run always makes forward progress.  A cancelled run yields the outputs of the
    /// longest fully-retired item prefix (see [`CappedRun`]); cancelled items' states never
    /// surface — a mid-flight traversal's "best hit so far" is not a result.
    ///
    /// # Panics
    ///
    /// Panics if a beat's opcode is not supported by the datapath configuration (propagated from
    /// [`RayFlexDatapath::execute_batch_into`]).
    pub fn run_capped<Q>(
        &mut self,
        datapath: &mut RayFlexDatapath,
        query: &mut Q,
        max_total_beats: u64,
    ) -> CappedRun<Q::Output>
    where
        Q: BatchQuery<State = S>,
    {
        let items = query.items();

        // Coherent admission: compute the run's admission order once — identity, or the
        // coherence sort of the item indices by the query's key (ties broken by item index, so
        // identity keys keep caller order and the sort is deterministic).  Results reassemble
        // through the permutation, so any admission order is output-identical — only which pass
        // slot a ray occupies moves.
        self.order.clear();
        self.order.extend(0..items);
        let mut slot_addressed = false;
        if self.coherence != CoherenceMode::Off && items > 1 {
            self.keys.clear();
            self.keys
                .extend((0..items).map(|item| query.sort_key(item)));
            let keys = &self.keys;
            self.order.sort_unstable_by_key(|&item| (keys[item], item));
            // A query that gathers its operand tables into admission order is addressed by
            // slot from here on (see `BatchQuery::reorder`).
            slot_addressed = query.reorder(&self.order);
        }
        self.slot_of.clear();
        self.slot_of.resize(items, 0);
        for (slot, &item) in self.order.iter().enumerate() {
            self.slot_of[item] = slot;
        }

        // Check out one pooled state per item into the reusable roster (taken out of `self` so
        // `query.build` can borrow a state while the pass buffers are borrowed too).  The roster
        // is indexed by admission slot — `states[slot]` belongs to item `order[slot]` — so the
        // build loop, which walks active slots in ascending order, touches it sequentially.
        let mut states = core::mem::take(&mut self.states);
        states.clear();
        states.reserve(items);
        for slot in 0..items {
            let mut state = self.pool.pop().unwrap_or_default();
            query.reset(
                if slot_addressed {
                    slot
                } else {
                    self.order[slot]
                },
                &mut state,
            );
            states.push(state);
        }

        self.active.clear();
        self.active.extend(0..items);
        crate::fault::scramble_checkpoint(&mut self.active);
        let bucketed = self.coherence == CoherenceMode::SortAndCompact;
        // Which bucket trains build into directly (the other side pays a move-out copy); adapted
        // per tile to the observed mix so the copy always lands on the minority opcode.  `false`
        // to start: a traversal run's first pass is all root box beats.
        let mut tri_direct = false;
        let kind = query.kind();

        let mut beats_spent = 0u64;
        let mut cancelled = false;
        while !self.active.is_empty() {
            // The pass boundary is the cooperative cancellation point of the deadline knob.
            if max_total_beats != 0 && beats_spent >= max_total_beats {
                cancelled = true;
                break;
            }

            // One logical pass, dispatched in cache-resident tiles (see [`PASS_TILE_BEATS`]):
            // each active item appends its next beat(s) — items with no further beats retire in
            // place — and every time the tile fills, it is dispatched and its responses applied
            // before the build resumes.  Applying a tile early is invisible to the items: a
            // response only ever touches its own item's state, and an item builds exactly once
            // per pass either way.
            let total = self.active.len();
            let mut pass_beats = 0usize;
            let mut pass_counted = false;
            let mut still_active = 0usize;
            let mut cursor = 0usize;
            while cursor < total {
                self.requests.clear();
                self.beat_owner.clear();
                self.deferred.clear();
                self.deferred_owner.clear();
                while cursor < total && self.requests.len() + self.deferred.len() < PASS_TILE_BEATS
                {
                    let slot = self.active[cursor];
                    cursor += 1;
                    let index = if slot_addressed {
                        slot
                    } else {
                        self.order[slot]
                    };
                    // Opcode bucketing ([`CoherenceMode::SortAndCompact`]): the tile keeps two
                    // buckets — mixed/box beats in `requests`, all-triangle trains in
                    // `deferred` — so box beats pack adjacently (eight-wide pairs) and triangle
                    // trains concatenate into long same-opcode runs.  Trains build straight
                    // into whichever bucket dominated the previous tile (`tri_direct`) and the
                    // minority trains move out, so the common case never copies on either a
                    // leaf-grinding or a node-hopping workload.  Safe because a train moves
                    // intact (per-item beat order unchanged) and ray beats are stateless — only
                    // the accumulator-chained distance beats order across items, and those are
                    // never bucketed.
                    let out = if bucketed && tri_direct {
                        &mut self.deferred
                    } else {
                        &mut self.requests
                    };
                    let before = out.len();
                    if query.build(index, &mut states[slot], out) {
                        debug_assert!(
                            out.len() > before,
                            "{kind} query item {index} stayed active without appending a beat",
                        );
                        if bucketed {
                            if tri_direct {
                                if self.deferred[before..]
                                    .iter()
                                    .all(|r| r.opcode == Opcode::RayTriangle)
                                {
                                    self.deferred_owner.resize(self.deferred.len(), slot);
                                } else {
                                    self.requests.extend(self.deferred.drain(before..));
                                    self.beat_owner.resize(self.requests.len(), slot);
                                }
                            } else if self.requests[before..]
                                .iter()
                                .all(|r| r.opcode == Opcode::RayTriangle)
                            {
                                self.deferred.extend(self.requests.drain(before..));
                                self.deferred_owner.resize(self.deferred.len(), slot);
                            } else {
                                self.beat_owner.resize(self.requests.len(), slot);
                            }
                        } else {
                            self.beat_owner.resize(self.requests.len(), slot);
                        }
                        self.active[still_active] = slot;
                        still_active += 1;
                    } else {
                        debug_assert_eq!(
                            if bucketed && tri_direct {
                                self.deferred.len()
                            } else {
                                self.requests.len()
                            },
                            before,
                            "{kind} query item {index} appended beats while retiring",
                        );
                    }
                }
                let tile_beats = self.requests.len() + self.deferred.len();
                if tile_beats == 0 {
                    continue;
                }
                if !pass_counted {
                    // Pass accounting is per logical pass, not per tile, so the BeatMix pass
                    // counters match the untiled schedule exactly.
                    datapath.record_pass(&[(kind, tile_beats)]);
                    pass_counted = true;
                }
                pass_beats += tile_beats;

                // Dispatch and apply the buckets back to back: mixed/box beats first, triangle
                // trains behind them — the same beat order the single-buffer schedule had, just
                // without physically concatenating the buckets.  No lane run spans the bucket
                // boundary (the buckets hold different opcodes), so lane accounting is
                // unchanged, and apply order across items never matters (per-item state only).
                for (chunk, owners) in [
                    (&self.requests, &self.beat_owner),
                    (&self.deferred, &self.deferred_owner),
                ] {
                    if chunk.is_empty() {
                        continue;
                    }
                    datapath.execute_pass_chunk(chunk, kind, &mut self.responses);
                    for (response, &slot) in self.responses.iter().zip(owners) {
                        let index = if slot_addressed {
                            slot
                        } else {
                            self.order[slot]
                        };
                        query.apply(index, &mut states[slot], response);
                    }
                }
                tri_direct = self.deferred.len() > self.requests.len();
            }
            self.active.truncate(still_active);
            if pass_beats == 0 {
                break;
            }
            beats_spent += pass_beats as u64;
        }

        // The retired prefix ends at the lowest still-active item (coherent admission may
        // reorder the admission slots, so "first" is not "lowest" in general).
        let retired_prefix = if cancelled {
            self.active
                .iter()
                .map(|&slot| self.order[slot])
                .min()
                .unwrap_or(items)
        } else {
            items
        };

        // Collect the prefix outputs in item order, return every state (finished or not) to the
        // pool, and park the emptied roster for the next run.
        let mut outputs = Vec::with_capacity(retired_prefix);
        for item in 0..retired_prefix {
            let slot = self.slot_of[item];
            outputs.push(query.finish(if slot_addressed { slot } else { item }, &mut states[slot]));
        }
        self.pool.append(&mut states);
        self.states = states;
        CappedRun {
            outputs,
            total: items,
            beats: beats_spent,
            complete: !cancelled,
        }
    }
}

/// A type-erased query stream inside a fused run: the object-safe face of a
/// [`StreamRunner`], which is how heterogeneous [`BatchQuery`] implementations (different state
/// and output types) share one [`FusedScheduler`] pass schedule.
///
/// The scheduler drives the protocol: [`FusedStream::start`] once, then per pass one
/// [`FusedStream::build_pass`] (append this stream's beats for the pass, returning how many) and
/// one [`FusedStream::apply_pass`] (consume exactly that many responses), until
/// [`FusedStream::is_active`] turns false.  Streams never see each other's beats.
pub trait FusedStream {
    /// The query kind of this stream, for pass-segment attribution.
    fn kind(&self) -> QueryKind;

    /// (Re-)initialises every item of the stream; called once when a fused run begins.
    fn start(&mut self);

    /// `true` while any item of the stream is still in flight.
    fn is_active(&self) -> bool;

    /// Appends the next beat(s) of active items to `out` (retiring items with no further beats)
    /// and returns the number of beats appended.
    ///
    /// `max_beats` is the scheduler's per-stream admission budget for this pass
    /// ([`FusedScheduler::set_beat_budget`]): `0` admits every active item, a positive
    /// budget stops admitting items once the pass segment holds at least that many beats.  An
    /// item's whole beat train is always admitted together (never split across passes), so the
    /// segment may overshoot the budget by the last admitted item's tail; items past the budget
    /// simply stay in flight, in order, for the next pass.  Budgeting changes *which pass*
    /// carries a beat, never an item's own beat sequence — outputs and per-stream statistics are
    /// budget-invariant.
    fn build_pass(&mut self, out: &mut Vec<RayFlexRequest>, max_beats: usize) -> usize;

    /// Applies the responses to the beats this stream appended in the matching
    /// [`FusedStream::build_pass`] call, in append order.
    fn apply_pass(&mut self, responses: &[RayFlexResponse]);
}

/// Owns one [`BatchQuery`] and its per-item states for the duration of a fused run, implementing
/// the type-erased [`FusedStream`] protocol over it.
///
/// A runner reproduces the [`WavefrontScheduler`] build/apply loop for its own query exactly —
/// same per-item beat order, same retire-in-place active set — so running several runners fused
/// yields per-stream results bit-identical to running each query alone.  After the run drains,
/// [`StreamRunner::finish`] yields the query back (for its statistics) together with one output
/// per item.
#[derive(Debug)]
pub struct StreamRunner<Q: BatchQuery> {
    query: Q,
    /// Per-item states, indexed by admission slot (`states[slot]` belongs to item
    /// `order[slot]`), so the build loop walks them in admission order.
    states: Vec<Q::State>,
    /// Admission slots still in flight, in admission order.
    active: Vec<usize>,
    /// `(admission slot, beat count)` of each item's beat train in the current pass, in pass
    /// order (cleared per pass; one entry per item, so it never grows with the beat count).
    spans: Vec<(usize, usize)>,
    /// The run's admission permutation (`order[slot] = item`); identity when coherence is off.
    order: Vec<usize>,
    /// Inverse of `order` (`slot_of[item] = slot`).
    slot_of: Vec<usize>,
    /// Whether the query opted into admission-slot addressing (see [`BatchQuery::reorder`]).
    slot_addressed: bool,
    /// Reusable per-item coherence keys (indexed by item; filled when sorting is on).
    keys: Vec<u64>,
    /// Reusable tail buffer of [`CoherenceMode::SortAndCompact`]: ray–triangle trains deferred
    /// behind this stream's other beats of the pass (drained back every pass).
    deferred: Vec<RayFlexRequest>,
    /// `(admission slot, beat count)` of each deferred train, in `deferred` order.
    deferred_spans: Vec<(usize, usize)>,
    /// Coherence discipline of subsequent runs (see [`StreamRunner::set_coherence`]).
    coherence: CoherenceMode,
    started: bool,
}

impl<Q: BatchQuery> StreamRunner<Q> {
    /// Wraps a query for fused scheduling.  Items are initialised lazily by
    /// [`FusedStream::start`] when a run begins.
    #[must_use]
    pub fn new(query: Q) -> Self {
        StreamRunner {
            query,
            states: Vec::new(),
            active: Vec::new(),
            spans: Vec::new(),
            order: Vec::new(),
            slot_of: Vec::new(),
            slot_addressed: false,
            keys: Vec::new(),
            deferred: Vec::new(),
            deferred_spans: Vec::new(),
            coherence: CoherenceMode::Off,
            started: false,
        }
    }

    /// Sets the coherence discipline of subsequent runs (see
    /// [`CoherenceMode`](crate::CoherenceMode) and [`WavefrontScheduler::set_coherence`]);
    /// defaults to [`CoherenceMode::Off`].  Takes effect at the next [`FusedStream::start`].
    pub fn set_coherence(&mut self, coherence: CoherenceMode) {
        self.coherence = coherence;
    }

    /// Builder form of [`StreamRunner::set_coherence`].
    #[must_use]
    pub fn with_coherence(mut self, coherence: CoherenceMode) -> Self {
        self.set_coherence(coherence);
        self
    }

    /// Extracts the query and one output per item after the run drained the stream.
    ///
    /// # Panics
    ///
    /// Panics if the stream was never run or still has items in flight.
    #[must_use]
    pub fn finish(mut self) -> (Q, Vec<Q::Output>) {
        assert!(
            self.started && self.active.is_empty(),
            "a fused stream must be run to completion before finishing"
        );
        let total = self.states.len();
        let mut outputs = Vec::with_capacity(total);
        for item in 0..total {
            let slot = self.slot_of[item];
            let index = if self.slot_addressed { slot } else { item };
            outputs.push(self.query.finish(index, &mut self.states[slot]));
        }
        (self.query, outputs)
    }

    /// The partial-aware sibling of [`StreamRunner::finish`]: extracts the query, the outputs
    /// of the longest fully-retired item prefix, and the stream's total item count, after a
    /// deadline-capped run that may have cancelled the stream mid-flight
    /// ([`FusedScheduler::run_capped`]).
    ///
    /// Items still in flight never surface (their states hold mid-traversal partial answers);
    /// retired items *beyond* the first in-flight one are discarded so the result is a true
    /// prefix.  On a stream that actually drained, this equals [`StreamRunner::finish`].
    ///
    /// # Panics
    ///
    /// Panics if the stream was never run.
    #[must_use]
    pub fn finish_partial(mut self) -> (Q, Vec<Q::Output>, usize) {
        assert!(
            self.started,
            "a fused stream must be run before finishing partially"
        );
        let total = self.states.len();
        // The lowest still-active item bounds the retired prefix (coherent admission may
        // reorder the admission slots, so "first" is not "lowest" in general).
        let prefix = self
            .active
            .iter()
            .map(|&slot| self.order[slot])
            .min()
            .unwrap_or(total);
        let mut outputs = Vec::with_capacity(prefix);
        for item in 0..prefix {
            let slot = self.slot_of[item];
            let index = if self.slot_addressed { slot } else { item };
            outputs.push(self.query.finish(index, &mut self.states[slot]));
        }
        (self.query, outputs, total)
    }
}

impl<Q: BatchQuery> FusedStream for StreamRunner<Q> {
    fn kind(&self) -> QueryKind {
        self.query.kind()
    }

    fn start(&mut self) {
        let items = self.query.items();
        // Coherent admission, exactly as in `WavefrontScheduler::run_capped`: one sort of the
        // admission permutation up front, output-identical by construction.
        self.order.clear();
        self.order.extend(0..items);
        self.slot_addressed = false;
        if self.coherence != CoherenceMode::Off && items > 1 {
            self.keys.clear();
            let query = &self.query;
            self.keys
                .extend((0..items).map(|item| query.sort_key(item)));
            let keys = &self.keys;
            self.order.sort_unstable_by_key(|&item| (keys[item], item));
            self.slot_addressed = self.query.reorder(&self.order);
        }
        self.slot_of.clear();
        self.slot_of.resize(items, 0);
        for (slot, &item) in self.order.iter().enumerate() {
            self.slot_of[item] = slot;
        }
        self.states.clear();
        self.states.resize_with(items, Q::State::default);
        for slot in 0..items {
            let index = if self.slot_addressed {
                slot
            } else {
                self.order[slot]
            };
            self.query.reset(index, &mut self.states[slot]);
        }
        self.active.clear();
        self.active.extend(0..items);
        crate::fault::scramble_checkpoint(&mut self.active);
        self.started = true;
    }

    fn is_active(&self) -> bool {
        !self.active.is_empty()
    }

    fn build_pass(&mut self, out: &mut Vec<RayFlexRequest>, max_beats: usize) -> usize {
        let pass_start = out.len();
        debug_assert!(self.deferred.is_empty());
        let bucketed = self.coherence == CoherenceMode::SortAndCompact;
        let total = self.active.len();
        self.spans.clear();
        self.spans.reserve(total);
        if bucketed {
            self.deferred_spans.reserve(total);
        }
        let mut still_active = 0;
        let mut processed = 0;
        while processed < total {
            // Budget admission: stop (leaving the rest of the active list untouched, in order)
            // once this pass's segment — built beats plus the deferred triangle tail — reached
            // the per-stream beat budget.
            if max_beats != 0 && (out.len() - pass_start) + self.deferred.len() >= max_beats {
                break;
            }
            let slot = self.active[processed];
            let index = if self.slot_addressed {
                slot
            } else {
                self.order[slot]
            };
            let before = out.len();
            if self.query.build(index, &mut self.states[slot], out) {
                debug_assert!(
                    out.len() > before,
                    "{} stream item {index} stayed active without appending a beat",
                    self.query.kind()
                );
                if bucketed
                    && out[before..]
                        .iter()
                        .all(|r| r.opcode == Opcode::RayTriangle)
                {
                    // Opcode bucketing within this stream's segment (see the matching branch
                    // in `WavefrontScheduler::run_capped`): the train moves intact to the
                    // segment tail, never across the segment boundary.
                    self.deferred_spans.push((slot, out.len() - before));
                    self.deferred.extend(out.drain(before..));
                } else {
                    self.spans.push((slot, out.len() - before));
                }
                self.active[still_active] = slot;
                still_active += 1;
            } else {
                debug_assert_eq!(
                    out.len(),
                    before,
                    "{} stream item {index} appended beats while retiring",
                    self.query.kind()
                );
            }
            processed += 1;
        }
        // Compact: survivors of the processed prefix, then the unprocessed (budget-deferred)
        // suffix — relative item order is preserved either way.
        if processed < total {
            self.active.copy_within(processed..total, still_active);
        }
        self.active.truncate(still_active + (total - processed));
        // Append the deferred triangle trains behind the segment's other beats.
        out.append(&mut self.deferred);
        self.spans.append(&mut self.deferred_spans);
        out.len() - pass_start
    }

    fn apply_pass(&mut self, responses: &[RayFlexResponse]) {
        debug_assert_eq!(
            responses.len(),
            self.spans.iter().map(|&(_, beats)| beats).sum::<usize>()
        );
        let mut offset = 0;
        for &(slot, beats) in &self.spans {
            let index = if self.slot_addressed {
                slot
            } else {
                self.order[slot]
            };
            for response in &responses[offset..offset + beats] {
                self.query.apply(index, &mut self.states[slot], response);
            }
            offset += beats;
        }
    }
}

/// Implements [`FusedStream`] for a public stream wrapper by delegating every method to its
/// `runner: StreamRunner<_>` field (which implements the trait itself).  The traversal, distance
/// and collection wrappers all forward identically; the macro keeps the protocol in one place.
/// Use the bracketed form to introduce generic parameters:
/// `delegate_fused_stream_to_runner!([C: AsRef<[f32]>] DistanceStream<'_, C>);`.
macro_rules! delegate_fused_stream_to_runner {
    ([$($generics:tt)*] $ty:ty) => {
        impl<$($generics)*> $crate::query::FusedStream for $ty {
            fn kind(&self) -> $crate::query::QueryKind {
                $crate::query::FusedStream::kind(&self.runner)
            }
            fn start(&mut self) {
                $crate::query::FusedStream::start(&mut self.runner);
            }
            fn is_active(&self) -> bool {
                $crate::query::FusedStream::is_active(&self.runner)
            }
            fn build_pass(
                &mut self,
                out: &mut Vec<rayflex_core::RayFlexRequest>,
                max_beats: usize,
            ) -> usize {
                $crate::query::FusedStream::build_pass(&mut self.runner, out, max_beats)
            }
            fn apply_pass(&mut self, responses: &[rayflex_core::RayFlexResponse]) {
                $crate::query::FusedStream::apply_pass(&mut self.runner, responses);
            }
        }
    };
    ($ty:ty) => {
        $crate::query::delegate_fused_stream_to_runner!([] $ty);
    };
}
pub(crate) use delegate_fused_stream_to_runner;

/// The fused multi-stream scheduler: merges the per-pass beats of N concurrent query streams —
/// of *different* query kinds — into shared mixed-opcode bulk passes over a single datapath, and
/// demuxes the responses back per stream.
///
/// This is the software model of the paper's unified RT unit (§V-A) under a realistic
/// multi-workload mix: one datapath time-multiplexes a closest-hit bounce stream, its shadow
/// rays, distance scoring and BVH candidate collection within the *same* passes, instead of each
/// workload getting an exclusive pass sequence.  Scheduling rules:
///
/// * **Stream admission** — all streams of a run are admitted up front ([`FusedScheduler::run`]
///   takes the full set) and started together; a stream that drains early simply stops
///   contributing beats while the others continue.  With a **per-stream beat budget**
///   ([`FusedScheduler::set_beat_budget`], the [`ExecPolicy`](crate::ExecPolicy) fairness knob),
///   each stream contributes at most that many beats per pass — `1` models strict round-robin
///   QoS between concurrent workloads, `0` the classic unlimited discipline — without changing
///   any stream's outputs or statistics (only the pass structure moves).
/// * **Pass merging** — each pass concatenates the streams' beat segments in admission order
///   into one request buffer and dispatches it with a single
///   [`RayFlexDatapath::execute_batch_segmented`] call, which attributes every beat to its
///   stream's [`QueryKind`] in the per-kind `BeatMix` table (and counts the pass as *fused* when
///   at least two kinds contributed).
/// * **Per-stream bit-identity** — a stream's own beat order is untouched by fusion (segments
///   are contiguous, items never interleave within a `build` call, and the datapath carries no
///   state across beats except the distance accumulators, whose beat trains stay contiguous
///   inside one segment), so outputs and per-stream statistics equal sequential scheduling
///   exactly.
///
/// The buffers are reusable across runs; a steady-state fused workload performs no per-pass
/// allocation.
#[derive(Debug, Default)]
pub struct FusedScheduler {
    /// Reusable merged request buffer: one mixed-kind batch per pass.
    requests: Vec<RayFlexRequest>,
    /// Reusable response buffer, parallel to `requests` after dispatch.
    responses: Vec<RayFlexResponse>,
    /// `(kind, beat_count)` per stream for the current pass, in admission order.
    segments: Vec<(QueryKind, usize)>,
    /// Per-stream beat budget per pass (`0` = unlimited); see
    /// [`FusedScheduler::set_beat_budget`].
    beat_budget_per_stream: usize,
    /// Admission ordering of the shared passes; see [`FusedScheduler::set_admission_order`].
    admission_order: crate::policy::AdmissionOrder,
    /// Per-stream deadlines (in caller units; `0` = none) keyed by stream index, consulted by
    /// [`AdmissionOrder::EarliestDeadlineFirst`](crate::AdmissionOrder::EarliestDeadlineFirst);
    /// see [`FusedScheduler::set_stream_deadlines`].
    stream_deadlines: Vec<u64>,
    /// Reusable admission-order buffer: `order[position] = stream index`, recomputed per run.
    order: Vec<usize>,
    /// Passes dispatched by the most recent run.
    last_run_passes: u64,
    /// Passes each stream contributed at least one beat to, in admission order, for the most
    /// recent run.
    stream_passes: Vec<u64>,
}

impl FusedScheduler {
    /// Creates an empty fused scheduler (buffers grow on first use, no beat budget).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder form of [`FusedScheduler::set_beat_budget`].
    #[must_use]
    pub fn with_beat_budget(mut self, beats_per_stream_per_pass: usize) -> Self {
        self.set_beat_budget(beats_per_stream_per_pass);
        self
    }

    /// Sets the per-stream admission budget: the maximum beats any one stream contributes to one
    /// shared pass.  `0` (the default) admits every active item each pass; `1` is strict
    /// round-robin — each stream advances one item's beat train per pass.  An item's beat train
    /// is never split, so a segment may overshoot the budget by the last train's tail.  The
    /// budget is pure pass-structure fairness: per-stream outputs and statistics are identical
    /// at every budget (pinned by `rtunit/tests/proptest_policy.rs`).
    pub fn set_beat_budget(&mut self, beats_per_stream_per_pass: usize) {
        self.beat_budget_per_stream = beats_per_stream_per_pass;
    }

    /// The configured per-stream beat budget (`0` = unlimited).
    #[must_use]
    pub fn beat_budget(&self) -> usize {
        self.beat_budget_per_stream
    }

    /// Sets the admission ordering of the shared passes (see
    /// [`AdmissionOrder`](crate::AdmissionOrder)): with
    /// [`EarliestDeadlineFirst`](crate::AdmissionOrder::EarliestDeadlineFirst), every pass
    /// builds and issues its stream segments in ascending order of the deadlines registered by
    /// [`FusedScheduler::set_stream_deadlines`] (deadline `0` = none = last, ties by stream
    /// index) instead of slice order.  Pure issue-order policy: per-stream outputs and
    /// statistics are admission-order-invariant (pinned by `rtunit/tests/proptest_policy.rs`).
    pub fn set_admission_order(&mut self, order: crate::policy::AdmissionOrder) {
        self.admission_order = order;
    }

    /// Builder form of [`FusedScheduler::set_admission_order`].
    #[must_use]
    pub fn with_admission_order(mut self, order: crate::policy::AdmissionOrder) -> Self {
        self.set_admission_order(order);
        self
    }

    /// Registers per-stream deadlines for
    /// [`EarliestDeadlineFirst`](crate::AdmissionOrder::EarliestDeadlineFirst) admission:
    /// `deadlines[i]` belongs to `streams[i]` of the next run, in any caller unit where smaller
    /// means more urgent (`0` = no deadline, sorts last).  Streams past the end of the slice
    /// carry no deadline.  The registration persists across runs until replaced.
    pub fn set_stream_deadlines(&mut self, deadlines: &[u64]) {
        self.stream_deadlines.clear();
        self.stream_deadlines.extend_from_slice(deadlines);
    }

    /// The admission order of the most recent run: `order[position] = stream index`, the order
    /// segments were built and issued within each shared pass.  Identity under
    /// [`Fifo`](crate::AdmissionOrder::Fifo) or when no deadlines distinguish the streams.
    #[must_use]
    pub fn last_run_admission(&self) -> &[usize] {
        &self.order
    }

    /// Computes the run's admission order into `self.order`: identity for FIFO, or a stable
    /// (deadline, index) sort for earliest-deadline-first.
    fn admit(&mut self, stream_count: usize) {
        self.order.clear();
        self.order.extend(0..stream_count);
        if self.admission_order == crate::policy::AdmissionOrder::EarliestDeadlineFirst {
            let deadlines = &self.stream_deadlines;
            self.order.sort_by_key(|&index| {
                let deadline = deadlines
                    .get(index)
                    .copied()
                    .filter(|&deadline| deadline != 0)
                    .unwrap_or(u64::MAX);
                (deadline, index)
            });
        }
    }

    /// Number of bulk passes the most recent run dispatched (diagnostics).
    #[must_use]
    pub fn last_run_passes(&self) -> u64 {
        self.last_run_passes
    }

    /// How many passes each stream of the most recent run contributed at least one beat to, in
    /// admission order — the per-stream fairness fingerprint a beat budget reshapes (pinned for
    /// the mixed workload by the golden-counter tests).
    #[must_use]
    pub fn last_run_stream_passes(&self) -> &[u64] {
        &self.stream_passes
    }

    /// Runs every stream to completion against `datapath`, merging their beats into shared bulk
    /// passes.  After this returns, each [`StreamRunner`] holds its finished items; call
    /// [`StreamRunner::finish`] to extract the outputs.
    ///
    /// # Panics
    ///
    /// Panics if a beat's opcode is not supported by the datapath configuration.
    pub fn run(&mut self, datapath: &mut RayFlexDatapath, streams: &mut [&mut dyn FusedStream]) {
        let progress = self.run_capped(datapath, streams, 0);
        debug_assert!(progress.complete, "an uncapped fused run always completes");
    }

    /// Runs the streams like [`FusedScheduler::run`], but cooperatively cancels at the first
    /// shared-pass boundary where the run has spent at least `max_total_beats` datapath beats
    /// (`0` disables the cap).  The first pass always executes; a cancelled run leaves streams
    /// mid-flight — extract each stream's completed prefix with [`StreamRunner::finish_partial`].
    ///
    /// # Panics
    ///
    /// Panics if a beat's opcode is not supported by the datapath configuration.
    pub fn run_capped(
        &mut self,
        datapath: &mut RayFlexDatapath,
        streams: &mut [&mut dyn FusedStream],
        max_total_beats: u64,
    ) -> CappedFusedRun {
        for stream in streams.iter_mut() {
            stream.start();
        }
        self.admit(streams.len());
        self.last_run_passes = 0;
        self.stream_passes.clear();
        self.stream_passes.resize(streams.len(), 0);
        let mut beats_spent = 0u64;
        while streams.iter().any(|stream| stream.is_active()) {
            // The shared-pass boundary is the cooperative cancellation point.
            if max_total_beats != 0 && beats_spent >= max_total_beats {
                return CappedFusedRun {
                    beats: beats_spent,
                    complete: false,
                };
            }

            // Build phase: every stream appends its (budget-limited) segment of the merged
            // pass, in admission order (slice order, or earliest-deadline-first).
            self.requests.clear();
            self.segments.clear();
            for &index in &self.order {
                let stream = &mut *streams[index];
                let beats = stream.build_pass(&mut self.requests, self.beat_budget_per_stream);
                self.segments.push((stream.kind(), beats));
                self.stream_passes[index] += u64::from(beats > 0);
            }
            if self.requests.is_empty() {
                // Every remaining item retired during the build (beatless drains exist — a
                // collection item whose whole subtree is leaves, say).
                break;
            }
            self.last_run_passes += 1;
            beats_spent += self.requests.len() as u64;

            // One bulk dispatch for the merged mixed-kind pass.
            datapath.execute_batch_segmented(&self.requests, &self.segments, &mut self.responses);

            // Demux phase: hand each stream its contiguous slice of the responses, walking the
            // same admission order the build phase used.
            let mut offset = 0;
            for (&index, &(_, beats)) in self.order.iter().zip(&self.segments) {
                streams[index].apply_pass(&self.responses[offset..offset + beats]);
                offset += beats;
            }
        }
        CappedFusedRun {
            beats: beats_spent,
            complete: true,
        }
    }

    /// The scalar round-robin reference mode of [`FusedScheduler::run`]: the same pass schedule
    /// (including the configured beat budget) and the same per-stream beat orders, but every
    /// beat executes one at a time through the register-accurate emulated path
    /// ([`RayFlexDatapath::execute_attributed`]) with the streams taking turns pass by pass — no
    /// bulk dispatch at all.
    ///
    /// Per-stream outputs and statistics are bit-identical to [`FusedScheduler::run`] (the
    /// fast batched model and the emulated model are bit-equal by `core`'s property tests, and
    /// the beat order is the same), which is what the fused property tests pin.  Beats executed
    /// here count toward the per-kind `BeatMix` attribution but not toward pass counters.
    ///
    /// # Panics
    ///
    /// Panics if a beat's opcode is not supported by the datapath configuration.
    pub fn run_reference(
        &mut self,
        datapath: &mut RayFlexDatapath,
        streams: &mut [&mut dyn FusedStream],
    ) {
        let progress = self.run_reference_capped(datapath, streams, 0);
        debug_assert!(
            progress.complete,
            "an uncapped reference run always completes"
        );
    }

    /// The deadline-capped sibling of [`FusedScheduler::run_reference`]: the same scalar
    /// round-robin schedule, cooperatively cancelled at the first round boundary where the run
    /// has spent at least `max_total_beats` emulated beats (`0` disables the cap).  Used as the
    /// capped [`ScalarReference`](crate::ExecMode::ScalarReference) discipline so scalar and
    /// batched capped runs share the same pass-boundary cancellation semantics.
    ///
    /// # Panics
    ///
    /// Panics if a beat's opcode is not supported by the datapath configuration.
    pub fn run_reference_capped(
        &mut self,
        datapath: &mut RayFlexDatapath,
        streams: &mut [&mut dyn FusedStream],
        max_total_beats: u64,
    ) -> CappedFusedRun {
        for stream in streams.iter_mut() {
            stream.start();
        }
        self.admit(streams.len());
        self.last_run_passes = 0;
        self.stream_passes.clear();
        self.stream_passes.resize(streams.len(), 0);
        let mut beats_spent = 0u64;
        while streams.iter().any(|stream| stream.is_active()) {
            // The round boundary is the reference discipline's pass boundary.
            if max_total_beats != 0 && beats_spent >= max_total_beats {
                return CappedFusedRun {
                    beats: beats_spent,
                    complete: false,
                };
            }
            // Round-robin: each stream in turn (in admission order) builds its (budget-limited)
            // pass segment and has it executed beat by beat before the next stream takes over.
            // The scheduler-side pass accounting mirrors `run` (one scheduled round = one pass,
            // per-stream contributions counted) even though the datapath's own bulk-pass
            // counters stay at zero — no bulk dispatch ever happens here.
            let mut round_had_beats = false;
            for order_position in 0..self.order.len() {
                let index = self.order[order_position];
                let stream = &mut *streams[index];
                self.requests.clear();
                let beats = stream.build_pass(&mut self.requests, self.beat_budget_per_stream);
                if beats == 0 {
                    continue;
                }
                round_had_beats = true;
                self.stream_passes[index] += 1;
                beats_spent += beats as u64;
                self.responses.clear();
                for request in &self.requests {
                    self.responses
                        .push(datapath.execute_attributed(request, stream.kind()));
                }
                stream.apply_pass(&self.responses);
            }
            self.last_run_passes += u64::from(round_had_beats);
        }
        CappedFusedRun {
            beats: beats_spent,
            complete: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayflex_core::PipelineConfig;
    use rayflex_geometry::{Aabb, Ray, Vec3};

    /// A toy query: each item tests its ray against one box per pass, for `rounds` passes, and
    /// counts hits.
    struct CountingQuery {
        kind: QueryKind,
        rays: Vec<Ray>,
        boxes: [Aabb; 4],
        rounds: usize,
        built: usize,
    }

    #[derive(Debug, Default)]
    struct CountingState {
        remaining: usize,
        hits: usize,
    }

    impl BatchQuery for CountingQuery {
        type State = CountingState;
        type Output = usize;

        fn kind(&self) -> QueryKind {
            self.kind
        }

        fn items(&self) -> usize {
            self.rays.len()
        }

        fn reset(&mut self, _item: usize, state: &mut CountingState) {
            state.remaining = self.rounds;
            state.hits = 0;
        }

        fn build(
            &mut self,
            item: usize,
            state: &mut CountingState,
            out: &mut Vec<RayFlexRequest>,
        ) -> bool {
            if state.remaining == 0 {
                return false;
            }
            state.remaining -= 1;
            self.built += 1;
            out.push(RayFlexRequest::ray_box(
                item as u64,
                &self.rays[item],
                &self.boxes,
            ));
            true
        }

        fn apply(&mut self, _item: usize, state: &mut CountingState, response: &RayFlexResponse) {
            let result = response.box_result.expect("box beat");
            state.hits += usize::from(result.hit[0]);
        }

        fn finish(&mut self, _item: usize, state: &mut CountingState) -> usize {
            state.hits
        }
    }

    fn toy_query(rays: usize, rounds: usize) -> CountingQuery {
        toy_query_of_kind(QueryKind::ClosestHit, rays, rounds)
    }

    fn toy_query_of_kind(kind: QueryKind, rays: usize, rounds: usize) -> CountingQuery {
        CountingQuery {
            kind,
            rays: (0..rays)
                .map(|i| {
                    Ray::new(
                        Vec3::new(i as f32 * 0.1, 0.0, -5.0),
                        Vec3::new(0.0, 0.0, 1.0),
                    )
                })
                .collect(),
            boxes: [Aabb::new(Vec3::splat(-2.0), Vec3::splat(2.0)); 4],
            rounds,
            built: 0,
        }
    }

    #[test]
    fn the_scheduler_runs_every_item_to_completion() {
        let mut scheduler = WavefrontScheduler::new();
        let mut datapath = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        let mut query = toy_query(9, 3);
        let outputs = scheduler.run(&mut datapath, &mut query);
        assert_eq!(outputs, vec![3; 9], "every round of every item hit");
        assert_eq!(query.built, 9 * 3);
        assert_eq!(datapath.executed_beats(), 9 * 3);
    }

    #[test]
    fn states_return_to_the_pool_and_are_recycled() {
        let mut scheduler = WavefrontScheduler::new();
        let mut datapath = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        let first = scheduler.run(&mut datapath, &mut toy_query(6, 2));
        assert_eq!(scheduler.pooled_states(), 6);
        let second = scheduler.run(&mut datapath, &mut toy_query(6, 2));
        assert_eq!(first, second);
        assert_eq!(scheduler.pooled_states(), 6, "states recycled, not leaked");
    }

    #[test]
    fn empty_runs_are_fine() {
        let mut scheduler: WavefrontScheduler<CountingState> = WavefrontScheduler::new();
        let mut datapath = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        let outputs = scheduler.run(&mut datapath, &mut toy_query(0, 5));
        assert!(outputs.is_empty());
        assert_eq!(datapath.executed_beats(), 0);
    }

    #[test]
    fn kind_names_are_distinct() {
        let names: std::collections::BTreeSet<_> =
            QueryKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), QueryKind::ALL.len());
        assert_eq!(QueryKind::AnyHit.to_string(), "any-hit");
    }

    /// Like the toy query but with a per-item round count, so items retire on different passes —
    /// the shape a capped run needs to expose a nontrivial retired prefix.
    struct StaggeredQuery {
        rays: Vec<Ray>,
        boxes: [Aabb; 4],
        rounds: Vec<usize>,
    }

    impl BatchQuery for StaggeredQuery {
        type State = CountingState;
        type Output = usize;

        fn kind(&self) -> QueryKind {
            QueryKind::ClosestHit
        }

        fn items(&self) -> usize {
            self.rays.len()
        }

        fn reset(&mut self, item: usize, state: &mut CountingState) {
            state.remaining = self.rounds[item];
            state.hits = 0;
        }

        fn build(
            &mut self,
            item: usize,
            state: &mut CountingState,
            out: &mut Vec<RayFlexRequest>,
        ) -> bool {
            if state.remaining == 0 {
                return false;
            }
            state.remaining -= 1;
            out.push(RayFlexRequest::ray_box(
                item as u64,
                &self.rays[item],
                &self.boxes,
            ));
            true
        }

        fn apply(&mut self, _item: usize, state: &mut CountingState, response: &RayFlexResponse) {
            let result = response.box_result.expect("box beat");
            state.hits += usize::from(result.hit[0]);
        }

        fn finish(&mut self, _item: usize, state: &mut CountingState) -> usize {
            state.hits
        }
    }

    fn staggered_query(rounds: &[usize]) -> StaggeredQuery {
        StaggeredQuery {
            rays: (0..rounds.len())
                .map(|i| {
                    Ray::new(
                        Vec3::new(i as f32 * 0.1, 0.0, -5.0),
                        Vec3::new(0.0, 0.0, 1.0),
                    )
                })
                .collect(),
            boxes: [Aabb::new(Vec3::splat(-2.0), Vec3::splat(2.0)); 4],
            rounds: rounds.to_vec(),
        }
    }

    #[test]
    fn an_uncapped_run_capped_call_is_the_plain_run() {
        let mut scheduler = WavefrontScheduler::new();
        let mut datapath = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        let run = scheduler.run_capped(&mut datapath, &mut toy_query(6, 2), 0);
        assert!(run.complete, "a zero cap disables the deadline entirely");
        assert_eq!(run.outputs, vec![2; 6]);
        assert_eq!(run.total, 6);
        assert_eq!(run.beats, 12);
    }

    #[test]
    fn a_capped_lockstep_run_cancels_with_an_empty_prefix() {
        // Nine items in lockstep: every pass carries nine beats.  A cap of 10 lets pass 1 (9
        // beats) through, admits pass 2 (9 < 10), and cancels at the pass-3 boundary with 18
        // beats spent — the pass in flight when the budget crosses the line always completes.
        let mut scheduler = WavefrontScheduler::new();
        let mut datapath = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        let run = scheduler.run_capped(&mut datapath, &mut toy_query(9, 3), 10);
        assert!(!run.complete);
        assert_eq!(
            run.beats, 18,
            "cancellation overshoots by the pass in flight"
        );
        assert_eq!(run.total, 9);
        assert!(
            run.outputs.is_empty(),
            "lockstep items are all still in flight: the retired prefix is empty"
        );
        assert_eq!(
            scheduler.pooled_states(),
            9,
            "cancelled items' states still return to the pool"
        );
    }

    #[test]
    fn a_capped_staggered_run_yields_the_retired_prefix() {
        let mut scheduler = WavefrontScheduler::new();
        let mut datapath = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        let expected = scheduler.run(&mut datapath, &mut staggered_query(&[1, 2, 3, 4]));
        assert_eq!(expected, vec![1, 2, 3, 4], "every round of every item hit");

        // Passes carry 4, 3 and 2 beats (items retire as their rounds run out).  A cap of 8
        // admits all three (4, then 7, both under the cap) and cancels at the fourth boundary
        // with 9 beats spent.  An item retires on the pass AFTER its last beat (build returns
        // false), so by then only items 0 and 1 have retired: the prefix is 2.
        let mut capped_dp = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        let run = scheduler.run_capped(&mut capped_dp, &mut staggered_query(&[1, 2, 3, 4]), 8);
        assert!(!run.complete);
        assert_eq!(run.beats, 9);
        assert_eq!(run.total, 4);
        assert_eq!(
            run.outputs,
            expected[..2],
            "the retired prefix is bit-identical to the uncapped run"
        );
        assert_eq!(scheduler.pooled_states(), 4);
    }

    #[test]
    fn finish_partial_extracts_a_true_prefix_from_a_cancelled_fused_run() {
        // On a stream that actually drained, finish_partial equals finish.
        let mut fused = FusedScheduler::new();
        let mut datapath = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        let mut drained = StreamRunner::new(toy_query(3, 2));
        let progress = fused.run_capped(&mut datapath, &mut [&mut drained], 0);
        assert_eq!(
            progress,
            CappedFusedRun {
                beats: 6,
                complete: true
            }
        );
        let (_, outputs, total) = drained.finish_partial();
        assert_eq!(outputs, vec![2; 3]);
        assert_eq!(total, 3);

        // A cancelled run leaves the stream mid-flight.  With rounds [1, 2, 3] and a cap of 4,
        // pass 1 (3 beats) executes, pass 2 (2 beats: item 0 retired) crosses the line at 5, and
        // the run cancels.  Item 1's final beat executed in pass 2, but it retires only on its
        // next build call — so the true prefix is item 0 alone.
        let mut capped_dp = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        let mut stream = StreamRunner::new(staggered_query(&[1, 2, 3]));
        let progress = fused.run_capped(&mut capped_dp, &mut [&mut stream], 4);
        assert_eq!(
            progress,
            CappedFusedRun {
                beats: 5,
                complete: false
            }
        );
        let (_, outputs, total) = stream.finish_partial();
        assert_eq!(outputs, vec![1], "retirement lags issue by one pass");
        assert_eq!(total, 3);

        // The scalar round-robin reference discipline cancels at the same round boundary with
        // the same prefix — capped runs are mode-invariant.
        let mut reference_dp = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        let mut reference = StreamRunner::new(staggered_query(&[1, 2, 3]));
        let progress = fused.run_reference_capped(&mut reference_dp, &mut [&mut reference], 4);
        assert_eq!(
            progress,
            CappedFusedRun {
                beats: 5,
                complete: false
            }
        );
        let (_, outputs, total) = reference.finish_partial();
        assert_eq!(outputs, vec![1]);
        assert_eq!(total, 3);
    }

    #[test]
    fn fused_streams_match_sequential_scheduling_and_share_passes() {
        // Sequential reference: each stream runs alone through the single-stream scheduler.
        let mut scheduler = WavefrontScheduler::new();
        let mut sequential_dp = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        let expected_a = scheduler.run(&mut sequential_dp, &mut toy_query(7, 3));
        let expected_b = scheduler.run(
            &mut sequential_dp,
            &mut toy_query_of_kind(QueryKind::AnyHit, 4, 5),
        );

        // Fused: both streams share every pass of one datapath.
        let mut fused_dp = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        let mut stream_a = StreamRunner::new(toy_query(7, 3));
        let mut stream_b = StreamRunner::new(toy_query_of_kind(QueryKind::AnyHit, 4, 5));
        let mut fused = FusedScheduler::new();
        fused.run(&mut fused_dp, &mut [&mut stream_a, &mut stream_b]);
        let (query_a, got_a) = stream_a.finish();
        let (query_b, got_b) = stream_b.finish();

        assert_eq!(got_a, expected_a);
        assert_eq!(got_b, expected_b);
        assert_eq!(query_a.built, 7 * 3);
        assert_eq!(query_b.built, 4 * 5);
        // The longer stream needs 5 passes; the shorter shares the first 3.
        assert_eq!(fused.last_run_passes(), 5);
        let mix = fused_dp.beat_mix();
        assert_eq!(mix.fused_passes(), 3, "the first three passes mix kinds");
        assert_eq!(
            mix.kind_total(QueryKind::ClosestHit),
            7 * 3,
            "per-kind attribution survives fusion"
        );
        assert_eq!(mix.kind_total(QueryKind::AnyHit), 4 * 5);
        assert_eq!(mix.total(), sequential_dp.beat_mix().total());
    }

    #[test]
    fn the_round_robin_reference_mode_matches_the_fused_run() {
        let streams = || {
            (
                StreamRunner::new(toy_query(5, 2)),
                StreamRunner::new(toy_query_of_kind(QueryKind::Distance, 3, 4)),
            )
        };
        let mut fused = FusedScheduler::new();

        let mut dp_a = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        let (mut a1, mut a2) = streams();
        fused.run(&mut dp_a, &mut [&mut a1, &mut a2]);

        let mut dp_b = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        let (mut b1, mut b2) = streams();
        fused.run_reference(&mut dp_b, &mut [&mut b1, &mut b2]);

        assert_eq!(a1.finish().1, b1.finish().1);
        assert_eq!(a2.finish().1, b2.finish().1);
        // Same beats, same attribution — only the dispatch style differs.
        assert_eq!(dp_a.executed_beats(), dp_b.executed_beats());
        for (kind, opcode, count) in dp_a.beat_mix().iter_kinds() {
            assert_eq!(dp_b.beat_mix().count_for(kind, opcode), count);
        }
        assert_eq!(dp_b.beat_mix().fused_passes(), 0, "no bulk passes at all");
    }

    #[test]
    fn a_beat_budget_reshapes_passes_without_changing_outputs() {
        let streams = || {
            (
                StreamRunner::new(toy_query(5, 3)),
                StreamRunner::new(toy_query_of_kind(QueryKind::AnyHit, 4, 2)),
            )
        };

        let mut unlimited = FusedScheduler::new();
        let mut dp_a = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        let (mut a1, mut a2) = streams();
        unlimited.run(&mut dp_a, &mut [&mut a1, &mut a2]);
        assert_eq!(unlimited.beat_budget(), 0);
        assert_eq!(unlimited.last_run_passes(), 3);
        assert_eq!(unlimited.last_run_stream_passes(), &[3, 2]);

        let mut strict = FusedScheduler::new().with_beat_budget(1);
        let mut dp_b = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        let (mut b1, mut b2) = streams();
        strict.run(&mut dp_b, &mut [&mut b1, &mut b2]);
        // One beat per stream per pass: the 15-beat stream needs 15 passes, the 8-beat stream
        // rides along in the first 8.
        assert_eq!(strict.last_run_passes(), 15);
        assert_eq!(strict.last_run_stream_passes(), &[15, 8]);

        // Same outputs, same beat totals — only the pass structure moved.
        assert_eq!(a1.finish().1, b1.finish().1);
        assert_eq!(a2.finish().1, b2.finish().1);
        assert_eq!(dp_a.executed_beats(), dp_b.executed_beats());
        assert!(
            dp_b.beat_mix().fused_passes() > 0,
            "streams still share passes"
        );
    }

    #[test]
    fn edf_admission_reorders_pass_segments_without_changing_outputs() {
        use crate::policy::AdmissionOrder;
        let streams = || {
            (
                StreamRunner::new(toy_query(5, 3)),
                StreamRunner::new(toy_query_of_kind(QueryKind::AnyHit, 4, 2)),
                StreamRunner::new(toy_query_of_kind(QueryKind::Collect, 3, 4)),
            )
        };

        let mut fifo = FusedScheduler::new();
        let mut dp_a = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        let (mut a1, mut a2, mut a3) = streams();
        fifo.run(&mut dp_a, &mut [&mut a1, &mut a2, &mut a3]);
        assert_eq!(fifo.last_run_admission(), &[0, 1, 2], "FIFO is identity");

        // Stream 2 carries the tightest deadline, stream 0 none at all — EDF issues 2, 1, 0.
        let mut edf =
            FusedScheduler::new().with_admission_order(AdmissionOrder::EarliestDeadlineFirst);
        edf.set_stream_deadlines(&[0, 900, 250]);
        let mut dp_b = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        let (mut b1, mut b2, mut b3) = streams();
        edf.run(&mut dp_b, &mut [&mut b1, &mut b2, &mut b3]);
        assert_eq!(
            edf.last_run_admission(),
            &[2, 1, 0],
            "deadline-carrying streams issue first, ascending; deadline 0 = none = last"
        );

        // Per-stream outputs, pass counts and beat totals are admission-order-invariant; only
        // segment issue order within each shared pass moved.
        assert_eq!(a1.finish().1, b1.finish().1);
        assert_eq!(a2.finish().1, b2.finish().1);
        assert_eq!(a3.finish().1, b3.finish().1);
        assert_eq!(fifo.last_run_passes(), edf.last_run_passes());
        assert_eq!(
            fifo.last_run_stream_passes(),
            edf.last_run_stream_passes(),
            "per-stream pass attribution stays keyed by stream index"
        );
        assert_eq!(dp_a.executed_beats(), dp_b.executed_beats());

        // EDF with no deadlines registered degenerates to FIFO (ties broken by index).
        let mut inert =
            FusedScheduler::new().with_admission_order(AdmissionOrder::EarliestDeadlineFirst);
        let mut dp_c = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        let (mut c1, mut c2, mut c3) = streams();
        inert.run(&mut dp_c, &mut [&mut c1, &mut c2, &mut c3]);
        assert_eq!(inert.last_run_admission(), &[0, 1, 2]);

        // The scalar round-robin reference honours the same ordering.
        let mut reference =
            FusedScheduler::new().with_admission_order(AdmissionOrder::EarliestDeadlineFirst);
        reference.set_stream_deadlines(&[0, 900, 250]);
        let mut dp_d = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        let (mut d1, mut d2, mut d3) = streams();
        reference.run_reference(&mut dp_d, &mut [&mut d1, &mut d2, &mut d3]);
        assert_eq!(reference.last_run_admission(), &[2, 1, 0]);
        assert_eq!(d1.finish().1, vec![3; 5], "reference outputs are unchanged");
    }

    #[test]
    fn empty_fused_runs_and_empty_streams_are_fine() {
        let mut fused = FusedScheduler::new();
        let mut datapath = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        fused.run(&mut datapath, &mut []);
        assert_eq!(fused.last_run_passes(), 0);

        let mut empty = StreamRunner::new(toy_query(0, 4));
        let mut busy = StreamRunner::new(toy_query(3, 2));
        fused.run(&mut datapath, &mut [&mut empty, &mut busy]);
        assert_eq!(empty.finish().1.len(), 0);
        assert_eq!(busy.finish().1, vec![2; 3]);
        assert_eq!(datapath.executed_beats(), 6);
    }

    #[test]
    #[should_panic(expected = "run to completion")]
    fn finishing_an_unrun_stream_panics() {
        let runner = StreamRunner::new(toy_query(2, 1));
        let _ = runner.finish();
    }
}
