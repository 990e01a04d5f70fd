//! The generic batched query engine: one scheduler for every query kind the RT unit supports.
//!
//! Every batched mode keeps a whole stream of queries in flight: build one pass of beat
//! descriptors, dispatch it to the datapath in bulk, apply the responses, repeat until every
//! query retires.  That loop is independent of *what* is being queried — the same loop drives
//! closest-hit rays, any-hit/shadow rays, primary-ray rendering, candidate collection and
//! distance scoring — so it lives here once, in three pieces:
//!
//! * [`BatchQuery`] — the per-item state machine a query kind implements: how to initialise an
//!   item, which beats it wants next (as [`BeatPass`] descriptors, see `crate::beat`), how a
//!   response advances it, and what it yields when it retires;
//! * [`StreamRunner`] — one query plus its per-item states for one run, driving the item
//!   protocol behind the type-erased [`FusedStream`] face: coherent admission, admission-slot
//!   addressing, opcode bucketing and budget-capped pass segments;
//! * [`FusedScheduler`] — merges the pass segments of any number of streams into shared bulk
//!   passes over one datapath and demuxes the responses back per stream.
//!
//! A stream run alone at budget 0 is the classic wavefront
//! ([`ExecMode::Wavefront`](crate::ExecMode::Wavefront)); several streams in one run are the
//! fused discipline ([`ExecMode::Fused`](crate::ExecMode::Fused)).  The engines keep each
//! runner's buffers in a reusable arena between runs, so a steady-state stream performs no
//! per-item allocation.  Because the runner preserves each item's own beat order (an item's
//! beats are built in sequence, and the beats an item appends within one pass stay adjacent in
//! the batch), every query kind retains the semantics — and, where a scalar reference exists,
//! the bit-identical results and statistics — of its scalar drive loop.
//!
//! Multi-beat accumulator jobs (the Euclidean/cosine distance operations) are safe under
//! interleaving *between* items precisely because of that adjacency guarantee: a distance query
//! appends all beats of one candidate in a single [`BatchQuery::build`] call, so the shared
//! accumulator sees each candidate's beat train contiguously and resets at its end, no matter
//! how many unrelated items share the pass.
//!
//! A stream's own build/apply order does not depend on which other streams share its passes (a
//! fused pass merely concatenates per-stream segments, and no datapath state crosses segment
//! boundaries mid-item), so every stream's outputs and statistics are bit-identical to running
//! it alone — pinned by `rtunit/tests/proptest_fused.rs` and by the scalar round-robin
//! reference mode ([`FusedScheduler::run_reference`]).

use rayflex_core::{Opcode, RayFlexDatapath, RayFlexRequest, RayFlexResponse};

use crate::beat::{Beat, BeatPass, BeatTables};
use crate::policy::{CoherenceMode, ExecMode, ExecPolicy};

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
    /// appended nothing) to retire the item.  A query outside this crate appends owned beats
    /// ([`BeatPass::push_request`]); the crate's own queries append descriptors that
    /// resolve against [`BatchQuery::tables`].
    fn build(&mut self, item: usize, state: &mut Self::State, out: &mut BeatPass) -> bool;

    /// The tables this query's beat descriptors resolve against; none (the default) when every
    /// beat it builds is owned.
    fn tables(&self) -> BeatTables<'_> {
        BeatTables::default()
    }

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

/// Progress report of a deadline-capped fused run ([`FusedScheduler::run_capped`], or a
/// capped policy run of any discipline): how many beats the run spent and whether every
/// stream drained.  A cancelled run leaves its streams mid-flight; extract each stream's
/// completed prefix with [`StreamRunner::finish_partial`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CappedFusedRun {
    /// Beats the run dispatched before finishing or cancelling.
    pub beats: u64,
    /// `true` when every stream drained — the cap (if any) never fired.
    pub complete: bool,
}

/// What is left of a `cap`-beat budget after `spent` beats, as the cap of the next run: `0`
/// (uncapped) when `cap` is `0`, `None` once the budget is spent.
pub(crate) fn remaining_beats(cap: u64, spent: u64) -> Option<u64> {
    match cap {
        0 => Some(0),
        _ if spent >= cap => None,
        _ => Some(cap - spent),
    }
}

/// A type-erased query stream inside a fused run: the object-safe face of a
/// [`StreamRunner`], which is how heterogeneous [`BatchQuery`] implementations (different state
/// and output types) share one [`FusedScheduler`] pass schedule.
///
/// The scheduler drives the protocol: [`FusedStream::start`] once, then per pass one
/// [`FusedStream::build_beats`] (append this stream's beats for the pass, returning how many)
/// and [`FusedStream::apply_pass`] calls consuming exactly that many responses, until
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
    /// [`FusedStream::build_pass`] (or [`FusedStream::build_beats`]) call, in append order.
    /// The scheduler may hand one pass's responses over in several consecutive slices (see
    /// [`RayFlexDatapath::execute_window`]), so a slice can end inside an item's train.
    fn apply_pass(&mut self, responses: &[RayFlexResponse]);

    /// [`FusedStream::build_pass`] in the form the [`FusedScheduler`] dispatches: appends the
    /// same beats, under the same budget, to `pass` as descriptors and returns how many.  The
    /// kernels then fetch each descriptor's operands from [`FusedStream::beat_tables`] (or
    /// from the pass's owned side table) instead of reading a copied request.
    ///
    /// The default runs [`FusedStream::build_pass`] and carries the requests it builds as
    /// owned beats, so every implementation works as it is; the library's streams override
    /// this method and [`FusedStream::beat_tables`] together, and an implementation that
    /// overrides one must override both.  Only perfbench's traced stream wrapper relies on the
    /// request-owning defaults; ROADMAP item 1 removes that wrapper, and these defaults with it.
    fn build_beats(&mut self, pass: &mut BeatPass, max_beats: usize) -> usize {
        pass.build_owned(|requests| self.build_pass(requests, max_beats))
    }

    /// The tables the descriptors of [`FusedStream::build_beats`] resolve against (none for
    /// the default, whose beats are all owned).
    fn beat_tables(&self) -> BeatTables<'_> {
        BeatTables::default()
    }
}

/// The reusable buffers of a [`StreamRunner`]: the per-item states and the admission and pass
/// bookkeeping.  An engine keeps one arena per stream it runs and lends it to each new runner
/// ([`StreamRunner::with_arena`] / [`StreamRunner::into_parts`]), so a warm run reuses every
/// buffer — each state's own heap storage (a traversal stack, say) included.
#[derive(Debug)]
pub(crate) struct RunnerArena<S> {
    /// Per-item states, indexed by admission slot (`states[slot]` belongs to item
    /// `order[slot]`), so the build loop walks them in admission order.  Never shrinks: states
    /// past the current run's item count wait for a larger run.
    states: Vec<S>,
    /// Admission slots still in flight, in admission order.
    active: Vec<usize>,
    /// `(admission slot, beat count)` of each item's beat train in the current pass, in pass
    /// order (one entry per item, so it never grows with the beat count).
    spans: Vec<(usize, usize)>,
    /// The run's admission permutation (`order[slot] = item`); identity when coherence is off.
    order: Vec<usize>,
    /// Inverse of `order` (`slot_of[item] = slot`).
    slot_of: Vec<usize>,
    /// Per-item coherence keys (indexed by item; filled when sorting is on).
    keys: Vec<u64>,
    /// The minority bucket of [`CoherenceMode::SortAndCompact`]: the pass's trains of
    /// whichever opcode class is not kept in place (see [`StreamRunner`]'s bucketing), moved
    /// back into the segment when it closes.
    aside: Vec<Beat>,
    /// `(admission slot, beat count)` of each train set aside, in `aside` order.
    aside_spans: Vec<(usize, usize)>,
    /// The pass [`FusedStream::build_pass`] builds descriptors into before expanding them
    /// (goes with `build_pass`, see there).
    expansion: BeatPass,
}

impl<S> Default for RunnerArena<S> {
    fn default() -> Self {
        RunnerArena {
            states: Vec::new(),
            active: Vec::new(),
            spans: Vec::new(),
            order: Vec::new(),
            slot_of: Vec::new(),
            keys: Vec::new(),
            aside: Vec::new(),
            aside_spans: Vec::new(),
            expansion: BeatPass::default(),
        }
    }
}

impl<S> RunnerArena<S> {
    /// Number of per-item states the arena holds (pooling tests).
    #[cfg(test)]
    pub(crate) fn pooled_states(&self) -> usize {
        self.states.len()
    }
}

/// Owns one [`BatchQuery`] and its per-item states for the duration of a run, implementing the
/// type-erased [`FusedStream`] protocol over it.
///
/// Each pass builds every active item's next beat train (items with none retire in place) and
/// applies the responses to the owning items.  A runner's per-item beat order never depends on
/// the streams it shares passes with, so running several runners fused yields per-stream
/// results bit-identical to running each alone.  After the run drains,
/// [`StreamRunner::finish`] yields the query back (for its statistics) together with one output
/// per item.
#[derive(Debug)]
pub struct StreamRunner<Q: BatchQuery> {
    query: Q,
    arena: RunnerArena<Q::State>,
    /// Items of the current run (`query.items()` when it started).
    items: usize,
    /// Whether the query opted into admission-slot addressing (see [`BatchQuery::reorder`]).
    slot_addressed: bool,
    /// Whether all-triangle trains stay where they are built (box trains are set aside) or
    /// the other way round: set per pass to whichever class dominated the previous one, so
    /// the move-out copy lands on the minority.
    triangles_stay: bool,
    /// Whether this stream's segments fill their passes alone (see [`StreamRunner::lone`]).
    lone: bool,
    /// `(span, beats of it applied)`: where the current pass's responses resume, since a
    /// pass's responses may arrive over several [`FusedStream::apply_pass`] calls.
    applied: (usize, usize),
    /// Coherence discipline of subsequent runs (see [`StreamRunner::set_coherence`]).
    coherence: CoherenceMode,
    started: bool,
}

impl<Q: BatchQuery> StreamRunner<Q> {
    /// Wraps a query for fused scheduling.  Items are initialised lazily by
    /// [`FusedStream::start`] when a run begins.
    #[must_use]
    pub fn new(query: Q) -> Self {
        Self::with_arena(query, RunnerArena::default())
    }

    /// [`StreamRunner::new`] over a recycled arena (see [`RunnerArena`]).
    pub(crate) fn with_arena(query: Q, arena: RunnerArena<Q::State>) -> Self {
        StreamRunner {
            query,
            arena,
            items: 0,
            slot_addressed: false,
            triangles_stay: false,
            lone: false,
            applied: (0, 0),
            coherence: CoherenceMode::Off,
            started: false,
        }
    }

    /// Sets the coherence discipline of subsequent runs (see
    /// [`CoherenceMode`](crate::CoherenceMode)); defaults to [`CoherenceMode::Off`] — caller
    /// admission order.  Takes effect at the next [`FusedStream::start`].  Outputs and per-item
    /// statistics are identical in every mode.
    pub fn set_coherence(&mut self, coherence: CoherenceMode) {
        self.coherence = coherence;
    }

    /// Builder form of [`StreamRunner::set_coherence`].
    #[must_use]
    pub fn with_coherence(mut self, coherence: CoherenceMode) -> Self {
        self.set_coherence(coherence);
        self
    }

    /// Declares whether every pass of this stream's run carries its segment alone (no other
    /// stream contributes beats).  A lone segment's same-opcode runs never meet another
    /// segment's, so its two opcode buckets may close in either order with the same lane
    /// accounting, and the bucket kept in place never moves; beside other segments the order
    /// stays box trains first, so runs meet across segments the same way every time.
    pub(crate) fn lone(mut self, lone: bool) -> Self {
        self.lone = lone;
        self
    }

    /// The outputs of the longest fully-retired item prefix, in item order.  The lowest
    /// still-active item bounds the prefix (coherent admission may reorder the admission
    /// slots, so "first" is not "lowest" in general).
    fn retired_outputs(&mut self) -> Vec<Q::Output> {
        let arena = &mut self.arena;
        let prefix = arena
            .active
            .iter()
            .map(|&slot| arena.order[slot])
            .min()
            .unwrap_or(self.items);
        (0..prefix)
            .map(|item| {
                let slot = arena.slot_of[item];
                let index = if self.slot_addressed { slot } else { item };
                self.query.finish(index, &mut arena.states[slot])
            })
            .collect()
    }

    /// Extracts the query and one output per item after the run drained the stream.
    ///
    /// # Panics
    ///
    /// Panics if the stream was never run or still has items in flight.
    #[must_use]
    pub fn finish(mut self) -> (Q, Vec<Q::Output>) {
        assert!(
            self.started && self.arena.active.is_empty(),
            "a fused stream must be run to completion before finishing"
        );
        let outputs = self.retired_outputs();
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
        let outputs = self.retired_outputs();
        (self.query, outputs, self.items)
    }

    /// [`StreamRunner::finish_partial`] handing the arena back for the next run.
    pub(crate) fn into_parts(mut self) -> (Q, Vec<Q::Output>, RunnerArena<Q::State>) {
        let outputs = self.retired_outputs();
        (self.query, outputs, self.arena)
    }
}

impl<Q: BatchQuery> FusedStream for StreamRunner<Q> {
    fn kind(&self) -> QueryKind {
        self.query.kind()
    }

    fn start(&mut self) {
        let items = self.query.items();
        let arena = &mut self.arena;
        // Coherent admission: one sort of the admission permutation up front (ties broken by
        // item index, so identity keys keep caller order and the sort is deterministic).
        // Results reassemble through the permutation, so any admission order is
        // output-identical — only which pass slot an item occupies moves.
        arena.order.clear();
        arena.order.extend(0..items);
        self.slot_addressed = false;
        if self.coherence != CoherenceMode::Off && items > 1 {
            arena.keys.clear();
            let query = &self.query;
            arena
                .keys
                .extend((0..items).map(|item| query.sort_key(item)));
            let keys = &arena.keys;
            arena.order.sort_unstable_by_key(|&item| (keys[item], item));
            self.slot_addressed = self.query.reorder(&arena.order);
        }
        arena.slot_of.clear();
        arena.slot_of.resize(items, 0);
        for (slot, &item) in arena.order.iter().enumerate() {
            arena.slot_of[item] = slot;
        }
        if arena.states.len() < items {
            arena.states.resize_with(items, Q::State::default);
        }
        for slot in 0..items {
            let index = if self.slot_addressed {
                slot
            } else {
                arena.order[slot]
            };
            self.query.reset(index, &mut arena.states[slot]);
        }
        arena.active.clear();
        arena.active.extend(0..items);
        crate::fault::scramble_checkpoint(&mut arena.active);
        self.items = items;
        // A traversal run's first pass is all root box beats.
        self.triangles_stay = false;
        self.started = true;
    }

    fn is_active(&self) -> bool {
        !self.arena.active.is_empty()
    }

    /// Builds the pass as descriptors, then expands them into `out`.  No library scheduler
    /// calls this (the reference discipline expands one descriptor at a time); it stays for
    /// perfbench's traced stream wrapper, and ROADMAP item 1 removes it with that wrapper.
    fn build_pass(&mut self, out: &mut Vec<RayFlexRequest>, max_beats: usize) -> usize {
        let mut pass = core::mem::take(&mut self.arena.expansion);
        pass.clear();
        let beats = self.build_beats(&mut pass, max_beats);
        pass.expand_into(self.query.tables(), out);
        self.arena.expansion = pass;
        beats
    }

    fn beat_tables(&self) -> BeatTables<'_> {
        self.query.tables()
    }

    fn build_beats(&mut self, pass: &mut BeatPass, max_beats: usize) -> usize {
        let pass_start = pass.len();
        let arena = &mut self.arena;
        debug_assert!(arena.aside.is_empty());
        let bucketed = self.coherence == CoherenceMode::SortAndCompact;
        let triangles_stay = bucketed && self.triangles_stay;
        let total = arena.active.len();
        // Every active item appends at least one beat or retires, so reserve the common case
        // once instead of doubling up to it.
        pass.beats_mut().reserve(total);
        arena.spans.clear();
        arena.spans.reserve(total);
        if bucketed {
            arena.aside_spans.reserve(total);
        }
        let mut still_active = 0;
        let mut processed = 0;
        while processed < total {
            // Budget admission: stop (leaving the rest of the active list untouched, in order)
            // once this pass's segment — both buckets — reached the per-stream beat budget.
            if max_beats != 0 && (pass.len() - pass_start) + arena.aside.len() >= max_beats {
                break;
            }
            let slot = arena.active[processed];
            let index = if self.slot_addressed {
                slot
            } else {
                arena.order[slot]
            };
            let before = pass.len();
            let built = self.query.build(index, &mut arena.states[slot], pass);
            let out = pass.beats_mut();
            if built {
                let beats = out.len() - before;
                debug_assert!(
                    beats > 0,
                    "{} stream item {index} stayed active without appending a beat",
                    self.query.kind()
                );
                // Opcode bucketing ([`CoherenceMode::SortAndCompact`]): the segment closes as
                // mixed/box trains followed by all-triangle trains, so box beats pack adjacently
                // and triangle trains concatenate into long same-opcode runs.  Trains of the
                // class that dominated the previous pass stay where they were built; the
                // minority class is set aside and moved back when the segment closes.  Safe
                // because a train moves intact (per-item beat order unchanged) and ray beats
                // are stateless; only the accumulator-chained distance beats order across
                // items, and those are never bucketed.
                let all_triangles = bucketed
                    && out[before..]
                        .iter()
                        .all(|beat| beat.opcode() == Opcode::RayTriangle);
                if all_triangles == triangles_stay {
                    arena.spans.push((slot, beats));
                } else {
                    arena.aside.extend(out.drain(before..));
                    arena.aside_spans.push((slot, beats));
                }
                arena.active[still_active] = slot;
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
            arena.active.copy_within(processed..total, still_active);
        }
        arena.active.truncate(still_active + (total - processed));
        // Close the segment: box trains first, triangle trains behind them — or, for a lone
        // segment, whichever class stayed in place first.
        let out = pass.beats_mut();
        let stayed = out.len() - pass_start;
        let set_aside = arena.aside.len();
        if triangles_stay && !self.lone {
            out.splice(pass_start..pass_start, arena.aside.drain(..));
            arena.aside_spans.append(&mut arena.spans);
            core::mem::swap(&mut arena.spans, &mut arena.aside_spans);
        } else {
            out.append(&mut arena.aside);
            arena.spans.append(&mut arena.aside_spans);
        }
        self.triangles_stay = if triangles_stay {
            stayed > set_aside
        } else {
            set_aside > stayed
        };
        self.applied = (0, 0);
        out.len() - pass_start
    }

    fn apply_pass(&mut self, mut responses: &[RayFlexResponse]) {
        let arena = &mut self.arena;
        // Resume where the previous slice of this pass stopped, possibly inside a train.
        let (mut span, mut applied) = self.applied;
        while !responses.is_empty() {
            let (slot, beats) = arena.spans[span];
            let index = if self.slot_addressed {
                slot
            } else {
                arena.order[slot]
            };
            let take = (beats - applied).min(responses.len());
            for response in &responses[..take] {
                self.query.apply(index, &mut arena.states[slot], response);
            }
            responses = &responses[take..];
            applied += take;
            if applied == beats {
                span += 1;
                applied = 0;
            }
        }
        self.applied = (span, applied);
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
            fn build_beats(&mut self, pass: &mut $crate::beat::BeatPass, max_beats: usize) -> usize {
                $crate::query::FusedStream::build_beats(&mut self.runner, pass, max_beats)
            }
            fn beat_tables(&self) -> $crate::beat::BeatTables<'_> {
                $crate::query::FusedStream::beat_tables(&self.runner)
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
///   into one [`BeatPass`] of 16-byte descriptors ([`FusedStream::build_beats`]) and dispatches
///   it as one streamed pass ([`RayFlexDatapath::execute_window`]), which attributes every
///   beat to its stream's [`QueryKind`] in the per-kind `BeatMix` table (and counts the pass
///   as *fused* when at least two kinds contributed).  The kernels fetch each beat's operands
///   from its stream's [`FusedStream::beat_tables`].  The responses stream back in windows of
///   about a thousand, each handed to its streams before the next window runs, so a pass never
///   holds a whole pass of responses.
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
    /// Reusable merged pass: one mixed-kind batch of beat descriptors per pass.
    pass: BeatPass,
    /// Reusable response window of the streamed dispatch (a segment's responses under the
    /// reference discipline).
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
        self.run_passes(datapath, streams, max_total_beats, false)
    }

    /// The scalar round-robin reference mode of [`FusedScheduler::run`]: the same pass schedule
    /// (including the configured beat budget) and the same per-stream beat orders, but every
    /// beat executes one at a time through the register-accurate emulated path
    /// ([`RayFlexDatapath::execute_attributed`]), segment by segment — no bulk dispatch at all.
    ///
    /// Per-stream outputs and statistics are bit-identical to [`FusedScheduler::run`] (the
    /// fast batched model and the emulated model are bit-equal by `core`'s property tests, and
    /// the beat order is the same), which is what the fused property tests pin.  Beats executed
    /// here count toward the per-kind `BeatMix` attribution but not toward the datapath's pass
    /// counters.
    ///
    /// # Panics
    ///
    /// Panics if a beat's opcode is not supported by the datapath configuration.
    pub fn run_reference(
        &mut self,
        datapath: &mut RayFlexDatapath,
        streams: &mut [&mut dyn FusedStream],
    ) {
        let progress = self.run_passes(datapath, streams, 0, true);
        debug_assert!(
            progress.complete,
            "an uncapped reference run always completes"
        );
    }

    /// The one pass loop of every discipline: each pass, every stream appends its
    /// (budget-limited) segment of descriptors in admission order, then the pass dispatches —
    /// in streamed windows on the fast model, or, for the scalar `reference` discipline, beat
    /// by beat through the emulated path, each segment applied before the next runs.  Cancels
    /// at the first pass boundary where at least `max_total_beats` beats are spent (`0` = no
    /// cap).
    fn run_passes(
        &mut self,
        datapath: &mut RayFlexDatapath,
        streams: &mut [&mut dyn FusedStream],
        max_total_beats: u64,
        reference: bool,
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
            // pass, in admission order (slice order, or earliest-deadline-first).  Segment
            // `position` belongs to stream `order[position]`.
            self.pass.clear();
            self.segments.clear();
            for (position, &index) in self.order.iter().enumerate() {
                let stream = &mut *streams[index];
                self.pass.begin_segment(position);
                let beats = stream.build_beats(&mut self.pass, self.beat_budget_per_stream);
                self.segments.push((stream.kind(), beats));
                self.stream_passes[index] += u64::from(beats > 0);
            }
            if self.pass.is_empty() {
                // Every remaining item retired during the build (beatless drains exist — a
                // collection item whose whole subtree is leaves, say).
                break;
            }
            self.last_run_passes += 1;
            beats_spent += self.pass.len() as u64;
            if reference {
                self.dispatch_by_beat(datapath, streams);
            } else {
                self.dispatch_windows(datapath, streams);
            }
        }
        CappedFusedRun {
            beats: beats_spent,
            complete: true,
        }
    }

    /// One bulk dispatch for the merged mixed-kind pass, a window of responses at a time: the
    /// kernels resolve each window against the streams' tables, then each stream gets its
    /// contiguous share of the window, walking the same admission order the build phase used.
    fn dispatch_windows(
        &mut self,
        datapath: &mut RayFlexDatapath,
        streams: &mut [&mut dyn FusedStream],
    ) {
        let (order, segments) = (&self.order, &self.segments);
        let mut dispatch =
            datapath.begin_streamed_pass(self.pass.len(), segments, &mut self.responses);
        let (mut position, mut applied) = (0, 0);
        while !dispatch.is_finished() {
            {
                let tables: &[&mut dyn FusedStream] = streams;
                let source = self
                    .pass
                    .source(|segment| tables[order[segment]].beat_tables());
                datapath.execute_window(&source, segments, &mut dispatch, &mut self.responses);
            }
            let mut window = &self.responses[..];
            while !window.is_empty() {
                let beats = segments[position].1;
                let take = (beats - applied).min(window.len());
                if take > 0 {
                    streams[order[position]].apply_pass(&window[..take]);
                }
                window = &window[take..];
                applied += take;
                if applied == beats {
                    position += 1;
                    applied = 0;
                }
            }
        }
    }

    /// The reference discipline's dispatch of the pass: segment by segment, each beat expanded
    /// to the request its descriptor stands for and executed alone on the emulated path, then
    /// the segment's responses applied to its stream.  Counts no datapath pass.
    fn dispatch_by_beat(
        &mut self,
        datapath: &mut RayFlexDatapath,
        streams: &mut [&mut dyn FusedStream],
    ) {
        let (order, segments) = (&self.order, &self.segments);
        let mut first = 0;
        for (position, &(kind, beats)) in segments.iter().enumerate() {
            if beats == 0 {
                continue;
            }
            self.responses.clear();
            {
                let tables: &[&mut dyn FusedStream] = streams;
                let source = self
                    .pass
                    .source(|segment| tables[order[segment]].beat_tables());
                for beat in first..first + beats {
                    let response = datapath.execute_attributed(&source.request(beat), kind);
                    self.responses.push(response);
                }
            }
            streams[order[position]].apply_pass(&self.responses);
            first += beats;
        }
    }

    /// Runs `streams` the way `policy` dispatches them, capped at `max_total_beats` (`0` =
    /// uncapped): the per-stream beat budget is a [`ExecMode::Fused`] knob (every other mode
    /// runs at budget 0), [`ExecMode::ScalarReference`] executes beat by beat as
    /// [`FusedScheduler::run_reference`] does and every other mode in bulk, and the
    /// admission order is the policy's.  Stream deadlines are the caller's to register.
    pub(crate) fn run_policy(
        &mut self,
        datapath: &mut RayFlexDatapath,
        streams: &mut [&mut dyn FusedStream],
        policy: &ExecPolicy,
        max_total_beats: u64,
    ) -> CappedFusedRun {
        self.set_beat_budget(if policy.mode == ExecMode::Fused {
            policy.beat_budget_per_stream
        } else {
            0
        });
        self.set_admission_order(policy.admission_order);
        let reference = policy.mode == ExecMode::ScalarReference;
        self.run_passes(datapath, streams, max_total_beats, reference)
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

        fn build(&mut self, item: usize, state: &mut CountingState, out: &mut BeatPass) -> bool {
            if state.remaining == 0 {
                return false;
            }
            state.remaining -= 1;
            self.built += 1;
            out.push_request(RayFlexRequest::ray_box(
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

    /// Runs `query` alone through a fresh fused scheduler at budget 0 — the wavefront
    /// discipline — and returns the query and its outputs.
    fn run_alone<Q: BatchQuery>(datapath: &mut RayFlexDatapath, query: Q) -> (Q, Vec<Q::Output>) {
        let mut runner = StreamRunner::new(query);
        FusedScheduler::new().run(datapath, &mut [&mut runner]);
        runner.finish()
    }

    #[test]
    fn the_scheduler_runs_every_item_to_completion() {
        let mut datapath = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        let (query, outputs) = run_alone(&mut datapath, toy_query(9, 3));
        assert_eq!(outputs, vec![3; 9], "every round of every item hit");
        assert_eq!(query.built, 9 * 3);
        assert_eq!(datapath.executed_beats(), 9 * 3);
        assert_eq!(datapath.beat_mix().passes(), 3, "one bulk pass per round");
    }

    #[test]
    fn states_return_to_the_pool_and_are_recycled() {
        let mut fused = FusedScheduler::new();
        let mut datapath = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        let mut runner = StreamRunner::new(toy_query(6, 2));
        fused.run(&mut datapath, &mut [&mut runner]);
        let (_, first, arena) = runner.into_parts();
        assert_eq!(arena.pooled_states(), 6);

        let mut runner = StreamRunner::with_arena(toy_query(6, 2), arena);
        fused.run(&mut datapath, &mut [&mut runner]);
        let (_, second, arena) = runner.into_parts();
        assert_eq!(first, second);
        assert_eq!(arena.pooled_states(), 6, "states recycled, not leaked");

        // A smaller run leaves the spare states parked for the next larger one.
        let mut runner = StreamRunner::with_arena(toy_query(2, 1), arena);
        fused.run(&mut datapath, &mut [&mut runner]);
        let (_, small, arena) = runner.into_parts();
        assert_eq!(small, vec![1; 2]);
        assert_eq!(arena.pooled_states(), 6);
    }

    #[test]
    fn empty_runs_are_fine() {
        let mut datapath = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        let (_, outputs) = run_alone(&mut datapath, toy_query(0, 5));
        assert!(outputs.is_empty());
        assert_eq!(datapath.executed_beats(), 0);
        assert_eq!(datapath.beat_mix().passes(), 0);
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

        fn build(&mut self, item: usize, state: &mut CountingState, out: &mut BeatPass) -> bool {
            if state.remaining == 0 {
                return false;
            }
            state.remaining -= 1;
            out.push_request(RayFlexRequest::ray_box(
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
        let mut fused = FusedScheduler::new();
        let mut datapath = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        let mut runner = StreamRunner::new(toy_query(6, 2));
        let run = fused.run_capped(&mut datapath, &mut [&mut runner], 0);
        assert_eq!(
            run,
            CappedFusedRun {
                beats: 12,
                complete: true
            },
            "a zero cap disables the deadline entirely"
        );
        let (_, outputs, total) = runner.finish_partial();
        assert_eq!(outputs, vec![2; 6]);
        assert_eq!(total, 6);
    }

    #[test]
    fn a_capped_lockstep_run_cancels_with_an_empty_prefix() {
        // Nine items in lockstep: every pass carries nine beats.  A cap of 10 lets pass 1 (9
        // beats) through, admits pass 2 (9 < 10), and cancels at the pass-3 boundary with 18
        // beats spent — the pass in flight when the budget crosses the line always completes.
        let mut fused = FusedScheduler::new();
        let mut datapath = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        let mut runner = StreamRunner::new(toy_query(9, 3));
        let run = fused.run_capped(&mut datapath, &mut [&mut runner], 10);
        assert!(!run.complete);
        assert_eq!(
            run.beats, 18,
            "cancellation overshoots by the pass in flight"
        );
        let (_, outputs, arena) = runner.into_parts();
        assert!(
            outputs.is_empty(),
            "lockstep items are all still in flight: the retired prefix is empty"
        );
        assert_eq!(
            arena.pooled_states(),
            9,
            "cancelled items' states stay in the arena"
        );
    }

    #[test]
    fn a_capped_staggered_run_yields_the_retired_prefix() {
        let mut datapath = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        let (_, expected) = run_alone(&mut datapath, staggered_query(&[1, 2, 3, 4]));
        assert_eq!(expected, vec![1, 2, 3, 4], "every round of every item hit");

        // Passes carry 4, 3 and 2 beats (items retire as their rounds run out).  A cap of 8
        // admits all three (4, then 7, both under the cap) and cancels at the fourth boundary
        // with 9 beats spent.  An item retires on the pass AFTER its last beat (build returns
        // false), so by then only items 0 and 1 have retired: the prefix is 2.
        let mut capped_dp = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        let mut runner = StreamRunner::new(staggered_query(&[1, 2, 3, 4]));
        let run = FusedScheduler::new().run_capped(&mut capped_dp, &mut [&mut runner], 8);
        assert_eq!(
            run,
            CappedFusedRun {
                beats: 9,
                complete: false
            }
        );
        let (_, outputs, total) = runner.finish_partial();
        assert_eq!(total, 4);
        assert_eq!(
            outputs,
            expected[..2],
            "the retired prefix is bit-identical to the uncapped run"
        );
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
        let progress = fused.run_policy(
            &mut reference_dp,
            &mut [&mut reference],
            &ExecPolicy::scalar(),
            4,
        );
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
        // Sequential reference: each stream runs alone.
        let mut sequential_dp = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        let (_, expected_a) = run_alone(&mut sequential_dp, toy_query(7, 3));
        let (_, expected_b) = run_alone(
            &mut sequential_dp,
            toy_query_of_kind(QueryKind::AnyHit, 4, 5),
        );
        assert_eq!(sequential_dp.beat_mix().passes(), 3 + 5);
        assert_eq!(sequential_dp.beat_mix().fused_passes(), 0);

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

    /// A stream implementing only the required [`FusedStream`] methods, as a stream outside
    /// the crate may: its beats reach the scheduler through the request-owning defaults
    /// (`build_beats` carrying the requests `build_pass` expands as owned beats).
    struct Requests<S>(S);

    impl<S: FusedStream> FusedStream for Requests<S> {
        fn kind(&self) -> QueryKind {
            self.0.kind()
        }

        fn start(&mut self) {
            self.0.start();
        }

        fn is_active(&self) -> bool {
            self.0.is_active()
        }

        fn build_pass(&mut self, out: &mut Vec<RayFlexRequest>, max_beats: usize) -> usize {
            self.0.build_pass(out, max_beats)
        }

        fn apply_pass(&mut self, responses: &[RayFlexResponse]) {
            self.0.apply_pass(responses);
        }
    }

    /// How a fallback-equivalence run dispatches its streams.
    #[derive(Debug, Clone, Copy)]
    enum Dispatch {
        Run,
        Reference,
        Policy(ExecMode, u64),
    }

    /// Everything a fused run reports, per stream and in total.
    #[derive(Debug, PartialEq)]
    struct FallbackRun {
        progress: CappedFusedRun,
        closest: (Vec<Option<crate::TraversalHit>>, crate::TraversalStats),
        any: (Vec<Option<crate::TraversalHit>>, crate::TraversalStats),
        /// Distance bits and beats of the uncapped runs' scoring stream.
        distances: Option<(Vec<u32>, u64)>,
        stream_passes: Vec<u64>,
        mix: rayflex_core::BeatMix,
    }

    /// Runs a closest-hit stream beside an unwrapped any-hit stream (and, uncapped, a distance
    /// stream, wrapped alike) under `dispatch`, the closest-hit and distance streams wrapped in
    /// [`Requests`] when `wrap`.
    fn fallback_run(dispatch: Dispatch, wrap: bool) -> FallbackRun {
        use crate::{DistanceStream, KnnMetric, Scene, TraversalStream};
        use rayflex_geometry::Triangle;

        let scene = Scene::flat(
            (0..40)
                .map(|i| {
                    let (x, y) = ((i % 8) as f32 - 4.0, (i / 8) as f32 - 2.5);
                    let z = 5.0 + (i % 5) as f32 * 0.7;
                    Triangle::new(
                        Vec3::new(x, y, z),
                        Vec3::new(x + 1.2, y + 0.1, z + 0.3),
                        Vec3::new(x + 0.2, y + 1.1, z - 0.4),
                    )
                })
                .collect(),
        );
        let rays: Vec<Ray> = (0..48)
            .map(|i| {
                let origin = Vec3::new((i % 8) as f32 * 0.9 - 3.6, (i / 8) as f32 * 0.8 - 2.4, 0.0);
                Ray::new(origin, Vec3::new(0.03 * (i % 5) as f32, -0.02, 1.0))
            })
            .collect();
        let shadows: Vec<Ray> = rays
            .iter()
            .map(|ray| Ray::with_extent(ray.origin, ray.dir, 0.0, 6.0))
            .collect();
        let query: Vec<f32> = (0..20).map(|d| d as f32 * 0.25 - 2.0).collect();
        let candidates: Vec<Vec<f32>> = (0..9)
            .map(|c| (0..20).map(|d| ((c * 7 + d) % 11) as f32 * 0.3).collect())
            .collect();

        let mut datapath = RayFlexDatapath::new(PipelineConfig::extended_unified());
        datapath.set_simd_lanes(16);
        let mut closest = Requests(
            TraversalStream::closest_hit(&scene, &rays)
                .with_coherence(CoherenceMode::SortAndCompact),
        );
        let mut any = TraversalStream::any_hit(&scene, &shadows);
        let mut distance = Requests(DistanceStream::new(
            &query,
            &candidates,
            KnnMetric::Euclidean,
        ));
        let uncapped = !matches!(dispatch, Dispatch::Policy(_, cap) if cap != 0);
        let mut fused = FusedScheduler::new();
        let progress = {
            let mut streams: Vec<&mut dyn FusedStream> = if wrap {
                vec![&mut closest, &mut any, &mut distance]
            } else {
                vec![&mut closest.0, &mut any, &mut distance.0]
            };
            if !uncapped {
                // A capped run may cancel the scoring stream, which has no partial finish.
                streams.pop();
            }
            match dispatch {
                Dispatch::Run => {
                    fused.run(&mut datapath, &mut streams);
                    CappedFusedRun {
                        beats: datapath.executed_beats(),
                        complete: true,
                    }
                }
                Dispatch::Reference => {
                    fused.run_reference(&mut datapath, &mut streams);
                    CappedFusedRun {
                        beats: datapath.executed_beats(),
                        complete: true,
                    }
                }
                Dispatch::Policy(mode, cap) => {
                    let policy = ExecPolicy {
                        mode,
                        ..ExecPolicy::fused().with_beat_budget(5)
                    };
                    fused.run_policy(&mut datapath, &mut streams, &policy, cap)
                }
            }
        };
        FallbackRun {
            progress,
            closest: closest.0.finish_partial(),
            any: any.finish_partial(),
            distances: uncapped.then(|| {
                let (distances, stats) = distance.0.finish();
                (distances.iter().map(|d| d.to_bits()).collect(), stats.beats)
            }),
            stream_passes: fused.last_run_stream_passes().to_vec(),
            mix: datapath.beat_mix(),
        }
    }

    #[test]
    fn streams_on_the_request_fallback_run_exactly_like_descriptor_streams() {
        let whole = fallback_run(Dispatch::Run, false);
        assert!(whole.closest.0.iter().any(Option::is_some), "some rays hit");
        let total = whole.progress.beats;
        for dispatch in [Dispatch::Run, Dispatch::Reference] {
            assert_eq!(
                fallback_run(dispatch, true),
                fallback_run(dispatch, false),
                "{dispatch:?}"
            );
        }
        for mode in [
            ExecMode::ScalarReference,
            ExecMode::Wavefront,
            ExecMode::Fused,
        ] {
            for cap in [1, total / 2, 0] {
                let dispatch = Dispatch::Policy(mode, cap);
                let plain = fallback_run(dispatch, false);
                assert_eq!(plain.progress.complete, cap == 0, "{dispatch:?}");
                assert_eq!(fallback_run(dispatch, true), plain, "{dispatch:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "run to completion")]
    fn finishing_an_unrun_stream_panics() {
        let runner = StreamRunner::new(toy_query(2, 1));
        let _ = runner.finish();
    }
}
