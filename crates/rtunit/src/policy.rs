//! Execution policies: **one** policy-driven entry point per query kind instead of a method per
//! execution mode.
//!
//! Four PRs of growth each added named method variants — `closest_hits` /
//! `closest_hits_wavefront` / `trace_fused` / `trace_fused_parallel`, six `render_deferred*`
//! flavours — turning the public surface into an M×N matrix of query kinds × execution modes.
//! The paper's unified-RT-unit premise is that *one datapath serves heterogeneous query kinds*;
//! the API mirrors that now: every engine exposes a single entry point per query kind
//! ([`TraversalEngine::trace`](crate::TraversalEngine::trace),
//! [`Renderer::render`](crate::Renderer::render),
//! [`KnnEngine::distances`](crate::KnnEngine::distances) /
//! [`KnnEngine::k_nearest`](crate::KnnEngine::k_nearest),
//! [`HierarchicalSearch::radius_queries`](crate::HierarchicalSearch::radius_queries)) that takes
//! an [`ExecPolicy`] selecting *how* the work is dispatched.  New execution axes (SIMD packets,
//! rayon pools, QoS knobs) compose into the policy instead of multiplying the method matrix
//! again.
//!
//! The cross-policy contract is the repository's tentpole invariant, stated once and enforced
//! everywhere by `rtunit/tests/proptest_policy.rs`: **every [`ExecMode`] produces bit-identical
//! outputs and identical statistics** for the same request.  Modes differ only in dispatch —
//! per-beat emulated execution, or bulk passes through the one batched scheduler
//! ([`FusedScheduler`](crate::FusedScheduler)) with each stream alone (wavefront), all streams
//! together (fused), or sharded across worker threads — never in the per-item beat sequence.

/// How many worker shards an [`ExecMode::Parallel`] run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardHint {
    /// Use the machine's available parallelism
    /// ([`default_parallelism`](crate::default_parallelism)).
    #[default]
    Auto,
    /// Request exactly this many workers.  The effective count is still auto-tuned downward so
    /// no shard drops below the minimum profitable size
    /// ([`MIN_RAYS_PER_SHARD`](crate::MIN_RAYS_PER_SHARD)); the degenerate `Count(0)` is clamped
    /// to 1 at policy resolution, so `Count(0)` and `Count(1)` both run inline on the calling
    /// thread — a zero-worker request never reaches the pool.
    Count(usize),
}

impl ShardHint {
    /// The worker count this hint requests, resolving [`ShardHint::Auto`] to the machine's
    /// available parallelism and clamping the degenerate `Count(0)` to one worker.  Always ≥ 1.
    #[must_use]
    pub fn requested_threads(self) -> usize {
        match self {
            ShardHint::Auto => crate::parallel::default_parallelism(),
            ShardHint::Count(count) => count.max(1),
        }
    }
}

/// The coherence discipline of the batched dispatch modes: how a scheduler orders and packs
/// the items of each pass before their beats reach the datapath.
///
/// Coherence moves *dispatch order only* — every item's own beat sequence is unchanged and
/// results are reassembled by item index — so outputs and per-item statistics are bit-identical
/// in every mode; only throughput statistics ([`BeatMix::passes`](rayflex_core::BeatMix::passes),
/// [`BeatMix::simd_lane_occupancy`](rayflex_core::BeatMix::simd_lane_occupancy)) move.
/// [`ExecMode::ScalarReference`] dispatches one emulated beat at a time and ignores the knob by
/// definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoherenceMode {
    /// Admit items in caller order (the pre-coherence behaviour).
    Off,
    /// Sort the admission order once by ray octant + origin Morton key
    /// ([`RayOperand::coherence_key`](rayflex_core::RayOperand::coherence_key)), so rays that
    /// traverse similar node sequences build adjacent pass slots, and bucket each pass by
    /// opcode: ray–triangle trains are deferred behind the ray–box beats, so box beats pack
    /// into wide issues and triangle trains concatenate into long same-opcode runs.  The
    /// default for the batched modes — it nearly halves the lane slots `Off` occupies.
    #[default]
    SortAndCompact,
}

impl CoherenceMode {
    /// Every coherence mode, in off-first order (the sweep order of the policy matrix tests).
    pub const ALL: [CoherenceMode; 2] = [CoherenceMode::Off, CoherenceMode::SortAndCompact];

    /// A short stable name for reports and CLI flags (`off`, `sort-compact`).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            CoherenceMode::Off => "off",
            CoherenceMode::SortAndCompact => "sort-compact",
        }
    }
}

/// The admission ordering of the fused scheduler's shared passes: which stream's beat segment
/// is issued first when several streams merge into one pass.
///
/// This is the deadline-aware reordering left open since the QoS work landed: an online server
/// coalescing requests from many clients wants the stream closest to its deadline issued at the
/// front of every shared pass, so its beats (and its per-pass budget share) are the first
/// through the datapath.  Admission order moves *issue order only* — per-stream outputs and
/// statistics are admission-order-invariant (segments stay contiguous and results demux by
/// stream), which `rtunit/tests/proptest_policy.rs` pins alongside the other dispatch knobs.
///
/// Streams without a deadline (`0`) sort after every deadline-carrying stream, tied by stream
/// index, so [`AdmissionOrder::EarliestDeadlineFirst`] with no deadlines set is exactly
/// [`AdmissionOrder::Fifo`].  The sharded [`ExecMode::Parallel`] backend ignores the knob (each
/// worker owns a contiguous slice, so there is no cross-stream issue order to choose), which is
/// observationally indistinguishable by the invariance above.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionOrder {
    /// Streams are admitted in caller order (the pre-deadline behaviour).
    #[default]
    Fifo,
    /// Streams are admitted earliest-deadline-first: segments of each shared pass are built and
    /// issued in ascending deadline order (deadline `0` = none = last; ties by stream index).
    EarliestDeadlineFirst,
}

impl AdmissionOrder {
    /// Every admission order, in FIFO-first order (the sweep order of the policy matrix tests).
    pub const ALL: [AdmissionOrder; 2] =
        [AdmissionOrder::Fifo, AdmissionOrder::EarliestDeadlineFirst];

    /// A short stable name for reports and CLI flags (`fifo`, `edf`).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            AdmissionOrder::Fifo => "fifo",
            AdmissionOrder::EarliestDeadlineFirst => "edf",
        }
    }

    /// Parses a CLI-style order name (`fifo`, `edf`, case-insensitive), or `None` for anything
    /// else.
    #[must_use]
    pub fn parse(name: &str) -> Option<AdmissionOrder> {
        match name.to_ascii_lowercase().as_str() {
            "fifo" => Some(AdmissionOrder::Fifo),
            "edf" => Some(AdmissionOrder::EarliestDeadlineFirst),
            _ => None,
        }
    }
}

impl core::fmt::Display for AdmissionOrder {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// The execution mode of a policy: *how* a query's beats reach the datapath.
///
/// All modes produce bit-identical outputs and statistics for the same request (the per-item
/// beat sequence is mode-invariant); they differ in dispatch style and therefore in throughput
/// and in what they model:
///
/// | Mode | Dispatch | Models |
/// |---|---|---|
/// | [`ScalarReference`](ExecMode::ScalarReference) | one emulated beat at a time | the register-accurate reference |
/// | [`Wavefront`](ExecMode::Wavefront) | bulk passes of one stream's segment each, streams drained in turn | one RT unit, one query kind in flight |
/// | [`Parallel`](ExecMode::Parallel) | sharded worker threads | several RT units side by side |
/// | [`Fused`](ExecMode::Fused) | shared mixed-kind bulk passes | one unified RT unit time-multiplexing kinds |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// The scalar reference: every beat executes one at a time through the register-accurate
    /// emulated datapath.  Slow, and the semantic anchor every other mode is pinned against.
    ScalarReference,
    /// The batched wavefront: the whole stream stays in flight and each pass dispatches one bulk
    /// batch of beats through the fast model.  Each pass carries the segment of the first of a
    /// request's streams, in admission order, that still builds beats, so the streams drain one
    /// after another (closest-hit first, unless stream deadlines order them otherwise).  The
    /// single-threaded throughput mode.
    #[default]
    Wavefront,
    /// The wavefront sharded across worker threads, each worker keeping one private datapath
    /// (with its scheduler and arenas) warm for every chunk it takes.  Per-chunk statistics
    /// are merged by summation, so totals equal the single-threaded modes exactly.
    /// Per-beat `BeatMix` attribution stays on the worker datapaths, though: after a genuinely
    /// sharded run the calling engine's own `beat_mix` records nothing (a run small enough to
    /// fall back inline attributes normally).
    Parallel {
        /// Worker-count hint; shard sizing is still auto-tuned (see [`ShardHint`]).
        shards: ShardHint,
    },
    /// The fused multi-stream discipline: all of the request's streams share mixed-kind bulk
    /// passes over one datapath — the paper's unified RT unit time-multiplexing query kinds.
    /// Honours [`ExecPolicy::beat_budget_per_stream`].
    Fused,
}

impl ExecMode {
    /// Every execution mode, in reference-first order (the sweep order of the policy matrix
    /// tests and benches).
    pub const ALL: [ExecMode; 4] = [
        ExecMode::ScalarReference,
        ExecMode::Wavefront,
        ExecMode::Parallel {
            shards: ShardHint::Auto,
        },
        ExecMode::Fused,
    ];

    /// A short stable name for reports and CLI flags (`scalar`, `wavefront`, `parallel`,
    /// `fused`).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            ExecMode::ScalarReference => "scalar",
            ExecMode::Wavefront => "wavefront",
            ExecMode::Parallel { .. } => "parallel",
            ExecMode::Fused => "fused",
        }
    }

    /// Parses a CLI-style mode name (`scalar`, `wavefront`, `parallel`, `fused`,
    /// case-insensitive), or `None` for anything else.  `parallel` resolves its shard count
    /// automatically.
    #[must_use]
    pub fn parse(name: &str) -> Option<ExecMode> {
        match name.to_ascii_lowercase().as_str() {
            "scalar" => Some(ExecMode::ScalarReference),
            "wavefront" => Some(ExecMode::Wavefront),
            "parallel" => Some(ExecMode::Parallel {
                shards: ShardHint::Auto,
            }),
            "fused" => Some(ExecMode::Fused),
            _ => None,
        }
    }
}

impl core::fmt::Display for ExecMode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// An execution policy: the [`ExecMode`] plus the fusion/fairness knobs, built builder-style and
/// passed to every policy-taking entry point, the engines' and
/// [`FusedScheduler::run_policy`](crate::FusedScheduler::run_policy) alike.
///
/// ```
/// use rayflex_rtunit::{ExecMode, ExecPolicy};
///
/// let qos = ExecPolicy::fused().with_beat_budget(4);
/// assert_eq!(qos.mode, ExecMode::Fused);
/// assert_eq!(qos.beat_budget_per_stream, 4);
/// assert_eq!(ExecPolicy::default().mode, ExecMode::Wavefront);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecPolicy {
    /// How the query's beats are dispatched.
    pub mode: ExecMode,
    /// Fairness knob of [`ExecMode::Fused`]: the maximum beats one stream may contribute to one
    /// shared pass.  `0` means unlimited (every active item builds each pass — the classic fused
    /// discipline); `1` means strict round-robin admission (one item's beat train per stream per
    /// pass).  A single item's beat train is never split across passes, so the last admitted
    /// item may overshoot the budget by its train's tail.  Ignored by the other modes, which
    /// the scheduler runs at budget 0; outputs and statistics are budget-invariant — only pass
    /// structure changes.
    pub beat_budget_per_stream: usize,
    /// Deadline / cooperative-cancellation knob: the total datapath beats a single `try_*` call
    /// may spend before cancelling, or `0` (the default) for no deadline.
    ///
    /// The budget is checked **at pass boundaries** (the cooperative cancellation points of
    /// [`FusedScheduler`](crate::FusedScheduler)), so a run never stops mid-pass: the first pass
    /// always executes, and the run may overshoot the budget by the beats of the pass in flight
    /// when it crossed the line.  A cancelled run returns a typed partial result — the outputs
    /// of the longest fully-completed item prefix plus per-stream progress — through the `try_*`
    /// entry points ([`QueryOutcome::Partial`](crate::QueryOutcome::Partial)); entry points
    /// whose output is a global reduction (a whole frame, a top-k set) fail with
    /// [`QueryError::DeadlineExceeded`](crate::QueryError::DeadlineExceeded) instead.  The
    /// non-`try_*` entry points ignore the knob entirely and always run to completion, and
    /// [`FusedScheduler::run_policy`](crate::FusedScheduler::run_policy) takes its cap as an
    /// argument instead.
    pub max_total_beats: u64,
    /// SIMD lane width of the batched dispatch paths: how many beats (or one beat's four AABBs)
    /// the datapath's lane-batched kernels evaluate per step.  `0` (the unset default) and `1`
    /// both select the per-beat scalar fast path; `4` and `8` engage the lane kernels; other
    /// values are clamped by [`ExecPolicy::effective_simd_lanes`].  Ignored by
    /// [`ExecMode::ScalarReference`], which always runs the register-accurate per-beat emulation
    /// — the oracle the lane kernels are pinned against.  Outputs and statistics are
    /// lane-invariant (bit-identical across widths); only throughput changes.  An engine sets
    /// its datapath to this width;
    /// [`FusedScheduler::run_policy`](crate::FusedScheduler::run_policy) leaves the width of
    /// the datapath it is given as it is.
    pub simd_lanes: usize,
    /// Coherence discipline of the batched dispatch modes (see [`CoherenceMode`]): whether each
    /// scheduler sorts its admission order by ray octant + origin Morton key and packs passes
    /// into dense same-opcode trains.  Defaults to [`CoherenceMode::SortAndCompact`] for
    /// Wavefront/Parallel/Fused; [`ExecMode::ScalarReference`] ignores it by definition.
    /// Outputs and per-item statistics are coherence-invariant (bit-identical across modes);
    /// only pass structure and lane occupancy change.  An engine sets it on each stream it
    /// builds; [`FusedScheduler::run_policy`](crate::FusedScheduler::run_policy) runs each
    /// stream under the coherence it was built with
    /// ([`TraversalStream::with_coherence`](crate::TraversalStream::with_coherence)).
    pub coherence: CoherenceMode,
    /// Admission ordering of the scheduler's shared passes (see [`AdmissionOrder`]): whether
    /// streams issue their pass segments in caller order or earliest-deadline-first.
    /// Deadlines ride on the request ([`TraceRequest::with_stream_deadlines`](crate::TraceRequest::with_stream_deadlines)),
    /// or, driving the scheduler by hand, on
    /// [`FusedScheduler::set_stream_deadlines`](crate::FusedScheduler::set_stream_deadlines);
    /// with no deadlines set the knob is inert.  Outputs and per-stream statistics are
    /// admission-order-invariant (bit-identical across orders); only issue order within each
    /// shared pass changes.
    pub admission_order: AdmissionOrder,
}

impl ExecPolicy {
    /// The scalar register-accurate reference mode.
    #[must_use]
    pub fn scalar() -> Self {
        ExecPolicy {
            mode: ExecMode::ScalarReference,
            ..ExecPolicy::default()
        }
    }

    /// The batched wavefront mode (the default).
    #[must_use]
    pub fn wavefront() -> Self {
        ExecPolicy::default()
    }

    /// The thread-parallel mode with an explicit worker-count hint.
    #[must_use]
    pub fn parallel(threads: usize) -> Self {
        ExecPolicy {
            mode: ExecMode::Parallel {
                shards: ShardHint::Count(threads),
            },
            ..ExecPolicy::default()
        }
    }

    /// The fused shared-pass mode.
    #[must_use]
    pub fn fused() -> Self {
        ExecPolicy {
            mode: ExecMode::Fused,
            ..ExecPolicy::default()
        }
    }

    /// A policy of the given mode with default knobs.
    #[must_use]
    pub fn with_mode(mode: ExecMode) -> Self {
        ExecPolicy {
            mode,
            ..ExecPolicy::default()
        }
    }

    /// Sets the per-stream beat budget of fused passes (see
    /// [`ExecPolicy::beat_budget_per_stream`]).
    #[must_use]
    pub fn with_beat_budget(mut self, beats_per_stream_per_pass: usize) -> Self {
        self.beat_budget_per_stream = beats_per_stream_per_pass;
        self
    }

    /// Sets the deadline knob: the total datapath beats a `try_*` call may spend before
    /// cooperatively cancelling at the next pass boundary (see
    /// [`ExecPolicy::max_total_beats`]).  `0` disables the deadline.
    #[must_use]
    pub fn with_max_total_beats(mut self, max_total_beats: u64) -> Self {
        self.max_total_beats = max_total_beats;
        self
    }

    /// Sets the SIMD lane width of the batched dispatch paths (see
    /// [`ExecPolicy::simd_lanes`]).  The value is stored as given and clamped at resolution.
    #[must_use]
    pub fn with_simd_lanes(mut self, lanes: usize) -> Self {
        self.simd_lanes = lanes;
        self
    }

    /// Sets the coherence discipline of the batched dispatch modes (see
    /// [`ExecPolicy::coherence`]).
    #[must_use]
    pub fn with_coherence(mut self, coherence: CoherenceMode) -> Self {
        self.coherence = coherence;
        self
    }

    /// Sets the admission ordering of the fused scheduler's shared passes (see
    /// [`ExecPolicy::admission_order`]).
    #[must_use]
    pub fn with_admission_order(mut self, admission_order: AdmissionOrder) -> Self {
        self.admission_order = admission_order;
        self
    }

    /// The clamped SIMD lane width the engines hand to the datapath: degenerate requests (0)
    /// resolve to 1, oversized requests saturate at
    /// [`rayflex_core::MAX_SIMD_LANES`], and the `force-scalar` build pins everything to 1.
    #[must_use]
    pub fn effective_simd_lanes(&self) -> usize {
        rayflex_core::clamp_simd_lanes(self.simd_lanes)
    }

    /// The coherence mode this policy actually admits under:
    /// [`ExecMode::ScalarReference`] always resolves to [`CoherenceMode::Off`] — it executes
    /// one beat at a time, so no admission order can fill a lane — while the batched modes use
    /// the stored knob verbatim.
    #[must_use]
    pub fn effective_coherence(&self) -> CoherenceMode {
        if self.mode == ExecMode::ScalarReference {
            CoherenceMode::Off
        } else {
            self.coherence
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_names_round_trip_through_parse() {
        for mode in ExecMode::ALL {
            assert_eq!(ExecMode::parse(mode.name()), Some(mode));
            assert_eq!(mode.to_string(), mode.name());
        }
        assert_eq!(ExecMode::parse("warp"), None);
    }

    #[test]
    fn parse_is_case_insensitive() {
        assert_eq!(ExecMode::parse("Scalar"), Some(ExecMode::ScalarReference));
        assert_eq!(ExecMode::parse("WAVEFRONT"), Some(ExecMode::Wavefront));
        assert_eq!(
            ExecMode::parse("Parallel"),
            Some(ExecMode::Parallel {
                shards: ShardHint::Auto
            })
        );
        assert_eq!(ExecMode::parse("FuSeD"), Some(ExecMode::Fused));
        assert_eq!(ExecMode::parse("WARP"), None);
    }

    #[test]
    fn the_deadline_knob_defaults_off_and_builds() {
        assert_eq!(ExecPolicy::default().max_total_beats, 0);
        let capped = ExecPolicy::wavefront().with_max_total_beats(512);
        assert_eq!(capped.max_total_beats, 512);
        assert_eq!(capped.mode, ExecMode::Wavefront);
        assert_eq!(
            ExecPolicy::fused()
                .with_beat_budget(2)
                .with_max_total_beats(64)
                .beat_budget_per_stream,
            2
        );
    }

    #[test]
    fn builders_set_the_expected_modes() {
        assert_eq!(ExecPolicy::scalar().mode, ExecMode::ScalarReference);
        assert_eq!(ExecPolicy::wavefront(), ExecPolicy::default());
        assert_eq!(
            ExecPolicy::parallel(3).mode,
            ExecMode::Parallel {
                shards: ShardHint::Count(3)
            }
        );
        assert_eq!(
            ExecPolicy::with_mode(ExecMode::Parallel {
                shards: ShardHint::Auto
            })
            .mode,
            ExecMode::Parallel {
                shards: ShardHint::Auto
            }
        );
        assert_eq!(
            ExecPolicy::fused().with_beat_budget(1).mode,
            ExecMode::Fused
        );
        assert_eq!(ExecPolicy::default().beat_budget_per_stream, 0);
        assert_eq!(
            ExecPolicy::with_mode(ExecMode::Fused).with_beat_budget(7),
            ExecPolicy::fused().with_beat_budget(7)
        );
    }

    #[test]
    fn shard_hints_resolve_to_positive_worker_counts() {
        assert!(ShardHint::Auto.requested_threads() >= 1);
        assert_eq!(ShardHint::Count(5).requested_threads(), 5);
        assert_eq!(ShardHint::default(), ShardHint::Auto);
    }

    #[test]
    fn degenerate_zero_worker_hints_clamp_to_one_at_resolution() {
        assert_eq!(
            ShardHint::Count(0).requested_threads(),
            1,
            "a zero-worker request must never reach the pool"
        );
        assert_eq!(ShardHint::Count(1).requested_threads(), 1);
        // The policy builders go through the same resolution path.
        let ExecMode::Parallel { shards } = ExecPolicy::parallel(0).mode else {
            panic!("parallel(0) must still build a Parallel policy");
        };
        assert_eq!(shards.requested_threads(), 1);
    }

    #[test]
    fn the_coherence_knob_defaults_to_sort_and_compact_and_composes() {
        assert_eq!(
            ExecPolicy::default().coherence,
            CoherenceMode::SortAndCompact
        );
        assert_eq!(CoherenceMode::default(), CoherenceMode::SortAndCompact);
        let off = ExecPolicy::wavefront().with_coherence(CoherenceMode::Off);
        assert_eq!(off.coherence, CoherenceMode::Off);
        assert_eq!(off.mode, ExecMode::Wavefront);
        let composed = ExecPolicy::fused()
            .with_beat_budget(2)
            .with_coherence(CoherenceMode::Off)
            .with_simd_lanes(8);
        assert_eq!(composed.coherence, CoherenceMode::Off);
        assert_eq!(composed.beat_budget_per_stream, 2);
        assert_eq!(composed.simd_lanes, 8);
        let names: Vec<_> = CoherenceMode::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names, ["off", "sort-compact"]);
    }

    #[test]
    fn the_admission_order_knob_defaults_to_fifo_and_composes() {
        assert_eq!(ExecPolicy::default().admission_order, AdmissionOrder::Fifo);
        assert_eq!(AdmissionOrder::default(), AdmissionOrder::Fifo);
        let edf = ExecPolicy::fused()
            .with_beat_budget(1)
            .with_admission_order(AdmissionOrder::EarliestDeadlineFirst);
        assert_eq!(
            edf.admission_order,
            AdmissionOrder::EarliestDeadlineFirst,
            "the builder stores the knob"
        );
        assert_eq!(edf.beat_budget_per_stream, 1, "composes with QoS");
        for order in AdmissionOrder::ALL {
            assert_eq!(AdmissionOrder::parse(order.name()), Some(order));
            assert_eq!(order.to_string(), order.name());
        }
        assert_eq!(
            AdmissionOrder::parse("EDF"),
            Some(AdmissionOrder::EarliestDeadlineFirst)
        );
        assert_eq!(AdmissionOrder::parse("lifo"), None);
    }

    #[test]
    fn simd_lane_requests_clamp_at_policy_resolution() {
        // The stored field is verbatim; resolution clamps.
        assert_eq!(ExecPolicy::default().simd_lanes, 0);
        assert_eq!(ExecPolicy::default().effective_simd_lanes(), 1);
        assert_eq!(
            ExecPolicy::wavefront()
                .with_simd_lanes(0)
                .effective_simd_lanes(),
            1,
            "lane-count 0 resolves to the scalar width"
        );
        if rayflex_core::clamp_simd_lanes(8) == 1 {
            // The force-scalar build: every request resolves to the scalar width.
            assert_eq!(
                ExecPolicy::wavefront()
                    .with_simd_lanes(8)
                    .effective_simd_lanes(),
                1
            );
        } else {
            assert_eq!(
                ExecPolicy::wavefront()
                    .with_simd_lanes(4)
                    .effective_simd_lanes(),
                4
            );
            assert_eq!(
                ExecPolicy::parallel(2)
                    .with_simd_lanes(8)
                    .effective_simd_lanes(),
                8
            );
            assert_eq!(
                ExecPolicy::fused()
                    .with_simd_lanes(1000)
                    .effective_simd_lanes(),
                rayflex_core::MAX_SIMD_LANES,
                "oversized requests saturate at the widest kernel"
            );
        }
        // The knob composes with the other builders without disturbing them.
        let policy = ExecPolicy::fused().with_beat_budget(2).with_simd_lanes(4);
        assert_eq!(policy.beat_budget_per_stream, 2);
        assert_eq!(policy.simd_lanes, 4);
    }
}
