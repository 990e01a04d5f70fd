//! The functional (un-timed) model of the datapath.

use core::ops::Range;

use crate::stages;
use crate::{
    AccumulatorState, BeatSource, Opcode, PipelineConfig, QueryKind, RayFlexRequest,
    RayFlexResponse, SharedRayFlexData,
};

/// Per-opcode — and, for attributed dispatches, per-query-kind × per-opcode — counters of the
/// beats a datapath has executed.
///
/// Wavefront schedulers drive *mixed-opcode* passes through the bulk interface (a single batch
/// may interleave ray–box, ray–triangle and distance beats of unrelated queries); this breakdown
/// lets callers attribute datapath work to operation kinds without threading counters through
/// every query layer themselves.  Fused schedulers go one step further and mix beats of
/// *different query kinds* in one pass; the segmented dispatch interface
/// ([`RayFlexDatapath::execute_batch_segmented`]) records which [`QueryKind`] owns each beat, so
/// the per-kind table decomposes a fused pass the way the unified RT unit of §V-A would be
/// profiled.  Beats executed through the unattributed interfaces count toward the per-opcode
/// totals only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BeatMix {
    counts: [u64; Opcode::ALL.len()],
    kind_counts: [[u64; Opcode::ALL.len()]; QueryKind::ALL.len()],
    /// Bulk passes dispatched through the segmented interface.
    passes: u64,
    /// Segmented passes whose segments spanned at least two distinct query kinds.
    fused_passes: u64,
    /// Ray–box beats whose tag carried [`crate::TLAS_PHASE_TAG`] — the top-level (instance
    /// hierarchy) phase of a two-level scene traversal.
    tlas_box_beats: u64,
    /// Issue slots the lane-batched kernels cycled through (every issue — vector or scalar
    /// remainder — charges the full dispatch width).
    simd_lane_slots: u64,
    /// Lanes that carried a live beat across those issues.
    simd_lanes_busy: u64,
}

impl BeatMix {
    /// Records a same-opcode run of `count` beats, attributed to `kind` when given.
    fn record_run(&mut self, opcode: Opcode, kind: Option<QueryKind>, count: u64) {
        self.counts[Self::slot(opcode)] += count;
        if let Some(kind) = kind {
            self.kind_counts[Self::kind_slot(kind)][Self::slot(opcode)] += count;
        }
    }

    /// Constant-time counter slot; runs on the per-beat hot path, so no table scan.  The mapping
    /// matches the [`Opcode::ALL`] order (pinned by a test below).
    fn slot(opcode: Opcode) -> usize {
        match opcode {
            Opcode::RayBox => 0,
            Opcode::RayTriangle => 1,
            Opcode::Euclidean => 2,
            Opcode::Cosine => 3,
        }
    }

    /// Constant-time kind slot, matching the [`QueryKind::ALL`] order (pinned by a test below).
    fn kind_slot(kind: QueryKind) -> usize {
        match kind {
            QueryKind::ClosestHit => 0,
            QueryKind::AnyHit => 1,
            QueryKind::Distance => 2,
            QueryKind::Collect => 3,
        }
    }

    /// Beats executed with the given opcode (attributed or not).
    #[must_use]
    pub fn count(&self, opcode: Opcode) -> u64 {
        self.counts[Self::slot(opcode)]
    }

    /// Total beats executed across all opcodes.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Beats of the given opcode attributed to the given query kind (zero for beats executed
    /// through the unattributed interfaces).
    #[must_use]
    pub fn count_for(&self, kind: QueryKind, opcode: Opcode) -> u64 {
        self.kind_counts[Self::kind_slot(kind)][Self::slot(opcode)]
    }

    /// Total beats attributed to the given query kind, across all opcodes.
    #[must_use]
    pub fn kind_total(&self, kind: QueryKind) -> u64 {
        self.kind_counts[Self::kind_slot(kind)].iter().sum()
    }

    /// Bulk passes dispatched through the segmented (kind-attributed) interface.
    #[must_use]
    pub fn passes(&self) -> u64 {
        self.passes
    }

    /// Segmented passes that interleaved beats of at least two distinct query kinds — the
    /// observable fingerprint of a fused multi-stream schedule.
    #[must_use]
    pub fn fused_passes(&self) -> u64 {
        self.fused_passes
    }

    /// Ray–box beats attributed to the top-level (TLAS) phase of a two-level scene traversal —
    /// beats whose tag carried [`crate::TLAS_PHASE_TAG`].  Flat scenes never set the bit, so
    /// this stays zero for single-level workloads; for instanced scenes it splits
    /// [`BeatMix::count`]`(Opcode::RayBox)` into instance-hierarchy and geometry-hierarchy work.
    #[must_use]
    pub fn tlas_box_beats(&self) -> u64 {
        self.tlas_box_beats
    }

    /// Records one lane-batched kernel dispatch: `busy` lanes carried beats across issues
    /// totalling `slots` lane-slots.
    fn record_lanes(&mut self, busy: u64, slots: u64) {
        self.simd_lanes_busy += busy;
        self.simd_lane_slots += slots;
    }

    /// Issue slots the lane-batched ray kernels cycled through: every kernel issue — eight-wide,
    /// four-wide, or a scalar remainder beat — charges the full SIMD dispatch width, because an
    /// idle vector lane costs the same cycle as a busy one.  Zero when the scalar path ran
    /// (`simd_lanes < 4`) or only distance beats executed.
    #[must_use]
    pub fn simd_lane_slots(&self) -> u64 {
        self.simd_lane_slots
    }

    /// Lanes of those issue slots that carried a live beat (see [`BeatMix::simd_lane_slots`]).
    #[must_use]
    pub fn simd_lanes_busy(&self) -> u64 {
        self.simd_lanes_busy
    }

    /// SIMD lane occupancy of the lane-batched kernels: busy lanes over dispatched lane-slots,
    /// in `[0, 1]`.  Zero when no lane-batched kernel ran.  Unlike the beat counters this is a
    /// *throughput* statistic of the dispatch order (like [`BeatMix::passes`]): coherence-sorted
    /// schedules raise it without changing any beat count.
    #[must_use]
    pub fn simd_lane_occupancy(&self) -> f64 {
        if self.simd_lane_slots == 0 {
            0.0
        } else {
            self.simd_lanes_busy as f64 / self.simd_lane_slots as f64
        }
    }

    /// Iterator over `(opcode, count)` pairs in the stable [`Opcode::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (Opcode, u64)> + '_ {
        Opcode::ALL.iter().map(|&o| (o, self.count(o)))
    }

    /// Iterator over `(kind, opcode, count)` triples in the stable `ALL` orders, covering the
    /// attributed counters only.
    pub fn iter_kinds(&self) -> impl Iterator<Item = (QueryKind, Opcode, u64)> + '_ {
        QueryKind::ALL.iter().flat_map(move |&kind| {
            Opcode::ALL
                .iter()
                .map(move |&opcode| (kind, opcode, self.count_for(kind, opcode)))
        })
    }
}

/// A purely functional model of the RayFlex datapath: each call to [`RayFlexDatapath::execute`]
/// runs one beat through all eleven stages immediately.
///
/// The functional model shares every line of stage logic with the cycle-accurate
/// [`RayFlexPipeline`](crate::RayFlexPipeline) — including the accumulator state of the extended
/// operations — so the two produce identical results; only timing information differs.  Use this
/// model for workload-level studies (BVH traversal, k-nearest-neighbour search) where simulating
/// every pipeline register would be needlessly slow.
///
/// For throughput-oriented callers the datapath also offers bulk interfaces, which run the
/// native fast model (the private `fastpath` module) instead of the stage functions:
/// [`RayFlexDatapath::execute_batch`] runs a slice of requests,
/// [`RayFlexDatapath::execute_batch_segmented`] runs one kind-attributed pass of requests, and
/// [`RayFlexDatapath::begin_streamed_pass`] / [`RayFlexDatapath::execute_window`] run a
/// kind-attributed pass from any [`BeatSource`] (the RT unit's beat descriptors) a window of
/// responses at a time.  Their bit-identity to beat-at-a-time execution is pinned by the
/// property tests in `crates/core/tests/proptest_batch.rs`, so a stage-logic change that
/// diverges from the golden models fails the suite rather than silently splitting the paths.
///
/// # Example
///
/// ```
/// use rayflex_core::{PipelineConfig, RayFlexDatapath, RayFlexRequest};
///
/// let mut datapath = RayFlexDatapath::new(PipelineConfig::extended_unified());
/// let beat = RayFlexRequest::euclidean(0, [2.0; 16], [0.0; 16], u16::MAX, true);
/// let response = datapath.execute(&beat);
/// assert_eq!(response.distance_result.unwrap().euclidean_accumulator, 64.0);
/// ```
#[derive(Debug, Clone)]
pub struct RayFlexDatapath {
    config: PipelineConfig,
    accumulators: AccumulatorState,
    executed: u64,
    mix: BeatMix,
    /// Reusable beat buffer for the in-place execution path.  Boxed so the (large) Shared RayFlex
    /// Data Structure lives at a stable heap address instead of being copied around with the
    /// datapath value.
    scratch: Box<SharedRayFlexData>,
    /// SIMD lane width of the bulk interfaces: 1 keeps the per-beat scalar fast path, ≥ 4
    /// engages the lane-batched kernels.  Always a value [`crate::clamp_simd_lanes`] accepts.
    simd_lanes: usize,
}

/// Responses per window of a streamed pass ([`RayFlexDatapath::execute_window`]): 1024
/// responses take 80 KiB, so a streamed pass holds that much response memory however many
/// beats it carries (a whole 15 416-beat pass of responses would take 1.2 MB).
const RESPONSE_WINDOW: usize = 1024;

/// A segmented bulk pass in flight through [`RayFlexDatapath::execute_window`]: where the next
/// window resumes, and which segment's beats it is attributing.  Opened by
/// [`RayFlexDatapath::begin_streamed_pass`], which has already counted the pass.
#[derive(Debug, Clone)]
pub struct StreamedPass {
    /// Beats the pass carries.
    beats: usize,
    /// First beat the next window dispatches.
    next: usize,
    /// Attribution state, carried from window to window.
    cursor: SegmentCursor,
}

impl StreamedPass {
    /// `true` once every beat of the pass has been dispatched.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.next == self.beats
    }
}

impl RayFlexDatapath {
    /// Creates a functional datapath for the given configuration.
    #[must_use]
    pub fn new(config: PipelineConfig) -> Self {
        RayFlexDatapath {
            config,
            accumulators: AccumulatorState::new(),
            executed: 0,
            mix: BeatMix::default(),
            scratch: Box::default(),
            simd_lanes: 1,
        }
    }

    /// Sets the SIMD lane width of the bulk interfaces ([`RayFlexDatapath::execute_batch`],
    /// [`RayFlexDatapath::execute_batch_segmented`] and [`RayFlexDatapath::execute_window`]).  Degenerate and oversized requests are
    /// clamped by [`crate::clamp_simd_lanes`]; the per-beat interfaces ([`RayFlexDatapath::execute`]
    /// and [`RayFlexDatapath::execute_attributed`]) are unaffected, so the scalar reference stays
    /// the oracle.  Responses are bit-identical at every width — only throughput changes.
    pub fn set_simd_lanes(&mut self, lanes: usize) {
        self.simd_lanes = crate::fastpath::clamp_simd_lanes(lanes);
    }

    /// The (clamped) SIMD lane width of the bulk interfaces.
    #[must_use]
    pub fn simd_lanes(&self) -> usize {
        self.simd_lanes
    }

    /// The configuration this datapath models.
    #[must_use]
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Number of beats executed so far.
    #[must_use]
    pub fn executed_beats(&self) -> u64 {
        self.executed
    }

    /// Per-opcode breakdown of the beats executed so far (across the per-beat and bulk
    /// interfaces), for attributing mixed-opcode passes to operation kinds.
    #[must_use]
    pub fn beat_mix(&self) -> BeatMix {
        self.mix
    }

    /// The current accumulator state (useful for inspecting multi-beat distance jobs).
    #[must_use]
    pub fn accumulators(&self) -> &AccumulatorState {
        &self.accumulators
    }

    /// Executes one beat through all eleven stages and returns its response.
    ///
    /// # Panics
    ///
    /// Panics if the beat's opcode is not supported by this configuration (issuing a Euclidean or
    /// cosine beat to a baseline datapath), mirroring the undefined behaviour of driving an
    /// absent opcode into the RTL.
    pub fn execute(&mut self, request: &RayFlexRequest) -> RayFlexResponse {
        self.admit_run(
            core::slice::from_ref(request),
            0..1,
            &[],
            &mut SegmentCursor::Single(None),
        );
        self.emulated_beat(request)
    }

    /// Admits a same-opcode run of beats: the shared front half of every dispatch interface —
    /// the opcode-support assertion, the executed counter, the mix recording (kind-attributed
    /// per the cursor's segments, or unattributed) and the TLAS-phase box count.  Keeping this
    /// in one place is what keeps the per-beat and bulk, attributed and unattributed interfaces
    /// bit-identical in everything but their counters.
    fn admit_run<S: BeatSource + ?Sized>(
        &mut self,
        source: &S,
        run: Range<usize>,
        segments: &[(QueryKind, usize)],
        cursor: &mut SegmentCursor,
    ) {
        let opcode = source.opcode(run.start);
        assert!(
            self.config.supports(opcode),
            "opcode {} is not supported by the {} configuration",
            opcode,
            self.config.name()
        );
        self.executed += run.len() as u64;
        cursor.take_run(segments, run.len(), |kind, count| {
            self.mix.record_run(opcode, kind, count as u64);
        });
        if opcode == Opcode::RayBox {
            self.mix.tlas_box_beats += run
                .filter(|&beat| source.tag(beat) & crate::TLAS_PHASE_TAG != 0)
                .count() as u64;
        }
    }

    /// Runs one admitted beat through the register-accurate recoded-format stage emulation.
    fn emulated_beat(&mut self, request: &RayFlexRequest) -> RayFlexResponse {
        *self.scratch = SharedRayFlexData::from_request(request);
        stages::apply_all_middle_stages_in_place(&mut self.scratch, &mut self.accumulators);
        self.scratch.to_response()
    }

    /// Executes a batch of beats in order and collects their responses.
    ///
    /// Batches run on the native fast model (see the private `fastpath` module): responses are
    /// bit-identical to calling [`RayFlexDatapath::execute`] per beat — the property test in
    /// `crates/core/tests/proptest_batch.rs` pins this for arbitrary mixed streams on every
    /// configuration — but roughly an order of magnitude faster, because no beat pays for the
    /// recoded-format emulation.
    ///
    /// # Panics
    ///
    /// Panics if any beat's opcode is unsupported (see [`RayFlexDatapath::execute`]).
    pub fn execute_batch(&mut self, requests: &[RayFlexRequest]) -> Vec<RayFlexResponse> {
        let mut responses = Vec::with_capacity(requests.len());
        self.fast_run(
            requests,
            &[],
            &mut SegmentCursor::Single(None),
            0,
            &mut responses,
            usize::MAX,
        );
        responses
    }

    /// The bulk dispatch loop of every batched interface: admits every beat of `source` from
    /// `start` on — attributed to the [`QueryKind`] the segment cursor assigns it from
    /// `segments`, or unattributed — and executes it on the native fast model, grouping
    /// adjacent beats into the run kernels.  Returns the first beat it left undispatched.
    ///
    /// Grouping relies on the scheduler adjacency the bulk interfaces already guarantee — a
    /// wavefront pass emits one beat per active item, so items in the same traversal phase sit
    /// next to each other, and a distance item appends its whole beat train at once.  When the
    /// SIMD width allows, ray–box beats vectorise *within* one beat (its four AABBs are one lane
    /// quartet) and *across* adjacent beats (up to `simd_lanes / 4` quartets share one issue),
    /// and ray–triangle beats vectorise *across* adjacent beats (runs of up to `simd_lanes`
    /// same-opcode requests share one kernel invocation); below four lanes both run one beat at a
    /// time on the scalar golden models.  Adjacent same-opcode distance beats run as one
    /// accumulator-chaining run at every width (they never occupy SIMD lanes).  Runs and groups
    /// scan the whole request slice, so they freely cross segment boundaries; the per-kind
    /// attribution is identical to dispatching each segment alone, and every grouping is
    /// bit-identical to the per-beat path.
    ///
    /// The loop stops between two groups once `responses` holds at least `window` responses
    /// (`usize::MAX` runs the whole source); distance runs, which occupy no lanes, are cut at
    /// the window so they cannot outgrow it.  The kernels read every operand through `source`,
    /// so the responses and counters depend only on what it presents.
    fn fast_run<S: BeatSource + ?Sized>(
        &mut self,
        source: &S,
        segments: &[(QueryKind, usize)],
        cursor: &mut SegmentCursor,
        start: usize,
        responses: &mut Vec<RayFlexResponse>,
        window: usize,
    ) -> usize {
        let wide = self.simd_lanes >= crate::fastpath::MIN_SIMD_LANES;
        let beats = source.beat_count();
        let mut index = start;
        while index < beats && responses.len() < window {
            let opcode = source.opcode(index);
            let width = match opcode {
                // The device carries `simd_lanes / 4` box beats per pass over the slab stages
                // (four beats at sixteen lanes, two at eight, one below).
                Opcode::RayBox if wide => self.simd_lanes / 4,
                Opcode::RayTriangle if wide => self.simd_lanes,
                Opcode::RayBox | Opcode::RayTriangle => 1,
                Opcode::Euclidean | Opcode::Cosine => window - responses.len(),
            };
            let limit = index.saturating_add(width).min(beats);
            let mut end = index + 1;
            while end < limit && source.opcode(end) == opcode {
                end += 1;
            }
            let run = index..end;
            self.admit_run(source, run.clone(), segments, cursor);
            match opcode {
                Opcode::RayBox if wide => self.issue_box_group(source, run, responses),
                Opcode::RayBox => {
                    responses.push(crate::fastpath::box_response_scalar(source, index));
                }
                Opcode::RayTriangle => {
                    if wide {
                        let (busy, slots) =
                            crate::fastpath::triangle_lane_accounting(run.len(), self.simd_lanes);
                        self.mix.record_lanes(busy, slots);
                    }
                    crate::fastpath::execute_fast_triangles(source, run, responses);
                }
                Opcode::Euclidean | Opcode::Cosine => {
                    crate::fastpath::execute_fast_distance_run(
                        source,
                        run,
                        &mut self.accumulators,
                        responses,
                    );
                }
            }
            index = end;
        }
        index
    }

    /// Dispatches a run of one to four adjacent ray–box beats as a single lane-group issue and
    /// records its occupancy: each beat's four AABBs fill one lane quartet, and the issue is
    /// charged the full device width, so the partially filled groups a short solo stream is
    /// stuck with show up as idle lanes ([`BeatMix::simd_lane_occupancy`]).
    fn issue_box_group<S: BeatSource + ?Sized>(
        &mut self,
        source: &S,
        run: Range<usize>,
        responses: &mut Vec<RayFlexResponse>,
    ) {
        debug_assert!((1..=4).contains(&run.len()));
        debug_assert!(run.len() * 4 <= self.simd_lanes);
        self.mix
            .record_lanes((run.len() * 4) as u64, self.simd_lanes as u64);
        let first = run.start;
        match run.len() {
            1 => responses.push(crate::fastpath::execute_fast_box_lanes(source, first)),
            2 => crate::fastpath::execute_fast_box_lanes_group::<8, S>(source, first, responses),
            3 => crate::fastpath::execute_fast_box_lanes_group::<12, S>(source, first, responses),
            _ => crate::fastpath::execute_fast_box_lanes_group::<16, S>(source, first, responses),
        }
    }

    /// Executes one beat through the register-accurate stage emulation, attributing it to a
    /// [`QueryKind`] in the [`BeatMix`] per-kind table — the scalar twin of
    /// [`RayFlexDatapath::execute_batch_segmented`] used by round-robin reference schedulers.
    ///
    /// # Panics
    ///
    /// Panics if the beat's opcode is unsupported (see [`RayFlexDatapath::execute`]).
    pub fn execute_attributed(
        &mut self,
        request: &RayFlexRequest,
        kind: QueryKind,
    ) -> RayFlexResponse {
        self.admit_run(
            core::slice::from_ref(request),
            0..1,
            &[],
            &mut SegmentCursor::Single(Some(kind)),
        );
        self.emulated_beat(request)
    }

    /// Executes one bulk pass whose beats are partitioned into contiguous kind-attributed
    /// segments: `segments` lists `(kind, beat_count)` pairs covering `requests` front to back.
    ///
    /// This is the dispatch interface of fused multi-stream schedulers: a single pass may carry
    /// the beats of several query kinds (a closest-hit bounce stream, its shadow rays, distance
    /// scoring), and the per-kind × per-opcode [`BeatMix`] counters record exactly which kind
    /// issued which beats.  A pass whose segments span at least two distinct kinds increments
    /// [`BeatMix::fused_passes`].  Responses are bit-identical to
    /// [`RayFlexDatapath::execute_batch`] over the same requests — attribution changes only
    /// the counters, never the datapath semantics.
    ///
    /// Lane grouping runs over the *whole* merged pass: a same-opcode run (and the ray–box
    /// quartet grouping) freely crosses segment boundaries, so the beats of many small coalesced streams
    /// fill the wide kernels exactly as one long stream would.  This is where fused batching
    /// earns its device utilisation — dispatching each segment alone issues the same beats at a
    /// fraction of the lane occupancy ([`BeatMix::simd_lane_occupancy`]).
    ///
    /// # Panics
    ///
    /// Panics if the segment lengths do not sum to `requests.len()`, or if any beat's opcode is
    /// unsupported (see [`RayFlexDatapath::execute`]).
    pub fn execute_batch_segmented(
        &mut self,
        requests: &[RayFlexRequest],
        segments: &[(QueryKind, usize)],
        responses: &mut Vec<RayFlexResponse>,
    ) {
        self.count_pass(requests.len(), segments);
        responses.clear();
        responses.reserve(requests.len());
        self.fast_run(
            requests,
            segments,
            &mut SegmentCursor::table(),
            0,
            responses,
            usize::MAX,
        );
    }

    /// Opens a streamed segmented pass of `beats` beats: counts the pass and sizes `window`
    /// for [`RayFlexDatapath::execute_window`], which then dispatches it a window at a time.
    /// A caller acts on each window (applies the responses, say) before the next one runs, so
    /// a whole pass of beats never needs a whole pass of responses beside it.
    ///
    /// # Panics
    ///
    /// Panics if the segment lengths do not sum to `beats`.
    pub fn begin_streamed_pass(
        &mut self,
        beats: usize,
        segments: &[(QueryKind, usize)],
        window: &mut Vec<RayFlexResponse>,
    ) -> StreamedPass {
        self.count_pass(beats, segments);
        // A window closes at the first group boundary at or past `RESPONSE_WINDOW`, so it never
        // holds more than one group (at most `MAX_SIMD_LANES` beats) beyond that.
        window.clear();
        window.reserve_exact(beats.min(RESPONSE_WINDOW + crate::MAX_SIMD_LANES));
        StreamedPass {
            beats,
            next: 0,
            cursor: SegmentCursor::table(),
        }
    }

    /// Dispatches the next window of a streamed pass: clears `window` and fills it with the
    /// responses of the following beats of `source` — about a thousand, always ending between
    /// two run groups (none once the pass [is finished](StreamedPass::is_finished)).  The
    /// windows of a pass together give exactly the responses and counters of
    /// [`RayFlexDatapath::execute_batch_segmented`] over the requests `source` presents;
    /// `source` must present the same beats to every window of one pass.  A window closes only
    /// between two run groups, so grouping, and therefore every counter, is the unwindowed
    /// dispatch's.
    ///
    /// # Panics
    ///
    /// Panics if `source` holds a different number of beats than the pass was opened with, or
    /// if any beat's opcode is unsupported (see [`RayFlexDatapath::execute`]).
    pub fn execute_window<S: BeatSource + ?Sized>(
        &mut self,
        source: &S,
        segments: &[(QueryKind, usize)],
        pass: &mut StreamedPass,
        window: &mut Vec<RayFlexResponse>,
    ) {
        assert_eq!(
            source.beat_count(),
            pass.beats,
            "a streamed pass dispatches the beats it was opened with"
        );
        window.clear();
        pass.next = self.fast_run(
            source,
            segments,
            &mut pass.cursor,
            pass.next,
            window,
            RESPONSE_WINDOW,
        );
    }

    /// Checks that `segments` cover a pass of `beats` beats and counts the pass.
    fn count_pass(&mut self, beats: usize, segments: &[(QueryKind, usize)]) {
        let covered: usize = segments.iter().map(|&(_, len)| len).sum();
        assert_eq!(
            covered, beats,
            "segments must cover the request batch exactly"
        );
        self.passes_accounting(segments);
    }

    /// Counts one segmented pass, detecting whether its non-empty segments mix distinct kinds.
    fn passes_accounting(&mut self, segments: &[(QueryKind, usize)]) {
        self.mix.passes += 1;
        let mut first_kind = None;
        let mut fused = false;
        for &(kind, len) in segments {
            if len == 0 {
                continue;
            }
            match first_kind {
                None => first_kind = Some(kind),
                Some(k) if k != kind => {
                    fused = true;
                    break;
                }
                Some(_) => {}
            }
        }
        if fused {
            self.mix.fused_passes += 1;
        }
    }
}

/// Yields the owning [`QueryKind`] of each beat of a bulk dispatch in beat order — the
/// attribution side of [`RayFlexDatapath::fast_run`]'s cross-segment grouping.  An unsegmented
/// dispatch is one segment covering the whole batch (`None` = unattributed); a segmented pass
/// walks its `(kind, len)` table alongside the merged beats.
#[derive(Debug, Clone, Copy)]
enum SegmentCursor {
    /// Every beat belongs to one segment.
    Single(Option<QueryKind>),
    /// Position in a pass's segment table: the current segment and the beats consumed from it.
    Table { segment: usize, consumed: usize },
}

impl SegmentCursor {
    fn table() -> Self {
        SegmentCursor::Table {
            segment: 0,
            consumed: 0,
        }
    }

    /// Splits a run of `count` beats into its per-segment `(kind, span)` pieces of `segments`,
    /// in order.
    fn take_run(
        &mut self,
        segments: &[(QueryKind, usize)],
        count: usize,
        mut span: impl FnMut(Option<QueryKind>, usize),
    ) {
        match self {
            SegmentCursor::Single(kind) => span(*kind, count),
            SegmentCursor::Table { segment, consumed } => {
                let mut left = count;
                while left > 0 {
                    while *consumed == segments[*segment].1 {
                        *segment += 1;
                        *consumed = 0;
                    }
                    let (kind, len) = segments[*segment];
                    let take = left.min(len - *consumed);
                    *consumed += take;
                    left -= take;
                    span(Some(kind), take);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayflex_geometry::{Aabb, Ray, Triangle, Vec3};

    #[test]
    fn executes_box_and_triangle_beats() {
        let mut dp = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        let ray = Ray::new(Vec3::new(0.0, 0.0, -5.0), Vec3::new(0.0, 0.0, 1.0));
        let boxes = [Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0)); 4];
        let tri = Triangle::new(
            Vec3::new(-1.0, -1.0, 3.0),
            Vec3::new(1.0, -1.0, 3.0),
            Vec3::new(0.0, 1.0, 3.0),
        );
        let responses = dp.execute_batch(&[
            RayFlexRequest::ray_box(0, &ray, &boxes),
            RayFlexRequest::ray_triangle(1, &ray, &tri),
        ]);
        assert_eq!(responses.len(), 2);
        assert!(responses[0].box_result.unwrap().hit.iter().all(|&h| h));
        assert!(responses[1].triangle_result.unwrap().hit);
        assert_eq!(dp.executed_beats(), 2);
        assert_eq!(dp.config().name(), "baseline-unified");
    }

    #[test]
    #[should_panic(expected = "not supported")]
    fn baseline_configuration_rejects_distance_beats() {
        let mut dp = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        let _ = dp.execute(&RayFlexRequest::euclidean(
            0, [0.0; 16], [0.0; 16], 0, false,
        ));
    }

    #[test]
    fn beat_mix_attributes_mixed_opcode_batches() {
        let mut dp = RayFlexDatapath::new(PipelineConfig::extended_unified());
        let ray = Ray::new(Vec3::new(0.0, 0.0, -5.0), Vec3::new(0.0, 0.0, 1.0));
        let boxes = [Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0)); 4];
        let tri = Triangle::new(
            Vec3::new(-1.0, -1.0, 3.0),
            Vec3::new(1.0, -1.0, 3.0),
            Vec3::new(0.0, 1.0, 3.0),
        );
        // One mixed batch plus one per-beat call: both interfaces feed the same counters.
        let _ = dp.execute_batch(&[
            RayFlexRequest::ray_box(0, &ray, &boxes),
            RayFlexRequest::ray_triangle(1, &ray, &tri),
            RayFlexRequest::euclidean(2, [1.0; 16], [0.0; 16], u16::MAX, true),
        ]);
        let _ = dp.execute(&RayFlexRequest::ray_box(3, &ray, &boxes));
        let mix = dp.beat_mix();
        assert_eq!(mix.count(Opcode::RayBox), 2);
        assert_eq!(mix.count(Opcode::RayTriangle), 1);
        assert_eq!(mix.count(Opcode::Euclidean), 1);
        assert_eq!(mix.count(Opcode::Cosine), 0);
        assert_eq!(mix.total(), 4);
        assert_eq!(mix.total(), dp.executed_beats());
        assert_eq!(mix.iter().count(), Opcode::ALL.len());
        // The constant-time slot mapping must agree with the Opcode::ALL order `iter` exposes.
        for (slot, &opcode) in Opcode::ALL.iter().enumerate() {
            assert_eq!(BeatMix::slot(opcode), slot);
        }
    }

    #[test]
    // Asserts the lane kernels actually engage, which `force-scalar` disables by design.
    #[cfg(not(feature = "force-scalar"))]
    fn lane_occupancy_tracks_the_batched_kernel_issues() {
        let ray = Ray::new(Vec3::new(0.0, 0.0, -5.0), Vec3::new(0.0, 0.0, 1.0));
        let boxes = [Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0)); 4];
        let tri = Triangle::new(
            Vec3::new(-1.0, -1.0, 3.0),
            Vec3::new(1.0, -1.0, 3.0),
            Vec3::new(0.0, 1.0, 3.0),
        );
        let requests = [
            RayFlexRequest::ray_box(0, &ray, &boxes),
            RayFlexRequest::ray_box(1, &ray, &boxes),
            RayFlexRequest::ray_triangle(2, &ray, &tri),
            RayFlexRequest::ray_triangle(3, &ray, &tri),
            RayFlexRequest::ray_triangle(4, &ray, &tri),
        ];
        // Scalar dispatch records nothing.
        let mut scalar = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        let _ = scalar.execute_batch(&requests);
        assert_eq!(scalar.beat_mix().simd_lane_slots(), 0);
        assert_eq!(scalar.beat_mix().simd_lane_occupancy(), 0.0);
        // Eight lanes: one box pair-group (8/8) + a three-beat triangle run (three scalar-remainder
        // issues of eight slots each, three busy).
        let mut wide = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        wide.set_simd_lanes(8);
        let _ = wide.execute_batch(&requests);
        let mix = wide.beat_mix();
        assert_eq!(mix.simd_lanes_busy(), 8 + 3);
        assert_eq!(mix.simd_lane_slots(), 8 + 3 * 8);
        assert!((mix.simd_lane_occupancy() - 11.0 / 32.0).abs() < 1e-12);
        // The lane counters never change the beat counts.
        assert_eq!(mix.total(), scalar.beat_mix().total());
    }

    #[test]
    fn segmented_batches_attribute_beats_per_kind_and_detect_fusion() {
        let mut dp = RayFlexDatapath::new(PipelineConfig::extended_unified());
        let ray = Ray::new(Vec3::new(0.0, 0.0, -5.0), Vec3::new(0.0, 0.0, 1.0));
        let boxes = [Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0)); 4];
        let tri = Triangle::new(
            Vec3::new(-1.0, -1.0, 3.0),
            Vec3::new(1.0, -1.0, 3.0),
            Vec3::new(0.0, 1.0, 3.0),
        );
        let requests = [
            RayFlexRequest::ray_box(0, &ray, &boxes),
            RayFlexRequest::ray_triangle(1, &ray, &tri),
            RayFlexRequest::ray_box(2, &ray, &boxes),
            RayFlexRequest::euclidean(3, [1.0; 16], [0.0; 16], u16::MAX, true),
        ];
        // One fused pass: closest-hit (2 beats), any-hit (1 beat), distance (1 beat).
        let mut responses = Vec::new();
        dp.execute_batch_segmented(
            &requests,
            &[
                (QueryKind::ClosestHit, 2),
                (QueryKind::AnyHit, 1),
                (QueryKind::Distance, 1),
            ],
            &mut responses,
        );
        assert_eq!(responses.len(), 4);
        // One single-kind pass with an empty trailing segment: counted, but not fused.
        dp.execute_batch_segmented(
            &requests[..1],
            &[(QueryKind::Collect, 1), (QueryKind::Distance, 0)],
            &mut responses,
        );
        let mix = dp.beat_mix();
        assert_eq!(mix.count_for(QueryKind::ClosestHit, Opcode::RayBox), 1);
        assert_eq!(mix.count_for(QueryKind::ClosestHit, Opcode::RayTriangle), 1);
        assert_eq!(mix.count_for(QueryKind::AnyHit, Opcode::RayBox), 1);
        assert_eq!(mix.count_for(QueryKind::Distance, Opcode::Euclidean), 1);
        assert_eq!(mix.count_for(QueryKind::Collect, Opcode::RayBox), 1);
        assert_eq!(mix.kind_total(QueryKind::ClosestHit), 2);
        assert_eq!(mix.passes(), 2);
        assert_eq!(mix.fused_passes(), 1, "only the mixed-kind pass is fused");
        // Attributed beats still feed the plain per-opcode totals.
        assert_eq!(mix.count(Opcode::RayBox), 3);
        assert_eq!(mix.total(), 5);
        assert_eq!(mix.total(), dp.executed_beats());
        assert_eq!(
            mix.iter_kinds().count(),
            QueryKind::ALL.len() * Opcode::ALL.len()
        );
        // The constant-time kind-slot mapping must agree with the QueryKind::ALL order.
        let mut seen = std::collections::BTreeSet::new();
        for &kind in &QueryKind::ALL {
            assert!(seen.insert(BeatMix::kind_slot(kind)));
        }

        // The scalar attributed twin: identical response, counted under its kind.
        let response = dp.execute_attributed(&requests[0], QueryKind::AnyHit);
        assert!(response.box_result.unwrap().hit.iter().all(|&h| h));
        assert_eq!(
            dp.beat_mix().count_for(QueryKind::AnyHit, Opcode::RayBox),
            2
        );
    }

    #[test]
    // Asserts the lane kernels actually engage, which `force-scalar` disables by design.
    #[cfg(not(feature = "force-scalar"))]
    fn lane_grouping_crosses_segment_boundaries_without_moving_attribution() {
        let ray = Ray::new(Vec3::new(0.0, 0.0, -5.0), Vec3::new(0.0, 0.0, 1.0));
        let tri = Triangle::new(
            Vec3::new(-1.0, -1.0, 3.0),
            Vec3::new(1.0, -1.0, 3.0),
            Vec3::new(0.0, 1.0, 3.0),
        );
        // Six triangle beats split across three two-beat segments — the shape of a merged pass
        // coalescing three tiny streams.
        let requests: Vec<RayFlexRequest> = (0..6)
            .map(|tag| RayFlexRequest::ray_triangle(tag, &ray, &tri))
            .collect();
        let segments = [
            (QueryKind::ClosestHit, 2),
            (QueryKind::AnyHit, 2),
            (QueryKind::ClosestHit, 2),
        ];

        let mut merged = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        merged.set_simd_lanes(8);
        let mut responses = Vec::new();
        merged.execute_batch_segmented(&requests, &segments, &mut responses);
        assert_eq!(responses.len(), 6);

        // Responses are bit-identical to the per-beat scalar reference.
        let mut scalar = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        for (request, response) in requests.iter().zip(&responses) {
            let expected = scalar.execute(request).triangle_result.unwrap();
            let got = response.triangle_result.unwrap();
            assert_eq!(expected.hit, got.hit);
            assert_eq!(expected.t_num.to_bits(), got.t_num.to_bits());
            assert_eq!(expected.det.to_bits(), got.det.to_bits());
        }

        // Attribution is identical to dispatching each segment alone…
        let mix = merged.beat_mix();
        assert_eq!(mix.count_for(QueryKind::ClosestHit, Opcode::RayTriangle), 4);
        assert_eq!(mix.count_for(QueryKind::AnyHit, Opcode::RayTriangle), 2);
        // …but the six beats issue as one cross-segment run (an 8-wide tier would split them
        // 4+2 at eight lanes: one 4-wide issue + two scalar remainder issues), not as three
        // two-beat runs of two scalar issues each (6 × 8 slots).
        assert_eq!(mix.simd_lanes_busy(), 6);
        assert_eq!(mix.simd_lane_slots(), 3 * 8);
    }

    #[test]
    #[should_panic(expected = "cover the request batch")]
    fn segment_lengths_must_cover_the_batch() {
        let mut dp = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        let ray = Ray::new(Vec3::new(0.0, 0.0, -5.0), Vec3::new(0.0, 0.0, 1.0));
        let boxes = [Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0)); 4];
        let requests = [RayFlexRequest::ray_box(0, &ray, &boxes)];
        let mut responses = Vec::new();
        dp.execute_batch_segmented(&requests, &[(QueryKind::ClosestHit, 2)], &mut responses);
    }

    #[test]
    fn accumulator_state_is_visible() {
        let mut dp = RayFlexDatapath::new(PipelineConfig::extended_unified());
        dp.execute(&RayFlexRequest::euclidean(
            0,
            [1.0; 16],
            [0.0; 16],
            u16::MAX,
            false,
        ));
        assert_eq!(dp.accumulators().euclidean.to_f32(), 16.0);
    }
}
