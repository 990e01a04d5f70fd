//! Deterministic fault injection for the hardened execution layer.
//!
//! The chaos test matrix (`tests/proptest_chaos.rs`) needs to drive every failure path of the
//! `try_*` entry points on purpose: corrupt inputs, broken acceleration structures, panicking
//! worker shards and starved beat budgets.  This module packages those faults as a seeded,
//! reproducible [`FaultPlan`] so a failing chaos case can be replayed bit-for-bit from its seed.
//!
//! Faults come in two flavours:
//!
//! * **Input corruption** ([`FaultKind::CorruptRay`], [`FaultKind::TruncatePacket`],
//!   [`FaultKind::FlipBvhChild`]) is applied by the *harness* to its own copies of the inputs
//!   before the query runs — [`FaultPlan::corrupt_rays`], [`FaultPlan::truncate`] and
//!   [`FaultPlan::apply_to_bvh`] mutate data the engines then reject with a structured
//!   [`QueryError`](crate::QueryError).
//! * **Execution faults** ([`FaultKind::PoisonShard`], [`FaultKind::StarveBudget`],
//!   [`FaultKind::ScramblePermutation`]) fire *inside*
//!   the engines.  Shard poisoning is armed through [`while_armed`] and observed by a checkpoint
//!   the parallel workers call on entry; permutation scrambling is armed the same way and
//!   observed by a checkpoint the batched schedulers call on their admission order after
//!   coherent sorting; budget starvation is simply an
//!   [`ExecPolicy::with_max_total_beats`](crate::ExecPolicy::with_max_total_beats) of 1, which
//!   the harness applies itself.
//!
//! # Zero cost when off
//!
//! Production code never pays for this machinery beyond **one relaxed atomic load** per shard
//! spawn (not per ray, not per beat): `shard_checkpoint` reads a single `AtomicBool` and returns
//! immediately when no fault is armed.  No fault state is ever consulted on the beat path.
//!
//! # One-shot semantics
//!
//! A poisoned shard fires exactly once and disarms itself.  This models a transient execution
//! fault: the pool's one-shot scalar retry of the poisoned index range (see
//! `crate::parallel`) then succeeds, the recovered output is bit-identical to a clean run, and
//! the fallback is recorded in [`TraversalStats::shard_fallbacks`](crate::TraversalStats).  The
//! retry never reaches a checkpoint, so no plan can poison it.  A *persistent* fault (a shard
//! whose retry also dies) fails the run with the chunk's index instead —
//! [`QueryError::ShardPanicked`](crate::QueryError) through `try_trace` — and is covered by a
//! unit test in `crate::parallel` whose work panics on one chunk every time it runs.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

use rayflex_geometry::{Ray, Vec3};

use crate::bvh::{Bvh4, ChildRef};

/// One injectable fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Overwrite one ray of the stream with a non-traceable bit pattern (NaN origin, infinite
    /// direction, zero direction or NaN extent — chosen by the seed).
    CorruptRay,
    /// Drop a seed-chosen suffix of the ray stream, modelling a short packet arriving from a
    /// truncated DMA transfer.
    TruncatePacket,
    /// Break the BVH topology: rewrite an internal node's child reference to an out-of-range
    /// node, the root, or a leaf past the id table (or blow the root leaf's range on
    /// single-leaf trees).
    FlipBvhChild,
    /// Break one instance of a two-level scene: a non-finite transform, a singular (zero
    /// determinant) transform, or a dangling BLAS index — chosen by the seed.
    CorruptInstance,
    /// Panic the worker thread of the given shard index, exactly once.
    PoisonShard(usize),
    /// Starve the run of beats.  Carries no mechanism of its own — the harness reacts to this
    /// kind by running the query under `ExecPolicy::with_max_total_beats(1)`.
    StarveBudget,
    /// Corrupt the reassembly index of a batched scheduler: swap two seed-chosen entries of the
    /// admission permutation after coherent sorting, exactly once.  The swapped list is still a
    /// valid permutation, so this fault *proves* the coherence layer's index-keyed reassembly —
    /// outputs and statistics must stay bit-identical under it (asserted by the chaos matrix),
    /// because results are routed by the item indices the list carries, never by position.
    ScramblePermutation,
    /// Corrupt one seed-chosen payload byte of an encoded protocol frame
    /// ([`FaultPlan::corrupt_frame`]), modelling line noise or a buggy client.  The server
    /// ingress must answer with a structured malformed-frame error (or, when the flipped byte
    /// happens to leave the frame decodable, a correct response) — never a panic or a hung
    /// worker.
    MalformedFrame,
    /// Truncate an encoded protocol frame mid-payload ([`FaultPlan::truncate_frame`]): the
    /// length prefix still promises the full payload, but the connection delivers only a
    /// seed-chosen prefix before closing.  Models a client dying mid-write; the server must
    /// treat the short read as a clean disconnect of that connection.
    TruncatedFrame,
    /// Close the connection abruptly after a seed-chosen number of in-flight requests, without
    /// reading their responses.  The server's responder must absorb the broken pipe and retire
    /// the worker cleanly.
    Disconnect,
    /// A deadline storm: every concurrent request arrives with a near-zero deadline, forcing
    /// the earliest-deadline-first admission path and the flush-on-deadline timer to fire
    /// constantly.  Carries no mechanism of its own — the ingress harness reacts to this kind
    /// by stamping tiny `deadline_us` values on its generated requests.
    DeadlineStorm,
}

/// A seeded, deterministic fault to inject into one query execution.
///
/// Equal plans produce equal corruptions: every choice (which ray, which field, how much to
/// truncate, which child slot) is derived from `seed` with a splitmix64 stream, never from
/// ambient randomness, so a failing chaos case replays exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// What to break.
    pub kind: FaultKind,
    /// Deterministic seed for every choice the fault makes.
    pub seed: u64,
}

impl FaultPlan {
    /// A plan injecting `kind` with deterministic choices drawn from `seed`.
    #[must_use]
    pub fn new(kind: FaultKind, seed: u64) -> Self {
        Self { kind, seed }
    }

    /// Overwrites one seed-chosen ray with one of four non-traceable corruptions.  Returns the
    /// corrupted index, or `None` when the stream is empty (nothing to corrupt).
    ///
    /// This is a harness-side mutation: apply it to your own copy of the stream, then hand the
    /// stream to a `try_*` entry point and expect
    /// [`QueryError::InvalidRequest`](crate::QueryError).
    pub fn corrupt_rays(&self, rays: &mut [Ray]) -> Option<usize> {
        if rays.is_empty() {
            return None;
        }
        let mut state = self.seed;
        let index = (splitmix(&mut state) as usize) % rays.len();
        let ray = &mut rays[index];
        match splitmix(&mut state) % 4 {
            0 => ray.origin.x = f32::NAN,
            1 => ray.dir.y = f32::INFINITY,
            2 => {
                ray.dir.x = 0.0;
                ray.dir.y = 0.0;
                ray.dir.z = 0.0;
            }
            _ => ray.t_beg = f32::NAN,
        }
        Some(index)
    }

    /// The length a stream of `len` items truncates to: at least one item shorter (when
    /// possible), never empty unless the stream already was.
    #[must_use]
    pub fn truncate_len(&self, len: usize) -> usize {
        if len <= 1 {
            return len;
        }
        let mut state = self.seed;
        // Keep 1..=len-1 items.
        1 + (splitmix(&mut state) as usize) % (len - 1)
    }

    /// Drops a seed-chosen suffix of the stream ([`FaultPlan::truncate_len`]) and returns the
    /// new length.  The surviving prefix is untouched, so the expected output of the truncated
    /// query is exactly the prefix of the clean query's output.
    pub fn truncate(&self, rays: &mut Vec<Ray>) -> usize {
        let keep = self.truncate_len(rays.len());
        rays.truncate(keep);
        keep
    }

    /// Breaks the BVH's topology in place so that [`SceneValidator`](crate::SceneValidator)
    /// must reject it.  Returns `false` only for trees it cannot break (none exist: even a
    /// single-leaf tree gets its primitive range blown).
    ///
    /// Trees with internal nodes get a seed-chosen occupied child slot of a seed-chosen
    /// internal node rewritten — to a node index past the table, back to the root (a cycle and
    /// a second reference to a node that must have none), or to an inline leaf reaching past
    /// the id table.  Single-leaf trees get their root leaf's range pushed past the id table.
    pub fn apply_to_bvh(&self, bvh: &mut Bvh4) -> bool {
        let mut state = self.seed;
        let primitives = bvh.primitive_ids().len();
        let (nodes, root) = bvh.topology_mut();
        if nodes.is_empty() {
            // A single-leaf tree has no child slots to flip; blow the leaf range instead.
            *root = ChildRef::leaf(1, primitives.min(ChildRef::MAX_LEAF_SIZE));
            return true;
        }
        let node_count = nodes.len();
        let node = &mut nodes[(splitmix(&mut state) as usize) % node_count];
        let occupied: Vec<usize> = (0..4).filter(|&s| !node.children[s].is_empty()).collect();
        let slot = occupied[(splitmix(&mut state) as usize) % occupied.len()];
        node.children[slot] = match splitmix(&mut state) % 3 {
            // Out of range: no such node.
            0 => ChildRef::node(node_count),
            // Back to the root: a cycle, and a second reference to a node that must have none.
            1 => ChildRef::node(0),
            // A leaf whose range ends past the id table.
            _ => ChildRef::leaf(primitives, 1),
        };
        true
    }

    /// Breaks one seed-chosen instance of a two-level scene in place so that
    /// [`SceneValidator::validate_scene`](crate::SceneValidator) must reject it with an
    /// [`QueryError::InvalidScene`](crate::QueryError) naming that instance.  Returns the
    /// corrupted instance index, or `None` for flat scenes (which have no instances to break).
    ///
    /// The corruption is one of the three invalid-placement classes the validator checks: a
    /// non-finite transform (NaN translation), a singular transform (zero linear part, zero
    /// determinant), or a BLAS index past the scene's BLAS list.  The TLAS is deliberately
    /// *not* refit, so the break is purely a placement-table fault.
    pub fn apply_to_scene(&self, scene: &mut crate::Scene) -> Option<usize> {
        let mut state = self.seed;
        let blas_count = scene.blas_list().len();
        let instances = scene.instances_mut()?;
        if instances.is_empty() {
            return None;
        }
        let index = (splitmix(&mut state) as usize) % instances.len();
        let victim = &mut instances[index];
        match splitmix(&mut state) % 3 {
            0 => victim.transform.translation.x = f32::NAN,
            1 => victim.transform.linear = [Vec3::ZERO; 3],
            _ => victim.blas = blas_count,
        }
        Some(index)
    }

    /// Flips one seed-chosen bit of one seed-chosen **payload** byte of a length-prefixed
    /// protocol frame (`frame` = 4-byte little-endian length prefix + payload).  Returns the
    /// corrupted byte's offset, or `None` when the frame has no payload to corrupt.
    ///
    /// The length prefix itself is deliberately left intact: corrupting the declared length
    /// would make the receiver wait for bytes that never arrive — a timeout, not the structured
    /// decode error this fault exists to provoke.  (A lying length prefix is
    /// [`FaultKind::TruncatedFrame`]'s job, where the sender also hangs up.)
    pub fn corrupt_frame(&self, frame: &mut [u8]) -> Option<usize> {
        const PREFIX: usize = 4;
        if frame.len() <= PREFIX {
            return None;
        }
        let mut state = self.seed;
        let index = PREFIX + (splitmix(&mut state) as usize) % (frame.len() - PREFIX);
        let bit = (splitmix(&mut state) % 8) as u8;
        frame[index] ^= 1 << bit;
        Some(index)
    }

    /// Truncates an encoded frame to a seed-chosen proper prefix **without fixing the length
    /// prefix**: the header still promises the full payload, but the bytes stop early — exactly
    /// what a peer dying mid-write looks like on the wire.  Returns the number of bytes kept
    /// (at least the 4-byte prefix stays when the frame had one, so the receiver commits to
    /// reading a payload that never fully arrives).
    pub fn truncate_frame(&self, frame: &mut Vec<u8>) -> usize {
        const PREFIX: usize = 4;
        if frame.len() <= PREFIX {
            return frame.len();
        }
        let mut state = self.seed;
        // Keep the prefix plus 0..payload-1 payload bytes: always a short read, never the
        // complete frame.
        let keep = PREFIX + (splitmix(&mut state) as usize) % (frame.len() - PREFIX);
        frame.truncate(keep);
        keep
    }
}

/// The splitmix64 step — the same tiny deterministic generator the vendored `rand` shim builds
/// on, reimplemented here so fault choices never depend on generator state elsewhere.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Is any poison-shard fault armed?  One relaxed load; `false` is the production constant.
static POISON_ARMED: AtomicBool = AtomicBool::new(false);
/// Which shard index the armed fault targets.  Only read after `POISON_ARMED` observes `true`.
static POISON_SHARD: AtomicUsize = AtomicUsize::new(0);
/// Is a scramble-permutation fault armed?  One relaxed load per scheduler run.
static SCRAMBLE_ARMED: AtomicBool = AtomicBool::new(false);
/// Seed of the armed scramble.  Only read after `SCRAMBLE_ARMED` observes `true`.
static SCRAMBLE_SEED: AtomicU64 = AtomicU64::new(0);

/// The checkpoint parallel workers call on entry (once per shard, before any tracing).  When a
/// [`FaultKind::PoisonShard`] plan is armed for this shard index, panics exactly once and
/// disarms; otherwise a single relaxed atomic load and an immediate return.
pub(crate) fn shard_checkpoint(shard: usize) {
    if !POISON_ARMED.load(Ordering::Relaxed) {
        return;
    }
    poisoned_shard_panic(shard);
}

/// The armed-path tail of [`shard_checkpoint`], kept out of the hot function.
#[cold]
fn poisoned_shard_panic(shard: usize) {
    if shard != POISON_SHARD.load(Ordering::SeqCst) {
        return;
    }
    // One-shot: only the thread that wins the disarm race actually panics, so a plan never
    // kills more than one worker and the scalar retry of that range runs clean.
    if POISON_ARMED
        .compare_exchange(true, false, Ordering::SeqCst, Ordering::SeqCst)
        .is_ok()
    {
        panic!("fault injection: shard {shard} poisoned");
    }
}

/// The checkpoint batched schedulers call once per run, right after (optional) coherent
/// sorting of the admission permutation.  When a [`FaultKind::ScramblePermutation`] plan is
/// armed, swaps two seed-chosen entries exactly once and disarms; otherwise a single relaxed
/// atomic load and an immediate return.  The swap never duplicates an entry — the list stays a
/// valid permutation of the run's items — so index-keyed reassembly must absorb it without any
/// observable effect.
pub(crate) fn scramble_checkpoint(permutation: &mut [usize]) {
    if !SCRAMBLE_ARMED.load(Ordering::Relaxed) {
        return;
    }
    scramble_permutation(permutation);
}

/// The armed-path tail of [`scramble_checkpoint`], kept out of the hot function.
#[cold]
fn scramble_permutation(permutation: &mut [usize]) {
    if permutation.len() < 2 {
        return;
    }
    // One-shot: only the run that wins the disarm race scrambles, so a plan corrupts exactly
    // one scheduler's admission order per arming.
    if SCRAMBLE_ARMED
        .compare_exchange(true, false, Ordering::SeqCst, Ordering::SeqCst)
        .is_err()
    {
        return;
    }
    let mut state = SCRAMBLE_SEED.load(Ordering::SeqCst);
    let a = (splitmix(&mut state) as usize) % permutation.len();
    let mut b = (splitmix(&mut state) as usize) % permutation.len();
    if a == b {
        b = (b + 1) % permutation.len();
    }
    permutation.swap(a, b);
}

/// The lock serialising fault-armed sections — execution faults are process-global state, so
/// concurrently running chaos tests must take turns.
fn harness_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Runs `f` with `plan`'s execution fault armed, then guarantees disarmament — even if `f`
/// panics (armed state is cleared on unwind, so a poisoned run can never leak its poison into
/// the next test).
///
/// Only [`FaultKind::PoisonShard`] and [`FaultKind::ScramblePermutation`] arm anything; for
/// every other kind this is just a
/// serialising wrapper, letting the chaos harness treat all fault kinds uniformly.  Holds a
/// global mutex for the duration of `f`, so fault-armed sections in concurrent tests execute
/// one at a time.
pub fn while_armed<R>(plan: &FaultPlan, f: impl FnOnce() -> R) -> R {
    let _serial = harness_lock()
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    struct Disarm;
    impl Drop for Disarm {
        fn drop(&mut self) {
            POISON_ARMED.store(false, Ordering::SeqCst);
            SCRAMBLE_ARMED.store(false, Ordering::SeqCst);
        }
    }
    let _disarm = Disarm;
    match plan.kind {
        FaultKind::PoisonShard(shard) => {
            POISON_SHARD.store(shard, Ordering::SeqCst);
            POISON_ARMED.store(true, Ordering::SeqCst);
        }
        FaultKind::ScramblePermutation => {
            SCRAMBLE_SEED.store(plan.seed, Ordering::SeqCst);
            SCRAMBLE_ARMED.store(true, Ordering::SeqCst);
        }
        _ => {}
    }
    f()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayflex_geometry::{Triangle, Vec3};

    fn rays(n: usize) -> Vec<Ray> {
        (0..n)
            .map(|i| Ray::new(Vec3::new(i as f32, 0.0, 0.0), Vec3::new(0.0, 0.0, 1.0)))
            .collect()
    }

    #[test]
    fn ray_corruption_is_deterministic_and_detectable() {
        let plan = FaultPlan::new(FaultKind::CorruptRay, 7);
        let mut a = rays(32);
        let mut b = rays(32);
        let ia = plan.corrupt_rays(&mut a).unwrap();
        let ib = plan.corrupt_rays(&mut b).unwrap();
        assert_eq!(ia, ib, "same seed, same victim");
        // NaN breaks PartialEq reflexivity, so compare the debug rendering instead.
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "same seed, same corruption"
        );
        assert!(!rayflex_core::guard::finite_ray(&a[ia]));
        assert!(plan.corrupt_rays(&mut Vec::new()).is_none());
    }

    #[test]
    fn truncation_keeps_a_proper_nonempty_prefix() {
        for seed in 0..32u64 {
            let plan = FaultPlan::new(FaultKind::TruncatePacket, seed);
            let mut stream = rays(17);
            let keep = plan.truncate(&mut stream);
            assert!((1..17).contains(&keep), "seed {seed} kept {keep}");
            assert_eq!(stream.len(), keep);
            assert_eq!(stream, rays(17)[..keep], "prefix untouched");
        }
        assert_eq!(
            FaultPlan::new(FaultKind::TruncatePacket, 3).truncate_len(0),
            0
        );
        assert_eq!(
            FaultPlan::new(FaultKind::TruncatePacket, 3).truncate_len(1),
            1
        );
    }

    #[test]
    fn bvh_flips_break_validation_on_big_and_tiny_trees() {
        use crate::SceneValidator;
        let tris: Vec<Triangle> = (0..64)
            .map(|i| {
                let x = (i % 8) as f32 * 2.0;
                let y = (i / 8) as f32 * 2.0;
                Triangle::new(
                    Vec3::new(x, y, 5.0),
                    Vec3::new(x + 1.0, y, 5.0),
                    Vec3::new(x, y + 1.0, 5.0),
                )
            })
            .collect();
        for seed in 0..16u64 {
            let mut bvh = Bvh4::build(&tris);
            assert!(SceneValidator::validate(&bvh, &tris).is_ok());
            assert!(FaultPlan::new(FaultKind::FlipBvhChild, seed).apply_to_bvh(&mut bvh));
            assert!(
                SceneValidator::validate(&bvh, &tris).is_err(),
                "seed {seed} produced a flip the validator missed"
            );
        }
        // Single-leaf tree: no child to flip, the leaf range gets blown instead.
        let tiny = &tris[..2];
        let mut bvh = Bvh4::build(tiny);
        assert_eq!(bvh.node_count(), 1);
        assert!(FaultPlan::new(FaultKind::FlipBvhChild, 9).apply_to_bvh(&mut bvh));
        assert!(SceneValidator::validate(&bvh, tiny).is_err());
    }

    #[test]
    fn instance_corruption_breaks_validation_and_names_the_victim() {
        use crate::{Blas, Instance, Scene, SceneValidator};
        use rayflex_geometry::Affine;
        let mesh = vec![Triangle::new(
            Vec3::new(-1.0, -1.0, 0.0),
            Vec3::new(1.0, -1.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
        )];
        for seed in 0..16u64 {
            let instances: Vec<Instance> = (0..5)
                .map(|i| Instance::new(0, Affine::translation(Vec3::new(i as f32 * 3.0, 0.0, 4.0))))
                .collect();
            let mut scene = Scene::instanced(vec![Blas::new(mesh.clone())], instances);
            assert!(SceneValidator::validate_scene(&scene).is_ok());
            let plan = FaultPlan::new(FaultKind::CorruptInstance, seed);
            let victim = plan.apply_to_scene(&mut scene).expect("instanced scene");
            let err = SceneValidator::validate_scene(&scene)
                .err()
                .unwrap_or_else(|| {
                    panic!("seed {seed} produced a corruption the validator missed")
                });
            assert!(
                err.to_string().contains(&format!("instance {victim}")),
                "seed {seed}: {err} does not name instance {victim}"
            );
        }
        // Flat scenes have no instances to corrupt.
        let mut flat = Scene::flat(mesh);
        assert!(FaultPlan::new(FaultKind::CorruptInstance, 1)
            .apply_to_scene(&mut flat)
            .is_none());
    }

    #[test]
    fn poison_fires_once_for_the_right_shard_and_always_disarms() {
        let plan = FaultPlan::new(FaultKind::PoisonShard(2), 0);
        while_armed(&plan, || {
            shard_checkpoint(0);
            shard_checkpoint(1); // wrong shards: nothing happens
            let hit = std::panic::catch_unwind(|| shard_checkpoint(2));
            assert!(hit.is_err(), "armed shard must panic");
            shard_checkpoint(2); // one-shot: second visit survives
        });
        shard_checkpoint(2); // outside while_armed: disarmed
    }

    #[test]
    fn scramble_swaps_two_entries_once_keeping_a_valid_permutation() {
        let plan = FaultPlan::new(FaultKind::ScramblePermutation, 11);
        while_armed(&plan, || {
            let mut perm: Vec<usize> = (0..16).collect();
            scramble_checkpoint(&mut perm);
            let mut sorted = perm.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..16).collect::<Vec<_>>(), "still a permutation");
            let moved = perm.iter().enumerate().filter(|&(i, &v)| i != v).count();
            assert_eq!(moved, 2, "exactly one swap");
            // One-shot: a second checkpoint in the same armed section is a no-op.
            let snapshot = perm.clone();
            scramble_checkpoint(&mut perm);
            assert_eq!(perm, snapshot);
        });
        // Outside while_armed: disarmed entirely.
        let mut perm: Vec<usize> = (0..4).collect();
        scramble_checkpoint(&mut perm);
        assert_eq!(perm, vec![0, 1, 2, 3]);
        // Degenerate lists survive an armed checkpoint untouched.
        while_armed(&plan, || {
            let mut single = vec![0usize];
            scramble_checkpoint(&mut single);
            assert_eq!(single, vec![0]);
        });
    }

    #[test]
    fn frame_corruption_spares_the_length_prefix_and_is_deterministic() {
        // A plausible frame: 4-byte LE length prefix + 20 payload bytes.
        let payload: Vec<u8> = (0u8..20).collect();
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&payload);
        for seed in 0..32u64 {
            let plan = FaultPlan::new(FaultKind::MalformedFrame, seed);
            let mut a = frame.clone();
            let mut b = frame.clone();
            let ia = plan.corrupt_frame(&mut a).unwrap();
            let ib = plan.corrupt_frame(&mut b).unwrap();
            assert_eq!(ia, ib, "seed {seed}: same victim byte");
            assert_eq!(a, b, "seed {seed}: same corruption");
            assert!(ia >= 4, "seed {seed}: the length prefix must survive");
            assert_eq!(a[..4], frame[..4], "seed {seed}: prefix bytes untouched");
            assert_ne!(a, frame, "seed {seed}: exactly one bit flipped");
            assert_eq!(
                a.iter().zip(&frame).filter(|(x, y)| x != y).count(),
                1,
                "seed {seed}: exactly one byte differs"
            );
        }
        // Prefix-only and empty frames carry nothing to corrupt.
        let plan = FaultPlan::new(FaultKind::MalformedFrame, 1);
        assert!(plan.corrupt_frame(&mut [0, 0, 0, 0]).is_none());
        assert!(plan.corrupt_frame(&mut []).is_none());
    }

    #[test]
    fn frame_truncation_keeps_the_prefix_but_never_the_whole_payload() {
        let payload: Vec<u8> = (0u8..20).collect();
        let mut whole = (payload.len() as u32).to_le_bytes().to_vec();
        whole.extend_from_slice(&payload);
        for seed in 0..32u64 {
            let plan = FaultPlan::new(FaultKind::TruncatedFrame, seed);
            let mut frame = whole.clone();
            let keep = plan.truncate_frame(&mut frame);
            assert_eq!(frame.len(), keep);
            assert!(
                (4..whole.len()).contains(&keep),
                "seed {seed}: kept {keep} of {}",
                whole.len()
            );
            assert_eq!(frame[..], whole[..keep], "seed {seed}: prefix untouched");
            // The header still promises the full payload — the lie is the point.
            assert_eq!(frame[..4], (payload.len() as u32).to_le_bytes());
        }
        // Nothing shorter than the prefix shrinks further.
        let plan = FaultPlan::new(FaultKind::TruncatedFrame, 5);
        let mut prefix_only = vec![9, 0, 0, 0];
        assert_eq!(plan.truncate_frame(&mut prefix_only), 4);
        assert_eq!(prefix_only, vec![9, 0, 0, 0]);
    }

    #[test]
    fn ingress_kinds_arm_nothing() {
        for kind in [
            FaultKind::MalformedFrame,
            FaultKind::TruncatedFrame,
            FaultKind::Disconnect,
            FaultKind::DeadlineStorm,
        ] {
            while_armed(&FaultPlan::new(kind, 3), || {
                for shard in 0..4 {
                    shard_checkpoint(shard);
                }
                let mut perm: Vec<usize> = (0..4).collect();
                scramble_checkpoint(&mut perm);
                assert_eq!(perm, vec![0, 1, 2, 3]);
            });
        }
    }

    #[test]
    fn non_poison_kinds_arm_nothing() {
        let plan = FaultPlan::new(FaultKind::StarveBudget, 0);
        while_armed(&plan, || {
            for shard in 0..4 {
                shard_checkpoint(shard);
            }
        });
    }
}
