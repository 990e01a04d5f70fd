//! Indexed beat access for the bulk dispatch loop.
//!
//! The batched interfaces of [`RayFlexDatapath`](crate::RayFlexDatapath) read each beat through
//! [`BeatSource`] rather than from a request slice directly, so a caller may keep its beats in
//! whatever form is cheapest to build and let the lane kernels fetch the operands themselves —
//! the way the RT unit fetches a node's boxes or a leaf's triangle for the datapath to consume.
//! A slice of owned [`RayFlexRequest`]s is the reference source; every response depends only
//! on the opcode, tag and operands a source presents, so two sources presenting the same values
//! get bit-identical responses and counters.

use rayflex_geometry::{Aabb, Triangle};

use crate::{Opcode, RayFlexRequest, RayOperand, VectorOperand};

/// Indexed access to the beats of one bulk pass: for beat `0..beat_count()`, its opcode, its
/// tag and the operands its opcode selects.
///
/// The kernels call the operand accessor matching each beat's opcode (box operands for a
/// ray–box beat, and so on), once per beat per kernel issue; a source need not answer the
/// others meaningfully.  Every accessor takes `&self` and returns borrowed operands, so a
/// source can resolve them from tables it merely points at.
pub trait BeatSource {
    /// Number of beats in the pass.
    fn beat_count(&self) -> usize;

    /// The opcode of beat `beat`.
    fn opcode(&self, beat: usize) -> Opcode;

    /// The tag of beat `beat`, carried into its response unchanged.
    fn tag(&self, beat: usize) -> u64;

    /// The ray and four boxes of a ray–box beat.
    fn box_operands(&self, beat: usize) -> (&RayOperand, &[Aabb; 4]);

    /// The ray and triangle of a ray–triangle beat.
    fn triangle_operands(&self, beat: usize) -> (&RayOperand, &Triangle);

    /// The vector pair, lane mask and accumulator-reset flag of a Euclidean or cosine beat, by
    /// value: a source that fetches its vectors chunk by chunk (a candidate row of a dataset)
    /// assembles the lanes, zero-padded past the mask, where they are read.  A cosine beat
    /// presents its eight lanes in the low half of each array.
    fn vector_operands(&self, beat: usize) -> (VectorOperand, bool);
}

impl BeatSource for [RayFlexRequest] {
    #[inline]
    fn beat_count(&self) -> usize {
        self.len()
    }

    #[inline]
    fn opcode(&self, beat: usize) -> Opcode {
        self[beat].opcode
    }

    #[inline]
    fn tag(&self, beat: usize) -> u64 {
        self[beat].tag
    }

    #[inline]
    fn box_operands(&self, beat: usize) -> (&RayOperand, &[Aabb; 4]) {
        self[beat].operand.box_operands()
    }

    #[inline]
    fn triangle_operands(&self, beat: usize) -> (&RayOperand, &Triangle) {
        self[beat].operand.triangle_operands()
    }

    #[inline]
    fn vector_operands(&self, beat: usize) -> (VectorOperand, bool) {
        let (vector, reset) = self[beat].operand.vector_operands();
        (*vector, reset)
    }
}
