//! Beat descriptors: the bulk path's 16-byte form of a datapath beat.
//!
//! A [`RayFlexRequest`] carries its operands by value — a ray–box request copies the ray and
//! four child boxes into 176 bytes.  The RT unit does not work that way: it fetches a node's
//! boxes, a leaf's triangle or a candidate's vector chunk and the datapath consumes them.  The
//! batched scheduler follows the hardware.  Each beat of a pass is a [`Beat`] descriptor naming
//! *where* its operands live — an operand slot in its stream's ray table, a node index or a
//! leaf position, or a candidate and chunk index — and the lane kernels fetch the operands
//! through [`PassSource`] when they issue the beat: the ray from the stream's operand table, the
//! boxes straight from [`Bvh4Node::child_bounds`], the triangle from the scene's leaf-order
//! storage, the query and candidate chunks from the stream's query vector and the caller's
//! dataset, read in place ([`BeatTables`]).  A distance beat's lane mask and accumulator reset
//! follow from its chunk and the dimension, and its tail chunk is zero-padded where it is read.
//!
//! The scheduler resolves each segment's [`BeatTables`] once per response window and hands the
//! [`PassSource`] that slice, so a beat finds its tables by a plain index.  Before a pass's
//! first window, the **fetch stage** ([`PassSource::fetch`]) walks the pass's descriptors in one
//! tight loop and touches every node and leaf operand the kernels will read, as the RT unit
//! fetches operands ahead of the datapath that consumes them: on a node table far larger than
//! the cache, the misses then overlap in the fetch loop instead of stalling the kernels one
//! beat at a time.
//!
//! Operands that exist nowhere in that form ride in the pass's **owned side tables** instead.
//! A BLAS-phase beat of an instanced scene tests bounds or a triangle transformed for this
//! visit, and a candidate-collection beat tests a node's radius-inflated bounds, so the pass
//! owns that payload and its tag (the ray still comes from the operand table).  Only the beats
//! of a [`FusedStream`] that builds requests itself are owned whole, as requests.  Either way
//! the kernels see the same opcode, tag and operand values a request would present, so
//! responses and counters are bit-identical to dispatching the expanded requests — which is
//! how the scalar reference (one beat at a time, [`PassSource::request`]) and
//! [`FusedStream::build_pass`] callers ([`BeatPass::expand_into`]) still get requests.
//!
//! [`FusedStream`]: crate::FusedStream
//! [`FusedStream::build_pass`]: crate::FusedStream::build_pass

use core::ops::Range;

use rayflex_core::{
    BeatOperand, BeatSource, Opcode, RayFlexRequest, RayOperand, VectorOperand, COSINE_LANES,
    EUCLIDEAN_LANES, TLAS_PHASE_TAG,
};
use rayflex_geometry::{Aabb, Triangle};

use crate::bvh::Bvh4Node;

/// Where a descriptor's operands live.  Every ray kind takes its ray from operand `slot` of its
/// segment's operand table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fetch {
    /// A ray–box beat over node `index` of its segment's node table (a flat scene's BVH),
    /// tagged with the node's traversal handle.
    Node,
    /// [`Fetch::Node`] in the top-level structure of a two-level scene: the tag also carries
    /// [`TLAS_PHASE_TAG`].
    TlasNode,
    /// A ray–triangle beat over leaf position `index` of its segment's triangle table, tagged
    /// with its operand slot.
    Leaf,
    /// A ray–box beat over the owned bounds `index` (with their tag) — a BLAS-phase node
    /// whose bounds were transformed for this visit, or a collection node's bounds inflated by
    /// the query radius.
    Boxes,
    /// A ray–triangle beat over the owned triangle `index`, tagged with its operand slot — a
    /// BLAS-phase triangle transformed for this visit.
    Triangle,
    /// A Euclidean or cosine beat over chunk `slot` of candidate `index` of its segment's
    /// vector rows and the same chunk of the segment's query, tagged with the candidate index.
    /// The lane mask and the accumulator reset follow from the chunk and the dimension.
    Vector,
    /// A beat whose tag and operands are owned request `index` — the beats of a stream that
    /// builds requests itself.
    Request,
}

/// One beat of a bulk pass, in 16 bytes: its opcode, its pass segment, the operand slot of its
/// ray and the node index or leaf position it tests (or its owned side-table entry) — or, for a
/// distance beat, its candidate and chunk.
///
/// Table-resolved nodes and leaves always live in the top-level structure (a flat BVH or a
/// TLAS), so the context a traversal handle carries is implied by [`Fetch`]: a BLAS-phase beat
/// under an instance transform carries its transformed payload, and its tag, in a side table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Beat {
    /// Node index, leaf position, side-table entry or candidate (see [`Fetch`]).
    index: u32,
    /// The beat's ray in its segment's operand table, or a distance beat's chunk.
    slot: u32,
    /// The pass segment (stream) whose tables the beat resolves against.
    segment: u32,
    opcode: Opcode,
    fetch: Fetch,
}

const _: () = assert!(
    core::mem::size_of::<Beat>() <= 16,
    "a beat descriptor must fit in 16 bytes"
);

impl Beat {
    /// The beat's opcode.
    #[inline]
    pub(crate) fn opcode(&self) -> Opcode {
        self.opcode
    }
}

/// Row access to the candidate vectors a distance stream scores: the caller's dataset, read in
/// place, whatever its row type.
pub(crate) trait VectorRows {
    /// The vector of candidate `index`.
    fn row(&self, index: usize) -> &[f32];
}

impl<C: AsRef<[f32]>> VectorRows for &[C] {
    #[inline]
    fn row(&self, index: usize) -> &[f32] {
        self[index].as_ref()
    }
}

impl core::fmt::Debug for dyn VectorRows + '_ {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("VectorRows")
    }
}

/// The rows of a stream without distance beats.
const NO_ROWS: &dyn VectorRows = &(&[] as &[&[f32]]);

/// The tables a stream's beat descriptors resolve against: the node table its box beats test,
/// the leaf-order triangles its triangle beats test and the ray operand table their slots
/// index — or the query vector and candidate rows its distance beats score.  A stream whose
/// beats are all owned has none (the `Default`).
#[derive(Debug, Clone, Copy)]
pub struct BeatTables<'a> {
    nodes: &'a [Bvh4Node],
    triangles: &'a [Triangle],
    operands: &'a [RayOperand],
    query: &'a [f32],
    candidates: &'a dyn VectorRows,
}

impl Default for BeatTables<'_> {
    fn default() -> Self {
        BeatTables::new(&[], &[], &[])
    }
}

impl<'a> BeatTables<'a> {
    /// Tables over a structure's nodes, its leaf-order triangles and a stream's ray operands.
    pub(crate) fn new(
        nodes: &'a [Bvh4Node],
        triangles: &'a [Triangle],
        operands: &'a [RayOperand],
    ) -> Self {
        BeatTables {
            nodes,
            triangles,
            operands,
            query: &[],
            candidates: NO_ROWS,
        }
    }

    /// Tables of a distance stream scoring the `candidates` rows against `query`.
    pub(crate) fn vectors(query: &'a [f32], candidates: &'a dyn VectorRows) -> Self {
        BeatTables {
            query,
            candidates,
            ..BeatTables::default()
        }
    }
}

/// Chunk `chunk` of the pair `(query, candidate)` as a distance beat of `opcode` consumes it
/// (see [`chunk_lanes`]).
#[inline]
fn vector_chunk(
    opcode: Opcode,
    query: &[f32],
    candidate: &[f32],
    chunk: usize,
) -> (VectorOperand, bool) {
    match opcode {
        Opcode::Cosine => chunk_lanes::<COSINE_LANES>(query, candidate, chunk),
        _ => chunk_lanes::<EUCLIDEAN_LANES>(query, candidate, chunk),
    }
}

/// Chunk `chunk` of the pair `(query, candidate)` at `N` lanes a beat: the chunk's live lanes
/// in the low lanes of a sixteen-lane operand, zero-padded past the dimension, their mask, and
/// the reset flag, set on the train's last chunk (the one reaching the dimension; a
/// zero-dimensional pair's only chunk reaches it at once).  A full chunk — every chunk of a
/// train but its tail — carries the constant full mask, which the kernel folds away.
#[inline]
fn chunk_lanes<const N: usize>(
    query: &[f32],
    candidate: &[f32],
    chunk: usize,
) -> (VectorOperand, bool) {
    let start = chunk * N;
    let end = start + N;
    let vector = match (query.get(start..end), candidate.get(start..end)) {
        (Some(a), Some(b)) => VectorOperand {
            a: widen::<N>(a),
            b: widen::<N>(b),
            mask: (u32::MAX >> (32 - N)) as u16,
        },
        _ => {
            let (a, b) = (&query[start..], &candidate[start..]);
            VectorOperand {
                a: padded(a),
                b: padded(b),
                mask: ((1u32 << a.len()) - 1) as u16,
            }
        }
    };
    (vector, end >= query.len())
}

/// The `N` lanes of a full chunk in the low lanes of a sixteen-lane operand, the rest zero.
/// Built lane by lane: copying the chunk into a zeroed operand made the warm executor's kNN
/// requests about half again slower.
#[inline]
fn widen<const N: usize>(lanes: &[f32]) -> [f32; EUCLIDEAN_LANES] {
    core::array::from_fn(|lane| if lane < N { lanes[lane] } else { 0.0 })
}

/// A tail chunk's lanes in the low lanes of a sixteen-lane operand, the rest zero.
#[inline]
fn padded(lanes: &[f32]) -> [f32; EUCLIDEAN_LANES] {
    core::array::from_fn(|lane| lanes.get(lane).copied().unwrap_or(0.0))
}

/// The beats of one bulk pass: 16-byte beat descriptors in dispatch order plus the owned side
/// tables some of them point into.  The [`FusedScheduler`](crate::FusedScheduler) keeps one
/// and refills it every pass, so a steady-state pass allocates nothing.
#[derive(Debug, Default)]
pub struct BeatPass {
    beats: Vec<Beat>,
    /// Tag and transformed child bounds of each [`Fetch::Boxes`] beat.
    boxes: Vec<(u64, [Aabb; 4])>,
    /// Transformed triangle of each [`Fetch::Triangle`] beat.
    triangles: Vec<Triangle>,
    /// The request of each [`Fetch::Request`] beat.
    requests: Vec<RayFlexRequest>,
    /// Segment the beats pushed next belong to.
    segment: u32,
}

impl BeatPass {
    /// Beats in the pass.
    pub(crate) fn len(&self) -> usize {
        self.beats.len()
    }

    /// `true` when the pass holds no beat.
    pub(crate) fn is_empty(&self) -> bool {
        self.beats.is_empty()
    }

    /// Empties the pass, keeping its buffers.
    pub(crate) fn clear(&mut self) {
        self.beats.clear();
        self.boxes.clear();
        self.triangles.clear();
        self.requests.clear();
        self.segment = 0;
    }

    /// Makes `segment` the pass segment of the beats pushed next.
    pub(crate) fn begin_segment(&mut self, segment: usize) {
        self.segment = index_u32(segment);
    }

    /// Appends a ray–box beat of ray `slot` over the children of `node` (a top-level node of
    /// a two-level scene when `tlas`).
    #[inline]
    pub(crate) fn push_node(&mut self, slot: usize, node: u32, tlas: bool) {
        let fetch = if tlas { Fetch::TlasNode } else { Fetch::Node };
        self.push(Opcode::RayBox, fetch, slot, node);
    }

    /// Appends the ray–triangle beats of ray `slot` over leaf `positions`, in order.
    #[inline]
    pub(crate) fn extend_leaf(&mut self, slot: usize, positions: Range<u32>) {
        let (slot, segment) = (index_u32(slot), self.segment);
        self.beats.extend(positions.map(|index| Beat {
            index,
            slot,
            segment,
            opcode: Opcode::RayTriangle,
            fetch: Fetch::Leaf,
        }));
    }

    /// Appends a ray–box beat of ray `slot` tagged `tag` over bounds the pass owns.
    pub(crate) fn push_boxes(&mut self, slot: usize, tag: u64, boxes: [Aabb; 4]) {
        let index = index_u32(self.boxes.len());
        self.boxes.push((tag, boxes));
        self.push(Opcode::RayBox, Fetch::Boxes, slot, index);
    }

    /// Appends the distance beat train of candidate `candidate` against its segment's query —
    /// a Euclidean (16 lanes a beat) or cosine (8 lanes) train over `dimension` dimensions,
    /// reset on its last beat — and returns the number of beats appended.
    pub(crate) fn extend_vector(
        &mut self,
        opcode: Opcode,
        candidate: usize,
        dimension: usize,
    ) -> usize {
        // One beat per started chunk, and one fully masked beat for a zero-dimensional pair,
        // as on the hardware.
        let beats = match opcode {
            Opcode::Cosine => dimension.div_ceil(COSINE_LANES),
            _ => dimension.div_ceil(EUCLIDEAN_LANES),
        }
        .max(1);
        let (index, segment) = (index_u32(candidate), self.segment);
        self.beats.extend((0..beats).map(|chunk| Beat {
            index,
            slot: chunk as u32,
            segment,
            opcode,
            fetch: Fetch::Vector,
        }));
        beats
    }

    /// Appends a ray–triangle beat of ray `slot` over a triangle the pass owns.
    pub(crate) fn push_triangle(&mut self, slot: usize, triangle: Triangle) {
        let index = index_u32(self.triangles.len());
        self.triangles.push(triangle);
        self.push(Opcode::RayTriangle, Fetch::Triangle, slot, index);
    }

    #[inline]
    fn push(&mut self, opcode: Opcode, fetch: Fetch, slot: usize, index: u32) {
        self.beats.push(Beat {
            index,
            slot: index_u32(slot),
            segment: self.segment,
            opcode,
            fetch,
        });
    }

    /// Runs `build` on the pass's request table and appends a [`Fetch::Request`] beat for every
    /// request it appends there, returning what `build` returned — the request-building
    /// streams' way into a pass.
    pub(crate) fn build_owned(
        &mut self,
        build: impl FnOnce(&mut Vec<RayFlexRequest>) -> usize,
    ) -> usize {
        let first = self.requests.len();
        let beats = build(&mut self.requests);
        debug_assert_eq!(
            beats,
            self.requests.len() - first,
            "a stream reports the beats it built"
        );
        let segment = self.segment;
        let requests = &self.requests[first..];
        self.beats
            .extend(requests.iter().zip(first..).map(|(request, index)| Beat {
                index: index_u32(index),
                slot: 0,
                segment,
                opcode: request.opcode,
                fetch: Fetch::Request,
            }));
        beats
    }

    /// The descriptors, for a scheduler that regroups the beats it built (moving a beat
    /// leaves its owned-table entry where it is).
    pub(crate) fn beats_mut(&mut self) -> &mut Vec<Beat> {
        &mut self.beats
    }

    /// The pass as a [`BeatSource`] whose beats resolve against `tables`, the resolved tables
    /// of every segment of the pass (`tables[segment]`).
    pub(crate) fn source<'p>(&'p self, tables: &'p [BeatTables<'p>]) -> PassSource<'p> {
        PassSource { pass: self, tables }
    }

    /// Appends every beat of a one-segment pass to `out` as an owned request, resolved
    /// against `tables`: the requests present exactly the operands the kernels would fetch.
    pub(crate) fn expand_into<'a>(&'a self, tables: BeatTables<'a>, out: &mut Vec<RayFlexRequest>) {
        let tables = [tables];
        let source = self.source(&tables);
        out.extend((0..self.len()).map(|beat| source.request(beat)));
    }
}

/// A descriptor field from an index: slots, positions and table entries are `u32` on the
/// bulk path (a stream of four billion rays would not fit in memory anyway).
#[inline]
fn index_u32(index: usize) -> u32 {
    debug_assert!(
        u32::try_from(index).is_ok(),
        "index {index} overflows a descriptor"
    );
    index as u32
}

/// A [`BeatPass`] resolved for the kernels: every descriptor's operands are fetched from its
/// segment's [`BeatTables`] or from the pass's side tables.  The scheduler resolves each
/// segment's tables once per response window, so a beat finds its tables by a plain index.
pub(crate) struct PassSource<'p> {
    pass: &'p BeatPass,
    tables: &'p [BeatTables<'p>],
}

impl<'p> PassSource<'p> {
    /// The tables of `segment`.
    #[inline]
    fn tables(&self, segment: u32) -> &BeatTables<'p> {
        &self.tables[segment as usize]
    }

    /// The ray of a table-resolved beat.
    #[inline]
    fn ray(&self, descriptor: &Beat) -> &'p RayOperand {
        &self.tables(descriptor.segment).operands[descriptor.slot as usize]
    }

    /// The fetch stage: touches, ahead of the kernels, the table-resolved operands of every
    /// beat — both cache lines of a node's child bounds and a leaf's triangle — in one tight
    /// loop whose loads depend on nothing but the descriptors, so their cache misses overlap
    /// instead of stalling the kernels one beat at a time.  Owned operands sit in the pass
    /// itself and distance rows are read in order, so neither is touched.
    pub(crate) fn fetch(&self) {
        let mut touched = 0u32;
        for descriptor in &self.pass.beats {
            let index = descriptor.index as usize;
            match descriptor.fetch {
                Fetch::Node | Fetch::TlasNode => {
                    let bounds = &self.tables(descriptor.segment).nodes[index].child_bounds;
                    touched ^= bounds[0].min.x.to_bits() ^ bounds[3].max.z.to_bits();
                }
                Fetch::Leaf => {
                    let triangle = &self.tables(descriptor.segment).triangles[index];
                    touched ^= triangle.v0.x.to_bits() ^ triangle.v2.z.to_bits();
                }
                Fetch::Boxes | Fetch::Triangle | Fetch::Vector | Fetch::Request => {}
            }
        }
        core::hint::black_box(touched);
    }

    /// The pass segment beat `beat` belongs to.
    pub(crate) fn segment(&self, beat: usize) -> usize {
        self.pass.beats[beat].segment as usize
    }

    /// Beat `beat` as an owned request presenting the operands the kernels fetch: how the
    /// scalar reference discipline executes a descriptor on the per-beat emulated path.
    pub(crate) fn request(&self, beat: usize) -> RayFlexRequest {
        let descriptor = &self.pass.beats[beat];
        let operand = match descriptor.fetch {
            Fetch::Request => return self.pass.requests[descriptor.index as usize].clone(),
            Fetch::Node | Fetch::TlasNode | Fetch::Boxes => {
                let (ray, boxes) = self.box_operands(beat);
                BeatOperand::Boxes {
                    ray: *ray,
                    boxes: *boxes,
                }
            }
            Fetch::Leaf | Fetch::Triangle => {
                let (ray, triangle) = self.triangle_operands(beat);
                BeatOperand::Triangle {
                    ray: *ray,
                    triangle: *triangle,
                }
            }
            Fetch::Vector => {
                let (vector, reset_accumulator) = self.vector_operands(beat);
                BeatOperand::Vector {
                    vector,
                    reset_accumulator,
                }
            }
        };
        RayFlexRequest {
            opcode: descriptor.opcode,
            tag: self.tag(beat),
            operand,
        }
    }
}

impl BeatSource for PassSource<'_> {
    #[inline]
    fn beat_count(&self) -> usize {
        self.pass.beats.len()
    }

    #[inline]
    fn opcode(&self, beat: usize) -> Opcode {
        self.pass.beats[beat].opcode
    }

    #[inline]
    fn tag(&self, beat: usize) -> u64 {
        let descriptor = &self.pass.beats[beat];
        let index = descriptor.index as usize;
        match descriptor.fetch {
            Fetch::Node => u64::from(descriptor.index),
            Fetch::TlasNode => u64::from(descriptor.index) | TLAS_PHASE_TAG,
            Fetch::Leaf | Fetch::Triangle => u64::from(descriptor.slot),
            Fetch::Vector => u64::from(descriptor.index),
            Fetch::Boxes => self.pass.boxes[index].0,
            Fetch::Request => self.pass.requests[index].tag,
        }
    }

    #[inline]
    fn box_operands(&self, beat: usize) -> (&RayOperand, &[Aabb; 4]) {
        let descriptor = &self.pass.beats[beat];
        let index = descriptor.index as usize;
        match descriptor.fetch {
            Fetch::Node | Fetch::TlasNode => {
                let tables = self.tables(descriptor.segment);
                (
                    &tables.operands[descriptor.slot as usize],
                    &tables.nodes[index].child_bounds,
                )
            }
            Fetch::Boxes => (self.ray(descriptor), &self.pass.boxes[index].1),
            Fetch::Request => self.pass.requests[index].operand.box_operands(),
            Fetch::Leaf | Fetch::Triangle | Fetch::Vector => {
                unreachable!("a {:?} descriptor is not a box beat", descriptor.fetch)
            }
        }
    }

    #[inline]
    fn triangle_operands(&self, beat: usize) -> (&RayOperand, &Triangle) {
        let descriptor = &self.pass.beats[beat];
        let index = descriptor.index as usize;
        match descriptor.fetch {
            Fetch::Leaf => {
                let tables = self.tables(descriptor.segment);
                (
                    &tables.operands[descriptor.slot as usize],
                    &tables.triangles[index],
                )
            }
            Fetch::Triangle => (self.ray(descriptor), &self.pass.triangles[index]),
            Fetch::Request => self.pass.requests[index].operand.triangle_operands(),
            Fetch::Node | Fetch::TlasNode | Fetch::Boxes | Fetch::Vector => {
                unreachable!("a {:?} descriptor is not a triangle beat", descriptor.fetch)
            }
        }
    }

    #[inline]
    fn vector_operands(&self, beat: usize) -> (VectorOperand, bool) {
        let descriptor = &self.pass.beats[beat];
        match descriptor.fetch {
            Fetch::Vector => {
                let tables = self.tables(descriptor.segment);
                vector_chunk(
                    descriptor.opcode,
                    tables.query,
                    tables.candidates.row(descriptor.index as usize),
                    descriptor.slot as usize,
                )
            }
            Fetch::Request => {
                let request = &self.pass.requests[descriptor.index as usize];
                let (vector, reset) = request.operand.vector_operands();
                (*vector, reset)
            }
            _ => unreachable!("a {:?} descriptor is not a distance beat", descriptor.fetch),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bvh::ChildRef;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rayflex_core::{PipelineConfig, QueryKind, RayFlexDatapath, RayFlexResponse};
    use rayflex_geometry::{Ray, Vec3};

    /// The dimensions the distance descriptors are checked at: empty, one lane, a cosine beat
    /// exactly, one lane short of, exactly at and one past a Euclidean beat, and two full
    /// Euclidean beats plus a masked tail.
    const DIMENSIONS: [usize; 7] = [0, 1, 8, 15, 16, 17, 40];

    /// One segment's tables: what a stream's descriptors resolve against.
    struct Tables {
        nodes: Vec<Bvh4Node>,
        triangles: Vec<Triangle>,
        operands: Vec<RayOperand>,
        query: Vec<f32>,
        candidates: Vec<Vec<f32>>,
    }

    impl VectorRows for Vec<Vec<f32>> {
        fn row(&self, index: usize) -> &[f32] {
            &self[index]
        }
    }

    fn random_vector(rng: &mut StdRng, dimension: usize) -> Vec<f32> {
        (0..dimension)
            .map(|_| rng.gen_range(-2.0f32..2.0))
            .collect()
    }

    impl Tables {
        fn random(rng: &mut StdRng) -> Self {
            let dimension = DIMENSIONS[rng.gen_range(0..DIMENSIONS.len())];
            Tables {
                query: random_vector(rng, dimension),
                candidates: (0..rng.gen_range(1..6usize))
                    .map(|_| random_vector(rng, dimension))
                    .collect(),
                nodes: (0..rng.gen_range(1..12usize))
                    .map(|_| Bvh4Node {
                        child_bounds: core::array::from_fn(|_| random_box(rng)),
                        children: [ChildRef::EMPTY; 4],
                    })
                    .collect(),
                triangles: (0..rng.gen_range(1..24usize))
                    .map(|_| random_triangle(rng))
                    .collect(),
                operands: (0..rng.gen_range(1..10usize))
                    .map(|_| {
                        let dir = Vec3::new(
                            rng.gen_range(-1.0f32..1.0),
                            rng.gen_range(-1.0f32..1.0),
                            rng.gen_range(0.1f32..1.0),
                        );
                        RayOperand::from_ray(&Ray::new(random_point(rng, 5.0), dir))
                    })
                    .collect(),
            }
        }

        fn view(&self) -> BeatTables<'_> {
            BeatTables {
                query: &self.query,
                candidates: &self.candidates,
                ..BeatTables::new(&self.nodes, &self.triangles, &self.operands)
            }
        }
    }

    /// The requests of one `(query, candidate)` distance train as a request-building stream
    /// emits them: every exact chunk at full mask, then the zero-padded, masked tail (or the
    /// one fully masked beat of a zero-dimensional pair), the reset on the last beat.
    fn expected_train(
        opcode: Opcode,
        tag: u64,
        query: &[f32],
        candidate: &[f32],
    ) -> Vec<RayFlexRequest> {
        let lanes = if opcode == Opcode::Cosine {
            COSINE_LANES
        } else {
            EUCLIDEAN_LANES
        };
        let chunks = query.len().div_ceil(lanes).max(1);
        (0..chunks)
            .map(|chunk| {
                let range = chunk * lanes..((chunk + 1) * lanes).min(query.len());
                let live = range.len();
                let mut a = [0.0f32; EUCLIDEAN_LANES];
                let mut b = [0.0f32; EUCLIDEAN_LANES];
                a[..live].copy_from_slice(&query[range.clone()]);
                b[..live].copy_from_slice(&candidate[range]);
                let mask = (1u32 << live) - 1;
                let last = chunk + 1 == chunks;
                if opcode == Opcode::Cosine {
                    let low = |v: [f32; EUCLIDEAN_LANES]| core::array::from_fn(|lane| v[lane]);
                    RayFlexRequest::cosine(tag, low(a), low(b), mask as u8, last)
                } else {
                    RayFlexRequest::euclidean(tag, a, b, mask as u16, last)
                }
            })
            .collect()
    }

    fn random_point(rng: &mut StdRng, extent: f32) -> Vec3 {
        Vec3::new(
            rng.gen_range(-extent..extent),
            rng.gen_range(-extent..extent),
            rng.gen_range(-extent..extent),
        )
    }

    fn random_box(rng: &mut StdRng) -> Aabb {
        let min = random_point(rng, 4.0);
        let size = Vec3::new(
            rng.gen_range(0.0f32..2.0),
            rng.gen_range(0.0f32..2.0),
            rng.gen_range(0.0f32..2.0),
        );
        Aabb::new(min, min + size)
    }

    fn random_triangle(rng: &mut StdRng) -> Triangle {
        Triangle::new(
            random_point(rng, 4.0),
            random_point(rng, 4.0),
            random_point(rng, 4.0),
        )
    }

    /// A random multi-segment pass and, built beside it from the same tables, the requests its
    /// descriptors stand for.
    struct RandomPass {
        tables: Vec<Tables>,
        pass: BeatPass,
        segments: Vec<(QueryKind, usize)>,
        expected: Vec<RayFlexRequest>,
    }

    /// A [`RandomPass`] mixing table-resolved node and leaf beats, instanced-BLAS payload
    /// beats, candidate-collection beats, table-resolved Euclidean and cosine trains, and owned
    /// ray–box requests and distance trains.
    fn random_pass(seed: u64) -> RandomPass {
        let mut rng = StdRng::seed_from_u64(seed);
        let segments = rng.gen_range(1..5usize);
        let tables: Vec<Tables> = (0..segments).map(|_| Tables::random(&mut rng)).collect();
        // Long enough, often, to span several response windows.
        let target = rng.gen_range(1..3000usize);
        let mut pass = BeatPass::default();
        let mut expected = Vec::new();
        let mut lengths = Vec::new();
        for (segment, table) in tables.iter().enumerate() {
            pass.begin_segment(segment);
            let start = pass.len();
            let quota = target / segments + usize::from(segment == 0);
            while pass.len() - start < quota {
                let slot = rng.gen_range(0..table.operands.len());
                let ray = table.operands[slot];
                match rng.gen_range(0..8u32) {
                    0 => {
                        let node = rng.gen_range(0..table.nodes.len()) as u32;
                        let tlas = rng.gen_bool(0.3);
                        pass.push_node(slot, node, tlas);
                        let tag = u64::from(node) | if tlas { TLAS_PHASE_TAG } else { 0 };
                        let boxes = &table.nodes[node as usize].child_bounds;
                        expected.push(RayFlexRequest::ray_box_operand(tag, &ray, boxes));
                    }
                    1 => {
                        let first = rng.gen_range(0..table.triangles.len());
                        let end = rng.gen_range(first + 1..=table.triangles.len().min(first + 9));
                        pass.extend_leaf(slot, first as u32..end as u32);
                        expected.extend(table.triangles[first..end].iter().map(|triangle| {
                            RayFlexRequest::ray_triangle_operand(slot as u64, &ray, triangle)
                        }));
                    }
                    2 => {
                        let tag = rng.gen::<u64>() & !TLAS_PHASE_TAG;
                        let boxes = core::array::from_fn(|_| random_box(&mut rng));
                        pass.push_boxes(slot, tag, boxes);
                        expected.push(RayFlexRequest::ray_box_operand(tag, &ray, &boxes));
                    }
                    3 => {
                        let triangle = random_triangle(&mut rng);
                        pass.push_triangle(slot, triangle);
                        expected.push(RayFlexRequest::ray_triangle_operand(
                            slot as u64,
                            &ray,
                            &triangle,
                        ));
                    }
                    4 => {
                        // A collection beat: a node's child bounds inflated by the query
                        // radius, tagged with the node, its filter ray from the table.
                        let node = rng.gen_range(0..table.nodes.len());
                        let radius = rng.gen_range(0.0f32..2.0);
                        let boxes = table.nodes[node].child_bounds.map(|b| b.inflated(radius));
                        pass.push_boxes(slot, node as u64, boxes);
                        expected.push(RayFlexRequest::ray_box_operand(node as u64, &ray, &boxes));
                    }
                    5 => {
                        let candidate = rng.gen_range(0..table.candidates.len());
                        let opcode = if rng.gen_bool(0.5) {
                            Opcode::Cosine
                        } else {
                            Opcode::Euclidean
                        };
                        let train = expected_train(
                            opcode,
                            candidate as u64,
                            &table.query,
                            &table.candidates[candidate],
                        );
                        let beats = pass.extend_vector(opcode, candidate, table.query.len());
                        assert_eq!(beats, train.len(), "{opcode:?} train length");
                        expected.extend(train);
                    }
                    6 => {
                        let request = RayFlexRequest::ray_box(
                            rng.gen(),
                            &Ray::new(random_point(&mut rng, 5.0), Vec3::new(0.3, -0.2, 1.0)),
                            &core::array::from_fn(|_| random_box(&mut rng)),
                        );
                        pass.build_owned(|requests| {
                            requests.push(request.clone());
                            1
                        });
                        expected.push(request);
                    }
                    _ => {
                        let (tag, cosine) = (rng.gen::<u64>(), rng.gen_bool(0.5));
                        let beats = rng.gen_range(1..5usize);
                        for beat in 0..beats {
                            let last = beat + 1 == beats;
                            let request = if cosine {
                                let a = core::array::from_fn(|_| rng.gen_range(-2.0f32..2.0));
                                let b = core::array::from_fn(|_| rng.gen_range(-2.0f32..2.0));
                                RayFlexRequest::cosine(tag, a, b, rng.gen(), last)
                            } else {
                                let a = core::array::from_fn(|_| rng.gen_range(-2.0f32..2.0));
                                let b = core::array::from_fn(|_| rng.gen_range(-2.0f32..2.0));
                                RayFlexRequest::euclidean(tag, a, b, rng.gen(), last)
                            };
                            pass.build_owned(|requests| {
                                requests.push(request.clone());
                                1
                            });
                            expected.push(request);
                        }
                    }
                }
            }
            let kind = QueryKind::ALL[rng.gen_range(0..QueryKind::ALL.len())];
            lengths.push((kind, pass.len() - start));
        }
        RandomPass {
            tables,
            pass,
            segments: lengths,
            expected,
        }
    }

    /// Every field of a response as bits, so NaN payloads and signed zeros compare exactly.
    fn bits(responses: &[RayFlexResponse]) -> Vec<(Opcode, u64, Vec<u32>)> {
        responses
            .iter()
            .map(|r| {
                let mut fields = Vec::new();
                if let Some(b) = r.box_result {
                    fields.extend(b.hit.map(u32::from));
                    fields.extend(b.t_entry.map(f32::to_bits));
                    fields.extend(b.traversal_order.map(u32::from));
                }
                if let Some(t) = r.triangle_result {
                    fields.push(u32::from(t.hit));
                    fields.extend([t.t_num, t.det, t.u, t.v, t.w].map(f32::to_bits));
                }
                if let Some(d) = r.distance_result {
                    fields.push(u32::from(d.euclidean_reset) << 1 | u32::from(d.angular_reset));
                    fields.extend(
                        [
                            d.euclidean_accumulator,
                            d.angular_dot_product,
                            d.angular_norm,
                        ]
                        .map(f32::to_bits),
                    );
                }
                (r.opcode, r.tag, fields)
            })
            .collect()
    }

    /// Dispatches `source` as one streamed pass a window at a time, the way the scheduler
    /// does, and returns every window's responses in order.
    fn windowed<S: BeatSource + ?Sized>(
        datapath: &mut RayFlexDatapath,
        source: &S,
        segments: &[(QueryKind, usize)],
        window: &mut Vec<RayFlexResponse>,
    ) -> Vec<RayFlexResponse> {
        let mut dispatch = datapath.begin_streamed_pass(source.beat_count(), segments, window);
        let mut responses = Vec::new();
        while !dispatch.is_finished() {
            datapath.execute_window(source, segments, &mut dispatch, window);
            responses.extend_from_slice(window);
        }
        responses
    }

    fn datapath(lanes: usize) -> RayFlexDatapath {
        let mut datapath = RayFlexDatapath::new(PipelineConfig::extended_unified());
        datapath.set_simd_lanes(lanes);
        datapath
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A descriptor pass and the requests it stands for give bit-identical responses and
        /// identical counters through the one-buffer segmented and the windowed dispatch, at
        /// every lane width — and expanding the descriptors yields exactly those requests.
        #[test]
        fn descriptors_dispatch_exactly_like_their_expanded_requests(seed in any::<u64>()) {
            let RandomPass {
                tables,
                pass,
                segments,
                expected,
            } = random_pass(seed);
            let views: Vec<BeatTables<'_>> = tables.iter().map(Tables::view).collect();
            let source = pass.source(&views);
            // The fetch stage reads every table-resolved operand in bounds.
            source.fetch();
            let expanded: Vec<RayFlexRequest> =
                (0..pass.len()).map(|beat| source.request(beat)).collect();
            prop_assert!(expanded == expected, "expansion differs from the requests built");

            for lanes in [1, 4, 8, 16] {
                // The segmented leg: the descriptor pass, expanded, through the one-buffer
                // segmented dispatch.
                let mut segmented_dp = datapath(lanes);
                let mut wanted = Vec::new();
                segmented_dp.execute_batch_segmented(&expanded, &segments, &mut wanted);
                let mut window = Vec::new();
                let mut requests_dp = datapath(lanes);
                let got = windowed(&mut requests_dp, &expected[..], &segments, &mut window);
                prop_assert_eq!(bits(&got), bits(&wanted), "windowed requests, lanes {}", lanes);
                prop_assert_eq!(requests_dp.beat_mix(), segmented_dp.beat_mix(), "lanes {}", lanes);
                let mut beats_dp = datapath(lanes);
                let got = windowed(&mut beats_dp, &source, &segments, &mut window);
                prop_assert_eq!(bits(&got), bits(&wanted), "windowed descriptors, lanes {}", lanes);
                prop_assert_eq!(beats_dp.beat_mix(), segmented_dp.beat_mix(), "lanes {}", lanes);
            }
        }
    }
}
