//! Beat descriptors: the bulk path's 16-byte form of a datapath beat.
//!
//! A [`RayFlexRequest`] carries its operands by value — a ray–box request copies the ray and
//! four child boxes into 176 bytes.  The RT unit does not work that way: it fetches a node's
//! boxes or a leaf's triangle and the datapath consumes them.  The batched scheduler follows
//! the hardware.  Each beat of a pass is a [`Beat`] descriptor naming *where* its operands
//! live — an operand slot in its stream's ray table, a node index or a leaf position — and the
//! lane kernels fetch the operands through [`PassSource`] when they issue the beat: the ray from
//! the stream's operand table, the boxes straight from [`Bvh4Node::child_bounds`], the triangle
//! from the scene's leaf-order storage ([`BeatTables`]).
//!
//! Operands that exist nowhere in that form ride in the pass's **owned side tables** instead.
//! A BLAS-phase beat of an instanced scene tests bounds or a triangle transformed for this
//! visit, so the pass owns that payload (its ray still comes from the operand table).  Distance
//! beats (a vector pair per candidate chunk), candidate-collection beats (radius-inflated
//! boxes) and the beats of any [`FusedStream`] that builds requests itself are owned whole, as
//! requests.  Either way the kernels see the same opcode, tag and operand values a request
//! would present, so responses and counters are bit-identical to dispatching the expanded
//! requests ([`BeatPass::expand_into`]) — which is how the per-beat API, the scalar reference
//! and public [`FusedStream::build_pass`] callers still get requests.
//!
//! [`FusedStream`]: crate::FusedStream
//! [`FusedStream::build_pass`]: crate::FusedStream::build_pass

use core::cell::Cell;
use core::ops::Range;

use rayflex_core::{
    BeatOperand, BeatSource, Opcode, RayFlexRequest, RayOperand, VectorOperand, TLAS_PHASE_TAG,
};
use rayflex_geometry::{Aabb, Triangle};

use crate::bvh::Bvh4Node;

/// Where a descriptor's operands live.  Every kind but [`Fetch::Request`] takes its ray from
/// operand `slot` of its segment's operand table.
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
    /// whose bounds were transformed for this visit.
    Boxes,
    /// A ray–triangle beat over the owned triangle `index`, tagged with its operand slot — a
    /// BLAS-phase triangle transformed for this visit.
    Triangle,
    /// A beat whose tag and operands are owned request `index`.
    Request,
}

/// One beat of a bulk pass, in 16 bytes: its opcode, its pass segment, the operand slot of its
/// ray and the node index or leaf position it tests (or its owned side-table entry).
///
/// Table-resolved nodes and leaves always live in the top-level structure (a flat BVH or a
/// TLAS), so the context a traversal handle carries is implied by [`Fetch`]: a BLAS-phase beat
/// under an instance transform carries its transformed payload, and its tag, in a side table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Beat {
    /// Node index, leaf position or side-table entry (see [`Fetch`]).
    index: u32,
    /// The beat's ray in its segment's operand table.
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

/// The tables a stream's beat descriptors resolve against: the node table its box beats test,
/// the leaf-order triangles its triangle beats test and the ray operand table their slots
/// index.  A stream whose beats are all owned has none (the `Default`).
#[derive(Debug, Clone, Copy, Default)]
pub struct BeatTables<'a> {
    nodes: &'a [Bvh4Node],
    triangles: &'a [Triangle],
    operands: &'a [RayOperand],
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
        }
    }
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

    /// Appends a beat owning `request` — how a [`BatchQuery`](crate::BatchQuery) whose
    /// operands live in no shared table emits a beat.
    pub fn push_request(&mut self, request: RayFlexRequest) {
        self.extend_requests(core::iter::once(request));
    }

    /// Appends a beat owning each of `requests`, in order (see [`BeatPass::push_request`]).
    pub(crate) fn extend_requests(&mut self, requests: impl IntoIterator<Item = RayFlexRequest>) {
        self.reserve_requests();
        let first = self.requests.len();
        self.requests.extend(requests);
        self.own_requests_from(first);
    }

    /// Grows a full request table by the descriptor room the pass has reserved (a scheduler
    /// reserves one beat per active item), so a pass of owned beats sizes its table once
    /// instead of doubling up to it.
    fn reserve_requests(&mut self) {
        if self.requests.len() == self.requests.capacity() {
            self.requests
                .reserve(self.beats.capacity() - self.beats.len());
        }
    }

    /// Appends a [`Fetch::Request`] beat for every request from `first` on.
    fn own_requests_from(&mut self, first: usize) {
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

    /// Runs `build` on the pass's request table and appends a beat for every request it
    /// appends there, returning what `build` returned — the request-building streams' way into
    /// a pass.
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
        self.own_requests_from(first);
        beats
    }

    /// The descriptors, for a scheduler that regroups the beats it built (moving a beat
    /// leaves its owned-table entry where it is).
    pub(crate) fn beats_mut(&mut self) -> &mut Vec<Beat> {
        &mut self.beats
    }

    /// The pass as a [`BeatSource`]: `tables(segment)` names the tables each segment's beats
    /// resolve against.
    pub(crate) fn source<'p, F: Fn(usize) -> BeatTables<'p>>(
        &'p self,
        tables: F,
    ) -> PassSource<'p, F> {
        PassSource {
            pass: self,
            tables,
            cached: core::array::from_fn(|_| Cell::new((u32::MAX, BeatTables::default()))),
        }
    }

    /// Appends every beat of the pass to `out` as an owned request, resolving every segment
    /// against `tables`: the requests present exactly the operands the kernels would fetch.
    pub(crate) fn expand_into<'a>(&'a self, tables: BeatTables<'a>, out: &mut Vec<RayFlexRequest>) {
        let source = self.source(move |_| tables);
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

/// Segments whose tables a [`PassSource`] keeps at hand at once.
const CACHED_SEGMENTS: usize = 8;

/// A [`BeatPass`] resolved for the kernels: every descriptor's operands are fetched from its
/// segment's [`BeatTables`] or from the pass's side tables.  The tables of recently used
/// segments are kept at hand (segment `s` in slot `s % CACHED_SEGMENTS`), so a lane group
/// mixing the beats of a few small streams looks each stream's tables up once.
pub(crate) struct PassSource<'p, F> {
    pass: &'p BeatPass,
    tables: F,
    cached: [Cell<(u32, BeatTables<'p>)>; CACHED_SEGMENTS],
}

impl<'p, F: Fn(usize) -> BeatTables<'p>> PassSource<'p, F> {
    /// The tables of `segment`.
    #[inline]
    fn tables(&self, segment: u32) -> BeatTables<'p> {
        let slot = &self.cached[segment as usize % CACHED_SEGMENTS];
        let (cached, tables) = slot.get();
        if cached == segment {
            return tables;
        }
        let tables = (self.tables)(segment as usize);
        slot.set((segment, tables));
        tables
    }

    /// The ray of a table-resolved beat.
    #[inline]
    fn ray(&self, descriptor: &Beat) -> &'p RayOperand {
        &self.tables(descriptor.segment).operands[descriptor.slot as usize]
    }

    /// Beat `beat` as an owned request presenting the operands the kernels fetch.
    fn request(&self, beat: usize) -> RayFlexRequest {
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
        };
        RayFlexRequest {
            opcode: descriptor.opcode,
            tag: self.tag(beat),
            operand,
        }
    }
}

impl<'p, F: Fn(usize) -> BeatTables<'p>> BeatSource for PassSource<'p, F> {
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
            Fetch::Leaf | Fetch::Triangle => {
                unreachable!("a triangle descriptor is not a box beat")
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
            Fetch::Node | Fetch::TlasNode | Fetch::Boxes => {
                unreachable!("a box descriptor is not a triangle beat")
            }
        }
    }

    #[inline]
    fn vector_operands(&self, beat: usize) -> (&VectorOperand, bool) {
        let descriptor = &self.pass.beats[beat];
        match descriptor.fetch {
            Fetch::Request => self.pass.requests[descriptor.index as usize]
                .operand
                .vector_operands(),
            _ => unreachable!("distance beats are owned requests"),
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

    /// One segment's tables: what a stream's descriptors resolve against.
    struct Tables {
        nodes: Vec<Bvh4Node>,
        triangles: Vec<Triangle>,
        operands: Vec<RayOperand>,
    }

    impl Tables {
        fn random(rng: &mut StdRng) -> Self {
            Tables {
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
            BeatTables::new(&self.nodes, &self.triangles, &self.operands)
        }
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
    /// beats, owned ray–box requests and distance beat trains.
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
                match rng.gen_range(0..6u32) {
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
                        let request = RayFlexRequest::ray_box(
                            rng.gen(),
                            &Ray::new(random_point(&mut rng, 5.0), Vec3::new(0.3, -0.2, 1.0)),
                            &core::array::from_fn(|_| random_box(&mut rng)),
                        );
                        pass.push_request(request.clone());
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
                            pass.push_request(request.clone());
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

    fn datapath(lanes: usize) -> RayFlexDatapath {
        let mut datapath = RayFlexDatapath::new(PipelineConfig::extended_unified());
        datapath.set_simd_lanes(lanes);
        datapath
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A descriptor pass and the requests it stands for give bit-identical responses and
        /// identical counters through the segmented and the streamed dispatch, at every lane
        /// width — and expanding the descriptors yields exactly those requests.
        #[test]
        fn descriptors_dispatch_exactly_like_their_expanded_requests(seed in any::<u64>()) {
            let RandomPass {
                tables,
                pass,
                segments,
                expected,
            } = random_pass(seed);
            let source = pass.source(|segment| tables[segment].view());
            let expanded: Vec<RayFlexRequest> =
                (0..pass.len()).map(|beat| source.request(beat)).collect();
            prop_assert!(expanded == expected, "expansion differs from the requests built");

            for lanes in [1, 4, 8, 16] {
                let mut requests_dp = datapath(lanes);
                let mut wanted = Vec::new();
                requests_dp.execute_batch_segmented(&expected, &segments, &mut wanted);
                let mut window = Vec::new();
                let mut streamed = Vec::new();
                requests_dp.execute_batch_streamed(&expected, &segments, &mut window, |w| {
                    streamed.extend_from_slice(w);
                });
                prop_assert_eq!(bits(&streamed), bits(&wanted), "streamed requests, lanes {}", lanes);

                let mut beats_dp = datapath(lanes);
                let mut got = Vec::new();
                beats_dp.execute_beats_segmented(&source, &segments, &mut got);
                prop_assert_eq!(bits(&got), bits(&wanted), "segmented descriptors, lanes {}", lanes);
                let mut dispatch = beats_dp.begin_streamed_pass(pass.len(), &segments, &mut window);
                let mut windows = Vec::new();
                while !dispatch.is_finished() {
                    beats_dp.execute_window(&source, &segments, &mut dispatch, &mut window);
                    windows.extend_from_slice(&window);
                }
                prop_assert_eq!(bits(&windows), bits(&wanted), "streamed descriptors, lanes {}", lanes);
                prop_assert_eq!(beats_dp.beat_mix(), requests_dp.beat_mix(), "lanes {}", lanes);
            }
        }
    }
}
