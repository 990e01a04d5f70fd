//! The IO specification of the datapath (paper §III-A plus the extended fields of §V-A).
//!
//! The specification follows the RDNA3 `IMAGE_BVH_INTERSECT_RAY` instruction: each beat carries
//! one opcode, one ray and the geometry operand the opcode selects (one triangle or four boxes),
//! plus — on the extended datapath — two sixteen-element vectors, a lane mask and an
//! accumulator-reset flag.  All floating-point IO is IEEE binary32; the first and last pipeline
//! stages convert to and from the internal recoded format.  The in-memory request stores the
//! per-opcode operands as one union ([`BeatOperand`]): a ray with its boxes, a ray with its
//! triangle, or the vector pair with its reset flag — the software analogue of the paper's shared
//! operand registers.  Every beat is therefore a fixed-size value with no heap payload; the
//! unselected operands still *present* their fixed disabled values to unconditional consumers
//! (see the `*_operand` accessors), so the wire-level specification is unchanged.

use rayflex_geometry::{Aabb, Ray, Triangle, Vec3};

pub use rayflex_geometry::golden::distance::{COSINE_LANES, EUCLIDEAN_LANES};

use crate::Opcode;

/// The ray operand: sixteen FP32 values as specified by the RDNA3 ISA (origin, direction,
/// inverse direction, extent) plus the six pre-computed shear values and the three axis-renaming
/// indices the paper adds for the watertight test (§III-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RayOperand {
    /// Ray origin.
    pub origin: [f32; 3],
    /// Ray direction.
    pub dir: [f32; 3],
    /// Element-wise inverse of the direction.
    pub inv_dir: [f32; 3],
    /// Start of the parametric extent.
    pub t_beg: f32,
    /// End of the parametric extent.
    pub t_end: f32,
    /// Axis-renaming indices `(kx, ky, kz)` (each 0, 1 or 2).
    pub k: [u8; 3],
    /// Shear constants `(Sx, Sy, Sz)`.
    pub shear: [f32; 3],
}

impl RayOperand {
    /// Builds the operand from a geometry ray (which already carries the pre-computed inverse
    /// direction and shear constants).
    #[inline]
    #[must_use]
    pub fn from_ray(ray: &Ray) -> Self {
        RayOperand {
            origin: ray.origin.to_array(),
            dir: ray.dir.to_array(),
            inv_dir: ray.inv_dir.to_array(),
            t_beg: ray.t_beg,
            t_end: ray.t_end,
            k: [
                ray.shear.kx.index() as u8,
                ray.shear.ky.index() as u8,
                ray.shear.kz.index() as u8,
            ],
            shear: [ray.shear.sx, ray.shear.sy, ray.shear.sz],
        }
    }

    /// The coherence sort key of this ray: three direction-sign octant bits above a 30-bit
    /// Morton code of the origin.
    ///
    /// Rays sharing an octant traverse BVH children in similar orders, and rays with nearby
    /// origins touch overlapping node sets — sorting a wavefront's admission order by this key
    /// packs like-minded rays into adjacent pass slots, so the datapath's lane-grouping fast
    /// path sees long same-opcode trains instead of interleaved fragments.  The key orders
    /// *dispatch only*: schedulers reassemble results by item index, so outputs are
    /// bit-identical for any key function.
    ///
    /// Layout: `octant << 30 | morton30`, where the octant packs the sign bits of
    /// `dir.{x,y,z}` (negative = 1; a NaN component sorts as non-negative, which is merely a
    /// grouping choice) and `morton30` interleaves the top ten bits of each origin
    /// component's order-preserving unsigned image.
    #[must_use]
    pub fn coherence_key(&self) -> u64 {
        let octant = u64::from(self.dir[0] < 0.0)
            | u64::from(self.dir[1] < 0.0) << 1
            | u64::from(self.dir[2] < 0.0) << 2;
        let morton = spread_10(order_bits_10(self.origin[0]))
            | spread_10(order_bits_10(self.origin[1])) << 1
            | spread_10(order_bits_10(self.origin[2])) << 2;
        octant << 30 | morton
    }

    /// The placeholder operand a beat without a ray presents (a distance beat).
    pub const DISABLED: RayOperand = RayOperand {
        origin: [0.0; 3],
        dir: [0.0, 0.0, 1.0],
        inv_dir: [f32::INFINITY, f32::INFINITY, 1.0],
        t_beg: 0.0,
        t_end: 0.0,
        k: [0, 1, 2],
        shear: [0.0, 0.0, 1.0],
    };
}

/// Top ten bits of the order-preserving unsigned image of an IEEE-754 binary32 value: flip all
/// bits of negatives and the sign bit of non-negatives, so the unsigned order of the images
/// matches the numeric order of the floats (the classic radix-sort trick).  Ten bits per axis
/// fill the 30-bit Morton budget below the octant bits.
#[inline]
fn order_bits_10(value: f32) -> u64 {
    let bits = value.to_bits();
    let ordered = if bits & 0x8000_0000 != 0 {
        !bits
    } else {
        bits | 0x8000_0000
    };
    u64::from(ordered >> 22)
}

/// Spreads a 10-bit value so its bits occupy every third position (Morton interleave step).
#[inline]
fn spread_10(v: u64) -> u64 {
    let mut v = v & 0x3FF;
    v = (v | v << 16) & 0x0300_00FF;
    v = (v | v << 8) & 0x0300_F00F;
    v = (v | v << 4) & 0x030C_30C3;
    v = (v | v << 2) & 0x0924_9249;
    v
}

/// The vector operand of a distance beat: two sixteen-lane FP32 vectors and the lane-validity
/// mask (bit set = lane participates).  Stored inline in the request's [`BeatOperand`] union,
/// where it shares space with the (larger) ray-and-boxes operand of the ray–box beats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VectorOperand {
    /// First vector (query), sixteen lanes.
    pub a: [f32; EUCLIDEAN_LANES],
    /// Second vector (candidate), sixteen lanes.
    pub b: [f32; EUCLIDEAN_LANES],
    /// Lane-validity mask (bit set = lane participates).
    pub mask: u16,
}

impl VectorOperand {
    /// The all-zero operand a beat without a vector payload presents to the datapath (every lane
    /// masked off).
    pub const DISABLED: VectorOperand = VectorOperand {
        a: [0.0; EUCLIDEAN_LANES],
        b: [0.0; EUCLIDEAN_LANES],
        mask: 0,
    };
}

/// The operand of a beat: the ray and four candidate child boxes of a ray–box beat, the ray and
/// triangle of a ray–triangle beat, or the vector pair and accumulator-reset flag of a distance
/// beat.  One union rather than side-by-side fields, so constructing any beat writes only the
/// operand its opcode selects and no beat carries a heap payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BeatOperand {
    /// The operands of a ray–box beat.
    Boxes {
        /// The ray.
        ray: RayOperand,
        /// The four candidate child boxes.
        boxes: [Aabb; 4],
    },
    /// The operands of a ray–triangle beat.
    Triangle {
        /// The ray.
        ray: RayOperand,
        /// The triangle.
        triangle: Triangle,
    },
    /// The operands of a Euclidean or cosine beat.
    Vector {
        /// The vector pair and lane mask.
        vector: VectorOperand,
        /// When set, this beat is the last of a (possibly multi-beat) vector pair: the
        /// accumulated result is reported and the accumulator clears afterwards.
        reset_accumulator: bool,
    },
}

impl BeatOperand {
    /// The ray, or [`RayOperand::DISABLED`] when the operand carries none (a distance beat).
    #[inline]
    #[must_use]
    pub fn ray_operand(&self) -> &RayOperand {
        match self {
            BeatOperand::Boxes { ray, .. } | BeatOperand::Triangle { ray, .. } => ray,
            BeatOperand::Vector { .. } => &RayOperand::DISABLED,
        }
    }

    /// The ray and boxes of a ray–box operand in one match — the per-beat binding the lane
    /// kernels use, so no kernel re-matches the union once per SIMD lane.  Other operands
    /// present their ray (or the disabled one) and four degenerate zero boxes.
    #[inline]
    #[must_use]
    pub fn box_operands(&self) -> (&RayOperand, &[Aabb; 4]) {
        match self {
            BeatOperand::Boxes { ray, boxes } => (ray, boxes),
            _ => (self.ray_operand(), &DISABLED_BOXES),
        }
    }

    /// The ray and triangle of a ray–triangle operand in one match (see
    /// [`BeatOperand::box_operands`]); other operands present a unit right triangle at the
    /// origin.
    #[inline]
    #[must_use]
    pub fn triangle_operands(&self) -> (&RayOperand, &Triangle) {
        match self {
            BeatOperand::Triangle { ray, triangle } => (ray, triangle),
            _ => (self.ray_operand(), &DISABLED_TRIANGLE),
        }
    }

    /// The vector pair and reset flag of a distance operand in one match (see
    /// [`BeatOperand::box_operands`]); ray operands present [`VectorOperand::DISABLED`] and a
    /// clear flag.
    #[inline]
    #[must_use]
    pub fn vector_operands(&self) -> (&VectorOperand, bool) {
        match self {
            BeatOperand::Vector {
                vector,
                reset_accumulator,
            } => (vector, *reset_accumulator),
            _ => (&VectorOperand::DISABLED, false),
        }
    }
}

/// The box table a beat presents when its operand holds none: fixed degenerate zero boxes, so
/// unconditional consumers (the SRFDS ingest stage) observe the same operand on every such beat.
pub(crate) const DISABLED_BOXES: [Aabb; 4] = [Aabb::new(Vec3::ZERO, Vec3::ZERO); 4];

/// The triangle a beat presents when its operand holds none (see [`DISABLED_BOXES`]).
const DISABLED_TRIANGLE: Triangle = Triangle::new(
    Vec3::ZERO,
    Vec3::new(1.0, 0.0, 0.0),
    Vec3::new(0.0, 1.0, 0.0),
);

/// Tag bit marking a ray–box beat as belonging to the **top-level** (TLAS) phase of a two-level
/// scene traversal.
///
/// Two-level schedulers set this bit on the tags of the box beats that test top-level
/// acceleration-structure nodes (the instance hierarchy), leaving bottom-level (BLAS) and flat
/// scene beats untagged; the datapath counts tagged beats in
/// [`BeatMix::tlas_box_beats`](crate::BeatMix::tlas_box_beats) so workload profiles can split
/// traversal cost between the instance phase and the geometry phase.  The bit rides the tag's
/// top position, far above node indices and item numbers, and is otherwise carried through the
/// pipeline unchanged like the rest of the tag.
pub const TLAS_PHASE_TAG: u64 = 1 << 63;

/// One request beat presented at the datapath input.
#[derive(Debug, Clone, PartialEq)]
pub struct RayFlexRequest {
    /// The operation to perform this beat.
    pub opcode: Opcode,
    /// A caller-chosen identifier carried through the pipeline unchanged (models the thread /
    /// transaction id the RT unit uses to match results to rays).
    pub tag: u64,
    /// The operands the opcode selects (read through [`RayFlexRequest::ray_operand`],
    /// [`RayFlexRequest::boxes_operand`], [`RayFlexRequest::triangle_operand`],
    /// [`RayFlexRequest::vector_operand`] and [`RayFlexRequest::reset_accumulator`]).
    pub operand: BeatOperand,
}

impl RayFlexRequest {
    /// The ray operand of this beat, or [`RayOperand::DISABLED`] when the beat carries none (a
    /// distance beat).
    #[inline]
    #[must_use]
    pub fn ray_operand(&self) -> &RayOperand {
        self.operand.ray_operand()
    }

    /// The box-table operand of this beat, or four degenerate zero boxes when the beat carries
    /// none.
    #[inline]
    #[must_use]
    pub fn boxes_operand(&self) -> &[Aabb; 4] {
        self.operand.box_operands().1
    }

    /// The triangle operand of this beat, or a disabled placeholder (unit right triangle at the
    /// origin) when the beat carries none.
    #[inline]
    #[must_use]
    pub fn triangle_operand(&self) -> &Triangle {
        self.operand.triangle_operands().1
    }

    /// The vector operand of this beat, or [`VectorOperand::DISABLED`] when the beat carries
    /// none, so consumers that read the operand unconditionally (the SRFDS ingest stage, say)
    /// see the fixed zero vectors of the specification.
    #[inline]
    #[must_use]
    pub fn vector_operand(&self) -> &VectorOperand {
        self.operand.vector_operands().0
    }

    /// The accumulator-reset flag of this beat (always clear on ray beats).
    #[inline]
    #[must_use]
    pub fn reset_accumulator(&self) -> bool {
        self.operand.vector_operands().1
    }

    /// A ray–box beat: test `ray` against four candidate child boxes.
    #[inline]
    #[must_use]
    pub fn ray_box(tag: u64, ray: &Ray, boxes: &[Aabb; 4]) -> Self {
        Self::ray_box_operand(tag, &RayOperand::from_ray(ray), boxes)
    }

    /// A ray–box beat from a prebuilt operand: the hot-path constructor for schedulers that
    /// cache one [`RayOperand`] per ray and reuse it across every beat of that ray's traversal,
    /// skipping the per-beat [`Ray`] conversion.
    #[inline]
    #[must_use]
    pub fn ray_box_operand(tag: u64, ray: &RayOperand, boxes: &[Aabb; 4]) -> Self {
        RayFlexRequest {
            opcode: Opcode::RayBox,
            tag,
            operand: BeatOperand::Boxes {
                ray: *ray,
                boxes: *boxes,
            },
        }
    }

    /// A ray–triangle beat.
    #[inline]
    #[must_use]
    pub fn ray_triangle(tag: u64, ray: &Ray, triangle: &Triangle) -> Self {
        Self::ray_triangle_operand(tag, &RayOperand::from_ray(ray), triangle)
    }

    /// A ray–triangle beat from a prebuilt operand (see
    /// [`RayFlexRequest::ray_box_operand`]).
    #[inline]
    #[must_use]
    pub fn ray_triangle_operand(tag: u64, ray: &RayOperand, triangle: &Triangle) -> Self {
        RayFlexRequest {
            opcode: Opcode::RayTriangle,
            tag,
            operand: BeatOperand::Triangle {
                ray: *ray,
                triangle: *triangle,
            },
        }
    }

    /// A Euclidean-distance beat over up to sixteen lanes.
    #[inline]
    #[must_use]
    pub fn euclidean(
        tag: u64,
        a: [f32; EUCLIDEAN_LANES],
        b: [f32; EUCLIDEAN_LANES],
        mask: u16,
        reset_accumulator: bool,
    ) -> Self {
        RayFlexRequest {
            opcode: Opcode::Euclidean,
            tag,
            operand: BeatOperand::Vector {
                vector: VectorOperand { a, b, mask },
                reset_accumulator,
            },
        }
    }

    /// A cosine-distance beat over up to eight lanes (packed into the low lanes of the shared
    /// vector operands).
    #[inline]
    #[must_use]
    pub fn cosine(
        tag: u64,
        a: [f32; COSINE_LANES],
        b: [f32; COSINE_LANES],
        mask: u8,
        reset_accumulator: bool,
    ) -> Self {
        let mut full_a = [0.0; EUCLIDEAN_LANES];
        let mut full_b = [0.0; EUCLIDEAN_LANES];
        full_a[..COSINE_LANES].copy_from_slice(&a);
        full_b[..COSINE_LANES].copy_from_slice(&b);
        RayFlexRequest {
            opcode: Opcode::Cosine,
            tag,
            operand: BeatOperand::Vector {
                vector: VectorOperand {
                    a: full_a,
                    b: full_b,
                    mask: u16::from(mask),
                },
                reset_accumulator,
            },
        }
    }
}

/// The result of a ray–box beat: per-box hit flags and entry distances (in input order) plus the
/// four child slots sorted by their order of intersection, as the RDNA3 instruction returns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxResult {
    /// Hit status of each input box, in input order.
    pub hit: [bool; 4],
    /// Entry distance (`tmin`) of each input box, in input order; only meaningful for hits.
    pub t_entry: [f32; 4],
    /// The four child indices sorted by order of intersection (hits first, nearest first).
    /// Stored as `u8` lane numbers so the response stays compact on the wire.
    pub traversal_order: [u8; 4],
}

impl BoxResult {
    /// Iterator over the child indices that actually hit, in traversal (nearest-first) order.
    pub fn hits_in_order(&self) -> impl Iterator<Item = usize> + '_ {
        self.traversal_order
            .iter()
            .map(|&i| i as usize)
            .filter(move |&i| self.hit[i])
    }
}

/// The result of a ray–triangle beat.  The intersection distance is reported as a
/// numerator/denominator pair because the datapath contains no dividers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TriangleResult {
    /// Whether the ray hits the front face of the triangle.
    pub hit: bool,
    /// Numerator of the hit distance.
    pub t_num: f32,
    /// Denominator of the hit distance (the barycentric determinant).
    pub det: f32,
    /// Scaled barycentric coordinate U.
    pub u: f32,
    /// Scaled barycentric coordinate V.
    pub v: f32,
    /// Scaled barycentric coordinate W.
    pub w: f32,
}

impl TriangleResult {
    /// The parametric hit distance `t_num / det` (the division the GPU core performs after the
    /// datapath returns).  NaN when the determinant is zero, which only happens for misses.
    #[must_use]
    pub fn distance(&self) -> f32 {
        self.t_num / self.det
    }
}

/// The result of a Euclidean or cosine beat on the extended datapath.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistanceResult {
    /// Running squared-Euclidean-distance accumulator value after this beat.
    pub euclidean_accumulator: f32,
    /// Echo of the `reset_accumulator` input from eleven cycles ago: this beat completed a
    /// Euclidean vector pair.
    pub euclidean_reset: bool,
    /// Running dot-product accumulator value after this beat (cosine numerator).
    pub angular_dot_product: f32,
    /// Running candidate-norm accumulator value after this beat (cosine denominator, squared).
    pub angular_norm: f32,
    /// Echo of the `reset_accumulator` input from eleven cycles ago: this beat completed a cosine
    /// vector pair.
    pub angular_reset: bool,
}

/// One response beat presented at the datapath output, eleven cycles after the corresponding
/// request.
#[derive(Debug, Clone, PartialEq)]
pub struct RayFlexResponse {
    /// The opcode of the originating request.
    pub opcode: Opcode,
    /// The tag of the originating request.
    pub tag: u64,
    /// Present when the request was a ray–box beat.
    pub box_result: Option<BoxResult>,
    /// Present when the request was a ray–triangle beat.
    pub triangle_result: Option<TriangleResult>,
    /// Present when the request was a Euclidean or cosine beat.
    pub distance_result: Option<DistanceResult>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayflex_geometry::Vec3;

    fn test_ray() -> Ray {
        Ray::new(Vec3::new(0.0, 0.0, -5.0), Vec3::new(0.1, 0.2, 1.0))
    }

    #[test]
    fn ray_operand_mirrors_the_geometry_ray() {
        let ray = test_ray();
        let op = RayOperand::from_ray(&ray);
        assert_eq!(op.origin, [0.0, 0.0, -5.0]);
        assert_eq!(op.dir, [0.1, 0.2, 1.0]);
        assert_eq!(op.inv_dir[2], 1.0);
        assert_eq!(op.k[2], 2, "dominant axis is z");
        assert_eq!(op.shear[2], 1.0);
        assert_eq!(op.t_beg, 0.0);
        assert!(op.t_end.is_infinite());
    }

    #[test]
    fn coherence_keys_group_by_octant_then_locality() {
        let key = |origin, dir| RayOperand::from_ray(&Ray::new(origin, dir)).coherence_key();
        // Octant bits dominate: same origin, mirrored direction → different top bits.
        let fwd = key(Vec3::new(1.0, 2.0, 3.0), Vec3::new(0.3, 0.4, 0.5));
        let back = key(Vec3::new(1.0, 2.0, 3.0), Vec3::new(-0.3, 0.4, 0.5));
        assert_eq!(fwd >> 30, 0b000);
        assert_eq!(back >> 30, 0b001);
        assert!(back > fwd, "negative-x octant sorts after positive");
        // Within an octant, nearby origins share high Morton bits more than distant ones.
        let near = key(Vec3::new(1.0, 2.0, 3.0001), Vec3::new(0.3, 0.4, 0.5));
        let far = key(Vec3::new(-900.0, 800.0, -700.0), Vec3::new(0.3, 0.4, 0.5));
        assert_eq!(
            near, fwd,
            "sub-resolution origin jitter maps to the same key"
        );
        assert_ne!(far, fwd);
        assert!(fwd < 1 << 33, "key fits octant(3) + morton(30) bits");
    }

    #[test]
    fn request_constructors_select_the_opcode() {
        let ray = test_ray();
        let boxes = [Aabb::new(Vec3::ZERO, Vec3::ONE); 4];
        let tri = Triangle::new(
            Vec3::ZERO,
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
        );
        assert_eq!(
            RayFlexRequest::ray_box(1, &ray, &boxes).opcode,
            Opcode::RayBox
        );
        assert_eq!(
            RayFlexRequest::ray_triangle(2, &ray, &tri).opcode,
            Opcode::RayTriangle
        );
        let e = RayFlexRequest::euclidean(3, [1.0; 16], [2.0; 16], u16::MAX, true);
        assert_eq!(e.opcode, Opcode::Euclidean);
        assert!(e.reset_accumulator());
        assert_eq!(
            e.ray_operand(),
            &RayOperand::DISABLED,
            "distance beats carry no ray"
        );
        assert_eq!(e.boxes_operand(), &DISABLED_BOXES);
        let c = RayFlexRequest::cosine(4, [1.0; 8], [2.0; 8], u8::MAX, false);
        assert_eq!(c.opcode, Opcode::Cosine);
        assert_eq!(c.vector_operand().mask, 0x00FF);
        assert_eq!(c.vector_operand().a[8..], [0.0; 8]);
        assert!(!c.reset_accumulator());
        assert_eq!(
            RayFlexRequest::ray_box(5, &ray, &boxes).vector_operand(),
            &VectorOperand::DISABLED,
            "ray beats carry no vector payload"
        );
        let t = RayFlexRequest::ray_triangle(6, &ray, &tri);
        assert!(!t.reset_accumulator());
        assert_eq!(t.ray_operand(), &RayOperand::from_ray(&ray));
        assert_eq!(t.boxes_operand(), &DISABLED_BOXES);
    }

    #[test]
    fn box_result_iterates_hits_in_traversal_order() {
        let r = BoxResult {
            hit: [true, false, true, false],
            t_entry: [5.0, 0.0, 2.0, 0.0],
            traversal_order: [2, 0, 1, 3],
        };
        assert_eq!(r.hits_in_order().collect::<Vec<_>>(), vec![2, 0]);
    }

    #[test]
    fn triangle_result_distance_is_the_quotient() {
        let r = TriangleResult {
            hit: true,
            t_num: 12.0,
            det: 4.0,
            u: 1.0,
            v: 1.0,
            w: 2.0,
        };
        assert_eq!(r.distance(), 3.0);
    }
}
