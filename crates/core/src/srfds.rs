//! The Shared RayFlex Data Structure (paper §III-E).

use rayflex_softfloat::RecF32;

use crate::io::{BoxResult, DistanceResult, TriangleResult, EUCLIDEAN_LANES};
use crate::{Opcode, RayFlexRequest, RayFlexResponse};

/// The single wide data structure carried through every pipeline stage register.
///
/// Rather than defining a bespoke register bundle per stage, RayFlex defines one structure
/// containing *every* field any stage needs ("defined once, instantiated everywhere") and relies
/// on the synthesiser's dead-node elimination to drop the bits that are not live at a given stage
/// (the [`crate::liveness`] module models which bits those are).  Each stage's logic copies its
/// input structure to its output and overwrites only the fields it produces — exactly how the
/// stage functions in [`crate::stages`] are written.
///
/// All floating-point fields hold values in the internal 33-bit recoded format; the first and
/// last pipeline stages perform the conversion from and to IEEE binary32.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedRayFlexData {
    /// The operation this beat performs.
    pub opcode: Opcode,
    /// The caller-chosen identifier carried through unchanged.
    pub tag: u64,

    // --- Ray operand -------------------------------------------------------------------------
    /// Ray origin.
    pub ray_origin: [RecF32; 3],
    /// Pre-computed element-wise inverse of the ray direction.
    pub ray_inv_dir: [RecF32; 3],
    /// Start of the ray's parametric extent.
    pub ray_t_beg: RecF32,
    /// End of the ray's parametric extent.
    pub ray_t_end: RecF32,
    /// Axis renaming indices `(kx, ky, kz)` of the watertight test.
    pub ray_k: [u8; 3],
    /// Shear constants `(Sx, Sy, Sz)` of the watertight test.
    pub ray_shear: [RecF32; 3],

    // --- Ray-box operands and intermediates ----------------------------------------------------
    /// Minimum corners of the four candidate boxes; overwritten with the ray-origin-translated
    /// corners at stage 2.
    pub box_lo: [[RecF32; 3]; 4],
    /// Maximum corners of the four candidate boxes; overwritten at stage 2 like `box_lo`.
    pub box_hi: [[RecF32; 3]; 4],
    /// Stage-3 products `box_lo * inv_dir` (per box, per axis).
    pub box_t_lo: [[RecF32; 3]; 4],
    /// Stage-3 products `box_hi * inv_dir` (per box, per axis).
    pub box_t_hi: [[RecF32; 3]; 4],
    /// Stage-4 interval entry distances per box.
    pub box_t_entry: [RecF32; 4],
    /// Stage-4 interval exit distances per box.
    pub box_t_exit: [RecF32; 4],
    /// Stage-4 hit flags per box.
    pub box_hit: [bool; 4],
    /// Stage-10 traversal order (child indices sorted by order of intersection).
    pub box_order: [u8; 4],

    // --- Ray-triangle operands and intermediates -----------------------------------------------
    /// Triangle vertices; overwritten with the ray-origin-translated vertices at stage 2.
    pub tri_verts: [[RecF32; 3]; 3],
    /// Stage-3 shear products per vertex: `[Sx*Vkz, Sy*Vkz, Sz*Vkz]`.
    pub tri_shear_prod: [[RecF32; 3]; 3],
    /// Stage-4 sheared vertex coordinates `(x, y)` per vertex.
    pub tri_sheared_xy: [[RecF32; 2]; 3],
    /// Stage-5 cross products `[CxBy, CyBx, AxCy, AyCx, BxAy, ByAx]`.
    pub tri_products: [RecF32; 6],
    /// Stage-6 scaled barycentric coordinates `(U, V, W)`.
    pub tri_uvw: [RecF32; 3],
    /// Stage-7 distance products `[U*Az, V*Bz, W*Cz]`.
    pub tri_dist_prod: [RecF32; 3],
    /// Stage-8 partial determinant `U + V`.
    pub tri_det_partial: RecF32,
    /// Stage-8 partial distance numerator `U*Az + V*Bz`.
    pub tri_t_partial: RecF32,
    /// Stage-9 determinant `U + V + W`.
    pub tri_det: RecF32,
    /// Stage-9 distance numerator `U*Az + V*Bz + W*Cz`.
    pub tri_t_num: RecF32,
    /// Stage-10 hit flag.
    pub tri_hit: bool,

    // --- Distance-operation operands and intermediates (extended datapath) ---------------------
    /// First (query) vector operand, sixteen lanes.
    pub vec_a: [RecF32; EUCLIDEAN_LANES],
    /// Second (candidate) vector operand, sixteen lanes.
    pub vec_b: [RecF32; EUCLIDEAN_LANES],
    /// Lane-validity mask.
    pub vec_mask: u16,
    /// Accumulator-reset request carried to the output as `euclidean_reset` / `angular_reset`.
    pub reset_accumulator: bool,
    /// Euclidean working vector: differences at stage 2, squares at stage 3, then the reduction
    /// tree packs its partial sums into the low lanes (8 at stage 4, 4 at stage 6, 2 at stage 8,
    /// 1 at stage 9).
    pub euclid_work: [RecF32; EUCLIDEAN_LANES],
    /// Cosine dot-product working vector (8 lanes, reduced in place like `euclid_work`).
    pub cos_dot_work: [RecF32; 8],
    /// Cosine candidate-norm working vector (8 lanes, reduced in place).
    pub cos_norm_work: [RecF32; 8],
    /// Stage-10 Euclidean accumulator output.
    pub euclidean_accumulator: RecF32,
    /// Stage-9 cosine dot-product accumulator output.
    pub angular_dot: RecF32,
    /// Stage-9 cosine norm accumulator output.
    pub angular_norm: RecF32,
}

impl Default for SharedRayFlexData {
    /// An all-zero ray-box beat: the reset state of the pipeline registers, and the initial
    /// contents of the batched executor's scratch buffer.
    fn default() -> Self {
        SharedRayFlexData {
            opcode: Opcode::RayBox,
            tag: 0,
            ray_origin: [RecF32::ZERO; 3],
            ray_inv_dir: [RecF32::ZERO; 3],
            ray_t_beg: RecF32::ZERO,
            ray_t_end: RecF32::ZERO,
            ray_k: [0, 1, 2],
            ray_shear: [RecF32::ZERO; 3],
            box_lo: [[RecF32::ZERO; 3]; 4],
            box_hi: [[RecF32::ZERO; 3]; 4],
            box_t_lo: [[RecF32::ZERO; 3]; 4],
            box_t_hi: [[RecF32::ZERO; 3]; 4],
            box_t_entry: [RecF32::ZERO; 4],
            box_t_exit: [RecF32::ZERO; 4],
            box_hit: [false; 4],
            box_order: [0, 1, 2, 3],
            tri_verts: [[RecF32::ZERO; 3]; 3],
            tri_shear_prod: [[RecF32::ZERO; 3]; 3],
            tri_sheared_xy: [[RecF32::ZERO; 2]; 3],
            tri_products: [RecF32::ZERO; 6],
            tri_uvw: [RecF32::ZERO; 3],
            tri_dist_prod: [RecF32::ZERO; 3],
            tri_det_partial: RecF32::ZERO,
            tri_t_partial: RecF32::ZERO,
            tri_det: RecF32::ZERO,
            tri_t_num: RecF32::ZERO,
            tri_hit: false,
            vec_a: [RecF32::ZERO; EUCLIDEAN_LANES],
            vec_b: [RecF32::ZERO; EUCLIDEAN_LANES],
            vec_mask: 0,
            reset_accumulator: false,
            euclid_work: [RecF32::ZERO; EUCLIDEAN_LANES],
            cos_dot_work: [RecF32::ZERO; 8],
            cos_norm_work: [RecF32::ZERO; 8],
            euclidean_accumulator: RecF32::ZERO,
            angular_dot: RecF32::ZERO,
            angular_norm: RecF32::ZERO,
        }
    }
}

impl SharedRayFlexData {
    /// The stage-1 format conversion: builds the internal structure from an IO request, converting
    /// every floating-point operand to the recoded format.
    #[must_use]
    pub fn from_request(request: &RayFlexRequest) -> Self {
        let rec3 = |v: [f32; 3]| v.map(RecF32::from_f32);
        let ray = request.ray_operand();
        let boxes_lo = core::array::from_fn(|i| rec3(request.boxes_operand()[i].min.to_array()));
        let boxes_hi = core::array::from_fn(|i| rec3(request.boxes_operand()[i].max.to_array()));
        SharedRayFlexData {
            opcode: request.opcode,
            tag: request.tag,
            ray_origin: rec3(ray.origin),
            ray_inv_dir: rec3(ray.inv_dir),
            ray_t_beg: RecF32::from_f32(ray.t_beg),
            ray_t_end: RecF32::from_f32(ray.t_end),
            ray_k: ray.k,
            ray_shear: rec3(ray.shear),
            box_lo: boxes_lo,
            box_hi: boxes_hi,
            box_t_lo: [[RecF32::ZERO; 3]; 4],
            box_t_hi: [[RecF32::ZERO; 3]; 4],
            box_t_entry: [RecF32::ZERO; 4],
            box_t_exit: [RecF32::ZERO; 4],
            box_hit: [false; 4],
            box_order: [0, 1, 2, 3],
            tri_verts: [
                rec3(request.triangle_operand().v0.to_array()),
                rec3(request.triangle_operand().v1.to_array()),
                rec3(request.triangle_operand().v2.to_array()),
            ],
            tri_shear_prod: [[RecF32::ZERO; 3]; 3],
            tri_sheared_xy: [[RecF32::ZERO; 2]; 3],
            tri_products: [RecF32::ZERO; 6],
            tri_uvw: [RecF32::ZERO; 3],
            tri_dist_prod: [RecF32::ZERO; 3],
            tri_det_partial: RecF32::ZERO,
            tri_t_partial: RecF32::ZERO,
            tri_det: RecF32::ZERO,
            tri_t_num: RecF32::ZERO,
            tri_hit: false,
            vec_a: request.vector_operand().a.map(RecF32::from_f32),
            vec_b: request.vector_operand().b.map(RecF32::from_f32),
            vec_mask: request.vector_operand().mask,
            reset_accumulator: request.reset_accumulator(),
            euclid_work: [RecF32::ZERO; EUCLIDEAN_LANES],
            cos_dot_work: [RecF32::ZERO; 8],
            cos_norm_work: [RecF32::ZERO; 8],
            euclidean_accumulator: RecF32::ZERO,
            angular_dot: RecF32::ZERO,
            angular_norm: RecF32::ZERO,
        }
    }

    /// The stage-11 format conversion: extracts the IO response for this beat's opcode, converting
    /// the recoded results back to IEEE binary32.
    #[must_use]
    pub fn to_response(&self) -> RayFlexResponse {
        let mut response = RayFlexResponse {
            opcode: self.opcode,
            tag: self.tag,
            box_result: None,
            triangle_result: None,
            distance_result: None,
        };
        match self.opcode {
            Opcode::RayBox => {
                response.box_result = Some(BoxResult {
                    hit: self.box_hit,
                    t_entry: self.box_t_entry.map(RecF32::to_f32),
                    traversal_order: self.box_order,
                });
            }
            Opcode::RayTriangle => {
                response.triangle_result = Some(TriangleResult {
                    hit: self.tri_hit,
                    t_num: self.tri_t_num.to_f32(),
                    det: self.tri_det.to_f32(),
                    u: self.tri_uvw[0].to_f32(),
                    v: self.tri_uvw[1].to_f32(),
                    w: self.tri_uvw[2].to_f32(),
                });
            }
            Opcode::Euclidean | Opcode::Cosine => {
                response.distance_result = Some(DistanceResult {
                    euclidean_accumulator: self.euclidean_accumulator.to_f32(),
                    euclidean_reset: self.reset_accumulator && self.opcode == Opcode::Euclidean,
                    angular_dot_product: self.angular_dot.to_f32(),
                    angular_norm: self.angular_norm.to_f32(),
                    angular_reset: self.reset_accumulator && self.opcode == Opcode::Cosine,
                });
            }
        }
        response
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayflex_geometry::{Aabb, Ray, Triangle, Vec3};

    #[test]
    fn request_roundtrips_through_the_conversion_stages() {
        let ray = Ray::new(Vec3::new(1.0, 2.0, 3.0), Vec3::new(0.0, 0.0, -1.0));
        let boxes = [Aabb::new(Vec3::splat(-2.0), Vec3::splat(2.0)); 4];
        let request = RayFlexRequest::ray_box(42, &ray, &boxes);
        let data = SharedRayFlexData::from_request(&request);
        assert_eq!(data.opcode, Opcode::RayBox);
        assert_eq!(data.tag, 42);
        assert_eq!(data.ray_origin[1].to_f32(), 2.0);
        assert_eq!(data.ray_inv_dir[2].to_f32(), -1.0);
        assert_eq!(data.box_lo[3][0].to_f32(), -2.0);
        let response = data.to_response();
        assert_eq!(response.tag, 42);
        assert!(response.box_result.is_some());
        assert!(response.triangle_result.is_none());
    }

    #[test]
    fn triangle_requests_produce_triangle_responses() {
        let ray = Ray::new(Vec3::ZERO, Vec3::new(0.0, 0.0, 1.0));
        let tri = Triangle::new(
            Vec3::new(-1.0, -1.0, 3.0),
            Vec3::new(1.0, -1.0, 3.0),
            Vec3::new(0.0, 1.0, 3.0),
        );
        let data = SharedRayFlexData::from_request(&RayFlexRequest::ray_triangle(7, &ray, &tri));
        assert_eq!(data.tri_verts[2][1].to_f32(), 1.0);
        let response = data.to_response();
        assert!(response.triangle_result.is_some());
        assert!(response.box_result.is_none());
        assert!(response.distance_result.is_none());
    }

    #[test]
    fn distance_requests_carry_the_reset_flag_to_the_right_output() {
        let request = RayFlexRequest::euclidean(1, [1.0; 16], [0.0; 16], u16::MAX, true);
        let data = SharedRayFlexData::from_request(&request);
        let response = data.to_response();
        let result = response.distance_result.expect("distance result");
        assert!(result.euclidean_reset);
        assert!(!result.angular_reset);

        let request = RayFlexRequest::cosine(2, [1.0; 8], [0.5; 8], u8::MAX, true);
        let response = SharedRayFlexData::from_request(&request).to_response();
        let result = response.distance_result.expect("distance result");
        assert!(result.angular_reset);
        assert!(!result.euclidean_reset);
    }
}
