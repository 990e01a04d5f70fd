//! The batched fast model: native-`f32` beat execution, bit-identical to the recoded emulation.
//!
//! The recoded-format stage emulation ([`crate::stages`]) is the register-accurate view of the
//! datapath, but it pays for hardware faithfulness with software-emulated floating point — around
//! a microsecond per beat, which makes workload-level studies (millions of beats) simulator-bound
//! rather than hardware-bound.  This module is the throughput view: it computes each beat with
//! the *golden* native-`f32` models of `rayflex-geometry`, which are written with the same
//! operation structure and per-step rounding as the hardware stages and are proven bit-exact
//! against them by the §IV-A validation suite and the workspace property tests
//! (`crates/softfloat/tests/proptest_ieee.rs` pins every recoded operation to native `f32`;
//! `crates/core/tests/proptest_batch.rs` pins this module to [`crate::RayFlexDatapath::execute`]
//! response-for-response).
//!
//! The only representational difference between the two paths is the NaN payload: the recoded
//! format reports every NaN as the canonical quiet NaN `0x7FC0_0000`, while native x86 arithmetic
//! produces implementation-defined payloads.  Every reported field is therefore passed through
//! [`canonicalize_nan`] so degenerate beats (coplanar rays, masked-off infinite lanes) match the
//! emulated response bit-for-bit too.

use core::ops::Range;

use rayflex_geometry::golden::distance::{COSINE_LANES, EUCLIDEAN_LANES};
use rayflex_geometry::{golden, Aabb, Axis, Ray, ShearConstants, Vec3};
use rayflex_softfloat::RecF32;

use crate::io::{BoxResult, DistanceResult, RayOperand, TriangleResult, DISABLED_BOXES};
use crate::{AccumulatorState, BeatSource, Opcode, RayFlexResponse};

/// The canonical quiet-NaN bit pattern the recoded format reports for every NaN.
const CANONICAL_NAN: u32 = 0x7FC0_0000;

/// Widest lane count the batched kernels accept.  Sixteen models a 512-bit-class vector unit
/// (or a dual-issue 256-bit one): the SoA gather buffers stay within four cache lines per
/// component, and every kernel tier below it (eight, four, scalar) still exists, so narrower
/// devices and short runs degrade gracefully through the same code path.
pub const MAX_SIMD_LANES: usize = 16;

/// Narrowest lane count at which the grouped kernels engage; below this the per-beat scalar fast
/// path runs unchanged.
pub(crate) const MIN_SIMD_LANES: usize = 4;

/// Clamps a requested lane count to the supported range: zero (a degenerate policy) resolves to
/// one, and anything above [`MAX_SIMD_LANES`] saturates.  Under the `force-scalar` feature every
/// request resolves to one, so the lane kernels can never engage — the CI configuration that
/// keeps the non-SIMD path honest.
#[must_use]
pub fn clamp_simd_lanes(lanes: usize) -> usize {
    if cfg!(feature = "force-scalar") {
        1
    } else {
        lanes.clamp(1, MAX_SIMD_LANES)
    }
}

/// Branchless twin of [`golden::slab::hw_min`]: one unordered-aware comparison feeding a select,
/// which the autovectoriser lowers to `cmpps`/`blendvps` instead of the reference's branch chain.
/// Returns bit-identical results (including NaN payload propagation) for every operand class —
/// pinned against the reference in the tests below.
#[inline]
fn sel_min(a: f32, b: f32) -> f32 {
    if a.is_nan() || (!b.is_nan() && a < b) {
        a
    } else {
        b
    }
}

/// Branchless twin of [`golden::slab::hw_max`] with the same NaN-propagating select semantics.
#[inline]
fn sel_max(a: f32, b: f32) -> f32 {
    if a.is_nan() || (!b.is_nan() && a > b) {
        a
    } else {
        b
    }
}

/// Maps any NaN to the recoded format's canonical quiet NaN; other values pass through
/// untouched (including signed zeros).
#[inline]
fn canonicalize_nan(value: f32) -> f32 {
    if value.is_nan() {
        f32::from_bits(CANONICAL_NAN)
    } else {
        value
    }
}

/// Reconstructs a geometry ray from the IO operand without recomputing any field.
fn ray_from_operand(operand: &RayOperand) -> Ray {
    Ray {
        origin: Vec3::from_array(operand.origin),
        dir: Vec3::from_array(operand.dir),
        inv_dir: Vec3::from_array(operand.inv_dir),
        t_beg: operand.t_beg,
        t_end: operand.t_end,
        shear: ShearConstants {
            kx: Axis::from_index(operand.k[0] as usize),
            ky: Axis::from_index(operand.k[1] as usize),
            kz: Axis::from_index(operand.k[2] as usize),
            sx: operand.shear[0],
            sy: operand.shear[1],
            sz: operand.shear[2],
        },
    }
}

/// The response of ray–box beat `beat` of `source` from its four slab results, in input order.
fn box_response<S: BeatSource + ?Sized>(
    source: &S,
    beat: usize,
    hits: &[golden::slab::BoxHit; 4],
) -> RayFlexResponse {
    RayFlexResponse {
        opcode: source.opcode(beat),
        tag: source.tag(beat),
        box_result: Some(BoxResult {
            hit: core::array::from_fn(|slot| hits[slot].hit),
            t_entry: core::array::from_fn(|slot| canonicalize_nan(hits[slot].t_entry)),
            traversal_order: sort_boxes(hits),
        }),
        triangle_result: None,
        distance_result: None,
    }
}

/// Select-based twin of [`golden::slab::sort_boxes`]: the same five-comparator network over the
/// same keys (a hit's entry distance, `+∞` for a miss), but each compare-exchange moves keys and
/// child indices through selects on one comparison instead of a branch around a swap, so a box
/// response sorts without mispredicting on the order its children were hit in.  Bit-identical
/// orders for every key, ties and signed zeros included — pinned against the reference in the
/// tests below.
#[inline]
fn sort_boxes(hits: &[golden::slab::BoxHit; 4]) -> [u8; 4] {
    let mut keys: [f32; 4] = core::array::from_fn(|slot| hits[slot].sort_key());
    let mut order = [0u8, 1, 2, 3];
    let mut exchange = |i: usize, j: usize| {
        // The smaller key moves to position `i`; equal keys stay where they are.
        let swap = keys[j] < keys[i];
        let (key_i, key_j) = (keys[i], keys[j]);
        let (child_i, child_j) = (order[i], order[j]);
        keys[i] = if swap { key_j } else { key_i };
        keys[j] = if swap { key_i } else { key_j };
        order[i] = if swap { child_j } else { child_i };
        order[j] = if swap { child_i } else { child_j };
    };
    exchange(0, 1);
    exchange(2, 3);
    exchange(0, 2);
    exchange(1, 3);
    exchange(1, 2);
    order
}

/// The components of `v` in the ray's renamed axis order `k = (kx, ky, kz)`, gathered by index
/// (the lane kernels' form of [`Vec3::axis`] over [`Axis::from_index`]).
#[inline]
fn renamed_axes(v: Vec3, k: [u8; 3]) -> [f32; 3] {
    let v = v.to_array();
    k.map(|axis| v[usize::from(axis)])
}

/// The scalar ray–box beat: the golden slab test of each of the four boxes, in input order.
/// The per-beat box path of the scalar dispatch (`simd_lanes < 4`).
pub(crate) fn box_response_scalar<S: BeatSource + ?Sized>(
    source: &S,
    beat: usize,
) -> RayFlexResponse {
    let (ray, boxes) = source.box_operands(beat);
    let ray = ray_from_operand(ray);
    let hits: [golden::slab::BoxHit; 4] =
        core::array::from_fn(|slot| golden::slab::ray_box(&ray, &boxes[slot]));
    box_response(source, beat, &hits)
}

/// The scalar ray–triangle beat, shared by the scalar dispatch and the lane-kernel remainder
/// path so both produce the same response object field-for-field.
pub(crate) fn triangle_response_scalar<S: BeatSource + ?Sized>(
    source: &S,
    beat: usize,
) -> RayFlexResponse {
    let (ray, triangle) = source.triangle_operands(beat);
    let hit = golden::watertight::ray_triangle(&ray_from_operand(ray), triangle);
    RayFlexResponse {
        opcode: source.opcode(beat),
        tag: source.tag(beat),
        box_result: None,
        triangle_result: Some(TriangleResult {
            hit: hit.hit,
            t_num: canonicalize_nan(hit.t_num),
            det: canonicalize_nan(hit.det),
            u: canonicalize_nan(hit.u),
            v: canonicalize_nan(hit.v),
            w: canonicalize_nan(hit.w),
        }),
        distance_result: None,
    }
}

/// Lane-batched twin of [`golden::distance::euclidean_partial`]: the sixteen lanes are taken
/// as four quartets, every lane subtracts and a select zeroes the masked ones, so each quartet's
/// subtract/select/square is one vector operation and the reduction tree pairs lanes in
/// registers.  Bit-identical to the reference by construction: a masked lane contributes
/// `+0 * +0` either way, and the pairwise tree is the reference's, lane for lane (pinned
/// against the emulated stages, special values and random masks included, by
/// `crates/core/tests/proptest_batch.rs`).
#[inline]
fn euclidean_partial_lanes(
    a: &[f32; EUCLIDEAN_LANES],
    b: &[f32; EUCLIDEAN_LANES],
    mask: u16,
) -> f32 {
    let (a, b) = (a.as_chunks::<4>().0, b.as_chunks::<4>().0);
    let squares: [[f32; 4]; 4] = core::array::from_fn(|quad| {
        let bits = mask >> (4 * quad);
        let diff: [f32; 4] = core::array::from_fn(|lane| a[quad][lane] - b[quad][lane]);
        core::array::from_fn(|lane| {
            let diff = if bits & (1 << lane) != 0 {
                diff[lane]
            } else {
                0.0
            };
            diff * diff
        })
    });
    let s8: [f32; 8] = core::array::from_fn(|i| {
        let quad = &squares[i / 2];
        quad[2 * (i % 2)] + quad[2 * (i % 2) + 1]
    });
    let s4: [f32; 4] = core::array::from_fn(|i| s8[2 * i] + s8[2 * i + 1]);
    let s2: [f32; 2] = core::array::from_fn(|i| s4[2 * i] + s4[2 * i + 1]);
    s2[0] + s2[1]
}

/// Executes a run of adjacent same-opcode distance beats (all Euclidean or all cosine),
/// chaining the opcode's accumulator registers through the run exactly as the emulated path
/// would, and appends one response per beat.
///
/// Each beat's partial sum is the golden reduction ([`golden::distance::euclidean_partial`] /
/// [`golden::distance::cosine_partial`]), so the per-beat arithmetic and its order are those of
/// datapath stages 2–9.  The stage-10 (Euclidean) or stage-9 (cosine) accumulation runs in
/// native `f32`, read from the recoded registers once at the start of the run and written back
/// once at its end.  That is bit-identical to a recoded round trip per beat: the conversion is
/// lossless for every non-NaN value and recoded addition matches native addition bit-for-bit
/// (`proptest_ieee`).  A NaN accumulator stays NaN under either order, every reported field is
/// passed through [`canonicalize_nan`], and the recoded write-back canonicalises NaN, so NaN
/// payloads never show.  A reset beat reports its updated value and clears the register to
/// `+0`, which is [`RecF32::ZERO`].
pub(crate) fn execute_fast_distance_run<S: BeatSource + ?Sized>(
    source: &S,
    run: Range<usize>,
    acc: &mut AccumulatorState,
    responses: &mut Vec<RayFlexResponse>,
) {
    if run.is_empty() {
        return;
    }
    let opcode = source.opcode(run.start);
    debug_assert!(run.clone().all(|beat| source.opcode(beat) == opcode));
    match opcode {
        Opcode::Euclidean => {
            let mut running = acc.euclidean.to_f32();
            responses.extend(run.map(|beat| {
                let (vector, reset) = source.vector_operands(beat);
                // A full-width beat (every beat of a train but its tail) folds the mask away.
                let partial = match vector.mask {
                    u16::MAX => euclidean_partial_lanes(&vector.a, &vector.b, u16::MAX),
                    mask => euclidean_partial_lanes(&vector.a, &vector.b, mask),
                };
                let updated = running + partial;
                running = if reset { 0.0 } else { updated };
                RayFlexResponse {
                    opcode,
                    tag: source.tag(beat),
                    box_result: None,
                    triangle_result: None,
                    distance_result: Some(DistanceResult {
                        euclidean_accumulator: canonicalize_nan(updated),
                        euclidean_reset: reset,
                        angular_dot_product: 0.0,
                        angular_norm: 0.0,
                        angular_reset: false,
                    }),
                }
            }));
            acc.euclidean = RecF32::from_f32(running);
        }
        Opcode::Cosine => {
            let mut dot = acc.angular_dot.to_f32();
            let mut norm = acc.angular_norm.to_f32();
            responses.extend(run.map(|beat| {
                let (vector, reset) = source.vector_operands(beat);
                let a: [f32; COSINE_LANES] = core::array::from_fn(|lane| vector.a[lane]);
                let b: [f32; COSINE_LANES] = core::array::from_fn(|lane| vector.b[lane]);
                let partial = golden::distance::cosine_partial(&a, &b, (vector.mask & 0xFF) as u8);
                let updated_dot = dot + partial.dot;
                let updated_norm = norm + partial.norm_sq;
                (dot, norm) = if reset {
                    (0.0, 0.0)
                } else {
                    (updated_dot, updated_norm)
                };
                RayFlexResponse {
                    opcode,
                    tag: source.tag(beat),
                    box_result: None,
                    triangle_result: None,
                    distance_result: Some(DistanceResult {
                        euclidean_accumulator: 0.0,
                        euclidean_reset: false,
                        angular_dot_product: canonicalize_nan(updated_dot),
                        angular_norm: canonicalize_nan(updated_norm),
                        angular_reset: reset,
                    }),
                }
            }));
            acc.angular_dot = RecF32::from_f32(dot);
            acc.angular_norm = RecF32::from_f32(norm);
        }
        Opcode::RayBox | Opcode::RayTriangle => {
            unreachable!("distance runs carry only Euclidean or cosine beats")
        }
    }
}

/// `L`-lane ray–box kernel over the `L / 4` adjacent beats from `first` on (one beat at
/// `L = 4`): lanes `4·b .. 4·b + 3` carry beat `first + b`'s four AABBs, transposed into
/// component lanes against its own ray, so one pass over the slab stages serves every box of
/// every beat in the group.
///
/// Bit-identity to [`box_response_scalar`] holds by construction: each lane performs exactly
/// the operations of [`golden::slab::ray_box`] in the same order — the transpose only regroups
/// *independent* computations, never reassociates within one — [`sel_min`]/[`sel_max`] are
/// operand-for-operand selects matching the reference comparators, and each beat's traversal
/// order is sorted from its own four lanes.
pub(crate) fn execute_fast_box_lanes_group<const L: usize, S: BeatSource + ?Sized>(
    source: &S,
    first: usize,
    responses: &mut Vec<RayFlexResponse>,
) {
    let beats = L / 4;
    debug_assert!((1..=4).contains(&beats) && L.is_multiple_of(4));
    // Resolve each beat's operands once per beat, not once per lane.
    let mut rays = [&RayOperand::DISABLED; 4];
    let mut tables: [&[Aabb; 4]; 4] = [&DISABLED_BOXES; 4];
    for beat in 0..beats {
        (rays[beat], tables[beat]) = source.box_operands(first + beat);
    }
    let ray = |l: usize| rays[l / 4];
    let aabb = |l: usize| &tables[l / 4][l % 4];

    // Transpose: each lane's box component against its own ray's origin/extent lanes.
    let min_x: [f32; L] = core::array::from_fn(|l| aabb(l).min.x);
    let min_y: [f32; L] = core::array::from_fn(|l| aabb(l).min.y);
    let min_z: [f32; L] = core::array::from_fn(|l| aabb(l).min.z);
    let max_x: [f32; L] = core::array::from_fn(|l| aabb(l).max.x);
    let max_y: [f32; L] = core::array::from_fn(|l| aabb(l).max.y);
    let max_z: [f32; L] = core::array::from_fn(|l| aabb(l).max.z);
    let org_x: [f32; L] = core::array::from_fn(|l| ray(l).origin[0]);
    let org_y: [f32; L] = core::array::from_fn(|l| ray(l).origin[1]);
    let org_z: [f32; L] = core::array::from_fn(|l| ray(l).origin[2]);
    let inv_x: [f32; L] = core::array::from_fn(|l| ray(l).inv_dir[0]);
    let inv_y: [f32; L] = core::array::from_fn(|l| ray(l).inv_dir[1]);
    let inv_z: [f32; L] = core::array::from_fn(|l| ray(l).inv_dir[2]);
    let t_beg: [f32; L] = core::array::from_fn(|l| ray(l).t_beg);
    let t_end: [f32; L] = core::array::from_fn(|l| ray(l).t_end);

    // Stages 2 and 3 — translate, then scale by the inverse direction.
    let t_lo_x: [f32; L] = core::array::from_fn(|l| (min_x[l] - org_x[l]) * inv_x[l]);
    let t_lo_y: [f32; L] = core::array::from_fn(|l| (min_y[l] - org_y[l]) * inv_y[l]);
    let t_lo_z: [f32; L] = core::array::from_fn(|l| (min_z[l] - org_z[l]) * inv_z[l]);
    let t_hi_x: [f32; L] = core::array::from_fn(|l| (max_x[l] - org_x[l]) * inv_x[l]);
    let t_hi_y: [f32; L] = core::array::from_fn(|l| (max_y[l] - org_y[l]) * inv_y[l]);
    let t_hi_z: [f32; L] = core::array::from_fn(|l| (max_z[l] - org_z[l]) * inv_z[l]);

    // Stage 4 — per-axis near/far selection and interval intersection with the ray extent.
    let near_x: [f32; L] = core::array::from_fn(|l| sel_min(t_lo_x[l], t_hi_x[l]));
    let near_y: [f32; L] = core::array::from_fn(|l| sel_min(t_lo_y[l], t_hi_y[l]));
    let near_z: [f32; L] = core::array::from_fn(|l| sel_min(t_lo_z[l], t_hi_z[l]));
    let far_x: [f32; L] = core::array::from_fn(|l| sel_max(t_lo_x[l], t_hi_x[l]));
    let far_y: [f32; L] = core::array::from_fn(|l| sel_max(t_lo_y[l], t_hi_y[l]));
    let far_z: [f32; L] = core::array::from_fn(|l| sel_max(t_lo_z[l], t_hi_z[l]));

    let t_entry: [f32; L] = core::array::from_fn(|l| {
        sel_max(sel_max(near_x[l], near_y[l]), sel_max(near_z[l], t_beg[l]))
    });
    let t_exit: [f32; L] =
        core::array::from_fn(|l| sel_min(sel_min(far_x[l], far_y[l]), sel_min(far_z[l], t_end[l])));

    for beat in 0..beats {
        let hits: [golden::slab::BoxHit; 4] = core::array::from_fn(|slot| {
            let l = beat * 4 + slot;
            golden::slab::BoxHit {
                hit: t_entry[l] <= t_exit[l],
                t_entry: t_entry[l],
                t_exit: t_exit[l],
            }
        });
        responses.push(box_response(source, first + beat, &hits));
    }
}

/// Lane-batched ray–triangle kernel over the `L` adjacent beats from `first` on.  The per-ray
/// vertex translation and axis renaming are gathered scalar, by index (they need per-lane
/// dynamic indexing), after which every watertight stage (Fig. 4b steps 4–9) runs elementwise
/// over `[f32; L]` arrays.
///
/// Each lane performs exactly the operations of [`golden::watertight::ray_triangle`] in the same
/// order, so the results are bit-identical to the scalar path for every lane independently.
fn triangle_lanes<const L: usize, S: BeatSource + ?Sized>(
    source: &S,
    first: usize,
    responses: &mut Vec<RayFlexResponse>,
) {
    // Gather — per-lane translate (stage 2) and axis selection into SoA lanes.
    let mut a_kx = [0.0f32; L];
    let mut a_ky = [0.0f32; L];
    let mut a_kz = [0.0f32; L];
    let mut b_kx = [0.0f32; L];
    let mut b_ky = [0.0f32; L];
    let mut b_kz = [0.0f32; L];
    let mut c_kx = [0.0f32; L];
    let mut c_ky = [0.0f32; L];
    let mut c_kz = [0.0f32; L];
    let mut sx = [0.0f32; L];
    let mut sy = [0.0f32; L];
    let mut sz = [0.0f32; L];
    for lane in 0..L {
        let (ray, triangle) = source.triangle_operands(first + lane);
        let origin = Vec3::from_array(ray.origin);
        [a_kx[lane], a_ky[lane], a_kz[lane]] = renamed_axes(triangle.v0 - origin, ray.k);
        [b_kx[lane], b_ky[lane], b_kz[lane]] = renamed_axes(triangle.v1 - origin, ray.k);
        [c_kx[lane], c_ky[lane], c_kz[lane]] = renamed_axes(triangle.v2 - origin, ray.k);
        sx[lane] = ray.shear[0];
        sy[lane] = ray.shear[1];
        sz[lane] = ray.shear[2];
    }

    // Stage 3 — shear/scale products.
    let sx_az: [f32; L] = core::array::from_fn(|l| sx[l] * a_kz[l]);
    let sy_az: [f32; L] = core::array::from_fn(|l| sy[l] * a_kz[l]);
    let az: [f32; L] = core::array::from_fn(|l| sz[l] * a_kz[l]);
    let sx_bz: [f32; L] = core::array::from_fn(|l| sx[l] * b_kz[l]);
    let sy_bz: [f32; L] = core::array::from_fn(|l| sy[l] * b_kz[l]);
    let bz: [f32; L] = core::array::from_fn(|l| sz[l] * b_kz[l]);
    let sx_cz: [f32; L] = core::array::from_fn(|l| sx[l] * c_kz[l]);
    let sy_cz: [f32; L] = core::array::from_fn(|l| sy[l] * c_kz[l]);
    let cz: [f32; L] = core::array::from_fn(|l| sz[l] * c_kz[l]);

    // Stage 4 — complete the shear.
    let ax: [f32; L] = core::array::from_fn(|l| a_kx[l] - sx_az[l]);
    let ay: [f32; L] = core::array::from_fn(|l| a_ky[l] - sy_az[l]);
    let bx: [f32; L] = core::array::from_fn(|l| b_kx[l] - sx_bz[l]);
    let by: [f32; L] = core::array::from_fn(|l| b_ky[l] - sy_bz[l]);
    let cx: [f32; L] = core::array::from_fn(|l| c_kx[l] - sx_cz[l]);
    let cy: [f32; L] = core::array::from_fn(|l| c_ky[l] - sy_cz[l]);

    // Stages 5 and 6 — scaled barycentric coordinates.
    let u: [f32; L] = core::array::from_fn(|l| cy[l] * bx[l] - cx[l] * by[l]);
    let v: [f32; L] = core::array::from_fn(|l| ay[l] * cx[l] - ax[l] * cy[l]);
    let w: [f32; L] = core::array::from_fn(|l| by[l] * ax[l] - bx[l] * ay[l]);

    // Stages 7–9 — determinant and scaled hit distance.
    let det: [f32; L] = core::array::from_fn(|l| (u[l] + v[l]) + w[l]);
    let t_num: [f32; L] = core::array::from_fn(|l| (u[l] * az[l] + v[l] * bz[l]) + w[l] * cz[l]);

    // One trusted-length extend instead of per-lane pushes: the capacity check happens once per
    // issue, and each response is constructed in place in the buffer.
    responses.extend((0..L).map(|lane| {
        let hit = u[lane] >= 0.0
            && v[lane] >= 0.0
            && w[lane] >= 0.0
            && det[lane] > 0.0
            && t_num[lane] >= 0.0;
        RayFlexResponse {
            opcode: Opcode::RayTriangle,
            tag: source.tag(first + lane),
            box_result: None,
            triangle_result: Some(TriangleResult {
                hit,
                t_num: canonicalize_nan(t_num[lane]),
                det: canonicalize_nan(det[lane]),
                u: canonicalize_nan(u[lane]),
                v: canonicalize_nan(v[lane]),
                w: canonicalize_nan(w[lane]),
            }),
            distance_result: None,
        }
    }));
}

/// Executes a run of adjacent ray–triangle beats through the widest lane kernel that fits:
/// groups of eight, then four, then the scalar remainder.  Responses are appended in request
/// order and are bit-identical to the per-beat path regardless of how the run splits.
pub(crate) fn execute_fast_triangles<S: BeatSource + ?Sized>(
    source: &S,
    run: Range<usize>,
    responses: &mut Vec<RayFlexResponse>,
) {
    let mut first = run.start;
    while run.end - first >= 16 {
        triangle_lanes::<16, S>(source, first, responses);
        first += 16;
    }
    while run.end - first >= 8 {
        triangle_lanes::<8, S>(source, first, responses);
        first += 8;
    }
    while run.end - first >= MIN_SIMD_LANES {
        triangle_lanes::<4, S>(source, first, responses);
        first += 4;
    }
    responses.extend((first..run.end).map(|beat| triangle_response_scalar(source, beat)));
}

/// Lane-occupancy accounting of one same-opcode triangle run dispatched at `lanes` width,
/// mirroring the kernel tiering of [`execute_fast_triangles`]: sixteen-wide issues, then
/// eight-wide, then four-wide, then the scalar remainder.  Returns `(busy, slots)`, where
/// `busy` counts one lane per beat and `slots` charges every issue — vector or scalar — the
/// full dispatch width, since a scalar remainder beat still occupies an issue slot the vector
/// unit idles through.
#[must_use]
pub fn triangle_lane_accounting(run: usize, lanes: usize) -> (u64, u64) {
    debug_assert!(lanes >= MIN_SIMD_LANES);
    let mut rest = run;
    let mut issues = 0;
    for width in [16, 8] {
        if lanes >= width {
            issues += rest / width;
            rest %= width;
        }
    }
    issues += rest / MIN_SIMD_LANES;
    rest %= MIN_SIMD_LANES;
    issues += rest;
    (run as u64, (issues * lanes) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PipelineConfig, RayFlexDatapath, RayFlexRequest};
    use rayflex_geometry::{Aabb, Triangle};

    fn sample_ray() -> Ray {
        Ray::new(Vec3::new(0.1, -0.4, -5.0), Vec3::new(0.05, 0.2, 1.0))
    }

    #[test]
    fn triangle_lane_accounting_mirrors_the_kernel_tiers() {
        // Eight lanes: 19 beats = two 8-wide issues + three scalar → 5 issues.
        assert_eq!(triangle_lane_accounting(19, 8), (19, 5 * 8));
        // Four lanes: 19 beats = four 4-wide issues + three scalar → 7 issues.
        assert_eq!(triangle_lane_accounting(19, 4), (19, 7 * 4));
        // Sixteen lanes: 19 beats = one 16-wide issue + three scalar → 4 issues.
        assert_eq!(triangle_lane_accounting(19, 16), (19, 4 * 16));
        // Sixteen lanes: 13 beats = one 8-wide + one 4-wide + one scalar → 3 issues.
        assert_eq!(triangle_lane_accounting(13, 16), (13, 3 * 16));
        // A full-width run is perfectly occupied.
        assert_eq!(triangle_lane_accounting(8, 8), (8, 8));
        assert_eq!(triangle_lane_accounting(16, 16), (16, 16));
        assert_eq!(triangle_lane_accounting(0, 8), (0, 0));
    }

    #[test]
    fn fast_ray_box_matches_the_emulated_path_including_degenerate_nans() {
        // A coplanar ray: inv_dir contains infinities and the slab test produces NaNs.
        let coplanar = Ray::new(Vec3::new(-5.0, 1.0, 0.0), Vec3::new(1.0, 0.0, 0.0));
        let boxes = [
            Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0)),
            Aabb::new(Vec3::new(-1.0, -1.0, 3.0), Vec3::new(1.0, 1.0, 5.0)),
            Aabb::new(Vec3::splat(f32::MAX), Vec3::splat(f32::MAX)),
            Aabb::new(Vec3::new(-2.0, -2.0, 8.0), Vec3::new(2.0, 2.0, 9.0)),
        ];
        for ray in [sample_ray(), coplanar] {
            let request = RayFlexRequest::ray_box(7, &ray, &boxes);
            let mut emulated = RayFlexDatapath::new(PipelineConfig::baseline_unified());
            let expected = emulated.execute(&request);
            let got = box_response_scalar(core::slice::from_ref(&request), 0);
            let (expected, got) = (expected.box_result.unwrap(), got.box_result.unwrap());
            assert_eq!(expected.hit, got.hit);
            assert_eq!(expected.traversal_order, got.traversal_order);
            for slot in 0..4 {
                assert_eq!(
                    expected.t_entry[slot].to_bits(),
                    got.t_entry[slot].to_bits(),
                    "slot {slot}"
                );
            }
        }
    }

    #[test]
    fn fast_triangle_matches_the_emulated_path() {
        let tri = Triangle::new(
            Vec3::new(-1.0, -1.0, 3.0),
            Vec3::new(1.0, -1.0, 3.0),
            Vec3::new(0.0, 1.0, 3.0),
        );
        let request = RayFlexRequest::ray_triangle(3, &sample_ray(), &tri);
        let mut emulated = RayFlexDatapath::new(PipelineConfig::baseline_unified());
        let expected = emulated.execute(&request).triangle_result.unwrap();
        let got = triangle_response_scalar(core::slice::from_ref(&request), 0)
            .triangle_result
            .unwrap();
        assert_eq!(expected.hit, got.hit);
        for (e, g) in [
            (expected.t_num, got.t_num),
            (expected.det, got.det),
            (expected.u, got.u),
            (expected.v, got.v),
            (expected.w, got.w),
        ] {
            assert_eq!(e.to_bits(), g.to_bits());
        }
    }

    #[test]
    fn branchless_selects_match_the_golden_comparators_for_every_operand_class() {
        // Two distinct NaN payloads so operand *selection* (not just NaN-ness) is observable.
        let nan_a = f32::from_bits(0x7FC0_0001);
        let nan_b = f32::from_bits(0xFFC0_0002);
        let values = [
            -1.5f32,
            0.0,
            -0.0,
            2.5,
            f32::INFINITY,
            f32::NEG_INFINITY,
            nan_a,
            nan_b,
        ];
        for &a in &values {
            for &b in &values {
                assert_eq!(
                    sel_min(a, b).to_bits(),
                    golden::slab::hw_min(a, b).to_bits(),
                    "min({a}, {b})"
                );
                assert_eq!(
                    sel_max(a, b).to_bits(),
                    golden::slab::hw_max(a, b).to_bits(),
                    "max({a}, {b})"
                );
            }
        }
    }

    #[test]
    fn select_sort_matches_the_golden_network_for_every_mix_of_hits_and_misses() {
        let hit = |t_entry: f32| golden::slab::BoxHit {
            hit: true,
            t_entry,
            t_exit: f32::INFINITY,
        };
        let miss = |t_entry: f32| golden::slab::BoxHit {
            hit: false,
            t_entry,
            t_exit: f32::NEG_INFINITY,
        };
        // Equal entry distances (two 1.0 hits, ±0, a hit at +∞ against a miss's +∞ key),
        // infinities, subnormals of both signs and misses carrying arbitrary entries.
        let results = [
            hit(1.0),
            hit(1.0),
            hit(0.0),
            hit(-0.0),
            hit(f32::INFINITY),
            hit(f32::NEG_INFINITY),
            hit(f32::from_bits(1)),
            hit(-f32::from_bits(1)),
            hit(-2.5),
            miss(0.5),
            miss(f32::NAN),
        ];
        for index in 0..results.len().pow(4) {
            let hits: [golden::slab::BoxHit; 4] = core::array::from_fn(|slot| {
                results[index / results.len().pow(slot as u32) % results.len()]
            });
            assert_eq!(
                sort_boxes(&hits),
                golden::slab::sort_boxes(&hits),
                "{hits:?}"
            );
        }
    }

    #[test]
    fn index_gather_matches_the_axis_path_for_every_permutation() {
        let vectors = [
            Vec3::new(1.0, 2.0, 3.0),
            Vec3::new(-0.0, f32::from_bits(1), f32::NEG_INFINITY),
            Vec3::new(f32::from_bits(0x7FC0_0001), 0.0, -7.5),
        ];
        let permutations = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        for v in vectors {
            for k in permutations {
                let expected = k.map(|axis| v.axis(Axis::from_index(usize::from(axis))).to_bits());
                assert_eq!(
                    renamed_axes(v, k).map(f32::to_bits),
                    expected,
                    "{v:?} {k:?}"
                );
            }
        }
    }

    #[test]
    fn lane_batched_box_kernel_is_bit_identical_to_the_scalar_fast_path() {
        let coplanar = Ray::new(Vec3::new(-5.0, 1.0, 0.0), Vec3::new(1.0, 0.0, 0.0));
        let boxes = [
            Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0)),
            Aabb::new(Vec3::new(-1.0, -1.0, 3.0), Vec3::new(1.0, 1.0, 5.0)),
            Aabb::new(Vec3::splat(f32::MAX), Vec3::splat(f32::MAX)),
            Aabb::new(Vec3::new(-2.0, -2.0, 8.0), Vec3::new(2.0, 2.0, 9.0)),
        ];
        for (tag, ray) in [sample_ray(), coplanar].into_iter().enumerate() {
            let request = RayFlexRequest::ray_box(tag as u64, &ray, &boxes);
            let single = core::slice::from_ref(&request);
            let expected = box_response_scalar(single, 0);
            let mut got = Vec::new();
            execute_fast_box_lanes_group::<4, _>(single, 0, &mut got);
            let got = got.pop().unwrap();
            assert_eq!(expected.tag, got.tag);
            let (expected, got) = (expected.box_result.unwrap(), got.box_result.unwrap());
            assert_eq!(expected.hit, got.hit);
            assert_eq!(expected.traversal_order, got.traversal_order);
            for slot in 0..4 {
                assert_eq!(
                    expected.t_entry[slot].to_bits(),
                    got.t_entry[slot].to_bits(),
                    "slot {slot}"
                );
            }
        }
    }

    #[test]
    fn lane_batched_triangle_kernel_is_bit_identical_for_every_group_split() {
        // Mixed dominant axes (z, x, y) exercise the per-lane axis-renaming gather; the coplanar
        // ray exercises the det == 0 miss path.
        let rays = [
            sample_ray(),
            Ray::new(Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0)),
            Ray::new(Vec3::ZERO, Vec3::new(0.0, 1.0, 0.0)),
            Ray::new(Vec3::new(-5.0, 0.0, 3.0), Vec3::new(1.0, 0.0, 0.0)),
        ];
        let triangles = [
            Triangle::new(
                Vec3::new(-1.0, -1.0, 3.0),
                Vec3::new(1.0, -1.0, 3.0),
                Vec3::new(0.0, 1.0, 3.0),
            ),
            Triangle::new(
                Vec3::new(3.0, -1.0, -1.0),
                Vec3::new(3.0, 1.0, -1.0),
                Vec3::new(3.0, 0.0, 1.0),
            ),
            Triangle::new(
                Vec3::new(-1.0, 3.0, -1.0),
                Vec3::new(0.0, 3.0, 1.0),
                Vec3::new(1.0, 3.0, -1.0),
            ),
        ];
        // 1..=9 covers the scalar remainder, the 4-lane kernel, the 8-lane kernel and a
        // split (8 + 1) in one sweep.
        for group in 1..=9usize {
            let requests: Vec<RayFlexRequest> = (0..group)
                .map(|i| {
                    RayFlexRequest::ray_triangle(
                        i as u64,
                        &rays[i % rays.len()],
                        &triangles[i % triangles.len()],
                    )
                })
                .collect();
            let mut got = Vec::new();
            execute_fast_triangles(requests.as_slice(), 0..group, &mut got);
            assert_eq!(got.len(), group);
            for (beat, got) in got.iter().enumerate() {
                let expected = triangle_response_scalar(requests.as_slice(), beat);
                assert_eq!(expected.tag, got.tag);
                let (e, g) = (
                    expected.triangle_result.unwrap(),
                    got.triangle_result.unwrap(),
                );
                assert_eq!(e.hit, g.hit, "group {group} tag {}", got.tag);
                for (e, g) in [
                    (e.t_num, g.t_num),
                    (e.det, g.det),
                    (e.u, g.u),
                    (e.v, g.v),
                    (e.w, g.w),
                ] {
                    assert_eq!(e.to_bits(), g.to_bits(), "group {group} tag {}", got.tag);
                }
            }
        }
    }

    #[test]
    fn lane_clamp_resolves_degenerate_and_oversized_requests() {
        if cfg!(feature = "force-scalar") {
            for lanes in [0, 1, 4, 8, 64] {
                assert_eq!(clamp_simd_lanes(lanes), 1);
            }
        } else {
            assert_eq!(clamp_simd_lanes(0), 1, "zero lanes resolves to scalar");
            assert_eq!(clamp_simd_lanes(1), 1);
            assert_eq!(clamp_simd_lanes(4), 4);
            assert_eq!(clamp_simd_lanes(8), 8);
            assert_eq!(
                clamp_simd_lanes(64),
                MAX_SIMD_LANES,
                "saturates at the widest kernel"
            );
        }
    }

    #[test]
    fn fast_accumulators_interoperate_with_the_emulated_path() {
        // Alternate fast and emulated Euclidean beats against one accumulator stream and compare
        // with an all-emulated reference: the shared accumulator state must stay bit-compatible.
        let beats: Vec<RayFlexRequest> = (0..6)
            .map(|i| {
                let a: [f32; 16] = core::array::from_fn(|k| (i * 16 + k) as f32 * 0.37 - 3.0);
                let b: [f32; 16] = core::array::from_fn(|k| 2.0 - (k + i) as f32 * 0.21);
                RayFlexRequest::euclidean(i as u64, a, b, u16::MAX, i % 3 == 2)
            })
            .collect();
        let mut reference = RayFlexDatapath::new(PipelineConfig::extended_unified());
        let expected: Vec<RayFlexResponse> = beats.iter().map(|b| reference.execute(b)).collect();
        let mut mixed = RayFlexDatapath::new(PipelineConfig::extended_unified());
        let got: Vec<RayFlexResponse> = beats
            .iter()
            .enumerate()
            .map(|(i, beat)| {
                if i % 2 == 0 {
                    mixed.execute(beat)
                } else {
                    mixed.execute_batch(core::slice::from_ref(beat)).remove(0)
                }
            })
            .collect();
        assert_eq!(expected, got);
    }
}
