//! The instancing bit-identity matrix — the correctness anchor of the two-level scene
//! refactor, stated as properties over random BLAS sets, random placements, and random
//! affine transforms:
//!
//! * against its [`Scene::flatten`] twin, a two-level instanced scene returns **closest hits
//!   bit-identical** to the flattened scene's, and any-hit agrees on **occlusion** for every
//!   ray.  The any-hit *hit* itself may differ: the two trees visit leaves in different orders,
//!   so each may stop at a different occluder.  Whatever it returns must be a real
//!   intersection: inside the ray interval, with `t` bit-identical to re-tracing that one
//!   flattened triangle (statistics are not compared across representations either — the trees
//!   are different, so box/beat totals differ);
//! * within the instanced representation, every [`ExecMode`] × SIMD width in {1, 4, 8} ×
//!   coherence combination is bit-identical to the instanced scalar reference in **both**
//!   hits and statistics — the cross-policy invariant holds for two-level scenes exactly as it
//!   does for flat ones;
//! * after moving instances, [`Scene::refit`] re-traces bit-identical hits to a freshly built
//!   TLAS over the same placements.

use proptest::prelude::*;

use rayflex_geometry::{Affine, Ray, Triangle, Vec3};
use rayflex_rtunit::{
    Blas, CoherenceMode, ExecPolicy, Instance, QueryError, QueryOutcome, Scene, TraceRequest,
    TraversalEngine, TraversalHit,
};

fn coordinate() -> impl Strategy<Value = f32> {
    -2.0f32..2.0
}

fn vec3() -> impl Strategy<Value = Vec3> {
    (coordinate(), coordinate(), coordinate()).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

fn triangle() -> impl Strategy<Value = Triangle> {
    (vec3(), vec3(), vec3())
        .prop_map(|(a, b, c)| Triangle::new(a, b, c))
        .prop_filter("non-degenerate", |t| t.area() > 1e-3)
}

fn mesh() -> impl Strategy<Value = Vec<Triangle>> {
    prop::collection::vec(triangle(), 1..8)
}

/// Well-conditioned random placements: a rotation about two axes, a uniform scale bounded away
/// from zero, then a translation that keeps the instance inside the ray volume.
fn transform() -> impl Strategy<Value = Affine> {
    (
        -15.0f32..15.0,
        -15.0f32..15.0,
        -15.0f32..15.0,
        0.0f32..core::f32::consts::TAU,
        0.0f32..core::f32::consts::TAU,
        0.5f32..2.0,
    )
        .prop_map(|(tx, ty, tz, yaw, pitch, scale)| {
            Affine::translation(Vec3::new(tx, ty, tz))
                .then(&Affine::rotate_y(yaw))
                .then(&Affine::rotate_x(pitch))
                .then(&Affine::uniform_scale(scale))
        })
}

/// A random BLAS set and placements over it: 1–3 meshes, 1–8 instances, every instance index
/// valid by construction.
fn instanced_parts() -> impl Strategy<Value = (Vec<Vec<Triangle>>, Vec<(usize, Affine)>)> {
    (
        prop::collection::vec(mesh(), 1..4),
        prop::collection::vec((0..64usize, transform()), 1..9),
    )
        .prop_map(|(meshes, raw)| {
            let kinds = meshes.len();
            let placements = raw.into_iter().map(|(pick, t)| (pick % kinds, t)).collect();
            (meshes, placements)
        })
}

/// Rays with random origins/directions and a mix of infinite and finite (shadow-style) extents,
/// sized to the placement volume.
fn ray() -> impl Strategy<Value = Ray> {
    (
        (-25.0f32..25.0, -25.0f32..25.0, -25.0f32..25.0),
        vec3(),
        any::<bool>(),
        1.0f32..80.0,
    )
        .prop_filter_map(
            "non-zero direction",
            |((ox, oy, oz), direction, finite, extent)| {
                if direction.length() < 1e-3 {
                    return None;
                }
                let origin = Vec3::new(ox, oy, oz);
                Some(if finite {
                    Ray::with_extent(origin, direction, 0.0, extent)
                } else {
                    Ray::new(origin, direction)
                })
            },
        )
}

fn build_scene(meshes: &[Vec<Triangle>], placements: &[(usize, Affine)]) -> Scene {
    Scene::instanced(
        meshes.iter().cloned().map(Blas::new).collect(),
        placements
            .iter()
            .map(|(mesh, transform)| Instance::new(*mesh, *transform))
            .collect(),
    )
}

/// Every ExecMode × simd_lanes ∈ {1, 4, 8} × CoherenceMode ∈ {Off, SortOnly, SortAndCompact} —
/// the full matrix the instanced representation must hold the cross-policy invariant over.  The
/// coherence axis rotates through the lane sweep (every discipline crosses every mode, and every
/// mode × lane pair appears) to keep the case count tractable; the defaulted budgeted entry runs
/// `SortAndCompact`.
fn swept_policies() -> Vec<ExecPolicy> {
    let mut policies = Vec::new();
    for (lanes, coherence) in [
        (1usize, CoherenceMode::Off),
        (4, CoherenceMode::SortOnly),
        (8, CoherenceMode::SortAndCompact),
        (8, CoherenceMode::Off),
        (4, CoherenceMode::SortAndCompact),
        (1, CoherenceMode::SortOnly),
    ] {
        policies.push(
            ExecPolicy::wavefront()
                .with_simd_lanes(lanes)
                .with_coherence(coherence),
        );
        policies.push(
            ExecPolicy::parallel(3)
                .with_simd_lanes(lanes)
                .with_coherence(coherence),
        );
        policies.push(
            ExecPolicy::fused()
                .with_simd_lanes(lanes)
                .with_coherence(coherence),
        );
    }
    policies.push(ExecPolicy::fused().with_beat_budget(1));
    policies
}

/// Hits as `(primitive, t bits)`, so comparisons are bit-exact.
fn hit_bits(hits: &[Option<TraversalHit>]) -> Vec<Option<(usize, u32)>> {
    hits.iter()
        .map(|hit| hit.map(|h| (h.primitive, h.t.to_bits())))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Instanced vs flattened: bit-identical closest hits, the same any-hit occlusion verdicts
    /// with every returned occluder a real intersection, and — within the instanced
    /// representation — every mode × lane combination bit-identical to the instanced scalar
    /// reference in hits and statistics.
    #[test]
    fn instanced_traces_bit_identical_to_the_flattened_scene(
        parts in instanced_parts(),
        closest_rays in prop::collection::vec(ray(), 0..10),
        random_shadow_rays in prop::collection::vec(ray(), 0..10),
    ) {
        let (meshes, placements) = parts;
        let scene = build_scene(&meshes, &placements);
        let flattened = scene.flatten();
        // Random rays rarely reach the placements, so each one is also re-aimed at a triangle
        // centroid: those rays cross several instances, where the two trees can stop at
        // different occluders.
        let aimed = random_shadow_rays
            .iter()
            .zip(scene.centroids())
            .map(|(ray, centroid)| Ray::new(ray.origin, centroid - ray.origin))
            .filter(|ray| ray.dir.length() > 1e-3);
        let shadow_rays: Vec<Ray> = random_shadow_rays.iter().copied().chain(aimed).collect();
        prop_assert!(scene.is_instanced());
        prop_assert!(!flattened.is_instanced());
        prop_assert_eq!(scene.triangle_count(), flattened.triangle_count());

        let flat_request = TraceRequest::pair(&flattened, &closest_rays, &shadow_rays);
        let flat = TraversalEngine::baseline().trace(&flat_request, &ExecPolicy::scalar());

        let request = TraceRequest::pair(&scene, &closest_rays, &shadow_rays);
        let mut reference = TraversalEngine::baseline();
        let expected = reference.trace(&request, &ExecPolicy::scalar());
        prop_assert_eq!(
            hit_bits(&expected.closest),
            hit_bits(&flat.closest),
            "instanced closest hits diverged from flattened"
        );
        for (i, (ray, (hit, flat_hit))) in
            shadow_rays.iter().zip(expected.any.iter().zip(&flat.any)).enumerate()
        {
            prop_assert_eq!(hit.is_some(), flat_hit.is_some(), "any-hit ray {} occlusion", i);
            if let Some(hit) = hit {
                prop_assert!(
                    (ray.t_beg..=ray.t_end).contains(&hit.t),
                    "any-hit ray {} returned t = {} outside its interval", i, hit.t
                );
                let alone = Scene::flat(vec![flattened.triangle(hit.primitive)]);
                let retrace = TraceRequest::closest_hit(&alone, core::slice::from_ref(ray));
                let retraced = TraversalEngine::baseline()
                    .trace(&retrace, &ExecPolicy::scalar())
                    .into_closest();
                prop_assert_eq!(
                    retraced[0].map(|h| h.t.to_bits()),
                    Some(hit.t.to_bits()),
                    "any-hit ray {} returned primitive {} at a t that triangle does not give",
                    i,
                    hit.primitive
                );
            }
        }

        for policy in swept_policies() {
            let mut engine = TraversalEngine::baseline();
            let got = engine.trace(&request, &policy);
            prop_assert_eq!(
                (hit_bits(&got.closest), hit_bits(&got.any)),
                (hit_bits(&expected.closest), hit_bits(&expected.any)),
                "{} (lanes {}) hits diverged", policy.mode, policy.simd_lanes
            );
            prop_assert_eq!(
                engine.stats(),
                reference.stats(),
                "{} (lanes {}) stats diverged",
                policy.mode,
                policy.simd_lanes
            );
        }
    }

    /// Moving instances then [`Scene::refit`] re-traces bit-identical hits to building a fresh
    /// TLAS over the moved placements — in the scalar reference and the full policy sweep.
    #[test]
    fn refit_matches_a_fresh_tlas_build_bit_for_bit(
        parts in instanced_parts(),
        moves in prop::collection::vec(transform(), 9..10),
        rays in prop::collection::vec(ray(), 0..10),
    ) {
        let (meshes, placements) = parts;
        let mut refitted = build_scene(&meshes, &placements);
        let moved: Vec<(usize, Affine)> = placements
            .iter()
            .zip(&moves)
            .map(|((mesh, _), movement)| (*mesh, *movement))
            .collect();
        for (index, (_, transform)) in moved.iter().enumerate() {
            refitted.set_instance_transform(index, *transform);
        }
        refitted.refit();

        let fresh = build_scene(&meshes, &moved);

        let refit_request = TraceRequest::closest_hit(&refitted, &rays);
        let fresh_request = TraceRequest::closest_hit(&fresh, &rays);
        let expected =
            TraversalEngine::baseline().trace(&fresh_request, &ExecPolicy::scalar());
        let scalar =
            TraversalEngine::baseline().trace(&refit_request, &ExecPolicy::scalar());
        prop_assert_eq!(&scalar, &expected, "refit scalar diverged from fresh build");

        for policy in swept_policies() {
            let mut engine = TraversalEngine::baseline();
            let got = engine.trace(&refit_request, &policy);
            prop_assert_eq!(&got, &expected, "{} refit hits diverged", policy.mode);
        }
    }

    /// Deadline caps over instanced scenes, across the full mode × lane × coherence sweep: a
    /// budget-capped run completes bit-identically or returns a partial whose completed prefix
    /// is bit-identical to the same prefix of the uncapped scalar reference — octant-sorted
    /// admission must not leak dispatch order into the retired-prefix contract.
    #[test]
    fn capped_instanced_prefixes_match_the_scalar_reference(
        parts in instanced_parts(),
        rays in prop::collection::vec(ray(), 1..10),
        cap in 1u64..250,
    ) {
        let (meshes, placements) = parts;
        let scene = build_scene(&meshes, &placements);
        let request = TraceRequest::closest_hit(&scene, &rays);
        let expected = TraversalEngine::baseline()
            .try_trace(&request, &ExecPolicy::scalar())
            .expect("a generated instanced scene is valid")
            .into_output();

        for policy in swept_policies() {
            let capped = policy.with_max_total_beats(cap);
            let mut engine = TraversalEngine::baseline();
            match engine.try_trace(&request, &capped) {
                Ok(QueryOutcome::Complete(output)) => {
                    prop_assert_eq!(&output, &expected, "{}: complete run diverged", capped.mode);
                }
                Ok(QueryOutcome::Partial(partial)) => {
                    prop_assert!(partial.completed < rays.len());
                    prop_assert_eq!(
                        &partial.output.closest,
                        &expected.closest[..partial.completed].to_vec(),
                        "{}: capped prefix diverged", capped.mode
                    );
                }
                Err(QueryError::BudgetExhausted { max_total_beats }) => {
                    prop_assert_eq!(max_total_beats, cap);
                }
                Err(err) => prop_assert!(false, "unexpected error: {}", err),
            }
        }
    }
}
