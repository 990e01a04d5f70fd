//! Structured errors, scene validation and typed partial results — the failure model of the
//! hardened execution layer.
//!
//! Every engine's plain entry point ([`TraversalEngine::trace`](crate::TraversalEngine::trace),
//! [`Renderer::render`](crate::Renderer::render), …) keeps its original contract: well-formed
//! input in, completed output out, panics on programmer error.  The `try_*` variants added
//! alongside them fail *structured* instead:
//!
//! * malformed scenes and requests are rejected up front by the [`SceneValidator`] and the
//!   per-request guards ([`QueryError::InvalidScene`], [`QueryError::InvalidRequest`]);
//! * a run capped by [`ExecPolicy::max_total_beats`](crate::ExecPolicy::max_total_beats)
//!   cancels cooperatively at a pass boundary and returns a typed partial result
//!   ([`QueryOutcome::Partial`]) whose completed prefix is bit-identical to the uncapped run —
//!   or [`QueryError::DeadlineExceeded`] where the query's output is a global reduction that
//!   has no meaningful prefix (a frame, a top-k set);
//! * a capped run that completes *nothing* fails with [`QueryError::BudgetExhausted`];
//! * a worker shard that panics twice — once on the parallel path and once on its one-shot
//!   [`ScalarReference`](crate::ExecMode::ScalarReference) retry — surfaces as
//!   [`QueryError::ShardPanicked`] instead of a propagated panic.
//!
//! The whole taxonomy is exercised by the chaos harness (`rtunit/tests/proptest_chaos.rs`),
//! which injects deterministic faults ([`crate::fault`]) and asserts that every `try_*` entry
//! point returns either a structured error or a bit-identical recovered result — never a panic,
//! never a silently wrong answer.

use std::fmt;

use rayflex_core::{guard, BeatMix};
use rayflex_geometry::{Aabb, Ray, Triangle};

use crate::bvh::{Bvh4, ChildRef};
use crate::query::CappedFusedRun;
use crate::scene::{Blas, InstancedScene, Scene, SceneView};

/// A structured failure of a `try_*` query entry point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The indexed scene is malformed: a NaN/Inf vertex, a degenerate triangle, or a BVH whose
    /// topology or bounds are inconsistent (see [`SceneValidator`]).
    InvalidScene {
        /// What the validator found.
        reason: String,
    },
    /// The request itself is malformed: a NaN/Inf or zero-direction ray, mismatched vector
    /// dimensions, a non-finite query point or radius.
    InvalidRequest {
        /// What the request guard found.
        reason: String,
    },
    /// The run crossed [`ExecPolicy::max_total_beats`](crate::ExecPolicy::max_total_beats) and
    /// the query's output is a global reduction with no meaningful completed prefix (a rendered
    /// frame, a top-k set, a nearest-neighbour search).
    DeadlineExceeded {
        /// Beats the run had spent when it cancelled.
        beats_spent: u64,
        /// The configured deadline.
        max_total_beats: u64,
    },
    /// A parallel worker shard panicked, and so did its one-shot scalar-reference retry.  The
    /// single-panic case never surfaces: it is recovered transparently (recorded in
    /// [`TraversalStats::shard_fallbacks`](crate::TraversalStats::shard_fallbacks)).
    ShardPanicked {
        /// Index of the shard that failed twice.
        shard: usize,
    },
    /// A capped run cancelled before completing even one item — the deadline is too small for
    /// this workload to make observable progress.
    BudgetExhausted {
        /// The configured deadline.
        max_total_beats: u64,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::InvalidScene { reason } => write!(f, "invalid scene: {reason}"),
            QueryError::InvalidRequest { reason } => write!(f, "invalid request: {reason}"),
            QueryError::DeadlineExceeded {
                beats_spent,
                max_total_beats,
            } => write!(
                f,
                "deadline exceeded: {beats_spent} beats spent against a budget of \
                 {max_total_beats}"
            ),
            QueryError::ShardPanicked { shard } => write!(
                f,
                "shard {shard} panicked and its scalar-reference retry failed"
            ),
            QueryError::BudgetExhausted { max_total_beats } => write!(
                f,
                "budget exhausted: no item completed within {max_total_beats} beats"
            ),
        }
    }
}

impl std::error::Error for QueryError {}

/// The typed partial result of a deadline-capped run: the outputs of the longest
/// fully-completed item prefix, plus how far the run got.
///
/// The prefix discipline is what makes partial results safe to consume: an item either appears
/// with its **complete, bit-identical** output (equal to what the uncapped run would return for
/// it — pinned by the chaos harness) or it does not appear at all.  Items that happened to
/// finish beyond the first still-in-flight item are discarded rather than surfaced out of
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialResult<T> {
    /// The completed prefix of the output (for a paired request, each stream's own prefix).
    pub output: T,
    /// Total items completed across all streams of the request.
    pub completed: usize,
    /// Total items the request carried.
    pub total: usize,
    /// Datapath beats the run spent before cancelling (may overshoot the deadline by the pass
    /// in flight when it crossed the line — cancellation is cooperative, at pass boundaries).
    pub beats_spent: u64,
    /// The engine's per-kind × per-opcode beat attribution at cancellation — the per-stream
    /// progress report of the cancelled run.
    pub progress: BeatMix,
}

/// Either a complete output or a typed partial result — what a `try_*` entry point yields when
/// the request is valid but a deadline may have fired.
// The size skew against `Complete(())` is accepted: boxing `PartialResult` would put the
// common cancelled-run path behind an allocation for no measurable win.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutcome<T> {
    /// The run finished every item; the output equals the plain entry point's.
    Complete(T),
    /// The run was cancelled at a pass boundary by
    /// [`ExecPolicy::max_total_beats`](crate::ExecPolicy::max_total_beats).
    Partial(PartialResult<T>),
}

impl<T> QueryOutcome<T> {
    /// Maps a run capped at `max_total_beats` onto the `try_*` contract: a run that finished is
    /// [`QueryOutcome::Complete`], a cancelled run that retired `completed` of the request's
    /// `total` items is [`QueryOutcome::Partial`] with `progress` as its beat report, and one
    /// that retired nothing fails [`QueryError::BudgetExhausted`].
    pub(crate) fn from_run(
        output: T,
        completed: usize,
        total: usize,
        run: CappedFusedRun,
        max_total_beats: u64,
        progress: BeatMix,
    ) -> Result<Self, QueryError> {
        if run.complete {
            return Ok(QueryOutcome::Complete(output));
        }
        if completed == 0 {
            return Err(QueryError::BudgetExhausted { max_total_beats });
        }
        Ok(QueryOutcome::Partial(PartialResult {
            output,
            completed,
            total,
            beats_spent: run.beats,
            progress,
        }))
    }

    /// `true` for [`QueryOutcome::Complete`].
    #[must_use]
    pub fn is_complete(&self) -> bool {
        matches!(self, QueryOutcome::Complete(_))
    }

    /// The output — complete, or the completed prefix of a partial run.
    #[must_use]
    pub fn output(&self) -> &T {
        match self {
            QueryOutcome::Complete(output) => output,
            QueryOutcome::Partial(partial) => &partial.output,
        }
    }

    /// Consumes the outcome into its output (the completed prefix when partial).
    #[must_use]
    pub fn into_output(self) -> T {
        match self {
            QueryOutcome::Complete(output) => output,
            QueryOutcome::Partial(partial) => partial.output,
        }
    }

    /// The partial-result report, if the run was cancelled.
    #[must_use]
    pub fn partial(&self) -> Option<&PartialResult<T>> {
        match self {
            QueryOutcome::Complete(_) => None,
            QueryOutcome::Partial(partial) => Some(partial),
        }
    }
}

/// Validates an indexed scene — triangles plus the [`Bvh4`] built over them — before a `try_*`
/// run accepts it.
///
/// Three families of checks, in order:
///
/// 1. **Vertices** — every triangle vertex finite (no NaN/Inf) and no triangle degenerate
///    (zero area);
/// 2. **BVH topology** — every child reference in range (node indices inside the node table,
///    inline leaf ranges inside the id table), every non-root node referenced exactly once (no
///    cycles, no sharing, no orphans), and the id table a permutation of the primitive set;
/// 3. **BVH bounds** — every internal node's stored child bounds contain the child subtree's
///    primitives, and the scene bounds contain everything (the invariant traversal pruning
///    relies on: a hit can never hide outside the bounds that prune it).
///
/// The plain entry points skip validation entirely — it costs O(scene) per call, which the
/// hot paths must not pay — so a server validates once at scene admission and traces with the
/// plain methods thereafter, or uses `try_*` end to end.
#[derive(Debug, Clone, Copy, Default)]
pub struct SceneValidator;

impl SceneValidator {
    /// Runs every check against the scene.  The first failure is returned.
    ///
    /// # Errors
    ///
    /// [`QueryError::InvalidScene`] naming the first malformed vertex, triangle, node or bound.
    pub fn validate(bvh: &Bvh4, triangles: &[Triangle]) -> Result<(), QueryError> {
        Self::validate_triangles(triangles)?;
        Self::validate_bvh(bvh, triangles)
    }

    /// Runs every check against a [`Scene`], either representation.  Flat scenes get exactly
    /// [`SceneValidator::validate`]'s checks.  Instanced scenes are checked level by level:
    ///
    /// 1. the scene must carry at least one instance (an empty TLAS indexes nothing);
    /// 2. every BLAS passes [`SceneValidator::validate`] over its own mesh (failures are
    ///    prefixed with the BLAS index);
    /// 3. every instance placement is sound — its BLAS index in range, its transform finite
    ///    and non-singular — with the offending instance named;
    /// 4. the TLAS topology indexes the instance set exactly once each, and its stored bounds
    ///    contain the instances' recomputed world bounds (the invariant TLAS pruning relies
    ///    on).
    ///
    /// # Errors
    ///
    /// [`QueryError::InvalidScene`] naming the first malformed triangle, node, BLAS or
    /// instance.
    pub fn validate_scene(scene: &Scene) -> Result<(), QueryError> {
        Self::validate_view(scene.view())
    }

    /// Validates a ray batch up front — every component of every origin, direction and extent
    /// must be finite and no direction may be zero-length.  The `stream` label names the batch
    /// in the error (`"closest-hit"`, `"any-hit"`, …) so a server admitting requests from the
    /// wire can report which stream was malformed without tracing anything.
    ///
    /// # Errors
    ///
    /// [`QueryError::InvalidRequest`] naming the first malformed ray.
    pub fn validate_rays(rays: &[Ray], stream: &str) -> Result<(), QueryError> {
        validate_rays(rays, stream)
    }

    /// [`SceneValidator::validate_scene`] over a borrowed traversal view — what the engines'
    /// `try_*` entry points call.
    pub(crate) fn validate_view(view: SceneView<'_>) -> Result<(), QueryError> {
        match view {
            SceneView::Flat(mesh) => Self::validate_mesh(mesh),
            SceneView::Instanced(scene) => Self::validate_instanced(scene),
        }
    }

    /// The instanced-representation checks behind [`SceneValidator::validate_scene`].
    fn validate_instanced(scene: &InstancedScene) -> Result<(), QueryError> {
        if scene.instances.is_empty() {
            return Err(invalid_scene(
                "instanced scene has no instances (the TLAS is empty)".into(),
            ));
        }
        for (index, mesh) in scene.blas.iter().enumerate() {
            if let Err(QueryError::InvalidScene { reason }) = Self::validate_mesh(mesh) {
                return Err(invalid_scene(format!("BLAS {index}: {reason}")));
            }
        }
        for (index, instance) in scene.instances.iter().enumerate() {
            if instance.blas >= scene.blas.len() {
                return Err(invalid_scene(format!(
                    "instance {index} references BLAS {} outside the {}-entry BLAS list",
                    instance.blas,
                    scene.blas.len()
                )));
            }
            if !instance.transform.is_finite() {
                return Err(invalid_scene(format!(
                    "instance {index} has a non-finite transform"
                )));
            }
            if instance.transform.determinant() == 0.0 {
                return Err(invalid_scene(format!(
                    "instance {index} has a singular transform (zero determinant)"
                )));
            }
        }
        Self::validate_topology(&scene.tlas, scene.instances.len(), "instance")?;
        let world = InstancedScene::instance_bounds(&scene.blas, &scene.instances);
        let ids = scene.tlas.primitive_ids();
        Self::validate_containment(&scene.tlas, &|position| world[ids[position] as usize])
    }

    /// [`SceneValidator::validate`]'s checks over a mesh stored in leaf order: the topology
    /// first (it proves the id map a permutation, which the by-id triangle lookups rely on),
    /// then every triangle in caller id order, then the bounds.
    fn validate_mesh(mesh: &Blas) -> Result<(), QueryError> {
        Self::validate_topology(mesh.bvh(), mesh.triangle_count(), "primitive")?;
        for index in 0..mesh.triangle_count() {
            validate_triangle(index, &mesh.triangle(index))?;
        }
        let leaf_triangles = mesh.leaf_triangles();
        Self::validate_containment(mesh.bvh(), &|position| {
            triangle_bounds(&leaf_triangles[position])
        })
    }

    /// Checks every triangle for NaN/Inf vertices and zero area.
    ///
    /// # Errors
    ///
    /// [`QueryError::InvalidScene`] naming the first offending triangle.
    pub fn validate_triangles(triangles: &[Triangle]) -> Result<(), QueryError> {
        for (index, triangle) in triangles.iter().enumerate() {
            validate_triangle(index, triangle)?;
        }
        Ok(())
    }

    /// Checks the BVH's child-reference topology and bounds containment against the primitive
    /// set (`triangles` in the caller's id order).
    ///
    /// # Errors
    ///
    /// [`QueryError::InvalidScene`] naming the first inconsistent node and slot.
    pub fn validate_bvh(bvh: &Bvh4, triangles: &[Triangle]) -> Result<(), QueryError> {
        Self::validate_topology(bvh, triangles.len(), "primitive")?;
        let ids = bvh.primitive_ids();
        Self::validate_containment(bvh, &|position| {
            triangle_bounds(&triangles[ids[position] as usize])
        })
    }

    /// The structural half of the BVH checks, shared by the mesh checks (over triangles) and
    /// the TLAS check (over instances): every child reference in range, every non-root node
    /// referenced exactly once, and the id table a permutation of `0..primitive_count`
    /// (`entity` names what a "primitive" is in error messages).
    fn validate_topology(
        bvh: &Bvh4,
        primitive_count: usize,
        entity: &str,
    ) -> Result<(), QueryError> {
        let nodes = bvh.nodes();
        let ids = bvh.primitive_ids();
        let root = bvh.root();
        let mut seen = vec![0usize; primitive_count];
        // One reference — held by the root (`at` = `None`) or by a node slot — must be a node
        // index inside the table, or a leaf range inside the id table whose ids name primitives
        // of the scene.
        let place = |at: Option<(usize, usize)>| {
            at.map_or_else(
                || "the root".to_string(),
                |(index, slot)| format!("node {index} slot {slot}"),
            )
        };
        let mut visit = |child: ChildRef, at| -> Result<Option<usize>, QueryError> {
            let Some(range) = child.leaf_range() else {
                let index = child.bits() as usize;
                if index >= nodes.len() {
                    return Err(invalid_scene(format!(
                        "{} references node {index} outside the {}-node table",
                        place(at),
                        nodes.len()
                    )));
                }
                return Ok(Some(index));
            };
            let Some(leaf) = ids.get(range.start as usize..range.end as usize) else {
                return Err(invalid_scene(format!(
                    "{} holds leaf [{}, {}) outside the {}-entry id table",
                    place(at),
                    range.start,
                    range.end,
                    ids.len()
                )));
            };
            for &id in leaf {
                let Some(count) = seen.get_mut(id as usize) else {
                    return Err(invalid_scene(format!(
                        "{} references {entity} {id} outside the scene",
                        place(at)
                    )));
                };
                *count += 1;
            }
            Ok(None)
        };

        let root_node = visit(root, None)?;
        let mut referenced = vec![0usize; nodes.len()];
        for (index, node) in nodes.iter().enumerate() {
            for (slot, &child) in node.children.iter().enumerate() {
                let Some(target) = visit(child, Some((index, slot)))? else {
                    continue;
                };
                if Some(target) == root_node {
                    return Err(invalid_scene(format!(
                        "node {index} slot {slot} references the root node"
                    )));
                }
                referenced[target] += 1;
                if referenced[target] > 1 {
                    return Err(invalid_scene(format!(
                        "node {index} slot {slot} references node {target}, which another \
                         slot already references"
                    )));
                }
            }
        }
        if let Some(orphan) =
            (0..nodes.len()).find(|&index| Some(index) != root_node && referenced[index] == 0)
        {
            return Err(invalid_scene(format!("node {orphan} is never referenced")));
        }
        for (primitive, &count) in seen.iter().enumerate() {
            if count != 1 {
                return Err(invalid_scene(format!(
                    "{entity} {primitive} appears {count} times across leaves (expected once)"
                )));
            }
        }
        Ok(())
    }

    /// The bounds half of the BVH checks: each stored child bound contains its child subtree's
    /// content, and the scene bounds contain the root's.  `position_bounds` supplies one leaf
    /// position's primitive bounds (a triangle's vertices for a mesh BVH, an instance's world
    /// box for a TLAS).  Subtree content is reduced with an explicit post-order stack.  Call
    /// only after [`SceneValidator::validate_topology`] passed: the topology checks guarantee
    /// the reachable structure is a tree over in-range positions.
    fn validate_containment(
        bvh: &Bvh4,
        position_bounds: &dyn Fn(usize) -> Aabb,
    ) -> Result<(), QueryError> {
        let nodes = bvh.nodes();
        let mut content = vec![Aabb::empty(); nodes.len()];
        // A child's content: a reduced node's, or the union of its leaf's primitive bounds.
        let child_content = |content: &[Aabb], child: ChildRef| match child.leaf_range() {
            Some(leaf) => leaf.fold(Aabb::empty(), |acc, position| {
                acc.union(&position_bounds(position as usize))
            }),
            None => content[child.bits() as usize],
        };
        // Post-order: push (node, false) to expand, (node, true) to reduce.
        let mut stack: Vec<(usize, bool)> = bvh
            .root()
            .node_index()
            .map(|r| (r, false))
            .into_iter()
            .collect();
        while let Some((index, reduce)) = stack.pop() {
            let node = &nodes[index];
            if !reduce {
                stack.push((index, true));
                stack.extend(
                    node.children
                        .iter()
                        .filter_map(|c| c.node_index())
                        .map(|c| (c, false)),
                );
                continue;
            }
            for (slot, &child) in node.children.iter().enumerate() {
                if child.is_empty() {
                    continue;
                }
                let bounds = child_content(&content, child);
                if !guard::aabb_contains_aabb(&node.child_bounds[slot], &bounds) {
                    return Err(invalid_scene(format!(
                        "node {index} slot {slot}: stored child bounds do not contain \
                         {child:?}'s subtree"
                    )));
                }
                content[index] = content[index].union(&bounds);
            }
        }
        if !guard::aabb_contains_aabb(&bvh.scene_bounds(), &child_content(&content, bvh.root())) {
            return Err(invalid_scene(
                "scene bounds do not contain the root subtree".into(),
            ));
        }
        Ok(())
    }
}

/// Checks one triangle for NaN/Inf vertices and zero area, naming it by `index`.
fn validate_triangle(index: usize, triangle: &Triangle) -> Result<(), QueryError> {
    if !guard::finite_triangle(triangle) {
        return Err(invalid_scene(format!(
            "triangle {index} has a non-finite vertex"
        )));
    }
    if guard::degenerate_triangle(triangle) {
        return Err(invalid_scene(format!(
            "triangle {index} is degenerate (zero area)"
        )));
    }
    Ok(())
}

/// The bounds of a triangle's three vertices.
fn triangle_bounds(triangle: &Triangle) -> Aabb {
    Aabb::empty()
        .union_point(triangle.v0)
        .union_point(triangle.v1)
        .union_point(triangle.v2)
}

fn invalid_scene(reason: String) -> QueryError {
    QueryError::InvalidScene { reason }
}

/// Validates one ray stream of a request.
///
/// # Errors
///
/// [`QueryError::InvalidRequest`] naming the first untraceable ray (NaN/Inf components, zero
/// direction, NaN extent).
pub(crate) fn validate_rays(rays: &[Ray], stream: &str) -> Result<(), QueryError> {
    for (index, ray) in rays.iter().enumerate() {
        if !guard::finite_ray(ray) {
            return Err(QueryError::InvalidRequest {
                reason: format!(
                    "{stream} ray {index} is not traceable (non-finite component, zero \
                     direction or NaN extent)"
                ),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayflex_geometry::Vec3;

    fn quad() -> Vec<Triangle> {
        vec![
            Triangle::new(
                Vec3::new(-1.0, 0.0, -1.0),
                Vec3::new(1.0, 0.0, -1.0),
                Vec3::new(1.0, 0.0, 1.0),
            ),
            Triangle::new(
                Vec3::new(-1.0, 0.0, -1.0),
                Vec3::new(1.0, 0.0, 1.0),
                Vec3::new(-1.0, 0.0, 1.0),
            ),
        ]
    }

    #[test]
    fn a_well_formed_scene_validates() {
        let triangles = quad();
        let bvh = Bvh4::build(&triangles);
        assert_eq!(SceneValidator::validate(&bvh, &triangles), Ok(()));
    }

    #[test]
    fn the_empty_scene_validates() {
        let triangles: Vec<Triangle> = Vec::new();
        let bvh = Bvh4::build(&triangles);
        assert_eq!(SceneValidator::validate(&bvh, &triangles), Ok(()));
    }

    #[test]
    fn nan_vertices_and_degenerate_triangles_are_rejected() {
        let mut triangles = quad();
        triangles[1].v2.x = f32::NAN;
        let err = SceneValidator::validate_triangles(&triangles).unwrap_err();
        assert!(matches!(err, QueryError::InvalidScene { ref reason } if reason.contains('1')));

        let mut collinear = quad();
        collinear[0] = Triangle::new(
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(2.0, 0.0, 0.0),
        );
        let err = SceneValidator::validate_triangles(&collinear).unwrap_err();
        assert!(err.to_string().contains("degenerate"), "{err}");
    }

    #[test]
    fn a_mismatched_bvh_is_rejected() {
        let triangles = quad();
        let other = vec![triangles[0]];
        let bvh = Bvh4::build(&other);
        // The BVH indexes one primitive; the scene claims two.
        assert!(SceneValidator::validate_bvh(&bvh, &triangles).is_err());
    }

    #[test]
    fn malformed_parts_build_a_scene_the_validator_rejects_by_node_and_slot() {
        let triangles: Vec<Triangle> = (0..40)
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
        // A short triangle list: leaves name ids past it.  Construction must not panic.
        let short = Scene::from_parts(Bvh4::build(&triangles), triangles[..25].to_vec());
        let err = SceneValidator::validate_scene(&short).unwrap_err();
        assert!(
            err.to_string().contains(" slot ") && err.to_string().contains("outside the scene"),
            "{err}"
        );
        // A long one: some triangles are in no leaf.
        let long = Scene::from_parts(Bvh4::build(&triangles[..25]), triangles.clone());
        let err = SceneValidator::validate_scene(&long).unwrap_err();
        assert!(err.to_string().contains("appears 0 times"), "{err}");
        // Flipped child references, every corruption kind, are named by node and slot.
        for seed in 0..32u64 {
            let mut bvh = Bvh4::build(&triangles);
            let plan = crate::fault::FaultPlan::new(crate::fault::FaultKind::FlipBvhChild, seed);
            assert!(plan.apply_to_bvh(&mut bvh));
            let scene = Scene::from_parts(bvh, triangles.clone());
            let err = SceneValidator::validate_scene(&scene).unwrap_err();
            assert!(matches!(err, QueryError::InvalidScene { .. }));
            assert!(err.to_string().contains(" slot "), "seed {seed}: {err}");
        }
    }

    #[test]
    fn ray_validation_names_the_offending_stream() {
        let good = Ray::new(Vec3::new(0.0, 0.0, 0.0), Vec3::new(0.0, 0.0, 1.0));
        assert_eq!(validate_rays(&[good], "closest-hit"), Ok(()));
        let mut bad = good;
        bad.origin.y = f32::INFINITY;
        let err = validate_rays(&[good, bad], "any-hit").unwrap_err();
        assert!(err.to_string().contains("any-hit ray 1"), "{err}");
    }

    #[test]
    fn errors_display_their_taxonomy() {
        let deadline = QueryError::DeadlineExceeded {
            beats_spent: 17,
            max_total_beats: 16,
        };
        assert!(deadline.to_string().contains("17"));
        let shard = QueryError::ShardPanicked { shard: 2 };
        assert!(shard.to_string().contains("shard 2"));
        let budget = QueryError::BudgetExhausted { max_total_beats: 1 };
        assert!(budget.to_string().contains("budget exhausted"));
        let source: &dyn std::error::Error = &budget;
        assert!(source.source().is_none());
    }

    #[test]
    fn outcomes_expose_their_output_either_way() {
        let complete: QueryOutcome<Vec<u32>> = QueryOutcome::Complete(vec![1, 2, 3]);
        assert!(complete.is_complete());
        assert!(complete.partial().is_none());
        assert_eq!(complete.output(), &vec![1, 2, 3]);
        assert_eq!(complete.into_output(), vec![1, 2, 3]);

        let cancelled = CappedFusedRun {
            beats: 9,
            complete: false,
        };
        let exhausted =
            QueryOutcome::from_run(Vec::<u32>::new(), 0, 3, cancelled, 8, BeatMix::default());
        assert_eq!(
            exhausted,
            Err(QueryError::BudgetExhausted { max_total_beats: 8 })
        );
        let partial = QueryOutcome::from_run(vec![1u32], 1, 3, cancelled, 8, BeatMix::default())
            .expect("a retired prefix is a partial result");
        assert!(!partial.is_complete());
        let report = partial.partial().expect("partial report");
        assert_eq!(
            (report.completed, report.total, report.beats_spent),
            (1, 3, 9)
        );
        assert_eq!(partial.into_output(), vec![1u32]);
    }
}
