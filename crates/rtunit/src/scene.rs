//! The first-class scene boundary: what every policy entry point traces against.
//!
//! A [`Scene`] owns its geometry and acceleration structure in one of two representations:
//!
//! * **Flat** ([`Scene::flat`] / [`Scene::from_parts`]) — one triangle list indexed by one
//!   [`Bvh4`], exactly the `(bvh, triangles)` pair the engines historically took as loose
//!   arguments;
//! * **Instanced** ([`Scene::instanced`]) — a two-level TLAS/BLAS structure: a list of
//!   bottom-level acceleration structures ([`Blas`], each a flat mesh with its own BVH) plus a
//!   list of [`Instance`]s (an affine transform and a BLAS index each), with a top-level
//!   [`Bvh4`] built over the instances' world-space bounds.  This is how real RT workloads
//!   reach large scenes without large memory: `n` instances of an `m`-triangle mesh cost
//!   `O(m + n)` storage instead of the `O(n·m)` a flattened copy pays.
//!
//! # The bit-identity contract
//!
//! Tracing an instanced scene yields **bit-identical closest hits** to tracing
//! [`Scene::flatten`] — the same geometry baked into one flat BVH — under every
//! [`ExecPolicy`](crate::ExecPolicy), and the same any-hit occlusion verdict for every ray.
//! The any-hit *occluder* may differ: any-hit stops at the first accepted hit, and the two trees
//! visit leaves in different orders.  Whichever occluder it reports is a real intersection,
//! with the `t` bits re-tracing that one flattened triangle gives.  Three design choices make
//! this exact rather than approximate:
//!
//! * rays stay in **world space** throughout; instanced traversal transforms each candidate
//!   triangle through its instance transform at intersection time with
//!   [`Triangle::transformed`] — the very arithmetic [`Scene::flatten`] uses at bake time, so
//!   the datapath sees the same nine vertex floats either way and returns the same hit bits;
//! * per-visit transformed node boxes ([`Aabb::transformed`](rayflex_geometry::Aabb)) are
//!   rigorously conservative, so the two-level traversal can visit *extra* nodes but can never
//!   miss a primitive the flat traversal finds;
//! * hit primitive ids are globalised through per-instance bases laid out in the exact order
//!   [`Scene::flatten`] bakes triangles (instance-major, BLAS order within an instance).
//!
//! Traversal **statistics** are structural, not geometric: a two-level hierarchy visits
//! different node counts than a flat one, so [`TraversalStats`](crate::TraversalStats) are
//! *not* pinned between an instanced scene and its flattened twin (the `rays` count is; the
//! TLAS-phase share is reported separately via
//! [`TraversalStats::tlas_box_ops`](crate::TraversalStats::tlas_box_ops) and the datapath's
//! [`BeatMix::tlas_box_beats`](rayflex_core::BeatMix::tlas_box_beats)).  Within one scene,
//! statistics remain bit-identical across every [`ExecMode`](crate::ExecMode) — the
//! cross-policy invariant is representation-independent.
//!
//! # Refit
//!
//! [`Scene::refit`] re-derives every instance's world bounds from its current transform and
//! refits the TLAS bottom-up **without touching any BLAS** and without re-sorting the TLAS
//! topology — the animated-geometry amortisation of two-level hierarchies.  A refit scene
//! re-traces bit-identical to one whose TLAS was rebuilt from scratch: hits depend only on the
//! triangles (identical) and on conservative containment (both the refit and the fresh tree
//! are exact unions of the new instance bounds).

use core::ops::Range;

use rayflex_core::TLAS_PHASE_TAG;
use rayflex_geometry::{Aabb, Affine, Triangle, Vec3};

use crate::bvh::{Bvh4, ChildRef};

/// A bottom-level acceleration structure: one mesh (triangle list in **object space**) with its
/// own [`Bvh4`], shared by any number of [`Instance`]s.  A flat [`Scene`] is one such mesh.
///
/// The triangles are stored in the BVH's **leaf order**, so each leaf's triangles are
/// contiguous and a triangle beat reads its operand straight from the leaf position it popped.
/// The BVH's id map ([`Bvh4::primitive_ids`]) turns a leaf position back into the caller's
/// triangle id; its inverse serves lookups by id ([`Blas::triangle`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Blas {
    bvh: Bvh4,
    /// Leaf position `k` holds the caller's triangle `bvh.primitive_ids()[k]`.
    leaf_triangles: Vec<Triangle>,
    /// The leaf position of each caller triangle id (`u32::MAX` where no leaf position names
    /// the id — only in malformed input, which the validator rejects).
    positions: Vec<u32>,
}

impl Blas {
    /// Builds a BLAS over a mesh (builds the mesh's BVH).
    #[must_use]
    pub fn new(triangles: Vec<Triangle>) -> Self {
        let bvh = Bvh4::build(&triangles);
        Self::from_parts(bvh, triangles)
    }

    /// Wraps a prebuilt BVH and the triangle list it indexes (in the caller's order) as a BLAS,
    /// storing the triangles in the BVH's leaf order.
    ///
    /// Construction is total: a BVH whose ids do not match the triangle list (out of range,
    /// repeated or missing) still yields a mesh — positions naming no triangle hold a
    /// degenerate placeholder — which the [`SceneValidator`](crate::SceneValidator) rejects
    /// with the offending node and slot named.
    #[must_use]
    pub fn from_parts(bvh: Bvh4, triangles: Vec<Triangle>) -> Self {
        let mut positions = vec![u32::MAX; triangles.len()];
        let placeholder = Triangle::new(Vec3::ZERO, Vec3::ZERO, Vec3::ZERO);
        let leaf_triangles = bvh
            .primitive_ids()
            .iter()
            .enumerate()
            .map(|(position, &id)| {
                if let Some(slot) = positions.get_mut(id as usize) {
                    *slot = position as u32;
                }
                triangles.get(id as usize).copied().unwrap_or(placeholder)
            })
            .collect();
        Blas {
            bvh,
            leaf_triangles,
            positions,
        }
    }

    /// The mesh's BVH (object space).
    #[must_use]
    pub fn bvh(&self) -> &Bvh4 {
        &self.bvh
    }

    /// Number of triangles in the caller's id space.
    #[must_use]
    pub fn triangle_count(&self) -> usize {
        self.positions.len()
    }

    /// The triangle with caller id `prim` (object space).
    ///
    /// # Panics
    ///
    /// Panics if `prim` is outside `0..self.triangle_count()`.
    #[must_use]
    pub fn triangle(&self, prim: usize) -> Triangle {
        self.leaf_triangles[self.positions[prim] as usize]
    }

    /// The triangles in leaf order: position `k` holds caller id `bvh().primitive_ids()[k]`.
    #[must_use]
    pub fn leaf_triangles(&self) -> &[Triangle] {
        &self.leaf_triangles
    }

    /// The triangles in the caller's id order, skipping ids no leaf names (malformed input).
    fn triangles_by_id(&self) -> impl Iterator<Item = &Triangle> + '_ {
        self.positions
            .iter()
            .filter_map(|&position| self.leaf_triangles.get(position as usize))
    }

    /// The exact world-space bounds of this mesh under `transform`: the union of every
    /// triangle's transformed bounds, in caller id order, using the same per-vertex arithmetic
    /// [`Scene::flatten`] bakes with — so the box contains the baked triangles bit-exactly.
    fn world_bounds(&self, transform: &Affine) -> Aabb {
        self.triangles_by_id().fold(Aabb::empty(), |acc, tri| {
            acc.union(&tri.transformed(transform).bounds())
        })
    }

    /// Resident bytes of the node table, the id map, the leaf-order triangles and the inverse
    /// map.
    fn memory_bytes(&self) -> usize {
        bvh_bytes(&self.bvh)
            + core::mem::size_of_val(self.leaf_triangles.as_slice())
            + core::mem::size_of_val(self.positions.as_slice())
    }
}

/// Resident bytes of a BVH: its internal-node table and its id map.
fn bvh_bytes(bvh: &Bvh4) -> usize {
    core::mem::size_of_val(bvh.nodes()) + core::mem::size_of_val(bvh.primitive_ids())
}

/// One placement of a BLAS in the world: an affine transform plus the index of the BLAS it
/// instantiates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Instance {
    /// Object-to-world transform of this instance.
    pub transform: Affine,
    /// Index into the scene's BLAS list.
    pub blas: usize,
}

impl Instance {
    /// An instance of `blas` placed by `transform`.
    #[must_use]
    pub fn new(blas: usize, transform: Affine) -> Self {
        Instance { transform, blas }
    }
}

/// The two-level representation behind [`Scene::instanced`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct InstancedScene {
    pub(crate) blas: Vec<Blas>,
    pub(crate) instances: Vec<Instance>,
    /// Top-level BVH over the instances' world bounds; its "primitives" are instance indices.
    pub(crate) tlas: Bvh4,
    /// `prim_base[k]` is the global primitive id of instance `k`'s first triangle in the
    /// flattened order (instance-major, BLAS order within the instance).
    pub(crate) prim_base: Vec<usize>,
    /// Total triangles across all instances (`prim_base.last() + last instance's mesh size`).
    pub(crate) total_primitives: usize,
}

impl InstancedScene {
    /// The world bounds of every instance, in instance order (the TLAS "primitive" set).
    /// Instances with a dangling BLAS index contribute a degenerate origin box so construction
    /// stays total; the [`SceneValidator`](crate::SceneValidator) names such instances before
    /// any hardened trace accepts the scene.
    pub(crate) fn instance_bounds(blas: &[Blas], instances: &[Instance]) -> Vec<Aabb> {
        instances
            .iter()
            .map(|instance| match blas.get(instance.blas) {
                Some(mesh) => mesh.world_bounds(&instance.transform),
                None => Aabb::from_point(rayflex_geometry::Vec3::ZERO),
            })
            .collect()
    }

    fn new(blas: Vec<Blas>, instances: Vec<Instance>) -> Self {
        let bounds = Self::instance_bounds(&blas, &instances);
        let tlas = Bvh4::build(&bounds);
        let mut prim_base = Vec::with_capacity(instances.len());
        let mut total = 0usize;
        for instance in &instances {
            prim_base.push(total);
            total += blas.get(instance.blas).map_or(0, Blas::triangle_count);
        }
        InstancedScene {
            blas,
            instances,
            tlas,
            prim_base,
            total_primitives: total,
        }
    }

    /// The instance owning global primitive `prim` and the primitive's mesh-local index.
    pub(crate) fn locate(&self, prim: usize) -> (usize, usize) {
        debug_assert!(prim < self.total_primitives);
        // prim_base is non-decreasing; partition_point finds the owning instance.
        let instance = self.prim_base.partition_point(|&base| base <= prim) - 1;
        (instance, prim - self.prim_base[instance])
    }

    /// The world-space triangle with global primitive id `prim`.
    pub(crate) fn triangle(&self, prim: usize) -> Triangle {
        let (instance, local) = self.locate(prim);
        let inst = &self.instances[instance];
        self.blas[inst.blas]
            .triangle(local)
            .transformed(&inst.transform)
    }
}

/// What every policy entry point traces against: the owned scene boundary (flat or two-level
/// instanced — see DESIGN.md, "Scenes and two-level acceleration").
///
/// # Example
///
/// ```
/// use rayflex_geometry::{Affine, Triangle, Vec3};
/// use rayflex_rtunit::{Blas, Instance, Scene};
///
/// let tri = Triangle::new(
///     Vec3::new(-1.0, -1.0, 0.0),
///     Vec3::new(1.0, -1.0, 0.0),
///     Vec3::new(0.0, 1.0, 0.0),
/// );
/// let scene = Scene::instanced(
///     vec![Blas::new(vec![tri])],
///     vec![
///         Instance::new(0, Affine::translation(Vec3::new(0.0, 0.0, 3.0))),
///         Instance::new(0, Affine::translation(Vec3::new(0.0, 0.0, 6.0))),
///     ],
/// );
/// assert!(scene.is_instanced());
/// assert_eq!(scene.triangle_count(), 2);
/// let flattened = scene.flatten();
/// assert!(!flattened.is_instanced());
/// assert_eq!(flattened.triangle_count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Scene {
    repr: SceneRepr,
}

#[derive(Debug, Clone, PartialEq)]
enum SceneRepr {
    Flat(Blas),
    Instanced(InstancedScene),
}

impl Scene {
    /// A flat scene over one triangle list (builds its BVH with the default leaf size).
    #[must_use]
    pub fn flat(triangles: Vec<Triangle>) -> Self {
        Scene {
            repr: SceneRepr::Flat(Blas::new(triangles)),
        }
    }

    /// A flat scene from a prebuilt BVH and the triangle list it indexes (in the caller's
    /// order; the scene stores it in leaf order, see [`Blas::from_parts`]).  Construction is
    /// total: a BVH that does not match the list yields a scene the
    /// [`SceneValidator`](crate::SceneValidator) rejects.
    #[must_use]
    pub fn from_parts(bvh: Bvh4, triangles: Vec<Triangle>) -> Self {
        Scene {
            repr: SceneRepr::Flat(Blas::from_parts(bvh, triangles)),
        }
    }

    /// A two-level instanced scene: BLAS meshes plus instance placements, with a TLAS built
    /// over the instances' world bounds.
    ///
    /// Construction is total even over malformed input (a dangling BLAS index or a non-finite
    /// transform yields a scene the [`SceneValidator`](crate::SceneValidator) rejects with the
    /// offending instance named); only the hardened `try_*` entry points check — the plain
    /// entry points treat such scenes as programmer error, like any other malformed scene.
    #[must_use]
    pub fn instanced(blas: Vec<Blas>, instances: Vec<Instance>) -> Self {
        Scene {
            repr: SceneRepr::Instanced(InstancedScene::new(blas, instances)),
        }
    }

    /// `true` for the two-level representation.
    #[must_use]
    pub fn is_instanced(&self) -> bool {
        matches!(self.repr, SceneRepr::Instanced(_))
    }

    /// Total primitives addressable by global primitive id — the id space of
    /// [`TraversalHit::primitive`](crate::TraversalHit::primitive).
    #[must_use]
    pub fn triangle_count(&self) -> usize {
        match &self.repr {
            SceneRepr::Flat(mesh) => mesh.triangle_count(),
            SceneRepr::Instanced(scene) => scene.total_primitives,
        }
    }

    /// The world-space triangle with global primitive id `prim` — flat scenes index their list,
    /// instanced scenes transform the owning instance's mesh triangle on the fly (bit-identical
    /// to the triangle [`Scene::flatten`] bakes at the same id).
    ///
    /// # Panics
    ///
    /// Panics if `prim` is outside `0..self.triangle_count()`.
    #[must_use]
    pub fn triangle(&self, prim: usize) -> Triangle {
        match &self.repr {
            SceneRepr::Flat(mesh) => mesh.triangle(prim),
            SceneRepr::Instanced(scene) => scene.triangle(prim),
        }
    }

    /// The flat representation's BVH (`None` for instanced scenes).
    #[must_use]
    pub fn bvh(&self) -> Option<&Bvh4> {
        match &self.repr {
            SceneRepr::Flat(mesh) => Some(mesh.bvh()),
            SceneRepr::Instanced(_) => None,
        }
    }

    /// The flat representation's triangles in leaf order (`None` for instanced scenes): position
    /// `k` holds the triangle with id `bvh().primitive_ids()[k]` — see [`Blas::leaf_triangles`].
    #[must_use]
    pub fn leaf_triangles(&self) -> Option<&[Triangle]> {
        match &self.repr {
            SceneRepr::Flat(mesh) => Some(mesh.leaf_triangles()),
            SceneRepr::Instanced(_) => None,
        }
    }

    /// World-space triangle centroids, one per global primitive id — the dataset the point-query
    /// engines ([`KnnEngine`](crate::KnnEngine), [`HierarchicalSearch`](crate::HierarchicalSearch))
    /// consume at the scene boundary.  Instanced scenes contribute one centroid per *placed*
    /// triangle with its instance transform applied, exactly the centroids
    /// [`Scene::flatten`] would yield.
    #[must_use]
    pub fn centroids(&self) -> Vec<Vec3> {
        (0..self.triangle_count())
            .map(|prim| self.triangle(prim).centroid())
            .collect()
    }

    /// The instance list (empty for flat scenes).
    #[must_use]
    pub fn instances(&self) -> &[Instance] {
        match &self.repr {
            SceneRepr::Flat(_) => &[],
            SceneRepr::Instanced(scene) => &scene.instances,
        }
    }

    /// The BLAS list (empty for flat scenes).
    #[must_use]
    pub fn blas_list(&self) -> &[Blas] {
        match &self.repr {
            SceneRepr::Flat(_) => &[],
            SceneRepr::Instanced(scene) => &scene.blas,
        }
    }

    /// The top-level BVH over instance bounds (`None` for flat scenes).
    #[must_use]
    pub fn tlas(&self) -> Option<&Bvh4> {
        match &self.repr {
            SceneRepr::Flat(_) => None,
            SceneRepr::Instanced(scene) => Some(&scene.tlas),
        }
    }

    /// Bakes the scene into its flat twin: every instance's triangles transformed to world
    /// space in instance-major order (BLAS order within each instance) and indexed by one fresh
    /// flat BVH.  Flat scenes return a clone of themselves.
    ///
    /// Global primitive ids are preserved: the triangle at id `p` here is bit-identical to
    /// [`Scene::triangle`]`(p)` of the instanced original, which is what pins instanced
    /// closest hits bit-identical to flattened ones.
    #[must_use]
    pub fn flatten(&self) -> Scene {
        match &self.repr {
            SceneRepr::Flat(_) => self.clone(),
            SceneRepr::Instanced(scene) => {
                let mut baked = Vec::with_capacity(scene.total_primitives);
                for instance in &scene.instances {
                    let mesh = &scene.blas[instance.blas];
                    baked.extend(
                        mesh.triangles_by_id()
                            .map(|tri| tri.transformed(&instance.transform)),
                    );
                }
                Scene::flat(baked)
            }
        }
    }

    /// Replaces one instance's transform **without** updating the TLAS — call
    /// [`Scene::refit`] (cheap) or rebuild via [`Scene::instanced`] before tracing again.
    /// No-op on flat scenes.
    ///
    /// # Panics
    ///
    /// Panics if the scene is instanced and `index` is out of range.
    pub fn set_instance_transform(&mut self, index: usize, transform: Affine) {
        if let SceneRepr::Instanced(scene) = &mut self.repr {
            scene.instances[index].transform = transform;
        }
    }

    /// Refits the TLAS to the instances' current transforms without touching any BLAS and
    /// without re-sorting the TLAS topology: every instance's world bounds are re-derived from
    /// its transform, and the TLAS node boxes are recomputed bottom-up as exact unions
    /// ([`Bvh4::refit_with`]).  No-op on flat scenes.
    ///
    /// Because the refit boxes contain exactly the same geometry a fresh TLAS build would
    /// bound, a refit scene re-traces **bit-identical hits** to a freshly built one (the tree
    /// shapes — and therefore the statistics — may differ).
    pub fn refit(&mut self) {
        if let SceneRepr::Instanced(scene) = &mut self.repr {
            let bounds = InstancedScene::instance_bounds(&scene.blas, &scene.instances);
            scene.tlas.refit_with(&bounds);
        }
    }

    /// Resident size of the acceleration structures and geometry, in bytes — the memory axis of
    /// the instancing benchmarks (flattening multiplies triangle storage by the instance count;
    /// instancing does not).
    ///
    /// Per mesh this counts the 128-byte internal nodes (leaves cost no node: they live in
    /// their parent's slot), the 4-byte id map, the leaf-order triangles and the 4-byte inverse
    /// map; an instanced scene adds the TLAS (nodes and id map), the instance table and the
    /// per-instance primitive bases.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        match &self.repr {
            SceneRepr::Flat(mesh) => mesh.memory_bytes(),
            SceneRepr::Instanced(scene) => {
                let blas: usize = scene.blas.iter().map(Blas::memory_bytes).sum();
                blas + bvh_bytes(&scene.tlas)
                    + scene.instances.len() * core::mem::size_of::<Instance>()
                    + scene.prim_base.len() * core::mem::size_of::<usize>()
            }
        }
    }

    /// The borrowed traversal view of this scene.
    pub(crate) fn view(&self) -> SceneView<'_> {
        match &self.repr {
            SceneRepr::Flat(mesh) => SceneView::Flat(mesh),
            SceneRepr::Instanced(scene) => SceneView::Instanced(scene),
        }
    }

    /// Mutable instance access for the fault-injection harness ([`crate::fault`]), which
    /// deliberately corrupts placements to exercise the validator; deliberately does **not**
    /// refit, so the corruption is observable.
    pub(crate) fn instances_mut(&mut self) -> Option<&mut Vec<Instance>> {
        match &mut self.repr {
            SceneRepr::Flat(_) => None,
            SceneRepr::Instanced(scene) => Some(&mut scene.instances),
        }
    }
}

// --- Traversal handles -----------------------------------------------------------------------
//
// Two-level traversal walks nodes of several BVHs with one stack, so stack (and pending-leaf)
// entries are 64-bit *handles*: the low 32 bits hold a [`ChildRef`] on the stack (an internal
// node index, or an inline leaf's range — so popping a leaf reads no node) or a leaf position in
// the pending queue; the next 31 bits carry the context — 0 for the top-level structure (the flat
// BVH, or the TLAS), `k + 1` for instance `k`'s BLAS.  Box-beat tags reuse the same encoding so
// a response finds its children table; the top bit is `TLAS_PHASE_TAG`, set on TLAS-phase box
// beats for the datapath's beat attribution and masked off before decoding.

/// Context id of the top-level structure (flat BVH or TLAS).
pub(crate) const TOP_CTX: u32 = 0;

/// Encodes a (context, low word) pair as a traversal handle.
#[inline]
pub(crate) fn handle(ctx: u32, low: u32) -> u64 {
    (u64::from(ctx) << 32) | u64::from(low)
}

/// The context of a handle (TLAS phase tag tolerated and masked).
#[inline]
pub(crate) fn handle_ctx(handle: u64) -> u32 {
    ((handle & !TLAS_PHASE_TAG) >> 32) as u32
}

/// The low word of a handle: a [`ChildRef`]'s bits, or a leaf position.
#[inline]
pub(crate) fn handle_low(handle: u64) -> u32 {
    handle as u32
}

/// A borrowed, `Copy` view of a scene — what the traversal internals, the parallel shard
/// workers and the frame tracer thread through.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SceneView<'a> {
    /// One flat mesh: a BVH over triangles stored in its leaf order.
    Flat(&'a Blas),
    /// A two-level instanced scene.
    Instanced(&'a InstancedScene),
}

/// The bounds operand of a box beat: the node's stored bounds (flat/TLAS phases), which the
/// beat fetches from the node table, or a transformed per-visit copy (BLAS phase under an
/// instance transform).
pub(crate) enum BoxBounds {
    /// Bounds used as stored.
    Stored,
    /// Bounds transformed into world space for this visit.
    Owned([Aabb; 4]),
}

/// What a traversal does after popping a stack handle: the traversal state machine's one
/// node-expansion step.
pub(crate) enum NodeStep<'a> {
    /// An internal node: issue one ray–box beat with `tag`, testing `bounds`; the response
    /// resolves its hit slots through [`SceneView::children_for_tag`].
    BoxBeat {
        /// The beat tag (handle of this node, TLAS-phase bit included where applicable).
        tag: u64,
        /// The four child slot bounds to test.
        bounds: BoxBounds,
        /// `true` when this is a TLAS-phase beat (for the TLAS statistics split).
        tlas: bool,
    },
    /// A geometry leaf: extend the pending queue with these leaf positions (encoded into
    /// `ctx`), to be triangle-tested in leaf order.
    Leaf {
        /// The leaf's positions in its mesh's leaf-order triangle table.
        positions: Range<u32>,
        /// Context the triangles live in.
        ctx: u32,
    },
    /// A TLAS leaf: descend into these instances (push each instance's BLAS root, in leaf
    /// order).
    Instances {
        /// Instance indices of the TLAS leaf.
        ids: &'a [u32],
    },
}

impl<'a> SceneView<'a> {
    /// The handle traversal starts from.
    #[inline]
    pub(crate) fn root_handle(&self) -> u64 {
        let root = match self {
            SceneView::Flat(mesh) => mesh.bvh.root(),
            SceneView::Instanced(scene) => scene.tlas.root(),
        };
        handle(TOP_CTX, root.bits())
    }

    /// Total primitives addressable by global id.
    pub(crate) fn triangle_count(&self) -> usize {
        match self {
            SceneView::Flat(mesh) => mesh.triangle_count(),
            SceneView::Instanced(scene) => scene.total_primitives,
        }
    }

    /// Expands a popped stack handle into its traversal step.  A leaf, and a flat or TLAS
    /// internal node, is decoded from the handle alone (the box beat names its node, and the
    /// kernels fetch the bounds); only BLAS-phase nodes read the node table here.
    ///
    /// BLAS-phase internal nodes get their stored child bounds conservatively transformed into
    /// world space per visit (absent slots keep the canonical never-hit `f32::MAX` point box,
    /// untransformed, so their behaviour matches a flat traversal's padding exactly).
    pub(crate) fn step(&self, popped: u64) -> NodeStep<'a> {
        let ctx = handle_ctx(popped);
        let child = ChildRef::from_bits(handle_low(popped));
        if let Some(positions) = child.leaf_range() {
            return match self {
                SceneView::Instanced(scene) if ctx == TOP_CTX => NodeStep::Instances {
                    ids: scene.tlas.leaf_primitives(child),
                },
                _ => NodeStep::Leaf { positions, ctx },
            };
        }
        match self {
            SceneView::Flat(_) => NodeStep::BoxBeat {
                tag: handle(TOP_CTX, child.bits()),
                bounds: BoxBounds::Stored,
                tlas: false,
            },
            SceneView::Instanced(_) if ctx == TOP_CTX => NodeStep::BoxBeat {
                tag: handle(TOP_CTX, child.bits()) | TLAS_PHASE_TAG,
                bounds: BoxBounds::Stored,
                tlas: true,
            },
            SceneView::Instanced(scene) => {
                let instance = &scene.instances[ctx as usize - 1];
                let node = scene.blas[instance.blas]
                    .bvh
                    .node(handle_low(popped) as usize);
                let mut bounds = node.child_bounds;
                for (slot, grandchild) in node.children.iter().enumerate() {
                    if !grandchild.is_empty() {
                        bounds[slot] = node.child_bounds[slot].transformed(&instance.transform);
                    }
                }
                NodeStep::BoxBeat {
                    tag: handle(ctx, child.bits()),
                    bounds: BoxBounds::Owned(bounds),
                    tlas: false,
                }
            }
        }
    }

    /// The children table (and child context) of the internal node a box-beat response with
    /// `tag` tested — the apply-phase twin of [`SceneView::step`].
    pub(crate) fn children_for_tag(&self, tag: u64) -> (&'a [ChildRef; 4], u32) {
        let ctx = handle_ctx(tag);
        let bvh = match self {
            SceneView::Flat(mesh) => &mesh.bvh,
            SceneView::Instanced(scene) if ctx == TOP_CTX => &scene.tlas,
            SceneView::Instanced(scene) => &scene.blas[scene.instances[ctx as usize - 1].blas].bvh,
        };
        (&bvh.node(handle_low(tag) as usize).children, ctx)
    }

    /// The handle of the BLAS root entered by descending into instance `instance_index` —
    /// what a TLAS leaf pushes per instance.
    #[inline]
    pub(crate) fn instance_root(&self, instance_index: u32) -> u64 {
        match self {
            SceneView::Flat(_) => unreachable!("flat scenes have no instances"),
            SceneView::Instanced(scene) => {
                let instance = &scene.instances[instance_index as usize];
                handle(
                    instance_index + 1,
                    scene.blas[instance.blas].bvh.root().bits(),
                )
            }
        }
    }

    /// The mesh a pending-queue entry's context names (instanced entries always carry a BLAS
    /// context).
    #[inline]
    fn pending_mesh(&self, ctx: u32) -> &'a Blas {
        match self {
            SceneView::Flat(mesh) => mesh,
            SceneView::Instanced(scene) => &scene.blas[scene.instances[ctx as usize - 1].blas],
        }
    }

    /// The global primitive id behind a pending-queue entry (the id reported in hits): the
    /// leaf position mapped back to the caller's id, offset by the instance base.
    #[inline]
    pub(crate) fn global_primitive(&self, pending: u64) -> usize {
        let ctx = handle_ctx(pending);
        let id = self.pending_mesh(ctx).bvh.primitive_ids()[handle_low(pending) as usize] as usize;
        match self {
            SceneView::Flat(_) => id,
            SceneView::Instanced(scene) => scene.prim_base[ctx as usize - 1] + id,
        }
    }

    /// The world-space triangle behind a pending-queue entry.
    #[inline]
    pub(crate) fn pending_triangle(&self, pending: u64) -> Triangle {
        let ctx = handle_ctx(pending);
        let triangle = self.pending_mesh(ctx).leaf_triangles[handle_low(pending) as usize];
        match self {
            SceneView::Flat(_) => triangle,
            SceneView::Instanced(scene) => {
                triangle.transformed(&scene.instances[ctx as usize - 1].transform)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayflex_geometry::Vec3;

    fn shard() -> Vec<Triangle> {
        vec![
            Triangle::new(
                Vec3::new(-0.5, -0.5, 0.0),
                Vec3::new(0.5, -0.5, 0.0),
                Vec3::new(0.0, 0.5, 0.0),
            ),
            Triangle::new(
                Vec3::new(-0.5, -0.5, 0.2),
                Vec3::new(0.0, 0.5, 0.2),
                Vec3::new(0.5, -0.5, 0.2),
            ),
        ]
    }

    fn two_instance_scene() -> Scene {
        Scene::instanced(
            vec![Blas::new(shard())],
            vec![
                Instance::new(0, Affine::translation(Vec3::new(0.0, 0.0, 3.0))),
                Instance::new(0, Affine::translation(Vec3::new(2.0, 0.0, 5.0))),
            ],
        )
    }

    #[test]
    fn flatten_preserves_global_primitive_ids_bit_exactly() {
        let scene = two_instance_scene();
        let flattened = scene.flatten();
        assert_eq!(flattened.triangle_count(), scene.triangle_count());
        for prim in 0..scene.triangle_count() {
            let a = scene.triangle(prim);
            let b = flattened.triangle(prim);
            assert_eq!(
                a.v0.to_array().map(f32::to_bits),
                b.v0.to_array().map(f32::to_bits)
            );
            assert_eq!(
                a.v1.to_array().map(f32::to_bits),
                b.v1.to_array().map(f32::to_bits)
            );
            assert_eq!(
                a.v2.to_array().map(f32::to_bits),
                b.v2.to_array().map(f32::to_bits)
            );
        }
    }

    #[test]
    fn handles_round_trip_context_and_index() {
        let h = handle(7, 123);
        assert_eq!(handle_ctx(h), 7);
        assert_eq!(handle_low(h), 123);
        assert_eq!(handle_ctx(h | TLAS_PHASE_TAG), 7);
        assert_eq!(handle_low(h | TLAS_PHASE_TAG), 123);
        // A leaf reference survives the round trip with its range intact.
        let leaf = ChildRef::leaf(40, 3);
        let h = handle(2, leaf.bits());
        assert_eq!(
            ChildRef::from_bits(handle_low(h)).leaf_range(),
            Some(40..43)
        );
    }

    #[test]
    fn tlas_bounds_contain_every_instanced_triangle() {
        let scene = two_instance_scene();
        let tlas = scene.tlas().expect("instanced scene has a TLAS");
        let bounds = tlas.scene_bounds();
        for prim in 0..scene.triangle_count() {
            let tri = scene.triangle(prim);
            assert!(bounds.contains(tri.v0) && bounds.contains(tri.v1) && bounds.contains(tri.v2));
        }
    }

    #[test]
    fn refit_follows_moved_instances() {
        let mut scene = two_instance_scene();
        scene.set_instance_transform(1, Affine::translation(Vec3::new(50.0, 0.0, 5.0)));
        scene.refit();
        let bounds = scene.tlas().expect("tlas").scene_bounds();
        for prim in 0..scene.triangle_count() {
            let tri = scene.triangle(prim);
            assert!(bounds.contains(tri.v0), "refit lost {prim}");
        }
    }

    #[test]
    fn memory_accounting_shows_the_instancing_advantage() {
        // A mesh dense enough that triangle storage dominates the per-instance TLAS overhead.
        let mesh: Vec<Triangle> = (0..32)
            .flat_map(|i| {
                let dz = i as f32 * 0.05;
                shard().into_iter().map(move |tri| {
                    Triangle::new(
                        tri.v0 + Vec3::new(0.0, 0.0, dz),
                        tri.v1 + Vec3::new(0.0, 0.0, dz),
                        tri.v2 + Vec3::new(0.0, 0.0, dz),
                    )
                })
            })
            .collect();
        let instances: Vec<Instance> = (0..64)
            .map(|i| Instance::new(0, Affine::translation(Vec3::new(i as f32 * 2.0, 0.0, 4.0))))
            .collect();
        let instanced = Scene::instanced(vec![Blas::new(mesh)], instances);
        let flattened = instanced.flatten();
        assert!(instanced.memory_bytes() < flattened.memory_bytes() / 4);
    }

    #[test]
    fn locate_maps_global_ids_to_instances() {
        let scene = two_instance_scene();
        let SceneView::Instanced(inner) = scene.view() else {
            panic!("expected instanced view");
        };
        assert_eq!(inner.locate(0), (0, 0));
        assert_eq!(inner.locate(1), (0, 1));
        assert_eq!(inner.locate(2), (1, 0));
        assert_eq!(inner.locate(3), (1, 1));
    }
}
