//! A four-wide bounding volume hierarchy matching the datapath's four-boxes-per-beat interface.

use core::fmt;
use core::ops::Range;

use rayflex_geometry::{Aabb, Sphere, Triangle, Vec3};

/// Anything that can be bounded by an axis-aligned box and therefore placed in a BVH.
pub trait Primitive {
    /// The primitive's axis-aligned bounds.
    fn bounds(&self) -> Aabb;
}

impl Primitive for Triangle {
    fn bounds(&self) -> Aabb {
        Triangle::bounds(self)
    }
}

impl Primitive for Sphere {
    fn bounds(&self) -> Aabb {
        Sphere::bounds(self)
    }
}

impl Primitive for Aabb {
    fn bounds(&self) -> Aabb {
        *self
    }
}

/// A 32-bit reference to one child of a [`Bvh4Node`] slot (or to the root of a [`Bvh4`]):
/// either the index of an internal node, or an inline leaf `(first, count)` over the tree's
/// leaf-order primitive table ([`Bvh4::primitive_ids`]).
///
/// Bit 31 clear: internal node `bits`.  Bit 31 set: a leaf, with `count` in bits 27..31 and
/// `first` in bits 0..27.  A leaf therefore costs no node of its own: traversal reads its range
/// straight out of the reference it popped.  [`ChildRef::EMPTY`] — the zero-primitive leaf at
/// offset 0 — marks an absent slot, and is the root of a tree over no primitives.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChildRef(u32);

impl ChildRef {
    const LEAF_BIT: u32 = 1 << 31;
    const COUNT_SHIFT: u32 = 27;
    const FIRST_MASK: u32 = (1 << Self::COUNT_SHIFT) - 1;

    /// An absent child slot (and the root of an empty tree).
    pub const EMPTY: ChildRef = ChildRef(Self::LEAF_BIT);
    /// The most primitives one inline leaf can hold.
    pub const MAX_LEAF_SIZE: usize = 15;
    /// The most primitives one tree can index (the width of a leaf's `first` field).
    pub const MAX_PRIMITIVES: usize = 1 << Self::COUNT_SHIFT;

    /// A reference to internal node `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in 31 bits.
    #[must_use]
    pub(crate) fn node(index: usize) -> Self {
        assert!(
            index < Self::LEAF_BIT as usize,
            "node index {index} overflows a child reference"
        );
        ChildRef(index as u32)
    }

    /// An inline leaf over leaf positions `first..first + count`.
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds [`ChildRef::MAX_LEAF_SIZE`] or `first` does not fit in 27 bits.
    #[must_use]
    pub(crate) fn leaf(first: usize, count: usize) -> Self {
        assert!(
            count <= Self::MAX_LEAF_SIZE,
            "leaf of {count} primitives overflows its slot"
        );
        assert!(
            first < Self::MAX_PRIMITIVES,
            "leaf offset {first} overflows its slot"
        );
        ChildRef(Self::LEAF_BIT | (count as u32) << Self::COUNT_SHIFT | first as u32)
    }

    /// Reinterprets raw bits (as stored in a traversal handle).
    #[must_use]
    pub(crate) fn from_bits(bits: u32) -> Self {
        ChildRef(bits)
    }

    /// The raw 32-bit encoding.
    #[must_use]
    pub(crate) fn bits(self) -> u32 {
        self.0
    }

    /// `true` for [`ChildRef::EMPTY`].
    #[must_use]
    pub fn is_empty(self) -> bool {
        self == Self::EMPTY
    }

    /// The internal node index, or `None` for a leaf.
    #[must_use]
    pub fn node_index(self) -> Option<usize> {
        (self.0 & Self::LEAF_BIT == 0).then_some(self.0 as usize)
    }

    /// The leaf's positions in the leaf-order primitive table, or `None` for an internal node.
    #[must_use]
    pub fn leaf_range(self) -> Option<Range<u32>> {
        (self.0 & Self::LEAF_BIT != 0).then(|| {
            let first = self.0 & Self::FIRST_MASK;
            first..first + ((self.0 & !Self::LEAF_BIT) >> Self::COUNT_SHIFT)
        })
    }
}

impl fmt::Debug for ChildRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.leaf_range() {
            Some(range) => write!(f, "Leaf({range:?})"),
            None => write!(f, "Node({})", self.0),
        }
    }
}

/// One internal node of the four-wide BVH: the four child boxes a single ray–box beat tests,
/// and the four child references.  112 bytes of payload in one 64-byte-aligned, 128-byte slot —
/// two cache lines, never straddling a third.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C, align(64))]
pub struct Bvh4Node {
    /// Bounds of each child slot.  Absent slots hold the point box at `f32::MAX`, which no
    /// finite-extent ray can hit, so the table is beat-ready as stored — traversal loops hand it
    /// straight to [`rayflex_core::RayFlexRequest`] without per-visit padding.
    pub child_bounds: [Aabb; 4],
    /// The child in each slot, aligned with `child_bounds`; absent slots hold
    /// [`ChildRef::EMPTY`].
    pub children: [ChildRef; 4],
}

impl Bvh4Node {
    /// A node with four absent slots.
    const ABSENT: Bvh4Node = Bvh4Node {
        child_bounds: [Aabb::new(Vec3::splat(f32::MAX), Vec3::splat(f32::MAX)); 4],
        children: [ChildRef::EMPTY; 4],
    };
}

/// A four-wide bounding volume hierarchy (paper Fig. 1, with the RDNA-style four-children node
/// format of §III-A).
///
/// Only internal nodes are stored ([`Bvh4Node`], pre-order, so an internal root is node 0);
/// leaves live inline in their parent's child slot as a [`ChildRef`] range over
/// [`Bvh4::primitive_ids`], the caller's primitive ids in leaf order.  A leaf's primitives are
/// therefore contiguous in that order, which is the order [`crate::Scene`] stores triangles in.
#[derive(Debug, Clone, PartialEq)]
pub struct Bvh4 {
    nodes: Vec<Bvh4Node>,
    root: ChildRef,
    primitive_ids: Vec<u32>,
    bounds: Aabb,
    max_leaf_size: usize,
}

impl Bvh4 {
    /// Default maximum number of primitives per leaf.
    pub const DEFAULT_LEAF_SIZE: usize = 4;

    /// Builds a BVH over a slice of primitives with the default leaf size.
    ///
    /// # Panics
    ///
    /// Panics if there are more than [`ChildRef::MAX_PRIMITIVES`] primitives.
    #[must_use]
    pub fn build<P: Primitive>(primitives: &[P]) -> Self {
        Self::build_with_leaf_size(primitives, Self::DEFAULT_LEAF_SIZE)
    }

    /// Builds a BVH with an explicit maximum leaf size (1 to [`ChildRef::MAX_LEAF_SIZE`]).
    ///
    /// # Panics
    ///
    /// Panics if `max_leaf_size` is zero or above [`ChildRef::MAX_LEAF_SIZE`], or if there are
    /// more than [`ChildRef::MAX_PRIMITIVES`] primitives.
    #[must_use]
    pub fn build_with_leaf_size<P: Primitive>(primitives: &[P], max_leaf_size: usize) -> Self {
        assert!(
            max_leaf_size >= 1,
            "leaf size must be at least one primitive"
        );
        assert!(
            max_leaf_size <= ChildRef::MAX_LEAF_SIZE,
            "leaf size must fit an inline leaf ({} primitives)",
            ChildRef::MAX_LEAF_SIZE
        );
        assert!(
            primitives.len() <= ChildRef::MAX_PRIMITIVES,
            "{} primitives overflow the leaf offset field",
            primitives.len()
        );
        let bounds: Vec<Aabb> = primitives.iter().map(Primitive::bounds).collect();
        let centroids: Vec<_> = bounds.iter().map(Aabb::centroid).collect();
        let scene_bounds = bounds.iter().fold(Aabb::empty(), |acc, b| acc.union(b));
        let mut ids: Vec<u32> = (0..primitives.len() as u32).collect();
        let mut builder = Builder {
            bounds: &bounds,
            centroids: &centroids,
            nodes: Vec::new(),
            max_leaf_size,
        };
        let root = builder.build_node(&mut ids, 0);
        let mut nodes = builder.nodes;
        nodes.shrink_to_fit();
        Bvh4 {
            nodes,
            root,
            primitive_ids: ids,
            bounds: scene_bounds,
            max_leaf_size,
        }
    }

    /// The root: internal node 0, or — for trees of at most one leaf — the leaf itself.
    #[must_use]
    pub fn root(&self) -> ChildRef {
        self.root
    }

    /// The internal-node table.
    #[must_use]
    pub fn nodes(&self) -> &[Bvh4Node] {
        &self.nodes
    }

    /// One internal node by index.
    #[must_use]
    pub fn node(&self, index: usize) -> &Bvh4Node {
        &self.nodes[index]
    }

    /// The caller's primitive ids in leaf order: leaf position `k` holds primitive
    /// `primitive_ids()[k]`.
    #[must_use]
    pub fn primitive_ids(&self) -> &[u32] {
        &self.primitive_ids
    }

    /// The primitive ids of a leaf reference, in leaf order.
    ///
    /// # Panics
    ///
    /// Panics if `leaf` refers to an internal node or reaches past the id table.
    #[must_use]
    pub fn leaf_primitives(&self, leaf: ChildRef) -> &[u32] {
        let Some(range) = leaf.leaf_range() else {
            panic!("{leaf:?} is not a leaf");
        };
        &self.primitive_ids[range.start as usize..range.end as usize]
    }

    /// Mutable access to the node table and the root — for the fault-injection harness
    /// ([`crate::fault`]) only, which deliberately corrupts topology to exercise the
    /// [`SceneValidator`](crate::SceneValidator).  Not public: a `Bvh4` built by
    /// [`Bvh4::build`] is otherwise always well-formed.
    pub(crate) fn topology_mut(&mut self) -> (&mut [Bvh4Node], &mut ChildRef) {
        (&mut self.nodes, &mut self.root)
    }

    /// The bounds of the whole scene.
    #[must_use]
    pub fn scene_bounds(&self) -> Aabb {
        self.bounds
    }

    /// Number of nodes in the hierarchy, leaves included (1 for a single leaf): the root plus
    /// every occupied child slot.
    #[must_use]
    pub fn node_count(&self) -> usize {
        1 + self
            .nodes
            .iter()
            .flat_map(|node| node.children)
            .filter(|child| !child.is_empty())
            .count()
    }

    /// The maximum leaf size the tree was built with.
    #[must_use]
    pub fn max_leaf_size(&self) -> usize {
        self.max_leaf_size
    }

    /// Maximum depth of the tree (1 for a single leaf).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth_of(self.root)
    }

    /// Refits every node's child bounds to new per-primitive bounds **without changing the
    /// topology**: leaves keep their primitive runs, internal nodes keep their children, and
    /// only the stored `child_bounds` (and the scene bounds) are recomputed bottom-up.
    ///
    /// This is the TLAS refit primitive of [`crate::Scene::refit`]: after instance transforms
    /// move, the tree's boxes follow the new bounds exactly (each slot becomes the exact union
    /// of its subtree's primitive bounds), so containment — and therefore hit correctness — is
    /// preserved even though the split structure may no longer be the one a fresh build would
    /// choose.  Absent child slots keep their never-hit `f32::MAX` point boxes.
    ///
    /// # Panics
    ///
    /// Panics if `prim_bounds` is shorter than the primitive index space the tree was built
    /// over.
    pub fn refit_with(&mut self, prim_bounds: &[Aabb]) {
        self.bounds = self.refit_child(self.root, prim_bounds);
    }

    fn refit_child(&mut self, child: ChildRef, prim_bounds: &[Aabb]) -> Aabb {
        let Some(index) = child.node_index() else {
            return self
                .leaf_primitives(child)
                .iter()
                .map(|&id| prim_bounds[id as usize])
                .fold(Aabb::empty(), |acc, b| acc.union(&b));
        };
        let children = self.nodes[index].children;
        let mut total = Aabb::empty();
        for (slot, grandchild) in children.into_iter().enumerate() {
            if !grandchild.is_empty() {
                let refit = self.refit_child(grandchild, prim_bounds);
                self.nodes[index].child_bounds[slot] = refit;
                total = total.union(&refit);
            }
        }
        total
    }

    fn depth_of(&self, child: ChildRef) -> usize {
        child.node_index().map_or(1, |index| {
            1 + self.nodes[index]
                .children
                .iter()
                .filter(|grandchild| !grandchild.is_empty())
                .map(|&grandchild| self.depth_of(grandchild))
                .max()
                .unwrap_or(0)
        })
    }
}

struct Builder<'a> {
    bounds: &'a [Aabb],
    centroids: &'a [Vec3],
    nodes: Vec<Bvh4Node>,
    max_leaf_size: usize,
}

impl Builder<'_> {
    /// Builds the subtree over `ids` (a sub-slice starting at leaf position `first`), emitting
    /// its internal nodes in pre-order and returning the reference its parent slot stores.
    fn build_node(&mut self, ids: &mut [u32], first: usize) -> ChildRef {
        if ids.len() <= self.max_leaf_size {
            return ChildRef::leaf(first, ids.len());
        }
        // Split into four partitions: a median split along the longest centroid axis, applied
        // twice (binary split, then each half split again).
        let quarters = self.partition_into_four(ids);
        // Reserve our slot before recursing so the root lands at index 0.
        let node_index = self.nodes.len();
        self.nodes.push(Bvh4Node::ABSENT);
        // Absent slots keep the never-hit point box at +MAX (see the field docs): padding once
        // at build time keeps the per-beat path free of slot fixups.
        let mut node = Bvh4Node::ABSENT;
        let mut offset = 0usize;
        for (slot, quarter_len) in quarters.into_iter().enumerate() {
            if quarter_len == 0 {
                continue;
            }
            let (chunk, _) = ids[offset..].split_at_mut(quarter_len);
            node.child_bounds[slot] = chunk
                .iter()
                .fold(Aabb::empty(), |acc, &i| acc.union(&self.bounds[i as usize]));
            node.children[slot] = self.build_node(chunk, first + offset);
            offset += quarter_len;
        }
        self.nodes[node_index] = node;
        ChildRef::node(node_index)
    }

    /// Splits the id slice into four contiguous partitions by recursive median splits along the
    /// longest centroid axis; returns the partition lengths (which sum to the slice length).
    fn partition_into_four(&self, ids: &mut [u32]) -> [usize; 4] {
        let mid = self.median_split(ids);
        let (left, right) = ids.split_at_mut(mid);
        let left_mid = self.median_split(left);
        let right_mid = self.median_split(right);
        [
            left_mid,
            left.len() - left_mid,
            right_mid,
            right.len() - right_mid,
        ]
    }

    /// Sorts the slice along the longest centroid axis and returns the median split point.
    fn median_split(&self, ids: &mut [u32]) -> usize {
        if ids.len() < 2 {
            return ids.len();
        }
        let centroid_bounds = ids.iter().fold(Aabb::empty(), |acc, &i| {
            acc.union_point(self.centroids[i as usize])
        });
        let axis = centroid_bounds.longest_axis();
        ids.sort_by(|&a, &b| {
            self.centroids[a as usize]
                .axis(axis)
                .partial_cmp(&self.centroids[b as usize].axis(axis))
                .unwrap_or(core::cmp::Ordering::Equal)
        });
        ids.len() / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayflex_geometry::Vec3;

    fn grid_triangles(n: usize) -> Vec<Triangle> {
        (0..n)
            .map(|i| {
                let x = (i % 10) as f32 * 3.0;
                let y = ((i / 10) % 10) as f32 * 3.0;
                let z = (i / 100) as f32 * 3.0;
                Triangle::new(
                    Vec3::new(x, y, z),
                    Vec3::new(x + 1.0, y, z),
                    Vec3::new(x, y + 1.0, z),
                )
            })
            .collect()
    }

    #[test]
    fn builds_a_single_leaf_for_tiny_scenes() {
        let tris = grid_triangles(3);
        let bvh = Bvh4::build(&tris);
        assert_eq!(bvh.node_count(), 1);
        assert_eq!(bvh.depth(), 1);
        assert_eq!(bvh.leaf_primitives(bvh.root()).len(), 3);
    }

    #[test]
    fn every_primitive_appears_exactly_once() {
        let tris = grid_triangles(250);
        let bvh = Bvh4::build(&tris);
        let mut seen = vec![false; tris.len()];
        for &i in bvh.primitive_ids() {
            assert!(!seen[i as usize], "primitive {i} referenced twice");
            seen[i as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert!(bvh.node_count() > 1);
        assert!(bvh.depth() >= 2);
    }

    #[test]
    fn child_bounds_contain_their_subtrees() {
        let tris = grid_triangles(120);
        let bvh = Bvh4::build(&tris);
        fn check(bvh: &Bvh4, tris: &[Triangle], child: ChildRef, bounds: &Aabb) {
            let Some(index) = child.node_index() else {
                for &p in bvh.leaf_primitives(child) {
                    let tb = tris[p as usize].bounds();
                    assert!(bounds.contains(tb.min) && bounds.contains(tb.max));
                }
                return;
            };
            let node = bvh.node(index);
            for (&grandchild, cb) in node.children.iter().zip(&node.child_bounds) {
                if !grandchild.is_empty() {
                    check(bvh, tris, grandchild, cb);
                }
            }
        }
        check(&bvh, &tris, bvh.root(), &bvh.scene_bounds());
    }

    #[test]
    fn leaf_size_is_respected() {
        let tris = grid_triangles(300);
        for leaf_size in [1usize, 2, 4, 8] {
            let bvh = Bvh4::build_with_leaf_size(&tris, leaf_size);
            for (i, node) in bvh.nodes().iter().enumerate() {
                for leaf in node.children.iter().filter_map(|child| child.leaf_range()) {
                    let count = leaf.len();
                    assert!(
                        count <= leaf_size,
                        "node {i} has a leaf of {count} > {leaf_size}"
                    );
                }
            }
            assert_eq!(bvh.max_leaf_size(), leaf_size);
        }
    }

    #[test]
    fn empty_scenes_build_an_empty_leaf() {
        let bvh = Bvh4::build::<Triangle>(&[]);
        assert_eq!(bvh.node_count(), 1);
        assert!(bvh.nodes().is_empty());
        assert_eq!(bvh.root(), ChildRef::EMPTY);
        assert_eq!(bvh.leaf_primitives(bvh.root()).len(), 0);
        assert!(bvh.scene_bounds().is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one primitive")]
    fn zero_leaf_size_is_rejected() {
        let _ = Bvh4::build_with_leaf_size(&grid_triangles(5), 0);
    }

    #[test]
    fn spheres_and_boxes_are_primitives_too() {
        let spheres = vec![
            Sphere::new(Vec3::ZERO, 1.0),
            Sphere::new(Vec3::new(5.0, 0.0, 0.0), 0.5),
            Sphere::new(Vec3::new(0.0, 5.0, 0.0), 0.25),
            Sphere::new(Vec3::new(0.0, 0.0, 5.0), 2.0),
            Sphere::new(Vec3::new(5.0, 5.0, 5.0), 1.0),
        ];
        let bvh = Bvh4::build(&spheres);
        assert!(bvh.scene_bounds().contains(Vec3::new(5.0, 5.0, 5.0)));
        let boxes = vec![Aabb::new(Vec3::ZERO, Vec3::ONE); 6];
        let bvh = Bvh4::build(&boxes);
        assert_eq!(bvh.primitive_ids().len(), 6);
    }

    #[test]
    fn nodes_fill_two_cache_lines_exactly() {
        assert_eq!(core::mem::size_of::<Bvh4Node>(), 128);
        assert_eq!(core::mem::align_of::<Bvh4Node>(), 64);
        assert_eq!(core::mem::size_of::<ChildRef>(), 4);
    }

    #[test]
    fn child_references_round_trip_nodes_and_leaves() {
        let node = ChildRef::node(12_345);
        assert_eq!(node.node_index(), Some(12_345));
        assert_eq!(node.leaf_range(), None);
        let leaf = ChildRef::leaf(ChildRef::MAX_PRIMITIVES - 1, ChildRef::MAX_LEAF_SIZE);
        assert_eq!(leaf.node_index(), None);
        let first = (ChildRef::MAX_PRIMITIVES - 1) as u32;
        assert_eq!(leaf.leaf_range(), Some(first..first + 15));
        assert_eq!(ChildRef::from_bits(leaf.bits()), leaf);
        assert_eq!(ChildRef::leaf(0, 0), ChildRef::EMPTY);
        assert!(!ChildRef::leaf(0, 1).is_empty());
        assert_eq!(
            format!("{node:?} {:?}", ChildRef::leaf(8, 3)),
            "Node(12345) Leaf(8..11)"
        );
    }

    #[test]
    fn leaves_live_in_their_parents_slots_and_only_internal_nodes_are_stored() {
        let tris = grid_triangles(250);
        let bvh = Bvh4::build(&tris);
        let leaves: usize = bvh
            .nodes()
            .iter()
            .flat_map(|node| node.children)
            .filter(|child| child.leaf_range().is_some_and(|r| !r.is_empty()))
            .count();
        assert_eq!(bvh.node_count(), bvh.nodes().len() + leaves);
        assert_eq!(bvh.root(), ChildRef::node(0));
        // Leaf ranges tile the id table in pre-order: each leaf starts where the last ended.
        let mut next = 0u32;
        let mut stack = vec![bvh.root()];
        while let Some(child) = stack.pop() {
            match child.node_index() {
                Some(index) => stack.extend(bvh.node(index).children.iter().rev()),
                None => {
                    let range = child.leaf_range().unwrap();
                    if !range.is_empty() {
                        assert_eq!(range.start, next);
                        next = range.end;
                    }
                }
            }
        }
        assert_eq!(next as usize, tris.len());
    }

    #[test]
    #[should_panic(expected = "fit an inline leaf")]
    fn oversized_leaves_are_rejected() {
        let _ = Bvh4::build_with_leaf_size(&grid_triangles(5), ChildRef::MAX_LEAF_SIZE + 1);
    }
}
