//! Property-based tests of the BVH builder, its compact layout and the traversal engine: every
//! primitive appears exactly once in leaf order, every child reference is in range, bounds
//! contain their subtrees, the scene's leaf-order triangles are the caller's triangles under the
//! id map, and for arbitrary random scenes the BVH traversal through the datapath finds exactly
//! the same closest hit — reported under the caller's id — as a brute-force golden scan.

use proptest::prelude::*;

use rayflex_geometry::{golden, Ray, Triangle, Vec3};
use rayflex_rtunit::{Bvh4, ChildRef, ExecPolicy, Scene, TraceRequest, TraversalEngine};

fn coordinate() -> impl Strategy<Value = f32> {
    -50.0f32..50.0
}

fn vec3() -> impl Strategy<Value = Vec3> {
    (coordinate(), coordinate(), coordinate()).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

fn triangle() -> impl Strategy<Value = Triangle> {
    (vec3(), vec3(), vec3())
        .prop_map(|(a, b, c)| Triangle::new(a, b, c))
        .prop_filter("non-degenerate", |t| t.area() > 1e-3)
}

fn scene() -> impl Strategy<Value = Vec<Triangle>> {
    prop::collection::vec(triangle(), 1..40)
}

/// Soups large enough for several tree levels at every leaf size.
fn soup() -> impl Strategy<Value = Vec<Triangle>> {
    prop::collection::vec(triangle(), 1..160)
}

fn leaf_size() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(2), Just(4), Just(8)]
}

fn ray() -> impl Strategy<Value = Ray> {
    (vec3(), vec3()).prop_filter_map("non-zero direction", |(origin, toward)| {
        let dir = toward - origin;
        if dir.length_squared() > 1e-6 {
            Some(Ray::new(origin, dir))
        } else {
            None
        }
    })
}

/// Brute-force golden closest hit.
fn brute_force(triangles: &[Triangle], ray: &Ray) -> Option<(usize, f32)> {
    let mut best: Option<(usize, f32)> = None;
    for (i, tri) in triangles.iter().enumerate() {
        let hit = golden::watertight::ray_triangle(ray, tri);
        if hit.hit {
            let t = hit.distance();
            if t >= ray.t_beg && t <= ray.t_end && best.is_none_or(|(_, bt)| t < bt) {
                best = Some((i, t));
            }
        }
    }
    best
}

/// Every child reference of the tree (the root first, then each node's four slots).
fn references(bvh: &Bvh4) -> Vec<ChildRef> {
    core::iter::once(bvh.root())
        .chain(bvh.nodes().iter().flat_map(|node| node.children))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_primitive_is_indexed_exactly_once(triangles in soup(), leaf_size in leaf_size()) {
        let bvh = Bvh4::build_with_leaf_size(&triangles, leaf_size);
        let mut seen = vec![0usize; triangles.len()];
        for &i in bvh.primitive_ids() {
            seen[i as usize] += 1;
        }
        prop_assert!(seen.iter().all(|&count| count == 1));
        // Walking the leaves reaches every leaf position exactly once, so every primitive is
        // tested exactly once in leaf order.
        let mut positions = vec![0usize; triangles.len()];
        for leaf in references(&bvh).into_iter().filter_map(ChildRef::leaf_range) {
            prop_assert!(leaf.len() <= leaf_size);
            for position in leaf {
                positions[position as usize] += 1;
            }
        }
        prop_assert!(positions.iter().all(|&count| count == 1), "{positions:?}");
        for tri in &triangles {
            prop_assert!(bvh.scene_bounds().contains(tri.centroid()));
        }
    }

    #[test]
    fn every_child_reference_is_in_range(triangles in soup(), leaf_size in leaf_size()) {
        let bvh = Bvh4::build_with_leaf_size(&triangles, leaf_size);
        let mut parents = vec![0usize; bvh.nodes().len()];
        for child in references(&bvh) {
            match (child.node_index(), child.leaf_range()) {
                (Some(index), _) => {
                    prop_assert!(index < bvh.nodes().len(), "{child:?}");
                    parents[index] += 1;
                }
                (None, Some(leaf)) => {
                    prop_assert!(leaf.end as usize <= bvh.primitive_ids().len(), "{child:?}");
                }
                (None, None) => prop_assert!(false, "{child:?} is neither node nor leaf"),
            }
        }
        // Each internal node has exactly one parent (the root's "parent" is the tree itself),
        // and the node count covers every internal node and non-empty leaf.
        prop_assert!(parents.iter().all(|&count| count == 1), "{parents:?}");
        let leaves = references(&bvh)
            .into_iter()
            .filter(|child| child.leaf_range().is_some_and(|leaf| !leaf.is_empty()))
            .count();
        prop_assert_eq!(bvh.node_count(), bvh.nodes().len() + leaves);
    }

    #[test]
    fn leaf_order_triangles_are_the_callers_triangles(
        triangles in soup(),
        leaf_size in leaf_size(),
    ) {
        let bvh = Bvh4::build_with_leaf_size(&triangles, leaf_size);
        let ids = bvh.primitive_ids().to_vec();
        let scene = Scene::from_parts(bvh, triangles.clone());
        let leaf_order = scene.leaf_triangles().expect("flat scene");
        prop_assert_eq!(leaf_order.len(), triangles.len());
        for (position, &id) in ids.iter().enumerate() {
            prop_assert_eq!(leaf_order[position], triangles[id as usize], "position {}", position);
        }
        // Lookups by caller id see through the leaf order.
        for (id, triangle) in triangles.iter().enumerate() {
            prop_assert_eq!(scene.triangle(id), *triangle);
        }
    }

    #[test]
    fn reported_hit_ids_are_caller_ids(
        triangles in soup(),
        leaf_size in leaf_size(),
        rays in prop::collection::vec(ray(), 1..12),
    ) {
        let bvh = Bvh4::build_with_leaf_size(&triangles, leaf_size);
        let scene = Scene::from_parts(bvh, triangles.clone());
        for policy in [ExecPolicy::scalar(), ExecPolicy::wavefront().with_simd_lanes(16)] {
            let mut engine = TraversalEngine::baseline();
            let output = engine.trace(&TraceRequest::pair(&scene, &rays, &rays), &policy);
            let hits = rays.iter().zip(&output.closest).chain(rays.iter().zip(&output.any));
            for (ray, hit) in hits {
                let Some(hit) = hit else { continue };
                // A hit's id names the caller's triangle that produced its distance.
                let tested = golden::watertight::ray_triangle(ray, &triangles[hit.primitive]);
                prop_assert!(tested.hit, "{}: {hit:?} names a triangle the ray misses", policy.mode);
                prop_assert_eq!(tested.distance().to_bits(), hit.t.to_bits());
            }
        }
    }

    #[test]
    fn traversal_finds_the_same_closest_hit_as_brute_force(
        triangles in scene(),
        rays in prop::collection::vec(ray(), 1..8),
    ) {
        let bvh = Bvh4::build(&triangles);
        let scene = Scene::from_parts(bvh.clone(), triangles.clone());
        let mut engine = TraversalEngine::baseline();
        for ray in &rays {
            let expected = brute_force(&triangles, ray);
            let got = engine
                .trace(
                    &TraceRequest::closest_hit(&scene, core::slice::from_ref(ray)),
                    &ExecPolicy::scalar(),
                )
                .into_closest()[0];
            match (expected, got) {
                (None, None) => {}
                (Some((_prim, t)), Some(hit)) => {
                    // The same primitive, or a different primitive at a bit-identical distance
                    // (exact ties can legitimately resolve either way) — so only the distance is
                    // required to match.
                    prop_assert_eq!(hit.t.to_bits(), t.to_bits());
                }
                other => prop_assert!(false, "mismatch: {:?}", other),
            }
        }
    }
}
