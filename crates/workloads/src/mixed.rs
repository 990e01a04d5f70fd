//! The mixed multi-workload preset: one deterministic bundle of every query kind the fused
//! scheduler can time-multiplex over a single datapath — a closest-hit render stream, an
//! any-hit shadow stream, a k-NN distance-scoring workload and a batch of radius queries over a
//! point cloud (the candidate-collection filter).
//!
//! `crates/rtunit/tests/golden_counters.rs` pins the fused run of this workload (its per-kind
//! beat mix, passes and beat-budget sweep), and it is the shape the paper's unified RT unit
//! (§V-A) is meant to serve: heterogeneous queries arriving together, not one kind at a time.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rayflex_geometry::{Aabb, Ray, Triangle, Vec3};

use crate::{rays, scenes, vectors};

/// One deterministic mixed workload: four concurrent query streams plus the datasets they run
/// against.
#[derive(Debug, Clone, PartialEq)]
pub struct MixedWorkload {
    /// Triangle scene of the two traversal streams (a floor with an icosphere occluder).
    pub triangles: Vec<Triangle>,
    /// Closest-hit stream: random rays through the scene volume.
    pub primary_rays: Vec<Ray>,
    /// Any-hit stream: finite-extent shadow rays from the floor toward the light.
    pub shadow_rays: Vec<Ray>,
    /// Point light the shadow stream aims at.
    pub light: Vec3,
    /// Distance stream: the query vector every candidate is scored against.
    pub query_vector: Vec<f32>,
    /// Distance stream: the candidate vectors.
    pub candidates: Vec<Vec<f32>>,
    /// Collection stream: the point cloud the radius queries filter.
    pub points: Vec<Vec3>,
    /// Sphere radius representing each point in the collection BVH.
    pub point_radius: f32,
    /// Collection stream: `(query point, radius)` pairs.
    pub radius_queries: Vec<(Vec3, f32)>,
}

/// Builds the standard mixed workload: `items` rays per traversal stream, `items` candidate
/// vectors, and `items / 32` (at least four) radius queries over an `8 × items`-point cloud —
/// capped at `items + 4096` points so the collection BVH stays proportionate when a benchmark
/// scales `items` into the tens of thousands — all deterministic per seed.
#[must_use]
pub fn mixed_workload(seed: u64, items: usize) -> MixedWorkload {
    let items = items.max(4);
    let extent = 24.0;
    let side = (items as f64).sqrt().ceil() as usize;
    let triangles = scenes::soft_shadow(2, extent);
    let light = Vec3::new(extent / 3.0, extent, -extent / 4.0);
    let bounds = Aabb::new(Vec3::splat(-extent), Vec3::splat(extent));

    let dataset = vectors::clustered_dataset(seed.wrapping_add(1), items, 24, 8, 4.0);
    let query_vector = dataset.vectors[0].clone();

    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(2));
    let points: Vec<Vec3> = (0..items.saturating_mul(8).min(items + 4096))
        .map(|_| {
            Vec3::new(
                rng.gen_range(-extent..extent),
                rng.gen_range(-extent..extent),
                rng.gen_range(-extent..extent),
            )
        })
        .collect();
    let radius_queries: Vec<(Vec3, f32)> = (0..(items / 32).max(4))
        .map(|_| {
            (
                Vec3::new(
                    rng.gen_range(-extent..extent),
                    rng.gen_range(-extent..extent),
                    rng.gen_range(-extent..extent),
                ),
                rng.gen_range(3.0f32..10.0),
            )
        })
        .collect();

    MixedWorkload {
        primary_rays: rays::random_rays(seed, items, &bounds),
        shadow_rays: rays::floor_shadow_rays(side, side, extent, 0.0, light),
        triangles,
        light,
        query_vector,
        candidates: dataset.vectors,
        points,
        point_radius: 0.01,
        radius_queries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_mixed_workload_is_deterministic_and_fully_populated() {
        let a = mixed_workload(7, 128);
        let b = mixed_workload(7, 128);
        assert_eq!(a, b);
        assert_ne!(a, mixed_workload(8, 128));
        assert_eq!(a.primary_rays.len(), 128);
        assert!(a.shadow_rays.len() >= 128);
        assert_eq!(a.candidates.len(), 128);
        assert_eq!(a.points.len(), 128 * 8);
        assert_eq!(a.radius_queries.len(), 4);
        assert!(!a.triangles.is_empty());
        assert!(a.radius_queries.iter().all(|&(_, r)| r > 0.0));
    }

    #[test]
    fn tiny_item_counts_are_clamped_to_a_usable_workload() {
        let w = mixed_workload(3, 0);
        assert!(w.primary_rays.len() >= 4);
        assert!(w.radius_queries.len() >= 4);
        assert!(!w.candidates.is_empty());
    }
}
