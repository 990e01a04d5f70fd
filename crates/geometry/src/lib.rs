//! # rayflex-geometry
//!
//! Geometry primitives and *golden* software intersection models for the RayFlex-RS workspace.
//!
//! The RayFlex paper verifies its RTL against "a golden software implementation that serves as
//! our ground truth" (§IV-A).  This crate is that ground truth: it provides the vectors, rays,
//! axis-aligned bounding boxes, triangles and spheres the datapath operates on, plus reference
//! implementations of
//!
//! * the slab ray–box intersection method (Algorithm 1 of the paper),
//! * the watertight ray–triangle intersection method (Woop et al.) with backface culling and the
//!   paper's edge-case semantics (coplanar rays miss, edge and vertex hits count as hits),
//! * the Euclidean and cosine distance operations of the extended datapath (§V-A),
//!
//! each written with the *same operation structure and per-step `f32` rounding* as the hardware
//! stages, so the hardware model can be checked for bit-exact equivalence.
//!
//! # Example
//!
//! ```
//! use rayflex_geometry::{golden, Aabb, Ray, Triangle, Vec3};
//!
//! let ray = Ray::new(Vec3::new(0.0, 0.0, 0.0), Vec3::new(0.0, 0.0, 1.0));
//! let aabb = Aabb::new(Vec3::new(-1.0, -1.0, 2.0), Vec3::new(1.0, 1.0, 4.0));
//! assert!(golden::slab::ray_box(&ray, &aabb).hit);
//!
//! let tri = Triangle::new(
//!     Vec3::new(-1.0, -1.0, 3.0),
//!     Vec3::new(1.0, -1.0, 3.0),
//!     Vec3::new(0.0, 1.0, 3.0),
//! );
//! let hit = golden::watertight::ray_triangle(&ray, &tri);
//! assert!(hit.hit);
//! assert!((hit.distance() - 3.0).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod aabb;
pub mod golden;
mod ray;
pub mod sampling;
mod sphere;
mod transform;
mod triangle;
mod vec3;

pub use aabb::Aabb;
pub use ray::{Ray, ShearConstants};
pub use sphere::Sphere;
pub use transform::Affine;
pub use triangle::Triangle;
pub use vec3::{Axis, Vec3};
