//! # rayflex-core
//!
//! The RayFlex hardware ray-tracer datapath (ISPASS 2025), modelled in Rust.
//!
//! RayFlex is a fixed-latency, fully pipelined datapath that executes the BVH operations of a GPU
//! hardware ray-tracing unit: four parallel ray–box intersection tests (slab method) or one
//! ray–triangle intersection test (watertight method) per cycle, optionally extended with
//! Euclidean- and cosine-distance operations for hierarchical-search workloads.  The pipeline is
//! eleven stages deep, built entirely from parameterised skid buffers carrying one wide *Shared
//! RayFlex Data Structure*, and converts between IEEE binary32 and an internal recoded
//! floating-point format at its first and last stages.
//!
//! This crate provides:
//!
//! * the RDNA3-inspired IO specification ([`RayFlexRequest`], [`RayFlexResponse`], [`Opcode`]),
//! * the Shared RayFlex Data Structure ([`SharedRayFlexData`]) and the per-stage logic of
//!   Fig. 4c / Fig. 6c ([`stages`]),
//! * the design space of the paper's evaluation ([`PipelineConfig`]: baseline/extended ×
//!   unified/disjoint, plus the squarer-perturbation ablation),
//! * a fast functional model ([`RayFlexDatapath`]) and a cycle-accurate elastic-pipeline model
//!   ([`RayFlexPipeline`]) built on `rayflex-rtl` skid buffers,
//! * the hardware inventory and activity models consumed by the `rayflex-synth` area/power
//!   estimator ([`inventory`], [`activity`], [`liveness`]),
//! * the paper's twenty directed validation cases ([`validation`]).
//!
//! # Example
//!
//! ```
//! use rayflex_core::{PipelineConfig, RayFlexDatapath, RayFlexRequest};
//! use rayflex_geometry::{Aabb, Ray, Vec3};
//!
//! let mut datapath = RayFlexDatapath::new(PipelineConfig::baseline_unified());
//! let ray = Ray::new(Vec3::new(0.0, 0.0, -5.0), Vec3::new(0.0, 0.0, 1.0));
//! let boxes = [
//!     Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0)),
//!     Aabb::new(Vec3::new(-1.0, -1.0, 3.0), Vec3::new(1.0, 1.0, 5.0)),
//!     Aabb::new(Vec3::new(10.0, 10.0, 10.0), Vec3::new(11.0, 11.0, 11.0)),
//!     Aabb::new(Vec3::new(-1.0, -1.0, 8.0), Vec3::new(1.0, 1.0, 9.0)),
//! ];
//! let response = datapath.execute(&RayFlexRequest::ray_box(0, &ray, &boxes));
//! let result = response.box_result.expect("ray-box op returns a box result");
//! assert_eq!(result.hit, [true, true, false, true]);
//! assert_eq!(result.traversal_order, [0, 1, 3, 2]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod accumulator;
pub mod activity;
mod config;
mod datapath;
mod fastpath;
pub mod guard;
pub mod inventory;
mod io;
pub mod liveness;
mod opcode;
mod pipeline;
pub mod quad_sort;
mod source;
mod srfds;
pub mod stages;
pub mod validation;

pub use accumulator::AccumulatorState;
pub use config::{FeatureSet, FuSharing, PipelineConfig};
pub use datapath::{BeatMix, RayFlexDatapath, StreamedPass};
pub use fastpath::{clamp_simd_lanes, MAX_SIMD_LANES};
pub use io::{
    BeatOperand, BoxResult, DistanceResult, RayFlexRequest, RayFlexResponse, RayOperand,
    TriangleResult, VectorOperand, COSINE_LANES, EUCLIDEAN_LANES, TLAS_PHASE_TAG,
};
pub use opcode::{Opcode, QueryKind};
pub use pipeline::{PipelineStats, RayFlexPipeline, PIPELINE_DEPTH};
pub use source::BeatSource;
pub use srfds::SharedRayFlexData;
