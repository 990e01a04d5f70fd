//! # rayflex-rtunit
//!
//! The RT-unit substrate above the RayFlex datapath.
//!
//! The RayFlex paper models only the intersection-test datapath of a GPU ray-tracing unit; the
//! surrounding machinery — the acceleration structure, its traversal, the scheduling of memory
//! fetches and intersection transactions — is assumed to exist (Vulkan-Sim models it in the
//! paper's ecosystem).  To run realistic workloads against the Rust datapath, this crate rebuilds
//! that machinery:
//!
//! * [`Bvh4`] — a four-wide bounding volume hierarchy builder matching the datapath's
//!   four-boxes-per-instruction interface,
//! * [`Scene`] — the first-class scene boundary every policy entry point traces against: flat
//!   ([`Scene::flat`]) or two-level TLAS/BLAS instanced ([`Scene::instanced`]), with
//!   [`Scene::flatten`] baking the instanced form into a bit-identical flat twin and
//!   [`Scene::refit`] following animated transforms without rebuilding any BLAS,
//! * [`ExecPolicy`] / [`ExecMode`] — the execution-policy layer: **one policy-taking entry
//!   point per query kind** ([`TraversalEngine::trace`], [`Renderer::render`],
//!   [`KnnEngine::k_nearest`], [`HierarchicalSearch::radius_queries`]), each dispatchable as
//!   the scalar register-accurate reference, a batched wavefront, a thread-parallel sharding or
//!   a fused multi-kind run — bit-identical outputs and statistics across all modes,
//! * [`FusedScheduler`] / [`FusedStream`] — the generic batched query engine: one scheduler
//!   (active-set management, pooled per-item state, bulk beat dispatch) that every query kind —
//!   closest-hit, any-hit/shadow, rendering, candidate collection, distance scoring — drives
//!   with its own per-item state machine ([`TraversalStream`], [`DistanceStream`],
//!   [`CollectStream`]), filling each pass with one stream's segment (the wavefront) or merging
//!   heterogeneous streams into shared bulk passes, with a
//!   per-stream **beat budget** admission policy ([`ExecPolicy::beat_budget_per_stream`])
//!   modelling QoS between concurrent workloads,
//! * [`TraversalEngine`] — closest-hit and any-hit/shadow traversal behind one policy-driven
//!   [`TraversalEngine::trace`] entry point ([`TraceRequest`] carries one or both ray streams),
//! * [`RtUnitConfig::estimate`] — a simplified single-issue RT-unit timing model over the
//!   engine's per-ray beats: a FIFO transaction queue, a fixed-latency node-fetch memory model
//!   and the datapath's eleven-cycle latency and one-beat-per-cycle issue limit,
//! * [`KnnEngine`] — k-nearest-neighbour search over arbitrary-dimensional vectors using the
//!   extended datapath's Euclidean and cosine operations (case study §V-A), with all candidate
//!   scoring batched through the shared scheduler,
//! * [`Renderer`] — a multi-pass deferred renderer: a closest-hit primary pass, surfel
//!   (G-buffer) extraction, an any-hit shadow pass, an optional any-hit ambient-occlusion pass
//!   and an optional fused one-bounce reflection pass, described by a [`FrameDesc`] and traced
//!   under any [`ExecPolicy`] with pixel-bit-identical frames.
//!
//! # Example
//!
//! ```
//! use rayflex_geometry::{Triangle, Ray, Vec3};
//! use rayflex_rtunit::{ExecPolicy, Scene, TraceRequest, TraversalEngine};
//!
//! let scene = Scene::flat(vec![Triangle::new(
//!     Vec3::new(-1.0, -1.0, 3.0),
//!     Vec3::new(1.0, -1.0, 3.0),
//!     Vec3::new(0.0, 1.0, 3.0),
//! )]);
//! let rays = [Ray::new(Vec3::ZERO, Vec3::new(0.0, 0.0, 1.0))];
//! let mut engine = TraversalEngine::baseline();
//! let hits = engine
//!     .trace(&TraceRequest::closest_hit(&scene, &rays), &ExecPolicy::wavefront())
//!     .into_closest();
//! assert!(hits[0].is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod beat;
mod bvh;
mod device;
mod error;
pub mod fault;
mod hierarchical;
mod knn;
mod parallel;
mod policy;
mod query;
mod renderer;
mod rt_unit;
mod scene;
mod traversal;

pub use beat::{BeatPass, BeatTables};
pub use bvh::{Bvh4, Bvh4Node, ChildRef, Primitive};
pub use error::{PartialResult, QueryError, QueryOutcome, SceneValidator};
pub use hierarchical::{radius_neighbors, CollectStream, HierarchicalSearch, HierarchicalStats};
pub use knn::{select_k_nearest, DistanceStream, KnnEngine, KnnMetric, KnnStats, Neighbor};
pub use parallel::{default_parallelism, PoolStats, CHUNKS_PER_WORKER, MIN_RAYS_PER_SHARD};
pub use policy::{AdmissionOrder, CoherenceMode, ExecMode, ExecPolicy, ShardHint};
pub use query::{CappedFusedRun, FusedScheduler, FusedStream, QueryKind};
pub use renderer::{
    default_light_dir, extract_surfels, shade, shade_deferred, Camera, CameraBasis, FrameDesc,
    Image, RenderPasses, Renderer,
};
pub use rt_unit::{RtUnitConfig, RtUnitStats};
pub use scene::{Blas, Instance, Scene};
pub use traversal::{
    TraceOutput, TraceRequest, TraversalEngine, TraversalHit, TraversalStats, TraversalStream,
};
