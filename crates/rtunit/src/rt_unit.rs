//! A simplified RT-unit timing model above the datapath.
//!
//! The paper's Fig. 2 places the intersection-test datapath inside an RT unit that also contains
//! a warp buffer, a memory scheduler and a response queue; Vulkan-Sim models that machinery in
//! detail.  For workload-level cycle estimates this module provides a deliberately simple
//! substitute: every ray is an independent state machine that alternates between *fetching* a BVH
//! node (fixed-latency memory model) and *testing* it (one datapath beat, eleven-cycle latency),
//! and the datapath issue port accepts at most one beat per cycle.  The result is a first-order
//! cycle count that respects the datapath's throughput and latency — enough to study, for
//! example, how the eleven-cycle RayFlex latency compares against the two-cycle assumption used
//! by Vulkan-Sim (§IV-B).

use std::collections::VecDeque;

use rayflex_core::{PipelineConfig, RayFlexDatapath, RayFlexRequest, PIPELINE_DEPTH};
use rayflex_geometry::{Ray, Triangle};

use crate::bvh::{Bvh4, ChildRef};
use crate::traversal::TraversalHit;

/// Timing parameters of the simplified RT unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtUnitConfig {
    /// Cycles to fetch one BVH node from memory (the L1-hit latency of the paper's Fig. 2
    /// memory path).
    pub node_fetch_latency: u64,
    /// Latency of one datapath beat in cycles (eleven for RayFlex; two for the Vulkan-Sim
    /// assumption the paper discusses).
    pub datapath_latency: u64,
    /// How many independent rays the scheduler keeps in flight at once (the warp-buffer depth).
    pub max_rays_in_flight: usize,
}

impl Default for RtUnitConfig {
    fn default() -> Self {
        RtUnitConfig {
            node_fetch_latency: 20,
            datapath_latency: PIPELINE_DEPTH as u64,
            max_rays_in_flight: 32,
        }
    }
}

/// Aggregate statistics of one [`RtUnit::trace_rays`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RtUnitStats {
    /// Total simulated cycles until the last ray retired.
    pub cycles: u64,
    /// Ray–box beats issued.
    pub box_ops: u64,
    /// Ray–triangle beats issued.
    pub triangle_ops: u64,
    /// Cycles in which a transaction was ready but the single issue port was already taken.
    pub issue_conflicts: u64,
    /// Rays traced.
    pub rays: u64,
}

impl RtUnitStats {
    /// Average datapath beats per ray.
    #[must_use]
    pub fn ops_per_ray(&self) -> f64 {
        if self.rays == 0 {
            0.0
        } else {
            (self.box_ops + self.triangle_ops) as f64 / self.rays as f64
        }
    }

    /// Merges the statistics of an RT unit that ran *in parallel* with this one: operation and
    /// conflict counters sum (total work is the sum of the shards), while the cycle count is the
    /// maximum (parallel units finish when the slowest one does).
    pub fn merge_parallel(&mut self, other: &RtUnitStats) {
        self.cycles = self.cycles.max(other.cycles);
        self.box_ops += other.box_ops;
        self.triangle_ops += other.triangle_ops;
        self.issue_conflicts += other.issue_conflicts;
        self.rays += other.rays;
    }

    /// Average cycles per ray (wall-clock cycles divided by rays; rays overlap, so this is far
    /// lower than a single ray's dependent-chain latency).
    #[must_use]
    pub fn cycles_per_ray(&self) -> f64 {
        if self.rays == 0 {
            0.0
        } else {
            self.cycles as f64 / self.rays as f64
        }
    }
}

/// The simplified RT unit: a functional datapath plus the timing model described in the module
/// documentation.
#[derive(Debug)]
pub struct RtUnit {
    datapath: RayFlexDatapath,
    config: RtUnitConfig,
    /// Pooled per-ray states, reused across [`RtUnit::trace_rays`] calls so a steady-state
    /// workload performs no per-ray allocation.
    state_pool: Vec<RayState>,
    /// Reusable transaction queue (see `trace_rays` for why a FIFO is sufficient).
    ready: VecDeque<(u64, usize)>,
}

/// Per-ray traversal state (the ray itself is borrowed from the caller's slice).
///
/// The stack holds traversal handles (`crate::scene::handle`) in the flat top-level context —
/// the RT-unit timing model traces flat scenes, but shares the handle-typed
/// [`push_hit_children`](crate::traversal) step with the traversal engine.
#[derive(Debug, Default)]
struct RayState {
    stack: Vec<u64>,
    best: Option<TraversalHit>,
    pending_leaf: Vec<usize>,
    finished: bool,
}

impl RayState {
    fn reset(&mut self, root: ChildRef) {
        self.stack.clear();
        self.stack
            .push(crate::scene::handle(crate::scene::TOP_CTX, root.bits()));
        self.best = None;
        self.pending_leaf.clear();
        self.finished = false;
    }
}

impl RtUnit {
    /// Creates an RT unit with the default timing parameters over a baseline-unified datapath.
    #[must_use]
    pub fn new() -> Self {
        Self::with_configs(PipelineConfig::baseline_unified(), RtUnitConfig::default())
    }

    /// Creates an RT unit with explicit datapath and timing configurations.
    #[must_use]
    pub fn with_configs(pipeline: PipelineConfig, config: RtUnitConfig) -> Self {
        RtUnit {
            datapath: RayFlexDatapath::new(pipeline),
            config,
            state_pool: Vec::new(),
            ready: VecDeque::new(),
        }
    }

    /// The timing configuration.
    #[must_use]
    pub fn config(&self) -> &RtUnitConfig {
        &self.config
    }

    /// Traces a batch of rays against a triangle BVH, returning the closest hit per ray and the
    /// aggregate timing statistics.
    pub fn trace_rays(
        &mut self,
        bvh: &Bvh4,
        triangles: &[Triangle],
        rays: &[Ray],
    ) -> (Vec<Option<TraversalHit>>, RtUnitStats) {
        let mut stats = RtUnitStats {
            rays: rays.len() as u64,
            ..RtUnitStats::default()
        };
        // Check out one pooled state per ray (allocation-free once the pool is warm).
        let mut states: Vec<RayState> = Vec::with_capacity(rays.len());
        for _ in 0..rays.len() {
            let mut state = self.state_pool.pop().unwrap_or_default();
            state.reset(bvh.root());
            states.push(state);
        }

        // Transaction queue of (cycle at which the ray's next transaction is ready, ray index).
        //
        // Every transaction has the same ready-to-ready latency (issue wait + datapath latency +
        // node fetch), and the single issue port hands out strictly increasing issue cycles, so
        // ready times are enqueued in non-decreasing order — a plain FIFO pops them in exactly
        // the order a min-heap would, without the per-event heap maintenance.
        self.ready.clear();
        let window = self.config.max_rays_in_flight.max(1).min(states.len());
        let mut next_to_admit = window;
        for i in 0..window {
            self.ready.push_back((self.config.node_fetch_latency, i));
        }

        let mut next_issue_cycle = 0u64;
        let mut last_retire_cycle = 0u64;

        while let Some((ready_cycle, ray_index)) = self.ready.pop_front() {
            // The single issue port: a transaction ready before the port frees up waits.
            let issue_cycle = ready_cycle.max(next_issue_cycle);
            if issue_cycle > ready_cycle {
                stats.issue_conflicts += 1;
            }
            next_issue_cycle = issue_cycle + 1;
            let result_cycle = issue_cycle + self.config.datapath_latency;

            let state = &mut states[ray_index];
            Self::step_ray(
                &mut self.datapath,
                bvh,
                triangles,
                &rays[ray_index],
                state,
                &mut stats,
            );

            if state.finished {
                last_retire_cycle = last_retire_cycle.max(result_cycle);
                // Admit the next waiting ray into the in-flight window.
                if next_to_admit < states.len() {
                    self.ready
                        .push_back((result_cycle + self.config.node_fetch_latency, next_to_admit));
                    next_to_admit += 1;
                }
            } else {
                // The next node fetch starts once this beat's result is known.
                self.ready
                    .push_back((result_cycle + self.config.node_fetch_latency, ray_index));
            }
        }

        stats.cycles = last_retire_cycle;
        let mut hits = Vec::with_capacity(rays.len());
        for mut state in states {
            hits.push(state.best.take());
            self.state_pool.push(state);
        }
        (hits, stats)
    }

    /// Traces a ray batch across `units` RT units working side by side, one OS thread per
    /// unit, each owning a private datapath of configuration `pipeline` and the timing
    /// parameters `config`.  Rays are sharded contiguously; hits return in input order.  The
    /// merged statistics sum the per-unit operation counters and take the maximum cycle count
    /// (see [`RtUnitStats::merge_parallel`]).
    #[must_use]
    pub fn trace_rays_multi_unit(
        pipeline: PipelineConfig,
        config: RtUnitConfig,
        bvh: &Bvh4,
        triangles: &[Triangle],
        rays: &[Ray],
        units: usize,
    ) -> (Vec<Option<TraversalHit>>, RtUnitStats) {
        if rays.is_empty() {
            return (Vec::new(), RtUnitStats::default());
        }
        let units = units.clamp(1, rays.len());
        let shard_len = rays.len().div_ceil(units);
        let shards: Vec<(Vec<Option<TraversalHit>>, RtUnitStats)> = std::thread::scope(|scope| {
            let handles: Vec<_> = rays
                .chunks(shard_len)
                .map(|shard| {
                    scope.spawn(move || {
                        RtUnit::with_configs(pipeline, config).trace_rays(bvh, triangles, shard)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| match handle.join() {
                    Ok(result) => result,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        });
        let mut hits = Vec::with_capacity(rays.len());
        let mut stats = RtUnitStats::default();
        for (shard_hits, shard_stats) in shards {
            hits.extend(shard_hits);
            stats.merge_parallel(&shard_stats);
        }
        (hits, stats)
    }

    /// One OS thread per modelled RT unit, sharded contiguously.
    #[deprecated(
        note = "renamed to RtUnit::trace_rays_multi_unit (no execution-mode names on \
                         non-policy methods)"
    )]
    #[must_use]
    pub fn trace_rays_parallel(
        pipeline: PipelineConfig,
        config: RtUnitConfig,
        bvh: &Bvh4,
        triangles: &[Triangle],
        rays: &[Ray],
        units: usize,
    ) -> (Vec<Option<TraversalHit>>, RtUnitStats) {
        Self::trace_rays_multi_unit(pipeline, config, bvh, triangles, rays, units)
    }

    /// Advances one ray by one datapath transaction.
    fn step_ray(
        datapath: &mut RayFlexDatapath,
        bvh: &Bvh4,
        triangles: &[Triangle],
        ray: &Ray,
        state: &mut RayState,
        stats: &mut RtUnitStats,
    ) {
        // Pending leaf primitives are tested one beat at a time.
        if let Some(prim) = state.pending_leaf.pop() {
            stats.triangle_ops += 1;
            let request = RayFlexRequest::ray_triangle(prim as u64, ray, &triangles[prim]);
            let Some(result) = datapath.execute(&request).triangle_result else {
                unreachable!("a triangle beat always returns a triangle result");
            };
            crate::traversal::record_triangle_hit(
                &mut state.best,
                &result,
                prim,
                ray.t_beg,
                ray.t_end,
            );
        } else if let Some(popped) = state.stack.pop() {
            let child = ChildRef::from_bits(crate::scene::handle_low(popped));
            match child.node_index() {
                None => {
                    // Reversed so `pop` tests primitives in leaf order, matching the traversal
                    // engine's tie-breaking (the first-tested primitive keeps exact-t ties).
                    state.pending_leaf.extend(
                        bvh.leaf_primitives(child)
                            .iter()
                            .rev()
                            .map(|&prim| prim as usize),
                    );
                    // Testing the first primitive happens in this same transaction slot if one
                    // exists; otherwise the beat is a no-op node visit.
                    if !state.pending_leaf.is_empty() {
                        Self::step_ray(datapath, bvh, triangles, ray, state, stats);
                        return;
                    }
                }
                Some(index) => {
                    let node = bvh.node(index);
                    stats.box_ops += 1;
                    let request = RayFlexRequest::ray_box(0, ray, &node.child_bounds);
                    let Some(result) = datapath.execute(&request).box_result else {
                        unreachable!("a box beat always returns a box result");
                    };
                    crate::traversal::push_hit_children(
                        &mut state.stack,
                        &result,
                        &node.children,
                        crate::scene::TOP_CTX,
                        state.best.as_ref(),
                    );
                }
            }
        }
        state.finished = state.stack.is_empty() && state.pending_leaf.is_empty();
    }
}

impl Default for RtUnit {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraversalEngine;
    use rayflex_geometry::Vec3;

    fn scene() -> Vec<Triangle> {
        (0..64)
            .map(|i| {
                let x = (i % 8) as f32 * 2.0 - 8.0;
                let y = (i / 8) as f32 * 2.0 - 8.0;
                Triangle::new(
                    Vec3::new(x, y, 12.0),
                    Vec3::new(x + 1.8, y, 12.0),
                    Vec3::new(x + 0.9, y + 1.8, 12.0),
                )
            })
            .collect()
    }

    fn camera_rays(n: usize) -> Vec<Ray> {
        (0..n)
            .map(|i| {
                let x = (i % 16) as f32 * 0.8 - 6.4;
                let y = (i / 16) as f32 * 0.8 - 6.4;
                Ray::new(Vec3::new(x, y, 0.0), Vec3::new(0.0, 0.0, 1.0))
            })
            .collect()
    }

    #[test]
    fn rt_unit_hits_match_the_untimed_traversal_engine() {
        let triangles = scene();
        let bvh = Bvh4::build(&triangles);
        let rays = camera_rays(64);
        let mut unit = RtUnit::new();
        let (hits, stats) = unit.trace_rays(&bvh, &triangles, &rays);
        let mut engine = TraversalEngine::baseline();
        let scene_obj = crate::Scene::from_parts(bvh.clone(), triangles.clone());
        let reference = engine
            .trace(
                &crate::TraceRequest::closest_hit(&scene_obj, &rays),
                &crate::ExecPolicy::scalar(),
            )
            .into_closest();
        assert_eq!(hits.len(), reference.len());
        for (i, (a, b)) in hits.iter().zip(&reference).enumerate() {
            match (a, b) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert_eq!(a.primitive, b.primitive, "ray {i}");
                    assert!((a.t - b.t).abs() < 1e-6, "ray {i}");
                }
                other => panic!("ray {i}: {other:?}"),
            }
        }
        assert!(stats.cycles > 0);
        assert!(stats.box_ops > 0 && stats.triangle_ops > 0);
        assert_eq!(stats.rays, 64);
        assert!(stats.ops_per_ray() >= 1.0);
    }

    #[test]
    fn lower_datapath_latency_reduces_the_cycle_count() {
        let triangles = scene();
        let bvh = Bvh4::build(&triangles);
        let rays = camera_rays(32);
        let rayflex_latency = RtUnitConfig::default();
        let vulkan_sim_assumption = RtUnitConfig {
            datapath_latency: 2,
            ..RtUnitConfig::default()
        };
        let (_, slow) = RtUnit::with_configs(PipelineConfig::baseline_unified(), rayflex_latency)
            .trace_rays(&bvh, &triangles, &rays);
        let (_, fast) =
            RtUnit::with_configs(PipelineConfig::baseline_unified(), vulkan_sim_assumption)
                .trace_rays(&bvh, &triangles, &rays);
        assert!(
            fast.cycles < slow.cycles,
            "a 2-cycle datapath assumption must be optimistic: {} vs {}",
            fast.cycles,
            slow.cycles
        );
        assert_eq!(fast.box_ops, slow.box_ops);
    }

    #[test]
    fn more_rays_in_flight_hide_more_latency() {
        let triangles = scene();
        let bvh = Bvh4::build(&triangles);
        let rays = camera_rays(64);
        let narrow = RtUnitConfig {
            max_rays_in_flight: 1,
            ..RtUnitConfig::default()
        };
        let wide = RtUnitConfig {
            max_rays_in_flight: 64,
            ..RtUnitConfig::default()
        };
        let (_, serial) = RtUnit::with_configs(PipelineConfig::baseline_unified(), narrow)
            .trace_rays(&bvh, &triangles, &rays);
        let (_, parallel) = RtUnit::with_configs(PipelineConfig::baseline_unified(), wide)
            .trace_rays(&bvh, &triangles, &rays);
        assert!(parallel.cycles < serial.cycles);
    }

    #[test]
    fn parallel_units_agree_with_a_single_unit() {
        let triangles = scene();
        let bvh = Bvh4::build(&triangles);
        let rays = camera_rays(64);
        let mut unit = RtUnit::new();
        let (expected_hits, expected_stats) = unit.trace_rays(&bvh, &triangles, &rays);
        for units in [1, 2, 4, 64] {
            let (hits, stats) = RtUnit::trace_rays_multi_unit(
                PipelineConfig::baseline_unified(),
                RtUnitConfig::default(),
                &bvh,
                &triangles,
                &rays,
                units,
            );
            assert_eq!(hits, expected_hits, "units = {units}");
            // Work is conserved across shards: the summed beat counts equal the
            // single-threaded totals regardless of the shard count.
            assert_eq!(
                stats.box_ops + stats.triangle_ops,
                expected_stats.box_ops + expected_stats.triangle_ops,
                "units = {units}"
            );
            assert_eq!(stats.rays, expected_stats.rays, "units = {units}");
            // More parallel units never extend the critical path.
            assert!(stats.cycles <= expected_stats.cycles, "units = {units}");
        }
        let (_, single) = RtUnit::trace_rays_multi_unit(
            PipelineConfig::baseline_unified(),
            RtUnitConfig::default(),
            &bvh,
            &triangles,
            &rays,
            1,
        );
        assert_eq!(
            single, expected_stats,
            "one shard reproduces the scalar run exactly"
        );
    }

    #[test]
    fn state_pools_recycle_across_trace_calls() {
        let triangles = scene();
        let bvh = Bvh4::build(&triangles);
        let rays = camera_rays(32);
        let mut unit = RtUnit::new();
        let (first, _) = unit.trace_rays(&bvh, &triangles, &rays);
        assert_eq!(unit.state_pool.len(), rays.len());
        let (second, _) = unit.trace_rays(&bvh, &triangles, &rays);
        assert_eq!(first, second);
        assert_eq!(unit.state_pool.len(), rays.len());
    }

    #[test]
    fn empty_ray_batches_are_fine() {
        let triangles = scene();
        let bvh = Bvh4::build(&triangles);
        let (hits, stats) = RtUnit::new().trace_rays(&bvh, &triangles, &[]);
        assert!(hits.is_empty());
        assert_eq!(stats.cycles, 0);
        assert_eq!(stats.cycles_per_ray(), 0.0);
    }
}
