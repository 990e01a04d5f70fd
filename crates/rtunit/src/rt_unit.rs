//! A simplified RT-unit timing model above the datapath.
//!
//! The paper's Fig. 2 places the intersection-test datapath inside an RT unit that also contains
//! a warp buffer, a memory scheduler and a response queue; Vulkan-Sim models that machinery in
//! detail.  For workload-level cycle estimates this module provides a deliberately simple
//! substitute: every ray alternates between *fetching* a BVH node (fixed-latency memory model)
//! and *testing* it (one datapath beat, eleven-cycle latency), and the datapath issue port
//! accepts at most one beat per cycle.  The result is a first-order cycle count that respects the
//! datapath's throughput and latency — enough to study, for example, how the eleven-cycle
//! RayFlex latency compares against the two-cycle assumption used by Vulkan-Sim (§IV-B).
//!
//! The model does not traverse anything itself.  [`RtUnitConfig::estimate`] observes each ray's
//! beats through [`TraversalEngine::trace`] and schedules one transaction per beat; a leaf's
//! first triangle test shares the transaction that fetched it, and a TLAS leaf descent into an
//! instance costs no transaction.

use std::collections::VecDeque;

use rayflex_core::PIPELINE_DEPTH;

use crate::policy::ExecPolicy;
use crate::traversal::{TraceRequest, TraversalEngine};

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

/// Aggregate statistics of one [`RtUnitConfig::estimate`] run.
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

impl RtUnitConfig {
    /// Estimates the cycles the modelled RT unit needs to trace `request` — closest-hit rays
    /// first, then any-hit rays, against a flat or instanced scene.
    ///
    /// Each ray's transaction count is its beat count, read as the [`TraversalEngine::stats`]
    /// delta of a one-ray wavefront trace on one engine; a ray that issues no beat — an empty
    /// scene — still costs one transaction.  Every policy issues the same beats per ray, so the
    /// estimate does not depend on how the request is executed elsewhere.
    #[must_use]
    pub fn estimate(&self, request: &TraceRequest<'_>) -> RtUnitStats {
        let view = request.view();
        let mut engine = TraversalEngine::baseline();
        let one_ray_requests = request
            .closest_rays()
            .iter()
            .map(|ray| TraceRequest::pair_view(view, core::slice::from_ref(ray), &[]))
            .chain(
                request
                    .any_rays()
                    .iter()
                    .map(|ray| TraceRequest::pair_view(view, &[], core::slice::from_ref(ray))),
            );
        let transactions = one_ray_requests.map(|one_ray| {
            let before = engine.stats().total_ops();
            let _ = engine.trace(&one_ray, &ExecPolicy::wavefront());
            (engine.stats().total_ops() - before).max(1)
        });
        let mut stats = self.schedule(transactions);
        let beats = engine.stats();
        stats.box_ops = beats.box_ops;
        stats.triangle_ops = beats.triangle_ops;
        stats.rays = (request.closest_rays().len() + request.any_rays().len()) as u64;
        stats
    }

    /// Runs the single-issue, windowed schedule over the rays' transaction counts (in
    /// admission order), filling in the cycle and conflict counters.
    fn schedule(&self, mut transactions: impl Iterator<Item = u64>) -> RtUnitStats {
        let mut stats = RtUnitStats::default();
        // Transaction queue of (cycle at which a ray's next transaction is ready, transactions
        // the ray has left).
        //
        // Every transaction has the same ready-to-ready latency (issue wait + datapath latency +
        // node fetch), and the single issue port hands out strictly increasing issue cycles, so
        // ready times are enqueued in non-decreasing order — a plain FIFO pops them in exactly
        // the order a min-heap would, without the per-event heap maintenance.
        let mut ready: VecDeque<(u64, u64)> = transactions
            .by_ref()
            .take(self.max_rays_in_flight.max(1))
            .map(|count| (self.node_fetch_latency, count))
            .collect();
        let mut next_issue_cycle = 0u64;
        while let Some((ready_cycle, left)) = ready.pop_front() {
            // The single issue port: a transaction ready before the port frees up waits.
            let issue_cycle = ready_cycle.max(next_issue_cycle);
            if issue_cycle > ready_cycle {
                stats.issue_conflicts += 1;
            }
            next_issue_cycle = issue_cycle + 1;
            let result_cycle = issue_cycle + self.datapath_latency;
            // The next node fetch starts once this beat's result is known — for this ray, or,
            // once it retires, for the next waiting ray admitted into the in-flight window.
            let next = if left > 1 {
                Some(left - 1)
            } else {
                stats.cycles = stats.cycles.max(result_cycle);
                transactions.next()
            };
            if let Some(left) = next {
                ready.push_back((result_cycle + self.node_fetch_latency, left));
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Blas, Instance, Scene};
    use rayflex_geometry::{Aabb, Ray, Triangle, Vec3};
    use rayflex_workloads::{rays, scenes};

    fn scene() -> Scene {
        Scene::flat(
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
                .collect(),
        )
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
    fn estimate_ops_match_a_batched_wavefront_trace() {
        let crowd = scenes::icosphere_crowd(2, 3, 3.0);
        let instanced = Scene::instanced(
            crowd.meshes.into_iter().map(Blas::new).collect(),
            crowd
                .placements
                .iter()
                .map(|&(mesh, transform)| Instance::new(mesh, transform))
                .collect(),
        );
        let flat = Scene::flat(scenes::icosphere(3, 1.0, Vec3::ZERO));
        let bounds = Aabb::new(Vec3::new(-4.5, -1.5, -4.5), Vec3::new(4.5, 1.5, 4.5));
        let rays = rays::random_rays(31, 300, &bounds);
        for (label, scene) in [("flat", &flat), ("instanced", &instanced)] {
            for any_hit in [false, true] {
                let request = if any_hit {
                    TraceRequest::any_hit(scene, &rays)
                } else {
                    TraceRequest::closest_hit(scene, &rays)
                };
                let mut engine = TraversalEngine::baseline();
                let _ = engine.trace(&request, &ExecPolicy::wavefront());
                let batched = engine.stats();
                let estimate = RtUnitConfig::default().estimate(&request);
                let case = format!("{label}, any_hit = {any_hit}");
                assert_eq!(estimate.box_ops, batched.box_ops, "{case}");
                assert_eq!(estimate.triangle_ops, batched.triangle_ops, "{case}");
                assert_eq!(estimate.rays, batched.rays, "{case}");
                assert!(estimate.cycles > 0, "{case}");
            }
        }
    }

    #[test]
    fn lower_datapath_latency_reduces_the_cycle_count() {
        let scene = scene();
        let rays = camera_rays(32);
        let request = TraceRequest::closest_hit(&scene, &rays);
        let slow = RtUnitConfig::default().estimate(&request);
        let fast = RtUnitConfig {
            datapath_latency: 2,
            ..RtUnitConfig::default()
        }
        .estimate(&request);
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
        let scene = scene();
        let rays = camera_rays(64);
        let request = TraceRequest::closest_hit(&scene, &rays);
        let serial = RtUnitConfig {
            max_rays_in_flight: 1,
            ..RtUnitConfig::default()
        }
        .estimate(&request);
        let parallel = RtUnitConfig {
            max_rays_in_flight: 64,
            ..RtUnitConfig::default()
        }
        .estimate(&request);
        assert!(parallel.cycles < serial.cycles);
    }

    #[test]
    fn empty_ray_batches_are_fine() {
        let scene = scene();
        let stats = RtUnitConfig::default().estimate(&TraceRequest::closest_hit(&scene, &[]));
        assert_eq!(stats, RtUnitStats::default());
        assert_eq!(stats.cycles_per_ray(), 0.0);
    }
}
