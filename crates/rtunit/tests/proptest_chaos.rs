//! The chaos matrix — deterministic fault injection swept across FaultPlan × ExecMode × query
//! kind, pinning the hardened execution layer's contract: every injected fault yields either a
//! structured [`QueryError`] or a result bit-identical to the fault-free scalar reference —
//! **never a panic** (every entry point runs under `catch_unwind`), **never a silently wrong
//! answer**.
//!
//! The fault vocabulary is [`rayflex_rtunit::fault`]'s [`FaultPlan`]: corrupt-ray,
//! truncate-packet, flip-BVH-child, poison-shard-N and starve-budget, all seeded and
//! deterministic so a failing case replays bit-for-bit.  Malformed base workloads come from
//! [`rayflex_workloads::adversarial`].

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;

use rayflex_core::PipelineConfig;
use rayflex_geometry::{Aabb, Vec3};
use rayflex_rtunit::fault::{while_armed, FaultKind, FaultPlan};
use rayflex_rtunit::{
    Blas, Bvh4, Camera, CoherenceMode, ExecPolicy, FrameDesc, HierarchicalSearch, Instance,
    KnnEngine, KnnMetric, QueryError, QueryOutcome, Renderer, Scene, TraceRequest, TraversalEngine,
    TraversalStats, MIN_RAYS_PER_SHARD,
};
use rayflex_workloads::{adversarial, rays, scenes, vectors};

/// Every execution discipline the matrix sweeps, including both beat-budget edge values, the
/// SIMD lane widths of the lane-batched fast path and the two coherence disciplines (the
/// defaulted entries already run `SortAndCompact`; `Off` is crossed in explicitly), so
/// starved, capped and faulted runs cover the lane kernels, the coherent admission sorter and
/// the work-stealing pool, not just the scalar fast path.
fn swept_policies() -> Vec<ExecPolicy> {
    vec![
        ExecPolicy::scalar(),
        ExecPolicy::wavefront(),
        ExecPolicy::wavefront().with_simd_lanes(4),
        ExecPolicy::wavefront().with_coherence(CoherenceMode::Off),
        ExecPolicy::parallel(2),
        ExecPolicy::parallel(2).with_simd_lanes(8),
        ExecPolicy::fused(),
        ExecPolicy::fused().with_coherence(CoherenceMode::Off),
        ExecPolicy::fused().with_beat_budget(1),
        ExecPolicy::fused().with_beat_budget(1).with_simd_lanes(8),
    ]
}

/// Runs `f` under `catch_unwind`: the chaos contract's "zero panics escape any public `try_*`
/// entry point", enforced at every call site of the matrix.
fn no_panic<T>(label: &str, f: impl FnOnce() -> T) -> T {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(value) => value,
        Err(_) => panic!("a panic escaped a try_* entry point under {label}"),
    }
}

/// Lifts a workloads-level instanced description into `rtunit`'s two-level [`Scene`] (one BLAS
/// per mesh, one instance per placement) — the boundary crossing the workloads crate itself
/// stays below.
fn lift(desc: &scenes::InstancedSceneDesc) -> Scene {
    Scene::instanced(
        desc.meshes.iter().cloned().map(Blas::new).collect(),
        desc.placements
            .iter()
            .map(|(mesh, transform)| Instance::new(*mesh, *transform))
            .collect(),
    )
}

fn clean_rays(seed: u64, count: usize) -> Vec<rayflex_geometry::Ray> {
    rays::random_rays(
        seed,
        count,
        &Aabb::new(Vec3::splat(-25.0), Vec3::splat(25.0)),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// FaultKind::CorruptRay × every ExecMode: a single corrupted ray in either stream fails
    /// the whole request with `InvalidRequest` naming the victim, before any beat is issued.
    #[test]
    fn corrupt_ray_faults_yield_invalid_request_in_every_mode(seed in any::<u64>()) {
        let triangles = adversarial::valid_scene(seed, 12, 20.0);
        let bvh = Bvh4::build(&triangles);
        let scene = Scene::from_parts(bvh, triangles.clone());
        let mut stream = clean_rays(seed, 16);
        let plan = FaultPlan::new(FaultKind::CorruptRay, seed);
        let victim = plan.corrupt_rays(&mut stream).expect("non-empty stream");

        for policy in swept_policies() {
            let mut engine = TraversalEngine::baseline();
            let request = TraceRequest::closest_hit(&scene, &stream);
            let err = no_panic("corrupt-ray", || engine.try_trace(&request, &policy))
                .expect_err("a corrupted ray must be rejected");
            prop_assert!(matches!(err, QueryError::InvalidRequest { .. }), "{err}");
            prop_assert!(
                err.to_string().contains(&format!("ray {victim}")),
                "{}: error must name the victim: {err}", policy.mode
            );
            prop_assert_eq!(engine.stats(), TraversalStats::default(), "no beats issued");
        }

        // A wholesale-hostile stream (every ray untraceable) is rejected just the same.
        let hostile = adversarial::hostile_rays(seed, 8);
        let mut engine = TraversalEngine::baseline();
        let request = TraceRequest::any_hit(&scene, &hostile);
        let err = no_panic("hostile-rays", || {
            engine.try_trace(&request, &ExecPolicy::wavefront())
        })
        .expect_err("hostile rays must be rejected");
        prop_assert!(err.to_string().contains("any-hit ray 0"), "{err}");
    }

    /// FaultKind::TruncatePacket × every ExecMode: a truncated packet is still well-formed, so
    /// the engine must *succeed* — and return exactly the clean run's prefix (a short DMA
    /// transfer loses rays, it must never corrupt the survivors).
    #[test]
    fn truncate_packet_faults_yield_the_clean_prefix(seed in any::<u64>()) {
        let triangles = adversarial::valid_scene(seed, 12, 20.0);
        let bvh = Bvh4::build(&triangles);
        let scene = Scene::from_parts(bvh, triangles.clone());
        let full = clean_rays(seed, 16);

        let mut reference = TraversalEngine::baseline();
        let expected = reference
            .try_trace(
                &TraceRequest::closest_hit(&scene, &full),
                &ExecPolicy::scalar(),
            )
            .expect("clean scene")
            .into_output();

        let plan = FaultPlan::new(FaultKind::TruncatePacket, seed);
        let mut truncated = full.clone();
        let keep = plan.truncate(&mut truncated);
        prop_assert!(keep >= 1 && keep < full.len());

        for policy in swept_policies() {
            let mut engine = TraversalEngine::baseline();
            let request = TraceRequest::closest_hit(&scene, &truncated);
            let outcome = no_panic("truncate-packet", || engine.try_trace(&request, &policy))
                .expect("a truncated packet is still valid");
            prop_assert!(outcome.is_complete());
            prop_assert_eq!(
                &outcome.output().closest, &expected.closest[..keep].to_vec(),
                "{}: surviving prefix must be bit-identical", policy.mode
            );
        }
    }

    /// FaultKind::FlipBvhChild × every ExecMode × {traversal, render}: broken BVH topology is
    /// rejected as `InvalidScene` before any beat — as are the adversarial generators' poisoned
    /// (non-finite vertex) and degenerate (zero-area triangle) scenes.
    #[test]
    fn broken_scenes_yield_invalid_scene_in_every_mode(seed in any::<u64>()) {
        let triangles = adversarial::valid_scene(seed, 24, 20.0);
        let mut bvh = Bvh4::build(&triangles);
        prop_assert!(FaultPlan::new(FaultKind::FlipBvhChild, seed).apply_to_bvh(&mut bvh));
        let scene = Scene::from_parts(bvh, triangles.clone());

        let stream = clean_rays(seed, 4);
        let frame = FrameDesc::primary(
            Camera::looking_at(Vec3::new(0.0, 0.0, -40.0), Vec3::ZERO),
            3,
            3,
        );
        let (poisoned, _) = adversarial::poisoned_scene(seed, 12);
        let (degenerate, _) = adversarial::degenerate_scene(seed, 12);

        for policy in swept_policies() {
            let mut engine = TraversalEngine::baseline();
            let request = TraceRequest::closest_hit(&scene, &stream);
            let err = no_panic("flip-bvh-child", || engine.try_trace(&request, &policy))
                .expect_err("a flipped BVH must be rejected");
            prop_assert!(matches!(err, QueryError::InvalidScene { .. }), "{err}");
            prop_assert_eq!(engine.stats(), TraversalStats::default(), "no beats issued");

            let mut renderer = Renderer::new();
            let err = no_panic("flip-bvh-child render", || {
                renderer.try_render(&scene, &frame, &policy)
            })
            .expect_err("the renderer must reject it too");
            prop_assert!(matches!(err, QueryError::InvalidScene { .. }), "{err}");

            for bad in [&poisoned, &degenerate] {
                let bad_scene = Scene::from_parts(Bvh4::build(&triangles), bad.clone());
                let mut engine = TraversalEngine::baseline();
                let request = TraceRequest::closest_hit(&bad_scene, &stream);
                let err = no_panic("adversarial scene", || engine.try_trace(&request, &policy))
                    .expect_err("a malformed triangle set must be rejected");
                prop_assert!(matches!(err, QueryError::InvalidScene { .. }), "{err}");
            }
        }
    }

    /// FaultKind::CorruptInstance × every ExecMode × {traversal, render} over two-level
    /// scenes — and the adversarial `corrupt_instanced_scene` generator: a broken placement
    /// (non-finite transform, singular transform, or dangling BLAS index) is rejected as
    /// `InvalidScene` naming the victim instance, before any beat.
    #[test]
    fn corrupt_instances_yield_invalid_scene_in_every_mode(seed in any::<u64>()) {
        let mut faulted = lift(&scenes::debris_field(seed, 2, 8, 25.0));
        let fault_victim = FaultPlan::new(FaultKind::CorruptInstance, seed)
            .apply_to_scene(&mut faulted)
            .expect("a populated instanced scene always yields a victim");
        let (bad_desc, generator_victim) = adversarial::corrupt_instanced_scene(seed, 2, 8);
        let generated = lift(&bad_desc);

        let stream = clean_rays(seed, 4);
        let frame = FrameDesc::primary(
            Camera::looking_at(Vec3::new(0.0, 0.0, -40.0), Vec3::ZERO),
            3,
            3,
        );

        for policy in swept_policies() {
            for (label, broken, victim) in [
                ("fault-plan corrupt instance", &faulted, fault_victim),
                ("adversarial corrupt instance", &generated, generator_victim),
            ] {
                let mut engine = TraversalEngine::baseline();
                let request = TraceRequest::closest_hit(broken, &stream);
                let err = no_panic(label, || engine.try_trace(&request, &policy))
                    .expect_err("a corrupt instance must be rejected");
                prop_assert!(matches!(err, QueryError::InvalidScene { .. }), "{err}");
                prop_assert!(
                    err.to_string().contains(&format!("instance {victim}")),
                    "{label}: error must name instance {victim}, got: {err}"
                );
                prop_assert_eq!(engine.stats(), TraversalStats::default(), "no beats issued");

                let mut renderer = Renderer::new();
                let err = no_panic(label, || renderer.try_render(broken, &frame, &policy))
                    .expect_err("the renderer must reject it too");
                prop_assert!(matches!(err, QueryError::InvalidScene { .. }), "{err}");
            }
        }
    }

    /// Corrupt vectors × every ExecMode × {distances, k-nearest, radius}: a NaN component or a
    /// mismatched dimension fails with `InvalidRequest` naming the victim candidate; a
    /// non-finite query point fails a radius batch the same way.
    #[test]
    fn corrupt_vectors_yield_invalid_request_in_every_mode(seed in any::<u64>()) {
        let (candidates, victim) = adversarial::hostile_vectors(seed, 10, 7);
        let query = vec![0.5f32; 7];

        for policy in swept_policies() {
            let mut engine = KnnEngine::new();
            let err = no_panic("hostile-vectors distances", || {
                engine.try_distances(&query, &candidates, KnnMetric::Euclidean, &policy)
            })
            .expect_err("corrupt candidates must be rejected");
            prop_assert!(
                err.to_string().contains(&format!("candidate {victim}")),
                "{}: error must name the victim: {err}", policy.mode
            );

            let err = no_panic("hostile-vectors k-nearest", || {
                KnnEngine::new().try_k_nearest(&query, &candidates, 3, KnnMetric::Cosine, &policy)
            })
            .expect_err("k-nearest must reject them too");
            prop_assert!(matches!(err, QueryError::InvalidRequest { .. }), "{err}");

            let mut search = HierarchicalSearch::build(
                vec![Vec3::ZERO, Vec3::splat(1.0)],
                0.05,
                PipelineConfig::extended_unified(),
            );
            let bad_point = (Vec3::new(f32::NAN, 0.0, 0.0), 2.0);
            let err = no_panic("hostile radius query", || {
                search.try_radius_queries(&[(Vec3::ZERO, 1.0), bad_point], &policy)
            })
            .expect_err("a NaN query point must be rejected");
            prop_assert!(err.to_string().contains("radius query 1"), "{err}");
        }
    }

    /// FaultKind::StarveBudget × every ExecMode × every query kind: under a one-beat deadline,
    /// every entry point returns a structured deadline error or a (possibly empty) completed
    /// prefix bit-identical to the unstarved run — never a panic, never a wrong answer.
    #[test]
    fn starved_budgets_yield_structured_partials_in_every_mode(seed in any::<u64>()) {
        let triangles = adversarial::valid_scene(seed, 12, 20.0);
        let bvh = Bvh4::build(&triangles);
        let scene = Scene::from_parts(bvh, triangles.clone());
        let stream = clean_rays(seed, 8);
        let frame = FrameDesc::primary(
            Camera::looking_at(Vec3::new(0.0, 0.0, -40.0), Vec3::ZERO),
            2,
            2,
        );
        let candidates: Vec<Vec<f32>> = (0..6).map(|i| vec![i as f32; 7]).collect();
        let points: Vec<Vec3> = (0..12).map(|i| Vec3::splat(i as f32)).collect();

        let mut reference = TraversalEngine::baseline();
        let expected = reference
            .try_trace(
                &TraceRequest::closest_hit(&scene, &stream),
                &ExecPolicy::scalar(),
            )
            .expect("clean scene")
            .into_output();
        let expected_distances = KnnEngine::new()
            .try_distances(&candidates[0], &candidates, KnnMetric::Euclidean, &ExecPolicy::scalar())
            .expect("clean candidates")
            .into_output();

        for policy in swept_policies() {
            let starved = policy.with_max_total_beats(1);

            let mut engine = TraversalEngine::baseline();
            let request = TraceRequest::closest_hit(&scene, &stream);
            match no_panic("starved trace", || engine.try_trace(&request, &starved)) {
                Ok(outcome) => {
                    let completed = outcome.partial().map_or(stream.len(), |p| p.completed);
                    prop_assert_eq!(
                        &outcome.output().closest, &expected.closest[..completed].to_vec(),
                        "{}: a starved prefix must be bit-identical", starved.mode
                    );
                }
                Err(QueryError::BudgetExhausted { max_total_beats }) => {
                    prop_assert_eq!(max_total_beats, 1);
                }
                Err(err) => prop_assert!(false, "unexpected error: {}", err),
            }

            let mut renderer = Renderer::new();
            let err = no_panic("starved render", || {
                renderer.try_render(&scene, &frame, &starved)
            })
            .expect_err("a 2x2 frame can never finish in one beat");
            prop_assert!(matches!(err, QueryError::DeadlineExceeded { .. }), "{err}");

            match no_panic("starved distances", || {
                KnnEngine::new().try_distances(
                    &candidates[0], &candidates, KnnMetric::Euclidean, &starved,
                )
            }) {
                Ok(outcome) => {
                    let completed =
                        outcome.partial().map_or(candidates.len(), |p| p.completed);
                    let got: Vec<u32> = outcome.output().iter().map(|d| d.to_bits()).collect();
                    let want: Vec<u32> =
                        expected_distances[..completed].iter().map(|d| d.to_bits()).collect();
                    prop_assert_eq!(got, want, "{}: starved distances prefix", starved.mode);
                }
                Err(QueryError::BudgetExhausted { .. }) => {}
                Err(err) => prop_assert!(false, "unexpected error: {}", err),
            }

            let mut search =
                HierarchicalSearch::build(points.clone(), 0.05, PipelineConfig::extended_unified());
            match no_panic("starved radius", || {
                search.try_radius_queries(&[(Vec3::ZERO, 3.0)], &starved)
            }) {
                Ok(_) | Err(QueryError::BudgetExhausted { .. }) => {}
                Err(err) => prop_assert!(false, "unexpected error: {}", err),
            }
        }
    }

    /// The acceptance-criterion deadline property, swept over random caps: a budget-capped run
    /// returns a typed partial result whose completed prefix is bit-identical to the uncapped
    /// run, in every ExecMode.
    #[test]
    fn capped_runs_return_bit_identical_prefixes(seed in any::<u64>(), cap in 1u64..400) {
        let triangles = adversarial::valid_scene(seed, 12, 20.0);
        let bvh = Bvh4::build(&triangles);
        let scene = Scene::from_parts(bvh, triangles.clone());
        let stream = clean_rays(seed, 10);
        let request = TraceRequest::closest_hit(&scene, &stream);

        let mut reference = TraversalEngine::baseline();
        let expected = reference
            .try_trace(&request, &ExecPolicy::scalar())
            .expect("clean scene")
            .into_output();

        for policy in swept_policies() {
            let capped = policy.with_max_total_beats(cap);
            let mut engine = TraversalEngine::baseline();
            match no_panic("capped trace", || engine.try_trace(&request, &capped)) {
                Ok(QueryOutcome::Complete(output)) => {
                    prop_assert_eq!(&output, &expected, "{}: complete run diverged", capped.mode);
                }
                Ok(QueryOutcome::Partial(partial)) => {
                    prop_assert!(partial.completed < stream.len());
                    prop_assert!(partial.beats_spent >= cap, "cancelled before the deadline");
                    prop_assert_eq!(
                        &partial.output.closest,
                        &expected.closest[..partial.completed].to_vec(),
                        "{}: partial prefix diverged", capped.mode
                    );
                }
                Err(QueryError::BudgetExhausted { max_total_beats }) => {
                    prop_assert_eq!(max_total_beats, cap);
                }
                Err(err) => prop_assert!(false, "unexpected error: {}", err),
            }
        }
    }

    /// FaultKind::ScramblePermutation × every ExecMode: corrupting the coherent admission order
    /// (one seeded swap of two admission-list entries, still a valid permutation) must change
    /// **nothing observable** — hits and statistics stay bit-identical to the fault-free scalar
    /// reference in every mode and coherence discipline, and no panic escapes.  This is the
    /// proof that reassembly is index-keyed: results route by item index, never by dispatch
    /// position, so any admission permutation yields the same answer.
    #[test]
    fn scrambled_admission_permutations_are_unobservable(seed in any::<u64>()) {
        let triangles = adversarial::valid_scene(seed, 12, 20.0);
        let bvh = Bvh4::build(&triangles);
        let scene = Scene::from_parts(bvh, triangles.clone());
        let closest = clean_rays(seed, 12);
        let any = clean_rays(seed.wrapping_add(1), 9);
        let request = TraceRequest::pair(&scene, &closest, &any);

        let mut reference = TraversalEngine::baseline();
        let expected = reference
            .try_trace(&request, &ExecPolicy::scalar())
            .expect("clean scene")
            .into_output();

        let plan = FaultPlan::new(FaultKind::ScramblePermutation, seed);
        for policy in swept_policies() {
            let mut engine = TraversalEngine::baseline();
            let outcome = while_armed(&plan, || {
                no_panic("scrambled admission", || engine.try_trace(&request, &policy))
            })
            .expect("a scrambled (but valid) permutation is not an error");
            prop_assert!(outcome.is_complete());
            prop_assert_eq!(
                outcome.output(), &expected,
                "{}: a scrambled admission order leaked into the outputs", policy.mode
            );
            prop_assert_eq!(
                engine.stats(), reference.stats(),
                "{}: stats must be permutation-invariant", policy.mode
            );
        }
    }
}

proptest! {
    // Each case spawns real worker threads; a handful of seeds is plenty.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// FaultKind::PoisonShard × ExecMode: a poisoned parallel worker is recovered by the
    /// one-shot scalar retry of its index range — bit-identical output, `shard_fallbacks`
    /// recording the event — while non-sharding modes never observe the armed fault at all.
    #[test]
    fn poisoned_shards_recover_bit_identically(seed in any::<u64>()) {
        let triangles = adversarial::valid_scene(seed, 12, 20.0);
        let bvh = Bvh4::build(&triangles);
        let scene = Scene::from_parts(bvh, triangles.clone());
        // Two full shards, so Parallel really spawns two workers.
        let stream = clean_rays(seed, MIN_RAYS_PER_SHARD * 2);
        let request = TraceRequest::closest_hit(&scene, &stream);

        let mut reference = TraversalEngine::baseline();
        let expected = reference
            .try_trace(&request, &ExecPolicy::scalar())
            .expect("clean scene")
            .into_output();

        let plan = FaultPlan::new(FaultKind::PoisonShard((seed % 2) as usize), seed);

        let mut engine = TraversalEngine::baseline();
        let outcome = while_armed(&plan, || {
            no_panic("poisoned parallel trace", || {
                engine.try_trace(&request, &ExecPolicy::parallel(2))
            })
        })
        .expect("a single poisoned shard must be recovered, not surfaced");
        prop_assert!(outcome.is_complete());
        prop_assert_eq!(outcome.output(), &expected, "recovery must be bit-identical");
        let mut stats = engine.stats();
        prop_assert_eq!(stats.shard_fallbacks, 1, "the fallback leaves an audit trail");
        stats.shard_fallbacks = 0;
        prop_assert_eq!(stats, reference.stats(), "beat counts unchanged by recovery");

        // A non-sharding mode under the same armed plan never reaches a shard checkpoint.
        let mut unsharded = TraversalEngine::baseline();
        let outcome = while_armed(&plan, || {
            no_panic("poisoned wavefront trace", || {
                unsharded.try_trace(&request, &ExecPolicy::wavefront())
            })
        })
        .expect("no shard, no poison");
        prop_assert_eq!(outcome.output(), &expected);
        prop_assert_eq!(unsharded.stats().shard_fallbacks, 0);
    }

    /// FaultKind::PoisonShard deep inside the work-stealing pool: a stream long enough that the
    /// pool cuts more chunks than workers (so chunks migrate between deques), with the poisoned
    /// *chunk* index beyond the initial round-robin deal of worker 0.  Whichever worker ends up
    /// executing the poisoned chunk — owner or thief — the one-shot scalar retry of exactly that
    /// chunk's range recovers bit-identically, `shard_fallbacks` records one event, and the pool
    /// counters prove the run really oversharded.  Swept across SIMD lane widths: the retry path
    /// is the scalar reference regardless of the faulted worker's lane setting.
    #[test]
    fn poisoned_stolen_chunks_recover_bit_identically(
        seed in any::<u64>(),
        lanes_index in 0usize..3,
    ) {
        let lanes = [1usize, 4, 8][lanes_index];
        let triangles = adversarial::valid_scene(seed, 12, 20.0);
        let bvh = Bvh4::build(&triangles);
        let scene = Scene::from_parts(bvh, triangles.clone());
        // Eight chunk floors across two workers: the pool deals four chunks to each deque, so
        // any load imbalance makes the fast worker steal from the slow one's back.
        let stream = clean_rays(seed, MIN_RAYS_PER_SHARD * 8);
        let request = TraceRequest::closest_hit(&scene, &stream);

        let mut reference = TraversalEngine::baseline();
        let expected = reference
            .try_trace(&request, &ExecPolicy::scalar())
            .expect("clean scene")
            .into_output();

        // Poison a chunk from the *second half* of the plan (global index 4..8): under the
        // round-robin deal these start in the deques' tails, the region stealing drains first.
        let victim = 4 + (seed % 4) as usize;
        let plan = FaultPlan::new(FaultKind::PoisonShard(victim), seed);

        let mut engine = TraversalEngine::baseline();
        let policy = ExecPolicy::parallel(2).with_simd_lanes(lanes);
        let outcome = while_armed(&plan, || {
            no_panic("poisoned stolen chunk", || engine.try_trace(&request, &policy))
        })
        .expect("a single poisoned chunk must be recovered, not surfaced");
        prop_assert!(outcome.is_complete());
        prop_assert_eq!(outcome.output(), &expected, "recovery must be bit-identical");
        let mut stats = engine.stats();
        prop_assert_eq!(stats.shard_fallbacks, 1, "exactly one chunk fell back");
        stats.shard_fallbacks = 0;
        prop_assert_eq!(stats, reference.stats(), "beat counts unchanged by recovery");
        let pool = engine.pool_stats();
        prop_assert_eq!(pool.workers, 2, "two workers");
        prop_assert_eq!(pool.chunks, 8, "adaptive chunking oversharded the stream");
    }

    /// FaultKind::PoisonShard in the distance and filter pools, the sibling of the traversal
    /// case above: 8 chunks across two workers, the poisoned chunk from the second half of the
    /// plan, so the worker whose chunk panics drops its device and goes on to run later chunks
    /// on a rebuilt one, while the poisoned range is retried once on a fresh device.  Distances,
    /// neighbour lists and statistics must equal the scalar run bit for bit.
    #[test]
    fn poisoned_distance_and_filter_chunks_recover_bit_identically(seed in any::<u64>()) {
        let victim = 4 + (seed % 4) as usize;
        let plan = FaultPlan::new(FaultKind::PoisonShard(victim), seed);
        let policy = ExecPolicy::parallel(2);
        let scalar = ExecPolicy::scalar();
        let bits = |distances: &[f32]| distances.iter().map(|d| d.to_bits()).collect::<Vec<_>>();

        // 512 candidates: 8 chunks of 64 (`MIN_CANDIDATES_PER_SHARD`).
        let dataset = vectors::clustered_dataset(seed, 512, 20, 4, 3.0);
        let query = vectors::queries_near_dataset(seed ^ 1, &dataset, 1, 1.0).remove(0);
        let candidates = &dataset.vectors;
        let mut reference = KnnEngine::new();
        let expected = reference
            .try_distances(&query, candidates, KnnMetric::Euclidean, &scalar)
            .expect("clean candidates")
            .into_output();
        let mut engine = KnnEngine::new();
        let outcome = while_armed(&plan, || {
            no_panic("poisoned distance chunk", || {
                engine.try_distances(&query, candidates, KnnMetric::Euclidean, &policy)
            })
        })
        .expect("a single poisoned chunk must be recovered, not surfaced");
        prop_assert!(outcome.is_complete());
        prop_assert_eq!(bits(outcome.output()), bits(&expected), "recovery must be bit-identical");
        prop_assert_eq!(engine.stats(), reference.stats(), "beat counts unchanged by recovery");
        let pool = engine.pool_stats();
        prop_assert_eq!((pool.workers, pool.chunks), (2, 8), "two workers, eight chunks");

        // 64 radius queries: 8 filter chunks of 8 (`MIN_QUERIES_PER_SHARD`).
        let points: Vec<Vec3> = scenes::sphere_cloud(seed, 2_000, 40.0, 0.01)
            .into_iter()
            .map(|sphere| sphere.center)
            .collect();
        let queries: Vec<(Vec3, f32)> = points
            .iter()
            .step_by(31)
            .take(64)
            .map(|&point| (point + Vec3::splat(0.5), 4.0))
            .collect();
        let build = || HierarchicalSearch::build(points.clone(), 0.01, PipelineConfig::extended_unified());
        let mut reference = build();
        let expected = reference
            .try_radius_queries(&queries, &scalar)
            .expect("clean queries")
            .into_output();
        let mut search = build();
        let outcome = while_armed(&plan, || {
            no_panic("poisoned filter chunk", || search.try_radius_queries(&queries, &policy))
        })
        .expect("a single poisoned chunk must be recovered, not surfaced");
        prop_assert!(outcome.is_complete());
        prop_assert!(search.pool_stats().chunks >= 8, "the filter ran through the pool");
        let neighbours = |lists: &[Vec<rayflex_rtunit::Neighbor>]| {
            lists
                .iter()
                .map(|list| list.iter().map(|n| (n.index, n.distance.to_bits())).collect())
                .collect::<Vec<Vec<_>>>()
        };
        prop_assert_eq!(
            neighbours(outcome.output()),
            neighbours(&expected),
            "recovery must be bit-identical"
        );
        prop_assert_eq!(search.stats(), reference.stats(), "beat counts unchanged by recovery");
    }
}
