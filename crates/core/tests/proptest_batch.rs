//! Property-based tests of the batched execution layer: for arbitrary mixed beat streams,
//! `execute_batch` (the native fast model) must match per-beat `execute` (the recoded-format
//! stage emulation) bit-for-bit on every evaluated pipeline configuration, including NaN payloads
//! of degenerate beats and the shared accumulator state of multi-beat distance jobs.  A second
//! family pins the distance-run kernel: long same-opcode Euclidean and cosine runs with random
//! masks, resets and special-value lanes, split across every bulk interface so the accumulators
//! carry from one dispatch call into the next.  A third pins the streamed pass: a long pass
//! handed back in response windows matches the one-buffer pass exactly.

use proptest::prelude::*;

use rayflex_core::{PipelineConfig, QueryKind, RayFlexDatapath, RayFlexRequest, RayFlexResponse};
use rayflex_geometry::{Aabb, Ray, Triangle, Vec3};

fn coordinate() -> impl Strategy<Value = f32> {
    prop_oneof![
        (-1000.0f32..1000.0),
        (-1.0f32..1.0),
        Just(0.0f32),
        (-1e-3f32..1e-3),
    ]
}

fn vec3() -> impl Strategy<Value = Vec3> {
    (coordinate(), coordinate(), coordinate()).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

fn direction() -> impl Strategy<Value = Vec3> {
    // Includes axis-aligned directions (zero components), which drive the NaN slab semantics.
    prop_oneof![
        vec3().prop_filter("non-zero direction", |v| {
            v.x != 0.0 || v.y != 0.0 || v.z != 0.0
        }),
        Just(Vec3::new(1.0, 0.0, 0.0)),
        Just(Vec3::new(0.0, 0.0, -1.0)),
    ]
}

fn ray() -> impl Strategy<Value = Ray> {
    (vec3(), direction(), 0.0f32..10.0, 10.0f32..1e6)
        .prop_map(|(origin, dir, t_beg, t_end)| Ray::with_extent(origin, dir, t_beg, t_end))
}

fn aabb() -> impl Strategy<Value = Aabb> {
    (vec3(), vec3()).prop_map(|(a, b)| Aabb::new(a.min(b), a.max(b)))
}

fn ray_box() -> impl Strategy<Value = RayFlexRequest> {
    (ray(), [aabb(), aabb(), aabb(), aabb()])
        .prop_map(|(ray, boxes)| RayFlexRequest::ray_box(0, &ray, &boxes))
}

fn ray_triangle() -> impl Strategy<Value = RayFlexRequest> {
    (ray(), vec3(), vec3(), vec3())
        .prop_map(|(ray, a, b, c)| RayFlexRequest::ray_triangle(0, &ray, &Triangle::new(a, b, c)))
}

fn euclidean() -> impl Strategy<Value = RayFlexRequest> {
    (
        prop::array::uniform16(-1000.0f32..1000.0),
        prop::array::uniform16(-1000.0f32..1000.0),
        any::<u16>(),
        any::<bool>(),
    )
        .prop_map(|(a, b, mask, reset)| RayFlexRequest::euclidean(0, a, b, mask, reset))
}

fn cosine() -> impl Strategy<Value = RayFlexRequest> {
    (
        prop::array::uniform8(-1000.0f32..1000.0),
        prop::array::uniform8(-1000.0f32..1000.0),
        any::<u8>(),
        any::<bool>(),
    )
        .prop_map(|(a, b, mask, reset)| RayFlexRequest::cosine(0, a, b, mask, reset))
}

/// One arbitrary beat of any operation (downgraded for baseline configurations).
fn request() -> impl Strategy<Value = RayFlexRequest> {
    prop_oneof![ray_box(), ray_triangle(), euclidean(), cosine()]
}

fn stream() -> impl Strategy<Value = Vec<RayFlexRequest>> {
    prop::collection::vec(request(), 1..32)
}

/// A stream of one to five same-opcode runs, tagged by position: up to eight ray–box beats (so
/// three- and four-beat box groups form), up to forty ray–triangle beats (so sixteen-wide
/// triangle issues form) or a few distance beats.  Every beat of a run is its own draw, so each
/// lane of a wide issue carries its own operands.
fn clustered_stream() -> impl Strategy<Value = Vec<RayFlexRequest>> {
    let run = prop_oneof![
        prop::collection::vec(ray_box(), 1..9),
        prop::collection::vec(ray_triangle(), 1..41),
        prop::collection::vec(request(), 1..4),
    ];
    prop::collection::vec(run, 1..6).prop_map(|runs| {
        let mut beats: Vec<RayFlexRequest> = runs.into_iter().flatten().collect();
        for (tag, beat) in beats.iter_mut().enumerate() {
            beat.tag = tag as u64;
        }
        beats
    })
}

/// Retargets a stream at a configuration: beats whose opcode the configuration cannot execute
/// are replaced by ray-box beats (keeping the stream length and order interesting).
fn supported_stream(config: &PipelineConfig, stream: &[RayFlexRequest]) -> Vec<RayFlexRequest> {
    stream
        .iter()
        .enumerate()
        .map(|(i, request)| {
            let mut request = if config.supports(request.opcode) {
                request.clone()
            } else {
                RayFlexRequest::ray_box(
                    0,
                    &Ray::new(Vec3::new(0.0, 0.0, -5.0), Vec3::new(0.0, 0.0, 1.0)),
                    &[Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0)); 4],
                )
            };
            request.tag = i as u64;
            request
        })
        .collect()
}

/// A vector lane for the distance-run streams: ordinary magnitudes plus the special values the
/// accumulator chain must carry exactly — NaN, ±inf, signed zeros and subnormals.
fn lane() -> impl Strategy<Value = f32> {
    prop_oneof![
        (-1000.0f32..1000.0),
        (-1.0f32..1.0),
        Just(f32::NAN),
        Just(f32::INFINITY),
        Just(f32::NEG_INFINITY),
        Just(0.0f32),
        Just(-0.0f32),
        (1u32..0x0080_0000).prop_map(f32::from_bits),
        (0x8000_0001u32..0x8080_0000).prop_map(f32::from_bits),
    ]
}

/// One same-opcode distance run of 1..48 beats: random masks, and a reset on roughly one beat
/// in four (at random positions, so multi-beat jobs of every length occur).
fn distance_run() -> impl Strategy<Value = Vec<RayFlexRequest>> {
    let beat = (
        prop::array::uniform16(lane()),
        prop::array::uniform16(lane()),
        any::<u16>(),
        0u8..4,
    );
    (any::<bool>(), prop::collection::vec(beat, 1..48)).prop_map(|(euclidean, beats)| {
        beats
            .into_iter()
            .map(|(a, b, mask, reset)| {
                let reset = reset == 0;
                if euclidean {
                    RayFlexRequest::euclidean(0, a, b, mask, reset)
                } else {
                    let a = core::array::from_fn(|lane| a[lane]);
                    let b = core::array::from_fn(|lane| b[lane]);
                    RayFlexRequest::cosine(0, a, b, mask as u8, reset)
                }
            })
            .collect()
    })
}

/// A stream of one to five distance runs (consecutive runs of the same opcode merge into one
/// longer run), tagged by position, plus random cut points splitting it across dispatch calls.
fn distance_stream() -> impl Strategy<Value = (Vec<RayFlexRequest>, Vec<usize>)> {
    (
        prop::collection::vec(distance_run(), 1..6),
        prop::collection::vec(0usize..256, 0..6),
    )
        .prop_map(|(runs, cuts)| {
            let mut beats: Vec<RayFlexRequest> = runs.into_iter().flatten().collect();
            for (tag, beat) in beats.iter_mut().enumerate() {
                beat.tag = tag as u64;
            }
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (beats.len() + 1)).collect();
            cuts.push(0);
            cuts.push(beats.len());
            cuts.sort_unstable();
            cuts.dedup();
            (beats, cuts)
        })
}

/// Bit-level equality of two responses: every floating-point field is compared on its bit
/// pattern, so NaN payloads and signed zeros count.
fn assert_bit_identical(
    expected: &RayFlexResponse,
    got: &RayFlexResponse,
    index: usize,
) -> Result<(), proptest::test_runner::TestCaseError> {
    prop_assert_eq!(expected.opcode, got.opcode, "beat {}", index);
    prop_assert_eq!(expected.tag, got.tag, "beat {}", index);
    match (&expected.box_result, &got.box_result) {
        (None, None) => {}
        (Some(e), Some(g)) => {
            prop_assert_eq!(e.hit, g.hit, "beat {}", index);
            prop_assert_eq!(e.traversal_order, g.traversal_order, "beat {}", index);
            prop_assert_eq!(
                e.t_entry.map(f32::to_bits),
                g.t_entry.map(f32::to_bits),
                "beat {}",
                index
            );
        }
        _ => prop_assert!(false, "beat {}: box_result presence mismatch", index),
    }
    match (&expected.triangle_result, &got.triangle_result) {
        (None, None) => {}
        (Some(e), Some(g)) => {
            prop_assert_eq!(e.hit, g.hit, "beat {}", index);
            prop_assert_eq!(
                [e.t_num, e.det, e.u, e.v, e.w].map(f32::to_bits),
                [g.t_num, g.det, g.u, g.v, g.w].map(f32::to_bits),
                "beat {}",
                index
            );
        }
        _ => prop_assert!(false, "beat {}: triangle_result presence mismatch", index),
    }
    match (&expected.distance_result, &got.distance_result) {
        (None, None) => {}
        (Some(e), Some(g)) => {
            prop_assert_eq!(
                [
                    e.euclidean_accumulator,
                    e.angular_dot_product,
                    e.angular_norm
                ]
                .map(f32::to_bits),
                [
                    g.euclidean_accumulator,
                    g.angular_dot_product,
                    g.angular_norm
                ]
                .map(f32::to_bits),
                "beat {}",
                index
            );
            prop_assert_eq!(e.euclidean_reset, g.euclidean_reset, "beat {}", index);
            prop_assert_eq!(e.angular_reset, g.angular_reset, "beat {}", index);
        }
        _ => prop_assert!(false, "beat {}: distance_result presence mismatch", index),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn batched_execution_matches_per_beat_execution_on_every_configuration(
        beats in stream()
    ) {
        for config in PipelineConfig::evaluated_configs() {
            let beats = supported_stream(&config, &beats);
            let mut scalar = RayFlexDatapath::new(config);
            let expected: Vec<RayFlexResponse> =
                beats.iter().map(|beat| scalar.execute(beat)).collect();
            // Every SIMD lane width must reproduce the per-beat emulation bit-for-bit: lanes = 1
            // is the plain fast path, 4 and 8 engage the lane-batched kernels (grouping ray-box
            // beats within a beat and ray-triangle beats across adjacent beats).
            for lanes in [1usize, 4, 8] {
                let mut batched = RayFlexDatapath::new(config);
                batched.set_simd_lanes(lanes);
                let got = batched.execute_batch(&beats);
                prop_assert_eq!(expected.len(), got.len());
                for (index, (e, g)) in expected.iter().zip(&got).enumerate() {
                    assert_bit_identical(e, g, index)?;
                }
                prop_assert_eq!(scalar.executed_beats(), batched.executed_beats());
                // The shared accumulator state stays bit-compatible between the two paths.
                prop_assert_eq!(scalar.accumulators(), batched.accumulators());
            }
        }
    }

    /// The widest tiers the test above never engages, on long same-opcode runs: twelve lanes
    /// issue three-beat box groups and eight-plus-four triangle tiers, sixteen lanes four-beat
    /// box groups and sixteen-wide triangle issues — each pinned to per-beat emulation.
    #[test]
    fn emulated_batches_agree_with_fast_batches(beats in clustered_stream()) {
        let config = PipelineConfig::extended_unified();
        let mut emulated = RayFlexDatapath::new(config);
        let expected: Vec<RayFlexResponse> =
            beats.iter().map(|beat| emulated.execute(beat)).collect();
        for lanes in [12usize, 16] {
            let mut fast = RayFlexDatapath::new(config);
            fast.set_simd_lanes(lanes);
            let got = fast.execute_batch(&beats);
            prop_assert_eq!(expected.len(), got.len());
            for (index, (e, g)) in expected.iter().zip(&got).enumerate() {
                assert_bit_identical(e, g, index)?;
            }
            prop_assert_eq!(emulated.accumulators(), fast.accumulators(), "lanes {}", lanes);
        }
    }

    /// A pass far longer than one response window, streamed back through the
    /// `begin_streamed_pass` / `execute_window` loop the RT unit's scheduler runs, must match
    /// the one-buffer `execute_batch_segmented` dispatch response for response and counter for
    /// counter at every lane width: windows close only between lane groups, so no grouping (and
    /// no lane, pass or per-kind count) moves.
    #[test]
    fn streamed_passes_match_one_buffer_passes(beats in stream(), len in 2100usize..3200) {
        let config = PipelineConfig::extended_unified();
        let beats: Vec<RayFlexRequest> = beats.iter().cycle().take(len).cloned().collect();
        let head = beats.len() / 3;
        let segments = [(QueryKind::ClosestHit, head), (QueryKind::Distance, beats.len() - head)];
        for lanes in [1usize, 4, 16] {
            let mut whole = RayFlexDatapath::new(config);
            whole.set_simd_lanes(lanes);
            let mut expected = Vec::new();
            whole.execute_batch_segmented(&beats, &segments, &mut expected);

            let mut streamed = RayFlexDatapath::new(config);
            streamed.set_simd_lanes(lanes);
            let mut window = Vec::new();
            let mut got = Vec::new();
            let mut windows = 0;
            let mut pass = streamed.begin_streamed_pass(beats.len(), &segments, &mut window);
            while !pass.is_finished() {
                streamed.execute_window(&beats[..], &segments, &mut pass, &mut window);
                windows += 1;
                got.extend_from_slice(&window);
            }
            prop_assert_eq!(expected.len(), got.len());
            for (index, (e, g)) in expected.iter().zip(&got).enumerate() {
                assert_bit_identical(e, g, index)?;
            }
            prop_assert!(windows > 1, "a {}-beat pass arrived in one window", beats.len());
            prop_assert_eq!(whole.beat_mix(), streamed.beat_mix());
            prop_assert_eq!(whole.accumulators(), streamed.accumulators());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Long distance runs split into chunks, each chunk dispatched through a different bulk
    /// interface of one datapath — `execute_batch` or a two-segment
    /// `execute_batch_segmented` pass — must match the per-beat emulated path
    /// response-for-response, with the accumulators bit-identical after every chunk (so state
    /// carried across calls is pinned too).
    #[test]
    fn distance_runs_match_the_emulated_path_across_dispatch_calls(
        stream in distance_stream()
    ) {
        let (beats, cuts) = stream;
        let config = PipelineConfig::extended_unified();
        for lanes in [1usize, 4, 16] {
            let mut emulated = RayFlexDatapath::new(config);
            let mut fast = RayFlexDatapath::new(config);
            fast.set_simd_lanes(lanes);
            let mut responses = Vec::new();
            for (call, window) in cuts.windows(2).enumerate() {
                let chunk = &beats[window[0]..window[1]];
                if call % 2 == 0 {
                    responses = fast.execute_batch(chunk);
                } else {
                    let head = chunk.len() / 2;
                    fast.execute_batch_segmented(
                        chunk,
                        &[(QueryKind::Distance, head), (QueryKind::Collect, chunk.len() - head)],
                        &mut responses,
                    );
                }
                prop_assert_eq!(responses.len(), chunk.len());
                for (offset, (beat, got)) in chunk.iter().zip(&responses).enumerate() {
                    let expected = emulated.execute(beat);
                    assert_bit_identical(&expected, got, window[0] + offset)?;
                }
                prop_assert_eq!(emulated.accumulators(), fast.accumulators());
            }
            prop_assert_eq!(emulated.executed_beats(), fast.executed_beats());
            let (e, f) = (emulated.beat_mix(), fast.beat_mix());
            for opcode in rayflex_core::Opcode::ALL {
                prop_assert_eq!(e.count(opcode), f.count(opcode));
            }
            prop_assert_eq!(f.simd_lane_slots(), 0, "distance beats occupy no SIMD lanes");
        }
    }
}
