//! The benchmark's own checks, at small sizes: the exact counters repeat bit for bit across
//! two runs of one seed, and each traced run's layer self times plus its unattributed share
//! account for its end-to-end time.

use crate::stats::Metrics;
use crate::{render_ao, trace_divergent};

const SEED: u64 = 7;

fn value(metrics: &Metrics, name: &str) -> f64 {
    metrics
        .get(name)
        .unwrap_or_else(|| panic!("metric {name} is missing"))
}

fn assert_repeats(first: &Metrics, second: &Metrics, names: &[&str]) {
    for name in names {
        assert_eq!(
            value(first, name).to_bits(),
            value(second, name).to_bits(),
            "{name} differs between two runs of one seed"
        );
    }
}

fn assert_accounts(metrics: &Metrics, layers: &[&str]) {
    let e2e = value(metrics, "own.trace.e2e_s");
    let covered: f64 = layers.iter().map(|name| value(metrics, name)).sum::<f64>()
        + value(metrics, "own.trace.unattributed_share") * e2e;
    assert!(e2e > 0.0);
    assert!(
        (covered - e2e).abs() <= 1e-9 * e2e.max(1.0),
        "layers plus unattributed cover {covered} s of {e2e} s"
    );
}

#[test]
fn trace_divergent_counters_repeat_and_layers_account_for_the_run() {
    let runs: Vec<_> = (0..2)
        .map(|_| trace_divergent::trace_sized(SEED, 2, 64))
        .collect();
    for run in &runs {
        assert_eq!(run.mismatched, 0, "the traced run matches the reference");
    }
    assert_repeats(
        &runs[0].metrics,
        &runs[1].metrics,
        &[
            "core.beats.ray_box",
            "core.beats.ray_triangle",
            "core.lane_slots",
            "core.lanes_busy",
            "query.passes",
            "traversal.beats_per_ray",
        ],
    );
    assert!(value(&runs[0].metrics, "core.beats.ray_box") > 0.0);
    assert_accounts(
        &runs[0].metrics,
        &[
            "traversal.start_s",
            "traversal.build_s",
            "traversal.apply_s",
            "core.kernel_s",
            "query.sched_self_s",
        ],
    );

    let e2e: Vec<_> = (0..2)
        .map(|_| trace_divergent::run_sized(SEED, 0.0, 2, 64))
        .collect();
    assert_repeats(&e2e[0].metrics, &e2e[1].metrics, &["device_slots_per_item"]);
    assert_eq!(e2e[0].mismatched, 0);
}

#[test]
fn render_ao_counters_repeat_and_layers_account_for_the_frame() {
    let runs: Vec<_> = (0..2)
        .map(|_| render_ao::trace_sized(SEED, 24, 16, 1))
        .collect();
    for run in &runs {
        assert_eq!(
            run.mismatched, 0,
            "the recomposed frame matches Renderer::render"
        );
    }
    assert_repeats(
        &runs[0].metrics,
        &runs[1].metrics,
        &["renderer.rays_per_frame"],
    );
    assert!(value(&runs[0].metrics, "renderer.rays_per_frame") > 0.0);
    assert_accounts(
        &runs[0].metrics,
        &[
            "renderer.primary_s",
            "renderer.surfels_s",
            "renderer.shadow_s",
            "renderer.ao_s",
            "renderer.shade_s",
        ],
    );

    let e2e: Vec<_> = (0..2)
        .map(|_| render_ao::run_sized(SEED, 0.0, 24, 16))
        .collect();
    assert_repeats(&e2e[0].metrics, &e2e[1].metrics, &["device_slots_per_item"]);
    assert_eq!(e2e[0].mismatched, 0);
}
