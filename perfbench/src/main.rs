//! The repository benchmark.  One seeded command runs one named workload, checks every output
//! against the scalar reference or a direct library call, and prints one JSON result line:
//!
//! ```text
//! rayflex-perfbench --workload <trace_divergent|render_ao|serve_mix> --seed <n>
//!                   [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer metrics of the traced
//! run (see `README.md` in this directory for what each metric means and which end-to-end
//! metric it should move).

mod render_ao;
mod serve_mix;
mod stats;
#[cfg(test)]
mod tests;
mod trace_divergent;

use stats::{peak_rss_mb, Outcome};

const USAGE: &str = "usage: rayflex-perfbench --workload <trace_divergent|render_ao|serve_mix> \
                     --seed <n> [--seconds <s>] [--trace <0|1>]";

/// The workloads, in the order a traced run visits them.
pub const WORKLOADS: [&str; 3] = ["trace_divergent", "render_ao", "serve_mix"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must lie in (0, 60], not {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut outcome = if args.trace {
        traced(&args)
    } else {
        untraced(&args.workload, args.seed, args.seconds)
    };
    if !args.trace {
        outcome.metrics.put("peak_rss_mb", peak_rss_mb(), "MB");
    }
    let correct = outcome.mismatched == 0 && outcome.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        outcome.metrics.to_json()
    );
    if !correct {
        eprintln!(
            "perfbench: {} of {} outputs failed the oracle",
            outcome.mismatched, outcome.attempted
        );
        std::process::exit(1);
    }
}

/// The end-to-end run of one workload.
fn untraced(workload: &str, seed: u64, seconds: f64) -> Outcome {
    match workload {
        "trace_divergent" => trace_divergent::run(seed, seconds),
        "render_ao" => render_ao::run(seed, seconds),
        _ => serve_mix::run(seed, seconds),
    }
}

/// The traced run: every workload's traced phase, so each per-layer metric is measured on the
/// workload it belongs to, plus the selected workload's own attribution check and tracing
/// overhead (`trace.*`).
fn traced(args: &Args) -> Outcome {
    let mut outcome = Outcome::default();
    let share = args.seconds / WORKLOADS.len() as f64;
    for workload in WORKLOADS {
        let phase = match workload {
            "trace_divergent" => trace_divergent::trace(args.seed, share),
            "render_ao" => render_ao::trace(args.seed, share),
            _ => serve_mix::trace(args.seed, share),
        };
        let own = workload == args.workload;
        for (name, value, unit) in phase.metrics.rows() {
            match name.strip_prefix("own.") {
                Some(own_name) if own => outcome.metrics.put(own_name, *value, unit),
                Some(_) => {}
                None => outcome.metrics.put(name.clone(), *value, unit),
            }
        }
        outcome.attempted += phase.attempted;
        outcome.failed += phase.failed;
        outcome.mismatched += phase.mismatched;
    }
    outcome
}
