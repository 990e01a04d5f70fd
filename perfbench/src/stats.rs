//! Shared measurement plumbing: the seeded input generator, order statistics over timing
//! samples, the metric table every workload fills, and the process's peak resident set.

use std::time::Instant;

/// SplitMix64: the benchmark's own seeded generator for inputs the library generators do not
/// cover (request mixes, Poisson arrivals, oracle samples).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5eed_be9c_4a7e_11d5)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// The `p`-quantile (`0.0..=1.0`) of `values` by nearest rank; sorts in place.  `0.0` for an
/// empty sample.
pub fn quantile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(f64::total_cmp);
    let rank = ((values.len() as f64 - 1.0) * p).round() as usize;
    values[rank.min(values.len() - 1)]
}

pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Windows of [`windowed_quantile`] in every end-to-end latency figure.
pub const WINDOWS: usize = 15;

/// The median over `windows` consecutive equal slices of a time-ordered sample of each slice's
/// `p`-quantile: one burst of host noise moves one window, not the reported figure.
pub fn windowed_quantile(values: &[f64], windows: usize, p: f64) -> f64 {
    let size = values.len().div_ceil(windows.max(1)).max(1);
    let mut per_window: Vec<f64> = values
        .chunks(size)
        .map(|chunk| quantile(&mut chunk.to_vec(), p))
        .collect();
    median(&mut per_window)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Times `f`, returning its result and the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Runs `setup` `repeats` times and returns the last result with the median duration — set-up
/// time is reported as a median so one slow allocation does not move it.
pub fn median_setup<T>(repeats: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats.max(1) {
        let (value, seconds) = timed(&mut setup);
        times.push(seconds);
        last = Some(value);
    }
    (
        last.expect("at least one set-up repeat"),
        median(&mut times),
    )
}

/// An ordered metric table: `(name, value, unit)` rows in the order they were recorded.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    rows: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        debug_assert!(value.is_finite(), "metric {name} is not finite");
        self.rows.retain(|(existing, _, _)| *existing != name);
        self.rows.push((name, value, unit));
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|(existing, _, _)| existing == name)
            .map(|&(_, value, _)| value)
    }

    pub fn extend(&mut self, other: Metrics) {
        for (name, value, unit) in other.rows {
            self.put(name, value, unit);
        }
    }

    pub fn rows(&self) -> &[(String, f64, &'static str)] {
        &self.rows
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .rows
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// What one run of a workload produced: its metrics plus the oracle's verdict.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    /// Operations that failed, were refused or produced a wrong output.
    pub failed: u64,
    /// Outputs the oracle found wrong (a subset of `failed`); any makes the run exit non-zero.
    pub mismatched: u64,
}

impl Outcome {
    /// Counts `wrong` wrong outputs out of `attempted` operations.
    pub fn checked(&mut self, attempted: u64, wrong: u64) {
        self.attempted += attempted;
        self.failed += wrong;
        self.mismatched += wrong;
    }
}

/// Peak resident set size of this process in MiB, from `getrusage(RUSAGE_SELF)`.
pub fn peak_rss_mb() -> f64 {
    // `struct rusage` on 64-bit Linux: two `timeval`s (2 × 16 bytes) then fourteen `long`s;
    // `ru_maxrss` (KiB) is the first `long`, at index 4 of an array of 18 `i64`s.
    extern "C" {
        fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
    }
    let mut usage = [0i64; 18];
    // SAFETY: `usage` is a writable buffer exactly the size of `struct rusage` on 64-bit Linux,
    // and `RUSAGE_SELF` (0) only reads this process's own counters.
    let status = unsafe { getrusage(0, &mut usage) };
    if status != 0 {
        return 0.0;
    }
    usage[4] as f64 / 1024.0
}
