//! Minimal timing harness for the `[[bench]]` targets.
//!
//! The build is hermetic (no external benchmark framework), so the
//! benches are plain `main()` binaries timed with [`std::time`]. Each
//! measurement runs one warm-up pass and reports the best of `reps`
//! timed passes — the usual "minimum is the least noisy estimator of
//! the true cost" convention.

use std::time::{Duration, Instant};

/// Number of timed repetitions: quick by default, longer sweeps under
/// `--features bench`.
#[must_use]
pub fn default_reps() -> u32 {
    if cfg!(feature = "bench") {
        10
    } else {
        3
    }
}

/// Times `f` (best of `reps` passes after one warm-up), prints a row
/// `label  best-time`, and returns the best duration.
pub fn bench_time<T>(label: &str, reps: u32, mut f: impl FnMut() -> T) -> Duration {
    std::hint::black_box(f());
    let mut best = Duration::MAX;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        std::hint::black_box(f());
        best = best.min(t0.elapsed());
    }
    println!("{label:<48} {best:>12.2?}");
    best
}

/// Writes one bench's rows and speedups as the JSON that
/// `scripts/check_bench.py` gates, when `KPA_BENCH_JSON` names the
/// output file (an absolute path: cargo runs benches from the package
/// directory). `bench` selects the gate's profile.
///
/// # Panics
///
/// If the file cannot be written.
pub fn write_bench_json<K: std::fmt::Display>(
    bench: &str,
    points: usize,
    reps: u32,
    rows: &[(String, Duration)],
    speedups: &[(K, f64)],
) {
    let Ok(path) = std::env::var("KPA_BENCH_JSON") else {
        return;
    };
    let mut out = format!(
        "{{\n  \"bench\": \"{bench}\",\n  \"points\": {points},\n  \"reps\": {reps},\n  \"rows\": [\n"
    );
    for (i, (label, d)) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"label\": \"{label}\", \"seconds\": {}}}{comma}\n",
            d.as_secs_f64()
        ));
    }
    out.push_str("  ],\n  \"speedups\": {\n");
    for (i, (key, v)) in speedups.iter().enumerate() {
        let comma = if i + 1 == speedups.len() { "" } else { "," };
        out.push_str(&format!("    \"{key}\": {v}{comma}\n"));
    }
    out.push_str("  }\n}\n");
    std::fs::write(&path, &out).unwrap_or_else(|e| panic!("failed to write {path}: {e}"));
    println!("\nwrote {path}");
}
