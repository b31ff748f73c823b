//! # kpa-pool — the retired sweep-width knob, kept as two pass-throughs
//!
//! Every engine sweep — the `K_i` class scan, the `Pr_i ≥ α` point
//! sweep, the betting safety decisions and the asynchrony cut bounds —
//! runs as a plain loop on the calling thread. Concurrency lives one
//! level up, where the traffic has it: one `kpa-serve` thread per
//! connection over a shared `Arc<ModelArtifact>`.
//!
//! What is left here are the two entry points the shared benchmark
//! (`kpabench/`) still calls: [`default_threads`], which reports the
//! sweep width (always 1), and [`with_threads`], which runs its closure
//! unchanged. The next change to the benchmark can drop those two
//! calls, and this crate with them.
//!
//! # Examples
//!
//! ```
//! assert_eq!(kpa_pool::default_threads(), 1);
//! assert_eq!(kpa_pool::with_threads(4, || 6 * 7), 42);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The width every engine sweep runs at: always 1, the calling thread.
#[must_use]
pub fn default_threads() -> usize {
    1
}

/// Runs `f` on the calling thread and returns its result; `threads` is
/// ignored, because every sweep is serial.
pub fn with_threads<T>(_threads: usize, f: impl FnOnce() -> T) -> T {
    f()
}
