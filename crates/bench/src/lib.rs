//! # kpa-bench — the experiment and benchmark harness
//!
//! Regenerates every worked example and numbered result of Halpern &
//! Tuttle, *"Knowledge, Probability, and Adversaries"* (JACM 40(4),
//! 1993) and compares against the paper's stated values.
//!
//! * `cargo run -p kpa-bench --bin experiments` prints the full
//!   paper-vs-measured table (E1–E16; recorded in `EXPERIMENTS.md`);
//! * `cargo bench -p kpa-bench` times each experiment family plus
//!   scaling benchmarks for the engine (system construction, model
//!   checking, safety decisions, cut bounds).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod experiments;
mod rows;
mod timing;

pub use timing::{bench_time, default_reps, write_bench_json};

pub use experiments::{
    all_experiments, e01_vardi, e02_footnote5, e03_primality, e04_attack_pointwise,
    e05_coin_post_fut, e06_die_subdivision, e07_lattice, e08_theorem7, e09_theorem8, e10_theorem9,
    e11_async_coins, e12_prop10, e13_pts_vs_state, e14_prop11, e15_two_aces, e16_embedding,
    e17_extensions, e18_scheduler, e19_rational_opponents, e20_leaky_prover, e21_election,
    e22_monty_hall,
};
pub use rows::Row;
