//! The size ladder: per-point throughput from 10⁴ to 10⁶ points.
//!
//! Every other bench tops out at ~11k points; this one builds the
//! asynchronous coin-toss system at three rungs —
//! `async_coin_tosses(n)` has 2ⁿ runs × (n+1) times, so n = 10/13/16
//! lands at 1.1×10⁴ / 1.1×10⁵ / 1.1×10⁶ points — and times
//! four workloads per rung, reporting each as points per second so the
//! rungs are comparable:
//!
//! * `sat` — a fresh boolean/temporal model check;
//! * `knows` — a fresh `K_i φ` class sweep;
//! * `pr_family` — one batched `Pr_i ≥ α₁…α₄ φ` sweep;
//! * `measure` — dense `measure_interval` over the planned spaces.
//!
//! A fifth row pair pits the wide, footprint-skipping `PointSet` kernel
//! against the scalar full-span `narrow_*` reference on a
//! knows-sweep-shaped workload (class subset test + accumulate) over a
//! synthetic universe of the same rung size. The two paths are asserted
//! bit-identical first and timed second; at the 10⁶ rung the wide path
//! must win by ≥ 2× (the `ladder_wide_vs_narrow_1e6` gate in
//! `scripts/check_bench.py`, profile `scale`).
//!
//! Run with `cargo bench -p kpa-bench --bench ladder`. Set
//! `KPA_BENCH_JSON=/abs/path.json` (or use `scripts/bench.sh`, which
//! gates it against `baselines/ladder.json`) to emit the rows as
//! machine-readable JSON.

use kpa_assign::{Assignment, ProbAssignment};
use kpa_logic::{Formula, Model};
use kpa_measure::{rat, Rat};
use kpa_protocols::async_coin_tosses;
use kpa_system::{AgentId, PointIndex, PointSet};
use std::sync::Arc;
use std::time::Duration;

/// One ladder rung: the display label (`1e4`…) and the coin count `n`
/// (2ⁿ runs × (n+1) times).
struct Rung {
    label: &'static str,
    coins: usize,
}

/// The deterministic xorshift64* the workspace uses in lieu of a rand
/// dependency; seeds the synthetic φ sets so every run times the same
/// bits.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// The class-sweep fixture for the wide-vs-narrow rows: `classes`
/// partition a synthetic universe of ~`total` points into 256
/// contiguous, footprint-tight sets (the shape `knows_set` sweeps), and
/// `phi` holds a pseudo-random half of the points of every 8th class —
/// so some subset tests succeed, most fail, and both paths do the same
/// accumulations.
struct SweepFixture {
    classes: Vec<PointSet>,
    phi: PointSet,
    empty: PointSet,
}

fn sweep_fixture(total: usize) -> SweepFixture {
    let horizon = 15;
    let runs = total / (horizon + 1);
    let index = Arc::new(PointIndex::new(vec![runs], horizon));
    let n = index.total();
    let class_count = 256.min(n);
    let per = n / class_count;
    let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
    let mut classes = Vec::with_capacity(class_count);
    let mut phi = PointSet::empty(Arc::clone(&index));
    for k in 0..class_count {
        let lo = k * per;
        let hi = if k + 1 == class_count { n } else { lo + per };
        let mut class = PointSet::empty(Arc::clone(&index));
        for i in lo..hi {
            class.insert(index.point_at(i));
            // Every 8th class is fully φ (its subset test succeeds);
            // elsewhere φ keeps a random half, so the test fails after
            // real work.
            if k % 8 == 0 || rng.next().is_multiple_of(2) {
                phi.insert(index.point_at(i));
            }
        }
        if k % 8 != 0 {
            // Guarantee at least one miss so the subset test is false.
            phi.remove(index.point_at(lo));
        }
        classes.push(class);
    }
    let empty = PointSet::empty(index);
    SweepFixture {
        classes,
        phi,
        empty,
    }
}

impl SweepFixture {
    /// The wide, footprint-skipping sweep: the engine's own ops.
    fn wide(&self) -> (PointSet, usize) {
        let mut acc = self.empty.clone();
        let mut inter = 0usize;
        for class in &self.classes {
            if class.is_subset(&self.phi) {
                acc.union_with(class);
            } else {
                inter += class.intersection_len(&self.phi);
            }
        }
        (acc, inter)
    }

    /// The same sweep through the scalar full-span reference ops.
    fn narrow(&self) -> (PointSet, usize) {
        let mut acc = self.empty.clone();
        let mut inter = 0usize;
        for class in &self.classes {
            if class.narrow_is_subset(&self.phi) {
                acc.narrow_union_with(class);
            } else {
                inter += class.narrow_intersection_len(&self.phi);
            }
        }
        (acc, inter)
    }
}

fn main() {
    let reps = kpa_bench::default_reps();
    let mut rows: Vec<(String, Duration)> = Vec::new();
    let mut speedups: Vec<(String, f64)> = Vec::new();
    let mut max_points = 0usize;

    let rungs = [
        Rung {
            label: "1e4",
            coins: 10,
        },
        Rung {
            label: "1e5",
            coins: 13,
        },
        Rung {
            label: "1e6",
            coins: 16,
        },
    ];

    let p1 = AgentId(0);
    let p2 = AgentId(1);
    let alphas: Vec<Rat> = (1..=4).map(|k| Rat::new(k, 4)).collect();

    for rung in &rungs {
        let Rung { label, coins } = *rung;
        let sys = async_coin_tosses(coins).expect("builds");
        let n_points = sys.points().count();
        max_points = max_points.max(n_points);
        println!("── rung {label}: {n_points} points (n = {coins}) ──");

        // ---- wide vs narrow set algebra ---------------------------
        let fx = sweep_fixture(n_points);
        let (wide_set, wide_n) = fx.wide();
        let (narrow_set, narrow_n) = fx.narrow();
        assert_eq!(
            wide_set, narrow_set,
            "wide and narrow sweeps must be bit-identical ({label})"
        );
        assert_eq!(wide_n, narrow_n, "intersection counts must agree ({label})");
        assert!(
            wide_set.footprint_is_valid(),
            "footprint invariant ({label})"
        );
        let wide_t =
            kpa_bench::bench_time(&format!("ladder_sweep/wide/{label}"), reps, || fx.wide().1);
        let narrow_t = kpa_bench::bench_time(&format!("ladder_sweep/narrow/{label}"), reps, || {
            fx.narrow().1
        });
        rows.push((format!("ladder_sweep/wide/{label}"), wide_t));
        rows.push((format!("ladder_sweep/narrow/{label}"), narrow_t));
        let ratio = narrow_t.as_secs_f64() / wide_t.as_secs_f64();
        speedups.push((format!("ladder_wide_vs_narrow_{label}"), ratio));
        println!("  wide vs narrow: {ratio:.1}×");
        if label == "1e6" {
            assert!(
                ratio >= 2.0,
                "wide kernel must be ≥ 2× the narrow reference at 10⁶ points (got {ratio:.2}×)"
            );
        }

        // ---- model workloads --------------------------------------
        let post = ProbAssignment::new(&sys, Assignment::post());
        // Warm the one-time per-agent plan so the throughput rows time
        // steady-state sweeps, not the amortized plan build.
        let _ = post.sample_plan(p1);

        let f_sat = Formula::prop("recent=h").implies(Formula::prop("recent=t").eventually());
        let sat_t = kpa_bench::bench_time(&format!("ladder_sat/{label}"), reps, || {
            // Fresh model per pass so the formula cache cannot help.
            Model::new(&post).sat(&f_sat).expect("model checks").len()
        });
        rows.push((format!("ladder_sat/{label}"), sat_t));
        speedups.push((
            format!("sat_pts_per_s_{label}"),
            n_points as f64 / sat_t.as_secs_f64(),
        ));

        let f_knows = Formula::prop("recent=h").known_by(p2);
        let knows_t = kpa_bench::bench_time(&format!("ladder_knows/{label}"), reps, || {
            Model::new(&post).sat(&f_knows).expect("model checks").len()
        });
        rows.push((format!("ladder_knows/{label}"), knows_t));
        speedups.push((
            format!("knows_pts_per_s_{label}"),
            n_points as f64 / knows_t.as_secs_f64(),
        ));

        let body = Formula::prop("recent=h");
        let family_t = kpa_bench::bench_time(&format!("ladder_pr_family/{label}"), reps, || {
            Model::new(&post)
                .pr_ge_family(p1, &alphas, &body)
                .expect("model checks")
                .len()
        });
        rows.push((format!("ladder_pr_family/{label}"), family_t));
        speedups.push((
            format!("pr_family_pts_per_s_{label}"),
            n_points as f64 / family_t.as_secs_f64(),
        ));

        // Dense measure over the planned spaces: the first 24 distinct
        // spaces (ptr-distinct, as in the kernel bench — capped so the
        // row stays a fixed-size probe at every rung), three query
        // shapes each.
        let mut spaces = Vec::new();
        for c in sys.points() {
            let s = post.space(p1, c).expect("space builds");
            if !spaces.iter().any(|d| Arc::ptr_eq(d, &s)) {
                spaces.push(s);
                if spaces.len() >= 24 {
                    break;
                }
            }
        }
        assert!(!spaces.is_empty(), "plan must cover some points ({label})");
        let phi_set = sys.points_satisfying(sys.prop_id("recent=h").expect("prop"));
        let queries = [phi_set.clone(), phi_set.complement(), sys.full_points()];
        let measure_t = kpa_bench::bench_time(&format!("ladder_measure/{label}"), reps, || {
            let mut acc = Rat::ZERO;
            for s in &spaces {
                for q in &queries {
                    let (lo, hi) = s.measure_interval(q);
                    acc += lo;
                    acc += hi;
                }
            }
            acc
        });
        rows.push((format!("ladder_measure/{label}"), measure_t));
        speedups.push((
            format!("measure_pts_per_s_{label}"),
            n_points as f64 / measure_t.as_secs_f64(),
        ));

        // Per-rung identity spot check: the engine's own `pr_ge` result
        // is consistent with the family sweep (same α, same φ).
        let single = Model::new(&post)
            .sat(&body.clone().pr_ge(p1, rat!(1 / 2)))
            .expect("model checks");
        let family = Model::new(&post)
            .pr_ge_family(p1, &alphas, &body)
            .expect("model checks");
        assert_eq!(
            *single, *family[1],
            "family member α = 1/2 must equal the single sweep ({label})"
        );
    }

    println!(
        "\nladder complete: {} rungs, {max_points} max points",
        rungs.len()
    );

    kpa_bench::write_bench_json("scale", max_points, reps, &rows, &speedups);
}
