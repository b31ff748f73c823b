//! Micro-benchmark of the dense `PointSet` kernel.
//!
//! Pits the word-wise `Model::sat` evaluator against an independent
//! reference evaluator that computes the same Section 5 semantics over
//! `BTreeSet<PointId>` — the representation the engine used before the
//! kernel refactor. Outputs are asserted identical on the paper's
//! walkthrough systems, and the timed comparison runs on an
//! asynchronous coin system with > 10⁴ points, where the bitset path
//! is required to be at least 2× faster.
//!
//! A second timed row model checks a probability-heavy `K^α` formula
//! over a fresh `fut` assignment per pass, so every pass builds its
//! sample spaces and dense kernels from scratch; its traced twin is the
//! bench's source of the `measure.kernel_built` counter.
//!
//! A third timed section pins the dense *measure* kernel: the fused
//! word-masked `measure_interval` of `DensePointSpace` against the
//! generic element-at-a-time scan of the same spaces (required ≥ 2×
//! faster), and the `Pr_i ≥ α` threshold family as k serial tree-walk
//! sweeps vs one batched `pr_ge_family` call through the hash-consed
//! formula DAG (required ≥ 2× faster).
//!
//! A fourth timed section pins the batched sample plan: the same
//! memoized `Pr_i ≥ α` threshold family with the per-agent
//! `SamplePlan` off (the unplanned per-point extraction path) vs on
//! (one table lookup per point); the planned sweep is required to be
//! ≥ 2× faster — the speedup the `Pr` memo alone could not deliver
//! while every point re-extracted its sample.
//!
//! After the timed sections, a traced pass re-runs each row's workload
//! once under `kpa-trace` and asserts — via the kernel fallback
//! counters — that the dense rows actually exercised the dense path.
//! Each traced row's wall time also feeds the `bench.row_ns` rolling
//! window, so the exported trace report exercises the schema-v2
//! `windowed` and `spans` sections end to end.
//!
//! Run with `cargo bench -p kpa-bench --bench kernel`. Set
//! `KPA_BENCH_JSON=/abs/kernel.json` to emit the rows as
//! machine-readable JSON and `KPA_TRACE_JSON=/abs/trace.json` to emit
//! the traced pass's counter report; `scripts/bench.sh` does both and
//! gates them against `baselines/kernel.json` and
//! `baselines/trace.json`.

use kpa_assign::{Assignment, ProbAssignment};
use kpa_logic::{Formula, Model};
use kpa_measure::{rat, Rat};
use kpa_protocols::{async_coin_tosses, ca1, secret_coin};
use kpa_system::{AgentId, PointId, System};
use std::collections::BTreeSet;

/// Reference evaluator: the paper's satisfaction relation, computed
/// point-by-point over `BTreeSet<PointId>`. Covers the fragment the
/// benchmark and the identity checks use (everything except the
/// common-knowledge fixed points).
fn reference_sat(sys: &System, pa: &ProbAssignment<'_>, f: &Formula) -> BTreeSet<PointId> {
    match f {
        Formula::True => sys.points().collect(),
        Formula::Prop(name) => {
            let id = sys.prop_id(name).expect("known proposition");
            sys.points().filter(|&p| sys.holds(id, p)).collect()
        }
        Formula::Not(x) => {
            let s = reference_sat(sys, pa, x);
            sys.points().filter(|p| !s.contains(p)).collect()
        }
        Formula::And(xs) => {
            let mut acc: BTreeSet<PointId> = sys.points().collect();
            for x in xs {
                let s = reference_sat(sys, pa, x);
                acc.retain(|p| s.contains(p));
            }
            acc
        }
        Formula::Or(xs) => {
            let mut acc = BTreeSet::new();
            for x in xs {
                acc.extend(reference_sat(sys, pa, x));
            }
            acc
        }
        Formula::Knows(i, x) => {
            let s = reference_sat(sys, pa, x);
            sys.points()
                .filter(|&c| sys.indistinguishable(*i, c).iter().all(|d| s.contains(&d)))
                .collect()
        }
        Formula::PrGe(i, alpha, x) => {
            let s = reference_sat(sys, pa, x);
            sys.points()
                .filter(|&c| pa.inner(*i, c, &s).expect("space builds") >= *alpha)
                .collect()
        }
        Formula::Next(x) => {
            let s = reference_sat(sys, pa, x);
            let succ = |p: &PointId| PointId {
                tree: p.tree,
                run: p.run,
                time: p.time + 1,
            };
            sys.points()
                .filter(|p| p.time < sys.horizon() && s.contains(&succ(p)))
                .collect()
        }
        Formula::Until(x, y) => {
            let hold = reference_sat(sys, pa, x);
            let goal = reference_sat(sys, pa, y);
            let succ = |p: &PointId| PointId {
                tree: p.tree,
                run: p.run,
                time: p.time + 1,
            };
            let mut acc = goal;
            loop {
                let next: BTreeSet<PointId> = sys
                    .points()
                    .filter(|p| {
                        acc.contains(p)
                            || (hold.contains(p)
                                && p.time < sys.horizon()
                                && acc.contains(&succ(p)))
                    })
                    .collect();
                if next == acc {
                    break acc;
                }
                acc = next;
            }
        }
        _ => panic!("reference evaluator: unsupported fragment {f:?}"),
    }
}

/// Asserts that the kernel evaluator and the reference evaluator agree
/// on `f` over `sys`.
fn check_identical(sys: &System, f: &Formula) {
    let post = ProbAssignment::new(sys, Assignment::post());
    let model = Model::new(&post);
    let fast = model.sat(f).expect("model checks");
    let slow = reference_sat(sys, &post, f);
    let fast_pts: BTreeSet<PointId> = fast.iter().collect();
    assert_eq!(fast_pts, slow, "evaluators disagree on {f}");
}

fn main() {
    let reps = kpa_bench::default_reps();
    let mut rows: Vec<(String, std::time::Duration)> = Vec::new();

    // Identity on the paper walkthrough systems: the introduction's
    // secret coin, the Section 7 asynchronous tosses, and the Section 4
    // coordinated-attack protocol.
    let coin = secret_coin().expect("builds");
    let p1 = AgentId(0);
    for f in [
        Formula::prop("c=h"),
        Formula::prop("c=h").known_by(AgentId(2)),
        Formula::prop("c=h").k_alpha(p1, rat!(1 / 2)),
        Formula::prop("recent:c=h").next(),
    ] {
        check_identical(&coin, &f);
    }
    let tosses = async_coin_tosses(4).expect("builds");
    for f in [
        Formula::prop("recent=h").eventually(),
        Formula::prop("recent=h").k_alpha(p1, rat!(1 / 2)),
        Formula::prop("c0=h").until(Formula::prop("recent=t")),
    ] {
        check_identical(&tosses, &f);
    }
    let attack = ca1(3, Rat::new(1, 2)).expect("builds");
    for f in [
        Formula::prop("coordinated").eventually(),
        Formula::prop("coordinated")
            .eventually()
            .not()
            .known_by(AgentId(0)),
    ] {
        check_identical(&attack, &f);
    }
    println!("identity checks passed (secret coin, async tosses, coordinated attack)\n");

    // The timed comparison: 2^10 runs × 11 times = 11 264 points.
    let sys = async_coin_tosses(10).expect("builds");
    let n_points = sys.points().count();
    assert!(n_points >= 10_000, "need ≥ 10⁴ points, got {n_points}");
    let p2 = AgentId(1);
    let f = Formula::prop("recent=h")
        .implies(Formula::prop("recent=t").eventually())
        .known_by(p2);
    let post = ProbAssignment::new(&sys, Assignment::post());

    let fast = kpa_bench::bench_time(&format!("kernel_sat/bitset/{n_points}"), reps, || {
        // A fresh model per pass so the formula cache cannot help.
        let model = Model::new(&post);
        model.sat(&f).expect("model checks").len()
    });
    let slow = kpa_bench::bench_time(&format!("kernel_sat/btreeset/{n_points}"), reps, || {
        reference_sat(&sys, &post, &f).len()
    });
    rows.push((format!("kernel_sat/bitset/{n_points}"), fast));
    rows.push((format!("kernel_sat/btreeset/{n_points}"), slow));

    // Outputs identical on the large system too.
    check_identical(&sys, &f);

    let speedup = slow.as_secs_f64() / fast.as_secs_f64();
    println!("\nspeedup: {speedup:.1}× on {n_points} points");
    assert!(
        speedup >= 2.0,
        "dense kernel must be ≥ 2× faster than the BTreeSet reference (got {speedup:.2}×)"
    );

    // ------------------------------------------------------------------
    // Cold `K^α`: a probability-heavy formula (`K^α` forces a per-point
    // space sweep) over a fresh `fut` assignment per pass, so neither
    // the formula cache nor the space cache can help.
    // ------------------------------------------------------------------
    let g = Formula::prop("recent=h").k_alpha(p2, rat!(1 / 2));
    let run_cold_k_alpha = || {
        let fresh = ProbAssignment::new(&sys, Assignment::fut());
        Model::new(&fresh).sat(&g).expect("model checks").len()
    };
    let cold = kpa_bench::bench_time(
        &format!("kernel_k_alpha/fresh_fut/{n_points}"),
        reps,
        run_cold_k_alpha,
    );
    rows.push((format!("kernel_k_alpha/fresh_fut/{n_points}"), cold));

    // ------------------------------------------------------------------
    // Measure kernel: word-masked block traces + common-denominator
    // accumulation (the dense `measure_interval` path) vs the generic
    // element-at-a-time scan, on the clockless agent's post spaces
    // (1024 runs × 11 times). Each query is one pass over the space.
    // ------------------------------------------------------------------
    let phi_set = sys.points_satisfying(sys.prop_id("recent=h").expect("prop"));
    let c0_set = sys.points_satisfying(sys.prop_id("c0=h").expect("prop"));
    // The distinct sample spaces the clockless agent sees under P^post.
    let mut spaces = Vec::new();
    for c in sys.points() {
        let s = post.space(p1, c).expect("space builds");
        if !spaces.iter().any(|d| std::sync::Arc::ptr_eq(d, &s)) {
            assert!(s.has_kernel(), "dense kernel must build for paper systems");
            spaces.push(s);
        }
    }
    let queries = [
        phi_set.clone(),
        phi_set.complement(),
        c0_set.clone(),
        c0_set.union(&phi_set),
        sys.full_points(),
    ];
    // Both paths agree query-for-query (the differential suite sweeps
    // this broadly; re-asserted here so the timed rows do equal work).
    for s in &spaces {
        for q in &queries {
            assert_eq!(
                s.measure_interval(q),
                s.generic().measure_interval(q),
                "dense and generic intervals must be bit-identical"
            );
        }
    }
    let n_spaces = spaces.len();
    let dense_t = kpa_bench::bench_time(
        &format!("measure_interval/dense/{n_spaces}x{n_points}"),
        reps,
        || {
            let mut acc = Rat::ZERO;
            for s in &spaces {
                for q in &queries {
                    let (lo, hi) = s.measure_interval(q);
                    acc += lo;
                    acc += hi;
                }
            }
            acc
        },
    );
    let generic_t = kpa_bench::bench_time(
        &format!("measure_interval/generic/{n_spaces}x{n_points}"),
        reps,
        || {
            let mut acc = Rat::ZERO;
            for s in &spaces {
                for q in &queries {
                    let (lo, hi) = s.generic().measure_interval(q);
                    acc += lo;
                    acc += hi;
                }
            }
            acc
        },
    );
    rows.push((
        format!("measure_interval/dense/{n_spaces}x{n_points}"),
        dense_t,
    ));
    rows.push((
        format!("measure_interval/generic/{n_spaces}x{n_points}"),
        generic_t,
    ));
    let measure_speedup = generic_t.as_secs_f64() / dense_t.as_secs_f64();
    println!("\nmeasure kernel speedup: {measure_speedup:.1}× (dense vs generic)");
    assert!(
        measure_speedup >= 2.0,
        "dense measure kernel must be ≥ 2× faster than the generic scan (got {measure_speedup:.2}×)"
    );

    // ------------------------------------------------------------------
    // Compiled threshold family: k serial tree-walk sweeps (one model
    // check per α, the pre-compiler engine path with every memo on) vs
    // ONE `pr_ge_family` call through the hash-consed DAG, which
    // resolves each distinct sample space once and reads off all k
    // verdicts per class, so the row isolates the sweep-count
    // reduction.
    // ------------------------------------------------------------------
    let alphas = [rat!(1 / 4), rat!(1 / 2), rat!(3 / 4), Rat::ONE];
    let family: Vec<Formula> = alphas
        .iter()
        .map(|&a| Formula::prop("recent=h").pr_ge(p1, a))
        .collect();
    let dag_alphas: Vec<Rat> = (1..=8).map(|k| Rat::new(k, 8)).collect();
    let dag_body = Formula::prop("recent=h");
    let run_dag_off = || -> Vec<usize> {
        // Fresh model per pass (no formula cache); k independent
        // tree-walk sweeps, one per threshold.
        let model = Model::new(&post);
        dag_alphas
            .iter()
            .map(|&a| {
                model
                    .sat(&dag_body.clone().pr_ge(p1, a))
                    .expect("model checks")
                    .len()
            })
            .collect()
    };
    let run_dag_on = || -> Vec<usize> {
        // Fresh model per pass: one batched call over the same family.
        let model = Model::new(&post);
        model
            .pr_ge_family(p1, &dag_alphas, &dag_body)
            .expect("model checks")
            .iter()
            .map(|s| s.len())
            .collect()
    };
    assert_eq!(
        run_dag_off(),
        run_dag_on(),
        "the one-sweep family evaluator must be observationally invisible"
    );
    let dag_off = kpa_bench::bench_time(&format!("pr_ge_family/dag_off/{n_points}"), reps, || {
        run_dag_off()
    });
    let dag_on = kpa_bench::bench_time(&format!("pr_ge_family/dag_on/{n_points}"), reps, || {
        run_dag_on()
    });
    rows.push((format!("pr_ge_family/dag_off/{n_points}"), dag_off));
    rows.push((format!("pr_ge_family/dag_on/{n_points}"), dag_on));
    let dag_speedup = dag_off.as_secs_f64() / dag_on.as_secs_f64();
    println!(
        "\ncompiled-family speedup: {dag_speedup:.2}× across {} thresholds",
        dag_alphas.len()
    );
    assert!(
        dag_speedup >= 2.0,
        "the one-sweep family evaluator must be ≥ 2× faster than serial sweeps (got {dag_speedup:.2}×)"
    );

    // ------------------------------------------------------------------
    // Batched sample plan: the same memoized threshold family with the
    // per-agent SamplePlan off (per-point sample extraction, the PR 3
    // path) vs on (one table lookup per point), so the row isolates
    // the per-point extraction cost.
    // ------------------------------------------------------------------
    let run_family_planned = |plan: bool| -> Vec<usize> {
        // Pr memo ON both ways: the comparison is plan vs no-plan on
        // the memoized sweep the engine actually runs.
        let model = Model::with_memos(&post, true, true, plan);
        family
            .iter()
            .map(|f| model.sat(f).expect("model checks").len())
            .collect()
    };
    assert_eq!(
        run_family_planned(false),
        run_family_planned(true),
        "the sample plan must be observationally invisible"
    );
    // Warm the per-assignment plan (it is a one-time artifact shared by
    // every model over `post`; its build costs about one unplanned
    // sweep and is amortized across all later sweeps).
    let plan = post.sample_plan(p1);
    assert!(plan.is_batched(), "post plans batch whole classes");
    assert_eq!(
        plan.extractions(),
        plan.classes(),
        "one extraction per class"
    );
    assert!(plan.extractions() < n_points, "batching must pay");
    let plan_off =
        kpa_bench::bench_time(&format!("pr_ge_family/plan_off/{n_points}"), reps, || {
            run_family_planned(false)
        });
    let plan_on = kpa_bench::bench_time(&format!("pr_ge_family/plan_on/{n_points}"), reps, || {
        run_family_planned(true)
    });
    rows.push((format!("pr_ge_family/plan_off/{n_points}"), plan_off));
    rows.push((format!("pr_ge_family/plan_on/{n_points}"), plan_on));
    let plan_speedup = plan_off.as_secs_f64() / plan_on.as_secs_f64();
    println!(
        "\nsample-plan speedup: {plan_speedup:.2}× across {} thresholds",
        alphas.len()
    );
    assert!(
        plan_speedup >= 2.0,
        "the planned Pr sweep must be ≥ 2× faster than the unplanned path (got {plan_speedup:.2}×)"
    );

    // ------------------------------------------------------------------
    // Traced pass: re-run each row's workload ONCE with tracing enabled
    // and attribute counter deltas to rows. This runs strictly after
    // every timed section, so instrumentation cannot perturb the
    // timings above — and it proves, via the kernel fallback counters,
    // that the "dense" rows actually took the dense path rather than
    // silently falling back to the generic scan.
    // ------------------------------------------------------------------
    kpa_trace::set_enabled(true);
    kpa_trace::registry().reset();
    let mut row_deltas: std::collections::BTreeMap<
        String,
        std::collections::BTreeMap<String, u64>,
    > = std::collections::BTreeMap::new();
    {
        let mut traced = |label: String, work: &mut dyn FnMut()| {
            let before = kpa_trace::registry().snapshot();
            let started = std::time::Instant::now();
            work();
            let row_ns = started.elapsed().as_nanos() as u64;
            let after = kpa_trace::registry().snapshot();
            // Feed the rolling-window path too, so the exported trace
            // baseline carries a non-empty `windowed` section for the
            // schema gate to validate.
            kpa_trace::registry().rolling("bench.row_ns").record(row_ns);
            row_deltas.insert(label, after.delta_counters(&before));
        };
        traced(format!("kernel_sat/bitset/{n_points}"), &mut || {
            let model = Model::new(&post);
            let _ = model.sat(&f).expect("model checks").len();
        });
        traced(format!("kernel_k_alpha/fresh_fut/{n_points}"), &mut || {
            let _ = run_cold_k_alpha();
        });
        traced(
            format!("measure_interval/dense/{n_spaces}x{n_points}"),
            &mut || {
                for s in &spaces {
                    for q in &queries {
                        let _ = s.measure_interval(q);
                    }
                }
            },
        );
        traced(
            format!("measure_interval/generic/{n_spaces}x{n_points}"),
            &mut || {
                for s in &spaces {
                    for q in &queries {
                        let _ = s.generic().measure_interval(q);
                    }
                }
            },
        );
        traced(format!("pr_ge_family/dag_on/{n_points}"), &mut || {
            let _ = run_dag_on();
        });
        // The unplanned sweep resolves every point through the sharded
        // space cache — the row that keeps `assign.space_cache_hit`
        // observable now that the planned paths bypass it.
        traced(format!("pr_ge_family/plan_off/{n_points}"), &mut || {
            let _ = run_family_planned(false);
        });
        traced(format!("pr_ge_family/plan_on/{n_points}"), &mut || {
            let _ = run_family_planned(true);
        });
    }
    // The dense row must be all-kernel: every query word-wise, zero
    // generic fallbacks through the dispatching space.
    let dense_row = &row_deltas[&format!("measure_interval/dense/{n_spaces}x{n_points}")];
    let dense_queries = dense_row.get("measure.dense_query").copied().unwrap_or(0);
    let dense_fallbacks = dense_row
        .get("assign.generic_measure")
        .copied()
        .unwrap_or(0);
    assert!(
        dense_queries as usize >= n_spaces * queries.len(),
        "dense row must take the word-wise path on every query \
         (saw {dense_queries} dense queries for {n_spaces}x{} work)",
        queries.len()
    );
    assert_eq!(
        dense_fallbacks, 0,
        "dense row must not fall back to the generic element scan"
    );
    // ... and its scans must go through the 4-wide block loop (the
    // counter the TRACE gate requires positive since the wide kernels).
    let wide_blocks = dense_row.get("measure.wide_blocks").copied().unwrap_or(0);
    assert!(
        wide_blocks > 0,
        "dense row must scan blocks through the wide kernel path"
    );
    // The generic row goes around the dispatcher entirely: no dense
    // queries at all.
    let generic_row = &row_deltas[&format!("measure_interval/generic/{n_spaces}x{n_points}")];
    assert_eq!(
        generic_row.get("measure.dense_query").copied().unwrap_or(0),
        0,
        "generic row must not touch the dense kernel"
    );
    // The planned sweep must actually hit the plan.
    let plan_row = &row_deltas[&format!("pr_ge_family/plan_on/{n_points}")];
    let plan_hits_traced = plan_row.get("logic.plan_hit").copied().unwrap_or(0);
    assert!(
        plan_hits_traced > 0,
        "planned Pr row must resolve spaces through the sample plan"
    );
    // The `K` class scan accumulates tight-footprint class sets, so the
    // footprint skip must fire on the cold `K^α` row.
    let skipped_words = row_deltas[&format!("kernel_k_alpha/fresh_fut/{n_points}")]
        .get("system.footprint_skipped_words")
        .copied()
        .unwrap_or(0);
    assert!(
        skipped_words > 0,
        "the K class scan must skip words via set footprints"
    );
    // The compiled family must actually share structure: compiling the
    // k members hash-conses their common body, so the dedup counter is
    // positive — and every member landed in the interned arena.
    let dag_row = &row_deltas[&format!("pr_ge_family/dag_on/{n_points}")];
    let terms_interned = dag_row.get("logic.terms_interned").copied().unwrap_or(0);
    let terms_deduped = dag_row.get("logic.terms_deduped").copied().unwrap_or(0);
    assert!(
        terms_interned > 0,
        "compiled family row must intern terms into the arena"
    );
    assert!(
        terms_deduped > 0,
        "compiled family row must hash-cons the shared body (dedup = 0)"
    );
    println!(
        "\ntraced pass: {dense_queries} dense queries on the dense row, \
         0 generic fallbacks, {plan_hits_traced} plan hits on the planned row"
    );
    let mut trace_report = kpa_trace::registry().snapshot();
    trace_report.rows = row_deltas;
    assert!(
        trace_report.windowed.contains_key("bench.row_ns"),
        "traced pass must populate the rolling window for the trace export"
    );
    if let Ok(tpath) = std::env::var("KPA_TRACE_JSON") {
        std::fs::write(&tpath, trace_report.to_json("kernel"))
            .unwrap_or_else(|e| panic!("failed to write {tpath}: {e}"));
        println!("wrote {tpath}");
    }
    kpa_trace::set_enabled(false);

    kpa_bench::write_bench_json(
        "kernel",
        n_points,
        reps,
        &rows,
        &[
            ("sat_bitset_vs_btreeset", speedup),
            ("measure_dense_vs_generic", measure_speedup),
            ("pr_ge_dag_on_vs_off", dag_speedup),
            ("pr_ge_plan_on_vs_off", plan_speedup),
        ],
    );
}
