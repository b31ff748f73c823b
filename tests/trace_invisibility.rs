//! Observational invisibility of the `kpa-trace` layer.
//!
//! The tracing contract (DESIGN.md §3.2e) is that counters, histogram
//! records, and spans never change *what* the engine computes —
//! only record how it got there. This suite pins that contract the same
//! way the kernel differential suites pin theirs: one representative
//! workload per instrumented layer (sat sweeps, `Pr_i ≥ α` plan sweeps,
//! Proposition 10, betting safety, and a pinned-seed Monte-Carlo
//! stream) is run with tracing **off**, with tracing **on**, and off
//! again, and every result is asserted bit-identical across the runs.
//! The traced run also exercises the span-tree recorder (records at
//! instrumented sites, including the engine's `K_i` and `Pr_i ≥ α`
//! sweeps, and trace-id stitching) and the rolling-window histograms,
//! and the off phases assert neither records anything.
//!
//! A second test pins the histogram's log₂ bucketing at the edges
//! (0, 1, powers of two, `u64::MAX`) through the public
//! `bucket_of` / `bucket_floor` pair.

use kpa::assign::{Assignment, ProbAssignment};
use kpa::asynchrony::prop10_holds;
use kpa::betting::{simulate_average_winnings, BetRule, BettingGame, Strategy};
use kpa::logic::{Formula, Model, PointSet};
use kpa::measure::{rat, Rat, Rng64};
use kpa::protocols::{async_coin_tosses, ca1, recent_heads, secret_coin};
use kpa::system::AgentId;
use kpa::trace::{
    ambient_guard, bucket_floor, bucket_of, next_trace_id, set_enabled, snapshot_span_records,
    stitch_span_trees, take_span_records, BUCKETS,
};

/// Everything the workload computes, in exact (bit-comparable) form.
#[derive(PartialEq)]
struct Outcome {
    /// Satisfaction sets of the formula family, in order.
    sats: Vec<PointSet>,
    /// `(inf, sup)` probability intervals at every point for the
    /// `Pr`-heavy formula.
    intervals: Vec<(Rat, Rat)>,
    /// Proposition 10 verdicts for both agents of the coin system.
    prop10: Vec<bool>,
    /// Safe-point sets and Theorem 7 verdicts for the betting sweep.
    betting: Vec<(PointSet, bool)>,
    /// Bit pattern of the pinned-seed Monte-Carlo average (any skew in
    /// RNG consumption or accumulation order changes these bits).
    sim_bits: u64,
    /// The raw RNG stream after the simulation (tracing must not
    /// consume random numbers).
    rng_tail: Vec<u64>,
}

/// One representative query per instrumented layer, all exact.
fn workload() -> Outcome {
    // Layer: logic (sat cache, knows fixpoints, until iterations) over
    // system builds (kpa-system) and the dense kernel (kpa-measure).
    let tosses = async_coin_tosses(3).expect("builds");
    let attack = ca1(3, Rat::new(1, 2)).expect("builds");
    let p1 = AgentId(0);
    let p2 = AgentId(1);
    let post = ProbAssignment::new(&tosses, Assignment::post());
    let model = Model::new(&post);
    let family = [
        Formula::prop("recent=h").eventually(),
        Formula::prop("recent=h").known_by(p2),
        Formula::prop("recent=h").k_alpha(p1, rat!(1 / 4)),
        Formula::prop("recent=h").pr_ge(p1, rat!(1 / 2)),
        Formula::prop("c0=h").until(Formula::prop("recent=t")),
    ];
    let mut sats: Vec<PointSet> = family
        .iter()
        .map(|f| model.sat(f).expect("model checks").as_ref().clone())
        .collect();
    let attack_post = ProbAssignment::new(&attack, Assignment::post());
    let attack_model = Model::new(&attack_post);
    sats.push(
        attack_model
            .sat(&Formula::prop("coordinated").eventually().common([p1, p2]))
            .expect("model checks")
            .as_ref()
            .clone(),
    );

    // Layer: assign (space cache, sample plan) via per-point intervals.
    let pr_phi = Formula::prop("recent=h");
    let intervals = tosses
        .points()
        .map(|c| model.prob_interval(p1, c, &pr_phi).expect("model checks"))
        .collect();

    // Layer: asynchrony (cut bounds, the prop10 class sweep).
    let phi_set = recent_heads(&tosses);
    let prop10 = vec![
        prop10_holds(&tosses, p1, &phi_set).expect("prop10 checks"),
        prop10_holds(&tosses, p2, &phi_set).expect("prop10 checks"),
    ];

    // Layer: betting (class sweeps, break-even evaluations).
    let coin = secret_coin().expect("builds");
    let heads = coin.points_satisfying(coin.prop_id("c=h").expect("prop"));
    let p3 = AgentId(2);
    let game = BettingGame::new(&coin, p1, p3);
    let mut betting = Vec::new();
    for alpha in [rat!(1 / 4), rat!(1 / 2), Rat::ONE] {
        let rule = BetRule::new(heads.clone(), alpha).expect("valid rule");
        betting.push((
            game.safe_points(&rule).expect("sweep runs"),
            game.theorem7_holds(&rule).expect("sweep runs"),
        ));
    }

    // Layer: measure RNG — a pinned-seed Monte-Carlo stream. Tracing
    // must neither consume random numbers nor perturb the float
    // accumulation order.
    let rule = BetRule::new(heads, rat!(1 / 2)).expect("valid rule");
    let space = game
        .opp_assignment()
        .space(
            p1,
            kpa::system::PointId {
                tree: kpa::system::TreeId(0),
                run: 0,
                time: 1,
            },
        )
        .expect("opp spaces build");
    let mut rng = Rng64::new(0x5eed);
    let sim = simulate_average_winnings(
        &mut rng,
        &coin,
        p3,
        &space,
        &rule,
        &Strategy::constant(rat!(2 / 1)),
        2_000,
    );
    let rng_tail = (0..8).map(|_| rng.next_u64()).collect();

    Outcome {
        sats,
        intervals,
        prop10,
        betting,
        sim_bits: sim.to_bits(),
        rng_tail,
    }
}

/// Asserts two outcomes identical, component-by-component (so a
/// failure names the layer that drifted).
fn assert_same(label: &str, a: &Outcome, b: &Outcome) {
    assert!(a.sats == b.sats, "{label}: satisfaction sets drifted");
    assert!(
        a.intervals == b.intervals,
        "{label}: probability intervals drifted"
    );
    assert!(
        a.prop10 == b.prop10,
        "{label}: Proposition 10 verdicts drifted"
    );
    assert!(a.betting == b.betting, "{label}: betting sweep drifted");
    assert!(
        a.sim_bits == b.sim_bits,
        "{label}: Monte-Carlo average changed bits"
    );
    assert!(
        a.rng_tail == b.rng_tail,
        "{label}: tracing consumed random numbers"
    );
}

/// The central invariant: tracing off and tracing on produce
/// bit-identical results, and the traced run actually recorded
/// something (the instrumentation is live, not compiled away).
#[test]
fn tracing_is_observationally_invisible() {
    // Sequential by construction: toggling the global trace state from
    // concurrent tests would race, so this binary keeps every phase in
    // one test function.
    set_enabled(false);
    let _ = take_span_records();
    let off = workload();
    assert!(
        snapshot_span_records().0.is_empty(),
        "tracing off must record no span records"
    );

    set_enabled(true);
    kpa::trace::registry().reset();
    // Run the traced workload under one request trace id — the same
    // shape kpa-serve gives each frame — so its spans stitch into
    // per-request trees.
    let request = next_trace_id();
    let on = {
        let _req = ambient_guard(request);
        workload()
    };
    // Rolling-window histograms ride the same gated registry; a
    // recorded sample must be visible in the windowed snapshot.
    kpa::trace::registry()
        .rolling("invisibility.workload_ns")
        .record(1_500);
    let report = kpa::trace::registry().snapshot();
    assert!(report.enabled, "snapshot must reflect the enabled state");
    assert!(
        report.counter("measure.dense_query") > 0
            && report.counter("logic.sat_eval") > 0
            && report.counter("system.builds") > 0
            && report.counter("betting.class_sweeps") > 0
            && report.counter("async.cut_bounds") > 0,
        "the traced run must actually record the layers it visited"
    );
    assert_eq!(
        report.windowed["invisibility.workload_ns"].count, 1,
        "the rolling window must hold the fresh sample"
    );
    assert!(report.windowed["invisibility.workload_ns"].p50.is_some());
    let (on_spans, _) = snapshot_span_records();
    assert!(
        on_spans.iter().any(|r| r.site == "system.build_ns"),
        "the traced run must record span records at instrumented sites"
    );
    assert!(
        on_spans
            .iter()
            .any(|r| r.site == "system.build_ns" && r.trace_id == request.0),
        "spans under the ambient guard must carry the request's trace id"
    );
    assert!(
        stitch_span_trees(&on_spans)
            .iter()
            .any(|t| t.trace_id == request.0),
        "stitching must yield a tree for the request's trace id"
    );
    // The engine's sweeps run on the request's own thread, so their
    // spans carry the request's trace id.
    for site in ["logic.knows_sweep_ns", "logic.pr_sweep_ns"] {
        assert!(
            on_spans
                .iter()
                .any(|r| r.site == site && r.trace_id == request.0),
            "the {site} span must record under the request's trace id"
        );
    }

    set_enabled(false);
    let resident = snapshot_span_records().0.len();
    let off_again = workload();
    assert_eq!(
        snapshot_span_records().0.len(),
        resident,
        "re-disabled tracing must stop recording span records"
    );

    assert_same("tracing on vs off", &on, &off);
    assert_same("tracing re-disabled vs off", &off_again, &off);
}

/// Log₂ bucketing edge cases: value 0 gets its own bucket, bucket
/// `k ≥ 1` covers `[2^(k-1), 2^k - 1]`, and `u64::MAX` lands in the
/// last bucket.
#[test]
fn histogram_bucket_edges() {
    assert_eq!(bucket_of(0), 0);
    assert_eq!(bucket_of(1), 1);
    assert_eq!(bucket_of(2), 2);
    assert_eq!(bucket_of(3), 2);
    assert_eq!(bucket_of(4), 3);
    assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    assert_eq!(bucket_of(1u64 << 63), BUCKETS - 1);
    assert_eq!(bucket_of((1u64 << 63) - 1), BUCKETS - 2);
    // Every bucket's floor maps back into that bucket, and the value
    // one below the floor maps into the previous bucket.
    for k in 1..BUCKETS {
        let floor = bucket_floor(k);
        assert_eq!(bucket_of(floor), k, "floor of bucket {k}");
        assert_eq!(bucket_of(floor - 1), k - 1, "value below bucket {k}");
    }
    assert_eq!(bucket_floor(0), 0);
}
