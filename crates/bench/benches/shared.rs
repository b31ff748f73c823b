//! Concurrent-query benchmark of the shared `Arc<ModelArtifact>` path.
//!
//! The borrowing `Model` facade sits beside an immutable,
//! `Send + Sync` [`ModelArtifact`] (system + assignment + canonical
//! spaces + sample plans, built once) and cheap per-query [`EvalCtx`]
//! handles. This bench pins the **shared-artifact throughput**: N
//! client threads issuing a mixed sat / `Pr_i ≥ α` formula family
//! against *one* shared artifact, answered from its warm memos. The
//! outputs are asserted bit-identical to the serial `Model` facade
//! before anything is timed, and the 4-thread row's aggregate query
//! rate is exported as `shared_artifact_qps` (host-dependent; the gate
//! only requires it to exist and be positive).
//!
//! `shared_threads4_vs_1` rides along for inspection but is excluded
//! from gating: it measures core-count scaling, which legitimately
//! sits near 1× on single-core runners.
//!
//! After the timed section, a traced pass re-runs the 4-thread
//! workload against a fresh artifact under `kpa-trace` and reports
//! each memo's hit and miss counters — proving the memos (not some
//! bypass) answered the queries.
//!
//! Run with `cargo bench -p kpa-bench --bench shared`. Set
//! `KPA_BENCH_JSON=/abs/path.json` (or use `scripts/bench.sh`, which
//! gates it against `baselines/shared.json`) to emit the rows as
//! machine-readable JSON.

use kpa_assign::{Assignment, ProbAssignment};
use kpa_logic::{Formula, Model, ModelArtifact};
use kpa_measure::rat;
use kpa_protocols::async_coin_tosses;
use kpa_system::{AgentId, System};
use std::sync::Arc;

/// Client threads sharing one artifact in the timed rows.
const CLIENTS: usize = 4;

/// Warm family passes per client per timed pass: enough that the
/// per-pass thread-spawn cost is noise next to the memo lookups.
const ROUNDS: usize = 100;

/// The mixed query family every client repeats: sat, knowledge,
/// common knowledge, and two `Pr` thresholds over one body, so the
/// clients collide on the formula cache, the `knows_set` memo and the
/// plan table at once.
fn formula_family(sys: &System) -> Vec<Formula> {
    let p = Formula::prop("recent=h");
    let q = Formula::prop("c0=h");
    let a0 = AgentId(0);
    let a1 = AgentId(sys.agent_count().saturating_sub(1));
    let group: Vec<AgentId> = (0..sys.agent_count()).map(AgentId).collect();
    vec![
        p.clone(),
        p.clone().known_by(a1),
        p.clone().known_by(a1).common(group.iter().copied()),
        p.clone().pr_ge(a0, rat!(1 / 4)),
        p.clone().pr_ge(a0, rat!(3 / 4)),
        q.clone().eventually(),
        Formula::or([p, q]).known_by(a0),
    ]
}

/// One full client workload: a fresh context over the shared artifact,
/// `ROUNDS` passes over the family (rotated per client so no two
/// clients agree on the order), returning a checksum of result sizes.
fn client_pass(artifact: &Arc<ModelArtifact>, family: &[Formula], client: usize) -> usize {
    let ctx = artifact.ctx();
    let n = family.len();
    let mut sum = 0usize;
    for round in 0..ROUNDS {
        for k in 0..n {
            let i = (k + client + round) % n;
            sum += ctx.sat(&family[i]).expect("model checks").len();
        }
    }
    sum
}

/// Spawns `threads` clients against the artifact and waits for all of
/// them.
fn shared_pass(artifact: &Arc<ModelArtifact>, family: &[Formula], threads: usize) -> usize {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|client| {
                let artifact = Arc::clone(artifact);
                let family = family.to_vec();
                scope.spawn(move || client_pass(&artifact, &family, client))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client")).sum()
    })
}

fn main() {
    let reps = kpa_bench::default_reps();

    // ------------------------------------------------------------------
    // Correctness first: the shared artifact must agree bit-for-bit
    // with the serial borrowing facade before any row is timed.
    // ------------------------------------------------------------------
    let sys = async_coin_tosses(8).expect("builds");
    let n_points = sys.points().count();
    let family = formula_family(&sys);
    let pa = ProbAssignment::new(&sys, Assignment::post());
    let serial = Model::new(&pa);
    let artifact = Arc::new(ModelArtifact::new(
        Arc::new(sys.clone()),
        Assignment::post(),
    ));
    let ctx = artifact.ctx();
    for f in &family {
        let want = serial.sat(f).expect("serial model checks");
        let got = ctx.sat(f).expect("shared model checks");
        assert_eq!(
            want.as_words(),
            got.as_words(),
            "artifact diverged from the serial facade on {f}"
        );
    }
    assert!(artifact.subterm_memo_len() >= family.len());
    assert_eq!(artifact.plans_built(), sys.agent_count());
    println!(
        "identity check: {} formulas bit-identical on {} points (serial facade vs shared artifact)\n",
        family.len(),
        n_points
    );

    // ------------------------------------------------------------------
    // Shared-artifact throughput: 1 client vs CLIENTS clients against
    // the same warm artifact. The warm-up inside bench_time performs
    // the cold pass, so the timed passes measure the steady state a
    // query service would run in.
    // ------------------------------------------------------------------
    let mut rows: Vec<(String, std::time::Duration)> = Vec::new();
    let queries_per_client = (ROUNDS * family.len()) as f64;
    let t1 = kpa_bench::bench_time(
        &format!("shared_queries/threads=1/{n_points}"),
        reps,
        || shared_pass(&artifact, &family, 1),
    );
    let t4 = kpa_bench::bench_time(
        &format!("shared_queries/threads={CLIENTS}/{n_points}"),
        reps,
        || shared_pass(&artifact, &family, CLIENTS),
    );
    rows.push((format!("shared_queries/threads=1/{n_points}"), t1));
    rows.push((format!("shared_queries/threads={CLIENTS}/{n_points}"), t4));
    let qps = queries_per_client * CLIENTS as f64 / t4.as_secs_f64();
    let thread_scaling = t1.as_secs_f64() / t4.as_secs_f64();
    println!(
        "\nshared artifact: {qps:.0} queries/s aggregate across {CLIENTS} clients \
         ({thread_scaling:.2}x vs 1 client; core-count dependent)"
    );
    assert!(
        qps > 0.0,
        "the shared-artifact row must complete queries (got {qps} qps)"
    );

    // ------------------------------------------------------------------
    // Traced pass: re-run the 4-client workload against a FRESH
    // artifact with kpa-trace on, so the memo counters show both the
    // cold misses and the warm hits, then report per-memo totals. Runs
    // strictly after the timed section.
    // ------------------------------------------------------------------
    kpa_trace::set_enabled(true);
    kpa_trace::registry().reset();
    let before = kpa_trace::registry().snapshot();
    let traced_artifact = Arc::new(ModelArtifact::new(
        Arc::new(sys.clone()),
        Assignment::post(),
    ));
    let _ = shared_pass(&traced_artifact, &family, CLIENTS);
    let after = kpa_trace::registry().snapshot();
    let deltas = after.delta_counters(&before);
    println!();
    let count = |name: &str| deltas.get(name).copied().unwrap_or(0);
    for (memo, hit, miss) in [
        (
            "logic.sat_cache",
            "logic.sat_cache_hit",
            "logic.sat_cache_miss",
        ),
        (
            "logic.subterm_memo",
            "logic.subterm_memo.hit",
            "logic.subterm_memo.miss",
        ),
    ] {
        println!(
            "traced {memo:<18} {:>8} hits  {:>6} misses",
            count(hit),
            count(miss)
        );
    }
    assert!(
        count("logic.sat_cache_hit") > 0,
        "the warm clients must answer from the formula cache"
    );
    kpa_trace::set_enabled(false);

    kpa_bench::write_bench_json(
        "shared",
        n_points,
        reps,
        &rows,
        &[
            ("shared_artifact_qps", qps),
            ("shared_threads4_vs_1", thread_scaling),
        ],
    );
}
