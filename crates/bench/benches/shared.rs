//! Concurrent-query benchmark of the shared `Arc<ModelArtifact>` path.
//!
//! PR 6 split the borrowing `Model` facade into an immutable,
//! `Send + Sync` [`ModelArtifact`] (system + assignment + canonical
//! spaces + sample plans, built once) and cheap per-query [`EvalCtx`]
//! handles, with every memo behind 16-way sharded maps instead of
//! global mutexes. This bench pins the two claims that refactor makes:
//!
//! 1. **Shared-artifact throughput** — N client threads issuing a mixed
//!    sat / `Pr_i ≥ α` formula family against *one* shared artifact,
//!    answered from the warm sharded memos. The outputs are asserted
//!    bit-identical to the serial `Model` facade before anything is
//!    timed, and the 4-thread row's aggregate query rate is exported as
//!    `shared_artifact_qps` (host-dependent; the gate only requires it
//!    to exist and be positive).
//!
//! 2. **Sharded memo vs. global mutex** — the same 4-thread overlapping
//!    get/insert workload hammered at a 16-shard [`ShardMap`] and at a
//!    1-shard map, which *is* the old single-mutex memo (same code
//!    path, one lock). The ratio is exported as
//!    `sharded_memo_vs_mutex`; on multi-core hosts sharding wins by
//!    separating the threads, on a single core it must simply not
//!    regress (the gate is relative to the committed baseline).
//!
//! `shared_threads4_vs_1` rides along for inspection but is excluded
//! from gating — like `par_sat_threads4_vs_1` in the kernel bench it
//! measures core-count scaling, which legitimately sits near 1× on
//! single-core runners.
//!
//! After the timed sections, a traced pass re-runs the 4-thread
//! workload against a fresh artifact under `kpa-trace` and reports the
//! per-map shard hit/miss/contention counters — proving the sharded
//! maps (not some bypass) answered the queries.
//!
//! Run with `cargo bench -p kpa-bench --bench shared`. Set
//! `KPA_BENCH_JSON=/abs/path.json` (or use `scripts/bench.sh`, which
//! gates it against `baselines/shared.json`) to emit the rows as
//! machine-readable JSON.

use kpa_assign::{Assignment, ProbAssignment, ShardMap};
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

/// Hammer threads and per-thread operations for the ShardMap rows.
const HAMMER_THREADS: usize = 4;
const HAMMER_OPS: usize = 20_000;
const HAMMER_KEYS: u64 = 512;

/// The mixed query family every client repeats: sat, knowledge,
/// common knowledge, and two `Pr` thresholds over one body, so the
/// clients collide on the formula cache, the `knows_set` memo, the
/// `Pr` memo, and the plan table at once.
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
/// them; each client pins its own pool width to 1 so the row measures
/// memo throughput, not intra-query parallelism.
fn shared_pass(artifact: &Arc<ModelArtifact>, family: &[Formula], threads: usize) -> usize {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|client| {
                let artifact = Arc::clone(artifact);
                let family = family.to_vec();
                scope.spawn(move || {
                    kpa_pool::with_threads(1, || client_pass(&artifact, &family, client))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client")).sum()
    })
}

/// One hammer pass: `HAMMER_THREADS` threads interleaving lookups and
/// first-insert-wins inserts over an overlapping key space on `map`.
/// A 1-shard map is the global-mutex memo the refactor replaced; 16
/// shards is the artifact's layout. Returns the sum of the values the
/// lookups found; which lookups hit depends on thread timing, so only
/// the map's final contents are a pure function of the workload.
fn hammer_pass(map: &ShardMap<u64, Arc<u64>>) -> usize {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..HAMMER_THREADS)
            .map(|t| {
                scope.spawn(move || {
                    let mut found = 0usize;
                    for j in 0..HAMMER_OPS {
                        let key =
                            (j as u64).wrapping_mul(17).wrapping_add(t as u64 * 7) % HAMMER_KEYS;
                        match map.get(&key) {
                            Some(v) => found += *v as usize,
                            None => {
                                map.insert_or_get(key, Arc::new(key));
                            }
                        }
                    }
                    found
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("hammer")).sum()
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
    assert!(artifact.sat_cache_len() >= family.len());
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
    // Sharded memo vs global mutex: the identical hammer workload on a
    // 16-shard map and on a 1-shard map (= one mutex around one
    // HashMap, the pre-refactor memo layout).
    // ------------------------------------------------------------------
    let contents = |name, shards| {
        let map = ShardMap::with_shards(name, shards);
        hammer_pass(&map);
        let mut entries = map.fold(Vec::new(), |mut acc, &k, v: &Arc<u64>| {
            acc.push((k, **v));
            acc
        });
        entries.sort_unstable();
        entries
    };
    assert_eq!(
        contents("bench.hammer_check16", 16),
        contents("bench.hammer_check1", 1),
        "shard count must be observationally invisible"
    );
    let sharded = kpa_bench::bench_time(
        &format!("memo_hammer/shards=16/{HAMMER_KEYS}"),
        reps,
        || hammer_pass(&ShardMap::with_shards("bench.hammer16", 16)),
    );
    let mutexed =
        kpa_bench::bench_time(&format!("memo_hammer/shards=1/{HAMMER_KEYS}"), reps, || {
            hammer_pass(&ShardMap::with_shards("bench.hammer1", 1))
        });
    rows.push((format!("memo_hammer/shards=16/{HAMMER_KEYS}"), sharded));
    rows.push((format!("memo_hammer/shards=1/{HAMMER_KEYS}"), mutexed));
    let shard_speedup = mutexed.as_secs_f64() / sharded.as_secs_f64();
    println!(
        "\nsharded memo speedup: {shard_speedup:.2}x \
         (16 shards vs 1-shard mutex, {HAMMER_THREADS} threads)"
    );
    assert!(
        shard_speedup >= 0.5,
        "sharding must not cripple the memo even on one core (got {shard_speedup:.2}x)"
    );

    // ------------------------------------------------------------------
    // Traced pass: re-run the 4-client workload against a FRESH
    // artifact with kpa-trace on, so the shard counters show both the
    // cold misses and the warm hits, then report per-map totals. Runs
    // strictly after every timed section.
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
    let mut sat_cache_hits = 0u64;
    for prefix in ["logic.sat_cache", "logic.subterm_memo", "logic.pr_memo"] {
        let hits: u64 = deltas
            .iter()
            .filter(|(k, _)| k.starts_with(prefix) && k.contains(".shard") && k.ends_with(".hit"))
            .map(|(_, v)| v)
            .sum();
        let misses: u64 = deltas
            .iter()
            .filter(|(k, _)| k.starts_with(prefix) && k.contains(".shard") && k.ends_with(".miss"))
            .map(|(_, v)| v)
            .sum();
        let contention = deltas
            .get(&format!("{prefix}.contention"))
            .copied()
            .unwrap_or(0);
        println!(
            "traced {prefix:<18} {hits:>8} shard hits  {misses:>6} misses  {contention:>4} contended locks"
        );
        if prefix == "logic.sat_cache" {
            sat_cache_hits = hits;
        }
    }
    assert!(
        sat_cache_hits > 0,
        "the warm clients must answer from the sharded formula cache"
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
            ("sharded_memo_vs_mutex", shard_speedup),
        ],
    );
}
