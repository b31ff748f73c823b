//! Loopback soak benchmark of the `kpa-serve` service.
//!
//! PR 7 added `kpa-serve`: a long-running TCP process speaking the
//! line-delimited JSON protocol of DESIGN §3.2g, with sessions pinning
//! a shared [`ModelArtifact`] and batched query submission. This bench
//! holds the *service* (framing, sessions, the artifact cache, and the
//! eval path together) to the same standard the in-process benches
//! hold the engine:
//!
//! 1. **Correctness before timing** — a client loads the walkthrough
//!    system over the wire and every answer in the mixed formula
//!    family is asserted bit-identical (the raw bitset words) to the
//!    serial `Model` facade at pool width 1. Nothing is timed until
//!    the loopback path has proven it computes the same bits.
//!
//! 2. **Soak rows** — 1 client vs `CLIENTS` concurrent clients, each
//!    running `ROUNDS` batched passes over the family against one
//!    server whose sessions share a single cached artifact. The
//!    aggregate rate of the concurrent row is exported as `serve_qps`
//!    (host-dependent; the gate requires presence and positivity,
//!    like `shared_artifact_qps` in the `shared` bench).
//!
//! 3. **Latency histogram** — after the timed rows the server's
//!    process scope is snapshotted and the `proc.frame_ns` histogram's
//!    p50/p99 (log₂ bucket floors, nanoseconds) are exported both as
//!    rows (`frame_latency/p50`, `frame_latency/p99`, in seconds) and
//!    as positive-gated `serve_frame_p50_ns` / `serve_frame_p99_ns`
//!    figures, proving the per-frame latency instrumentation is live
//!    under real concurrent load.
//!
//! `serve_clients4_vs_1` rides along for inspection but is excluded
//! from gating — like the other `*_threads4_vs_1` figures it measures
//! core-count scaling, which legitimately sits near (or below) 1× on
//! single-core runners.
//!
//! Run with `cargo bench -p kpa-bench --bench soak`. Set
//! `KPA_BENCH_JSON=/abs/path.json` (or use `scripts/bench.sh`, which
//! gates it against `baselines/soak.json`) to emit the rows as
//! machine-readable JSON.

use kpa_assign::ProbAssignment;
use kpa_logic::{parse_in, Model};
use kpa_serve::catalog::{build_assignment, build_system};
use kpa_serve::proto::words_from_value;
use kpa_serve::{Client, QueryItem, QueryKind, ServeConfig, Server};

/// Concurrent client connections in the soak row.
const CLIENTS: usize = 4;

/// Batched passes over the family per client per timed pass: enough
/// that connect + load cost is noise next to the query frames.
const ROUNDS: usize = 25;

/// The walkthrough system under soak — same point count as the
/// `shared` bench's artifact rows, so the wire overhead is read off by
/// comparing the two files' query rates.
const SYSTEM: &str = "async-coins:8";
const ASSIGNMENT: &str = "post";

/// The mixed query family in concrete syntax (the wire carries source
/// text): sat, knowledge, common knowledge, probability thresholds,
/// and temporal operators over overlapping subterms, so concurrent
/// sessions collide on the shared memo keys.
fn formula_family() -> Vec<String> {
    let (p, q, a0, a1, group) = ("recent=h", "c0=h", "p1", "p2", "p1,p2");
    vec![
        p.to_string(),
        format!("K{{{a0}}} {p}"),
        format!("C{{{group}}} K{{{a0}}} {p}"),
        format!("Pr{{{a0}}}({p}) >= 1/4"),
        format!("Pr{{{a0}}}({p}) >= 3/4"),
        format!("K{{{a1}}}^1/2 {p}"),
        format!("<>{q}"),
        format!("K{{{a1}}}({p} & {q})"),
    ]
}

/// One soak client: connect, pin the system, then `ROUNDS` batched
/// passes over the family (rotated by client index so no two batches
/// agree on order). Returns the number of result rows received.
fn client_pass(addr: std::net::SocketAddr, family: &[String], client: usize) -> usize {
    let mut c = Client::connect(addr).expect("connect");
    c.hello().expect("hello");
    c.load_named(SYSTEM, ASSIGNMENT).expect("load");
    let n = family.len();
    let mut received = 0usize;
    for round in 0..ROUNDS {
        let items: Vec<QueryItem> = (0..n)
            .map(|k| {
                let i = (k + client + round) % n;
                QueryItem {
                    id: i as i64,
                    kind: QueryKind::Sat {
                        formula: family[i].clone(),
                    },
                }
            })
            .collect();
        received += c.query(&items).expect("query").len();
    }
    c.bye().expect("bye");
    received
}

/// Spawns `clients` soak clients against the server and waits for all
/// of them; total result rows across clients.
fn soak_pass(addr: std::net::SocketAddr, family: &[String], clients: usize) -> usize {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let family = family.to_vec();
                scope.spawn(move || client_pass(addr, &family, client))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client")).sum()
    })
}

fn main() {
    let reps = kpa_bench::default_reps();

    let mut server = Server::bind(ServeConfig::default()).expect("bind loopback server");
    let addr = server.local_addr();

    // ------------------------------------------------------------------
    // Correctness first: every family answer over the wire must be the
    // same bits as the serial facade computes in-process.
    // ------------------------------------------------------------------
    let sys = build_system(SYSTEM).expect("catalog system builds");
    let assignment = build_assignment(ASSIGNMENT, &sys).expect("assignment");
    let n_points = sys.points().count();
    let family = formula_family();
    let pa = ProbAssignment::new(&sys, assignment);
    let serial = Model::new(&pa);
    let expected: Vec<Vec<u64>> = kpa_pool::with_threads(1, || {
        family
            .iter()
            .map(|src| {
                let f = parse_in(src, &sys).expect("family parses");
                serial
                    .sat(&f)
                    .expect("serial model checks")
                    .as_words()
                    .to_vec()
            })
            .collect()
    });
    {
        let mut c = Client::connect(addr).expect("connect");
        c.hello().expect("hello");
        c.load_named(SYSTEM, ASSIGNMENT).expect("load");
        let items: Vec<QueryItem> = family
            .iter()
            .enumerate()
            .map(|(i, src)| QueryItem {
                id: i as i64,
                kind: QueryKind::Sat {
                    formula: src.clone(),
                },
            })
            .collect();
        let rows = c.query(&items).expect("query");
        assert_eq!(rows.len(), family.len());
        for (i, row) in rows.iter().enumerate() {
            let words =
                words_from_value(row.get("words").expect("words")).expect("well-formed words");
            assert_eq!(
                words, expected[i],
                "service diverged from the serial facade on {:?}",
                family[i]
            );
        }
        c.bye().expect("bye");
    }
    println!(
        "identity check: {} formulas bit-identical on {} points (serial facade vs loopback service)\n",
        family.len(),
        n_points
    );

    // ------------------------------------------------------------------
    // Soak rows: 1 client vs CLIENTS clients against the same server.
    // The warm-up inside bench_time performs the cold artifact build,
    // so the timed passes measure the steady state.
    // ------------------------------------------------------------------
    let mut rows: Vec<(String, std::time::Duration)> = Vec::new();
    let queries_per_client = (ROUNDS * family.len()) as f64;
    let t1 = kpa_bench::bench_time(&format!("serve_soak/clients=1/{n_points}"), reps, || {
        soak_pass(addr, &family, 1)
    });
    let t4 = kpa_bench::bench_time(
        &format!("serve_soak/clients={CLIENTS}/{n_points}"),
        reps,
        || soak_pass(addr, &family, CLIENTS),
    );
    rows.push((format!("serve_soak/clients=1/{n_points}"), t1));
    rows.push((format!("serve_soak/clients={CLIENTS}/{n_points}"), t4));
    let qps = queries_per_client * CLIENTS as f64 / t4.as_secs_f64();
    let client_scaling = t1.as_secs_f64() / t4.as_secs_f64();
    println!(
        "\nserve soak: {qps:.0} queries/s aggregate across {CLIENTS} clients \
         ({client_scaling:.2}x vs 1 client; core-count dependent)"
    );
    assert!(
        qps > 0.0,
        "the soak row must complete queries (got {qps} qps)"
    );

    // ------------------------------------------------------------------
    // Latency histogram: the per-frame service latency recorded by the
    // process scope while the soak ran. Quantiles are log2 bucket
    // floors in nanoseconds — coarse, but host-comparable in shape.
    // ------------------------------------------------------------------
    let report = server.shared().proc().snapshot();
    let frame = report
        .histograms
        .get("proc.frame_ns")
        .expect("the soak must populate the proc.frame_ns histogram");
    let (p50_ns, p99_ns) = (
        frame.p50().expect("p50 of a populated histogram"),
        frame.p99().expect("p99 of a populated histogram"),
    );
    println!(
        "\nframe latency: {} frames, p50 >= {:.1}us, p99 >= {:.1}us (log2 bucket floors)",
        frame.count,
        p50_ns as f64 / 1e3,
        p99_ns as f64 / 1e3
    );
    assert!(
        frame.count as usize >= 2 * (CLIENTS + 1) * (ROUNDS + 3),
        "every soak frame must land in the latency histogram (got {})",
        frame.count
    );
    assert!(p50_ns > 0 && p99_ns >= p50_ns, "quantiles must be ordered");
    rows.push((
        "frame_latency/p50".to_string(),
        std::time::Duration::from_nanos(p50_ns),
    ));
    rows.push((
        "frame_latency/p99".to_string(),
        std::time::Duration::from_nanos(p99_ns),
    ));

    // The artifact cache must have answered every session from ONE
    // build of the pinned system (the whole point of the shared
    // state), and the query counter must cover the soak volume.
    let builds = report
        .counters
        .get("proc.artifact_builds")
        .copied()
        .unwrap_or(0);
    let hits = report
        .counters
        .get("proc.artifact_hits")
        .copied()
        .unwrap_or(0);
    assert_eq!(builds, 1, "one cached artifact serves every session");
    assert!(hits > 0, "warm sessions must hit the artifact cache");
    println!(
        "artifact cache: {builds} build, {hits} hits across {} sessions",
        report.counters.get("proc.sessions").copied().unwrap_or(0)
    );

    server.shutdown();

    kpa_bench::write_bench_json(
        "serve",
        n_points,
        reps,
        &rows,
        &[
            ("serve_qps", qps),
            ("serve_frame_p50_ns", p50_ns as f64),
            ("serve_frame_p99_ns", p99_ns as f64),
            ("serve_clients4_vs_1", client_scaling),
        ],
    );
}
