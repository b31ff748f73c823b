//! Loopback differential for the `kpa-serve` service.
//!
//! The service's contract (DESIGN §3.2g) is that an answer over the
//! wire is the *same bits* as an answer computed in-process: point
//! sets travel as the underlying bitset words (hex strings), exact
//! rationals as `n/d` strings, so nothing is lost to floating point
//! or re-encoding. These tests hold a real TCP server to that
//! promise:
//!
//! - **Walkthrough systems** — the paper's secret coin, asynchronous
//!   tosses, and coordinated attack, queried by concurrent clients
//!   whose sessions share one cached `ModelArtifact`, compared
//!   bit-for-bit against the serial `Model` facade.
//! - **Random systems** — seeded structural specs (the same generator
//!   family as `tests/common`) loaded over the wire via the `load`
//!   op's `spec` object and checked the same way.
//! - **Session sharing** — two connections pinning the same pair see
//!   one artifact in `stats`.

mod common;

use common::{case_seed, cases, CASES};
use kpa::assign::{Assignment, ProbAssignment};
use kpa::logic::{parse_in, Model};
use kpa::measure::{Rat, Rng64};
use kpa::serve::catalog::{build_assignment, build_spec_system, build_system};
use kpa::serve::proto::words_from_value;
use kpa::serve::{Client, QueryItem, QueryKind, ServeConfig, Server, SpecRound, SystemSpec};
use kpa::system::System;

/// Concurrent client connections per server in the walkthrough test.
const CLIENTS: usize = 4;

/// A formula family in *concrete syntax* (the wire carries source
/// text), parameterized by two proposition names and the first/last
/// agent names. Mirrors the in-process differential's family:
/// subterm overlap on purpose, so concurrent sessions collide on the
/// shared memo keys.
fn formula_family(p: &str, q: &str, a0: &str, a1: &str, group: &str) -> Vec<String> {
    vec![
        p.to_string(),
        format!("K{{{a0}}} {p}"),
        format!("C{{{group}}} K{{{a0}}} {p}"),
        format!("Pr{{{a0}}}({p}) >= 1/4"),
        format!("Pr{{{a0}}}({p}) >= 3/4"),
        format!("K{{{a1}}}^1/2 {p}"),
        format!("<>{q}"),
        format!("!{q} U {p}"),
        format!("C{{{group}}}^1/2 ({p} | {q})"),
        format!("K{{{a1}}}({p} & {q})"),
    ]
}

/// In-process ground truth: word vector per formula.
fn serial_words(sys: &System, assignment: &Assignment, family: &[String]) -> Vec<Vec<u64>> {
    let pa = ProbAssignment::new(sys, assignment.clone());
    let model = Model::new(&pa);
    family
        .iter()
        .map(|src| {
            let f = parse_in(src, sys).expect("family parses");
            model
                .sat(&f)
                .expect("serial model checks")
                .as_words()
                .to_vec()
        })
        .collect()
}

/// Extracts the `words` payload of result row `i`.
fn row_words(rows: &[kpa::serve::json::Value], i: usize) -> Vec<u64> {
    let row = &rows[i];
    let v = row.get("words").expect("result row carries words");
    words_from_value(v).expect("well-formed words")
}

/// One client's work in the walkthrough hammer: load the named
/// system, submit the whole family as one batch (rotated by client
/// index so no two batches agree on order), and return word vectors
/// in family order.
fn client_words(
    addr: std::net::SocketAddr,
    system: &str,
    assignment: &str,
    family: &[String],
    client: usize,
) -> Vec<Vec<u64>> {
    let mut c = Client::connect(addr).expect("connect");
    c.hello().expect("hello");
    c.load_named(system, assignment).expect("load");
    let n = family.len();
    let items: Vec<QueryItem> = (0..n)
        .map(|k| {
            let i = (k + client) % n;
            QueryItem {
                id: i as i64,
                kind: QueryKind::Sat {
                    formula: family[i].clone(),
                },
            }
        })
        .collect();
    let rows = c.query(&items).expect("query");
    assert_eq!(rows.len(), n);
    let mut words = vec![Vec::new(); n];
    for (row_index, row) in rows.iter().enumerate() {
        let id = row
            .get("id")
            .and_then(kpa::serve::json::Value::as_int)
            .expect("id");
        assert_eq!(
            id as usize,
            (row_index + client) % n,
            "ids echo in batch order"
        );
        words[id as usize] = row_words(&rows, row_index);
    }
    c.bye().expect("bye");
    words
}

#[test]
fn walkthrough_queries_match_the_serial_model_over_the_wire() {
    let specs: &[(&str, &str, Vec<String>)] = &[
        (
            "secret-coin",
            "post",
            formula_family("c=h", "c=t", "p1", "p3", "p1,p2,p3"),
        ),
        (
            "async-coins:3",
            "post",
            formula_family("recent=h", "c0=h", "p1", "p2", "p1,p2"),
        ),
        (
            "secret-coin",
            "opp:p3",
            formula_family("c=h", "c=t", "p1", "p3", "p1,p2,p3"),
        ),
        (
            "ca1:2",
            "post",
            formula_family("coordinated", "A-attacks", "A", "B", "A,B"),
        ),
    ];
    let mut server = Server::bind(ServeConfig::default()).expect("bind");
    let addr = server.local_addr();
    for (system, assignment, family) in specs {
        let sys = build_system(system).expect("catalog system builds");
        let assign = build_assignment(assignment, &sys).expect("assignment");
        let expected = serial_words(&sys, &assign, family);
        let per_client: Vec<Vec<Vec<u64>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|client| {
                    let family = family.clone();
                    scope.spawn(move || client_words(addr, system, assignment, &family, client))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client"))
                .collect()
        });
        for (client, words) in per_client.into_iter().enumerate() {
            for (i, (got, want)) in words.iter().zip(expected.iter()).enumerate() {
                assert_eq!(
                    got, want,
                    "client {client} diverged from the serial model on {:?} \
                     ({system}, {assignment})",
                    family[i]
                );
            }
        }
    }
    server.shutdown();
}

/// `holds`, `everywhere`, `knows`, `pr_ge`, `pr_ge_family`, and
/// `interval` against their in-process counterparts on one walkthrough
/// system. The batched family op must be bit-identical to k serial
/// `pr_ge` answers — the one-sweep evaluator is an optimization, not a
/// semantics.
#[test]
fn every_query_kind_matches_its_in_process_counterpart() {
    let sys = build_system("secret-coin").expect("builds");
    let pa = ProbAssignment::new(&sys, Assignment::post());
    let model = Model::new(&pa);
    let f = parse_in("c=h", &sys).expect("parses");
    let sat = model.sat(&f).expect("checks");
    let knows = model
        .sat(&f.clone().known_by(kpa::system::AgentId(2)))
        .expect("checks");
    let pr = model
        .sat(&f.clone().pr_ge(kpa::system::AgentId(0), Rat::new(1, 2)))
        .expect("checks");
    let point = kpa::system::PointId {
        tree: kpa::system::TreeId(0),
        run: 0,
        time: 1,
    };
    let (lo, hi) = model
        .prob_interval(kpa::system::AgentId(0), point, &f)
        .expect("interval");
    let family_alphas = [Rat::new(1, 4), Rat::new(1, 2), Rat::new(3, 4), Rat::ONE];
    let family_expected: Vec<Vec<u64>> = family_alphas
        .iter()
        .map(|&alpha| {
            model
                .sat(&f.clone().pr_ge(kpa::system::AgentId(0), alpha))
                .expect("checks")
                .as_words()
                .to_vec()
        })
        .collect();

    let mut server = Server::bind(ServeConfig::default()).expect("bind");
    let mut c = Client::connect(server.local_addr()).expect("connect");
    c.load_named("secret-coin", "post").expect("load");
    let rows = c
        .query(&[
            QueryItem {
                id: 0,
                kind: QueryKind::Holds {
                    formula: "c=h".into(),
                    point: (0, 0, 1),
                },
            },
            QueryItem {
                id: 1,
                kind: QueryKind::Everywhere {
                    formula: "c=h | !c=h".into(),
                },
            },
            QueryItem {
                id: 2,
                kind: QueryKind::Knows {
                    agent: "p3".into(),
                    formula: "c=h".into(),
                },
            },
            QueryItem {
                id: 3,
                kind: QueryKind::PrGe {
                    agent: "p1".into(),
                    alpha: Rat::new(1, 2),
                    formula: "c=h".into(),
                },
            },
            QueryItem {
                id: 4,
                kind: QueryKind::Interval {
                    agent: "p1".into(),
                    point: (0, 0, 1),
                    formula: "c=h".into(),
                },
            },
            QueryItem {
                id: 5,
                kind: QueryKind::PrGeFamily {
                    agent: "p1".into(),
                    alphas: family_alphas.to_vec(),
                    formula: "c=h".into(),
                },
            },
        ])
        .expect("query");
    use kpa::serve::json::Value;
    assert_eq!(
        rows[0].get("holds").and_then(Value::as_bool),
        Some(sat.contains(point))
    );
    assert_eq!(rows[1].get("holds").and_then(Value::as_bool), Some(true));
    assert_eq!(row_words(&rows, 2), knows.as_words());
    assert_eq!(row_words(&rows, 3), pr.as_words());
    assert_eq!(
        rows[4].get("lo").and_then(Value::as_str),
        Some(lo.to_string().as_str())
    );
    assert_eq!(
        rows[4].get("hi").and_then(Value::as_str),
        Some(hi.to_string().as_str())
    );
    let sets = rows[5]
        .get("sets")
        .and_then(Value::as_arr)
        .expect("family row carries sets");
    assert_eq!(sets.len(), family_alphas.len());
    for (i, (set, want)) in sets.iter().zip(&family_expected).enumerate() {
        let got = words_from_value(set).expect("well-formed words");
        assert_eq!(
            &got, want,
            "pr_ge_family[{i}] diverged from serial pr_ge at alpha {}",
            family_alphas[i]
        );
    }
    c.bye().expect("bye");
    server.shutdown();
}

/// Random structural specs over the wire: the server builds the same
/// system the test builds locally, and answers bit-identically. One
/// server serves every case; sessions come and go.
#[test]
fn random_spec_systems_match_the_serial_model_over_the_wire() {
    let mut server = Server::bind(ServeConfig::default()).expect("bind");
    let addr = server.local_addr();
    cases("serve_differential_specs", |rng| {
        let spec = arb_wire_spec(rng);
        let sys = build_spec_system(&spec).expect("spec builds");
        let props: Vec<String> = (0..spec.rounds.len()).map(|k| format!("c{k}=h")).collect();
        let group = (1..=spec.agents)
            .map(|a| format!("p{a}"))
            .collect::<Vec<_>>()
            .join(",");
        let family = formula_family(
            &props[0],
            props.last().expect("at least one round"),
            "p1",
            &format!("p{}", spec.agents),
            &group,
        );
        let assignment = match rng.index(3) {
            0 => "post",
            1 => "fut",
            _ => "opp:p1",
        };
        let assign = build_assignment(assignment, &sys).expect("assignment");
        let expected = serial_words(&sys, &assign, &family);

        let mut c = Client::connect(addr).expect("connect");
        c.load_spec(&spec, assignment).expect("load spec");
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
        for (i, want) in expected.iter().enumerate() {
            assert_eq!(
                &row_words(&rows, i),
                want,
                "wire answer diverged on {:?} over {spec:?} ({assignment})",
                family[i]
            );
        }
        let _ = c.bye();
    });
    server.shutdown();
}

/// The wire-spec analogue of `common::arb_sync_spec`/`arb_async_spec`:
/// 2–3 agents, 1–3 biased rounds, sometimes adversaries, sometimes
/// clockless agents.
fn arb_wire_spec(rng: &mut Rng64) -> SystemSpec {
    const BIASES: [(i128, i128); 4] = [(1, 2), (1, 3), (2, 3), (1, 4)];
    let agents = 2 + rng.index(2);
    let two_adversaries = rng.chance(1, 2);
    let rounds = (0..1 + rng.index(3))
        .map(|_| {
            let (n, d) = BIASES[rng.index(BIASES.len())];
            SpecRound {
                bias: Rat::new(n, d),
                observers: rng.next_u64() as u8,
            }
        })
        .collect();
    let clockless_mask = if rng.chance(1, 2) {
        1 + rng.next_u64() as u8 % 3
    } else {
        0
    };
    SystemSpec {
        agents,
        two_adversaries,
        clockless_mask,
        rounds,
    }
}

/// Two sessions pinning the same `(system, assignment)` share one
/// artifact; a different assignment makes a second one.
#[test]
fn sessions_share_artifacts_across_connections() {
    use kpa::serve::json::Value;
    let mut server = Server::bind(ServeConfig::default()).expect("bind");
    let addr = server.local_addr();
    let mut a = Client::connect(addr).expect("connect");
    let mut b = Client::connect(addr).expect("connect");
    a.load_named("die", "post").expect("load");
    b.load_named("die", "post").expect("load");
    let stats = b.stats().expect("stats");
    assert_eq!(stats.get("artifacts").and_then(Value::as_int), Some(1));
    b.load_named("die", "fut").expect("load");
    let stats = b.stats().expect("stats");
    assert_eq!(stats.get("artifacts").and_then(Value::as_int), Some(2));
    // Process counters saw both sessions; the per-session scope only
    // its own traffic.
    let process = stats.get("process").expect("process block");
    let counters = process.get("counters").expect("counters");
    assert_eq!(
        counters.get("proc.sessions").and_then(Value::as_int),
        Some(2)
    );
    let session = stats.get("session").expect("session block");
    let s_counters = session.get("counters").expect("counters");
    assert_eq!(
        s_counters.get("session.loads").and_then(Value::as_int),
        Some(2)
    );
    let _ = a.bye();
    let _ = b.bye();
    server.shutdown();
}

/// The `metrics` op round-trips the schema-v2 snapshot through a real
/// socket: cumulative counters agree with `stats`, the windowed
/// quantiles cover the traffic just sent, the span section is present,
/// and the occupancy gauges match the artifact cache. The text
/// exposition carries the same numbers.
#[test]
fn metrics_schema_v2_round_trips_over_the_wire() {
    use kpa::serve::json::Value;
    let mut server = Server::bind(ServeConfig::default()).expect("bind");
    let mut c = Client::connect(server.local_addr()).expect("connect");
    c.hello().expect("hello");
    c.load_named("secret-coin", "post").expect("load");
    for _ in 0..3 {
        c.query(&[QueryItem {
            id: 1,
            kind: QueryKind::Sat {
                formula: "c=h".into(),
            },
        }])
        .expect("query");
    }
    let stats = c.stats().expect("stats");
    let metrics = c.metrics().expect("metrics");
    assert_eq!(metrics.get("schema").and_then(Value::as_int), Some(2));
    // Cumulative counters agree with the stats op taken just before
    // (metrics itself adds one request between the two frames).
    let proc_counter = |frame: &Value, name: &str| {
        frame
            .get("process")
            .and_then(|p| p.get("counters"))
            .and_then(|m| m.get(name))
            .and_then(Value::as_int)
            .expect("process counter")
    };
    assert_eq!(
        proc_counter(&metrics, "proc.queries"),
        proc_counter(&stats, "proc.queries")
    );
    assert_eq!(
        proc_counter(&metrics, "proc.requests"),
        proc_counter(&stats, "proc.requests") + 1
    );
    // Windowed quantiles cover the queries just sent.
    let windowed = metrics
        .get("process")
        .and_then(|p| p.get("windowed"))
        .and_then(Value::as_obj)
        .expect("windowed block");
    for name in ["proc.frame_ns", "proc.query_ns"] {
        let w = windowed
            .get(name)
            .unwrap_or_else(|| panic!("{name} windowed"));
        let count = w.get("count").and_then(Value::as_int).expect("count");
        assert!(count >= 3, "{name} window covers recent traffic: {count}");
        let p50 = w.get("p50").and_then(Value::as_int).expect("p50");
        let p99 = w.get("p99").and_then(Value::as_int).expect("p99");
        assert!(p50 <= p99, "{name}: p50 {p50} <= p99 {p99}");
    }
    // Span section and occupancy gauges are present and consistent.
    let spans = metrics.get("spans").expect("spans block");
    assert!(spans.get("dropped").and_then(Value::as_int).is_some());
    assert!(spans.get("sites").and_then(Value::as_obj).is_some());
    assert_eq!(
        metrics.get("artifacts_resident").and_then(Value::as_int),
        stats.get("artifacts").and_then(Value::as_int)
    );
    let bytes = metrics
        .get("artifacts_resident_bytes")
        .and_then(Value::as_int)
        .expect("resident bytes gauge");
    assert!(bytes > 0, "a resident artifact occupies bytes");
    // The text exposition carries the same gauges and window counts.
    let text = c.metrics_text().expect("metrics text");
    assert!(text.contains("serve.artifacts_resident 1"), "{text}");
    assert!(
        text.contains(&format!("serve.artifacts_resident_bytes {bytes}")),
        "{text}"
    );
    assert!(text.contains("win.proc.query_ns.p50 "), "{text}");
    assert!(text.contains("counter.proc.queries 3"), "{text}");
    c.bye().expect("bye");
    server.shutdown();
}

/// The sweep is the documented size (guards against accidentally
/// shrinking the differential surface).
#[test]
fn sweep_width_is_pinned() {
    const { assert!(CASES >= 24) };
    // Seeds are derived per property — replayable by construction.
    assert_ne!(
        case_seed("serve_differential_specs", 0),
        case_seed("serve_differential_specs", 1)
    );
}
