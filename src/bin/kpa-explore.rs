//! `kpa-explore` — interactive queries over the paper's systems.
//!
//! ```console
//! $ kpa-explore --list
//! $ kpa-explore --system ca2 --info
//! $ kpa-explore --system ca2 --assignment post \
//!       --formula 'C{A,B}^0.99 <>coordinated'
//! $ kpa-explore --system secret-coin --assignment opp:p3 \
//!       --formula 'K{p1}(Pr{p1}(c=h) >= 1/2)' --at 0,0,1
//! ```
//!
//! Systems take an optional integer parameter: `ca1:4` builds the
//! 4-messenger attack, `async-coins:6` the 6-toss system, and so on.
//!
//! `--trace` enables the `kpa-trace` registry for the query and prints
//! the counter/histogram table afterwards — cache hit rates, dense
//! kernel traffic, sweep timings, build times (equivalently, set
//! `KPA_TRACE=1` in the environment).
//!
//! `--trace-events` (implies `--trace`) additionally dumps the
//! per-site span summary, the flamegraph-foldable span stacks, and the
//! Chrome `trace_event` JSON for the run — paste the
//! latter into `chrome://tracing` / Perfetto to see the request tree
//! on a timeline.
//!
//! `--shared N` re-answers the formula from `N` threads sharing one
//! `Arc<ModelArtifact>` (the concurrent query path), checks every
//! thread against the serial model bit-for-bit, and — combined with
//! `--trace` — reports each memo's hits and misses.
//!
//! `--connect HOST:PORT` replays the query against a running
//! `kpa-serve` instance (which loads the same system by name) and
//! bit-compares the server's point-set words with the local answer.

use kpa::assign::{Assignment, ProbAssignment};
use kpa::logic::{parse_in, Formula, Model, ModelArtifact};
use kpa::serve::catalog::{build_assignment, build_system, parse_point, SYSTEMS};
use kpa::serve::proto::words_from_value;
use kpa::serve::{Client, QueryItem, QueryKind};
use kpa::system::System;
use std::process::ExitCode;
use std::sync::Arc;

fn print_info(sys: &System) {
    println!("agents:  {}", sys.agents().join(", "));
    println!(
        "trees:   {} (type-1 adversaries: {})",
        sys.tree_count(),
        sys.tree_ids()
            .map(|t| sys.tree(t).name().to_owned())
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!(
        "shape:   horizon {}, {} points, {}",
        sys.horizon(),
        sys.point_count(),
        if sys.is_synchronous() {
            "synchronous"
        } else {
            "asynchronous"
        }
    );
    let mut props = sys.prop_names();
    props.sort_unstable();
    println!("props:   {}", props.join(", "));
}

struct Args {
    list: bool,
    info: bool,
    trace: bool,
    trace_events: bool,
    system: Option<String>,
    assignment: String,
    formula: Option<String>,
    at: Option<String>,
    shared: Option<usize>,
    connect: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        list: false,
        info: false,
        trace: false,
        trace_events: false,
        system: None,
        assignment: "post".to_owned(),
        formula: None,
        at: None,
        shared: None,
        connect: None,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut take = |flag: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--list" => args.list = true,
            "--info" => args.info = true,
            "--trace" => args.trace = true,
            "--trace-events" => {
                args.trace = true;
                args.trace_events = true;
            }
            "--system" => args.system = Some(take("--system")?),
            "--assignment" => args.assignment = take("--assignment")?,
            "--formula" => args.formula = Some(take("--formula")?),
            "--at" => args.at = Some(take("--at")?),
            "--shared" => {
                let n = take("--shared")?;
                let n: usize = n
                    .parse()
                    .map_err(|_| format!("--shared expects a thread count; got {n:?}"))?;
                if n == 0 {
                    return Err("--shared needs at least one thread".to_owned());
                }
                args.shared = Some(n);
            }
            "--connect" => args.connect = Some(take("--connect")?),
            "--help" | "-h" => {
                return Err(
                    "usage: kpa-explore [--list] [--system NAME[:PARAM]] [--info] \
                            [--assignment post|fut|prior|opp:AGENT] [--formula F] \
                            [--at tree,run,time] [--shared N] [--connect HOST:PORT] \
                            [--trace] [--trace-events]\n\
                     --shared N answers the formula from N threads sharing one \
                     Arc<ModelArtifact>, checks them against the serial model, \
                     and (with --trace) reports memo hits and misses\n\
                     --connect HOST:PORT replays the query against a running \
                     kpa-serve and bit-compares the answers"
                        .to_owned(),
                )
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    Ok(args)
}

/// Prints the trace table when `--trace` was given (tracing was
/// enabled before the system was built, so builder, cache, kernel,
/// and sweep counters all show up).
fn print_trace(on: bool) {
    if on {
        print!("\n{}", kpa_trace::registry().snapshot().render_table());
    }
}

/// `--trace-events`: dumps the per-site span summary, the
/// flamegraph-foldable stacks, and the Chrome `trace_event` JSON for
/// everything this run recorded.
fn dump_trace_events(on: bool) {
    if !on {
        return;
    }
    let (records, dropped) = kpa_trace::snapshot_span_records();
    println!(
        "\n== span sites ({} spans, {dropped} dropped) ==",
        records.len()
    );
    for s in kpa_trace::span_site_stats(&records) {
        println!(
            "  {:<28} count {:>6}  total {:>12} ns  max {:>10} ns",
            s.site, s.count, s.total_ns, s.max_ns
        );
    }
    println!("== span stacks (folded) ==");
    print!(
        "{}",
        kpa_trace::spans_to_folded(&kpa_trace::stitch_span_trees(&records))
    );
    println!("== chrome trace json ==");
    println!("{}", kpa_trace::spans_to_chrome_json(&records));
}

/// `--shared N`: answers the formula from `N` threads that share one
/// `Arc<ModelArtifact>`, asserts every thread agrees bit-for-bit with
/// the serial model's answer, and (under `--trace`) reports how the
/// artifact's memos absorbed the concurrent traffic.
fn run_shared(
    clients: usize,
    sys: &System,
    assignment: &Assignment,
    formula: &Formula,
    serial_words: &[u64],
    trace: bool,
) -> Result<(), String> {
    let before = trace.then(|| kpa_trace::registry().snapshot());
    let artifact = Arc::new(ModelArtifact::new(
        Arc::new(sys.clone()),
        assignment.clone(),
    ));
    let results: Vec<Result<Vec<u64>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let artifact = Arc::clone(&artifact);
                let formula = formula.clone();
                scope.spawn(move || {
                    let ctx = artifact.ctx();
                    ctx.sat(&formula)
                        .map(|sat| sat.as_words().to_vec())
                        .map_err(|e| e.to_string())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shared client panicked"))
            .collect()
    });
    for (client, result) in results.into_iter().enumerate() {
        let words = result?;
        if words != serial_words {
            return Err(format!(
                "shared client {client} disagreed with the serial model — \
                 this is a bug; please report it"
            ));
        }
    }
    println!(
        "shared:     {clients} threads × 1 artifact agreed with the serial model \
         (subterm memo: {}, plans: {})",
        artifact.subterm_memo_len(),
        artifact.plans_built(),
    );
    if let Some(before) = before {
        let delta = kpa_trace::registry().snapshot().delta_counters(&before);
        let count = |name: &str| delta.get(name).copied().unwrap_or(0);
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
            println!("  {memo}: {} hits, {} misses", count(hit), count(miss));
        }
    }
    Ok(())
}

/// `--connect HOST:PORT`: replays the query against a live `kpa-serve`
/// — the server loads the same `NAME[:PARAM]` system and assignment by
/// spec, answers `sat` over the wire, and the point-set words must
/// match the local model **bit for bit** (the protocol ships words as
/// hex strings precisely so this comparison is exact).
fn run_connect(
    addr: &str,
    system_spec: &str,
    assignment_spec: &str,
    formula_src: &str,
    serial_words: &[u64],
) -> Result<(), String> {
    fn fail(stage: &'static str) -> impl Fn(kpa::serve::ClientError) -> String {
        move |e| format!("{stage}: {e}")
    }
    let mut client = Client::connect(addr).map_err(fail("connect"))?;
    client.hello().map_err(fail("hello"))?;
    client
        .load_named(system_spec, assignment_spec)
        .map_err(fail("load"))?;
    let results = client
        .query(&[QueryItem {
            id: 1,
            kind: QueryKind::Sat {
                formula: formula_src.to_owned(),
            },
        }])
        .map_err(fail("query"))?;
    let words_v = results
        .first()
        .and_then(|r| r.get("words"))
        .ok_or("query reply carried no \"words\"")?;
    let words = words_from_value(words_v)?;
    if words != serial_words {
        return Err(format!(
            "server at {addr} disagreed with the local model — \
             this is a bug; please report it"
        ));
    }
    println!(
        "connect:    {addr} agreed with the local model bit-for-bit \
         ({} words)",
        words.len()
    );
    let _ = client.bye();
    Ok(())
}

fn run(argv: &[String]) -> Result<(), String> {
    let args = parse_args(argv)?;
    if args.trace {
        kpa_trace::set_enabled(true);
        kpa_trace::registry().reset();
    }
    // Give the whole run one trace id, so its spans stitch into a
    // single tree in the --trace-events dump.
    let _run_id = args
        .trace_events
        .then(|| kpa_trace::ambient_guard(kpa_trace::next_trace_id()));
    if args.list {
        println!("built-in systems (NAME[:PARAM]):");
        for (name, desc, default) in SYSTEMS {
            println!("  {name:<14} {desc} (default param: {default})");
        }
        return Ok(());
    }
    let spec = args
        .system
        .as_deref()
        .ok_or("no --system given (try --list)")?;
    let sys = build_system(spec)?;
    if args.info || args.formula.is_none() {
        print_info(&sys);
    }
    let Some(formula_src) = args.formula else {
        print_trace(args.trace);
        dump_trace_events(args.trace_events);
        return Ok(());
    };
    let formula = parse_in(&formula_src, &sys).map_err(|e| e.to_string())?;
    let assignment = build_assignment(&args.assignment, &sys)?;
    println!("formula:    {formula}");
    println!("assignment: {}", assignment.name());
    let pa = ProbAssignment::new(&sys, assignment.clone());
    let model = Model::new(&pa);
    let sat = model.sat(&formula).map_err(|e| e.to_string())?;
    println!(
        "satisfied at {} of {} points; holds everywhere: {}",
        sat.len(),
        sys.point_count(),
        sat.len() == sys.point_count()
    );
    if let Some(clients) = args.shared {
        run_shared(
            clients,
            &sys,
            &assignment,
            &formula,
            sat.as_words(),
            args.trace,
        )?;
    }
    if let Some(addr) = &args.connect {
        run_connect(addr, spec, &args.assignment, &formula_src, sat.as_words())?;
    }
    if let Some(at) = args.at {
        let point = parse_point(&at, &sys)?;
        println!(
            "at {point}: {}",
            if sat.contains(point) {
                "holds"
            } else {
                "fails"
            }
        );
        for agent in (0..sys.agent_count()).map(kpa::system::AgentId) {
            let (lo, hi) = model
                .prob_interval(agent, point, &formula)
                .map_err(|e| e.to_string())?;
            println!(
                "  Pr_{}({}) in [{lo}, {hi}]",
                sys.agent_name(agent),
                if formula_src.len() <= 24 {
                    &formula_src
                } else {
                    "formula"
                }
            );
        }
    }
    print_trace(args.trace);
    dump_trace_events(args.trace_events);
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_builds_every_system() {
        for (name, _, _) in SYSTEMS {
            assert!(build_system(name).is_ok(), "{name} failed to build");
        }
        assert!(build_system("ca1:2").is_ok());
        assert!(build_system("async-coins:3").is_ok());
        assert!(build_system("nope").is_err());
        assert!(build_system("ca1:x").is_err());
    }

    #[test]
    fn assignment_and_point_parsing() {
        let sys = build_system("secret-coin").unwrap();
        assert!(build_assignment("post", &sys).is_ok());
        assert!(build_assignment("opp:p3", &sys).is_ok());
        assert!(build_assignment("opp:nobody", &sys).is_err());
        assert!(build_assignment("bogus", &sys).is_err());
        assert!(parse_point("0,0,1", &sys).is_ok());
        assert!(parse_point("9,0,1", &sys).is_err());
        assert!(parse_point("0,9,1", &sys).is_err());
        assert!(parse_point("0,0,9", &sys).is_err());
        assert!(parse_point("0,0", &sys).is_err());
    }

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn end_to_end_queries() {
        run(&argv(&["--list"])).unwrap();
        run(&argv(&["--system", "secret-coin", "--info"])).unwrap();
        run(&argv(&[
            "--system",
            "ca2:4",
            "--assignment",
            "post",
            "--formula",
            "C{A,B}^0.99 <>coordinated",
        ]))
        .unwrap();
        run(&argv(&[
            "--system",
            "secret-coin",
            "--assignment",
            "opp:p3",
            "--formula",
            "K{p1}(Pr{p1}(c=h) >= 1/2)",
            "--at",
            "0,0,1",
        ]))
        .unwrap();
        // --trace prints the registry table after the query (and is
        // observationally invisible to the query itself).
        run(&argv(&[
            "--system",
            "secret-coin",
            "--formula",
            "K{p3} c=h",
            "--trace",
        ]))
        .unwrap();
        kpa_trace::set_enabled(false);
        // --trace-events implies --trace and dumps spans/exports.
        run(&argv(&[
            "--system",
            "secret-coin",
            "--formula",
            "K{p3} c=h",
            "--trace-events",
        ]))
        .unwrap();
        kpa_trace::set_enabled(false);
        // --shared N: concurrent clients over one artifact, checked
        // against the serial model (with and without --trace).
        run(&argv(&[
            "--system",
            "async-coins:3",
            "--formula",
            "Pr{p2}(recent=h) >= 1/2",
            "--shared",
            "4",
        ]))
        .unwrap();
        run(&argv(&[
            "--system",
            "secret-coin",
            "--formula",
            "K{p3} c=h",
            "--shared",
            "2",
            "--trace",
        ]))
        .unwrap();
        kpa_trace::set_enabled(false);
        // --connect: replay against a loopback kpa-serve and bit-check.
        let mut server = kpa::serve::Server::bind(kpa::serve::ServeConfig::default()).unwrap();
        let addr = server.local_addr().to_string();
        run(&argv(&[
            "--system",
            "async-coins:3",
            "--assignment",
            "fut",
            "--formula",
            "Pr{p2}(recent=h) >= 1/2",
            "--connect",
            &addr,
        ]))
        .unwrap();
        server.shutdown();
        // A dead server is a clean error, not a hang or panic.
        assert!(run(&argv(&[
            "--system",
            "secret-coin",
            "--formula",
            "K{p3} c=h",
            "--connect",
            &addr,
        ]))
        .is_err());
        assert!(run(&argv(&["--system", "secret-coin", "--shared", "0"])).is_err());
        assert!(run(&argv(&["--system", "secret-coin", "--shared", "x"])).is_err());
        assert!(run(&argv(&[
            "--system",
            "secret-coin",
            "--formula",
            "K{ghost} x"
        ]))
        .is_err());
        assert!(run(&argv(&["--frob"])).is_err());
        assert!(run(&argv(&["--help"])).is_err());
    }
}
