//! One worker process: given one slice of a workload's stream, it sets
//! the program up, times the slice, checks every answer against the
//! oracle digests the slice carries, and prints raw samples and counts
//! for the parent process to pool.
//!
//! A traced worker runs the same slice with `kpa-trace` on. It also
//! times the layers from outside: it calls each module's public
//! functions itself (client encoding, JSON, protocol decoding, session
//! handling, formula parsing and compiling, `EvalCtx` calls, catalog
//! and artifact builds) on the frames and formulas of its slice, and it
//! reads the counters the program keeps. The server runs in this
//! process, which is what exposes those process-global counters; a
//! separate `kpa-serve` process would hide them.

use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use kpa_logic::{parse_in, Formula, FormulaArena, ModelArtifact, PointSet};
use kpa_serve::json::{self, Value};
use kpa_serve::proto::{
    self, query_item_to_value, spec_to_value, words_from_value, words_to_value,
};
use kpa_serve::session::Session;
use kpa_serve::{Client, ClientError, QueryItem, QueryKind, ServeConfig, Server};
use kpa_trace::TraceReport;

use crate::answer::{check_batch, eval_ctx, Answer, Tally};
use crate::plan::{Item, Plan, Target, Workload};

/// How long a client waits for one reply before the request counts as
/// timed out (and failed).
const REPLY_DEADLINE: Duration = Duration::from_secs(10);

/// Concurrent connections in `session_churn`.
const CHURN_CONNECTIONS: usize = 2;

/// Everything one worker measured, as the parent reads it back.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub setup_s: f64,
    pub timed_s: f64,
    /// Query items answered in the timed phase.
    pub items: u64,
    pub tally: Tally,
    /// `VmHWM` after the timed phase, in KiB.
    pub rss_kb: u64,
    /// Raw samples by name; `lat_us` is the end-to-end latency.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Counter deltas and gauges by name.
    pub counts: BTreeMap<String, f64>,
    pub info: BTreeMap<String, String>,
}

impl Report {
    fn sample(&mut self, name: &str, v: f64) {
        self.samples.entry(name.to_string()).or_default().push(v);
    }

    fn count(&mut self, name: &str, v: f64) {
        *self.counts.entry(name.to_string()).or_default() += v;
    }

    fn info(&mut self, key: &str, value: impl ToString) {
        self.info.insert(key.to_string(), value.to_string());
    }

    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "setup_s {}", self.setup_s);
        let _ = writeln!(out, "timed_s {}", self.timed_s);
        let _ = writeln!(out, "items {}", self.items);
        let t = &self.tally;
        let _ = writeln!(out, "tally {} {} {:016x}", t.attempted, t.failed, t.answers);
        let _ = writeln!(out, "rss_kb {}", self.rss_kb);
        for (k, v) in &self.samples {
            let vals: Vec<String> = v.iter().map(f64::to_string).collect();
            let _ = writeln!(out, "sample {k} {}", vals.join(" "));
        }
        for (k, v) in &self.counts {
            let _ = writeln!(out, "count {k} {v}");
        }
        for (k, v) in &self.info {
            let _ = writeln!(out, "info {k} {v}");
        }
        out
    }

    pub fn parse(text: &str) -> Result<Report, String> {
        let mut r = Report::default();
        let f = |s: &str| s.parse::<f64>().map_err(|_| format!("bad number {s:?}"));
        for line in text.lines() {
            let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
            let (key, val) = rest.split_once(' ').unwrap_or((rest, ""));
            match tag {
                "setup_s" => r.setup_s = f(rest)?,
                "timed_s" => r.timed_s = f(rest)?,
                "items" => r.items = f(rest)? as u64,
                "rss_kb" => r.rss_kb = f(rest)? as u64,
                "tally" => {
                    let v: Vec<&str> = rest.split(' ').collect();
                    let [a, b, c] = v[..] else {
                        return Err(format!("bad tally {rest:?}"));
                    };
                    r.tally = Tally {
                        attempted: f(a)? as u64,
                        failed: f(b)? as u64,
                        answers: u64::from_str_radix(c, 16).map_err(|_| "bad digest")?,
                    };
                }
                "sample" => {
                    let vals = val.split_whitespace().map(f).collect::<Result<_, _>>()?;
                    r.samples.insert(key.to_string(), vals);
                }
                "count" => {
                    r.counts.insert(key.to_string(), f(val)?);
                }
                "info" => {
                    r.info.insert(key.to_string(), val.to_string());
                }
                _ => {}
            }
        }
        Ok(r)
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A field of this process's `/proc/self/status`, in KiB.
pub fn status_kb(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Runs one worker's slice.
pub fn run(plan: &Plan) -> Result<Report, String> {
    kpa_trace::set_enabled(plan.traced);
    let mut r = Report::default();
    r.info("pool_width", kpa_pool::default_threads());
    match plan.workload {
        Workload::WireHot => wire_hot(plan, &mut r)?,
        Workload::EvalCold => eval_cold(plan, &mut r)?,
        Workload::SessionChurn => session_churn(plan, &mut r)?,
    }
    if plan.traced {
        // Every system this process built, set-up included: the span
        // the system layer itself records around each build.
        let builds = kpa_trace::registry().snapshot();
        if let Some(h) = builds.histograms.get("system.build_ns") {
            r.count("h.system.build_ns.sum", h.sum as f64);
            r.count("h.system.build_ns.count", h.count as f64);
        }
    }
    Ok(r)
}

fn batch_of(plan: &Plan, frame: &[usize]) -> Vec<QueryItem> {
    frame
        .iter()
        .map(|&i| QueryItem {
            id: i as i64,
            kind: plan.items[&i].kind.clone(),
        })
        .collect()
}

fn check(plan: &Plan, tally: &mut Tally, frame: &[usize], reply: &Result<Vec<Value>, String>) {
    match reply {
        Ok(rows) => {
            let batch: Vec<(u64, &QueryKind, i64)> = frame
                .iter()
                .map(|&i| {
                    let item: &Item = &plan.items[&i];
                    (item.expect, &item.kind, i as i64)
                })
                .collect();
            check_batch(tally, &batch, rows);
        }
        Err(_) => tally.fail(frame.len() as u64),
    }
}

/// A connected, loaded client and what opening it cost.
struct Opened {
    client: Client,
    hello_us: f64,
    load_us: f64,
    /// Points and words per set of the loaded system, from the reply.
    size: (i64, i64),
}

fn open(addr: SocketAddr, target: &Target) -> Result<Opened, ClientError> {
    let t = Instant::now();
    let mut client = Client::connect_with_deadline(addr, REPLY_DEADLINE)?;
    client.hello()?;
    let hello_us = us(t.elapsed());
    let t = Instant::now();
    let loaded = match target {
        Target::Named { system, assignment } => client.load_named(system, assignment)?,
        Target::Spec(spec) => client.load_spec(spec, "post")?,
    };
    let load_us = us(t.elapsed());
    let int = |k| loaded.get(k).and_then(Value::as_int).unwrap_or(0);
    Ok(Opened {
        client,
        hello_us,
        load_us,
        size: (int("points"), int("words")),
    })
}

/// The traced run's counter window: counters the program keeps, read
/// before and after the timed phase.
struct Window {
    before: TraceReport,
}

impl Window {
    fn open() -> Window {
        Window {
            before: kpa_trace::registry().snapshot(),
        }
    }

    fn close(self, r: &mut Report) {
        let after = kpa_trace::registry().snapshot();
        for (name, delta) in after.delta_counters(&self.before) {
            if delta > 0 {
                r.count(&format!("c.{name}"), delta as f64);
            }
        }
        for name in ["pool.busy_ns", "pool.idle_ns"] {
            let sum = |t: &TraceReport| t.histograms.get(name).map_or(0, |h| h.sum);
            let delta = sum(&after).wrapping_sub(sum(&self.before));
            r.count(&format!("h.{name}.sum"), delta as f64);
        }
    }
}

fn wire_hot(plan: &Plan, r: &mut Report) -> Result<(), String> {
    let target = &plan.targets[0];
    let t0 = Instant::now();
    let mut server = Server::bind(ServeConfig::default()).map_err(|e| e.to_string())?;
    let addr = server.local_addr();
    let opened = open(addr, target).map_err(|e| e.to_string())?;
    r.info("points", opened.size.0);
    r.info("words_per_set", opened.size.1);
    let mut client = opened.client;
    for frame in &plan.warm {
        let reply = client
            .query(&batch_of(plan, frame))
            .map_err(|e| e.to_string());
        check(plan, &mut r.tally, frame, &reply);
    }
    r.setup_s = t0.elapsed().as_secs_f64();

    let batches: Vec<Vec<QueryItem>> = plan.frames.iter().map(|f| batch_of(plan, f)).collect();
    let window = plan.traced.then(Window::open);
    let resident = server.shared().artifacts_resident_bytes();
    let mut lat = Vec::with_capacity(batches.len());
    for (k, (frame, batch)) in plan.frames.iter().zip(&batches).enumerate() {
        let t = Instant::now();
        let reply = client.query(batch);
        lat.push(us(t.elapsed()));
        if let Err(ClientError::Io(_) | ClientError::Malformed(_)) = &reply {
            // The connection's state is unknown: start a fresh one.
            client = open(addr, target).map_err(|e| e.to_string())?.client;
        }
        // Scored between requests, off the clock, so no reply is kept
        // and the process's peak memory is the program's own.
        score(plan, r, frame, k, batch, &reply.map_err(|e| e.to_string()));
    }
    // One connection in a closed loop: its throughput is the items
    // over the time spent waiting on replies.
    r.timed_s = lat.iter().sum::<f64>() / 1e6;
    r.rss_kb = status_kb("VmHWM:");
    r.items = batches.iter().map(|b| b.len() as u64).sum();
    if let Some(w) = window {
        w.close(r);
    }
    r.count(
        "g.memo_bytes",
        server
            .shared()
            .artifacts_resident_bytes()
            .saturating_sub(resident) as f64,
    );
    let _ = client.bye();

    if plan.traced {
        let hello = hello_handle_us(&server);
        r.sample("accept_wait_us", opened.hello_us - hello);
        r.sample("load_build_us", opened.load_us);
        // A second connection pins the now-cached artifact: a load hit.
        let mut again = open(addr, target).map_err(|e| e.to_string())?;
        r.sample("accept_wait_us", again.hello_us - hello);
        r.sample("load_hit_us", again.load_us);
        let _ = again.client.bye();
        let sys = target.build()?;
        let mut session = replay_session(&server, target)?;
        for (k, batch) in batches.iter().enumerate() {
            let stages = replay_frame(&mut session, &sys, k as i64, batch, r)?;
            r.sample("transport_us", lat[k] - stages);
        }
        let items: Vec<&QueryKind> = plan.items.values().map(|i| &i.kind).collect();
        shadow_artifact(target, &items, r)?;
        let resident = server.shared().artifacts_resident_bytes();
        r.count("g.artifacts_resident_bytes", resident as f64);
    }
    r.samples.insert("lat_us".into(), lat);
    server.shutdown();
    Ok(())
}

/// Checks one reply against the oracle and adds its request and reply
/// sizes, serialized by the same writer with the same fields as on the
/// wire, to the provenance counts.
fn score(
    plan: &Plan,
    r: &mut Report,
    frame: &[usize],
    id: usize,
    batch: &[QueryItem],
    reply: &Result<Vec<Value>, String>,
) {
    check(plan, &mut r.tally, frame, reply);
    let Ok(rows) = reply else { return };
    let id = id as i64;
    let sent = proto::ok_frame(
        "query",
        Some(id),
        vec![("results", Value::Arr(rows.clone()))],
    );
    r.count(
        "g.request_bytes",
        (request_line(id, batch).len() + 1) as f64,
    );
    r.count("g.reply_bytes", (tagged(sent).to_json().len() + 1) as f64);
    r.count("g.frames", 1.0);
}

/// The request line `Client::query` writes for a batch.
fn request_line(id: i64, batch: &[QueryItem]) -> String {
    Client::bare_request(
        "query",
        vec![
            ("id", Value::Int(id)),
            (
                "queries",
                Value::Arr(batch.iter().map(query_item_to_value).collect()),
            ),
        ],
    )
    .to_json()
}

/// A reply frame as the server tags it before writing.
fn tagged(mut frame: Value) -> Value {
    if let Value::Obj(m) = &mut frame {
        m.insert(
            "trace_id".into(),
            Value::Str(kpa_trace::next_trace_id().to_hex()),
        );
    }
    frame
}

fn env_of(v: &Value) -> Result<proto::Envelope, String> {
    proto::decode(&json::parse(&v.to_json()).map_err(|e| e.to_string())?, 1024)
        .map_err(|e| e.to_string())
}

/// A session on the running server's shared state with `target`
/// loaded: the replay goes through the same artifact cache and memos
/// the timed frames used.
fn replay_session(server: &Server, target: &Target) -> Result<Session, String> {
    let mut session = Session::open(Arc::clone(server.shared()));
    let load = match target {
        Target::Named { system, assignment } => Client::bare_request(
            "load",
            vec![
                ("system", Value::Str(system.clone())),
                ("assignment", Value::Str(assignment.clone())),
            ],
        ),
        Target::Spec(spec) => Client::bare_request(
            "load",
            vec![
                ("spec", spec_to_value(spec)),
                ("assignment", Value::Str("post".into())),
            ],
        ),
    };
    let (frame, _) = session.handle(&env_of(&load)?);
    if frame.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err(format!("replay load failed: {}", frame.to_json()));
    }
    Ok(session)
}

/// Median time the session layer takes to answer `hello`.
fn hello_handle_us(server: &Server) -> f64 {
    let mut session = Session::open(Arc::clone(server.shared()));
    let Ok(env) = env_of(&Client::bare_request("hello", vec![])) else {
        return 0.0;
    };
    let mut v: Vec<f64> = (0..201)
        .map(|_| {
            let t = Instant::now();
            let _ = session.handle(&env);
            us(t.elapsed())
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Replays one query frame through every layer, one public call at a
/// time, and returns the summed stage time in microseconds.
fn replay_frame(
    session: &mut Session,
    sys: &kpa_system::System,
    id: i64,
    batch: &[QueryItem],
    r: &mut Report,
) -> Result<f64, String> {
    let t = Instant::now();
    let line = request_line(id, batch);
    let encode = us(t.elapsed());

    let t = Instant::now();
    let value = json::parse(&line).map_err(|e| e.to_string())?;
    let parse = us(t.elapsed());

    let t = Instant::now();
    let env = proto::decode(&value, 1024).map_err(|e| e.to_string())?;
    let decode = us(t.elapsed());

    let t = Instant::now();
    let (frame, _) = session.handle(&env);
    let handle = us(t.elapsed());

    let frame = tagged(frame);
    let t = Instant::now();
    let text = frame.to_json();
    let json_encode = us(t.elapsed());

    let t = Instant::now();
    let reply = json::parse(&text).map_err(|e| e.to_string())?;
    let rows = reply
        .get("results")
        .and_then(Value::as_arr)
        .map(<[Value]>::to_vec)
        .ok_or("replayed reply lacks results")?;
    let client_decode = us(t.elapsed());

    let mut words_encode = 0.0;
    for row in &rows {
        let arrays: Vec<&Value> = match (row.get("words"), row.get("sets")) {
            (Some(w), _) => vec![w],
            (None, Some(Value::Arr(sets))) => sets.iter().collect(),
            _ => Vec::new(),
        };
        for a in arrays {
            let words = words_from_value(a)?;
            let t = Instant::now();
            let v = words_to_value(&words);
            words_encode += us(t.elapsed());
            std::hint::black_box(v);
        }
    }
    for item in batch {
        let t = Instant::now();
        let f = parse_in(formula_of(&item.kind), sys);
        r.sample("logic_parse_us", us(t.elapsed()));
        std::hint::black_box(f.map_err(|e| e.to_string())?);
    }

    r.sample("client_encode_us", encode);
    r.sample("json_parse_us", parse);
    r.sample("json_parse_ns_per_byte", parse * 1e3 / line.len() as f64);
    r.sample("proto_decode_us", decode);
    r.sample("handle_us", handle);
    r.sample("json_encode_us", json_encode);
    r.sample("client_decode_us", client_decode);
    r.sample("words_encode_us", words_encode);
    r.sample("reply_bytes", (text.len() + 1) as f64);
    Ok(encode + parse + decode + handle + json_encode + client_decode)
}

fn formula_of(kind: &QueryKind) -> &str {
    match kind {
        QueryKind::Sat { formula }
        | QueryKind::Holds { formula, .. }
        | QueryKind::Everywhere { formula }
        | QueryKind::Knows { formula, .. }
        | QueryKind::PrGe { formula, .. }
        | QueryKind::PrGeFamily { formula, .. }
        | QueryKind::Interval { formula, .. } => formula,
    }
}

/// Builds a benchmark-owned artifact of `target` (build time and
/// resident growth), warms it with `items`, then times one compile and
/// one `EvalCtx` call per item on the warm artifact.
fn shadow_artifact(target: &Target, items: &[&QueryKind], r: &mut Report) -> Result<(), String> {
    let rss0 = status_kb("VmRSS:");
    let t = Instant::now();
    let (sys, assignment) = target.build_with_assignment()?;
    r.sample("catalog_build_us", us(t.elapsed()));
    let sys = Arc::new(sys);
    let t = Instant::now();
    let artifact = ModelArtifact::new(Arc::clone(&sys), assignment);
    r.sample("artifact_build_ms", t.elapsed().as_secs_f64() * 1e3);
    let ctx = artifact.ctx();
    ctx.sat(&Formula::True).map_err(|e| e.to_string())?;
    r.sample(
        "artifact_mb",
        status_kb("VmRSS:").saturating_sub(rss0) as f64 / 1024.0,
    );
    for kind in items {
        eval_ctx(&ctx, &sys, kind)?;
    }
    for kind in items {
        let f = parse_in(formula_of(kind), &sys).map_err(|e| e.to_string())?;
        let t = Instant::now();
        std::hint::black_box(ctx.compile(&f));
        r.sample("compile_us", us(t.elapsed()));
        let t = Instant::now();
        std::hint::black_box(eval_ctx(&ctx, &sys, kind)?);
        r.sample("eval_us", us(t.elapsed()));
    }
    Ok(())
}

/// Times the `catalog` build of every distinct target, as the server's
/// `load` performs it, and keeps the systems for formula parsing.
fn catalog_builds(
    plan: &Plan,
    targets: &BTreeSet<usize>,
    r: &mut Report,
) -> Result<BTreeMap<usize, kpa_system::System>, String> {
    let mut built = BTreeMap::new();
    for &k in targets {
        let t = Instant::now();
        let (sys, assignment) = plan.targets[k].build_with_assignment()?;
        r.sample("catalog_build_us", us(t.elapsed()));
        std::hint::black_box(assignment);
        built.insert(k, sys);
    }
    Ok(built)
}

/// One `eval_cold` call, parsed before the clock starts.
enum Call {
    Sat(Formula),
    Family(kpa_system::AgentId, Vec<kpa_measure::Rat>, Formula),
}

enum Out {
    One(Arc<PointSet>),
    Many(Vec<Arc<PointSet>>),
}

fn eval_cold(plan: &Plan, r: &mut Report) -> Result<(), String> {
    let target = &plan.targets[0];
    let rss0 = status_kb("VmRSS:");
    let t0 = Instant::now();
    let (sys, assignment) = target.build_with_assignment()?;
    let built_us = us(t0.elapsed());
    let t = Instant::now();
    let artifact = Arc::new(ModelArtifact::new(Arc::new(sys), assignment));
    let artifact_ms = t.elapsed().as_secs_f64() * 1e3;
    artifact
        .ctx()
        .sat(&Formula::True)
        .map_err(|e| e.to_string())?;
    r.setup_s = t0.elapsed().as_secs_f64();
    let sys = Arc::clone(artifact.system());
    if plan.traced {
        r.sample("catalog_build_us", built_us);
        r.sample("artifact_build_ms", artifact_ms);
        r.sample(
            "artifact_mb",
            status_kb("VmRSS:").saturating_sub(rss0) as f64 / 1024.0,
        );
    }
    r.info("points", sys.point_count());
    r.info("words_per_set", sys.full_points().as_words().len());

    let mut calls = Vec::with_capacity(plan.frames.len());
    for frame in &plan.frames {
        let kind = &plan.items[&frame[0]].kind;
        let t = Instant::now();
        let f = parse_in(formula_of(kind), &sys).map_err(|e| e.to_string())?;
        if plan.traced {
            r.sample("logic_parse_us", us(t.elapsed()));
        }
        calls.push(match kind {
            QueryKind::PrGeFamily { agent, alphas, .. } => {
                let a = sys.agent_id(agent).ok_or("unknown agent")?;
                Call::Family(a, alphas.clone(), f)
            }
            _ => Call::Sat(f),
        });
    }
    let request_bytes: usize = plan
        .frames
        .iter()
        .map(|f| formula_of(&plan.items[&f[0]].kind).len())
        .sum();

    let window = plan.traced.then(Window::open);
    let memo = artifact.approx_resident_bytes();
    let ctx = artifact.ctx();
    let mut lat = Vec::with_capacity(calls.len());
    let mut reply_bytes = 0usize;
    for (frame, call) in plan.frames.iter().zip(&calls) {
        let t = Instant::now();
        let out = match call {
            Call::Sat(f) => ctx.sat(f).map(Out::One),
            Call::Family(a, alphas, f) => ctx.pr_ge_family(*a, alphas, f).map(Out::Many),
        };
        lat.push(us(t.elapsed()));
        let answer = match out {
            Ok(Out::One(s)) => Ok(Answer::of_set(&s)),
            Ok(Out::Many(sets)) => Ok(Answer::of_family(sets.iter().map(|s| &**s))),
            Err(e) => Err(e.to_string()),
        };
        let sets: Vec<&[u64]> = match &answer {
            Ok(Answer::Set(_, w)) => vec![w],
            Ok(Answer::Family(sets)) => sets.iter().map(|(_, w)| &w[..]).collect(),
            _ => Vec::new(),
        };
        reply_bytes += sets.iter().map(|w| w.len() * 8).sum::<usize>();
        if plan.traced {
            // The hex word encoding the server would run to send these
            // sets: off the clock, and the only gated workload whose
            // answers carry words.
            let t = Instant::now();
            for w in &sets {
                std::hint::black_box(words_to_value(w));
            }
            r.sample("words_encode_us", us(t.elapsed()));
        }
        r.tally.record(plan.items[&frame[0]].expect, answer);
    }
    // One caller thread: its throughput is the calls over the time
    // spent inside them (scoring happens off the clock).
    r.timed_s = lat.iter().sum::<f64>() / 1e6;
    r.rss_kb = status_kb("VmHWM:");
    r.items = calls.len() as u64;
    if let Some(w) = window {
        w.close(r);
    }
    r.count(
        "g.memo_bytes",
        artifact.approx_resident_bytes().saturating_sub(memo) as f64,
    );
    r.count("g.request_bytes", request_bytes as f64);
    r.count("g.reply_bytes", reply_bytes as f64);
    r.count("g.frames", calls.len() as f64);

    if plan.traced {
        r.samples.insert("eval_us".into(), lat.clone());
        // Compile cost, measured on an arena of the benchmark's own that
        // interns the same formulas in the same order as the artifact's.
        let arena = FormulaArena::new();
        for call in &calls {
            let members: Vec<Formula> = match call {
                Call::Sat(f) => vec![f.clone()],
                Call::Family(a, alphas, f) => {
                    alphas.iter().map(|&al| f.clone().pr_ge(*a, al)).collect()
                }
            };
            let t = Instant::now();
            for m in &members {
                std::hint::black_box(arena.compile(m));
            }
            r.sample("compile_us", us(t.elapsed()));
        }
    }
    r.samples.insert("lat_us".into(), lat);
    Ok(())
}

/// One timed session's measurements.
struct SessionRun {
    index: usize,
    total_us: f64,
    hello_us: f64,
    load_us: f64,
    query_us: f64,
    size: (i64, i64),
    reply: Result<Vec<Value>, String>,
}

fn one_session(addr: SocketAddr, target: &Target, batch: &[QueryItem], index: usize) -> SessionRun {
    let t0 = Instant::now();
    let mut run = SessionRun {
        index,
        total_us: 0.0,
        hello_us: 0.0,
        load_us: 0.0,
        query_us: 0.0,
        size: (0, 0),
        reply: Err("not sent".into()),
    };
    let result = (|| -> Result<Vec<Value>, ClientError> {
        let opened = open(addr, target)?;
        run.hello_us = opened.hello_us;
        run.load_us = opened.load_us;
        run.size = opened.size;
        let mut client = opened.client;
        let t = Instant::now();
        let rows = client.query(batch)?;
        run.query_us = us(t.elapsed());
        client.bye()?;
        Ok(rows)
    })();
    run.total_us = us(t0.elapsed());
    run.reply = result.map_err(|e| e.to_string());
    run
}

fn session_churn(plan: &Plan, r: &mut Report) -> Result<(), String> {
    let t0 = Instant::now();
    let mut server = Server::bind(ServeConfig::default()).map_err(|e| e.to_string())?;
    let addr = server.local_addr();
    for &p in &plan.preload {
        if let Target::Named { system, assignment } = &plan.targets[p] {
            server.shared().preload(system, assignment)?;
        }
    }
    r.setup_s = t0.elapsed().as_secs_f64();

    let batches: Vec<Vec<QueryItem>> = plan
        .sessions
        .iter()
        .map(|(_, b)| batch_of(plan, b))
        .collect();
    let window = plan.traced.then(Window::open);
    let proc0 = proc_counts(&server);
    let resident = server.shared().artifacts_resident_bytes();
    let start = Instant::now();
    let mut runs: Vec<SessionRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CHURN_CONNECTIONS)
            .map(|c| {
                let (plan, batches) = (&plan, &batches);
                scope.spawn(move || {
                    (c..plan.sessions.len())
                        .step_by(CHURN_CONNECTIONS)
                        .map(|k| {
                            one_session(addr, &plan.targets[plan.sessions[k].0], &batches[k], k)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("session thread panicked"))
            .collect()
    });
    r.timed_s = start.elapsed().as_secs_f64();
    r.rss_kb = status_kb("VmHWM:");
    r.items = batches.iter().map(|b| b.len() as u64).sum();
    if let Some(w) = window {
        w.close(r);
    }
    let proc1 = proc_counts(&server);
    r.count("p.artifact_hits", (proc1.0 - proc0.0) as f64);
    r.count("p.artifact_builds", (proc1.1 - proc0.1) as f64);
    r.count(
        "g.memo_bytes",
        server
            .shared()
            .artifacts_resident_bytes()
            .saturating_sub(resident) as f64,
    );
    runs.sort_by_key(|s| s.index);
    for run in &runs {
        let frame = &plan.sessions[run.index].1;
        score(plan, r, frame, run.index, &batches[run.index], &run.reply);
    }
    r.samples
        .insert("lat_us".into(), runs.iter().map(|s| s.total_us).collect());

    let sizes: BTreeSet<(i64, i64)> = runs.iter().map(|s| s.size).collect();
    if let (Some(lo), Some(hi)) = (sizes.first(), sizes.last()) {
        r.info("points", format!("{}..{}", lo.0, hi.0));
        r.info("words_per_set", format!("{}..{}", lo.1, hi.1));
    }

    if plan.traced {
        let distinct: BTreeSet<usize> = plan.sessions.iter().map(|(t, _)| *t).collect();
        let systems = catalog_builds(plan, &distinct, r)?;
        let hello = hello_handle_us(&server);
        let mut seen: BTreeSet<usize> = plan.preload.iter().copied().collect();
        for run in &runs {
            let target = plan.sessions[run.index].0;
            r.sample("accept_wait_us", run.hello_us - hello);
            let class = if seen.insert(target) {
                "load_build_us"
            } else {
                "load_hit_us"
            };
            r.sample(class, run.load_us);
            r.sample("load_us", run.load_us);
            r.sample("query_rt_us", run.query_us);
            let mut session = replay_session(&server, &plan.targets[target])?;
            let stages = replay_frame(
                &mut session,
                &systems[&target],
                run.index as i64,
                &batches[run.index],
                r,
            )?;
            r.sample("transport_us", run.query_us - stages);
        }
        let popular: Vec<&QueryKind> = plan
            .items
            .values()
            .filter(|i| i.target == 0)
            .map(|i| &i.kind)
            .collect();
        shadow_artifact(&plan.targets[0], &popular, r)?;
        let resident = server.shared().artifacts_resident_bytes();
        r.count("g.artifacts_resident_bytes", resident as f64);
    }
    server.shutdown();
    Ok(())
}

fn proc_counts(server: &Server) -> (u64, u64) {
    let proc = server.shared().proc();
    (
        proc.counter("proc.artifact_hits").get(),
        proc.counter("proc.artifact_builds").get(),
    )
}
