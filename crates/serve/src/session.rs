//! Per-connection session state and request execution.
//!
//! A *session* is what one connection accumulates: a pinned model
//! (after a successful `load`) and an always-on [`Scope`] of metrics.
//! Sessions execute decoded [`Request`]s against shared process
//! state and produce wire frames; they know nothing about sockets —
//! the server layer owns framing and timeouts, the loopback tests
//! drive sessions through real sockets, and the unit tests here
//! drive them directly.
//!
//! # Artifact sharing
//!
//! Models are expensive to build and cheap to share: `load` resolves
//! its `(system, assignment)` pair to a canonical key — from the
//! request alone, before building anything — and consults a
//! process-wide [`ShardMap`] of [`ModelArtifact`]s. Two sessions
//! pinning the same pair share one artifact — and therefore one set
//! of warmed memo tables; the differential suite leans on this to
//! check that memo sharing never changes answers. Only a miss builds
//! the system and assignment, *outside* the shard lock (first insert
//! wins), matching the map's contract.
//!
//! # Batch semantics
//!
//! A `query` batch is all-or-nothing: items are validated and
//! evaluated in order, and the first failure turns the whole frame
//! into one recoverable error naming the offending item. Partial
//! results never ship — a client that sees `"ok": true` may assume
//! every item evaluated.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use kpa_assign::{Assignment, ShardMap};
use kpa_logic::{parse_in, ModelArtifact};
use kpa_measure::Rat;
use kpa_system::{PointId, System, TreeId};
use kpa_trace::Scope;

use crate::catalog;
use crate::json::{obj, Value};
use crate::proto::{codes, ok_frame, words_to_value, Envelope, ProtoError, QueryKind, Request};

/// Process-wide state shared by every session of one server.
#[derive(Debug)]
pub struct SharedState {
    /// The artifact cache: canonical `(system, assignment)` key →
    /// shared immutable model.
    artifacts: ShardMap<String, Arc<ModelArtifact>>,
    /// Process-wide metrics (always on, unlike the `KPA_TRACE`-gated
    /// global registry).
    proc: Scope,
    /// Session id allocator.
    next_session: AtomicU64,
}

impl SharedState {
    /// Fresh shared state for one server instance.
    #[must_use]
    pub fn new() -> SharedState {
        SharedState {
            artifacts: ShardMap::new("serve.artifacts"),
            proc: Scope::new("kpa-serve.process"),
            next_session: AtomicU64::new(1),
        }
    }

    /// The process-wide metric scope.
    #[must_use]
    pub fn proc(&self) -> &Scope {
        &self.proc
    }

    /// Number of distinct artifacts resident in the cache — the
    /// `serve.artifacts_resident` gauge. The cache never evicts, so
    /// resident == built-so-far.
    #[must_use]
    pub fn artifact_count(&self) -> usize {
        self.artifacts.len()
    }

    /// Approximate bytes held by resident artifacts (point sets plus
    /// memo tables, via [`ModelArtifact::approx_resident_bytes`]) —
    /// the `serve.artifacts_resident_bytes` gauge. A point-in-time
    /// fold over the cache; diagnostics, not a ledger.
    #[must_use]
    pub fn artifacts_resident_bytes(&self) -> u64 {
        self.artifacts.fold(0u64, |acc, _key, artifact| {
            acc + artifact.approx_resident_bytes()
        })
    }

    /// Builds a catalog system into the artifact cache ahead of any
    /// client (`kpa-serve --preload`), returning the canonical key it
    /// is resident under. Uses the same key scheme as `load`, so the
    /// first client to pin the pair scores a cache hit.
    ///
    /// # Errors
    ///
    /// Unknown catalog names, bad assignment specs, and evaluation
    /// failures while warming the all-points set, as strings.
    pub fn preload(&self, system: &str, assignment: &str) -> Result<String, String> {
        let key = format!("name:{system};assign:{assignment}");
        let artifact = self.artifact(&key, || {
            let sys = catalog::build_system(system)?;
            let assign = catalog::build_assignment(assignment, &sys)?;
            Ok::<_, String>((sys, assign))
        })?;
        artifact
            .ctx()
            .sat(&kpa_logic::Formula::True)
            .map_err(|e| e.to_string())?;
        Ok(key)
    }

    /// Resolve-or-build an artifact for a canonical key: a hit returns
    /// the resident artifact without calling `build`; a miss builds
    /// the system and assignment with it.
    fn artifact<E>(
        &self,
        key: &str,
        build: impl FnOnce() -> Result<(System, Assignment), E>,
    ) -> Result<Arc<ModelArtifact>, E> {
        let key = key.to_string();
        if let Some(a) = self.artifacts.get(&key) {
            self.proc.counter("proc.artifact_hits").add(1);
            return Ok(a);
        }
        let (sys, assignment) = build()?;
        self.proc.counter("proc.artifact_builds").add(1);
        let built = Arc::new(ModelArtifact::new(Arc::new(sys), assignment));
        Ok(self.artifacts.insert_or_get(key, built))
    }
}

impl Default for SharedState {
    fn default() -> Self {
        SharedState::new()
    }
}

/// A pinned model: the artifact plus the key it was resolved from.
#[derive(Debug, Clone)]
struct Pinned {
    key: String,
    artifact: Arc<ModelArtifact>,
}

/// What the server should do with the connection after a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum After {
    /// Keep reading frames.
    Continue,
    /// Close the connection (clean `bye` or a fatal error).
    Close,
}

/// One connection's protocol state.
#[derive(Debug)]
pub struct Session {
    /// Monotonic per-server session id (1-based).
    id: u64,
    scope: Scope,
    pinned: Option<Pinned>,
    shared: Arc<SharedState>,
}

impl Session {
    /// Opens a session against shared server state.
    #[must_use]
    pub fn open(shared: Arc<SharedState>) -> Session {
        let id = shared.next_session.fetch_add(1, Ordering::Relaxed);
        shared.proc.counter("proc.sessions").add(1);
        Session {
            id,
            scope: Scope::new(format!("kpa-serve.session.{id}")),
            pinned: None,
            shared,
        }
    }

    /// This session's id.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// This session's metric scope (the server records frame
    /// latencies into it).
    #[must_use]
    pub fn scope(&self) -> &Scope {
        &self.scope
    }

    /// Executes one decoded request, returning the response frame and
    /// what to do with the connection afterwards. Errors are returned
    /// as frames too — the caller never sees a `Result`.
    pub fn handle(&mut self, env: &Envelope) -> (Value, After) {
        self.scope.counter("session.requests").add(1);
        self.shared.proc.counter("proc.requests").add(1);
        let outcome = self.dispatch(env);
        match outcome {
            Ok(frame) => {
                let after = if matches!(env.req, Request::Bye) {
                    After::Close
                } else {
                    After::Continue
                };
                (frame, after)
            }
            Err(e) => {
                self.scope.counter("session.errors").add(1);
                self.shared.proc.counter("proc.errors").add(1);
                let after = if e.fatal {
                    After::Close
                } else {
                    After::Continue
                };
                (e.frame(env.id), after)
            }
        }
    }

    fn dispatch(&mut self, env: &Envelope) -> Result<Value, ProtoError> {
        match &env.req {
            Request::Hello => Ok(ok_frame(
                "hello",
                env.id,
                vec![
                    ("proto", Value::Int(crate::proto::PROTO_VERSION)),
                    (
                        "server",
                        Value::Str(format!("kpa-serve/{}", env!("CARGO_PKG_VERSION"))),
                    ),
                    ("session", Value::Int(self.id as i64)),
                ],
            )),
            Request::Load {
                system,
                spec,
                assignment,
            } => self.load(env.id, system.as_deref(), spec.as_ref(), assignment),
            Request::Query { items } => self.query(env.id, items),
            Request::Stats => Ok(self.stats(env.id)),
            Request::Metrics { text } => Ok(self.metrics(env.id, *text)),
            Request::Unload => {
                self.pinned = None;
                Ok(ok_frame("unload", env.id, vec![]))
            }
            Request::Bye => Ok(ok_frame("bye", env.id, vec![])),
        }
    }

    fn load(
        &mut self,
        id: Option<i64>,
        system: Option<&str>,
        spec: Option<&catalog::SystemSpec>,
        assignment: &str,
    ) -> Result<Value, ProtoError> {
        let key_sys = match (system, spec) {
            (Some(name), None) => format!("name:{name}"),
            (None, Some(spec)) => format!("spec:{}", crate::proto::spec_to_value(spec).to_json()),
            // decode() enforces exactly-one; unreachable over the wire.
            _ => {
                return Err(ProtoError::recoverable(
                    codes::BAD_REQUEST,
                    "load takes exactly one of \"system\" or \"spec\"",
                ))
            }
        };
        let key = format!("{key_sys};assign:{assignment}");
        let artifact = self.shared.artifact(&key, || {
            let sys = match spec {
                Some(spec) => catalog::spec_system(spec)?,
                None => catalog::build_system(system.unwrap_or_default())
                    .map_err(|m| ProtoError::recoverable(codes::UNKNOWN_SYSTEM, m))?,
            };
            let assign = catalog::build_assignment(assignment, &sys).map_err(|m| {
                let code = if assignment.starts_with("opp:") {
                    codes::UNKNOWN_AGENT
                } else {
                    codes::BAD_REQUEST
                };
                ProtoError::recoverable(code, m)
            })?;
            Ok((sys, assign))
        })?;
        let sys = artifact.system();
        let agents: Vec<Value> = (0..sys.agent_count())
            .map(|a| Value::Str(sys.agent_name(kpa_system::AgentId(a)).to_string()))
            .collect();
        let trees = sys.tree_count();
        let horizon = sys.horizon();
        let points = artifact
            .ctx()
            .sat(&kpa_logic::Formula::True)
            .map_err(|e| ProtoError::recoverable(codes::EVAL_ERROR, e.to_string()))?;
        self.scope.counter("session.loads").add(1);
        self.pinned = Some(Pinned {
            key: key.clone(),
            artifact,
        });
        Ok(ok_frame(
            "load",
            id,
            vec![
                ("key", Value::Str(key)),
                ("agents", Value::Arr(agents)),
                ("trees", Value::Int(trees as i64)),
                ("horizon", Value::Int(horizon as i64)),
                ("points", Value::Int(points.len() as i64)),
                ("words", Value::Int(points.as_words().len() as i64)),
            ],
        ))
    }

    fn query(
        &mut self,
        id: Option<i64>,
        items: &[crate::proto::QueryItem],
    ) -> Result<Value, ProtoError> {
        let pinned = self.pinned.as_ref().ok_or_else(|| {
            ProtoError::recoverable(codes::NO_SYSTEM, "no model pinned; send a \"load\" first")
        })?;
        let artifact = Arc::clone(&pinned.artifact);
        let sys = artifact.system();
        let ctx = artifact.ctx();
        // Hand the server-minted frame trace id (ambient on this
        // thread) to the evaluation context, so spans recorded deep in
        // the kernel stitch into this request's tree.
        ctx.set_trace_id(kpa_trace::current_trace_id());
        self.scope.record("session.batch_len", items.len() as u64);
        let start = std::time::Instant::now();
        let mut rows = Vec::with_capacity(items.len());
        for (index, item) in items.iter().enumerate() {
            let row = eval_item(&ctx, sys, &item.kind).map_err(|e| ProtoError {
                message: format!("query[{index}] (id {}): {}", item.id, e.message),
                ..e
            })?;
            let mut fields = vec![("id", Value::Int(item.id))];
            fields.extend(row);
            rows.push(obj_from(fields));
        }
        let elapsed = start.elapsed().as_nanos() as u64;
        self.scope.record_windowed("session.query_ns", elapsed);
        self.shared.proc.record_windowed("proc.query_ns", elapsed);
        self.scope
            .counter("session.queries")
            .add(items.len() as u64);
        self.shared
            .proc
            .counter("proc.queries")
            .add(items.len() as u64);
        Ok(ok_frame("query", id, vec![("results", Value::Arr(rows))]))
    }

    fn stats(&self, id: Option<i64>) -> Value {
        let pinned = match &self.pinned {
            Some(p) => Value::Str(p.key.clone()),
            None => Value::Null,
        };
        // The items this session has answered (across every artifact
        // it pinned), i.e. its `session.queries` counter.
        let queries = self.scope.counter("session.queries").get();
        ok_frame(
            "stats",
            id,
            vec![
                ("session", report_value(&self.scope.snapshot())),
                ("process", report_value(&self.shared.proc.snapshot())),
                ("artifacts", Value::Int(self.shared.artifact_count() as i64)),
                ("pinned", pinned),
                ("ctx_queries", Value::Int(queries as i64)),
            ],
        )
    }

    /// The schema-v2 telemetry snapshot: cumulative + windowed metric
    /// reports, the top span sites (global, populated only under
    /// `KPA_TRACE=1`), and artifact-cache occupancy gauges. With
    /// `text` the same data is flattened into `name value` exposition
    /// lines for scraping.
    fn metrics(&self, id: Option<i64>, text: bool) -> Value {
        let session = self.scope.snapshot();
        let process = self.shared.proc.snapshot();
        let (records, dropped) = kpa_trace::snapshot_span_records();
        let sites = kpa_trace::span_site_stats(&records);
        let resident = self.shared.artifact_count() as u64;
        let resident_bytes = self.shared.artifacts_resident_bytes();
        if text {
            let body = exposition(&process, &sites, dropped, resident, resident_bytes);
            return ok_frame(
                "metrics",
                id,
                vec![
                    ("schema", Value::Int(2)),
                    ("format", Value::Str("text".into())),
                    ("text", Value::Str(body)),
                ],
            );
        }
        let top_sites: Value = Value::Obj(
            sites
                .iter()
                .take(TOP_SPAN_SITES)
                .map(|s| {
                    (
                        s.site.to_string(),
                        obj([
                            ("count", Value::Int(s.count as i64)),
                            ("total_ns", Value::Int(s.total_ns as i64)),
                            ("max_ns", Value::Int(s.max_ns as i64)),
                        ]),
                    )
                })
                .collect(),
        );
        ok_frame(
            "metrics",
            id,
            vec![
                ("schema", Value::Int(2)),
                ("session", report_value(&session)),
                ("process", report_value(&process)),
                (
                    "spans",
                    obj([
                        ("dropped", Value::Int(dropped as i64)),
                        ("sites", top_sites),
                    ]),
                ),
                ("artifacts_resident", Value::Int(resident as i64)),
                (
                    "artifacts_resident_bytes",
                    Value::Int(resident_bytes as i64),
                ),
            ],
        )
    }
}

/// How many span sites the structured `metrics` frame carries (the
/// hottest by total time; the text exposition carries them all).
const TOP_SPAN_SITES: usize = 8;

/// Flattens the process report into scrape-friendly `name value`
/// lines: counters verbatim, cumulative histograms as
/// `hist.<name>.{count,p50,p99}`, windowed ones as
/// `win.<name>.{count,p50,p99}`, span sites as
/// `span.<site>.{count,total_ns,max_ns}`, plus the occupancy gauges.
fn exposition(
    report: &kpa_trace::TraceReport,
    sites: &[kpa_trace::SpanSiteStat],
    spans_dropped: u64,
    resident: u64,
    resident_bytes: u64,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "serve.artifacts_resident {resident}");
    let _ = writeln!(out, "serve.artifacts_resident_bytes {resident_bytes}");
    for (name, v) in &report.counters {
        let _ = writeln!(out, "counter.{name} {v}");
    }
    for (name, h) in &report.histograms {
        let _ = writeln!(out, "hist.{name}.count {}", h.count);
        let _ = writeln!(out, "hist.{name}.p50 {}", h.p50().unwrap_or(0));
        let _ = writeln!(out, "hist.{name}.p99 {}", h.p99().unwrap_or(0));
    }
    for (name, w) in &report.windowed {
        let _ = writeln!(out, "win.{name}.count {}", w.count);
        let _ = writeln!(out, "win.{name}.p50 {}", w.p50.unwrap_or(0));
        let _ = writeln!(out, "win.{name}.p99 {}", w.p99.unwrap_or(0));
    }
    let _ = writeln!(out, "spans.dropped {spans_dropped}");
    for s in sites {
        let _ = writeln!(out, "span.{}.count {}", s.site, s.count);
        let _ = writeln!(out, "span.{}.total_ns {}", s.site, s.total_ns);
        let _ = writeln!(out, "span.{}.max_ns {}", s.site, s.max_ns);
    }
    out
}

impl Drop for Session {
    fn drop(&mut self) {
        self.shared.proc.counter("proc.sessions_closed").add(1);
    }
}

fn obj_from(fields: Vec<(&str, Value)>) -> Value {
    let mut m = std::collections::BTreeMap::new();
    for (k, v) in fields {
        m.insert(k.to_string(), v);
    }
    Value::Obj(m)
}

/// Renders a [`kpa_trace::TraceReport`] as a wire value: counters
/// verbatim, histograms as `{count, min, max, p50, p99}` rows (the
/// p50/p99 are log₂-bucket floors — deterministic lower bounds), and
/// windowed histograms as `{count, sum, p50, p99}` over the last
/// rolling window.
#[must_use]
pub fn report_value(report: &kpa_trace::TraceReport) -> Value {
    let counters = Value::Obj(
        report
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), Value::Int(*v as i64)))
            .collect(),
    );
    let histograms = Value::Obj(
        report
            .histograms
            .iter()
            .map(|(k, h)| {
                let opt = |o: Option<u64>| match o {
                    Some(v) => Value::Int(v as i64),
                    None => Value::Null,
                };
                (
                    k.clone(),
                    obj([
                        ("count", Value::Int(h.count as i64)),
                        ("min", opt(h.min)),
                        ("max", opt(h.max)),
                        ("p50", opt(h.p50())),
                        ("p99", opt(h.p99())),
                    ]),
                )
            })
            .collect(),
    );
    let opt = |o: Option<u64>| match o {
        Some(v) => Value::Int(v as i64),
        None => Value::Null,
    };
    let windowed = Value::Obj(
        report
            .windowed
            .iter()
            .map(|(k, w)| {
                (
                    k.clone(),
                    obj([
                        ("count", Value::Int(w.count as i64)),
                        ("sum", Value::Int(w.sum as i64)),
                        ("p50", opt(w.p50)),
                        ("p99", opt(w.p99)),
                    ]),
                )
            })
            .collect(),
    );
    obj([
        ("counters", counters),
        ("histograms", histograms),
        ("windowed", windowed),
    ])
}

/// Evaluates one query item, returning its result fields (without the
/// echoed id).
fn eval_item(
    ctx: &kpa_logic::EvalCtx<'_>,
    sys: &Arc<System>,
    kind: &QueryKind,
) -> Result<Vec<(&'static str, Value)>, ProtoError> {
    let parse = |src: &str| {
        parse_in(src, sys).map_err(|e| ProtoError::recoverable(codes::PARSE_ERROR, e.to_string()))
    };
    let agent_id = |name: &str| {
        sys.agent_id(name).ok_or_else(|| {
            ProtoError::recoverable(codes::UNKNOWN_AGENT, format!("unknown agent {name:?}"))
        })
    };
    let point = |p: (usize, usize, usize)| {
        catalog::point_in(sys, p.0, p.1, p.2)
            .map_err(|m| ProtoError::recoverable(codes::BAD_REQUEST, m))
    };
    let eval = |e: kpa_logic::LogicError| ProtoError::recoverable(codes::EVAL_ERROR, e.to_string());
    match kind {
        QueryKind::Sat { formula } => {
            let set = ctx.sat(&parse(formula)?).map_err(eval)?;
            Ok(vec![
                ("count", Value::Int(set.len() as i64)),
                ("words", words_to_value(set.as_words())),
            ])
        }
        QueryKind::Holds { formula, point: p } => {
            let holds = ctx.holds_at(&parse(formula)?, point(*p)?).map_err(eval)?;
            Ok(vec![("holds", Value::Bool(holds))])
        }
        QueryKind::Everywhere { formula } => {
            let holds = ctx.holds_everywhere(&parse(formula)?).map_err(eval)?;
            Ok(vec![("holds", Value::Bool(holds))])
        }
        QueryKind::Knows { agent, formula } => {
            let sat = ctx.sat(&parse(formula)?).map_err(eval)?;
            let set = ctx.knows_set(agent_id(agent)?, &sat);
            Ok(vec![
                ("count", Value::Int(set.len() as i64)),
                ("words", words_to_value(set.as_words())),
            ])
        }
        QueryKind::PrGe {
            agent,
            alpha,
            formula,
        } => {
            let sat = ctx.sat(&parse(formula)?).map_err(eval)?;
            let set = ctx
                .pr_ge_set(agent_id(agent)?, *alpha, &sat)
                .map_err(eval)?;
            Ok(vec![
                ("count", Value::Int(set.len() as i64)),
                ("words", words_to_value(set.as_words())),
            ])
        }
        QueryKind::PrGeFamily {
            agent,
            alphas,
            formula,
        } => {
            let sets = ctx
                .pr_ge_family(agent_id(agent)?, alphas, &parse(formula)?)
                .map_err(eval)?;
            let counts = sets.iter().map(|s| Value::Int(s.len() as i64)).collect();
            let words = sets.iter().map(|s| words_to_value(s.as_words())).collect();
            Ok(vec![
                ("counts", Value::Arr(counts)),
                ("sets", Value::Arr(words)),
            ])
        }
        QueryKind::Interval {
            agent,
            point: p,
            formula,
        } => {
            let f = parse(formula)?;
            let (lo, hi) = ctx
                .prob_interval(agent_id(agent)?, point(*p)?, &f)
                .map_err(eval)?;
            Ok(vec![
                ("lo", Value::Str(lo.to_string())),
                ("hi", Value::Str(hi.to_string())),
            ])
        }
    }
}

/// Validates a `(tree, run, time)` triple (re-exported for the server
/// and tests).
#[allow(dead_code)]
fn point_id(tree: usize, run: usize, time: usize) -> PointId {
    PointId {
        tree: TreeId(tree),
        run,
        time,
    }
}

/// Convenience: the threshold family `{0, 1/4, 1/2, 3/4, 1}` the soak
/// bench and tests sweep.
#[must_use]
pub fn standard_alphas() -> Vec<Rat> {
    vec![
        Rat::ZERO,
        Rat::new(1, 4),
        Rat::new(1, 2),
        Rat::new(3, 4),
        Rat::ONE,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse as jparse;
    use crate::proto::{decode, QueryItem};

    fn env(line: &str) -> Envelope {
        decode(&jparse(line).unwrap(), 64).unwrap()
    }

    fn session() -> Session {
        Session::open(Arc::new(SharedState::new()))
    }

    #[test]
    fn a_cache_hit_runs_no_build() {
        let shared = SharedState::new();
        let key = "name:secret-coin;assign:post";
        let builds = std::cell::Cell::new(0);
        let build = || {
            builds.set(builds.get() + 1);
            let sys = catalog::build_system("secret-coin")?;
            let assign = catalog::build_assignment("post", &sys)?;
            Ok::<_, String>((sys, assign))
        };
        let first = shared.artifact(key, build).unwrap();
        let second = shared
            .artifact(key, || -> Result<(System, Assignment), String> {
                panic!("a cache hit must not build")
            })
            .unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(builds.get(), 1);
        assert_eq!(shared.proc.counter("proc.artifact_hits").get(), 1);
        assert_eq!(shared.proc.counter("proc.artifact_builds").get(), 1);
    }

    #[test]
    fn a_load_hit_answers_like_the_build() {
        let shared = Arc::new(SharedState::new());
        let load = r#"{"v":1,"op":"load","system":"async-coins:3","assignment":"post"}"#;
        let (built, _) = Session::open(Arc::clone(&shared)).handle(&env(load));
        let (hit, _) = Session::open(Arc::clone(&shared)).handle(&env(load));
        assert!(
            built.to_json().contains("\"ok\":true"),
            "{}",
            built.to_json()
        );
        assert_eq!(hit.to_json(), built.to_json());
        assert_eq!(shared.proc.counter("proc.artifact_hits").get(), 1);
        // A failed build caches nothing: the retry builds (and fails) again.
        let bad = r#"{"v":1,"op":"load","system":"secret-coin","assignment":"opp:nobody"}"#;
        for _ in 0..2 {
            let (frame, after) = Session::open(Arc::clone(&shared)).handle(&env(bad));
            assert_eq!(after, After::Continue);
            assert!(frame.to_json().contains("\"error\":\"unknown_agent\""));
        }
        assert_eq!(shared.artifact_count(), 1);
    }

    #[test]
    fn query_before_load_is_no_system() {
        let mut s = session();
        let (frame, after) = s.handle(&env(
            r#"{"v":1,"op":"query","queries":[{"kind":"sat","formula":"c=h"}]}"#,
        ));
        assert_eq!(after, After::Continue);
        assert!(frame.to_json().contains("\"error\":\"no_system\""));
    }

    #[test]
    fn load_then_query_round_trip() {
        let mut s = session();
        let (frame, _) = s.handle(&env(
            r#"{"v":1,"op":"load","system":"secret-coin","assignment":"post"}"#,
        ));
        let text = frame.to_json();
        assert!(text.contains("\"ok\":true"), "{text}");
        assert!(text.contains("\"agents\":[\"p1\",\"p2\",\"p3\"]"), "{text}");

        let (frame, after) = s.handle(&env(r#"{"v":1,"op":"query","id":5,"queries":[
                {"id":1,"kind":"sat","formula":"c=h"},
                {"id":2,"kind":"holds","formula":"K{p3} c=h","point":[0,0,1]},
                {"id":3,"kind":"everywhere","formula":"c=h | !c=h"},
                {"id":4,"kind":"knows","agent":"p3","formula":"c=h"},
                {"id":5,"kind":"pr_ge","agent":"p1","alpha":"1/2","formula":"c=h"},
                {"id":6,"kind":"interval","agent":"p1","point":[0,0,1],"formula":"c=h"}
            ]}"#));
        assert_eq!(after, After::Continue);
        let text = frame.to_json();
        assert!(text.contains("\"ok\":true"), "{text}");
        assert!(text.contains("\"id\":5"), "{text}");
        assert!(text.contains("\"holds\":true"), "{text}");
        assert!(text.contains("\"lo\":\"1/2\""), "{text}");
        assert!(text.contains("\"hi\":\"1/2\""), "{text}");
    }

    #[test]
    fn pr_ge_family_matches_serial_pr_ge() {
        let mut s = session();
        s.handle(&env(
            r#"{"v":1,"op":"load","system":"secret-coin","assignment":"post"}"#,
        ));
        let (frame, _) = s.handle(&env(
            r#"{"v":1,"op":"query","queries":[{"kind":"pr_ge_family","agent":"p1","alphas":["1/4","1/2","3/4","1"],"formula":"c=h"}]}"#,
        ));
        let family = frame.to_json();
        assert!(family.contains("\"ok\":true"), "{family}");
        assert!(family.contains("\"counts\":["), "{family}");
        for alpha in ["1/4", "1/2", "3/4", "1"] {
            let (frame, _) = s.handle(&env(&format!(
                r#"{{"v":1,"op":"query","queries":[{{"kind":"pr_ge","agent":"p1","alpha":"{alpha}","formula":"c=h"}}]}}"#,
            )));
            let serial = frame.to_json();
            // The serial frame's word array must appear verbatim in the
            // family frame's `sets` — bit-identical payloads.
            let words = serial
                .split("\"words\":")
                .nth(1)
                .and_then(|rest| rest.split(']').next())
                .map(|w| format!("{w}]"))
                .expect("serial pr_ge frame carries words");
            assert!(family.contains(&words), "{family} missing {words}");
        }
    }

    #[test]
    fn artifacts_are_shared_between_sessions() {
        let shared = Arc::new(SharedState::new());
        let mut a = Session::open(Arc::clone(&shared));
        let mut b = Session::open(Arc::clone(&shared));
        let line = r#"{"v":1,"op":"load","system":"die","assignment":"post"}"#;
        a.handle(&env(line));
        b.handle(&env(line));
        assert_eq!(shared.artifact_count(), 1);
        assert_eq!(shared.proc().counter("proc.artifact_builds").get(), 1);
        assert_eq!(shared.proc().counter("proc.artifact_hits").get(), 1);
    }

    #[test]
    fn recoverable_errors_keep_the_session() {
        let mut s = session();
        s.handle(&env(
            r#"{"v":1,"op":"load","system":"secret-coin","assignment":"post"}"#,
        ));
        for (line, code) in [
            (
                r#"{"v":1,"op":"query","queries":[{"kind":"sat","formula":"(("}]}"#,
                "parse_error",
            ),
            (
                r#"{"v":1,"op":"query","queries":[{"kind":"knows","agent":"zz","formula":"c=h"}]}"#,
                "unknown_agent",
            ),
            (
                r#"{"v":1,"op":"query","queries":[{"kind":"holds","formula":"c=h","point":[9,0,0]}]}"#,
                "bad_request",
            ),
            (
                r#"{"v":1,"op":"load","system":"nope","assignment":"post"}"#,
                "unknown_system",
            ),
            (
                r#"{"v":1,"op":"load","system":"die","assignment":"opp:zz"}"#,
                "unknown_agent",
            ),
        ] {
            let (frame, after) = s.handle(&env(line));
            assert_eq!(after, After::Continue, "{line}");
            let text = frame.to_json();
            assert!(text.contains(&format!("\"error\":\"{code}\"")), "{text}");
        }
        // The pinned model survived all of that.
        let (frame, _) = s.handle(&env(
            r#"{"v":1,"op":"query","queries":[{"kind":"sat","formula":"c=h"}]}"#,
        ));
        assert!(frame.to_json().contains("\"ok\":true"));
    }

    #[test]
    fn stats_report_scoped_metrics() {
        let mut s = session();
        s.handle(&env(
            r#"{"v":1,"op":"load","system":"secret-coin","assignment":"post"}"#,
        ));
        s.handle(&env(
            r#"{"v":1,"op":"query","queries":[{"kind":"sat","formula":"c=h"}]}"#,
        ));
        s.handle(&env(
            r#"{"v":1,"op":"query","queries":[{"kind":"sat","formula":"c=t"},{"kind":"sat","formula":"true"}]}"#,
        ));
        let (frame, _) = s.handle(&env(r#"{"v":1,"op":"stats"}"#));
        assert_eq!(frame.get("ctx_queries").and_then(Value::as_int), Some(3));
        let text = frame.to_json();
        assert!(text.contains("\"session.queries\":3"), "{text}");
        assert!(text.contains("\"session.loads\":1"), "{text}");
        assert!(text.contains("\"session.query_ns\""), "{text}");
        assert!(text.contains("\"p50\""), "{text}");
        assert!(text.contains("\"p99\""), "{text}");
        assert!(text.contains("\"artifacts\":1"), "{text}");
    }

    #[test]
    fn metrics_reports_schema_v2() {
        let mut s = session();
        s.handle(&env(
            r#"{"v":1,"op":"load","system":"secret-coin","assignment":"post"}"#,
        ));
        s.handle(&env(
            r#"{"v":1,"op":"query","queries":[{"kind":"sat","formula":"c=h"}]}"#,
        ));
        let (frame, after) = s.handle(&env(r#"{"v":1,"op":"metrics","id":9}"#));
        assert_eq!(after, After::Continue);
        let text = frame.to_json();
        assert!(text.contains("\"ok\":true"), "{text}");
        assert!(text.contains("\"id\":9"), "{text}");
        assert!(text.contains("\"schema\":2"), "{text}");
        assert!(text.contains("\"windowed\""), "{text}");
        // Rolling recording fed the window: the query just ran, so
        // proc.query_ns has in-window samples with quantiles.
        assert!(text.contains("\"proc.query_ns\":{\"count\":1"), "{text}");
        assert!(text.contains("\"spans\":{\"dropped\":"), "{text}");
        assert!(text.contains("\"artifacts_resident\":1"), "{text}");
        assert!(text.contains("\"artifacts_resident_bytes\":"), "{text}");

        let (frame, _) = s.handle(&env(r#"{"v":1,"op":"metrics","format":"text"}"#));
        let text = frame.to_json();
        assert!(text.contains("\"format\":\"text\""), "{text}");
        assert!(text.contains("serve.artifacts_resident 1"), "{text}");
        assert!(text.contains("win.proc.query_ns.count 1"), "{text}");
        assert!(text.contains("counter.proc.queries 1"), "{text}");
    }

    #[test]
    fn preload_warms_the_artifact_cache() {
        let shared = Arc::new(SharedState::new());
        let key = shared.preload("die", "post").expect("preload die");
        assert_eq!(key, "name:die;assign:post");
        assert_eq!(shared.artifact_count(), 1);
        assert!(shared.artifacts_resident_bytes() > 0);
        // The first client load of the same pair is a cache hit.
        let mut s = Session::open(Arc::clone(&shared));
        let (frame, _) = s.handle(&env(
            r#"{"v":1,"op":"load","system":"die","assignment":"post"}"#,
        ));
        assert!(frame.to_json().contains("\"ok\":true"));
        assert_eq!(shared.proc().counter("proc.artifact_hits").get(), 1);
        assert_eq!(shared.proc().counter("proc.artifact_builds").get(), 1);
        // Unknown systems and assignments are reported, not built.
        assert!(shared.preload("nope", "post").is_err());
        assert!(shared.preload("die", "opp:zz").is_err());
        assert_eq!(shared.artifact_count(), 1);
    }

    #[test]
    fn batches_are_all_or_nothing() {
        let mut s = session();
        s.handle(&env(
            r#"{"v":1,"op":"load","system":"secret-coin","assignment":"post"}"#,
        ));
        let before_queries = s.scope().counter("session.queries").get();
        let (frame, _) = s.handle(&env(r#"{"v":1,"op":"query","queries":[
                {"kind":"sat","formula":"c=h"},
                {"kind":"sat","formula":"(("}
            ]}"#));
        let text = frame.to_json();
        assert!(text.contains("\"ok\":false"), "{text}");
        assert!(text.contains("query[1]"), "{text}");
        assert_eq!(s.scope().counter("session.queries").get(), before_queries);
    }

    #[test]
    fn spec_load_matches_local_build() {
        let spec = catalog::SystemSpec {
            agents: 2,
            two_adversaries: false,
            clockless_mask: 0,
            rounds: vec![catalog::SpecRound {
                bias: Rat::new(1, 2),
                observers: 0b01,
            }],
        };
        let mut s = session();
        let line = format!(
            r#"{{"v":1,"op":"load","spec":{},"assignment":"post"}}"#,
            crate::proto::spec_to_value(&spec).to_json()
        );
        let (frame, _) = s.handle(&env(&line));
        assert!(
            frame.to_json().contains("\"ok\":true"),
            "{}",
            frame.to_json()
        );
        let (frame, _) = s.handle(&env(
            r#"{"v":1,"op":"query","queries":[{"kind":"sat","formula":"c0=h"}]}"#,
        ));
        let text = frame.to_json();
        // Compare against a locally built artifact, bit for bit.
        let sys = catalog::build_spec_system(&spec).unwrap();
        let local = ModelArtifact::new(Arc::new(sys), kpa_assign::Assignment::post());
        let set = local
            .ctx()
            .sat(&parse_in("c0=h", local.system()).unwrap())
            .unwrap();
        let expected = words_to_value(set.as_words()).to_json();
        assert!(text.contains(&expected), "{text} vs {expected}");
    }

    #[test]
    fn standard_alphas_are_probabilities() {
        for a in standard_alphas() {
            assert!(a.is_probability());
        }
        let _ = QueryItem {
            id: 0,
            kind: QueryKind::Sat {
                formula: "x".into(),
            },
        };
    }
}
