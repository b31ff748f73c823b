//! Schema v1 of the kpa-serve wire protocol: typed requests,
//! response-frame builders, and the error-code vocabulary.
//!
//! # Framing
//!
//! One frame per line: a single JSON object terminated by `\n`, no
//! intra-frame newlines (the writer in [`crate::json`] never emits
//! them). Every request carries `"v": 1`; a server that sees any
//! other version answers with a fatal `bad_request` frame. Responses
//! carry `"ok": true` or `"ok": false` — nothing else distinguishes
//! success from error, so clients switch on that one key.
//!
//! # Requests
//!
//! | op       | fields                                               |
//! |----------|------------------------------------------------------|
//! | `hello`  | —                                                    |
//! | `load`   | `system` (catalog name) *or* `spec` (structural), plus `assignment` |
//! | `query`  | `queries`: array of query items (see [`QueryKind`])  |
//! | `stats`  | —                                                    |
//! | `metrics`| optional `format: "text"` for exposition lines       |
//! | `unload` | —                                                    |
//! | `bye`    | —                                                    |
//!
//! Any request may carry an integer `id`; the response echoes it.
//! Every reply additionally carries a server-minted `trace_id` (16 hex
//! digits) correlating the frame with the server's span trees; clients
//! that predate it ignore the unknown field.
//!
//! # Bit-faithful payloads
//!
//! Point-set payloads are the *words* of the underlying bitset,
//! serialized as 16-hex-digit strings (`"00000000000000a5"`). JSON
//! numbers cannot carry u64 bit patterns faithfully (readers may go
//! through f64), so hex strings are the only encoding under which
//! "server words == local words" is a meaningful bit-identity check —
//! which is exactly what `tests/serve_differential.rs` asserts.
//! Probabilities travel as exact-rational strings (`"1/3"`), never
//! floats.
//!
//! # Errors
//!
//! Error frames are `{"ok": false, "error": <code>, "message": ...,
//! "fatal": bool}`. *Recoverable* errors (unknown op, bad formula,
//! querying before a `load`) leave the connection open; *fatal* ones
//! (unparseable JSON, oversized frame, protocol-version mismatch) are
//! followed by the server closing the connection, since framing can no
//! longer be trusted. The codes live in [`codes`].

use crate::catalog::{SpecRound, SystemSpec};
use crate::json::{obj, Value};
use kpa_measure::Rat;

/// Protocol schema version spoken by this crate.
pub const PROTO_VERSION: i64 = 1;

/// The error-code vocabulary of schema v1. Codes are stable strings:
/// clients may match on them, messages are for humans only.
pub mod codes {
    /// The line was not valid JSON (fatal).
    pub const BAD_JSON: &str = "bad_json";
    /// The frame was valid JSON but not a valid request (fatal when
    /// the envelope itself is broken, e.g. wrong `v`).
    pub const BAD_REQUEST: &str = "bad_request";
    /// `op` named no known operation (recoverable).
    pub const UNKNOWN_OP: &str = "unknown_op";
    /// `query`/`unload` before any successful `load` (recoverable).
    pub const NO_SYSTEM: &str = "no_system";
    /// A formula failed to parse against the loaded system
    /// (recoverable).
    pub const PARSE_ERROR: &str = "parse_error";
    /// Evaluation failed — e.g. a probability space could not be
    /// constructed at the queried point (recoverable).
    pub const EVAL_ERROR: &str = "eval_error";
    /// The request line exceeded the server's frame limit (fatal).
    pub const FRAME_TOO_LONG: &str = "frame_too_long";
    /// The server is at its connection limit (fatal).
    pub const SERVER_BUSY: &str = "server_busy";
    /// `load` named a system the catalog does not know, or the
    /// structural spec was invalid (recoverable).
    pub const UNKNOWN_SYSTEM: &str = "unknown_system";
    /// A query named an agent the loaded system lacks (recoverable).
    pub const UNKNOWN_AGENT: &str = "unknown_agent";
    /// A threshold was not a rational in `[0, 1]` (recoverable).
    pub const BAD_ALPHA: &str = "bad_alpha";
    /// Exact rational arithmetic overflowed `i128` — e.g. a spec's
    /// run probabilities multiply past it (recoverable).
    pub const ARITH_OVERFLOW: &str = "arith_overflow";
    /// The connection sat idle past the server's timeout (fatal).
    pub const IDLE_TIMEOUT: &str = "idle_timeout";
    /// The server is shutting down (fatal).
    pub const SHUTTING_DOWN: &str = "shutting_down";
}

/// A structured protocol error: stable code, human message, and
/// whether the server must close the connection after sending it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// One of the [`codes`] constants.
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
    /// Whether the connection is unrecoverable after this error.
    pub fatal: bool,
}

impl ProtoError {
    /// A recoverable error (connection stays open).
    pub fn recoverable(code: &'static str, message: impl Into<String>) -> ProtoError {
        ProtoError {
            code,
            message: message.into(),
            fatal: false,
        }
    }

    /// A fatal error (server closes the connection after replying).
    pub fn fatal(code: &'static str, message: impl Into<String>) -> ProtoError {
        ProtoError {
            code,
            message: message.into(),
            fatal: true,
        }
    }

    /// The wire frame for this error, echoing `id` when present.
    #[must_use]
    pub fn frame(&self, id: Option<i64>) -> Value {
        let mut v = obj([
            ("ok", Value::Bool(false)),
            ("error", Value::Str(self.code.to_string())),
            ("message", Value::Str(self.message.clone())),
            ("fatal", Value::Bool(self.fatal)),
        ]);
        if let (Some(id), Value::Obj(m)) = (id, &mut v) {
            m.insert("id".to_string(), Value::Int(id));
        }
        v
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

/// What a single query item asks of the loaded model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryKind {
    /// The satisfying point set of a formula (returned as words).
    Sat {
        /// Formula source text (parsed against the loaded system).
        formula: String,
    },
    /// Truth of a formula at one point.
    Holds {
        /// Formula source text.
        formula: String,
        /// `(tree, run, time)`.
        point: (usize, usize, usize),
    },
    /// Validity: truth at every point of the system.
    Everywhere {
        /// Formula source text.
        formula: String,
    },
    /// The point set of `Kᵢ φ` (returned as words).
    Knows {
        /// Knowing agent's name.
        agent: String,
        /// Formula source text.
        formula: String,
    },
    /// The point set of `Prᵢ(φ) ≥ α` (returned as words).
    PrGe {
        /// Agent whose probability is thresholded.
        agent: String,
        /// Threshold, an exact rational in `[0, 1]`.
        alpha: Rat,
        /// Formula source text.
        formula: String,
    },
    /// A whole threshold family `Prᵢ(φ) ≥ α₁…α_k` answered by the
    /// one-sweep family evaluator: one formula, k thresholds, k point
    /// sets back (one word array per α, in `alphas` order). Additive
    /// in schema v1 — servers that predate it answer `bad_request` for
    /// the unknown kind, which clients can fall back from by issuing k
    /// serial `pr_ge` items.
    PrGeFamily {
        /// Agent whose probability is thresholded.
        agent: String,
        /// Thresholds, exact rationals in `[0, 1]`, answered in order.
        alphas: Vec<Rat>,
        /// Formula source text.
        formula: String,
    },
    /// The `(inner, outer)` probability bounds at one point.
    Interval {
        /// Agent whose probability is asked.
        agent: String,
        /// `(tree, run, time)`.
        point: (usize, usize, usize),
        /// Formula source text.
        formula: String,
    },
}

/// One item of a `query` batch: a client-chosen id plus the ask.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryItem {
    /// Client-chosen id, echoed on the matching result row.
    pub id: i64,
    /// What to evaluate.
    pub kind: QueryKind,
}

/// A decoded schema-v1 request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Version/identity handshake.
    Hello,
    /// Pin a system + assignment to the session.
    Load {
        /// Catalog name (`name[:param]`) — exclusive with `spec`.
        system: Option<String>,
        /// Structural spec — exclusive with `system`.
        spec: Option<SystemSpec>,
        /// Assignment spec (`post`, `fut`, `prior`, `opp:<agent>`).
        assignment: String,
    },
    /// Evaluate a batch of queries against the pinned model.
    Query {
        /// The batch, in submission order.
        items: Vec<QueryItem>,
    },
    /// Report per-session and process-wide metrics.
    Stats,
    /// Schema-v2 telemetry snapshot: cumulative and windowed
    /// histograms, top span sites, and artifact-cache occupancy.
    /// Additive in schema v1 — older servers answer `unknown_op`.
    Metrics {
        /// Whether the client asked for the text exposition
        /// (`"format": "text"`) instead of the structured frame.
        text: bool,
    },
    /// Unpin the session's model (the session survives).
    Unload,
    /// Close the connection cleanly.
    Bye,
}

/// A decoded request envelope: the optional echo id and the request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// The client's `id`, echoed on the response frame.
    pub id: Option<i64>,
    /// The request proper.
    pub req: Request,
}

fn need_str(v: &Value, key: &str) -> Result<String, ProtoError> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| {
            ProtoError::recoverable(codes::BAD_REQUEST, format!("missing string field {key:?}"))
        })
}

fn need_point(v: &Value) -> Result<(usize, usize, usize), ProtoError> {
    let bad = || {
        ProtoError::recoverable(
            codes::BAD_REQUEST,
            "field \"point\" must be [tree, run, time] with non-negative integers",
        )
    };
    let arr = v.get("point").and_then(Value::as_arr).ok_or_else(bad)?;
    if arr.len() != 3 {
        return Err(bad());
    }
    let part = |i: usize| -> Result<usize, ProtoError> {
        arr[i]
            .as_int()
            .and_then(|n| usize::try_from(n).ok())
            .ok_or_else(bad)
    };
    Ok((part(0)?, part(1)?, part(2)?))
}

fn need_alpha(v: &Value) -> Result<Rat, ProtoError> {
    let s = v.get("alpha").and_then(Value::as_str).ok_or_else(|| {
        ProtoError::recoverable(codes::BAD_ALPHA, "missing string field \"alpha\"")
    })?;
    let r: Rat = s
        .parse()
        .map_err(|_| ProtoError::recoverable(codes::BAD_ALPHA, format!("bad rational {s:?}")))?;
    if !r.is_probability() {
        return Err(ProtoError::recoverable(
            codes::BAD_ALPHA,
            format!("alpha {r} is not in [0, 1]"),
        ));
    }
    Ok(r)
}

fn need_alphas(v: &Value) -> Result<Vec<Rat>, ProtoError> {
    let arr = v.get("alphas").and_then(Value::as_arr).ok_or_else(|| {
        ProtoError::recoverable(codes::BAD_ALPHA, "missing array field \"alphas\"")
    })?;
    arr.iter()
        .map(|e| {
            let s = e.as_str().ok_or_else(|| {
                ProtoError::recoverable(codes::BAD_ALPHA, "alphas must be rational strings")
            })?;
            let r: Rat = s.parse().map_err(|_| {
                ProtoError::recoverable(codes::BAD_ALPHA, format!("bad rational {s:?}"))
            })?;
            if !r.is_probability() {
                return Err(ProtoError::recoverable(
                    codes::BAD_ALPHA,
                    format!("alpha {r} is not in [0, 1]"),
                ));
            }
            Ok(r)
        })
        .collect()
}

fn decode_query_item(v: &Value, index: usize) -> Result<QueryItem, ProtoError> {
    let at = |e: ProtoError| ProtoError {
        message: format!("query[{index}]: {}", e.message),
        ..e
    };
    let id = v.get("id").and_then(Value::as_int).unwrap_or(index as i64);
    let kind = need_str(v, "kind").map_err(at)?;
    let kind = match kind.as_str() {
        "sat" => QueryKind::Sat {
            formula: need_str(v, "formula").map_err(at)?,
        },
        "holds" => QueryKind::Holds {
            formula: need_str(v, "formula").map_err(at)?,
            point: need_point(v).map_err(at)?,
        },
        "everywhere" => QueryKind::Everywhere {
            formula: need_str(v, "formula").map_err(at)?,
        },
        "knows" => QueryKind::Knows {
            agent: need_str(v, "agent").map_err(at)?,
            formula: need_str(v, "formula").map_err(at)?,
        },
        "pr_ge" => QueryKind::PrGe {
            agent: need_str(v, "agent").map_err(at)?,
            alpha: need_alpha(v).map_err(at)?,
            formula: need_str(v, "formula").map_err(at)?,
        },
        "pr_ge_family" => QueryKind::PrGeFamily {
            agent: need_str(v, "agent").map_err(at)?,
            alphas: need_alphas(v).map_err(at)?,
            formula: need_str(v, "formula").map_err(at)?,
        },
        "interval" => QueryKind::Interval {
            agent: need_str(v, "agent").map_err(at)?,
            point: need_point(v).map_err(at)?,
            formula: need_str(v, "formula").map_err(at)?,
        },
        other => {
            return Err(ProtoError::recoverable(
                codes::BAD_REQUEST,
                format!("query[{index}]: unknown kind {other:?}"),
            ))
        }
    };
    Ok(QueryItem { id, kind })
}

fn decode_spec(v: &Value) -> Result<SystemSpec, ProtoError> {
    let bad = |m: String| ProtoError::recoverable(codes::UNKNOWN_SYSTEM, format!("spec: {m}"));
    let nat = |key: &str| -> Result<usize, ProtoError> {
        v.get(key)
            .and_then(Value::as_int)
            .and_then(|n| usize::try_from(n).ok())
            .ok_or_else(|| bad(format!("missing non-negative integer {key:?}")))
    };
    let agents = nat("agents")?;
    let clockless_mask = u8::try_from(nat("clockless_mask")?)
        .map_err(|_| bad("clockless_mask out of range".into()))?;
    let two_adversaries = v
        .get("two_adversaries")
        .and_then(Value::as_bool)
        .unwrap_or(false);
    let rounds_v = v
        .get("rounds")
        .and_then(Value::as_arr)
        .ok_or_else(|| bad("missing array \"rounds\"".into()))?;
    let mut rounds = Vec::with_capacity(rounds_v.len());
    for (k, rv) in rounds_v.iter().enumerate() {
        let bias_s = rv
            .get("bias")
            .and_then(Value::as_str)
            .ok_or_else(|| bad(format!("rounds[{k}]: missing string \"bias\"")))?;
        let bias: Rat = bias_s
            .parse()
            .map_err(|_| bad(format!("rounds[{k}]: bad rational {bias_s:?}")))?;
        let observers = rv
            .get("observers")
            .and_then(Value::as_int)
            .and_then(|n| u8::try_from(n).ok())
            .ok_or_else(|| bad(format!("rounds[{k}]: missing byte \"observers\"")))?;
        rounds.push(SpecRound { bias, observers });
    }
    Ok(SystemSpec {
        agents,
        two_adversaries,
        clockless_mask,
        rounds,
    })
}

/// Decodes one parsed frame into a typed request. `max_batch` bounds
/// the number of items a single `query` may carry.
///
/// # Errors
///
/// Envelope violations (non-object frame, missing/wrong `v`) are
/// fatal; everything else is recoverable.
pub fn decode(frame: &Value, max_batch: usize) -> Result<Envelope, ProtoError> {
    if frame.as_obj().is_none() {
        return Err(ProtoError::fatal(
            codes::BAD_REQUEST,
            "frame must be a JSON object",
        ));
    }
    match frame.get("v").and_then(Value::as_int) {
        Some(v) if v == PROTO_VERSION => {}
        Some(v) => {
            return Err(ProtoError::fatal(
                codes::BAD_REQUEST,
                format!("unsupported protocol version {v} (this server speaks {PROTO_VERSION})"),
            ))
        }
        None => {
            return Err(ProtoError::fatal(
                codes::BAD_REQUEST,
                "missing integer field \"v\"",
            ))
        }
    }
    let id = frame.get("id").and_then(Value::as_int);
    let op = frame.get("op").and_then(Value::as_str).ok_or_else(|| {
        ProtoError::recoverable(codes::BAD_REQUEST, "missing string field \"op\"")
    })?;
    let req = match op {
        "hello" => Request::Hello,
        "load" => {
            let system = frame
                .get("system")
                .and_then(Value::as_str)
                .map(str::to_string);
            let spec = match frame.get("spec") {
                Some(sv) => Some(decode_spec(sv)?),
                None => None,
            };
            if system.is_some() == spec.is_some() {
                return Err(ProtoError::recoverable(
                    codes::BAD_REQUEST,
                    "load takes exactly one of \"system\" or \"spec\"",
                ));
            }
            let assignment = need_str(frame, "assignment")?;
            Request::Load {
                system,
                spec,
                assignment,
            }
        }
        "query" => {
            let arr = frame
                .get("queries")
                .and_then(Value::as_arr)
                .ok_or_else(|| {
                    ProtoError::recoverable(codes::BAD_REQUEST, "missing array field \"queries\"")
                })?;
            if arr.len() > max_batch {
                return Err(ProtoError::recoverable(
                    codes::BAD_REQUEST,
                    format!("batch of {} exceeds the limit of {max_batch}", arr.len()),
                ));
            }
            let items = arr
                .iter()
                .enumerate()
                .map(|(i, item)| decode_query_item(item, i))
                .collect::<Result<Vec<_>, _>>()?;
            Request::Query { items }
        }
        "stats" => Request::Stats,
        "metrics" => {
            let text = match frame.get("format").and_then(Value::as_str) {
                None => false,
                Some("text") => true,
                Some(other) => {
                    return Err(ProtoError::recoverable(
                        codes::BAD_REQUEST,
                        format!("unknown metrics format {other:?} (only \"text\")"),
                    ))
                }
            };
            Request::Metrics { text }
        }
        "unload" => Request::Unload,
        "bye" => Request::Bye,
        other => {
            return Err(ProtoError::recoverable(
                codes::UNKNOWN_OP,
                format!("unknown op {other:?}"),
            ))
        }
    };
    Ok(Envelope { id, req })
}

/// Encodes a point-set word slice as the wire form: an array of
/// 16-hex-digit strings, most significant nibble first per word.
#[must_use]
pub fn words_to_value(words: &[u64]) -> Value {
    Value::Arr(
        words
            .iter()
            .map(|w| Value::Str(format!("{w:016x}")))
            .collect(),
    )
}

/// Decodes the wire form back into words (the client half of the
/// bit-identity check).
///
/// # Errors
///
/// Reports malformed arrays and non-hex entries as strings.
pub fn words_from_value(v: &Value) -> Result<Vec<u64>, String> {
    let arr = v.as_arr().ok_or("words: expected an array")?;
    arr.iter()
        .map(|e| {
            let s = e.as_str().ok_or("words: expected hex strings")?;
            if s.len() != 16 {
                return Err(format!("words: {s:?} is not 16 hex digits"));
            }
            u64::from_str_radix(s, 16).map_err(|_| format!("words: bad hex {s:?}"))
        })
        .collect()
}

/// A success frame: `{"ok": true, "op": <op>, ...fields}`, echoing
/// `id` when present.
#[must_use]
pub fn ok_frame(op: &str, id: Option<i64>, fields: Vec<(&str, Value)>) -> Value {
    let head = [
        ("ok", Value::Bool(true)),
        ("op", Value::Str(op.to_string())),
    ];
    obj(head
        .into_iter()
        .chain(id.map(|id| ("id", Value::Int(id))))
        .chain(fields))
}

/// Serializes a structural spec into its wire object (the inverse of
/// the `load` decoder) — used by clients and the differential tests.
#[must_use]
pub fn spec_to_value(spec: &SystemSpec) -> Value {
    obj([
        ("agents", Value::Int(spec.agents as i64)),
        ("two_adversaries", Value::Bool(spec.two_adversaries)),
        ("clockless_mask", Value::Int(i64::from(spec.clockless_mask))),
        (
            "rounds",
            Value::Arr(
                spec.rounds
                    .iter()
                    .map(|r| {
                        obj([
                            ("bias", Value::Str(r.bias.to_string())),
                            ("observers", Value::Int(i64::from(r.observers))),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Serializes one query item into its wire object (client half).
#[must_use]
pub fn query_item_to_value(item: &QueryItem) -> Value {
    let point_v = |p: (usize, usize, usize)| {
        Value::Arr(vec![
            Value::Int(p.0 as i64),
            Value::Int(p.1 as i64),
            Value::Int(p.2 as i64),
        ])
    };
    let mut fields = vec![("id", Value::Int(item.id))];
    match &item.kind {
        QueryKind::Sat { formula } => {
            fields.push(("kind", Value::Str("sat".into())));
            fields.push(("formula", Value::Str(formula.clone())));
        }
        QueryKind::Holds { formula, point } => {
            fields.push(("kind", Value::Str("holds".into())));
            fields.push(("formula", Value::Str(formula.clone())));
            fields.push(("point", point_v(*point)));
        }
        QueryKind::Everywhere { formula } => {
            fields.push(("kind", Value::Str("everywhere".into())));
            fields.push(("formula", Value::Str(formula.clone())));
        }
        QueryKind::Knows { agent, formula } => {
            fields.push(("kind", Value::Str("knows".into())));
            fields.push(("agent", Value::Str(agent.clone())));
            fields.push(("formula", Value::Str(formula.clone())));
        }
        QueryKind::PrGe {
            agent,
            alpha,
            formula,
        } => {
            fields.push(("kind", Value::Str("pr_ge".into())));
            fields.push(("agent", Value::Str(agent.clone())));
            fields.push(("alpha", Value::Str(alpha.to_string())));
            fields.push(("formula", Value::Str(formula.clone())));
        }
        QueryKind::PrGeFamily {
            agent,
            alphas,
            formula,
        } => {
            fields.push(("kind", Value::Str("pr_ge_family".into())));
            fields.push(("agent", Value::Str(agent.clone())));
            fields.push((
                "alphas",
                Value::Arr(alphas.iter().map(|a| Value::Str(a.to_string())).collect()),
            ));
            fields.push(("formula", Value::Str(formula.clone())));
        }
        QueryKind::Interval {
            agent,
            point,
            formula,
        } => {
            fields.push(("kind", Value::Str("interval".into())));
            fields.push(("agent", Value::Str(agent.clone())));
            fields.push(("point", point_v(*point)));
            fields.push(("formula", Value::Str(formula.clone())));
        }
    }
    obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn decode_line(line: &str) -> Result<Envelope, ProtoError> {
        decode(&parse(line).unwrap(), 64)
    }

    #[test]
    fn envelope_versioning() {
        assert_eq!(
            decode_line(r#"{"v":1,"op":"hello"}"#).unwrap().req,
            Request::Hello
        );
        let e = decode_line(r#"{"op":"hello"}"#).unwrap_err();
        assert!(e.fatal);
        let e = decode_line(r#"{"v":2,"op":"hello"}"#).unwrap_err();
        assert!(e.fatal);
        let e = decode(&parse("[1]").unwrap(), 64).unwrap_err();
        assert!(e.fatal);
        let e = decode_line(r#"{"v":1,"op":"frobnicate"}"#).unwrap_err();
        assert_eq!(e.code, codes::UNKNOWN_OP);
        assert!(!e.fatal);
    }

    #[test]
    fn metrics_decodes_with_optional_text_format() {
        assert_eq!(
            decode_line(r#"{"v":1,"op":"metrics"}"#).unwrap().req,
            Request::Metrics { text: false }
        );
        assert_eq!(
            decode_line(r#"{"v":1,"op":"metrics","format":"text"}"#)
                .unwrap()
                .req,
            Request::Metrics { text: true }
        );
        let e = decode_line(r#"{"v":1,"op":"metrics","format":"xml"}"#).unwrap_err();
        assert_eq!(e.code, codes::BAD_REQUEST);
        assert!(!e.fatal);
    }

    #[test]
    fn load_requires_exactly_one_source() {
        let e = decode_line(r#"{"v":1,"op":"load","assignment":"post"}"#).unwrap_err();
        assert_eq!(e.code, codes::BAD_REQUEST);
        let ok = decode_line(r#"{"v":1,"op":"load","system":"die","assignment":"post"}"#).unwrap();
        assert!(matches!(
            ok.req,
            Request::Load {
                system: Some(_),
                spec: None,
                ..
            }
        ));
    }

    #[test]
    fn query_items_round_trip() {
        let items = vec![
            QueryItem {
                id: 7,
                kind: QueryKind::Sat {
                    formula: "K{p3} c=h".into(),
                },
            },
            QueryItem {
                id: 8,
                kind: QueryKind::PrGe {
                    agent: "p1".into(),
                    alpha: Rat::new(1, 3),
                    formula: "c=h".into(),
                },
            },
            QueryItem {
                id: 9,
                kind: QueryKind::Interval {
                    agent: "p2".into(),
                    point: (0, 1, 2),
                    formula: "<>c=h".into(),
                },
            },
        ];
        let frame = ok_frame(
            "query",
            Some(3),
            vec![(
                "queries",
                Value::Arr(items.iter().map(query_item_to_value).collect()),
            )],
        );
        // Client-built frames lack "v"; splice it in as a client would.
        let mut line = frame.to_json();
        line.insert_str(1, "\"v\":1,\"op\":\"query\",");
        let env = decode_line(&line).unwrap();
        assert_eq!(env.id, Some(3));
        assert_eq!(env.req, Request::Query { items });
    }

    #[test]
    fn pr_ge_family_round_trips_and_validates() {
        let items = vec![QueryItem {
            id: 4,
            kind: QueryKind::PrGeFamily {
                agent: "p1".into(),
                alphas: vec![Rat::new(1, 4), Rat::new(1, 2), Rat::ONE],
                formula: "<>c=h".into(),
            },
        }];
        let frame = ok_frame(
            "query",
            None,
            vec![(
                "queries",
                Value::Arr(items.iter().map(query_item_to_value).collect()),
            )],
        );
        let mut line = frame.to_json();
        line.insert_str(1, "\"v\":1,\"op\":\"query\",");
        let env = decode_line(&line).unwrap();
        assert_eq!(env.req, Request::Query { items });
        // Every alpha in the family is validated like a lone pr_ge.
        let e = decode_line(
            r#"{"v":1,"op":"query","queries":[{"kind":"pr_ge_family","agent":"p1","alphas":["1/2","5/4"],"formula":"x"}]}"#,
        )
        .unwrap_err();
        assert_eq!(e.code, codes::BAD_ALPHA);
        assert!(!e.fatal);
        let e = decode_line(
            r#"{"v":1,"op":"query","queries":[{"kind":"pr_ge_family","agent":"p1","formula":"x"}]}"#,
        )
        .unwrap_err();
        assert_eq!(e.code, codes::BAD_ALPHA);
    }

    #[test]
    fn batch_limit_and_alpha_validation() {
        let e = decode(
            &parse(r#"{"v":1,"op":"query","queries":[{"kind":"sat","formula":"x"},{"kind":"sat","formula":"y"}]}"#)
                .unwrap(),
            1,
        )
        .unwrap_err();
        assert_eq!(e.code, codes::BAD_REQUEST);
        let e = decode_line(
            r#"{"v":1,"op":"query","queries":[{"kind":"pr_ge","agent":"p1","alpha":"3/2","formula":"x"}]}"#,
        )
        .unwrap_err();
        assert_eq!(e.code, codes::BAD_ALPHA);
        assert!(!e.fatal);
    }

    #[test]
    fn words_round_trip_bit_exactly() {
        let words = vec![0u64, u64::MAX, 0xdead_beef_0123_4567];
        let v = words_to_value(&words);
        assert_eq!(words_from_value(&v).unwrap(), words);
        assert!(words_from_value(&parse(r#"["zz"]"#).unwrap()).is_err());
        assert!(words_from_value(&parse(r#"["ffff"]"#).unwrap()).is_err());
    }

    #[test]
    fn spec_round_trips_through_the_wire_shape() {
        let spec = SystemSpec {
            agents: 3,
            two_adversaries: true,
            clockless_mask: 2,
            rounds: vec![SpecRound {
                bias: Rat::new(2, 5),
                observers: 0b101,
            }],
        };
        let v = spec_to_value(&spec);
        let back = decode_spec(&parse(&v.to_json()).unwrap()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn error_frames_echo_ids() {
        let e = ProtoError::recoverable(codes::NO_SYSTEM, "no model pinned");
        let f = e.frame(Some(42));
        let s = f.to_json();
        assert!(s.contains("\"ok\":false"));
        assert!(s.contains("\"id\":42"));
        assert!(s.contains("\"error\":\"no_system\""));
        assert!(s.contains("\"fatal\":false"));
    }
}
