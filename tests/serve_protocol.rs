//! Protocol-robustness suite for `kpa-serve`: malformed, truncated,
//! and oversized frames; session lifecycle; timeouts; limits; and
//! clean shutdown.
//!
//! The server's framing promise is that *no input sequence* makes it
//! panic, hang, or reply with anything other than a structured frame:
//! recoverable errors leave the connection usable, fatal ones are the
//! last frame before the server closes it. The fuzz half drives that
//! with the in-repo seeded `Rng64` — random bytes, random JSON-ish
//! mutants of valid requests — so every failure is replayable from
//! the property name and case index (same scheme as `tests/common`).
//!
//! Everything here runs against real TCP loopback sockets with short
//! timeouts; nothing sleeps longer than a few hundred milliseconds.

mod common;

use common::case_seed;
use kpa::measure::Rng64;
use kpa::serve::json::Value;
use kpa::serve::{Client, ClientError, QueryItem, QueryKind, ServeConfig, Server};
use std::time::Duration;

/// A config with short limits, so limit paths run in test time.
fn tight_config() -> ServeConfig {
    ServeConfig {
        max_frame: 1 << 12,
        max_batch: 8,
        idle_timeout: Duration::from_millis(400),
        poll: Duration::from_millis(10),
        ..ServeConfig::default()
    }
}

fn connect(server: &Server) -> Client {
    Client::connect_with_deadline(server.local_addr(), Duration::from_secs(10)).expect("connect")
}

/// The error frame's `(code, fatal)` pair, or a panic if the frame is
/// not an error frame.
fn error_of(frame: &Value) -> (String, bool) {
    assert_eq!(frame.get("ok").and_then(Value::as_bool), Some(false));
    (
        frame
            .get("error")
            .and_then(Value::as_str)
            .expect("error code")
            .to_string(),
        frame
            .get("fatal")
            .and_then(Value::as_bool)
            .expect("fatal flag"),
    )
}

/// After a fatal frame the server closes; the next read must see EOF,
/// not a hang.
fn assert_closed(client: &mut Client) {
    match client.recv_frame() {
        Err(ClientError::Io(e)) => assert_ne!(
            e.kind(),
            std::io::ErrorKind::TimedOut,
            "connection should close, not hang"
        ),
        Ok(frame) => panic!("expected close, got frame {}", frame.to_json()),
        Err(other) => panic!("expected close, got {other}"),
    }
}

#[test]
fn malformed_frames_get_structured_errors() {
    let mut server = Server::bind(tight_config()).expect("bind");
    // (line, expected code, expected fatal)
    let cases: &[(&str, &str, bool)] = &[
        ("not json at all", "bad_json", true),
        ("{", "bad_json", true),
        ("{}garbage", "bad_json", true),
        ("[1,2,3]", "bad_request", true),
        ("{}", "bad_request", true),
        (r#"{"v":2,"op":"hello"}"#, "bad_request", true),
        (r#"{"v":1}"#, "bad_request", false),
        (r#"{"v":1,"op":"frobnicate"}"#, "unknown_op", false),
        (
            r#"{"v":1,"op":"query","queries":[{"kind":"sat","formula":"x"}]}"#,
            "no_system",
            false,
        ),
        (
            r#"{"v":1,"op":"load","system":"nope","assignment":"post"}"#,
            "unknown_system",
            false,
        ),
        (
            r#"{"v":1,"op":"load","system":"die","assignment":"wat"}"#,
            "bad_request",
            false,
        ),
        (
            r#"{"v":1,"op":"load","assignment":"post"}"#,
            "bad_request",
            false,
        ),
        (
            r#"{"v":1,"op":"query","queries":[1,2,3,4,5,6,7,8,9]}"#,
            "bad_request",
            false, // batch limit (8) trips before item decoding
        ),
    ];
    for (line, code, fatal) in cases {
        let mut c = connect(&server);
        c.send_raw(line.as_bytes()).expect("send");
        let frame = c.recv_frame().expect("a structured reply");
        let (got_code, got_fatal) = error_of(&frame);
        assert_eq!(&got_code, code, "{line}");
        assert_eq!(got_fatal, *fatal, "{line}");
        if *fatal {
            assert_closed(&mut c);
        } else {
            // Recoverable: the same connection still answers hello.
            c.hello().expect("connection survived a recoverable error");
        }
    }
    // Non-UTF-8 bytes are a fatal bad_json.
    let mut c = connect(&server);
    c.send_raw(&[0xff, 0xfe, 0x80, 0x01]).expect("send");
    let (code, fatal) = error_of(&c.recv_frame().expect("reply"));
    assert_eq!(code, "bad_json");
    assert!(fatal);
    assert_closed(&mut c);
    server.shutdown();
}

#[test]
fn oversized_and_truncated_frames() {
    let config = tight_config();
    let max = config.max_frame;
    let mut server = Server::bind(config).expect("bind");

    // A newline-less line growing past max_frame: fatal frame_too_long.
    let mut c = connect(&server);
    c.send_unterminated(&vec![b'a'; max + 64]).expect("send");
    let (code, fatal) = error_of(&c.recv_frame().expect("reply"));
    assert_eq!(code, "frame_too_long");
    assert!(fatal);
    assert_closed(&mut c);

    // A truncated frame followed by a dropped connection: the server
    // cleans up and keeps serving.
    let mut c = connect(&server);
    c.send_unterminated(br#"{"v":1,"op":"que"#).expect("send");
    drop(c);

    // Disconnect mid-batch: a valid query line, socket dropped before
    // reading the reply. The server must not wedge.
    let mut c = connect(&server);
    c.load_named("die", "post").expect("load");
    c.send_raw(
        br#"{"v":1,"op":"query","queries":[{"kind":"sat","formula":"die=1"},{"kind":"sat","formula":"die=2"}]}"#,
    )
    .expect("send");
    drop(c);

    // A depth bomb is a parse error (bounded recursion), not a crash.
    let mut c = connect(&server);
    let bomb = format!("{}{}", "[".repeat(512), "]".repeat(512));
    c.send_raw(bomb.as_bytes()).expect("send");
    let (code, fatal) = error_of(&c.recv_frame().expect("reply"));
    assert_eq!(code, "bad_json");
    assert!(fatal);

    // After all of that, fresh sessions work.
    let mut c = connect(&server);
    c.hello().expect("server still healthy");
    c.load_named("die", "post").expect("load");
    c.bye().expect("bye");
    server.shutdown();
}

/// Seeded fuzz: random byte soup and random mutations of valid
/// frames. The server must always answer with a structured frame or
/// close the connection — never hang (deadline), never panic (later
/// sessions still work), never reply unframed garbage (recv parses).
#[test]
fn fuzzed_frames_never_wedge_the_server() {
    const ROUNDS: usize = if cfg!(feature = "fuzz") { 96 } else { 32 };
    let mut server = Server::bind(tight_config()).expect("bind");
    let valid: &[&str] = &[
        r#"{"v":1,"op":"hello"}"#,
        r#"{"v":1,"op":"load","system":"die","assignment":"post"}"#,
        r#"{"v":1,"op":"query","queries":[{"kind":"sat","formula":"die=1"}]}"#,
        r#"{"v":1,"op":"stats"}"#,
        r#"{"v":1,"op":"unload"}"#,
    ];
    for round in 0..ROUNDS {
        let mut rng = Rng64::new(case_seed("serve_protocol_fuzz", round));
        let mut c = Client::connect_with_deadline(server.local_addr(), Duration::from_secs(10))
            .expect("connect");
        // Each connection sends a few frames, then (usually) a probe.
        for _ in 0..1 + rng.index(4) {
            let line: Vec<u8> = match rng.index(3) {
                // Arbitrary bytes (newlines stripped so it stays one frame).
                0 => (0..rng.index(200))
                    .map(|_| {
                        let b = rng.next_u64() as u8;
                        if b == b'\n' {
                            b' '
                        } else {
                            b
                        }
                    })
                    .collect(),
                // A valid frame with random single-byte mutations.
                1 => {
                    let mut bytes = valid[rng.index(valid.len())].as_bytes().to_vec();
                    for _ in 0..1 + rng.index(4) {
                        let at = rng.index(bytes.len());
                        bytes[at] = {
                            let b = rng.next_u64() as u8;
                            if b == b'\n' {
                                b'x'
                            } else {
                                b
                            }
                        };
                    }
                    bytes
                }
                // A valid frame, verbatim.
                _ => valid[rng.index(valid.len())].as_bytes().to_vec(),
            };
            if c.send_raw(&line).is_err() {
                break; // server already closed on an earlier fatal error
            }
            match c.recv_frame() {
                Ok(frame) => {
                    // Every reply is a framed object with an `ok` flag.
                    let ok = frame.get("ok").and_then(Value::as_bool);
                    assert!(ok.is_some(), "unframed reply: {}", frame.to_json());
                    if ok == Some(false)
                        && frame.get("fatal").and_then(Value::as_bool) == Some(true)
                    {
                        break; // connection is closing; stop writing
                    }
                }
                Err(ClientError::Io(e)) => {
                    assert_ne!(
                        e.kind(),
                        std::io::ErrorKind::TimedOut,
                        "server hung on fuzz round {round}"
                    );
                    break;
                }
                Err(other) => panic!("non-frame reply on round {round}: {other}"),
            }
        }
    }
    // The server survived the whole campaign.
    let mut c = connect(&server);
    c.hello().expect("healthy after fuzzing");
    server.shutdown();
}

/// Every reply — success and error alike — carries a server-minted
/// `trace_id` (16 lowercase hex digits), distinct per frame, so a
/// client can correlate any reply with the server's span trees.
#[test]
fn every_reply_echoes_a_distinct_trace_id() {
    let mut server = Server::bind(tight_config()).expect("bind");
    let mut c = connect(&server);
    let trace_id_of = |frame: &Value| -> String {
        let id = frame
            .get("trace_id")
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("reply lacks trace_id: {}", frame.to_json()))
            .to_string();
        assert_eq!(id.len(), 16, "trace id is 16 hex digits: {id:?}");
        assert!(
            id.chars().all(|ch| ch.is_ascii_hexdigit()),
            "trace id is hex: {id:?}"
        );
        id
    };
    let mut seen = std::collections::HashSet::new();
    // Success frames.
    for frame in [
        c.hello().expect("hello"),
        c.load_named("die", "post").expect("load"),
        c.stats().expect("stats"),
        c.metrics().expect("metrics"),
    ] {
        assert!(seen.insert(trace_id_of(&frame)), "trace ids must be fresh");
    }
    // Recoverable error frames carry one too.
    c.send_raw(br#"{"v":1,"op":"frobnicate"}"#).expect("send");
    let frame = c.recv_frame().expect("error frame");
    assert_eq!(frame.get("ok").and_then(Value::as_bool), Some(false));
    assert!(seen.insert(trace_id_of(&frame)));
    // And so do fatal ones — the last frame before the close.
    c.send_raw(b"not json").expect("send");
    let frame = c.recv_frame().expect("fatal frame");
    assert_eq!(frame.get("ok").and_then(Value::as_bool), Some(false));
    assert!(seen.insert(trace_id_of(&frame)));
    assert_closed(&mut c);
    server.shutdown();
}

#[test]
fn session_lifecycle_pin_unpin_and_bye() {
    let mut server = Server::bind(tight_config()).expect("bind");
    let mut c = connect(&server);
    c.hello().expect("hello");
    c.load_named("die", "post").expect("load");
    let rows = c
        .query(&[QueryItem {
            id: 1,
            kind: QueryKind::Sat {
                formula: "die=1".into(),
            },
        }])
        .expect("query");
    assert_eq!(rows.len(), 1);
    c.unload().expect("unload");
    // Unpinned: queries fail recoverably, the session lives on.
    match c.query(&[QueryItem {
        id: 2,
        kind: QueryKind::Sat {
            formula: "die=1".into(),
        },
    }]) {
        Err(ClientError::Server { code, fatal, .. }) => {
            assert_eq!(code, "no_system");
            assert!(!fatal);
        }
        other => panic!("expected no_system, got {other:?}"),
    }
    // Re-pin a different pair on the same connection.
    c.load_named("secret-coin", "fut").expect("reload");
    c.query(&[QueryItem {
        id: 3,
        kind: QueryKind::Sat {
            formula: "c=h".into(),
        },
    }])
    .expect("query after reload");
    // bye: one ok frame, then close.
    c.bye().expect("bye acknowledged");
    assert_closed(&mut c);
    server.shutdown();
}

#[test]
fn an_i128_edge_threshold_gets_an_answer() {
    // α = (2¹²⁷−7)/(2¹²⁷−5): comparing it with a class measure needs a
    // cross product past i128. The frame must be answered, and the
    // connection must answer the next one.
    const ITEM: &str = r#"{"kind":"pr_ge","agent":"p1","alpha":"170141183460469231731687303715884105721/170141183460469231731687303715884105723","formula":"recent=t"}"#;
    let mut server = Server::bind(tight_config()).expect("bind");
    let mut c = connect(&server);
    c.hello().expect("hello");
    c.load_named("async-coins:4", "post").expect("load");
    let item = kpa::serve::json::parse(ITEM).expect("item JSON");
    let frame = c
        .request("query", vec![("queries", Value::Arr(vec![item]))])
        .expect("an ok reply");
    assert_eq!(frame.get("ok").and_then(Value::as_bool), Some(true));
    let rows = c
        .query(&[QueryItem {
            id: 2,
            kind: QueryKind::Sat {
                formula: "recent=t".into(),
            },
        }])
        .expect("the next frame is answered");
    assert_eq!(rows.len(), 1);
    server.shutdown();
}

#[test]
fn a_spec_whose_run_probabilities_overflow_gets_an_error() {
    // Two rounds of bias 1/(2¹²⁷−25): the run probability 1/(2¹²⁷−25)²
    // does not fit an i128 rational. The load must be refused with a
    // recoverable `arith_overflow` frame, and the connection must
    // answer the next frame.
    const FRAME: &str = r#"{"v":1,"op":"load","id":7,"assignment":"post","spec":{"agents":2,"clockless_mask":0,"rounds":[{"bias":"1/170141183460469231731687303715884105703","observers":1},{"bias":"1/170141183460469231731687303715884105703","observers":2}]}}"#;
    let mut server = Server::bind(tight_config()).expect("bind");
    let mut c = connect(&server);
    c.hello().expect("hello");
    c.send_raw(FRAME.as_bytes()).expect("send");
    let frame = c
        .recv_frame()
        .expect("an error frame, not a closed connection");
    let (code, fatal) = error_of(&frame);
    assert_eq!(code, "arith_overflow");
    assert!(!fatal);
    c.load_named("secret-coin", "post")
        .expect("the next frame is answered");
    server.shutdown();
}

#[test]
fn idle_sessions_are_reaped() {
    let mut server = Server::bind(tight_config()).expect("bind");
    let mut c = connect(&server);
    c.hello().expect("hello");
    // Go silent past the idle timeout; the server must *tell* us.
    let frame = c.recv_frame().expect("an idle_timeout frame, not silence");
    let (code, fatal) = error_of(&frame);
    assert_eq!(code, "idle_timeout");
    assert!(fatal);
    assert_closed(&mut c);
    server.shutdown();
}

#[test]
fn connection_limit_is_a_structured_refusal() {
    let config = ServeConfig {
        max_conns: 2,
        ..tight_config()
    };
    let mut server = Server::bind(config).expect("bind");
    let mut a = connect(&server);
    let mut b = connect(&server);
    a.hello().expect("hello");
    b.hello().expect("hello");
    // Third connection: server_busy, then close.
    let mut c = connect(&server);
    let frame = c.recv_frame().expect("refusal frame");
    let (code, fatal) = error_of(&frame);
    assert_eq!(code, "server_busy");
    assert!(fatal);
    assert_closed(&mut c);
    // The two admitted connections are unaffected.
    a.load_named("die", "post").expect("still served");
    drop(a);
    drop(b);
    // Freed slots readmit new connections (allow a poll tick for the
    // accept loop to observe the closes).
    std::thread::sleep(Duration::from_millis(100));
    let mut d = connect(&server);
    d.hello().expect("slot freed");
    server.shutdown();
}

#[test]
fn shutdown_notifies_live_connections() {
    let mut server = Server::bind(tight_config()).expect("bind");
    let mut c = connect(&server);
    c.hello().expect("hello");
    let mut idle = connect(&server);
    idle.hello().expect("hello");
    server.shutdown();
    // Both connections got a fatal shutting_down frame (or, if the
    // close raced ahead of the read, a clean EOF).
    for client in [&mut c, &mut idle] {
        match client.recv_frame() {
            Ok(frame) => {
                let (code, fatal) = error_of(&frame);
                assert_eq!(code, "shutting_down");
                assert!(fatal);
            }
            Err(ClientError::Io(e)) => {
                assert_ne!(e.kind(), std::io::ErrorKind::TimedOut, "hang at shutdown");
            }
            Err(other) => panic!("unexpected reply at shutdown: {other}"),
        }
    }
    // New connections are refused outright (listener is gone).
    assert!(
        Client::connect_with_deadline(server.local_addr(), Duration::from_millis(200)).is_err()
    );
}
