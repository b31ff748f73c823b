//! A small blocking client for the kpa-serve protocol.
//!
//! Shared by `kpa-explore --connect`, the loopback differential and
//! protocol-fuzz suites, and the soak bench — one implementation of
//! framing and error handling, so a protocol change breaks loudly in
//! one place.
//!
//! The client is deliberately synchronous: send one line, read one
//! line. Pipelining exists on the wire (the server processes every
//! complete line it has), but the tests want strict request/response
//! pairing to compare against serial evaluation.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use crate::catalog::SystemSpec;
use crate::json::{obj, Value};
use crate::lines::LineBuf;
use crate::proto::{query_item_to_value, spec_to_value, QueryItem, PROTO_VERSION};

/// Client-side failure: transport trouble, an unparseable reply, or a
/// structured error frame from the server.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (includes read timeouts).
    Io(std::io::Error),
    /// The server's reply line was not a valid frame.
    Malformed(String),
    /// The server answered with an error frame.
    Server {
        /// Stable error code (see [`crate::proto::codes`]).
        code: String,
        /// Human-readable detail.
        message: String,
        /// Whether the server closed the connection afterwards.
        fatal: bool,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Malformed(m) => write!(f, "malformed reply: {m}"),
            ClientError::Server {
                code,
                message,
                fatal,
            } => write!(
                f,
                "server error {code}{}: {message}",
                if *fatal { " (fatal)" } else { "" }
            ),
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// A connected client. Each request allocates the next `id`
/// automatically and checks that the reply echoes it.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    lines: LineBuf,
    next_id: i64,
    read_deadline: Duration,
}

impl Client {
    /// Connects with a 30-second per-reply deadline.
    ///
    /// # Errors
    ///
    /// Propagates connect/configure I/O errors.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        Client::connect_with_deadline(addr, Duration::from_secs(30))
    }

    /// Connects with an explicit per-reply deadline (tests reading
    /// "no reply should come" use a short one).
    ///
    /// # Errors
    ///
    /// Propagates connect/configure I/O errors.
    pub fn connect_with_deadline(
        addr: impl ToSocketAddrs,
        deadline: Duration,
    ) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            lines: LineBuf::default(),
            next_id: 1,
            read_deadline: deadline,
        })
    }

    /// Sends raw bytes followed by a newline — the fuzz suite's way of
    /// putting arbitrary garbage on the wire.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn send_raw(&mut self, line: &[u8]) -> Result<(), ClientError> {
        self.stream.write_all(line)?;
        self.stream.write_all(b"\n")?;
        Ok(())
    }

    /// Sends raw bytes with **no** trailing newline (truncated-frame
    /// fuzzing).
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn send_unterminated(&mut self, bytes: &[u8]) -> Result<(), ClientError> {
        self.stream.write_all(bytes)?;
        Ok(())
    }

    /// Reads the next reply frame, whatever its `ok` flag.
    ///
    /// # Errors
    ///
    /// `Io` on timeout/EOF, `Malformed` when the line is not a JSON
    /// object.
    pub fn recv_frame(&mut self) -> Result<Value, ClientError> {
        let deadline = Instant::now() + self.read_deadline;
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(line) = self.lines.next_line() {
                let text = std::str::from_utf8(line)
                    .map_err(|_| ClientError::Malformed("reply is not UTF-8".into()))?;
                return crate::json::parse(text).map_err(|e| ClientError::Malformed(e.to_string()));
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(ClientError::Io(std::io::Error::new(
                    ErrorKind::TimedOut,
                    "no reply within deadline",
                )));
            }
            self.stream.set_read_timeout(Some(left))?;
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(ClientError::Io(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    )))
                }
                Ok(n) => self.lines.push(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(ClientError::Io(e)),
            }
        }
    }

    /// One request/response round trip: sends the fields (plus `v`,
    /// `op`, and a fresh `id`), reads the reply, and converts error
    /// frames into [`ClientError::Server`].
    ///
    /// # Errors
    ///
    /// Transport, malformed-reply, and server-error failures.
    pub fn request(
        &mut self,
        op: &str,
        mut fields: Vec<(&str, Value)>,
    ) -> Result<Value, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        fields.push(("id", Value::Int(id)));
        let line = Client::bare_request(op, fields).to_json();
        self.send_raw(line.as_bytes())?;
        let frame = self.recv_frame()?;
        match frame.get("ok").and_then(Value::as_bool) {
            Some(true) => {
                if frame.get("id").and_then(Value::as_int) != Some(id) {
                    return Err(ClientError::Malformed(format!(
                        "reply did not echo id {id}: {}",
                        frame.to_json()
                    )));
                }
                Ok(frame)
            }
            Some(false) => Err(ClientError::Server {
                code: frame
                    .get("error")
                    .and_then(Value::as_str)
                    .unwrap_or("unknown")
                    .to_string(),
                message: frame
                    .get("message")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
                fatal: frame.get("fatal").and_then(Value::as_bool).unwrap_or(false),
            }),
            None => Err(ClientError::Malformed(format!(
                "reply has no \"ok\" flag: {}",
                frame.to_json()
            ))),
        }
    }

    /// `hello` handshake; returns the server's frame.
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn hello(&mut self) -> Result<Value, ClientError> {
        self.request("hello", vec![])
    }

    /// Pins a catalog system (`name[:param]`) with an assignment spec.
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn load_named(&mut self, system: &str, assignment: &str) -> Result<Value, ClientError> {
        self.request(
            "load",
            vec![
                ("system", Value::Str(system.to_string())),
                ("assignment", Value::Str(assignment.to_string())),
            ],
        )
    }

    /// Pins a structural-spec system with an assignment spec.
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn load_spec(&mut self, spec: &SystemSpec, assignment: &str) -> Result<Value, ClientError> {
        self.request(
            "load",
            vec![
                ("spec", spec_to_value(spec)),
                ("assignment", Value::Str(assignment.to_string())),
            ],
        )
    }

    /// Submits a query batch; returns the `results` array.
    ///
    /// # Errors
    ///
    /// As [`Client::request`], plus `Malformed` when `results` is
    /// missing.
    pub fn query(&mut self, items: &[QueryItem]) -> Result<Vec<Value>, ClientError> {
        let frame = self.request(
            "query",
            vec![(
                "queries",
                Value::Arr(items.iter().map(query_item_to_value).collect()),
            )],
        )?;
        frame
            .get("results")
            .and_then(Value::as_arr)
            .map(<[Value]>::to_vec)
            .ok_or_else(|| ClientError::Malformed("query reply lacks \"results\"".into()))
    }

    /// Fetches per-session and process-wide stats.
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn stats(&mut self) -> Result<Value, ClientError> {
        self.request("stats", vec![])
    }

    /// Fetches the schema-v2 telemetry snapshot (cumulative +
    /// windowed histograms, top span sites, artifact-cache occupancy).
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn metrics(&mut self) -> Result<Value, ClientError> {
        self.request("metrics", vec![])
    }

    /// Fetches the metrics text exposition (`name value` lines).
    ///
    /// # Errors
    ///
    /// As [`Client::request`], plus `Malformed` when `text` is
    /// missing.
    pub fn metrics_text(&mut self) -> Result<String, ClientError> {
        let frame = self.request("metrics", vec![("format", Value::Str("text".into()))])?;
        frame
            .get("text")
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| ClientError::Malformed("metrics reply lacks \"text\"".into()))
    }

    /// Unpins the session's model.
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn unload(&mut self) -> Result<Value, ClientError> {
        self.request("unload", vec![])
    }

    /// Says goodbye; the server closes the connection after replying.
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn bye(&mut self) -> Result<Value, ClientError> {
        self.request("bye", vec![])
    }

    /// Builds a bare request object (for tests that want to mutate a
    /// frame before sending it).
    #[must_use]
    pub fn bare_request(op: &str, fields: Vec<(&str, Value)>) -> Value {
        let mut all = vec![
            ("v", Value::Int(PROTO_VERSION)),
            ("op", Value::Str(op.to_string())),
        ];
        all.extend(fields);
        obj(all)
    }
}
