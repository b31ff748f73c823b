//! The TCP server: listener, per-connection framing, limits, and
//! clean shutdown.
//!
//! # Threading model
//!
//! One accept thread, polling a nonblocking listener every
//! [`ServeConfig::poll`], plus one thread per live connection, blocked
//! in `read`. Connections are bounded by
//! [`ServeConfig::max_conns`]; a connection over the limit receives a
//! fatal `server_busy` frame and is closed immediately, rather than
//! queueing invisibly. The server keeps each live connection's thread
//! next to a handle to its socket, so shutdown can wake the thread's
//! read.
//!
//! # Framing
//!
//! Requests are read with a bounded incremental scanner — bytes are
//! pulled in small chunks and each byte is scanned for `\n` once, so a
//! client that streams an endless line is cut off at
//! [`ServeConfig::max_frame`] with a fatal `frame_too_long` frame
//! instead of growing the buffer without bound. Several complete lines
//! arriving in one read are all processed, in order (pipelining is
//! allowed). Each received frame is assigned a server-minted trace id,
//! echoed as `trace_id` on its reply and installed as the handling
//! thread's ambient span id while `KPA_TRACE=1` — the hook that
//! stitches kernel spans into per-request trees.
//!
//! # Timeouts and shutdown
//!
//! The accept thread is the one server thread that wakes on a timer:
//! it sees the stop flag within one [`ServeConfig::poll`]. An `accept`
//! error (out of descriptors, say) is counted in `proc.accept_errors`
//! and retried after one `poll`, and a connection whose thread cannot
//! be spawned is closed, so neither stops the server. Each
//! connection's socket has [`ServeConfig::idle_timeout`] as its read
//! and its write timeout: a read that times out is the idle reap
//! (fatal `idle_timeout`), and a reply that makes no progress for that
//! long (the client stopped reading) ends the connection.
//! [`Server::shutdown`] sets the stop flag and joins the accept
//! thread. It then shuts down the read side of every live socket: each
//! blocked read returns, sees the flag and sends a fatal
//! `shutting_down` frame, a blocked write gives up within
//! `idle_timeout`, and every connection thread is joined. So when
//! `shutdown` returns, no server thread is running and every client
//! has seen its reply, a structured goodbye, or (if it stopped
//! reading) a closed connection. Dropping a [`Server`] runs the same
//! shutdown.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::json;
use crate::lines::LineBuf;
use crate::proto::{codes, decode, ProtoError};
use crate::session::{After, Session, SharedState};

/// Tunables for one server instance. `Default` is suitable for tests
/// and local exploration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Maximum simultaneous connections; the next one is refused with
    /// `server_busy`.
    pub max_conns: usize,
    /// Maximum request-line length in bytes (fatal `frame_too_long`
    /// beyond it).
    pub max_frame: usize,
    /// Maximum items in one `query` batch.
    pub max_batch: usize,
    /// Idle time after which a silent connection is reaped with
    /// `idle_timeout`. It is each connection's socket read and write
    /// timeout, so it must be positive: [`Server::bind`] refuses zero.
    pub idle_timeout: Duration,
    /// How often the accept loop checks for a new connection and for
    /// shutdown, and how long it waits after an `accept` error.
    pub poll: Duration,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            max_conns: 64,
            max_frame: 1 << 20,
            max_batch: 1024,
            idle_timeout: Duration::from_secs(300),
            poll: Duration::from_millis(25),
        }
    }
}

/// A running server: owns the accept thread and every connection
/// thread. Dropping it runs [`Server::shutdown`].
#[derive(Debug)]
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<SharedState>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: Conns,
}

/// Each live connection's thread, next to a weak handle to its socket
/// that shutdown uses to wake the thread's read. The thread holds the
/// only strong handle, so the socket closes when the thread ends.
type Conns = Arc<Mutex<Vec<(JoinHandle<()>, Weak<TcpStream>)>>>;

impl Server {
    /// Binds and starts accepting.
    ///
    /// # Errors
    ///
    /// `InvalidInput` for a zero [`ServeConfig::idle_timeout`];
    /// otherwise propagates bind/configuration I/O errors.
    pub fn bind(config: ServeConfig) -> std::io::Result<Server> {
        if config.idle_timeout.is_zero() {
            return Err(std::io::Error::new(
                ErrorKind::InvalidInput,
                "idle_timeout must be positive",
            ));
        }
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(SharedState::new());
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Conns = Arc::new(Mutex::new(Vec::new()));
        let active = Arc::new(AtomicUsize::new(0));

        let accept = {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            let config = config.clone();
            std::thread::Builder::new()
                .name("kpa-serve-accept".to_string())
                .spawn(move || accept_loop(&listener, &config, &shared, &stop, &conns, &active))
                .expect("spawn accept loop")
        };

        Ok(Server {
            local_addr,
            shared,
            stop,
            accept: Some(accept),
            conns,
        })
    }

    /// The bound address (with the real port when `:0` was asked).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The process-wide state (artifact cache + metrics) — the soak
    /// bench and the binary report from here.
    #[must_use]
    pub fn shared(&self) -> &Arc<SharedState> {
        &self.shared
    }

    /// Stops accepting, notifies every live connection, and joins all
    /// server threads. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // The accept thread is gone, so no connection joins the
        // registry after this.
        let conns = std::mem::take(&mut *self.conns.lock().unwrap_or_else(PoisonError::into_inner));
        for socket in conns.iter().filter_map(|(_, socket)| socket.upgrade()) {
            let _ = socket.shutdown(Shutdown::Read);
        }
        for (thread, _) in conns {
            let _ = thread.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: &TcpListener,
    config: &ServeConfig,
    shared: &Arc<SharedState>,
    stop: &Arc<AtomicBool>,
    conns: &Conns,
    active: &Arc<AtomicUsize>,
) {
    while !stop.load(Ordering::SeqCst) {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => {
                // Any other error (out of descriptors, say) leaves the
                // pending connection queued: wait and try again.
                if e.kind() != ErrorKind::WouldBlock {
                    shared.proc().counter("proc.accept_errors").add(1);
                }
                std::thread::sleep(config.poll);
                continue;
            }
        };
        if active.load(Ordering::SeqCst) >= config.max_conns {
            shared.proc().counter("proc.conns_refused").add(1);
            refuse(stream);
            continue;
        }
        let socket = Arc::new(stream);
        let weak = Arc::downgrade(&socket);
        let slot = ConnSlot::take(active);
        shared.proc().counter("proc.conns_opened").add(1);
        let spawned = {
            let shared = Arc::clone(shared);
            let stop = Arc::clone(stop);
            let config = config.clone();
            std::thread::Builder::new()
                .name("kpa-serve-conn".to_string())
                .spawn(move || {
                    let _slot = slot;
                    serve_connection(&socket, &config, &shared, &stop);
                })
        };
        // A failed spawn drops the closure, which closes this one
        // socket and frees its slot.
        let Ok(thread) = spawned else { continue };
        let mut guard = conns.lock().expect("conns");
        // Reap finished connections so the registry stays proportional
        // to live connections, not history.
        guard.retain(|(thread, _)| !thread.is_finished());
        guard.push((thread, weak));
    }
}

/// One of the [`ServeConfig::max_conns`] connection slots, owned by
/// the connection's thread. Dropping it frees the slot, also when the
/// thread unwinds from a panic, so a failing session can never lock
/// later clients out.
struct ConnSlot(Arc<AtomicUsize>);

impl ConnSlot {
    fn take(active: &Arc<AtomicUsize>) -> ConnSlot {
        active.fetch_add(1, Ordering::SeqCst);
        ConnSlot(Arc::clone(active))
    }
}

impl Drop for ConnSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Refuse an over-limit connection with a structured goodbye.
fn refuse(stream: TcpStream) {
    let e = ProtoError::fatal(codes::SERVER_BUSY, "connection limit reached");
    let _ = send(&stream, &e.frame(None));
}

/// Sends one frame; `false` means the peer is gone.
fn send(mut stream: &TcpStream, frame: &json::Value) -> bool {
    let mut line = frame.to_json();
    line.push('\n');
    stream.write_all(line.as_bytes()).is_ok()
}

fn serve_connection(
    mut stream: &TcpStream,
    config: &ServeConfig,
    shared: &Arc<SharedState>,
    stop: &Arc<AtomicBool>,
) {
    // Some platforms hand out accepted sockets nonblocking, like the
    // listener; this thread blocks in `read`.
    if stream.set_nonblocking(false).is_err()
        || stream.set_read_timeout(Some(config.idle_timeout)).is_err()
        || stream.set_write_timeout(Some(config.idle_timeout)).is_err()
    {
        return;
    }
    let _ = stream.set_nodelay(true);
    let mut session = Session::open(Arc::clone(shared));
    let frame_ns = session.scope().histogram("session.frame_ns");
    let frame_win = session.scope().rolling("session.frame_ns");
    let proc_frame_ns = shared.proc().histogram("proc.frame_ns");
    let proc_frame_win = shared.proc().rolling("proc.frame_ns");

    let mut lines = LineBuf::default();
    let mut chunk = [0u8; 4096];

    loop {
        let read = stream.read(&mut chunk);
        // Shutdown wakes a blocked read; whatever the read returned,
        // the connection only says goodbye now.
        if stop.load(Ordering::SeqCst) {
            let e = ProtoError::fatal(codes::SHUTTING_DOWN, "server is shutting down");
            let _ = send(stream, &e.frame(None));
            return;
        }
        match read {
            Ok(0) => return, // peer closed (possibly mid-batch; nothing to do)
            Ok(n) => lines.push(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                shared.proc().counter("proc.idle_reaped").add(1);
                let e = ProtoError::fatal(codes::IDLE_TIMEOUT, "connection idle too long");
                let _ = send(stream, &e.frame(None));
                return;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
        // Handle every complete line in the buffer (pipelining).
        while let Some(line) = lines.next_line() {
            // Every frame gets a server-minted trace id: it is echoed
            // on the reply for correlation, and (while KPA_TRACE=1)
            // installed as the thread's ambient id so every span under
            // this frame stitches into one request tree.
            let trace_id = kpa_trace::next_trace_id();
            let _req = kpa_trace::ambient_guard(trace_id);
            let started = Instant::now();
            let done = handle_line(line, stream, &mut session, config, trace_id);
            let ns = started.elapsed().as_nanos() as u64;
            frame_ns.record(ns);
            frame_win.record(ns);
            proc_frame_ns.record(ns);
            proc_frame_win.record(ns);
            if done {
                return;
            }
        }
        if lines.pending() > config.max_frame {
            let e = ProtoError::fatal(
                codes::FRAME_TOO_LONG,
                format!(
                    "request line exceeds {} bytes without a newline",
                    config.max_frame
                ),
            );
            let _ = send(stream, &e.frame(None));
            return;
        }
    }
}

/// Stamps the frame's correlating `trace_id` (16 hex digits) before it
/// goes on the wire. Every reply to a received frame carries one —
/// success and error alike; only connection-level notices sent with no
/// request in flight (busy/idle/shutdown) go untagged.
fn tag(mut frame: json::Value, trace_id: kpa_trace::TraceId) -> json::Value {
    if let json::Value::Obj(m) = &mut frame {
        m.insert("trace_id".to_string(), json::Value::Str(trace_id.to_hex()));
    }
    frame
}

/// Processes one request line; `true` means the connection is done.
fn handle_line(
    raw: &[u8],
    stream: &TcpStream,
    session: &mut Session,
    config: &ServeConfig,
    trace_id: kpa_trace::TraceId,
) -> bool {
    // Tolerate CRLF clients and skip blank keepalive lines.
    let raw = if raw.last() == Some(&b'\r') {
        &raw[..raw.len() - 1]
    } else {
        raw
    };
    if raw.is_empty() {
        return false;
    }
    let text = match std::str::from_utf8(raw) {
        Ok(t) => t,
        Err(_) => {
            let e = ProtoError::fatal(codes::BAD_JSON, "request line is not UTF-8");
            let _ = send(stream, &tag(e.frame(None), trace_id));
            return true;
        }
    };
    let value = match json::parse(text) {
        Ok(v) => v,
        Err(err) => {
            let e = ProtoError::fatal(codes::BAD_JSON, err.to_string());
            let _ = send(stream, &tag(e.frame(None), trace_id));
            return true;
        }
    };
    let env = match decode(&value, config.max_batch) {
        Ok(env) => env,
        Err(e) => {
            let id = value.get("id").and_then(json::Value::as_int);
            let _ = send(stream, &tag(e.frame(id), trace_id));
            return e.fatal;
        }
    };
    let (frame, after) = session.handle(&env);
    if !send(stream, &tag(frame, trace_id)) {
        return true;
    }
    after == After::Close
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_connection_thread_frees_its_slot() {
        let active = Arc::new(AtomicUsize::new(0));
        let slot = ConnSlot::take(&active);
        assert_eq!(active.load(Ordering::SeqCst), 1);
        let joined = std::thread::spawn(move || {
            let _slot = slot;
            panic!("session failure");
        })
        .join();
        assert!(joined.is_err(), "the thread panicked");
        assert_eq!(
            active.load(Ordering::SeqCst),
            0,
            "the unwind freed the slot"
        );
    }
}
