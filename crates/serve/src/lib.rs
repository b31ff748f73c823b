//! # kpa-serve — a concurrent model-checking service
//!
//! A long-running process that answers knowledge/probability queries
//! over TCP, built entirely from in-repo parts: [`ModelArtifact`]s
//! from `kpa-logic` for shared immutable models, a `Memo` from
//! `kpa-assign` for the cross-session artifact cache, and
//! [`Scope`]d metrics from `kpa-trace` for per-session and
//! process-wide statistics. No external dependencies — including the
//! JSON layer, which is this crate's own strict parser/writer
//! ([`json`]).
//!
//! ## Protocol (schema v1)
//!
//! Line-delimited JSON: one request object per `\n`-terminated line,
//! one response line per request, `"v": 1` on every request. See
//! [`proto`] for the op table, the error-code vocabulary, and the
//! fatal/recoverable split; DESIGN.md §3.2g is the prose version.
//!
//! ```text
//! → {"v":1,"op":"load","system":"secret-coin","assignment":"post"}
//! ← {"ok":true,"op":"load","agents":["p1","p2","p3"],...}
//! → {"v":1,"op":"query","queries":[{"kind":"holds","formula":"K[p3] c=h","point":[0,0,1]}]}
//! ← {"ok":true,"op":"query","results":[{"holds":true,"id":0}]}
//! ```
//!
//! Point sets travel as the underlying bitset words in hex — the
//! encoding that makes "server answer == local answer" a *bit*
//! identity, which `tests/serve_differential.rs` exercises with
//! concurrent clients against serial evaluation.
//!
//! ## Layers
//!
//! - [`json`] — strict, zero-dep JSON parse/serialize
//! - [`proto`] — typed schema v1 requests/responses/errors
//! - [`catalog`] — the named-system registry (shared with
//!   `kpa-explore`) and structural spec systems
//! - [`session`] — per-connection state, query evaluation, metrics
//! - [`server`] — TCP accept loop, framing, limits, shutdown
//! - [`client`] — the blocking client the CLI, tests, and soak bench
//!   share
//!
//! ## Quick start
//!
//! ```
//! use kpa_serve::{Client, ServeConfig, Server};
//!
//! let mut server = Server::bind(ServeConfig::default()).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! client.hello().unwrap();
//! client.load_named("secret-coin", "post").unwrap();
//! let results = client
//!     .query(&[kpa_serve::QueryItem {
//!         id: 1,
//!         kind: kpa_serve::QueryKind::Everywhere {
//!             formula: "c=h | !c=h".into(),
//!         },
//!     }])
//!     .unwrap();
//! assert_eq!(results.len(), 1);
//! client.bye().unwrap();
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod client;
pub mod json;
mod lines;
pub mod proto;
pub mod server;
pub mod session;

pub use catalog::{SpecRound, SystemSpec, SYSTEMS};
pub use client::{Client, ClientError};
pub use proto::{QueryItem, QueryKind, PROTO_VERSION};
pub use server::{ServeConfig, Server};
pub use session::SharedState;

// Re-export the pieces the doc examples above mention.
#[doc(no_inline)]
pub use kpa_logic::ModelArtifact;
#[doc(no_inline)]
pub use kpa_trace::Scope;
