//! # kpa-assign — probability assignments and their lattice
//!
//! Sections 5–6 of Halpern & Tuttle, *"Knowledge, Probability, and
//! Adversaries"* (JACM 40(4), 1993): the reduction of "choosing a
//! probability assignment" to "choosing a sample-space assignment", the
//! induced-space construction (Propositions 1–2), the four canonical
//! assignments (`post`, `fut`, `prior`, `opp(j)`), and the lattice
//! structure (Propositions 4–5).
//!
//! * [`Assignment`] — a sample-space assignment `S(i, c) = S_ic`;
//! * [`ProbAssignment`] — the induced probability assignment over a
//!   [`System`](kpa_system::System), with REQ1/REQ2 checking,
//!   consistency/standardness predicates, and (inner/outer) measures of
//!   facts;
//! * [`lattice`] — the order `≤`, Proposition 4's partition refinement,
//!   and Proposition 5's conditioning identity.
//!
//! # Examples
//!
//! The introduction's question — "what is the probability the coin
//! landed heads, after it has been tossed but not observed?" — and the
//! paper's two answers:
//!
//! ```
//! use kpa_measure::rat;
//! use kpa_system::{AgentId, PointId, ProtocolBuilder, TreeId};
//! use kpa_assign::{Assignment, ProbAssignment};
//!
//! let sys = ProtocolBuilder::new(["p1", "p2", "p3"])
//!     .coin("c", &[("h", rat!(1 / 2)), ("t", rat!(1 / 2))], &["p3"])
//!     .build()?;
//! let heads = sys.points_satisfying(sys.prop_id("c=h").unwrap());
//! let c = PointId { tree: TreeId(0), run: 0, time: 1 };
//! let p1 = AgentId(0);
//!
//! // Betting against p2 (same knowledge): probability 1/2.
//! let vs_p2 = ProbAssignment::new(&sys, Assignment::opp(AgentId(1)));
//! assert_eq!(vs_p2.prob(p1, c, &heads)?, rat!(1 / 2));
//!
//! // Betting against p3 (saw the coin): probability 0 or 1.
//! let vs_p3 = ProbAssignment::new(&sys, Assignment::opp(AgentId(2)));
//! assert_eq!(vs_p3.prob(p1, c, &heads)?, rat!(1));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dense;
mod error;
mod induced;
pub mod lattice;
mod memo;
pub mod plan;
mod sample;

pub use dense::DensePointSpace;
pub use error::AssignError;
pub use induced::{AssignCore, PointSpace, ProbAssignment};
pub use memo::Memo;
pub use plan::SamplePlan;
pub use sample::{Assignment, SampleFn};
