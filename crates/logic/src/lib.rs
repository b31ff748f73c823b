//! # kpa-logic — knowledge, probability, and time
//!
//! The logical language `L(Φ)` of Halpern & Tuttle, *"Knowledge,
//! Probability, and Adversaries"* (JACM 40(4), 1993, Section 5), and a
//! model checker for it over finite systems:
//!
//! * [`Formula`] — propositions, booleans, `Kᵢ`, `Prᵢ(φ) ≥ α`
//!   (inner-measure semantics for nonmeasurable facts), temporal `◯` and
//!   `U`, plus derived `Kᵢ^α`, `Kᵢ^{[α,β]}`, `◇`, `□`, `E_G`, and the
//!   Section 8 fixed points `C_G`, `C_G^α`;
//! * [`ModelArtifact`] + [`EvalCtx`] — the immutable, `Send + Sync`
//!   evaluation artifact (system + assignment + memos), built
//!   once and shared as `Arc<ModelArtifact>` across query threads, with
//!   cheap per-thread contexts;
//! * [`Model`] — the classic borrowing facade over the same evaluator,
//!   checking against a [`ProbAssignment`](kpa_assign::ProbAssignment)
//!   and returning the exact set of satisfying points.
//!
//! ## Finite-trace semantics
//!
//! The paper's runs are infinite; this workspace truncates them at a
//! horizon (see `DESIGN.md`). Consequently `◯φ` is false at the horizon
//! and `φ U ψ` requires `ψ` to occur within the horizon. Every example
//! in the paper decides its facts within a bounded prefix, so this does
//! not affect any reproduced result.
//!
//! # Examples
//!
//! ```
//! use kpa_measure::rat;
//! use kpa_system::{AgentId, ProtocolBuilder};
//! use kpa_assign::{Assignment, ProbAssignment};
//! use kpa_logic::{Formula, Model};
//!
//! let sys = ProtocolBuilder::new(["p1", "p2"])
//!     .coin("c", &[("h", rat!(1 / 2)), ("t", rat!(1 / 2))], &["p1"])
//!     .build()?;
//! let post = ProbAssignment::new(&sys, Assignment::post());
//! let model = Model::new(&post);
//!
//! // p1 saw the toss: eventually it knows the outcome, one way or the other.
//! let p1 = AgentId(0);
//! let knows_outcome = Formula::or([
//!     Formula::prop("c=h").known_by(p1),
//!     Formula::prop("c=t").known_by(p1),
//! ]);
//! assert!(model.holds_everywhere(&knows_outcome.eventually())?);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod artifact;
mod compile;
mod error;
mod formula;
mod model;
mod parse;
mod proof;
pub mod theorems;

pub use artifact::{EvalCtx, ModelArtifact};
pub use compile::{CompiledFormula, FormulaArena, TermId};
pub use error::LogicError;
pub use formula::Formula;
pub use model::{Model, PointSet};
pub use parse::{parse_formula, parse_in, ParseFormulaError, MAX_FORMULA_DEPTH, MAX_FORMULA_NODES};
pub use proof::{Axiom, Line, Proof, ProofError, Step};
