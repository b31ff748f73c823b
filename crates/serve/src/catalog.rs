//! The system catalog: every named system a server (or `kpa-explore`)
//! can load, plus the `spec`-built protocol systems used by the
//! differential suites.
//!
//! A *system spec* is the textual form `name[:param]` — `ca1:4` is the
//! 4-messenger coordinated attack, `async-coins:6` the 6-toss system.
//! The catalog lives here (not in the CLI) so the service's `load`
//! op, `kpa-explore`, and the loopback tests all resolve names
//! through one table.
//!
//! Random-system differentials need systems no name denotes; for
//! those the protocol's `load` op accepts a structural `spec` object
//! (agents, adversaries, clockless mask, coin rounds), built by
//! [`build_spec_system`]. The shape mirrors the property-test
//! generator in `tests/common`, so a test can hand the server exactly
//! the system it just built locally.

use kpa_assign::Assignment;
use kpa_measure::Rat;
use kpa_protocols as protocols;
use kpa_system::{PointId, ProtocolBuilder, System, SystemError, TreeId};

use crate::proto::{codes, ProtoError};

/// The built-in system registry: name, description, default parameter.
pub const SYSTEMS: &[(&str, &str, usize)] = &[
    (
        "secret-coin",
        "p3 tosses a fair coin only it observes (introduction)",
        0,
    ),
    (
        "vardi",
        "input bit selects a fair or 2/3-biased coin (section 3)",
        0,
    ),
    (
        "footnote5",
        "the factored action-a system (section 3, footnote 5)",
        0,
    ),
    (
        "die",
        "a fair die observed by p1; p3 learns low/high (section 5)",
        0,
    ),
    (
        "ca1",
        "coordinated attack CA1 with <param> messengers (section 4)",
        10,
    ),
    (
        "ca2",
        "coordinated attack CA2 with <param> messengers (section 4)",
        10,
    ),
    (
        "ca1-adaptive",
        "the adaptive CA1 of section 8 with <param> messengers",
        10,
    ),
    (
        "async-coins",
        "<param> fair tosses; p1 clockless (section 7)",
        4,
    ),
    (
        "biased",
        "the 99/100-biased two-run system (end of section 7)",
        0,
    ),
    (
        "aces1",
        "Freund's two aces, reveal-spade protocol (appendix B.1)",
        0,
    ),
    (
        "aces2",
        "Freund's two aces, random-suit protocol (appendix B.1)",
        0,
    ),
    (
        "primality",
        "witness sampling for n=561 and n=13, <param> rounds",
        3,
    ),
];

/// Builds the system `spec` names (`name[:param]`).
///
/// # Errors
///
/// Unknown names, malformed parameters, and builder failures are
/// reported as human-readable strings (the CLI prints them verbatim;
/// the server wraps them in an `unknown_system` error frame).
pub fn build_system(spec: &str) -> Result<System, String> {
    let (name, param) = match spec.split_once(':') {
        Some((n, p)) => {
            let param = p
                .parse::<usize>()
                .map_err(|_| format!("bad parameter {p:?}"))?;
            (n, Some(param))
        }
        None => (spec, None),
    };
    let default = SYSTEMS
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, _, d)| *d)
        .ok_or_else(|| format!("unknown system {name:?}; try --list"))?;
    let p = param.unwrap_or(default);
    let half = Rat::new(1, 2);
    let sys = match name {
        "secret-coin" => protocols::secret_coin(),
        "vardi" => protocols::vardi_system(),
        "footnote5" => protocols::footnote5_factored(),
        "die" => protocols::die_system(),
        "ca1" => protocols::ca1(p.max(1) as u32, half),
        "ca2" => protocols::ca2(p.max(1) as u32, half),
        "ca1-adaptive" => protocols::ca1_adaptive(p.max(1) as u32, half),
        "async-coins" => protocols::async_coin_tosses(p.max(1)),
        "biased" => protocols::biased_two_run(),
        "aces1" => protocols::aces_protocol1(),
        "aces2" => protocols::aces_protocol2(),
        "primality" => protocols::primality_system(&[561, 13], p.max(1) as u32),
        _ => unreachable!("validated above"),
    };
    sys.map_err(|e| e.to_string())
}

/// One coin round of a structural system spec: a biased coin
/// `c<k>` observed by the agents whose bit is set in `observers`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecRound {
    /// Probability of heads, as an exact rational.
    pub bias: Rat,
    /// Bitmask over agent indices: agent `a` observes the coin iff
    /// bit `a` is set.
    pub observers: u8,
}

/// A structural system spec: the protocol-level description of a
/// random test system (the wire shape of the `load` op's `spec`
/// object).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemSpec {
    /// Number of agents (named `p1..pN`).
    pub agents: usize,
    /// Whether to add the two-adversary tree pair (`adv0`/`adv1`,
    /// seen by the first agent).
    pub two_adversaries: bool,
    /// Bitmask of clockless (asynchronous) agents.
    pub clockless_mask: u8,
    /// The coin rounds, in order.
    pub rounds: Vec<SpecRound>,
}

/// Maximum sizes accepted from the wire, so a client cannot ask the
/// server to materialize an enormous system.
pub const SPEC_MAX_AGENTS: usize = 6;
/// Maximum coin rounds accepted in a wire spec.
pub const SPEC_MAX_ROUNDS: usize = 6;

/// Builds the system a structural spec describes. Round `k` tosses
/// coin `c<k>`; propositions `c<k>=h` / `c<k>=t` are sticky.
///
/// # Errors
///
/// Rejects empty/oversized specs and non-probability biases before
/// building; builder errors are forwarded as strings.
pub fn build_spec_system(spec: &SystemSpec) -> Result<System, String> {
    spec_system(spec).map_err(|e| e.message)
}

/// [`build_spec_system`] with the error a `load` answers:
/// `arith_overflow` when a run probability overflows the exact
/// rationals, `unknown_system` for every other rejection.
pub(crate) fn spec_system(spec: &SystemSpec) -> Result<System, ProtoError> {
    let invalid = |m: String| ProtoError::recoverable(codes::UNKNOWN_SYSTEM, m);
    if spec.agents == 0 || spec.agents > SPEC_MAX_AGENTS {
        return Err(invalid(format!(
            "spec.agents must be 1..={SPEC_MAX_AGENTS}, got {}",
            spec.agents
        )));
    }
    if spec.rounds.is_empty() || spec.rounds.len() > SPEC_MAX_ROUNDS {
        return Err(invalid(format!(
            "spec.rounds must have 1..={SPEC_MAX_ROUNDS} rounds, got {}",
            spec.rounds.len()
        )));
    }
    let names: Vec<String> = (0..spec.agents).map(|a| format!("p{}", a + 1)).collect();
    let mut b = ProtocolBuilder::new(names.clone());
    for (a, name) in names.iter().enumerate() {
        if spec.clockless_mask & (1 << a) != 0 {
            b = b.clockless(name);
        }
    }
    if spec.two_adversaries {
        b = b.adversaries_seen_by(&["adv0", "adv1"], &[&names[0]]);
    }
    for (k, round) in spec.rounds.iter().enumerate() {
        if !round.bias.is_probability() {
            return Err(invalid(format!(
                "round {k}: bias {} is not in [0, 1]",
                round.bias
            )));
        }
        let observers: Vec<&str> = names
            .iter()
            .enumerate()
            .filter(|(a, _)| round.observers & (1 << a) != 0)
            .map(|(_, n)| n.as_str())
            .collect();
        b = b.coin(
            &format!("c{k}"),
            &[("h", round.bias), ("t", Rat::ONE - round.bias)],
            &observers,
        );
    }
    b.build().map_err(|e| {
        let code = match e {
            SystemError::ProbabilityOverflow { .. } => codes::ARITH_OVERFLOW,
            _ => codes::UNKNOWN_SYSTEM,
        };
        ProtoError::recoverable(code, e.to_string())
    })
}

/// Resolves an assignment spec (`post`, `fut`, `prior`, `opp:<agent>`)
/// against a system.
///
/// # Errors
///
/// Unknown shapes and unknown agent names are reported as strings.
pub fn build_assignment(spec: &str, sys: &System) -> Result<Assignment, String> {
    match spec {
        "post" => Ok(Assignment::post()),
        "fut" => Ok(Assignment::fut()),
        "prior" => Ok(Assignment::prior()),
        other => match other.strip_prefix("opp:") {
            Some(name) => sys
                .agent_id(name)
                .map(Assignment::opp)
                .ok_or_else(|| format!("unknown agent {name:?}")),
            None => Err(format!(
                "unknown assignment {other:?}; use post, fut, prior, or opp:<agent>"
            )),
        },
    }
}

/// Parses and validates a `tree,run,time` point reference.
///
/// # Errors
///
/// Malformed triples and out-of-range components are reported as
/// strings.
pub fn parse_point(spec: &str, sys: &System) -> Result<PointId, String> {
    let parts: Vec<&str> = spec.split(',').collect();
    if parts.len() != 3 {
        return Err(format!("expected tree,run,time; got {spec:?}"));
    }
    let parse = |s: &str| {
        s.trim()
            .parse::<usize>()
            .map_err(|_| format!("bad number {s:?}"))
    };
    point_in(sys, parse(parts[0])?, parse(parts[1])?, parse(parts[2])?)
}

/// Validates a `(tree, run, time)` triple against a system's shape.
///
/// # Errors
///
/// Out-of-range components are reported as strings.
pub fn point_in(sys: &System, tree: usize, run: usize, time: usize) -> Result<PointId, String> {
    if tree >= sys.tree_count() {
        return Err(format!("tree {tree} out of range (< {})", sys.tree_count()));
    }
    let t = sys.tree(TreeId(tree));
    if run >= t.runs().len() {
        return Err(format!("run {run} out of range (< {})", t.runs().len()));
    }
    if time > sys.horizon() {
        return Err(format!("time {time} out of range (<= {})", sys.horizon()));
    }
    Ok(PointId {
        tree: TreeId(tree),
        run,
        time,
    })
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
        assert!(build_assignment("fut", &sys).is_ok());
        assert!(build_assignment("prior", &sys).is_ok());
        assert!(build_assignment("opp:p3", &sys).is_ok());
        assert!(build_assignment("opp:nobody", &sys).is_err());
        assert!(build_assignment("bogus", &sys).is_err());
        assert!(parse_point("0,0,1", &sys).is_ok());
        assert!(parse_point("9,0,1", &sys).is_err());
        assert!(parse_point("0,9,1", &sys).is_err());
        assert!(parse_point("0,0,9", &sys).is_err());
        assert!(parse_point("0,0", &sys).is_err());
    }

    #[test]
    fn spec_systems_build_and_validate() {
        let spec = SystemSpec {
            agents: 2,
            two_adversaries: true,
            clockless_mask: 1,
            rounds: vec![
                SpecRound {
                    bias: Rat::new(1, 3),
                    observers: 0b01,
                },
                SpecRound {
                    bias: Rat::new(1, 2),
                    observers: 0b10,
                },
            ],
        };
        let sys = build_spec_system(&spec).unwrap();
        assert_eq!(sys.agent_count(), 2);
        assert!(sys.prop_id("c0=h").is_some());
        assert!(sys.prop_id("c1=h").is_some());
        assert!(!sys.is_synchronous());

        let mut bad = spec.clone();
        bad.agents = 0;
        assert!(build_spec_system(&bad).is_err());
        bad.agents = SPEC_MAX_AGENTS + 1;
        assert!(build_spec_system(&bad).is_err());
        let mut bad = spec.clone();
        bad.rounds.clear();
        assert!(build_spec_system(&bad).is_err());
        let mut bad = spec;
        bad.rounds[0].bias = Rat::new(3, 2);
        assert!(build_spec_system(&bad).is_err());
    }
}
