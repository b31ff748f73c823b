//! Shared generators for the cross-crate integration tests: random
//! protocol-shaped systems for property testing the paper's theorems.
//!
//! Generation is driven by the in-repo deterministic [`Rng64`] — every
//! run explores the same inputs, and the `fuzz` feature widens the
//! sweep. Each case derives its RNG stream from the property name and
//! case index, so failures are replayable by construction and adding a
//! property never shifts another property's inputs.
#![allow(dead_code)] // each test binary uses a subset of the helpers

use kpa::measure::{Rat, Rng64};
use kpa::system::{ProtocolBuilder, System};

/// Cases per property: a quick deterministic sweep by default, a deep
/// one under `--features fuzz`. Building whole systems per case keeps
/// the default modest.
pub const CASES: usize = if cfg!(feature = "fuzz") { 128 } else { 24 };

/// The per-property FNV-1a stream tag: the root of every case seed for
/// `name`. Stable across sharding, case-count changes, and new
/// properties — adding a property never shifts another's inputs.
pub fn stream_tag(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The seed of case `case` of property `name`. [`cases`] and
/// [`cases_sharded`] both derive their RNGs from exactly this value, so
/// the two sweeps explore identical inputs case-for-case (pinned by
/// `seed_streams_are_pinned` in `tests/random_systems.rs`).
pub fn case_seed(name: &str, case: usize) -> u64 {
    stream_tag(name) ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Runs `body` for [`CASES`] seeded cases, one private RNG stream each.
pub fn cases(name: &str, mut body: impl FnMut(&mut Rng64)) {
    for case in 0..CASES {
        let mut rng = Rng64::new(case_seed(name, case));
        body(&mut rng);
    }
}

/// Like [`cases`], but splits the case range across `RUST_TEST_THREADS`
/// std workers (default: available parallelism) so the `--features
/// fuzz` sweeps scale with the machine. Each case keeps the exact seed
/// [`cases`] would give it — sharding redistributes *work*, never
/// *inputs* — so a failure reproduces under plain [`cases`] too.
pub fn cases_sharded(name: &str, body: impl Fn(&mut Rng64) + Sync) {
    let workers = std::env::var("RUST_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        .min(CASES.max(1));
    if workers <= 1 {
        for case in 0..CASES {
            body(&mut Rng64::new(case_seed(name, case)));
        }
        return;
    }
    // Contiguous blocks per worker: worker w sweeps cases
    // [w·CASES/workers, (w+1)·CASES/workers). Block boundaries are a
    // pure function of (CASES, workers) and every case's seed is a pure
    // function of (name, case), so no reseeding collisions are possible.
    std::thread::scope(|scope| {
        for w in 0..workers {
            let body = &body;
            let lo = w * CASES / workers;
            let hi = (w + 1) * CASES / workers;
            scope.spawn(move || {
                for case in lo..hi {
                    body(&mut Rng64::new(case_seed(name, case)));
                }
            });
        }
    });
}

/// One probabilistic round: a coin with one of a few biases, observed
/// by a subset of the agents (bitmask).
#[derive(Debug, Clone)]
pub struct RoundSpec {
    pub bias_index: usize,
    pub observers: u8,
}

/// A whole random system: 2–3 agents, optionally two type-1 adversary
/// trees, and 1–3 coin rounds.
#[derive(Debug, Clone)]
pub struct SystemSpec {
    pub agents: usize,
    pub two_adversaries: bool,
    pub rounds: Vec<RoundSpec>,
    pub clockless_mask: u8,
}

pub const BIASES: [(i128, i128); 4] = [(1, 2), (1, 3), (2, 3), (1, 4)];

pub fn arb_round(rng: &mut Rng64) -> RoundSpec {
    RoundSpec {
        bias_index: rng.index(BIASES.len()),
        observers: rng.next_u64() as u8,
    }
}

/// A specification for a *synchronous* random system (everyone clocked).
pub fn arb_sync_spec(rng: &mut Rng64) -> SystemSpec {
    let agents = 2 + rng.index(2);
    let two_adversaries = rng.chance(1, 2);
    let rounds = (0..1 + rng.index(3)).map(|_| arb_round(rng)).collect();
    SystemSpec {
        agents,
        two_adversaries,
        rounds,
        clockless_mask: 0,
    }
}

/// A specification where some agents may be clockless (asynchronous).
pub fn arb_async_spec(rng: &mut Rng64) -> SystemSpec {
    let mut spec = arb_sync_spec(rng);
    spec.clockless_mask = 1 + rng.next_u64() as u8 % 3;
    spec
}

/// Builds the system a spec describes. Round `k` tosses coin `c<k>`
/// with the chosen bias; agent `a` observes it iff bit `a` of
/// `observers` is set. Propositions `c<k>=h` / `c<k>=t` are sticky.
pub fn build(spec: &SystemSpec) -> System {
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
        let (n, d) = BIASES[round.bias_index];
        let observers: Vec<&str> = names
            .iter()
            .enumerate()
            .filter(|(a, _)| round.observers & (1 << a) != 0)
            .map(|(_, n)| n.as_str())
            .collect();
        b = b.coin(
            &format!("c{k}"),
            &[("h", Rat::new(n, d)), ("t", Rat::new(d - n, d))],
            &observers,
        );
    }
    b.build()
        .expect("random specs always describe valid systems")
}

/// The proposition names a spec's system defines (one per round).
pub fn prop_names(spec: &SystemSpec) -> Vec<String> {
    (0..spec.rounds.len()).map(|k| format!("c{k}=h")).collect()
}
