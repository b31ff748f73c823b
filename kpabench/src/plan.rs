//! The three workloads as seeded, fixed-length request streams.
//!
//! Everything here is a pure function of the seed and the stream
//! length, so every run with one seed sends the program the same
//! frames and formulas, in the same order. A worker process therefore
//! regenerates the stream itself and keeps its own slice of it; only
//! the oracle's digests are passed to it.

use std::collections::{BTreeMap, BTreeSet};

use kpa_measure::Rat;
use kpa_serve::catalog::{build_assignment, build_spec_system, build_system};
use kpa_serve::{QueryKind, SpecRound, SystemSpec};
use kpa_system::{System, TreeId};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WireHot,
    EvalCold,
    SessionChurn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::WireHot,
        Workload::EvalCold,
        Workload::SessionChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WireHot => "wire_hot",
            Workload::EvalCold => "eval_cold",
            Workload::SessionChurn => "session_churn",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Independent worker processes a run of `samples` is split among,
    /// one after another; each gets its own address-space layout, so no
    /// single layout decides a run's figures. Frame and call workloads
    /// give each worker at least [`MIN_SAMPLES`], so each worker's own
    /// p99 has ten samples beyond it; `session_churn`, with about 25 ms
    /// per session, pools six workers into one group.
    pub fn workers(self, samples: usize) -> usize {
        match self {
            Workload::WireHot | Workload::EvalCold => (samples / MIN_SAMPLES).max(1),
            Workload::SessionChurn => 6,
        }
    }

    /// Latency samples (frames, calls or sessions) per second of
    /// `--seconds`, as measured at the commit that introduced the
    /// benchmark. It fixes the stream length, so one run does the same
    /// work on every commit; a faster commit finishes sooner.
    pub fn nominal_rate(self) -> f64 {
        match self {
            Workload::WireHot => 1200.0,
            Workload::EvalCold => 1000.0,
            Workload::SessionChurn => 76.0,
        }
    }
}

/// Enough samples that the p99 has at least ten beyond it.
pub const MIN_SAMPLES: usize = 1010;

/// Stream length for `seconds` of a workload.
pub fn samples(workload: Workload, seconds: u64) -> usize {
    ((seconds as f64 * workload.nominal_rate()).ceil() as usize).max(MIN_SAMPLES)
}

/// SplitMix64: the benchmark's own generator, so its inputs never move
/// when the program's code changes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6b70_615f_6265_6e63)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn chance(&mut self, num: usize, den: usize) -> bool {
        self.below(den) < num
    }

    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len())]
    }

    /// A skewed draw from `0..n`: index `k` has weight `1 / (k + 1)`.
    pub fn zipf(&mut self, n: usize) -> usize {
        let total: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
        let mut u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total;
        for k in 0..n {
            u -= 1.0 / (k + 1) as f64;
            if u < 0.0 {
                return k;
            }
        }
        n - 1
    }
}

/// A system a session pins: a catalog name or a structural spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Target {
    Named { system: String, assignment: String },
    Spec(SystemSpec),
}

impl Target {
    fn named(system: &str, assignment: &str) -> Target {
        Target::Named {
            system: system.into(),
            assignment: assignment.into(),
        }
    }

    pub fn assignment(&self) -> &str {
        match self {
            Target::Named { assignment, .. } => assignment,
            Target::Spec(_) => "post",
        }
    }

    /// Builds the system through the catalog, as a server's `load` does.
    pub fn build(&self) -> Result<System, String> {
        match self {
            Target::Named { system, .. } => build_system(system),
            Target::Spec(spec) => build_spec_system(spec),
        }
    }

    pub fn build_with_assignment(&self) -> Result<(System, kpa_assign::Assignment), String> {
        let sys = self.build()?;
        let assignment = build_assignment(self.assignment(), &sys)?;
        Ok((sys, assignment))
    }
}

/// One distinct query: the target it is asked of, the oracle's digest
/// of its answer, and the ask itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Item {
    pub target: usize,
    pub expect: u64,
    pub kind: QueryKind,
}

/// A worker's whole input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    pub workload: Workload,
    pub traced: bool,
    pub targets: Vec<Target>,
    /// Targets built before the first timed request (`--preload`).
    pub preload: Vec<usize>,
    /// Distinct items by index.
    pub items: BTreeMap<usize, Item>,
    /// Untimed frames sent during set-up (the `wire_hot` warm-up).
    pub warm: Vec<Vec<usize>>,
    /// Timed frames: `wire_hot` batches, `eval_cold` single calls (one
    /// block of distinct calls per worker, the same block for each).
    pub frames: Vec<Vec<usize>>,
    /// Timed sessions: the target to load and the one batch to send.
    pub sessions: Vec<(usize, Vec<usize>)>,
}

fn atom(rng: &mut Rng, props: &[String]) -> String {
    let p = rng.pick(props);
    let bare = p
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || "_=:.+-".contains(c));
    let p = if bare { p.clone() } else { format!("\"{p}\"") };
    if rng.chance(1, 4) {
        format!("!{p}")
    } else {
        p
    }
}

/// A random boolean combination of propositions, at most `depth`
/// connectives deep.
fn body(rng: &mut Rng, props: &[String], depth: usize) -> String {
    if depth == 0 || rng.chance(3, 10) {
        return atom(rng, props);
    }
    let op = if rng.chance(1, 2) { "&" } else { "|" };
    let (l, r) = (body(rng, props, depth - 1), body(rng, props, depth - 1));
    if rng.chance(1, 6) {
        format!("!({l} {op} {r})")
    } else {
        format!("({l} {op} {r})")
    }
}

/// A full boolean tree, `depth` connectives on every path. All
/// `wire_hot` templates take this shape, so request size and parse work
/// do not depend on which templates a seed's skewed draw favours.
fn full_body(rng: &mut Rng, props: &[String], depth: usize) -> String {
    if depth == 0 {
        return atom(rng, props);
    }
    let op = if rng.chance(1, 2) { "&" } else { "|" };
    let (l, r) = (
        full_body(rng, props, depth - 1),
        full_body(rng, props, depth - 1),
    );
    format!("({l} {op} {r})")
}

fn alpha(rng: &mut Rng) -> Rat {
    let den = 2 + rng.below(15) as i128;
    Rat::new(1 + rng.below(den as usize - 1) as i128, den)
}

fn alphas(rng: &mut Rng) -> Vec<Rat> {
    let mut set = BTreeSet::new();
    while set.len() < 5 {
        set.insert(alpha(rng));
    }
    set.into_iter().collect()
}

fn point(rng: &mut Rng, sys: &System) -> (usize, usize, usize) {
    let tree = rng.below(sys.tree_count());
    let runs = sys.tree(TreeId(tree)).runs().len();
    (tree, rng.below(runs), rng.below(sys.horizon() + 1))
}

fn props(sys: &System) -> Vec<String> {
    sys.prop_names().into_iter().map(str::to_string).collect()
}

fn agents(sys: &System) -> Vec<String> {
    sys.agents().to_vec()
}

/// One `wire_hot` query template over `async-coins:8`. Template `k`
/// has kind `k % 6` in this order, so the skewed draw gives every seed
/// the same expected mix of kinds, and so the same mean reply size
/// (about 5.6 KB per batch of 8: point sets are fixed-width words).
fn wire_item(
    k: usize,
    rng: &mut Rng,
    sys: &System,
    props: &[String],
    agents: &[String],
) -> QueryKind {
    let a = rng.pick(agents).clone();
    let f = full_body(rng, props, 2);
    match k % 6 {
        0 => QueryKind::Holds {
            formula: format!("Pr{{{a}}}({f}) >= {}", alpha(rng)),
            point: point(rng, sys),
        },
        1 => QueryKind::Sat {
            formula: if rng.chance(1, 2) {
                format!("K{{{a}}} {f}")
            } else {
                format!("<>{f}")
            },
        },
        2 => QueryKind::Interval {
            agent: a,
            point: point(rng, sys),
            formula: f,
        },
        3 => QueryKind::Knows {
            agent: a,
            formula: f,
        },
        4 => QueryKind::PrGe {
            agent: a,
            alpha: alpha(rng),
            formula: f,
        },
        _ => QueryKind::PrGeFamily {
            agent: a,
            alphas: alphas(rng),
            formula: f,
        },
    }
}

/// One fresh `eval_cold` call over `async-coins:11`.
fn cold_item(rng: &mut Rng, props: &[String], agents: &[String]) -> QueryKind {
    let a = rng.pick(agents).clone();
    let f = body(rng, props, 3);
    let formula = match rng.below(10) {
        0..=2 => format!("Pr{{{a}}}({f}) >= {}", alpha(rng)),
        3 | 4 => format!("K{{{a}}}^{} {f}", alpha(rng)),
        5 | 6 => format!("K{{{a}}}({f} | {})", body(rng, props, 3)),
        7 => format!("C{{p1,p2}}({f} | {})", body(rng, props, 3)),
        _ => {
            return QueryKind::PrGeFamily {
                agent: a,
                alphas: alphas(rng),
                formula: f,
            }
        }
    };
    QueryKind::Sat { formula }
}

/// One small-reply `session_churn` item.
fn churn_item(rng: &mut Rng, sys: &System, props: &[String], agents: &[String]) -> QueryKind {
    let a = rng.pick(agents).clone();
    let f = body(rng, props, 2);
    match rng.below(3) {
        0 => QueryKind::Holds {
            formula: format!("K{{{a}}} {f}"),
            point: point(rng, sys),
        },
        1 => QueryKind::Everywhere {
            formula: format!("{f} | Pr{{{a}}}({f}) >= 1/2"),
        },
        _ => QueryKind::Interval {
            agent: a,
            point: point(rng, sys),
            formula: f,
        },
    }
}

/// The catalog pairs `session_churn` draws from, most popular first.
/// The preloaded head includes the larger `async-coins` systems, so
/// set-up does tens of milliseconds of real build work; the tail mixes
/// small systems with assignments that are built on first use.
const CHURN_TARGETS: &[(&str, &str)] = &[
    ("async-coins:10", "post"),
    ("secret-coin", "post"),
    ("async-coins:8", "post"),
    ("die", "post"),
    ("ca1", "post"),
    ("async-coins:9", "fut"),
    ("vardi", "post"),
    ("aces1", "post"),
    ("ca2", "post"),
    ("secret-coin", "opp:p1"),
    ("footnote5", "post"),
    ("aces2", "post"),
    ("async-coins:7", "prior"),
    ("die", "prior"),
    ("ca1-adaptive", "post"),
    ("vardi", "fut"),
    ("primality", "post"),
    ("async-coins:6", "post"),
    ("die", "opp:p3"),
    ("aces1", "opp:p2"),
];

/// How many of the most popular catalog pairs set-up preloads.
const CHURN_PRELOAD: usize = 6;

/// Query templates per catalog pair: repeats land in warm memos.
const CHURN_POOL: usize = 12;

fn fresh_spec(rng: &mut Rng) -> SystemSpec {
    let agents = 2 + rng.below(2);
    let biases = [Rat::new(1, 3), Rat::new(1, 2), Rat::new(2, 3)];
    SystemSpec {
        agents,
        two_adversaries: rng.chance(1, 2),
        clockless_mask: if rng.chance(1, 3) { 1 } else { 0 },
        rounds: (0..1 + rng.below(3))
            .map(|_| SpecRound {
                bias: *rng.pick(&biases),
                observers: rng.below(1 << agents) as u8,
            })
            .collect(),
    }
}

/// The whole seeded stream of a workload (before it is split among
/// worker processes). Item digests are filled in by the oracle.
pub fn generate(workload: Workload, seed: u64, samples: usize) -> Result<Plan, String> {
    let mut rng = Rng::new(seed);
    let mut plan = Plan {
        workload,
        traced: false,
        targets: Vec::new(),
        preload: Vec::new(),
        items: BTreeMap::new(),
        warm: Vec::new(),
        frames: Vec::new(),
        sessions: Vec::new(),
    };
    let add = |plan: &mut Plan, target: usize, kind: QueryKind| {
        let idx = plan.items.len();
        plan.items.insert(
            idx,
            Item {
                target,
                expect: 0,
                kind,
            },
        );
        idx
    };
    match workload {
        Workload::WireHot => {
            plan.targets.push(Target::named("async-coins:8", "post"));
            let sys = plan.targets[0].build()?;
            let (props, agents) = (props(&sys), agents(&sys));
            let mut seen = BTreeSet::new();
            while plan.items.len() < 64 {
                let kind = wire_item(plan.items.len(), &mut rng, &sys, &props, &agents);
                if seen.insert(format!("{kind:?}")) {
                    add(&mut plan, 0, kind);
                }
            }
            plan.warm = (0..64)
                .collect::<Vec<_>>()
                .chunks(8)
                .map(<[_]>::to_vec)
                .collect();
            plan.frames = (0..samples)
                .map(|_| (0..8).map(|_| rng.zipf(64)).collect())
                .collect();
        }
        Workload::EvalCold => {
            plan.targets.push(Target::named("async-coins:11", "post"));
            let sys = plan.targets[0].build()?;
            let (props, agents) = (props(&sys), agents(&sys));
            // One block of distinct calls, replayed by every worker on
            // its own fresh artifact, so every call still misses the
            // caches while the oracle answers each call once per run
            // instead of once per worker.
            let workers = workload.workers(samples);
            let block = samples / workers;
            let mut seen = BTreeSet::new();
            while plan.items.len() < block {
                let kind = cold_item(&mut rng, &props, &agents);
                if seen.insert(format!("{kind:?}")) {
                    add(&mut plan, 0, kind);
                }
            }
            plan.frames = (0..workers)
                .flat_map(|_| (0..block).map(|i| vec![i]))
                .collect();
        }
        Workload::SessionChurn => {
            let mut pools = Vec::new();
            for (k, &(system, assignment)) in CHURN_TARGETS.iter().enumerate() {
                plan.targets.push(Target::named(system, assignment));
                let sys = plan.targets[k].build()?;
                let (props, agents) = (props(&sys), agents(&sys));
                let pool: Vec<usize> = (0..CHURN_POOL)
                    .map(|_| {
                        let kind = churn_item(&mut rng, &sys, &props, &agents);
                        add(&mut plan, k, kind)
                    })
                    .collect();
                pools.push(pool);
            }
            plan.preload = (0..CHURN_PRELOAD).collect();
            let mut specs = BTreeSet::new();
            for _ in 0..samples {
                if rng.chance(1, 4) {
                    let spec = loop {
                        let spec = fresh_spec(&mut rng);
                        if specs.insert(format!("{spec:?}")) {
                            break spec;
                        }
                    };
                    let target = plan.targets.len();
                    plan.targets.push(Target::Spec(spec));
                    let sys = plan.targets[target].build()?;
                    let (props, agents) = (props(&sys), agents(&sys));
                    let batch = (0..4)
                        .map(|_| {
                            let kind = churn_item(&mut rng, &sys, &props, &agents);
                            add(&mut plan, target, kind)
                        })
                        .collect();
                    plan.sessions.push((target, batch));
                } else {
                    let target = rng.zipf(CHURN_TARGETS.len());
                    let batch = (0..4).map(|_| *rng.pick(&pools[target])).collect();
                    plan.sessions.push((target, batch));
                }
            }
        }
    }
    Ok(plan)
}

impl Plan {
    /// Worker processes a run of this stream is split among.
    pub fn worker_count(&self) -> usize {
        self.workload
            .workers(self.frames.len() + self.sessions.len())
    }

    /// Slice `k` of `n` contiguous slices of the timed stream, one per
    /// worker process; it carries only the items it uses.
    pub fn slice(&self, n: usize, k: usize) -> Plan {
        let cut = |len: usize| (len * k / n, len * (k + 1) / n);
        let (a, b) = cut(self.frames.len());
        let (c, d) = cut(self.sessions.len());
        let frames = self.frames[a..b].to_vec();
        let sessions = self.sessions[c..d].to_vec();
        let used: BTreeSet<usize> = self
            .warm
            .iter()
            .chain(&frames)
            .flatten()
            .chain(sessions.iter().flat_map(|(_, b)| b))
            .copied()
            .collect();
        Plan {
            workload: self.workload,
            traced: self.traced,
            targets: self.targets.clone(),
            preload: self.preload.clone(),
            items: used.iter().map(|&i| (i, self.items[&i].clone())).collect(),
            warm: self.warm.clone(),
            frames,
            sessions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_pure_functions_of_the_seed() {
        for w in Workload::ALL {
            let a = generate(w, 7, 40).unwrap();
            let b = generate(w, 7, 40).unwrap();
            let c = generate(w, 8, 40).unwrap();
            assert_eq!(a, b, "{}", w.name());
            assert_ne!(a, c, "{}", w.name());
        }
    }

    #[test]
    fn slices_cover_the_stream_in_order() {
        for w in Workload::ALL {
            let plan = generate(w, 3, 30).unwrap();
            let parts: Vec<Plan> = (0..4).map(|k| plan.slice(4, k)).collect();
            let frames: Vec<_> = parts.iter().flat_map(|p| p.frames.clone()).collect();
            let sessions: Vec<_> = parts.iter().flat_map(|p| p.sessions.clone()).collect();
            assert_eq!(frames, plan.frames);
            assert_eq!(sessions, plan.sessions);
            for p in &parts {
                let used = p.frames.iter().chain(&p.warm).flatten();
                let used = used.chain(p.sessions.iter().flat_map(|(_, b)| b));
                assert!(used.into_iter().all(|i| p.items[i] == plan.items[i]));
            }
        }
    }

    #[test]
    fn every_eval_cold_worker_replays_one_block_of_distinct_calls() {
        for (samples, workers, block) in [(300, 1, 300), (2500, 2, 1250), (3100, 3, 1033)] {
            let plan = generate(Workload::EvalCold, 11, samples).unwrap();
            let kinds: BTreeSet<String> = plan
                .items
                .values()
                .map(|i| format!("{:?}", i.kind))
                .collect();
            assert_eq!(kinds.len(), block);
            assert_eq!(plan.worker_count(), workers);
            for k in 0..workers {
                let calls: Vec<usize> = plan.slice(workers, k).frames.concat();
                assert_eq!(calls, (0..block).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn zipf_is_skewed_towards_low_indices() {
        let mut rng = Rng::new(1);
        let mut hits = [0usize; 64];
        for _ in 0..20_000 {
            hits[rng.zipf(64)] += 1;
        }
        assert!(hits[0] > hits[7] && hits[7] > hits[63]);
        assert!(hits.iter().all(|&h| h > 0));
    }
}
