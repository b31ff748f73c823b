//! Differential suite for the shared `Arc<ModelArtifact>` query path.
//!
//! The artifact/context split (DESIGN §3.2f) promises that M threads
//! hammering one immutable [`ModelArtifact`] — racing on its sharded
//! formula cache, `knows_set` memo, `Pr` memo, and write-once plan
//! table — produce satisfaction sets *bit-identical* to a serial
//! [`Model`] facade evaluation over the same system. These tests hold
//! it to that promise on the paper's walkthrough systems and on random
//! sync/async systems.
//!
//! The client threads deliberately overlap: every thread evaluates the
//! *same* formula family in a different order, so shard-map races
//! (double builds, first-insert-wins) actually happen and must stay
//! invisible.

mod common;

use common::{arb_async_spec, arb_sync_spec, build, cases, prop_names};
use kpa::assign::{Assignment, ProbAssignment};
use kpa::logic::{Formula, Model, ModelArtifact};
use kpa::measure::{rat, Rat};
use kpa::protocols::{async_coin_tosses, ca1, secret_coin};
use kpa::system::{AgentId, System};
use std::sync::Arc;

/// Client threads per artifact: enough to race every shard map.
const CLIENTS: usize = 4;

/// A mixed sat/`Pr ≥ α` formula family with deliberate subterm overlap
/// (`K_i φ` alone and inside `C_G φ`, two thresholds over one body) so
/// concurrent clients collide on memo keys, not just formulas.
fn formula_family(sys: &System, props: &[String]) -> Vec<Formula> {
    let p = Formula::prop(&props[0]);
    let q = Formula::prop(props.last().expect("at least one prop"));
    let a0 = AgentId(0);
    let a1 = AgentId(sys.agent_count().saturating_sub(1));
    let group: Vec<AgentId> = (0..sys.agent_count()).map(AgentId).collect();
    vec![
        p.clone(),
        p.clone().known_by(a0),
        p.clone().known_by(a0).common(group.iter().copied()),
        p.clone().pr_ge(a0, rat!(1 / 4)),
        p.clone().pr_ge(a0, rat!(3 / 4)),
        p.clone().k_alpha(a1, rat!(1 / 2)),
        q.clone().eventually(),
        q.clone().not().until(p.clone()),
        Formula::or([p.clone(), q.clone()]).common_alpha(group.iter().copied(), rat!(1 / 2)),
        Formula::and([p, q]).known_by(a1),
    ]
}

/// Serial ground truth: the borrowing `Model` facade over the same
/// system, word vectors per formula.
fn serial_words(sys: &System, assignment: &Assignment, family: &[Formula]) -> Vec<Vec<u64>> {
    let pa = ProbAssignment::new(sys, assignment.clone());
    let model = Model::new(&pa);
    family
        .iter()
        .map(|f| {
            model
                .sat(f)
                .expect("serial model checks")
                .as_words()
                .to_vec()
        })
        .collect()
}

/// Spawns [`CLIENTS`] threads against one shared artifact. Every client
/// evaluates the whole family (rotated so no two clients agree on the
/// order) and returns its word vectors in family order; the caller
/// asserts bit-equality with the serial facade.
fn hammer_artifact(artifact: &Arc<ModelArtifact>, family: &[Formula]) -> Vec<Vec<Vec<u64>>> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let artifact = Arc::clone(artifact);
                let family = family.to_vec();
                scope.spawn(move || {
                    let ctx = artifact.ctx();
                    let n = family.len();
                    let mut words = vec![Vec::new(); n];
                    for k in 0..n {
                        let i = (k + client) % n;
                        words[i] = ctx
                            .sat(&family[i])
                            .expect("shared model checks")
                            .as_words()
                            .to_vec();
                    }
                    assert_eq!(ctx.queries(), n as u64);
                    words
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    })
}

fn assert_shared_matches_serial(sys: &System, assignment: Assignment, family: &[Formula]) {
    let expected = serial_words(sys, &assignment, family);
    let artifact = Arc::new(ModelArtifact::new(
        Arc::new(sys.clone()),
        assignment.clone(),
    ));
    for (client, words) in hammer_artifact(&artifact, family).into_iter().enumerate() {
        for (f, (got, want)) in family.iter().zip(words.iter().zip(expected.iter())) {
            assert_eq!(
                got, want,
                "client {client} diverged from the serial facade on {f} under {assignment:?}"
            );
        }
    }
    // The clients warmed the shared memos: later contexts answer from
    // the same `Arc`s the racing threads inserted.
    assert!(artifact.sat_cache_len() >= family.len());
    assert_eq!(artifact.plans_built(), sys.agent_count());
}

/// The compile-time contract, restated as a test so it shows up in
/// `--list`: one artifact may be shared by reference across threads.
#[test]
fn artifact_is_send_and_sync() {
    fn require<T: Send + Sync>() {}
    require::<ModelArtifact>();
    require::<Arc<ModelArtifact>>();
}

/// Walkthrough systems: the paper's secret coin, asynchronous coin
/// tosses, and coordinated attack, each hammered by [`CLIENTS`]
/// threads.
#[test]
fn walkthrough_queries_match_the_serial_facade() {
    let coin = secret_coin().expect("builds");
    let coin_props: Vec<String> = vec!["c=h".into(), "c=t".into()];
    assert_shared_matches_serial(
        &coin,
        Assignment::post(),
        &formula_family(&coin, &coin_props),
    );

    let tosses = async_coin_tosses(4).expect("builds");
    let tosses_props: Vec<String> = vec!["recent=h".into(), "c0=h".into()];
    assert_shared_matches_serial(
        &tosses,
        Assignment::post(),
        &formula_family(&tosses, &tosses_props),
    );

    let attack = ca1(3, Rat::new(1, 2)).expect("builds");
    let attack_props: Vec<String> = vec!["coordinated".into(), "A-attacks".into()];
    assert_shared_matches_serial(
        &attack,
        Assignment::post(),
        &formula_family(&attack, &attack_props),
    );
}

/// Property: on random sync/async systems under every canonical
/// assignment shape, concurrent artifact clients agree with the serial
/// facade bit for bit.
#[test]
fn random_systems_match_the_serial_facade() {
    cases("shared_artifact_differential", |rng| {
        let spec = if rng.chance(1, 2) {
            arb_sync_spec(rng)
        } else {
            arb_async_spec(rng)
        };
        let sys = build(&spec);
        let props = prop_names(&spec);
        let family = formula_family(&sys, &props);
        let assignment = match rng.index(3) {
            0 => Assignment::post(),
            1 => Assignment::fut(),
            _ => Assignment::opp(AgentId(rng.index(sys.agent_count()))),
        };
        assert_shared_matches_serial(&sys, assignment, &family);
    });
}
