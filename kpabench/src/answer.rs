//! Answers in one canonical form, the serial oracle that produces the
//! expected ones, and the tally that scores every answer against it.
//!
//! Each answer is reduced to a 64-bit digest of its exact content:
//! point sets by their bitset words and counts, booleans, and interval
//! bounds as exact rationals. A wire reply, an `EvalCtx` result and the
//! oracle's answer for the same item must give the same digest.

use kpa_logic::{parse_in, EvalCtx, LogicError, Model, PointSet};
use kpa_serve::catalog::point_in;
use kpa_serve::json::Value;
use kpa_serve::proto::words_from_value;
use kpa_serve::QueryKind;
use kpa_system::{AgentId, PointId, System};

/// One answer, in the form every path is compared in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    /// A point set: its size and its bitset words.
    Set(u64, Vec<u64>),
    /// A threshold family: one point set per threshold, in order.
    Family(Vec<(u64, Vec<u64>)>),
    /// A truth value (`holds`, `everywhere`).
    Holds(bool),
    /// Inner and outer probability, as exact rationals.
    Interval(String, String),
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

/// Folds `bytes` into an FNV-1a hash state.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn set_of(s: &PointSet) -> (u64, Vec<u64>) {
    (s.len() as u64, s.as_words().to_vec())
}

impl Answer {
    pub fn of_set(s: &PointSet) -> Answer {
        let (n, w) = set_of(s);
        Answer::Set(n, w)
    }

    pub fn of_family<'a>(sets: impl IntoIterator<Item = &'a PointSet>) -> Answer {
        Answer::Family(sets.into_iter().map(set_of).collect())
    }

    /// The 64-bit digest two equal answers share.
    pub fn digest(&self) -> u64 {
        let words = |h: u64, n: u64, w: &[u64]| {
            let h = fnv(h, &n.to_le_bytes());
            w.iter().fold(h, |h, x| fnv(h, &x.to_le_bytes()))
        };
        match self {
            Answer::Set(n, w) => words(fnv(FNV_OFFSET, b"S"), *n, w),
            Answer::Family(sets) => sets
                .iter()
                .fold(fnv(FNV_OFFSET, b"F"), |h, (n, w)| words(h, *n, w)),
            Answer::Holds(b) => fnv(FNV_OFFSET, if *b { b"H1" } else { b"H0" }),
            Answer::Interval(lo, hi) => {
                let h = fnv(FNV_OFFSET, b"I");
                let h = fnv(fnv(h, lo.as_bytes()), b"|");
                fnv(h, hi.as_bytes())
            }
        }
    }
}

fn field<'v>(row: &'v Value, key: &str) -> Result<&'v Value, String> {
    row.get(key)
        .ok_or_else(|| format!("reply row lacks {key:?}"))
}

fn count_of(v: &Value) -> Result<u64, String> {
    v.as_int()
        .and_then(|n| u64::try_from(n).ok())
        .ok_or_else(|| "count is not a non-negative integer".to_string())
}

/// Reads the answer a wire reply row carries for an item of `kind`.
pub fn from_row(kind: &QueryKind, row: &Value) -> Result<Answer, String> {
    match kind {
        QueryKind::Sat { .. } | QueryKind::Knows { .. } | QueryKind::PrGe { .. } => {
            Ok(Answer::Set(
                count_of(field(row, "count")?)?,
                words_from_value(field(row, "words")?)?,
            ))
        }
        QueryKind::PrGeFamily { .. } => {
            let counts = field(row, "counts")?
                .as_arr()
                .ok_or("counts is not an array")?;
            let sets = field(row, "sets")?.as_arr().ok_or("sets is not an array")?;
            if counts.len() != sets.len() {
                return Err("counts and sets differ in length".into());
            }
            counts
                .iter()
                .zip(sets)
                .map(|(c, s)| Ok((count_of(c)?, words_from_value(s)?)))
                .collect::<Result<_, String>>()
                .map(Answer::Family)
        }
        QueryKind::Holds { .. } | QueryKind::Everywhere { .. } => field(row, "holds")?
            .as_bool()
            .map(Answer::Holds)
            .ok_or_else(|| "holds is not a boolean".into()),
        QueryKind::Interval { .. } => {
            let s = |k| {
                field(row, k)?
                    .as_str()
                    .map(str::to_string)
                    .ok_or_else(|| format!("{k} is not a string"))
            };
            Ok(Answer::Interval(s("lo")?, s("hi")?))
        }
    }
}

fn agent(sys: &System, name: &str) -> Result<AgentId, String> {
    sys.agent_id(name)
        .ok_or_else(|| format!("unknown agent {name:?}"))
}

fn point(sys: &System, p: (usize, usize, usize)) -> Result<PointId, String> {
    point_in(sys, p.0, p.1, p.2)
}

/// The reference answer: the tree-walking `Model` facade, evaluated
/// serially. Callers run it under `kpa_pool::with_threads(1, ..)`.
pub fn oracle(model: &Model<'_, '_>, sys: &System, kind: &QueryKind) -> Result<Answer, String> {
    let e = |e: LogicError| e.to_string();
    let parse = |src: &str| parse_in(src, sys).map_err(|e| e.to_string());
    Ok(match kind {
        QueryKind::Sat { formula } => Answer::of_set(&*model.sat(&parse(formula)?).map_err(e)?),
        QueryKind::Holds { formula, point: p } => Answer::Holds(
            model
                .holds_at(&parse(formula)?, point(sys, *p)?)
                .map_err(e)?,
        ),
        QueryKind::Everywhere { formula } => {
            Answer::Holds(model.holds_everywhere(&parse(formula)?).map_err(e)?)
        }
        QueryKind::Knows { agent: a, formula } => {
            let sat = model.sat(&parse(formula)?).map_err(e)?;
            Answer::of_set(&model.knows_set(agent(sys, a)?, &sat))
        }
        QueryKind::PrGe {
            agent: a,
            alpha,
            formula,
        } => {
            let sat = model.sat(&parse(formula)?).map_err(e)?;
            Answer::of_set(&model.pr_ge_set(agent(sys, a)?, *alpha, &sat).map_err(e)?)
        }
        QueryKind::PrGeFamily {
            agent: a,
            alphas,
            formula,
        } => {
            // The family's reference is one serial threshold per alpha.
            let sat = model.sat(&parse(formula)?).map_err(e)?;
            let a = agent(sys, a)?;
            let sets = alphas
                .iter()
                .map(|&alpha| model.pr_ge_set(a, alpha, &sat).map_err(e))
                .collect::<Result<Vec<_>, _>>()?;
            Answer::of_family(&sets)
        }
        QueryKind::Interval {
            agent: a,
            point: p,
            formula,
        } => {
            let (lo, hi) = model
                .prob_interval(agent(sys, a)?, point(sys, *p)?, &parse(formula)?)
                .map_err(e)?;
            Answer::Interval(lo.to_string(), hi.to_string())
        }
    })
}

/// The same item asked in process through an `EvalCtx`, the way the
/// server's session layer asks it (the traced run times these calls).
pub fn eval_ctx(ctx: &EvalCtx<'_>, sys: &System, kind: &QueryKind) -> Result<Answer, String> {
    let e = |e: LogicError| e.to_string();
    let parse = |src: &str| parse_in(src, sys).map_err(|e| e.to_string());
    Ok(match kind {
        QueryKind::Sat { formula } => Answer::of_set(&*ctx.sat(&parse(formula)?).map_err(e)?),
        QueryKind::Holds { formula, point: p } => {
            Answer::Holds(ctx.holds_at(&parse(formula)?, point(sys, *p)?).map_err(e)?)
        }
        QueryKind::Everywhere { formula } => {
            Answer::Holds(ctx.holds_everywhere(&parse(formula)?).map_err(e)?)
        }
        QueryKind::Knows { agent: a, formula } => {
            let sat = ctx.sat(&parse(formula)?).map_err(e)?;
            Answer::of_set(&ctx.knows_set(agent(sys, a)?, &sat))
        }
        QueryKind::PrGe {
            agent: a,
            alpha,
            formula,
        } => {
            let sat = ctx.sat(&parse(formula)?).map_err(e)?;
            Answer::of_set(&ctx.pr_ge_set(agent(sys, a)?, *alpha, &sat).map_err(e)?)
        }
        QueryKind::PrGeFamily {
            agent: a,
            alphas,
            formula,
        } => {
            let sets = ctx
                .pr_ge_family(agent(sys, a)?, alphas, &parse(formula)?)
                .map_err(e)?;
            Answer::of_family(sets.iter().map(|s| &**s))
        }
        QueryKind::Interval {
            agent: a,
            point: p,
            formula,
        } => {
            let (lo, hi) = ctx
                .prob_interval(agent(sys, a)?, point(sys, *p)?, &parse(formula)?)
                .map_err(e)?;
            Answer::Interval(lo.to_string(), hi.to_string())
        }
    })
}

/// Attempted and failed operations, plus a running digest over every
/// answer in the order it arrived, so two passes over one stream can be
/// compared bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub answers: u64,
}

impl Default for Tally {
    fn default() -> Tally {
        Tally {
            attempted: 0,
            failed: 0,
            answers: FNV_OFFSET,
        }
    }
}

impl Tally {
    /// Scores one answer against the oracle's digest.
    pub fn record(&mut self, expected: u64, got: Result<Answer, String>) {
        self.attempted += 1;
        let digest = match got {
            Ok(a) => a.digest(),
            Err(_) => {
                self.failed += 1;
                self.answers = fnv(self.answers, b"error");
                return;
            }
        };
        self.answers = fnv(self.answers, &digest.to_le_bytes());
        if digest != expected {
            self.failed += 1;
        }
    }

    /// `n` operations that produced no answer (error frame, timeout,
    /// broken connection).
    pub fn fail(&mut self, n: u64) {
        self.attempted += n;
        self.failed += n;
        self.answers = fnv(self.answers, b"error");
    }

    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.answers = fnv(self.answers, &other.answers.to_le_bytes());
    }
}

/// Scores the rows of one `query` reply against the batch it answers:
/// rows must come back in order, echo each item's id, and carry the
/// oracle's answer.
pub fn check_batch(tally: &mut Tally, batch: &[(u64, &QueryKind, i64)], rows: &[Value]) {
    for (k, &(expected, kind, id)) in batch.iter().enumerate() {
        let got = match rows.get(k) {
            None => Err("reply has fewer rows than the batch".to_string()),
            Some(row) if row.get("id").and_then(Value::as_int) != Some(id) => {
                Err(format!("row {k} does not echo id {id}"))
            }
            Some(row) => from_row(kind, row),
        };
        tally.record(expected, got);
    }
    if rows.len() > batch.len() {
        tally.fail((rows.len() - batch.len()) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpa_assign::{Assignment, ProbAssignment};
    use kpa_measure::Rat;
    use kpa_serve::catalog;
    use kpa_serve::proto::words_to_value;

    fn kinds() -> Vec<QueryKind> {
        vec![
            QueryKind::Sat {
                formula: "c=h".into(),
            },
            QueryKind::Knows {
                agent: "p3".into(),
                formula: "c=h".into(),
            },
            QueryKind::PrGeFamily {
                agent: "p1".into(),
                alphas: vec![Rat::new(1, 4), Rat::new(1, 2), Rat::ONE],
                formula: "c=h".into(),
            },
            QueryKind::Holds {
                formula: "K{p3} c=h".into(),
                point: (0, 0, 1),
            },
            QueryKind::Interval {
                agent: "p1".into(),
                point: (0, 0, 1),
                formula: "c=h".into(),
            },
        ]
    }

    /// The reply row a correct server sends for `answer`.
    fn row(id: i64, answer: &Answer) -> Value {
        let mut fields = vec![("id".to_string(), Value::Int(id))];
        match answer {
            Answer::Set(n, w) => {
                fields.push(("count".into(), Value::Int(*n as i64)));
                fields.push(("words".into(), words_to_value(w)));
            }
            Answer::Family(sets) => {
                let counts = sets.iter().map(|(n, _)| Value::Int(*n as i64)).collect();
                let words = sets.iter().map(|(_, w)| words_to_value(w)).collect();
                fields.push(("counts".into(), Value::Arr(counts)));
                fields.push(("sets".into(), Value::Arr(words)));
            }
            Answer::Holds(b) => fields.push(("holds".into(), Value::Bool(*b))),
            Answer::Interval(lo, hi) => {
                fields.push(("lo".into(), Value::Str(lo.clone())));
                fields.push(("hi".into(), Value::Str(hi.clone())));
            }
        }
        Value::Obj(fields.into_iter().collect())
    }

    fn oracle_answers(kinds: &[QueryKind]) -> Vec<Answer> {
        let sys = catalog::build_system("secret-coin").unwrap();
        let pa = ProbAssignment::new(&sys, Assignment::post());
        let model = Model::new(&pa);
        kpa_pool::with_threads(1, || {
            kinds
                .iter()
                .map(|k| oracle(&model, &sys, k).unwrap())
                .collect()
        })
    }

    #[test]
    fn one_corrupted_reply_counts_exactly_one_failure() {
        let kinds = kinds();
        let answers = oracle_answers(&kinds);
        let batch: Vec<(u64, &QueryKind, i64)> = kinds
            .iter()
            .zip(&answers)
            .enumerate()
            .map(|(i, (k, a))| (a.digest(), k, i as i64))
            .collect();
        let mut rows: Vec<Value> = answers
            .iter()
            .enumerate()
            .map(|(i, a)| row(i as i64, a))
            .collect();

        let mut clean = Tally::default();
        check_batch(&mut clean, &batch, &rows);
        assert_eq!((clean.attempted, clean.failed), (5, 0));

        // Flip one hex digit of one word of the `sat` row.
        let Value::Obj(m) = &mut rows[0] else {
            unreachable!()
        };
        let Some(Value::Arr(words)) = m.get_mut("words") else {
            unreachable!()
        };
        let Value::Str(w) = &mut words[0] else {
            unreachable!()
        };
        let last = if w.ends_with('0') { "1" } else { "0" };
        w.replace_range(15.., last);
        let mut corrupted = Tally::default();
        check_batch(&mut corrupted, &batch, &rows);
        assert_eq!((corrupted.attempted, corrupted.failed), (5, 1));
        assert_ne!(corrupted.answers, clean.answers);
    }

    #[test]
    fn error_frames_missing_rows_and_bad_ids_fail() {
        let kinds = kinds();
        let answers = oracle_answers(&kinds);
        let batch: Vec<(u64, &QueryKind, i64)> = kinds
            .iter()
            .zip(&answers)
            .enumerate()
            .map(|(i, (k, a))| (a.digest(), k, i as i64))
            .collect();
        let mut rows: Vec<Value> = answers
            .iter()
            .enumerate()
            .map(|(i, a)| row(i as i64, a))
            .collect();
        rows.pop();
        rows[1] = row(99, &answers[1]);
        let mut t = Tally::default();
        check_batch(&mut t, &batch, &rows);
        assert_eq!((t.attempted, t.failed), (5, 2));
        t.fail(3);
        assert_eq!((t.attempted, t.failed), (8, 5));
    }

    #[test]
    fn digests_separate_answers() {
        let a = Answer::Set(1, vec![1]);
        assert_eq!(a.digest(), Answer::Set(1, vec![1]).digest());
        assert_ne!(a.digest(), Answer::Set(1, vec![2]).digest());
        assert_ne!(a.digest(), Answer::Family(vec![(1, vec![1])]).digest());
        assert_ne!(Answer::Holds(true).digest(), Answer::Holds(false).digest());
        assert_ne!(
            Answer::Interval("1/2".into(), "1".into()).digest(),
            Answer::Interval("1".into(), "1/2".into()).digest()
        );
    }
}
