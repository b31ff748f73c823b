//! A concrete syntax for `L(Φ)` formulas.
//!
//! The grammar (loosest binding first):
//!
//! ```text
//! formula := imp ( "<->" imp )*
//! imp     := until ( "->" imp )?                       (right associative)
//! until   := or ( "U" until )?                         (right associative)
//! or      := and ( "|" and )*
//! and     := unary ( "&" unary )*
//! unary   := "!" unary
//!          | "X" unary | "<>" unary | "[]" unary
//!          | "K{" agent "}" modifier? unary
//!          | "C{" agents "}" modifier? unary
//!          | "E{" agents "}" modifier? unary
//!          | atom
//! modifier := "^" rational | "^[" rational "," rational "]"
//! atom    := "true" | "false" | "(" formula ")"
//!          | "Pr{" agent "}" "(" formula ")" (">=" | "<=") rational
//!          | prop | '"' any-characters '"'
//! ```
//!
//! `K{i}^a φ` abbreviates `K{i}(Pr{i}(φ) >= a)` (the paper's `Kᵢ^α`),
//! `K{i}^[a,b] φ` the interval form `Kᵢ^{[α,β]}`, and `E{..}` the
//! everyone-knows conjunction. Bare proposition names may contain
//! letters, digits, and `_ = : . + -` (so protocol props like `c=h`,
//! `recent:c1=h`, or `A-attacks` need no quoting); anything else can be
//! written in double quotes. [`Formula`]'s `Display` emits this syntax,
//! so `parse(f.to_string())` round-trips.
//!
//! Agent names are resolved by a caller-supplied resolver;
//! [`parse_in`] resolves against a [`System`]'s agent roster and also
//! accepts the canonical `p<k>` names that `Display` produces.

use crate::formula::Formula;
use kpa_measure::Rat;
use kpa_system::{AgentId, System};
use std::fmt;

/// Error produced when parsing a formula fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFormulaError {
    /// Byte offset of the error in the input.
    pub position: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseFormulaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseFormulaError {}

/// How deep a parsed formula's tree may nest. Compiling, evaluating
/// and dropping a formula recurse along its tree, so the bound keeps a
/// formula from any client inside a connection thread's stack. Depth
/// counts the tree the parser builds, not the text: `[]φ` spells three
/// levels (`¬(true U ¬φ)`), `K{i}^[a,b] φ` four. Runs of prefix
/// operators and `->`/`U` chains are parsed in loops, and parentheses
/// and `Pr{..}(..)` bodies recurse; none may run or nest deeper than
/// the bound either.
pub const MAX_FORMULA_DEPTH: usize = 64;

/// How many nodes a parsed formula's tree may hold. The abbreviations
/// that copy their operands (`K{i}^[a,b]`, `<->`, `E{..}`) can double a
/// tree per operator, so the bound is checked before each node is
/// built, and no formula of any length allocates past it.
pub const MAX_FORMULA_NODES: usize = 1 << 16;

/// The depth and node count of a parsed tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Shape {
    depth: usize,
    nodes: usize,
}

impl Shape {
    /// A leaf: `true`, a proposition.
    const LEAF: Shape = Shape { depth: 1, nodes: 1 };

    /// `levels` nodes stacked over `self` (and `extra` leaves beside
    /// them).
    fn over(self, levels: usize, extra: usize) -> Shape {
        Shape {
            depth: self.depth + levels,
            nodes: self.nodes.saturating_add(levels + extra),
        }
    }

    /// One n-ary node over `parts`.
    fn join(parts: impl IntoIterator<Item = Shape>) -> Shape {
        parts
            .into_iter()
            .fold(Shape { depth: 1, nodes: 1 }, |acc, p| Shape {
                depth: acc.depth.max(p.depth + 1),
                nodes: acc.nodes.saturating_add(p.nodes),
            })
    }

    /// `copies` copies of `self`, each under `levels` nodes, joined
    /// under one more.
    fn copies(self, copies: usize, levels: usize) -> Shape {
        Shape {
            depth: self.depth + levels + 1,
            nodes: self
                .nodes
                .saturating_add(levels)
                .saturating_mul(copies)
                .saturating_add(1),
        }
    }
}

/// A parsed formula with its tree's shape.
type Parsed = (Formula, Shape);

/// A prefix operator, parsed before its operand.
enum Prefix {
    Not,
    Eventually,
    Always,
    Next,
    Knows(AgentId, Option<(Rat, Option<Rat>)>),
    Common(Vec<AgentId>, Option<Rat>),
    Everyone(Vec<AgentId>, Option<Rat>),
}

struct Parser<'a, R> {
    input: &'a str,
    pos: usize,
    resolve: R,
    /// How deep the parser has recursed along the text.
    nesting: usize,
}

impl<'a, R: Fn(&str) -> Option<AgentId>> Parser<'a, R> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseFormulaError> {
        Err(ParseFormulaError {
            position: self.pos,
            message: message.into(),
        })
    }

    /// Builds the formula whose tree has `shape`, unless the shape
    /// passes a bound: checked before `build` allocates anything.
    fn build(
        &self,
        shape: Shape,
        build: impl FnOnce() -> Formula,
    ) -> Result<Parsed, ParseFormulaError> {
        if shape.depth > MAX_FORMULA_DEPTH {
            return self.err(format!(
                "formula nests deeper than {MAX_FORMULA_DEPTH} levels"
            ));
        }
        if shape.nodes > MAX_FORMULA_NODES {
            return self.err(format!("formula has more than {MAX_FORMULA_NODES} nodes"));
        }
        Ok((build(), shape))
    }

    /// Runs `parse` one level deeper along the text.
    fn nested(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<Parsed, ParseFormulaError>,
    ) -> Result<Parsed, ParseFormulaError> {
        if self.nesting == MAX_FORMULA_DEPTH {
            return self.err(format!(
                "formula text nests deeper than {MAX_FORMULA_DEPTH} levels"
            ));
        }
        self.nesting += 1;
        let out = parse(self);
        self.nesting -= 1;
        out
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }
    fn skip_ws(&mut self) {
        while self.rest().starts_with(|c: char| c.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    /// Consumes `tok` if it is next (after whitespace).
    fn eat(&mut self, tok: &str) -> bool {
        self.skip_ws();
        if self.rest().starts_with(tok) {
            self.pos += tok.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: &str) -> Result<(), ParseFormulaError> {
        if self.eat(tok) {
            Ok(())
        } else {
            self.err(format!("expected {tok:?}"))
        }
    }

    fn is_ident_char(c: char) -> bool {
        c.is_ascii_alphanumeric() || "_=:.+-".contains(c)
    }

    /// A bare identifier: proposition or agent name. `-` is excluded
    /// when it would start an `->` arrow.
    fn ident(&mut self) -> Result<&'a str, ParseFormulaError> {
        self.skip_ws();
        let start = self.pos;
        let bytes = self.input.as_bytes();
        while self.pos < self.input.len() {
            let c = bytes[self.pos] as char;
            if !Self::is_ident_char(c) {
                break;
            }
            if c == '-' && bytes.get(self.pos + 1) == Some(&b'>') {
                break;
            }
            self.pos += 1;
        }
        if self.pos == start {
            return self.err("expected an identifier");
        }
        Ok(&self.input[start..self.pos])
    }

    /// A keyword followed by a non-identifier character (so that a
    /// proposition named `Xylophone` is not read as `X` + `ylophone`).
    fn eat_keyword(&mut self, kw: &str) -> bool {
        self.skip_ws();
        if let Some(rest) = self.rest().strip_prefix(kw) {
            if !rest.starts_with(Self::is_ident_char) {
                self.pos += kw.len();
                return true;
            }
        }
        false
    }

    fn rational(&mut self) -> Result<Rat, ParseFormulaError> {
        self.skip_ws();
        let start = self.pos;
        let bytes = self.input.as_bytes();
        if bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self
            .rest()
            .starts_with(|c: char| c.is_ascii_digit() || c == '/' || c == '.')
        {
            self.pos += 1;
        }
        let text = &self.input[start..self.pos];
        match text.parse::<Rat>() {
            Ok(r) => Ok(r),
            Err(_) => {
                self.pos = start;
                self.err(format!("expected a rational, found {text:?}"))
            }
        }
    }

    fn agent(&mut self, name: &str) -> Result<AgentId, ParseFormulaError> {
        match (self.resolve)(name) {
            Some(id) => Ok(id),
            None => self.err(format!("unknown agent {name:?}")),
        }
    }

    /// `{a}` or `{a,b,…}` after an operator letter.
    fn agent_list(&mut self) -> Result<Vec<AgentId>, ParseFormulaError> {
        self.expect("{")?;
        let mut out = Vec::new();
        loop {
            let name = self.ident()?;
            out.push(self.agent(name)?);
            if !self.eat(",") {
                break;
            }
        }
        self.expect("}")?;
        Ok(out)
    }

    /// Optional `^a` or `^[a,b]` after `K{..}` / `C{..}` / `E{..}`.
    fn modifier(&mut self) -> Result<Option<(Rat, Option<Rat>)>, ParseFormulaError> {
        if !self.eat("^") {
            return Ok(None);
        }
        if self.eat("[") {
            let lo = self.rational()?;
            self.expect(",")?;
            let hi = self.rational()?;
            self.expect("]")?;
            Ok(Some((lo, Some(hi))))
        } else {
            Ok(Some((self.rational()?, None)))
        }
    }

    fn formula(&mut self) -> Result<Parsed, ParseFormulaError> {
        let mut acc = self.imp()?;
        while self.eat("<->") {
            let rhs = self.imp()?;
            // (a → b) ∧ (b → a): both operands twice.
            let shape = Shape {
                depth: acc.1.depth.max(rhs.1.depth) + 3,
                nodes: (acc.1.nodes.saturating_add(rhs.1.nodes))
                    .saturating_mul(2)
                    .saturating_add(5),
            };
            acc = self.build(shape, || acc.0.iff(rhs.0))?;
        }
        Ok(acc)
    }

    /// `a -> b -> c`, right associative: the operands are parsed in a
    /// loop and folded from the right, so a long chain does not recurse.
    fn imp(&mut self) -> Result<Parsed, ParseFormulaError> {
        let mut parts = vec![self.until()?];
        while self.eat("->") {
            self.chain(parts.len())?;
            parts.push(self.until()?);
        }
        let mut acc = parts.pop().expect("one operand");
        while let Some(lhs) = parts.pop() {
            // ¬a ∨ b.
            let shape = Shape::join([lhs.1.over(1, 0), acc.1]);
            acc = self.build(shape, || lhs.0.implies(acc.0))?;
        }
        Ok(acc)
    }

    /// `a U b U c`, right associative, folded like [`Parser::imp`].
    fn until(&mut self) -> Result<Parsed, ParseFormulaError> {
        let mut parts = vec![self.or()?];
        while self.eat_keyword("U") {
            self.chain(parts.len())?;
            parts.push(self.or()?);
        }
        let mut acc = parts.pop().expect("one operand");
        while let Some(lhs) = parts.pop() {
            let shape = Shape::join([lhs.1, acc.1]);
            acc = self.build(shape, || lhs.0.until(acc.0))?;
        }
        Ok(acc)
    }

    /// Refuses a right-associative chain, or a run of prefix operators,
    /// that already holds `len` operators: each adds a tree level.
    fn chain(&self, len: usize) -> Result<(), ParseFormulaError> {
        if len >= MAX_FORMULA_DEPTH {
            return self.err(format!(
                "formula nests deeper than {MAX_FORMULA_DEPTH} levels"
            ));
        }
        Ok(())
    }

    fn or(&mut self) -> Result<Parsed, ParseFormulaError> {
        let mut parts = vec![self.and()?];
        while self.eat("|") {
            parts.push(self.and()?);
        }
        if parts.len() == 1 {
            return Ok(parts.pop().expect("one element"));
        }
        let shape = Shape::join(parts.iter().map(|p| p.1));
        self.build(shape, || {
            Formula::Or(parts.into_iter().map(|p| p.0).collect())
        })
    }

    fn and(&mut self) -> Result<Parsed, ParseFormulaError> {
        let mut parts = vec![self.unary()?];
        while self.eat("&") {
            parts.push(self.unary()?);
        }
        if parts.len() == 1 {
            return Ok(parts.pop().expect("one element"));
        }
        let shape = Shape::join(parts.iter().map(|p| p.1));
        self.build(shape, || {
            Formula::And(parts.into_iter().map(|p| p.0).collect())
        })
    }

    /// A run of prefix operators and the atom they apply to: the
    /// operators are parsed in a loop and applied innermost first, so a
    /// long run does not recurse.
    fn unary(&mut self) -> Result<Parsed, ParseFormulaError> {
        let mut ops = Vec::new();
        while let Some(op) = self.prefix()? {
            self.chain(ops.len())?;
            ops.push(op);
        }
        let mut acc = self.atom()?;
        while let Some(op) = ops.pop() {
            acc = self.apply(op, acc)?;
        }
        Ok(acc)
    }

    /// The next prefix operator, if one follows.
    fn prefix(&mut self) -> Result<Option<Prefix>, ParseFormulaError> {
        self.skip_ws();
        if self.eat("!") {
            return Ok(Some(Prefix::Not));
        }
        if self.eat("<>") {
            return Ok(Some(Prefix::Eventually));
        }
        if self.eat("[]") {
            return Ok(Some(Prefix::Always));
        }
        if self.eat_keyword("X") {
            return Ok(Some(Prefix::Next));
        }
        if self.rest().starts_with("K{") {
            self.pos += 1;
            let agents = self.agent_list()?;
            let agent = *agents.first().expect("agent_list is nonempty");
            if agents.len() != 1 {
                return self.err("K takes exactly one agent; use C or E for groups");
            }
            return Ok(Some(Prefix::Knows(agent, self.modifier()?)));
        }
        for (op, common) in [("C{", true), ("E{", false)] {
            if self.rest().starts_with(op) {
                self.pos += 1;
                let agents = self.agent_list()?;
                let alpha = match self.modifier()? {
                    None => None,
                    Some((alpha, None)) => Some(alpha),
                    Some(_) if common => return self.err("C supports ^a but not ^[a,b]"),
                    Some(_) => return self.err("E supports ^a but not ^[a,b]"),
                };
                return Ok(Some(match common {
                    true => Prefix::Common(agents, alpha),
                    false => Prefix::Everyone(agents, alpha),
                }));
            }
        }
        Ok(None)
    }

    /// Applies one prefix operator to its parsed operand.
    fn apply(&self, op: Prefix, (x, shape): Parsed) -> Result<Parsed, ParseFormulaError> {
        match op {
            Prefix::Not => self.build(shape.over(1, 0), || x.not()),
            // true U φ.
            Prefix::Eventually => self.build(shape.over(1, 1), || x.eventually()),
            // ¬(true U ¬φ).
            Prefix::Always => self.build(shape.over(3, 1), || x.always()),
            Prefix::Next => self.build(shape.over(1, 0), || x.next()),
            Prefix::Knows(agent, None) => self.build(shape.over(1, 0), || x.known_by(agent)),
            // Kᵢ(Prᵢ(φ) ≥ α).
            Prefix::Knows(agent, Some((alpha, None))) => {
                self.build(shape.over(2, 0), || x.k_alpha(agent, alpha))
            }
            // Kᵢ(Prᵢ(φ) ≥ α ∧ Prᵢ(¬φ) ≥ 1 − β): φ twice.
            Prefix::Knows(agent, Some((alpha, Some(beta)))) => {
                let shape = Shape {
                    depth: shape.depth + 4,
                    nodes: shape.nodes.saturating_mul(2).saturating_add(5),
                };
                self.build(shape, || x.k_interval(agent, alpha, beta))
            }
            Prefix::Common(agents, None) => self.build(shape.over(1, 0), || x.common(agents)),
            Prefix::Common(agents, Some(alpha)) => {
                self.build(shape.over(1, 0), || x.common_alpha(agents, alpha))
            }
            // ∧ᵢ Kᵢ φ or ∧ᵢ Kᵢ(Prᵢ(φ) ≥ α): φ once per agent.
            Prefix::Everyone(agents, None) => {
                self.build(shape.copies(agents.len(), 1), || x.everyone(agents))
            }
            Prefix::Everyone(agents, Some(alpha)) => self
                .build(shape.copies(agents.len(), 2), || {
                    x.everyone_alpha(agents, alpha)
                }),
        }
    }

    fn atom(&mut self) -> Result<Parsed, ParseFormulaError> {
        self.skip_ws();
        if self.rest().starts_with("Pr{") {
            self.pos += 2;
            let agents = self.agent_list()?;
            let agent = *agents.first().expect("agent_list is nonempty");
            if agents.len() != 1 {
                return self.err("Pr takes exactly one agent");
            }
            self.expect("(")?;
            let (inner, shape) = self.nested(Self::formula)?;
            self.expect(")")?;
            self.skip_ws();
            if self.eat(">=") {
                let alpha = self.rational()?;
                return self.build(shape.over(1, 0), || inner.pr_ge(agent, alpha));
            }
            if self.eat("<=") {
                // Prᵢ(¬φ) ≥ 1 − β.
                let beta = self.rational()?;
                return self.build(shape.over(2, 0), || inner.pr_le(agent, beta));
            }
            return self.err("expected >= or <= after Pr{..}(..)");
        }
        if self.eat_keyword("true") {
            return Ok((Formula::True, Shape::LEAF));
        }
        if self.eat_keyword("false") {
            return Ok((Formula::falsum(), Shape::LEAF.over(1, 0)));
        }
        if self.eat("(") {
            let inner = self.nested(Self::formula)?;
            self.expect(")")?;
            return Ok(inner);
        }
        if self.eat("\"") {
            let start = self.pos;
            match self.rest().find('"') {
                Some(end) => {
                    let name = &self.input[start..start + end];
                    self.pos = start + end + 1;
                    return Ok((Formula::prop(name), Shape::LEAF));
                }
                None => return self.err("unterminated quoted proposition"),
            }
        }
        let name = self.ident()?;
        Ok((Formula::prop(name), Shape::LEAF))
    }
}

/// Parses a formula, resolving agent names with `resolve`.
///
/// # Errors
///
/// Returns [`ParseFormulaError`] with the failing byte offset for
/// malformed input, unknown agents, or a formula whose tree would nest
/// deeper than [`MAX_FORMULA_DEPTH`] or hold more than
/// [`MAX_FORMULA_NODES`] nodes.
///
/// # Examples
///
/// ```
/// use kpa_logic::{parse_formula, Formula};
/// use kpa_measure::rat;
/// use kpa_system::AgentId;
///
/// let resolve = |name: &str| (name == "A").then_some(AgentId(0));
/// let f = parse_formula("K{A}^0.99 <>coordinated", &resolve)?;
/// assert_eq!(
///     f,
///     Formula::prop("coordinated").eventually().k_alpha(AgentId(0), rat!(99 / 100))
/// );
/// # Ok::<(), kpa_logic::ParseFormulaError>(())
/// ```
pub fn parse_formula(
    input: &str,
    resolve: impl Fn(&str) -> Option<AgentId>,
) -> Result<Formula, ParseFormulaError> {
    parse_shaped(input, resolve).map(|(f, _)| f)
}

/// [`parse_formula`], with the parsed tree's shape.
fn parse_shaped(
    input: &str,
    resolve: impl Fn(&str) -> Option<AgentId>,
) -> Result<Parsed, ParseFormulaError> {
    let mut p = Parser {
        input,
        pos: 0,
        resolve,
        nesting: 0,
    };
    let f = p.formula()?;
    p.skip_ws();
    if p.pos != input.len() {
        return p.err("trailing input");
    }
    Ok(f)
}

/// Parses a formula against a system's agent roster. Both the system's
/// real agent names and the canonical `p<k>` names that
/// [`Formula`]'s `Display` emits are accepted.
///
/// # Errors
///
/// As [`parse_formula`].
pub fn parse_in(input: &str, sys: &System) -> Result<Formula, ParseFormulaError> {
    parse_formula(input, |name| {
        sys.agent_id(name).or_else(|| {
            let k: usize = name.strip_prefix('p')?.parse().ok()?;
            (1..=sys.agent_count()).contains(&k).then(|| AgentId(k - 1))
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpa_measure::rat;

    fn resolve(name: &str) -> Option<AgentId> {
        match name {
            "A" | "p1" => Some(AgentId(0)),
            "B" | "p2" => Some(AgentId(1)),
            _ => None,
        }
    }

    fn parse(s: &str) -> Formula {
        parse_formula(s, resolve).unwrap_or_else(|e| panic!("{s:?}: {e}"))
    }

    #[test]
    fn atoms_and_booleans() {
        assert_eq!(parse("true"), Formula::True);
        assert_eq!(parse("false"), Formula::falsum());
        assert_eq!(parse("c=h"), Formula::prop("c=h"));
        assert_eq!(parse("recent:c1=h"), Formula::prop("recent:c1=h"));
        assert_eq!(parse("A-attacks"), Formula::prop("A-attacks"));
        assert_eq!(parse("\"weird prop!\""), Formula::prop("weird prop!"));
        assert_eq!(parse("!x"), Formula::prop("x").not());
        assert_eq!(
            parse("a & b & c"),
            Formula::And(vec![
                Formula::prop("a"),
                Formula::prop("b"),
                Formula::prop("c")
            ])
        );
        assert_eq!(
            parse("a | b"),
            Formula::Or(vec![Formula::prop("a"), Formula::prop("b")])
        );
    }

    #[test]
    fn precedence_and_grouping() {
        // & binds tighter than |, which binds tighter than ->.
        assert_eq!(
            parse("a & b | c"),
            Formula::Or(vec![
                Formula::And(vec![Formula::prop("a"), Formula::prop("b")]),
                Formula::prop("c")
            ])
        );
        assert_eq!(
            parse("a -> b -> c"),
            Formula::prop("a").implies(Formula::prop("b").implies(Formula::prop("c")))
        );
        assert_eq!(
            parse("(a | b) & c"),
            Formula::And(vec![
                Formula::Or(vec![Formula::prop("a"), Formula::prop("b")]),
                Formula::prop("c")
            ])
        );
        assert_eq!(parse("a <-> b"), Formula::prop("a").iff(Formula::prop("b")));
    }

    #[test]
    fn temporal_operators() {
        assert_eq!(parse("X a"), Formula::prop("a").next());
        assert_eq!(parse("X(a)"), Formula::prop("a").next());
        assert_eq!(parse("<> a"), Formula::prop("a").eventually());
        assert_eq!(parse("[] a"), Formula::prop("a").always());
        assert_eq!(parse("a U b"), Formula::prop("a").until(Formula::prop("b")));
        assert_eq!(
            parse("a U b U c"),
            Formula::prop("a").until(Formula::prop("b").until(Formula::prop("c")))
        );
        // `X` only acts as an operator at a word boundary.
        assert_eq!(parse("Xylophone"), Formula::prop("Xylophone"));
        assert_eq!(parse("Unicorn"), Formula::prop("Unicorn"));
    }

    #[test]
    fn knowledge_and_probability() {
        assert_eq!(parse("K{A} x"), Formula::prop("x").known_by(AgentId(0)));
        assert_eq!(
            parse("K{A}^1/2 x"),
            Formula::prop("x").k_alpha(AgentId(0), rat!(1 / 2))
        );
        assert_eq!(
            parse("K{A}^[1/3,2/3] x"),
            Formula::prop("x").k_interval(AgentId(0), rat!(1 / 3), rat!(2 / 3))
        );
        assert_eq!(
            parse("Pr{B}(x) >= 0.99"),
            Formula::prop("x").pr_ge(AgentId(1), rat!(99 / 100))
        );
        assert_eq!(
            parse("Pr{B}(x) <= 1/4"),
            Formula::prop("x").pr_le(AgentId(1), rat!(1 / 4))
        );
    }

    #[test]
    fn group_operators() {
        let g = [AgentId(0), AgentId(1)];
        assert_eq!(parse("C{A,B} x"), Formula::prop("x").common(g));
        assert_eq!(
            parse("C{A,B}^0.99 <>x"),
            Formula::prop("x")
                .eventually()
                .common_alpha(g, rat!(99 / 100))
        );
        assert_eq!(parse("E{A,B} x"), Formula::prop("x").everyone(g));
        assert_eq!(
            parse("E{A,B}^1/2 x"),
            Formula::prop("x").everyone_alpha(g, rat!(1 / 2))
        );
    }

    #[test]
    fn errors_carry_positions() {
        let e = parse_formula("K{ghost} x", resolve).unwrap_err();
        assert!(e.message.contains("ghost"));
        assert!(parse_formula("(a", resolve).is_err());
        assert!(parse_formula("a b", resolve).is_err(), "trailing input");
        assert!(parse_formula("Pr{A}(x) = 1", resolve).is_err());
        assert!(
            parse_formula("K{A,B} x", resolve).is_err(),
            "K is single-agent"
        );
        assert!(parse_formula("\"open", resolve).is_err());
        assert!(parse_formula("K{A}^[1/2] x", resolve).is_err());
        assert!(parse_formula("", resolve).is_err());
        assert!(parse_formula("1//2", resolve).is_err());
    }

    #[test]
    fn display_round_trips() {
        let g = [AgentId(0), AgentId(1)];
        let samples = vec![
            Formula::True,
            Formula::prop("c=h"),
            Formula::prop("true"), // forces quoting
            Formula::prop("x").not(),
            Formula::And(vec![Formula::prop("a"), Formula::prop("b")]),
            Formula::Or(vec![Formula::prop("a"), Formula::prop("b"), Formula::True]),
            Formula::prop("x").known_by(AgentId(1)),
            Formula::prop("x").pr_ge(AgentId(0), rat!(2 / 3)),
            Formula::prop("x").k_alpha(AgentId(0), rat!(99 / 100)),
            Formula::prop("x").k_interval(AgentId(1), rat!(1 / 3), rat!(1 / 2)),
            Formula::prop("x").next(),
            Formula::prop("a").until(Formula::prop("b")),
            Formula::prop("x").eventually(),
            Formula::prop("x").always(),
            Formula::prop("x").common(g),
            Formula::prop("x").common_alpha(g, rat!(1 / 2)),
            Formula::prop("x")
                .eventually()
                .common_alpha(g, rat!(99 / 100)),
            Formula::prop("a")
                .implies(Formula::prop("b"))
                .known_by(AgentId(0))
                .not(),
        ];
        for f in samples {
            let rendered = f.to_string();
            let parsed =
                parse_formula(&rendered, resolve).unwrap_or_else(|e| panic!("{rendered:?}: {e}"));
            assert_eq!(parsed, f, "round trip failed for {rendered:?}");
        }
    }

    /// The depth of a formula's tree, by recursion (test formulas are
    /// shallow).
    fn depth(f: &Formula) -> usize {
        1 + match f {
            Formula::True | Formula::Prop(_) => 0,
            Formula::Not(x)
            | Formula::Next(x)
            | Formula::Knows(_, x)
            | Formula::PrGe(_, _, x)
            | Formula::Common(_, x)
            | Formula::CommonGe(_, _, x) => depth(x),
            Formula::And(xs) | Formula::Or(xs) => xs.iter().map(depth).max().unwrap_or(0),
            Formula::Until(x, y) => depth(x).max(depth(y)),
        }
    }

    #[test]
    fn shapes_match_the_built_tree() {
        for text in [
            "x",
            "false",
            "!x & (y | true)",
            "a -> b -> c",
            "a <-> (b U c) <-> d",
            "X <> [] x",
            "K{A} x | K{A}^1/2 y",
            "K{A}^[1/3,2/3] (x & y)",
            "C{A,B} x & C{A,B}^1/2 y",
            "E{A,B} x | E{A,B,A}^1/2 (x -> y)",
            "Pr{B}(x | y) >= 1/2 & Pr{A}(K{B} x) <= 1/4",
        ] {
            let (f, shape) = parse_shaped(text, resolve).unwrap();
            assert_eq!(
                (shape.depth, shape.nodes),
                (depth(&f), f.size()),
                "{text:?}"
            );
        }
    }

    #[test]
    fn the_depth_bound_is_exact() {
        // `[]` spells three levels; `!`s make up the rest over a leaf.
        let boxes = (MAX_FORMULA_DEPTH - 1) / 3;
        let bangs = MAX_FORMULA_DEPTH - 1 - 3 * boxes;
        let at = format!("{}{}x", "[]".repeat(boxes), "!".repeat(bangs));
        let f = parse_formula(&at, resolve).unwrap_or_else(|e| panic!("at the bound: {e}"));
        assert_eq!(depth(&f), MAX_FORMULA_DEPTH);
        let past = format!("!{at}");
        let e = parse_formula(&past, resolve).unwrap_err();
        assert!(e.message.contains("deeper"), "{e}");
        // Text nesting is bounded too: parentheses add no tree level,
        // but the parser recurses through each.
        let parens = MAX_FORMULA_DEPTH + 1;
        let e = parse_formula(
            &format!("{}x{}", "(".repeat(parens), ")".repeat(parens)),
            resolve,
        )
        .unwrap_err();
        assert!(e.message.contains("text nests deeper"), "{e}");
        // Far past the bound, the parser stops at it.
        assert!(parse_formula(&"!".repeat(100_000), resolve).is_err());
    }

    #[test]
    fn copying_abbreviations_are_bounded_by_nodes() {
        // Each interval copies its body: twenty nest into a tree of
        // 6,291,451 nodes, refused before it is built.
        let chain = format!("{}x", "K{A}^[1/3,2/3] ".repeat(20));
        let e = parse_formula(&chain, resolve).unwrap_err();
        assert!(e.message.contains("nodes"), "{e}");
        let iffs = format!("x{}", " <-> x".repeat(20));
        assert!(parse_formula(&iffs, resolve).is_err());
        // Ten intervals (6,139 nodes) are fine.
        let ten = format!("{}x", "K{A}^[1/3,2/3] ".repeat(10));
        assert_eq!(parse(&ten).size(), 6_139);
    }

    #[test]
    fn parse_in_accepts_canonical_names() {
        let sys = kpa_system::ProtocolBuilder::new(["alice", "bob"])
            .tick()
            .build()
            .unwrap();
        let by_name = parse_in("K{alice} x", &sys).unwrap();
        let by_index = parse_in("K{p1} x", &sys).unwrap();
        assert_eq!(by_name, by_index);
        assert!(parse_in("K{p3} x", &sys).is_err());
        assert!(parse_in("K{carol} x", &sys).is_err());
    }
}
