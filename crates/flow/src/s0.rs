//! S₀ — the target language: a first-order, tail-recursive subset of
//! Scheme (§5).
//!
//! ```text
//! proc ::= (define (P V*) T)
//! T    ::= S | (if S T T) | (P S*) | (%fail "msg")
//! S    ::= V | K | (O S*) | (make-closure ℓ S*)
//!        | (closure-label S) | (closure-freeval S i)
//! ```
//!
//! Simple expressions never call; every call is a tail call — which is
//! exactly what makes the hand-written C translation (labels + `goto`s)
//! possible.  Closures are an abstract data type with `make-closure`,
//! `closure-label` and `closure-freeval`; back ends pick the flat-vector
//! representation.
//!
//! Names are resolved once, when the specializer emits a program: a call
//! names its target by [`ProcId`], a position in [`S0Program::procs`]
//! (the paper's §5.1 labels), and a variable by its slot in the
//! enclosing procedure's parameter list (the global parameter
//! variables).  The spelled names stay on each [`S0Proc`] for printing
//! and diagnostics only.
//!
//! The definitions live in `pe-flow` (below `pe-core`) so the dataflow
//! analyses can see them without a dependency cycle; `pe_core::s0`
//! re-exports everything, so downstream code is unaffected.

use pe_frontend::ast::{Constant, Prim};
use pe_sexpr::Sexpr;
use pe_trace::{Phase, Sink};
use std::borrow::Cow;
use std::fmt;

/// A procedure's position in [`S0Program::procs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcId(pub u32);

impl ProcId {
    /// The position as an index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A simple expression: evaluates to a value without any calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum S0Simple {
    /// Variable reference: a slot in the enclosing procedure's `params`.
    Var(u32),
    /// Constant.
    Const(Constant),
    /// Primitive application.
    Prim(Prim, Vec<S0Simple>),
    /// `(make-closure ℓ v₁ … vₙ)` — allocate a flat closure record.
    MakeClosure(u32, Vec<S0Simple>),
    /// `(closure-label c)` — the label component.
    ClosureLabel(Box<S0Simple>),
    /// `(closure-freeval c i)` — the i-th captured value.
    ClosureFreeval(Box<S0Simple>, usize),
}

/// A tail expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum S0Tail {
    /// Return a value to the caller of `program`.
    Return(S0Simple),
    /// Conditional with simple condition.
    If(S0Simple, Box<S0Tail>, Box<S0Tail>),
    /// Tail call of another procedure of the same program.
    TailCall(ProcId, Vec<S0Simple>),
    /// A runtime failure discovered during specialization (e.g. applying
    /// a non-procedure on a path the program may never take).
    Fail(String),
}

/// A first-order procedure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct S0Proc {
    /// Procedure name, read only to print and report.
    pub name: String,
    /// Parameter names, read only to print and report; a variable is
    /// its slot in this list.
    pub params: Vec<String>,
    /// Body in tail form.
    pub body: S0Tail,
}

/// A whole S₀ program with a designated entry procedure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct S0Program {
    /// All procedures; a [`ProcId`] is a position in this list.
    pub procs: Vec<S0Proc>,
    /// The entry procedure (not necessarily the first: merging an entry
    /// trampoline keeps its target where it was).
    pub entry: ProcId,
}

/// The printed name of procedure `id` in `procs`: its own name, or a
/// placeholder no well-formed program contains when `id` is out of
/// range.
#[must_use]
pub fn proc_name(procs: &[S0Proc], id: ProcId) -> Cow<'_, str> {
    match procs.get(id.index()) {
        Some(q) => Cow::Borrowed(&q.name),
        None => Cow::Owned(format!("%proc-{}", id.0)),
    }
}

/// The printed name of variable slot `v` of a procedure with parameters
/// `params`, with the same placeholder rule as [`proc_name`].
#[must_use]
pub fn var_name(params: &[String], v: u32) -> Cow<'_, str> {
    match params.get(v as usize) {
        Some(n) => Cow::Borrowed(n),
        None => Cow::Owned(format!("%slot-{v}")),
    }
}

impl S0Simple {
    /// Counts AST nodes (for the §8 code-size experiment).
    pub fn size(&self) -> usize {
        match self {
            S0Simple::Var(_) | S0Simple::Const(_) => 1,
            S0Simple::Prim(_, args) | S0Simple::MakeClosure(_, args) => {
                1 + args.iter().map(S0Simple::size).sum::<usize>()
            }
            S0Simple::ClosureLabel(a) => 1 + a.size(),
            S0Simple::ClosureFreeval(a, _) => 1 + a.size(),
        }
    }

    /// Calls `f` on every variable read, left to right.
    pub fn vars(&self, f: &mut impl FnMut(u32)) {
        match self {
            S0Simple::Var(v) => f(*v),
            S0Simple::Const(_) => {}
            S0Simple::Prim(_, args) | S0Simple::MakeClosure(_, args) => {
                args.iter().for_each(|a| a.vars(f));
            }
            S0Simple::ClosureLabel(a) | S0Simple::ClosureFreeval(a, _) => a.vars(f),
        }
    }

    /// Replaces each variable by the argument in its slot (capture is
    /// impossible in S₀: there are no binders inside expressions).  A
    /// slot past the end of `args` is left as it is.
    #[must_use]
    pub fn subst(&self, args: &[S0Simple]) -> S0Simple {
        match self {
            S0Simple::Var(v) => args.get(*v as usize).unwrap_or(self).clone(),
            S0Simple::Const(_) => self.clone(),
            S0Simple::Prim(op, xs) => {
                S0Simple::Prim(*op, xs.iter().map(|a| a.subst(args)).collect())
            }
            S0Simple::MakeClosure(l, xs) => {
                S0Simple::MakeClosure(*l, xs.iter().map(|a| a.subst(args)).collect())
            }
            S0Simple::ClosureLabel(a) => S0Simple::ClosureLabel(Box::new(a.subst(args))),
            S0Simple::ClosureFreeval(a, i) => {
                S0Simple::ClosureFreeval(Box::new(a.subst(args)), *i)
            }
        }
    }

    fn to_sexpr(&self, params: &[String]) -> Sexpr {
        match self {
            S0Simple::Var(v) => Sexpr::sym_of(&var_name(params, *v)),
            S0Simple::Const(k) => match k {
                Constant::Int(n) => Sexpr::Int(*n),
                Constant::Bool(b) => Sexpr::Bool(*b),
                Constant::Char(c) => Sexpr::Char(*c),
                Constant::Str(s) => Sexpr::Str(s.clone()),
                k => Sexpr::list_of([Sexpr::sym_of("quote"), k.to_sexpr()]),
            },
            S0Simple::Prim(op, args) => {
                let mut xs = vec![Sexpr::sym_of(op.name())];
                xs.extend(args.iter().map(|a| a.to_sexpr(params)));
                Sexpr::List(xs)
            }
            S0Simple::MakeClosure(l, args) => {
                let mut xs = vec![Sexpr::sym_of("make-closure"), Sexpr::Int(i64::from(*l))];
                xs.extend(args.iter().map(|a| a.to_sexpr(params)));
                Sexpr::List(xs)
            }
            S0Simple::ClosureLabel(a) => {
                Sexpr::list_of([Sexpr::sym_of("closure-label"), a.to_sexpr(params)])
            }
            S0Simple::ClosureFreeval(a, i) => Sexpr::list_of([
                Sexpr::sym_of("closure-freeval"),
                a.to_sexpr(params),
                Sexpr::Int(*i as i64),
            ]),
        }
    }
}

impl S0Tail {
    /// Counts AST nodes.
    pub fn size(&self) -> usize {
        match self {
            S0Tail::Return(s) => s.size(),
            S0Tail::If(c, t, e) => 1 + c.size() + t.size() + e.size(),
            S0Tail::TailCall(_, args) => 1 + args.iter().map(S0Simple::size).sum::<usize>(),
            S0Tail::Fail(_) => 1,
        }
    }

    /// Calls `f` on every tail call's target and arguments, in program
    /// order.
    pub fn calls<'a>(&'a self, f: &mut impl FnMut(ProcId, &'a [S0Simple])) {
        match self {
            S0Tail::Return(_) | S0Tail::Fail(_) => {}
            S0Tail::If(_, t, e) => {
                t.calls(f);
                e.calls(f);
            }
            S0Tail::TailCall(p, args) => f(*p, args),
        }
    }

    /// Calls `f` on every variable read, in program order.
    pub fn vars(&self, f: &mut impl FnMut(u32)) {
        match self {
            S0Tail::Return(s) => s.vars(f),
            S0Tail::If(c, t, e) => {
                c.vars(f);
                t.vars(f);
                e.vars(f);
            }
            S0Tail::TailCall(_, args) => args.iter().for_each(|a| a.vars(f)),
            S0Tail::Fail(_) => {}
        }
    }

    /// Replaces each variable by the argument in its slot throughout.
    #[must_use]
    pub fn subst(&self, args: &[S0Simple]) -> S0Tail {
        match self {
            S0Tail::Return(s) => S0Tail::Return(s.subst(args)),
            S0Tail::If(c, t, e) => {
                S0Tail::If(c.subst(args), Box::new(t.subst(args)), Box::new(e.subst(args)))
            }
            S0Tail::TailCall(p, xs) => {
                S0Tail::TailCall(*p, xs.iter().map(|a| a.subst(args)).collect())
            }
            S0Tail::Fail(m) => S0Tail::Fail(m.clone()),
        }
    }

    fn to_sexpr(&self, params: &[String], procs: &[S0Proc]) -> Sexpr {
        match self {
            S0Tail::Return(s) => s.to_sexpr(params),
            S0Tail::If(c, t, e) => Sexpr::list_of([
                Sexpr::sym_of("if"),
                c.to_sexpr(params),
                t.to_sexpr(params, procs),
                e.to_sexpr(params, procs),
            ]),
            S0Tail::TailCall(p, args) => {
                let mut xs = vec![Sexpr::sym_of(&proc_name(procs, *p))];
                xs.extend(args.iter().map(|a| a.to_sexpr(params)));
                Sexpr::List(xs)
            }
            S0Tail::Fail(m) => {
                Sexpr::list_of([Sexpr::sym_of("%fail"), Sexpr::Str(m.as_str().into())])
            }
        }
    }
}

impl S0Proc {
    /// Renders as a `(define …)` form; call targets are named from
    /// `procs`, the procedures of the enclosing program.
    #[must_use]
    pub fn to_sexpr(&self, procs: &[S0Proc]) -> Sexpr {
        let mut head = vec![Sexpr::sym_of(&self.name)];
        head.extend(self.params.iter().map(|p| Sexpr::sym_of(p)));
        Sexpr::list_of([
            Sexpr::sym_of("define"),
            Sexpr::List(head),
            self.body.to_sexpr(&self.params, procs),
        ])
    }

    /// Counts AST nodes.
    pub fn size(&self) -> usize {
        1 + self.params.len() + self.body.size()
    }
}

impl S0Program {
    /// The first procedure called `name` (a lookup for tests and tools;
    /// passes index by [`ProcId`]).
    #[must_use]
    pub fn proc(&self, name: &str) -> Option<&S0Proc> {
        self.procs.iter().find(|p| p.name == name)
    }

    /// Total AST node count (for the §8 code-size experiment).
    pub fn size(&self) -> usize {
        self.procs.iter().map(S0Proc::size).sum()
    }

    /// Spreads `total_ns` of a whole-program pass over the procedures by
    /// AST node share (the deterministic work measure of such passes)
    /// and emits one `Event::Attr` row per procedure under `phase`.  The
    /// parts sum exactly to `total_ns`, so the phase books balance.
    pub fn attribute_by_size(&self, sink: &mut dyn Sink, phase: Phase, total_ns: u64) {
        let weights: Vec<u64> = self.procs.iter().map(|q| q.size() as u64).collect();
        let parts = pe_prof::distribute_ns(total_ns, &weights);
        for (q, (ns, units)) in self.procs.iter().zip(parts.into_iter().zip(weights)) {
            sink.attr(phase, &q.name, ns, units);
        }
    }

    /// Renders the program as concrete syntax.
    pub fn to_source(&self) -> String {
        let mut out = String::new();
        for p in &self.procs {
            out.push_str(&pe_sexpr::pretty(&p.to_sexpr(&self.procs)));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for S0Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_source())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn print_shape_matches_paper_style() {
        let p = S0Proc {
            name: "sl-eval-$3".into(),
            params: vec!["cv-vals-$1".into(), "cv-vals-$2".into()],
            body: S0Tail::If(
                S0Simple::Prim(Prim::NullP, vec![S0Simple::Var(0)]),
                Box::new(S0Tail::Return(S0Simple::Var(1))),
                Box::new(S0Tail::TailCall(
                    ProcId(0),
                    vec![
                        S0Simple::Prim(Prim::Cdr, vec![S0Simple::Var(0)]),
                        S0Simple::MakeClosure(24, vec![S0Simple::Var(1)]),
                    ],
                )),
            ),
        };
        let s = p.to_sexpr(std::slice::from_ref(&p)).to_string();
        assert!(s.contains("(make-closure 24 cv-vals-$2)"), "{s}");
        assert!(s.starts_with("(define (sl-eval-$3 cv-vals-$1 cv-vals-$2)"), "{s}");
        assert!(s.contains("(sl-eval-$3 (cdr cv-vals-$1)"), "{s}");
    }

    #[test]
    fn out_of_range_ids_print_as_placeholders() {
        let p = S0Program {
            entry: ProcId(0),
            procs: vec![S0Proc {
                name: "main".into(),
                params: vec!["x".into()],
                body: S0Tail::TailCall(ProcId(3), vec![S0Simple::Var(0), S0Simple::Var(2)]),
            }],
        };
        assert_eq!(p.to_source(), "(define (main x) (%proc-3 x %slot-2))\n");
    }

    #[test]
    fn subst_replaces_free_vars() {
        let t = S0Tail::TailCall(
            ProcId(0),
            vec![S0Simple::Var(0), S0Simple::Prim(Prim::Car, vec![S0Simple::Var(1)])],
        );
        let t2 = t.subst(&[S0Simple::Const(Constant::Int(1)), S0Simple::Var(0)]);
        assert_eq!(
            t2,
            S0Tail::TailCall(
                ProcId(0),
                vec![
                    S0Simple::Const(Constant::Int(1)),
                    S0Simple::Prim(Prim::Car, vec![S0Simple::Var(0)])
                ]
            )
        );
    }

    #[test]
    fn sizes_are_positive_and_additive() {
        let s = S0Simple::Prim(Prim::Cons, vec![S0Simple::Var(0), S0Simple::Var(1)]);
        assert_eq!(s.size(), 3);
        let t = S0Tail::Return(s);
        assert_eq!(t.size(), 3);
    }
}
