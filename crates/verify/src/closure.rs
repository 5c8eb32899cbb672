//! Pass 2 — closure-shape analysis.
//!
//! A small abstract interpretation over S₀: each value is approximated
//! by the set of `make-closure` labels that may reach it, plus an
//! `other` bit for values of unknown (non-`make-closure`) origin.  The
//! analysis is interprocedural (a fixpoint over the tail-call graph) and
//! path-sensitive along sequential label dispatch: inside the `then`
//! branch of `(if (equal? ℓ (closure-label c)) … …)` the subject `c` is
//! refined to label `ℓ`, and in the `else` branch `ℓ` is subtracted.
//!
//! The shapes are used for two checks:
//!
//! * every `(closure-freeval c i)` whose subject has a fully known label
//!   set is compared against the **minimum captured-value count** of
//!   those labels — an index at or past the minimum is a guaranteed
//!   out-of-bounds access on some path (error);
//! * every dispatch chain is audited for **dead arms** (a tested label
//!   that cannot reach the subject) and **non-exhaustiveness** (labels
//!   that fall through to a `%fail` arm) — both warnings.

use crate::report::{Diagnostic, Pass};
use pe_core::{ProcId, S0Program, S0Simple, S0Tail};
use pe_frontend::ast::{Constant, Prim};
use std::collections::{BTreeMap, BTreeSet};

/// An abstract value: the `make-closure` labels that may flow here.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AbsVal {
    /// Labels of `make-closure` sites that may reach this value.
    pub labels: BTreeSet<u32>,
    /// True if a value of unknown origin (entry input, primitive result,
    /// captured value) may also reach — the label set is then a lower
    /// bound only and index checks are skipped.
    pub other: bool,
}

impl AbsVal {
    fn bottom() -> AbsVal {
        AbsVal::default()
    }

    fn unknown() -> AbsVal {
        AbsVal { labels: BTreeSet::new(), other: true }
    }

    fn of_label(l: u32) -> AbsVal {
        AbsVal { labels: BTreeSet::from([l]), other: false }
    }

    fn join_from(&mut self, o: &AbsVal) -> bool {
        let before = (self.labels.len(), self.other);
        self.labels.extend(o.labels.iter().copied());
        self.other |= o.other;
        (self.labels.len(), self.other) != before
    }

    fn without(&self, l: u32) -> AbsVal {
        let mut labels = self.labels.clone();
        labels.remove(&l);
        AbsVal { labels, other: self.other }
    }
}

/// The analysis result: per-procedure parameter shapes and the minimum
/// captured-value count of every closure label.
#[derive(Debug, Clone)]
pub struct ClosureShapes {
    /// For each procedure (by [`ProcId`]), the abstract value of each
    /// parameter.
    pub params: Vec<Vec<AbsVal>>,
    /// For each `make-closure` label, the minimum number of captured
    /// values over all of its allocation sites.
    pub min_captures: BTreeMap<u32, usize>,
}

type Refinements = Vec<(S0Simple, AbsVal)>;

/// Computes the closure shapes of `p` by fixpoint.
pub fn analyze(p: &S0Program) -> ClosureShapes {
    let mut min_captures = BTreeMap::new();
    for pr in &p.procs {
        collect_captures_tail(&pr.body, &mut min_captures);
    }
    let mut params: Vec<Vec<AbsVal>> =
        p.procs.iter().map(|pr| vec![AbsVal::bottom(); pr.params.len()]).collect();
    // The entry's arguments come from outside: unknown.
    if let Some(slots) = params.get_mut(p.entry.index()) {
        for s in slots.iter_mut() {
            *s = AbsVal::unknown();
        }
    }
    loop {
        let mut changed = false;
        for (f, pr) in p.procs.iter().enumerate() {
            let env = params[f].clone();
            let mut flows = Vec::new();
            flow_tail(&pr.body, &env, &mut Vec::new(), &mut flows);
            for (callee, args) in flows {
                if let Some(slots) = params.get_mut(callee.index()) {
                    for (slot, v) in slots.iter_mut().zip(&args) {
                        changed |= slot.join_from(v);
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    ClosureShapes { params, min_captures }
}

fn collect_captures_tail(t: &S0Tail, out: &mut BTreeMap<u32, usize>) {
    match t {
        S0Tail::Return(s) => collect_captures_simple(s, out),
        S0Tail::Fail(_) => {}
        S0Tail::If(c, a, b) => {
            collect_captures_simple(c, out);
            collect_captures_tail(a, out);
            collect_captures_tail(b, out);
        }
        S0Tail::TailCall(_, args) => args.iter().for_each(|a| collect_captures_simple(a, out)),
    }
}

fn collect_captures_simple(s: &S0Simple, out: &mut BTreeMap<u32, usize>) {
    match s {
        S0Simple::Var(_) | S0Simple::Const(_) => {}
        S0Simple::MakeClosure(l, args) => {
            out.entry(*l)
                .and_modify(|n| *n = (*n).min(args.len()))
                .or_insert(args.len());
            args.iter().for_each(|a| collect_captures_simple(a, out));
        }
        S0Simple::Prim(_, args) => args.iter().for_each(|a| collect_captures_simple(a, out)),
        S0Simple::ClosureLabel(a) | S0Simple::ClosureFreeval(a, _) => {
            collect_captures_simple(a, out);
        }
    }
}

/// Abstract evaluation of a simple expression under `env`, honouring
/// path refinements from enclosing dispatch tests.
fn eval(e: &S0Simple, env: &[AbsVal], refines: &Refinements) -> AbsVal {
    if let Some((_, v)) = refines.iter().rev().find(|(s, _)| s == e) {
        return v.clone();
    }
    match e {
        S0Simple::Var(v) => env.get(*v as usize).cloned().unwrap_or_else(AbsVal::unknown),
        // A constant is never a closure.
        S0Simple::Const(_) => AbsVal::bottom(),
        // Primitive results may hold closures fetched out of pairs (the
        // residual context stack is an ordinary list).
        S0Simple::Prim(_, _) => AbsVal::unknown(),
        S0Simple::MakeClosure(l, _) => AbsVal::of_label(*l),
        // A closure label is a fixnum.
        S0Simple::ClosureLabel(_) => AbsVal::bottom(),
        // Captured values are not tracked through the closure record.
        S0Simple::ClosureFreeval(_, _) => AbsVal::unknown(),
    }
}

/// Recognizes a sequential-dispatch test
/// `(eq?/eqv?/equal? ℓ (closure-label subject))` (either operand
/// order); returns the subject and the tested label.
fn parse_dispatch(c: &S0Simple) -> Option<(&S0Simple, u32)> {
    let S0Simple::Prim(op, args) = c else { return None };
    if !matches!(op, Prim::EqP | Prim::EqvP | Prim::EqualP) || args.len() != 2 {
        return None;
    }
    let (k, subj) = match (&args[0], &args[1]) {
        (S0Simple::Const(Constant::Int(k)), S0Simple::ClosureLabel(s))
        | (S0Simple::ClosureLabel(s), S0Simple::Const(Constant::Int(k))) => (*k, &**s),
        _ => return None,
    };
    u32::try_from(k).ok().map(|k| (subj, k))
}

fn flow_tail(
    t: &S0Tail,
    env: &[AbsVal],
    refines: &mut Refinements,
    flows: &mut Vec<(ProcId, Vec<AbsVal>)>,
) {
    match t {
        S0Tail::Return(_) | S0Tail::Fail(_) => {}
        S0Tail::TailCall(p, args) => {
            flows.push((*p, args.iter().map(|a| eval(a, env, refines)).collect()));
        }
        S0Tail::If(c, a, b) => {
            if let Some((subj, k)) = parse_dispatch(c) {
                let v = eval(subj, env, refines);
                refines.push((subj.clone(), AbsVal::of_label(k)));
                flow_tail(a, env, refines, flows);
                refines.pop();
                refines.push((subj.clone(), v.without(k)));
                flow_tail(b, env, refines, flows);
                refines.pop();
            } else {
                flow_tail(a, env, refines, flows);
                flow_tail(b, env, refines, flows);
            }
        }
    }
}

/// Runs the pass: analysis plus the index/dispatch checks.
pub fn check(p: &S0Program) -> Vec<Diagnostic> {
    let shapes = analyze(p);
    let mut out = Vec::new();
    for (pr, env) in p.procs.iter().zip(&shapes.params) {
        check_tail(&pr.body, env, &mut Vec::new(), &shapes, &pr.name, &mut out);
    }
    out
}

fn fmt_labels(labels: &BTreeSet<u32>) -> String {
    labels.iter().map(ToString::to_string).collect::<Vec<_>>().join(", ")
}

fn check_tail(
    t: &S0Tail,
    env: &[AbsVal],
    refines: &mut Refinements,
    shapes: &ClosureShapes,
    owner: &str,
    out: &mut Vec<Diagnostic>,
) {
    match t {
        S0Tail::Return(s) => check_simple(s, env, refines, shapes, owner, out),
        S0Tail::Fail(_) => {}
        S0Tail::TailCall(_, args) => {
            for a in args {
                check_simple(a, env, refines, shapes, owner, out);
            }
        }
        S0Tail::If(c, a, b) => {
            check_simple(c, env, refines, shapes, owner, out);
            if let Some((subj, k)) = parse_dispatch(c) {
                let v = eval(subj, env, refines);
                if !shapes.min_captures.contains_key(&k) {
                    out.push(Diagnostic::warning(
                        Pass::ClosureShape,
                        Some(owner),
                        format!("dispatch arm for label {k} is dead: the label is never allocated"),
                    ));
                } else if !v.other && !v.labels.is_empty() && !v.labels.contains(&k) {
                    out.push(Diagnostic::warning(
                        Pass::ClosureShape,
                        Some(owner),
                        format!(
                            "dispatch arm for label {k} is dead: subject may only carry label(s) {}",
                            fmt_labels(&v.labels)
                        ),
                    ));
                }
                refines.push((subj.clone(), AbsVal::of_label(k)));
                check_tail(a, env, refines, shapes, owner, out);
                refines.pop();
                let rest = v.without(k);
                if matches!(&**b, S0Tail::Fail(_)) && !rest.other && !rest.labels.is_empty() {
                    out.push(Diagnostic::warning(
                        Pass::ClosureShape,
                        Some(owner),
                        format!(
                            "sequential dispatch is non-exhaustive: label(s) {} fall through to %fail",
                            fmt_labels(&rest.labels)
                        ),
                    ));
                }
                refines.push((subj.clone(), rest));
                check_tail(b, env, refines, shapes, owner, out);
                refines.pop();
            } else {
                check_tail(a, env, refines, shapes, owner, out);
                check_tail(b, env, refines, shapes, owner, out);
            }
        }
    }
}

fn check_simple(
    s: &S0Simple,
    env: &[AbsVal],
    refines: &Refinements,
    shapes: &ClosureShapes,
    owner: &str,
    out: &mut Vec<Diagnostic>,
) {
    match s {
        S0Simple::Var(_) | S0Simple::Const(_) => {}
        S0Simple::Prim(_, args) | S0Simple::MakeClosure(_, args) => {
            for a in args {
                check_simple(a, env, refines, shapes, owner, out);
            }
        }
        S0Simple::ClosureLabel(a) => check_simple(a, env, refines, shapes, owner, out),
        S0Simple::ClosureFreeval(a, i) => {
            check_simple(a, env, refines, shapes, owner, out);
            let v = eval(a, env, refines);
            // Labels with no `make-closure` site in the program cannot
            // occur at run time (closures are an abstract type only this
            // program can create) — a dispatch arm refined to such a
            // label is dead code, not an out-of-bounds access.
            let live: BTreeSet<u32> = v
                .labels
                .iter()
                .copied()
                .filter(|l| shapes.min_captures.contains_key(l))
                .collect();
            if !v.other && !live.is_empty() {
                let min = live
                    .iter()
                    .map(|l| shapes.min_captures[l])
                    .min()
                    .expect("non-empty label set");
                if *i >= min {
                    out.push(Diagnostic::error(
                        Pass::ClosureShape,
                        Some(owner),
                        format!(
                            "closure-freeval index {i} exceeds the captured-value count of label(s) {} (minimum {min})",
                            fmt_labels(&live)
                        ),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_core::S0Proc;

    fn var(slot: u32) -> S0Simple {
        S0Simple::Var(slot)
    }

    fn int(n: i64) -> S0Simple {
        S0Simple::Const(Constant::Int(n))
    }

    fn dispatch(k: u32, subj: S0Simple) -> S0Simple {
        S0Simple::Prim(
            Prim::EqualP,
            vec![int(i64::from(k)), S0Simple::ClosureLabel(Box::new(subj))],
        )
    }

    /// entry(x): calls k with (make-closure 7 x); k(c) dispatches on c.
    fn two_proc_program(arm: S0Tail, else_: S0Tail, tested: u32) -> S0Program {
        S0Program {
            entry: ProcId(0),
            procs: vec![
                S0Proc {
                    name: "entry".into(),
                    params: vec!["x".into()],
                    body: S0Tail::TailCall(
                        ProcId(1),
                        vec![S0Simple::MakeClosure(7, vec![var(0)])],
                    ),
                },
                S0Proc {
                    name: "k".into(),
                    params: vec!["c".into()],
                    body: S0Tail::If(
                        dispatch(tested, var(0)),
                        Box::new(arm),
                        Box::new(else_),
                    ),
                },
            ],
        }
    }

    #[test]
    fn freeval_in_range_is_clean() {
        let p = two_proc_program(
            S0Tail::Return(S0Simple::ClosureFreeval(Box::new(var(0)), 0)),
            S0Tail::Fail("no arm".into()),
            7,
        );
        let diags = check(&p);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn freeval_out_of_range_is_an_error() {
        let p = two_proc_program(
            S0Tail::Return(S0Simple::ClosureFreeval(Box::new(var(0)), 1)),
            S0Tail::Fail("no arm".into()),
            7,
        );
        let diags = check(&p);
        let text: Vec<String> = diags.iter().map(ToString::to_string).collect();
        assert!(
            text.iter().any(|m| m.contains(
                "error[closure-shape] k: closure-freeval index 1 exceeds the captured-value count of label(s) 7 (minimum 1)"
            )),
            "{text:?}"
        );
    }

    #[test]
    fn dead_arm_and_nonexhaustive_fail_are_flagged() {
        // Tests label 9, but only label 7 can reach: the arm is dead and
        // label 7 falls through to %fail.
        let p = two_proc_program(
            S0Tail::Return(int(0)),
            S0Tail::Fail("no arm".into()),
            9,
        );
        let text: Vec<String> = check(&p).iter().map(ToString::to_string).collect();
        assert!(
            text.iter().any(|m| m.contains("dispatch arm for label 9 is dead")),
            "{text:?}"
        );
        assert!(
            text.iter()
                .any(|m| m.contains("non-exhaustive: label(s) 7 fall through to %fail")),
            "{text:?}"
        );
    }

    #[test]
    fn refinement_distinguishes_arms() {
        // Two labels with different capture counts; each arm accesses
        // only what its own label captures — clean thanks to refinement.
        let subj = var(0);
        let p = S0Program {
            entry: ProcId(0),
            procs: vec![
                S0Proc {
                    name: "entry".into(),
                    params: vec!["x".into()],
                    body: S0Tail::If(
                        S0Simple::Prim(Prim::NullP, vec![var(0)]),
                        Box::new(S0Tail::TailCall(
                            ProcId(1),
                            vec![S0Simple::MakeClosure(1, vec![var(0), var(0)])],
                        )),
                        Box::new(S0Tail::TailCall(
                            ProcId(1),
                            vec![S0Simple::MakeClosure(2, vec![var(0)])],
                        )),
                    ),
                },
                S0Proc {
                    name: "k".into(),
                    params: vec!["c".into()],
                    body: S0Tail::If(
                        dispatch(1, subj.clone()),
                        Box::new(S0Tail::Return(S0Simple::ClosureFreeval(
                            Box::new(subj.clone()),
                            1,
                        ))),
                        Box::new(S0Tail::Return(S0Simple::ClosureFreeval(
                            Box::new(subj),
                            0,
                        ))),
                    ),
                },
            ],
        };
        let diags = check(&p);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
