//! Flow-based verification of S₀ programs.
//!
//! Three checks:
//!
//! * **definite binding** (error) — every variable read is bound along
//!   *all* paths reaching it.  S₀ binds only at procedure entry, so that
//!   holds exactly when the read's slot is one of the procedure's
//!   parameters: a range check per tail node.  Calls to unknown
//!   procedures and arity mismatches are reported here too — binding
//!   obligations cross procedures through calls.
//! * **dispatch-arm reachability** (warning) — a dispatch arm the label
//!   analysis proves always or never taken is residual noise the
//!   optimizer would fold; reported via [`crate::slots::arm_findings`].
//! * **dead closure slots** (warning) — capture slots never read at any
//!   definite freeval site, prunable by [`crate::slots::prune`].
//!
//! A program that went through [`crate::opt::optimize`] satisfies both
//! warning lints by construction: the lints mirror the optimizer's own
//! analyses, so anything they would flag has already been rewritten.

use crate::s0::{proc_name, var_name, S0Proc, S0Program, S0Simple, S0Tail};
use pe_governor::{Fuel, Trap};
use std::collections::BTreeSet;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowSeverity {
    /// The program is ill-formed; executing it can go wrong.
    Error,
    /// The program is correct but carries residual noise the flow
    /// optimizer would remove.
    Warning,
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowDiag {
    /// Severity of the finding.
    pub severity: FlowSeverity,
    /// The procedure the finding is anchored at.
    pub proc: String,
    /// Human-readable description.
    pub message: String,
}

/// Reports the reads of out-of-range slots and the calls to unknown
/// procedures or with the wrong arity in `t`, node by node in program
/// order.
fn check_bindings(q: &S0Proc, t: &S0Tail, procs: &[S0Proc], out: &mut Vec<FlowDiag>) {
    let mut err = |message| {
        out.push(FlowDiag { severity: FlowSeverity::Error, proc: q.name.clone(), message });
    };
    let reads: &[S0Simple] = match t {
        S0Tail::Return(s) | S0Tail::If(s, _, _) => std::slice::from_ref(s),
        S0Tail::TailCall(_, args) => args,
        S0Tail::Fail(_) => &[],
    };
    let mut unbound = BTreeSet::new();
    for s in reads {
        s.vars(&mut |v| {
            if v as usize >= q.params.len() {
                unbound.insert(v);
            }
        });
    }
    for v in unbound {
        err(format!("variable `{}` read but not definitely bound", var_name(&q.params, v)));
    }
    match t {
        S0Tail::TailCall(callee, args) => match procs.get(callee.index()) {
            None => err(format!("call to unknown procedure `{}`", proc_name(procs, *callee))),
            Some(c) if c.params.len() != args.len() => err(format!(
                "call to `{}` passes {} arguments, expects {}",
                c.name,
                args.len(),
                c.params.len()
            )),
            Some(_) => {}
        },
        S0Tail::If(_, a, b) => {
            check_bindings(q, a, procs, out);
            check_bindings(q, b, procs, out);
        }
        S0Tail::Return(_) | S0Tail::Fail(_) => {}
    }
}

/// Runs all flow checks over `p`.
///
/// # Errors
///
/// [`Trap::OutOfFuel`] when the analysis budget is exhausted.
pub fn check(p: &S0Program, fuel: &mut Fuel) -> Result<Vec<FlowDiag>, Trap> {
    let mut diags = Vec::new();
    for q in &p.procs {
        fuel.step()?;
        check_bindings(q, &q.body, &p.procs, &mut diags);
    }
    // Dispatch arms decidable from label sets alone.
    for f in crate::slots::arm_findings(p, fuel)? {
        let what = if f.always { "always" } else { "never" };
        diags.push(FlowDiag {
            severity: FlowSeverity::Warning,
            proc: proc_name(&p.procs, f.proc).into_owned(),
            message: format!("dispatch on closure label {} {what} matches", f.label),
        });
    }
    // Capture slots never read at any definite site.
    let sa = crate::slots::analyze(p, fuel)?;
    for (l, idxs) in &sa.prune {
        let owner = match p.procs.iter().find(|q| allocates(&q.body, *l)) {
            Some(q) => q.name.clone(),
            None => proc_name(&p.procs, p.entry).into_owned(),
        };
        diags.push(FlowDiag {
            severity: FlowSeverity::Warning,
            proc: owner,
            message: format!(
                "closure label {l}: capture slot{} {} never read (prunable)",
                if idxs.len() == 1 { "" } else { "s" },
                idxs.iter().map(ToString::to_string).collect::<Vec<_>>().join(", ")
            ),
        });
    }
    Ok(diags)
}

/// Whether `t` allocates label `l`, for anchoring diagnostics.
fn allocates(t: &S0Tail, l: u32) -> bool {
    fn in_simple(s: &S0Simple, l: u32) -> bool {
        match s {
            S0Simple::Var(_) | S0Simple::Const(_) => false,
            S0Simple::MakeClosure(m, args) => {
                *m == l || args.iter().any(|a| in_simple(a, l))
            }
            S0Simple::Prim(_, args) => args.iter().any(|a| in_simple(a, l)),
            S0Simple::ClosureLabel(a) | S0Simple::ClosureFreeval(a, _) => in_simple(a, l),
        }
    }
    match t {
        S0Tail::Return(s) => in_simple(s, l),
        S0Tail::Fail(_) => false,
        S0Tail::If(c, a, b) => in_simple(c, l) || allocates(a, l) || allocates(b, l),
        S0Tail::TailCall(_, args) => args.iter().any(|a| in_simple(a, l)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::s0::ProcId;
    use pe_frontend::ast::Constant;
    use pe_governor::Limits;

    fn var(slot: u32) -> S0Simple {
        S0Simple::Var(slot)
    }

    fn kint(n: i64) -> S0Simple {
        S0Simple::Const(Constant::Int(n))
    }

    fn fuel() -> Fuel {
        Fuel::new(&Limits::default())
    }

    #[test]
    fn wellformed_program_is_clean() {
        let p = S0Program {
            entry: ProcId(0),
            procs: vec![S0Proc {
                name: "main".into(),
                params: vec!["x".into()],
                body: S0Tail::Return(var(0)),
            }],
        };
        assert!(check(&p, &mut fuel()).unwrap().is_empty());
    }

    #[test]
    fn unbound_reads_and_bad_calls_are_errors() {
        let p = S0Program {
            entry: ProcId(0),
            procs: vec![
                S0Proc {
                    name: "main".into(),
                    params: vec!["x".into()],
                    body: S0Tail::If(
                        var(0),
                        Box::new(S0Tail::Return(var(1))),
                        Box::new(S0Tail::TailCall(ProcId(1), vec![kint(1), kint(2)])),
                    ),
                },
                S0Proc {
                    name: "f".into(),
                    params: vec!["a".into()],
                    body: S0Tail::TailCall(ProcId(7), vec![var(0)]),
                },
            ],
        };
        let diags = check(&p, &mut fuel()).unwrap();
        let errors: Vec<&str> = diags
            .iter()
            .filter(|d| d.severity == FlowSeverity::Error)
            .map(|d| d.message.as_str())
            .collect();
        assert_eq!(errors.len(), 3, "{errors:?}");
        assert!(errors.iter().any(|m| m.contains("variable `%slot-1` read")));
        assert!(errors.iter().any(|m| m.contains("expects 1")));
        assert!(errors.iter().any(|m| m.contains("unknown procedure `%proc-7`")));
    }

    #[test]
    fn dead_slots_are_warnings_until_optimized() {
        let p = S0Program {
            entry: ProcId(0),
            procs: vec![
                S0Proc {
                    name: "main".into(),
                    params: vec!["a".into(), "b".into()],
                    body: S0Tail::TailCall(
                        ProcId(1),
                        vec![S0Simple::MakeClosure(4, vec![var(0), var(1)])],
                    ),
                },
                S0Proc {
                    name: "k".into(),
                    params: vec!["c".into()],
                    body: S0Tail::Return(S0Simple::ClosureFreeval(Box::new(var(0)), 0)),
                },
            ],
        };
        let diags = check(&p, &mut fuel()).unwrap();
        let warn: Vec<_> =
            diags.iter().filter(|d| d.severity == FlowSeverity::Warning).collect();
        assert_eq!(warn.len(), 1, "{diags:?}");
        assert!(warn[0].message.contains("capture slot 1"), "{}", warn[0].message);
        assert_eq!(warn[0].proc, "main");

        // After the optimizer the very same lint comes back empty.
        let (q, stats) = crate::opt::optimize(p, &mut fuel()).unwrap();
        assert!(stats.slots_pruned >= 1, "{stats:?}");
        assert!(check(&q, &mut fuel()).unwrap().is_empty(), "{q}");
    }

    #[test]
    fn decidable_dispatch_arms_are_warnings() {
        let p = S0Program {
            entry: ProcId(0),
            procs: vec![
                S0Proc {
                    name: "main".into(),
                    params: vec!["a".into()],
                    body: S0Tail::TailCall(
                        ProcId(1),
                        vec![S0Simple::MakeClosure(2, vec![var(0)])],
                    ),
                },
                S0Proc {
                    name: "k".into(),
                    params: vec!["c".into()],
                    body: S0Tail::If(
                        S0Simple::Prim(
                            pe_frontend::Prim::EqualP,
                            vec![kint(9), S0Simple::ClosureLabel(Box::new(var(0)))],
                        ),
                        Box::new(S0Tail::Fail("unreachable".into())),
                        Box::new(S0Tail::Return(S0Simple::ClosureFreeval(
                            Box::new(var(0)),
                            0,
                        ))),
                    ),
                },
            ],
        };
        let diags = check(&p, &mut fuel()).unwrap();
        assert!(
            diags.iter().any(|d| d.severity == FlowSeverity::Warning
                && d.proc == "k"
                && d.message.contains("never matches")),
            "{diags:?}"
        );
    }

    #[test]
    fn unreachable_nodes_carry_no_binding_obligation() {
        // A constant-false branch guards a read of a slot main does not
        // have.  Every node of an S₀ body is reachable in its CFG, so
        // the binding check flags the read even on a branch that can
        // never run.
        let p = S0Program {
            entry: ProcId(0),
            procs: vec![S0Proc {
                name: "main".into(),
                params: vec![],
                body: S0Tail::If(
                    S0Simple::Const(Constant::Bool(false)),
                    Box::new(S0Tail::Return(var(0))),
                    Box::new(S0Tail::Return(kint(0))),
                ),
            }],
        };
        let diags = check(&p, &mut fuel()).unwrap();
        assert!(diags.iter().any(|d| d.message.contains("`%slot-0`")), "{diags:?}");
    }
}
