//! Pass 1 — well-formedness of S₀ programs.
//!
//! Replaces (and absorbs) the historical `S0Program::check()`: the entry
//! exists, procedure names are unique, parameters are unique, every
//! variable slot and call target is in range, every call has its
//! target's arity, and every primitive application has the primitive's
//! arity.  The tail-form grammar itself is enforced twice: structurally
//! by the `S0Tail`/`S0Simple` types, and on the concrete syntax by the
//! [preservation](crate::preservation) certificate.

use crate::report::{Diagnostic, Pass};
use pe_core::s0::{proc_name, var_name};
use pe_core::{S0Proc, S0Program, S0Simple, S0Tail};
use std::collections::{BTreeSet, HashSet};

/// Runs the pass.
pub fn check(p: &S0Program) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let err = |proc_name: Option<&str>, msg: String| Diagnostic::error(Pass::WellFormed, proc_name, msg);

    if p.entry.index() >= p.procs.len() {
        let entry = proc_name(&p.procs, p.entry);
        out.push(err(None, format!("entry procedure {entry} is not defined")));
    }

    let mut seen = HashSet::new();
    for pr in &p.procs {
        if !seen.insert(pr.name.as_str()) {
            out.push(err(Some(&pr.name), "duplicate procedure definition".to_string()));
        }
        let mut params = HashSet::new();
        for prm in &pr.params {
            if !params.insert(prm.as_str()) {
                out.push(err(Some(&pr.name), format!("duplicate parameter {prm}")));
            }
        }
        let mut unbound = BTreeSet::new();
        pr.body.vars(&mut |v| {
            if v as usize >= pr.params.len() {
                unbound.insert(v);
            }
        });
        for v in unbound {
            out.push(err(Some(&pr.name), format!("unbound variable {}", var_name(&pr.params, v))));
        }
        check_tail(&pr.name, &pr.body, &p.procs, &mut out);
    }
    out
}

fn check_tail(owner: &str, t: &S0Tail, procs: &[S0Proc], out: &mut Vec<Diagnostic>) {
    match t {
        S0Tail::Return(s) => check_simple(owner, s, out),
        S0Tail::Fail(_) => {}
        S0Tail::If(c, a, b) => {
            check_simple(owner, c, out);
            check_tail(owner, a, procs, out);
            check_tail(owner, b, procs, out);
        }
        S0Tail::TailCall(callee, args) => {
            match procs.get(callee.index()) {
                None => out.push(Diagnostic::error(
                    Pass::WellFormed,
                    Some(owner),
                    format!("call to undefined procedure {}", proc_name(procs, *callee)),
                )),
                Some(c) if c.params.len() != args.len() => out.push(Diagnostic::error(
                    Pass::WellFormed,
                    Some(owner),
                    format!(
                        "call to {} with {} argument(s), expected {}",
                        c.name,
                        args.len(),
                        c.params.len()
                    ),
                )),
                Some(_) => {}
            }
            for a in args {
                check_simple(owner, a, out);
            }
        }
    }
}

fn check_simple(owner: &str, s: &S0Simple, out: &mut Vec<Diagnostic>) {
    match s {
        S0Simple::Var(_) | S0Simple::Const(_) => {}
        S0Simple::Prim(op, args) => {
            if args.len() != op.arity() {
                out.push(Diagnostic::error(
                    Pass::WellFormed,
                    Some(owner),
                    format!(
                        "primitive {op} applied to {} argument(s), expected {}",
                        args.len(),
                        op.arity()
                    ),
                ));
            }
            for a in args {
                check_simple(owner, a, out);
            }
        }
        S0Simple::MakeClosure(_, args) => {
            for a in args {
                check_simple(owner, a, out);
            }
        }
        S0Simple::ClosureLabel(a) => check_simple(owner, a, out),
        S0Simple::ClosureFreeval(a, _) => check_simple(owner, a, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_core::ProcId;
    use pe_frontend::ast::{Constant, Prim};

    fn var(slot: u32) -> S0Simple {
        S0Simple::Var(slot)
    }

    #[test]
    fn catches_all_basic_violations() {
        let prog = S0Program {
            entry: ProcId(5),
            procs: vec![
                S0Proc {
                    name: "main".into(),
                    params: vec!["x".into(), "x".into()],
                    body: S0Tail::If(
                        var(2),
                        Box::new(S0Tail::TailCall(ProcId(7), vec![])),
                        Box::new(S0Tail::TailCall(ProcId(0), vec![var(0)])),
                    ),
                },
                S0Proc {
                    name: "main".into(),
                    params: vec![],
                    body: S0Tail::Return(S0Simple::Prim(Prim::Car, vec![])),
                },
            ],
        };
        let msgs: Vec<String> = check(&prog).iter().map(ToString::to_string).collect();
        let text = msgs.join("\n");
        assert!(text.contains("entry procedure %proc-5 is not defined"), "{text}");
        assert!(text.contains("main: duplicate parameter x"), "{text}");
        assert!(text.contains("main: unbound variable %slot-2"), "{text}");
        assert!(text.contains("main: call to undefined procedure %proc-7"), "{text}");
        assert!(text.contains("main: call to main with 1 argument(s), expected 2"), "{text}");
        assert!(text.contains("main: duplicate procedure definition"), "{text}");
        assert!(text.contains("main: primitive car applied to 0 argument(s), expected 1"), "{text}");
    }

    #[test]
    fn accepts_wellformed_loop() {
        let prog = S0Program {
            entry: ProcId(0),
            procs: vec![S0Proc {
                name: "loop".into(),
                params: vec!["n".into()],
                body: S0Tail::If(
                    S0Simple::Prim(Prim::ZeroP, vec![var(0)]),
                    Box::new(S0Tail::Return(S0Simple::Const(Constant::Int(0)))),
                    Box::new(S0Tail::TailCall(
                        ProcId(0),
                        vec![S0Simple::Prim(
                            Prim::Sub,
                            vec![var(0), S0Simple::Const(Constant::Int(1))],
                        )],
                    )),
                ),
            }],
        };
        assert!(check(&prog).is_empty());
    }
}
