//! Pass 4 — residual-quality lints.
//!
//! Everything here is a *warning*: the program is correct, but the
//! specializer (or a hand-written subject) left something behind that a
//! good residual program would not contain — procedures no call chain
//! can reach, parameters nobody reads, or procedures whose whole body is
//! `%fail`.

use crate::report::{Diagnostic, Pass};
use pe_core::s0::proc_name;
use pe_core::{S0Program, S0Tail};

/// Runs the pass.
pub fn check(p: &S0Program) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let warn = |proc_name: &str, msg: String| Diagnostic::warning(Pass::Lint, Some(proc_name), msg);

    // Reachability from the entry over tail-call edges.
    let mut reachable = vec![false; p.procs.len()];
    let mut work = vec![p.entry];
    while let Some(f) = work.pop() {
        let Some(seen) = reachable.get_mut(f.index()) else { continue };
        if !std::mem::replace(seen, true) {
            p.procs[f.index()].body.calls(&mut |callee, _| work.push(callee));
        }
    }

    let entry = proc_name(&p.procs, p.entry);
    for (f, pr) in p.procs.iter().enumerate() {
        if !reachable[f] {
            out.push(warn(&pr.name, format!("unreachable from entry {entry}")));
        }
        if matches!(pr.body, S0Tail::Fail(_)) {
            out.push(warn(&pr.name, "body is only %fail".to_string()));
        }
        if f != p.entry.index() {
            let mut used = vec![false; pr.params.len()];
            pr.body.vars(&mut |v| {
                if let Some(u) = used.get_mut(v as usize) {
                    *u = true;
                }
            });
            for (prm, _) in pr.params.iter().zip(used).filter(|(_, u)| !u) {
                out.push(warn(&pr.name, format!("dead parameter {prm}")));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_core::{ProcId, S0Proc, S0Simple};

    #[test]
    fn flags_unreachable_dead_param_and_fail_only() {
        let prog = S0Program {
            entry: ProcId(0),
            procs: vec![
                S0Proc {
                    name: "main".into(),
                    params: vec!["x".into()],
                    body: S0Tail::TailCall(ProcId(1), vec![S0Simple::Var(0)]),
                },
                S0Proc {
                    name: "helper".into(),
                    params: vec!["x".into(), "unused".into()],
                    body: S0Tail::Return(S0Simple::Var(0)),
                },
                S0Proc {
                    name: "orphan".into(),
                    params: vec![],
                    body: S0Tail::Fail("never".into()),
                },
            ],
        };
        let text: Vec<String> = check(&prog).iter().map(ToString::to_string).collect();
        let text = text.join("\n");
        assert!(text.contains("warning[lint] orphan: unreachable from entry main"), "{text}");
        assert!(text.contains("warning[lint] orphan: body is only %fail"), "{text}");
        assert!(text.contains("warning[lint] helper: dead parameter unused"), "{text}");
        // `main`'s own param is exempt (the entry's interface is fixed),
        // and `helper` is reachable.
        assert!(!text.contains("helper: unreachable"), "{text}");
    }
}
