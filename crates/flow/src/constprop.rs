//! Interprocedural copy/constant propagation over S₀.
//!
//! S₀ has exactly one binding construct — procedure parameters — so
//! copies and constants propagate through *calls*: parameter `(f, i)`
//! is known to be the constant `k` when every call site's `i`-th
//! argument evaluates to `k` under the caller's own facts.  Passing a
//! parameter along (`(f x)` where `x` is itself known) chains copies
//! without any extra machinery: argument evaluation looks variables up
//! in the caller's fact row.
//!
//! The lattice per parameter is flat:
//!
//! ```text
//!      Top            (some call passes an unknown value)
//!   Known(k)          (every call passes the constant k)
//!     Bottom          (no call reaches the parameter yet)
//! ```
//!
//! The rewrite substitutes `Known` parameters by their constants inside
//! the owning body (the parameter itself stays and is collected by
//! dead-parameter pruning afterwards), counting replaced occurrences —
//! the `copies_propagated` counter.

use crate::s0::{S0Program, S0Simple};
use pe_frontend::ast::Constant;
use pe_governor::{Fuel, Trap};

/// One parameter's abstract value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CVal {
    /// No call site reaches this parameter (yet).
    Bottom,
    /// Every call site passes exactly this constant.
    Known(Constant),
    /// Call sites disagree or pass computed values.
    Top,
}

impl CVal {
    /// Joins `other` into `self`; returns true when `self` changed.
    fn join(&mut self, other: &CVal) -> bool {
        match (&*self, other) {
            (_, CVal::Bottom) | (CVal::Top, _) => false,
            (CVal::Bottom, _) => {
                *self = other.clone();
                true
            }
            (CVal::Known(a), CVal::Known(b)) if a == b => false,
            _ => {
                *self = CVal::Top;
                true
            }
        }
    }
}

/// Per-procedure parameter facts.
#[derive(Debug, Clone)]
pub struct ConstFacts {
    /// `params[f][i]` — abstract value of parameter `i` of procedure `f`.
    pub params: Vec<Vec<CVal>>,
}

fn eval_arg(arg: &S0Simple, env: &[CVal]) -> CVal {
    match arg {
        S0Simple::Const(k) => CVal::Known(k.clone()),
        S0Simple::Var(v) => env.get(*v as usize).cloned().unwrap_or(CVal::Top),
        _ => CVal::Top,
    }
}

/// Runs the interprocedural fixpoint.  Entry parameters start at `Top`
/// (the outside world passes anything); everything else at `Bottom`.
///
/// # Errors
///
/// [`Trap::OutOfFuel`] when the budget is exhausted before convergence.
pub fn analyze(p: &S0Program, fuel: &mut Fuel) -> Result<ConstFacts, Trap> {
    let mut facts: Vec<Vec<CVal>> =
        p.procs.iter().map(|q| vec![CVal::Bottom; q.params.len()]).collect();
    if let Some(e) = facts.get_mut(p.entry.index()) {
        e.iter_mut().for_each(|v| *v = CVal::Top);
    }
    loop {
        fuel.step()?;
        let mut changed = false;
        for (f, q) in p.procs.iter().enumerate() {
            fuel.step()?;
            let env = facts[f].clone();
            // Joining every syntactic call is sound (an over-approximation
            // of the real callers); unreachable callers only push facts
            // toward Top, and a Bottom-environment variable contributes
            // nothing.
            q.body.calls(&mut |callee, args| {
                for (i, a) in args.iter().enumerate() {
                    let row = facts.get_mut(callee.index());
                    if let Some(slot) = row.and_then(|row| row.get_mut(i)) {
                        changed |= slot.join(&eval_arg(a, &env));
                    }
                }
            });
        }
        if !changed {
            return Ok(ConstFacts { params: facts });
        }
    }
}

/// Substitutes `Known` parameters by their constants throughout each
/// owning body.  Returns the rewritten program and the number of
/// variable occurrences replaced.
///
/// # Errors
///
/// [`Trap::OutOfFuel`] when the analysis budget is exhausted.
pub fn propagate(p: S0Program, fuel: &mut Fuel) -> Result<(S0Program, usize), Trap> {
    let facts = analyze(&p, fuel)?;
    let mut replaced = 0usize;
    let mut p = p;
    for (q, row) in p.procs.iter_mut().zip(&facts.params) {
        if !row.iter().any(|v| matches!(v, CVal::Known(_))) {
            continue;
        }
        q.body.vars(&mut |v| {
            replaced += usize::from(matches!(row.get(v as usize), Some(CVal::Known(_))));
        });
        let args: Vec<S0Simple> = row
            .iter()
            .enumerate()
            .map(|(i, v)| match v {
                CVal::Known(k) => S0Simple::Const(k.clone()),
                _ => S0Simple::Var(i as u32),
            })
            .collect();
        q.body = q.body.subst(&args);
    }
    Ok((p, replaced))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::s0::{ProcId, S0Proc, S0Tail};
    use pe_frontend::Prim;
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

    fn proc_(name: &str, params: &[&str], body: S0Tail) -> S0Proc {
        S0Proc { name: name.into(), params: params.iter().map(|&v| v.into()).collect(), body }
    }

    fn call(callee: u32, args: Vec<S0Simple>) -> S0Tail {
        S0Tail::TailCall(ProcId(callee), args)
    }

    #[test]
    fn constants_chain_through_copies() {
        // main passes 5 to f; f copies its param on to g; g's body uses
        // a known constant after two hops.
        let p = S0Program {
            entry: ProcId(0),
            procs: vec![
                proc_("main", &["x"], call(1, vec![kint(5), var(0)])),
                proc_("f", &["a", "b"], call(2, vec![var(0), var(1)])),
                proc_(
                    "g",
                    &["c", "d"],
                    S0Tail::Return(S0Simple::Prim(Prim::Add, vec![var(0), var(1)])),
                ),
            ],
        };
        let (q, n) = propagate(p, &mut fuel()).unwrap();
        // c := 5 in g, a := 5 in f (one use each).
        assert_eq!(n, 2);
        let g = q.proc("g").unwrap();
        match &g.body {
            S0Tail::Return(S0Simple::Prim(Prim::Add, args)) => {
                assert_eq!(args[0], kint(5));
                assert_eq!(args[1], var(1), "d stays dynamic");
            }
            other => panic!("unexpected body {other:?}"),
        }
    }

    #[test]
    fn disagreeing_sites_stay_dynamic() {
        let p = S0Program {
            entry: ProcId(0),
            procs: vec![
                proc_(
                    "main",
                    &["x"],
                    S0Tail::If(
                        var(0),
                        Box::new(call(1, vec![kint(1)])),
                        Box::new(call(1, vec![kint(2)])),
                    ),
                ),
                proc_("f", &["a"], S0Tail::Return(var(0))),
            ],
        };
        let (q, n) = propagate(p.clone(), &mut fuel()).unwrap();
        assert_eq!(n, 0);
        assert_eq!(q, p);
    }

    #[test]
    fn uncalled_procs_are_left_alone() {
        // junk's parameter is Bottom; nothing must be substituted.
        let p = S0Program {
            entry: ProcId(0),
            procs: vec![
                proc_("main", &[], S0Tail::Return(kint(1))),
                proc_("junk", &["a"], S0Tail::Return(var(0))),
            ],
        };
        let (q, n) = propagate(p.clone(), &mut fuel()).unwrap();
        assert_eq!(n, 0);
        assert_eq!(q, p);
    }
}
