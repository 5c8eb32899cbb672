//! Liveness over S₀.
//!
//! Two layers:
//!
//! * [`Liveness`], a per-procedure backward analysis on the CFG: which
//!   variables may still be read at each program point.  Because S₀
//!   procedures bind only at entry and bodies are acyclic trees, the
//!   entry fact is the procedure's used-variable set — the value of
//!   running it through the solver is that the *same* framework also
//!   answers per-point questions (the C backend asks which parameters
//!   are live at entry before materializing private copies).
//! * [`param_liveness`], an interprocedural fixpoint: parameter
//!   `(f, i)` is live when some occurrence of it is read outside call
//!   arguments, or flows into a live (or unprunable) parameter of a
//!   callee.  This is strictly stronger than the syntactic dead-code
//!   scan the old post-processor used: a parameter that only circulates
//!   through a recursive call (`f` passing `x` back to `f`) is dead
//!   here but syntactically "used".
//!
//! [`prune_dead_params`] rewrites the program by the analysis: dead,
//! non-sticky parameters of non-entry procedures are dropped together
//! with every (effect-free) argument.

use crate::cfg::{Cfg, Node};
use crate::opt::is_effect_free;
use crate::s0::{ProcId, S0Proc, S0Program, S0Simple, S0Tail};
use crate::solver::{solve, Analysis, Direction};
use pe_governor::{Fuel, Trap};
use std::collections::BTreeSet;

/// The classic backward may-liveness analysis over variable slots.
pub struct Liveness;

impl Analysis for Liveness {
    type Fact = BTreeSet<u32>;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn boundary(&self) -> BTreeSet<u32> {
        BTreeSet::new()
    }

    fn bottom(&self) -> BTreeSet<u32> {
        BTreeSet::new()
    }

    fn join(&self, into: &mut BTreeSet<u32>, from: &BTreeSet<u32>) -> bool {
        let before = into.len();
        into.extend(from.iter().copied());
        into.len() != before
    }

    fn transfer(&self, node: &Node, fact: &BTreeSet<u32>) -> BTreeSet<u32> {
        let mut out = fact.clone();
        let mut read = |v| {
            out.insert(v);
        };
        match node {
            Node::Entry | Node::Fail(_) => {}
            Node::Branch(c) | Node::Return(c) => c.vars(&mut read),
            Node::Call(_, args) => args.iter().for_each(|a| a.vars(&mut read)),
        }
        out
    }
}

/// Variable slots of `p` live at procedure entry (i.e. possibly read).
///
/// # Errors
///
/// [`Trap::OutOfFuel`] when the solver budget is exhausted.
pub fn live_at_entry(p: &S0Proc, fuel: &mut Fuel) -> Result<BTreeSet<u32>, Trap> {
    let cfg = Cfg::build(p);
    let facts = solve(&cfg, &Liveness, fuel)?;
    Ok(facts[Cfg::ENTRY].clone())
}

/// Result of the interprocedural parameter-liveness fixpoint, indexed
/// by [`ProcId`] and then parameter slot.
#[derive(Debug, Clone)]
pub struct ParamLiveness {
    /// `live[f][i]` — may parameter `i` of `f` affect execution?
    pub live: Vec<Vec<bool>>,
    /// `sticky[f][i]` — does some call site pass a non-effect-free
    /// argument there (so the slot cannot be dropped even when dead)?
    pub sticky: Vec<Vec<bool>>,
}

/// Per-procedure syntactic summary feeding the fixpoint.
struct Uses {
    /// Slots read outside call-argument position.
    direct: Vec<u32>,
    /// `(callee, arg index, slots read inside that argument)`.
    flows: Vec<(ProcId, usize, Vec<u32>)>,
}

fn collect_uses(t: &S0Tail, out: &mut Uses) {
    let mut direct = |v| out.direct.push(v);
    match t {
        S0Tail::Return(s) => s.vars(&mut direct),
        S0Tail::Fail(_) => {}
        S0Tail::If(c, a, b) => {
            c.vars(&mut direct);
            collect_uses(a, out);
            collect_uses(b, out);
        }
        S0Tail::TailCall(callee, args) => {
            for (i, a) in args.iter().enumerate() {
                let mut vs = Vec::new();
                a.vars(&mut |v| vs.push(v));
                out.flows.push((*callee, i, vs));
            }
        }
    }
}

/// Computes the interprocedural parameter-liveness fixpoint.
///
/// # Errors
///
/// [`Trap::OutOfFuel`] when the budget is exhausted before convergence.
pub fn param_liveness(p: &S0Program, fuel: &mut Fuel) -> Result<ParamLiveness, Trap> {
    let blank: Vec<Vec<bool>> = p.procs.iter().map(|q| vec![false; q.params.len()]).collect();
    let uses: Vec<Uses> = p
        .procs
        .iter()
        .map(|q| {
            let mut u = Uses { direct: Vec::new(), flows: Vec::new() };
            collect_uses(&q.body, &mut u);
            u
        })
        .collect();
    // Stickiness: any site passing a non-effect-free argument.
    let mut sticky = blank.clone();
    for q in &p.procs {
        q.body.calls(&mut |callee, args| {
            if let Some(slots) = sticky.get_mut(callee.index()) {
                for (s, a) in slots.iter_mut().zip(args) {
                    *s |= !is_effect_free(a);
                }
            }
        });
    }
    let mut live = blank;
    if let Some(e) = live.get_mut(p.entry.index()) {
        e.iter_mut().for_each(|b| *b = true);
    }
    // Round-robin to fixpoint: mark a slot live when it is read
    // directly or flows into a live-or-sticky parameter slot.
    loop {
        fuel.step()?;
        let mut changed = false;
        for (f, u) in uses.iter().enumerate() {
            fuel.step()?;
            let mut read: Vec<u32> = u.direct.clone();
            for (callee, i, vs) in &u.flows {
                let at = |t: &[Vec<bool>]| t.get(callee.index())?.get(*i).copied();
                // Unknown callee or arity overflow: be conservative.
                if at(&live).unwrap_or(true) || at(&sticky).unwrap_or(true) {
                    read.extend(vs);
                }
            }
            for v in read {
                if let Some(slot) = live[f].get_mut(v as usize) {
                    changed |= !*slot;
                    *slot = true;
                }
            }
        }
        if !changed {
            return Ok(ParamLiveness { live, sticky });
        }
    }
}

/// Drops dead, non-sticky parameters of non-entry procedures together
/// with the corresponding arguments at every call site, and shifts the
/// slots after each dropped parameter down.  Returns the number of
/// parameter bindings eliminated.
///
/// # Errors
///
/// [`Trap::OutOfFuel`] when the analysis budget is exhausted; `p` is
/// then left as it was.
pub fn prune_dead_params(p: &mut S0Program, fuel: &mut Fuel) -> Result<usize, Trap> {
    let pl = param_liveness(p, fuel)?;
    let drop: Vec<Vec<usize>> = (0..p.procs.len())
        .map(|f| {
            if f == p.entry.index() {
                return Vec::new();
            }
            let (live, sticky) = (&pl.live[f], &pl.sticky[f]);
            (0..live.len()).filter(|&i| !live[i] && !sticky[i]).collect()
        })
        .collect();
    let count: usize = drop.iter().map(Vec::len).sum();
    if count == 0 {
        return Ok(0);
    }
    for (q, dropped) in p.procs.iter_mut().zip(&drop) {
        // Each later slot moves down by the dropped slots before it.
        let slots: Vec<S0Simple> = (0..q.params.len())
            .map(|j| S0Simple::Var((j - dropped.iter().filter(|&&d| d < j).count()) as u32))
            .collect();
        q.params = keep_except(&q.params, dropped);
        q.body = rewrite_drop_args(&q.body, &slots, &drop);
    }
    Ok(count)
}

fn keep_except<T: Clone>(xs: &[T], idxs: &[usize]) -> Vec<T> {
    xs.iter()
        .enumerate()
        .filter(|(i, _)| !idxs.contains(i))
        .map(|(_, x)| x.clone())
        .collect()
}

/// Drops the arguments of dropped callee parameters and moves every
/// slot read of the owner to its new slot, `slots[old]`.
fn rewrite_drop_args(t: &S0Tail, slots: &[S0Simple], drop: &[Vec<usize>]) -> S0Tail {
    match t {
        S0Tail::Return(s) => S0Tail::Return(s.subst(slots)),
        S0Tail::Fail(_) => t.clone(),
        S0Tail::If(c, a, b) => S0Tail::If(
            c.subst(slots),
            Box::new(rewrite_drop_args(a, slots, drop)),
            Box::new(rewrite_drop_args(b, slots, drop)),
        ),
        S0Tail::TailCall(callee, args) => {
            let args = match drop.get(callee.index()) {
                Some(idxs) => keep_except(args, idxs),
                None => args.clone(),
            };
            S0Tail::TailCall(*callee, args.iter().map(|a| a.subst(slots)).collect())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_frontend::ast::Constant;
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
    fn recursive_passthrough_param_is_dead() {
        // x only circulates through the recursive call: the syntactic
        // scan keeps it; the interprocedural fixpoint kills it.
        let mut q = S0Program {
            entry: ProcId(0),
            procs: vec![
                proc_("main", &["n"], call(1, vec![var(0), kint(7)])),
                proc_(
                    "loop",
                    &["n", "x"],
                    S0Tail::If(
                        S0Simple::Prim(Prim::ZeroP, vec![var(0)]),
                        Box::new(S0Tail::Return(kint(0))),
                        Box::new(call(
                            1,
                            vec![S0Simple::Prim(Prim::Sub, vec![var(0), kint(1)]), var(1)],
                        )),
                    ),
                ),
            ],
        };
        let dropped = prune_dead_params(&mut q, &mut fuel()).unwrap();
        assert_eq!(dropped, 1);
        assert_eq!(q.proc("loop").unwrap().params, vec!["n".to_string()]);
    }

    #[test]
    fn sticky_args_keep_dead_params() {
        // The dead slot receives (car x) somewhere: dropping the
        // argument would drop a potential fault, so the slot stays.
        let mut q = S0Program {
            entry: ProcId(0),
            procs: vec![
                proc_(
                    "main",
                    &["x"],
                    call(1, vec![S0Simple::Prim(Prim::Car, vec![var(0)]), var(0)]),
                ),
                proc_("f", &["dead", "live"], S0Tail::Return(var(1))),
            ],
        };
        let dropped = prune_dead_params(&mut q, &mut fuel()).unwrap();
        assert_eq!(dropped, 0);
        assert_eq!(q.proc("f").unwrap().params.len(), 2);
    }

    /// main calls f(a, b, c) with a constant in slot `dead` and x
    /// elsewhere; f reads its other two slots and calls itself with
    /// them swapped and another constant in slot `dead`.
    fn pruning_case(dead: u32) -> S0Program {
        let [i, j] = [[1, 2], [0, 2], [0, 1]][dead as usize];
        let args = |k: i64, x: S0Simple, y: S0Simple| {
            let mut v = vec![x, y];
            v.insert(dead as usize, kint(k));
            v
        };
        S0Program {
            entry: ProcId(0),
            procs: vec![
                proc_("main", &["x"], call(1, args(1, var(0), var(0)))),
                proc_(
                    "f",
                    &["a", "b", "c"],
                    S0Tail::If(
                        S0Simple::Prim(Prim::NullP, vec![var(i)]),
                        Box::new(S0Tail::Return(S0Simple::Prim(Prim::Cons, vec![var(i), var(j)]))),
                        Box::new(call(1, args(3, var(j), var(i)))),
                    ),
                ),
            ],
        }
    }

    #[test]
    fn pruning_a_first_parameter_shifts_every_later_slot() {
        let mut q = pruning_case(0);
        assert_eq!(prune_dead_params(&mut q, &mut fuel()).unwrap(), 1, "{q}");
        assert_eq!(
            q.to_source(),
            "(define (main x) (f x x))\n(define (f b c) (if (null? b) (cons b c) (f c b)))\n"
        );
        assert_eq!(
            q.procs[1].body,
            S0Tail::If(
                S0Simple::Prim(Prim::NullP, vec![var(0)]),
                Box::new(S0Tail::Return(S0Simple::Prim(Prim::Cons, vec![var(0), var(1)]))),
                Box::new(call(1, vec![var(1), var(0)])),
            )
        );
    }

    #[test]
    fn pruning_a_middle_parameter_shifts_every_later_slot() {
        let mut q = pruning_case(1);
        assert_eq!(prune_dead_params(&mut q, &mut fuel()).unwrap(), 1, "{q}");
        assert_eq!(
            q.to_source(),
            "(define (main x) (f x x))\n(define (f a c) (if (null? a) (cons a c) (f c a)))\n"
        );
        assert_eq!(
            q.procs[1].body,
            S0Tail::If(
                S0Simple::Prim(Prim::NullP, vec![var(0)]),
                Box::new(S0Tail::Return(S0Simple::Prim(Prim::Cons, vec![var(0), var(1)]))),
                Box::new(call(1, vec![var(1), var(0)])),
            )
        );
    }

    #[test]
    fn live_at_entry_is_per_branch_union() {
        let p = proc_(
            "f",
            &["a", "b", "c"],
            S0Tail::If(
                var(0),
                Box::new(S0Tail::Return(var(1))),
                Box::new(S0Tail::Return(var(0))),
            ),
        );
        let live = live_at_entry(&p, &mut fuel()).unwrap();
        assert!(live.contains(&0) && live.contains(&1));
        assert!(!live.contains(&2));
    }
}
