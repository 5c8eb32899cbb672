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
use crate::s0::{S0Proc, S0Program, S0Tail};
use crate::solver::{solve, Analysis, Direction};
use pe_governor::{Fuel, Trap};
use std::collections::{BTreeSet, HashMap, HashSet};

/// The classic backward may-liveness analysis.
pub struct Liveness;

impl Analysis for Liveness {
    type Fact = BTreeSet<String>;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn boundary(&self) -> BTreeSet<String> {
        BTreeSet::new()
    }

    fn bottom(&self) -> BTreeSet<String> {
        BTreeSet::new()
    }

    fn join(&self, into: &mut BTreeSet<String>, from: &BTreeSet<String>) -> bool {
        let before = into.len();
        into.extend(from.iter().cloned());
        into.len() != before
    }

    fn transfer(&self, node: &Node, fact: &BTreeSet<String>) -> BTreeSet<String> {
        let mut out = fact.clone();
        let mut used = HashSet::new();
        match node {
            Node::Entry | Node::Fail(_) => {}
            Node::Branch(c) | Node::Return(c) => c.vars(&mut used),
            Node::Call(_, args) => args.iter().for_each(|a| a.vars(&mut used)),
        }
        out.extend(used);
        out
    }
}

/// Variables of `p` live at procedure entry (i.e. possibly read).
///
/// # Errors
///
/// [`Trap::OutOfFuel`] when the solver budget is exhausted.
pub fn live_at_entry(p: &S0Proc, fuel: &mut Fuel) -> Result<BTreeSet<String>, Trap> {
    let cfg = Cfg::build(p);
    let facts = solve(&cfg, &Liveness, fuel)?;
    Ok(facts[Cfg::ENTRY].clone())
}

/// Result of the interprocedural parameter-liveness fixpoint.
#[derive(Debug, Clone)]
pub struct ParamLiveness {
    /// `live[name][i]` — may parameter `i` of `name` affect execution?
    pub live: HashMap<String, Vec<bool>>,
    /// `sticky[name][i]` — does some call site pass a non-effect-free
    /// argument there (so the slot cannot be dropped even when dead)?
    pub sticky: HashMap<String, Vec<bool>>,
}

/// Per-procedure syntactic summary feeding the fixpoint.
struct Uses {
    /// Variables read outside call-argument position.
    direct: HashSet<String>,
    /// `(callee, arg index, variables inside that argument)`.
    flows: Vec<(String, usize, HashSet<String>)>,
}

fn collect_uses(t: &S0Tail, out: &mut Uses) {
    match t {
        S0Tail::Return(s) => s.vars(&mut out.direct),
        S0Tail::Fail(_) => {}
        S0Tail::If(c, a, b) => {
            c.vars(&mut out.direct);
            collect_uses(a, out);
            collect_uses(b, out);
        }
        S0Tail::TailCall(callee, args) => {
            for (i, a) in args.iter().enumerate() {
                let mut vs = HashSet::new();
                a.vars(&mut vs);
                out.flows.push((callee.clone(), i, vs));
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
    let mut sticky: HashMap<String, Vec<bool>> =
        p.procs.iter().map(|q| (q.name.clone(), vec![false; q.params.len()])).collect();
    let mut uses: HashMap<String, Uses> = HashMap::new();
    for q in &p.procs {
        let mut u = Uses { direct: HashSet::new(), flows: Vec::new() };
        collect_uses(&q.body, &mut u);
        uses.insert(q.name.clone(), u);
    }
    // Stickiness: any site passing a non-effect-free argument.
    for q in &p.procs {
        mark_sticky(&q.body, &mut sticky);
    }
    let mut live: HashMap<String, Vec<bool>> =
        p.procs.iter().map(|q| (q.name.clone(), vec![false; q.params.len()])).collect();
    if let Some(e) = live.get_mut(&p.entry) {
        e.iter_mut().for_each(|b| *b = true);
    }
    // Round-robin to fixpoint: mark a proc's variable live when it is
    // read directly or flows into a live-or-sticky parameter slot.
    loop {
        fuel.step()?;
        let mut changed = false;
        for q in &p.procs {
            fuel.step()?;
            let u = &uses[&q.name];
            let mut live_vars: HashSet<&str> =
                u.direct.iter().map(String::as_str).collect();
            for (callee, i, vs) in &u.flows {
                let callee_live = live.get(callee).and_then(|l| l.get(*i)).copied();
                let callee_sticky =
                    sticky.get(callee).and_then(|l| l.get(*i)).copied().unwrap_or(true);
                // Unknown callee or arity overflow: be conservative.
                if callee_live.unwrap_or(true) || callee_sticky {
                    live_vars.extend(vs.iter().map(String::as_str));
                }
            }
            let slots = live.get_mut(&q.name).expect("every proc seeded");
            for (i, pm) in q.params.iter().enumerate() {
                if !slots[i] && live_vars.contains(pm.as_str()) {
                    slots[i] = true;
                    changed = true;
                }
            }
        }
        if !changed {
            return Ok(ParamLiveness { live, sticky });
        }
    }
}

fn mark_sticky(t: &S0Tail, sticky: &mut HashMap<String, Vec<bool>>) {
    match t {
        S0Tail::Return(_) | S0Tail::Fail(_) => {}
        S0Tail::If(_, a, b) => {
            mark_sticky(a, sticky);
            mark_sticky(b, sticky);
        }
        S0Tail::TailCall(callee, args) => {
            if let Some(slots) = sticky.get_mut(callee) {
                for (i, a) in args.iter().enumerate() {
                    if let Some(s) = slots.get_mut(i) {
                        *s |= !is_effect_free(a);
                    }
                }
            }
        }
    }
}

/// Drops dead, non-sticky parameters of non-entry procedures together
/// with the corresponding arguments at every call site.  Returns the
/// number of parameter bindings eliminated.
///
/// # Errors
///
/// [`Trap::OutOfFuel`] when the analysis budget is exhausted; `p` is
/// then left as it was.
pub fn prune_dead_params(p: &mut S0Program, fuel: &mut Fuel) -> Result<usize, Trap> {
    let pl = param_liveness(p, fuel)?;
    let mut drop: HashMap<String, Vec<usize>> = HashMap::new();
    for q in &p.procs {
        if q.name == p.entry {
            continue;
        }
        let (live, sticky) = (&pl.live[&q.name], &pl.sticky[&q.name]);
        let idxs: Vec<usize> =
            (0..q.params.len()).filter(|&i| !live[i] && !sticky[i]).collect();
        if !idxs.is_empty() {
            drop.insert(q.name.clone(), idxs);
        }
    }
    if drop.is_empty() {
        return Ok(0);
    }
    for q in &mut p.procs {
        if let Some(idxs) = drop.get(&q.name) {
            q.params = keep_except(&q.params, idxs);
        }
        q.body = rewrite_drop_args(&q.body, &drop);
    }
    Ok(drop.values().map(Vec::len).sum())
}

fn keep_except<T: Clone>(xs: &[T], idxs: &[usize]) -> Vec<T> {
    xs.iter()
        .enumerate()
        .filter(|(i, _)| !idxs.contains(i))
        .map(|(_, x)| x.clone())
        .collect()
}

fn rewrite_drop_args(t: &S0Tail, drop: &HashMap<String, Vec<usize>>) -> S0Tail {
    match t {
        S0Tail::Return(_) | S0Tail::Fail(_) => t.clone(),
        S0Tail::If(c, a, b) => S0Tail::If(
            c.clone(),
            Box::new(rewrite_drop_args(a, drop)),
            Box::new(rewrite_drop_args(b, drop)),
        ),
        S0Tail::TailCall(callee, args) => {
            let args = match drop.get(callee) {
                Some(idxs) => keep_except(args, idxs),
                None => args.clone(),
            };
            S0Tail::TailCall(callee.clone(), args)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::s0::S0Simple;
    use pe_frontend::ast::Constant;
    use pe_frontend::Prim;
    use pe_governor::Limits;

    fn var(v: &str) -> S0Simple {
        S0Simple::Var(v.into())
    }

    fn kint(n: i64) -> S0Simple {
        S0Simple::Const(Constant::Int(n))
    }

    fn fuel() -> Fuel {
        Fuel::new(&Limits::default())
    }

    #[test]
    fn recursive_passthrough_param_is_dead() {
        // x only circulates through the recursive call: the syntactic
        // scan keeps it; the interprocedural fixpoint kills it.
        let mut q = S0Program {
            entry: "main".into(),
            procs: vec![
                S0Proc {
                    name: "main".into(),
                    params: vec!["n".into()],
                    body: S0Tail::TailCall("loop".into(), vec![var("n"), kint(7)]),
                },
                S0Proc {
                    name: "loop".into(),
                    params: vec!["n".into(), "x".into()],
                    body: S0Tail::If(
                        S0Simple::Prim(Prim::ZeroP, vec![var("n")]),
                        Box::new(S0Tail::Return(kint(0))),
                        Box::new(S0Tail::TailCall(
                            "loop".into(),
                            vec![
                                S0Simple::Prim(Prim::Sub, vec![var("n"), kint(1)]),
                                var("x"),
                            ],
                        )),
                    ),
                },
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
            entry: "main".into(),
            procs: vec![
                S0Proc {
                    name: "main".into(),
                    params: vec!["x".into()],
                    body: S0Tail::TailCall(
                        "f".into(),
                        vec![S0Simple::Prim(Prim::Car, vec![var("x")]), var("x")],
                    ),
                },
                S0Proc {
                    name: "f".into(),
                    params: vec!["dead".into(), "live".into()],
                    body: S0Tail::Return(var("live")),
                },
            ],
        };
        let dropped = prune_dead_params(&mut q, &mut fuel()).unwrap();
        assert_eq!(dropped, 0);
        assert_eq!(q.proc("f").unwrap().params.len(), 2);
    }

    #[test]
    fn live_at_entry_is_per_branch_union() {
        let p = S0Proc {
            name: "f".into(),
            params: vec!["a".into(), "b".into(), "c".into()],
            body: S0Tail::If(
                var("a"),
                Box::new(S0Tail::Return(var("b"))),
                Box::new(S0Tail::Return(var("a"))),
            ),
        };
        let live = live_at_entry(&p, &mut fuel()).unwrap();
        assert!(live.contains("a") && live.contains("b"));
        assert!(!live.contains("c"));
    }
}
