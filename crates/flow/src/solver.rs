//! A generic worklist fixpoint solver over [`Cfg`]s.
//!
//! An [`Analysis`] supplies the lattice (a fact type with `bottom`,
//! `join`) and the semantics (a `transfer` function per node); the
//! solver iterates to the least fixpoint.  Facts are reported at the
//! program point *immediately before* each node executes, in program
//! order — the natural point for both directions:
//!
//! * **forward**: `facts[n] = ⊔ transfer(p, facts[p])` over
//!   predecessors `p`, with `facts[entry] = boundary()`;
//! * **backward**: `facts[n] = transfer(n, ⊔ facts[s])` over
//!   successors `s`, with exits joining `boundary()`.
//!
//! Every node visit charges one [`Fuel`] step, so a hostile or huge
//! program degrades into a [`Trap`] instead of an unbounded loop —
//! the same governor discipline as the rest of the pipeline.

use crate::cfg::{Cfg, Node};
use pe_governor::{Fuel, Trap};

/// Direction of propagation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow from the entry toward the leaves.
    Forward,
    /// Facts flow from the leaves toward the entry.
    Backward,
}

/// One dataflow analysis: a join-semilattice of facts plus a transfer
/// function.  `bottom` must be the neutral element of `join`.
pub trait Analysis {
    /// The lattice element.
    type Fact: Clone + PartialEq;

    /// Which way facts propagate.
    fn direction(&self) -> Direction;

    /// The fact at the boundary: procedure entry for forward analyses,
    /// every exit leaf for backward ones.
    fn boundary(&self) -> Self::Fact;

    /// The neutral element of [`Analysis::join`].
    fn bottom(&self) -> Self::Fact;

    /// Joins `from` into `into`; returns true when `into` changed.
    fn join(&self, into: &mut Self::Fact, from: &Self::Fact) -> bool;

    /// The effect of executing `node` on a fact (the fact before the
    /// node for forward analyses, after it for backward ones).
    fn transfer(&self, node: &Node, fact: &Self::Fact) -> Self::Fact;
}

/// Runs `a` over `cfg` to its least fixpoint.
///
/// Returns one fact per node: the fact holding immediately before that
/// node executes.
///
/// # Errors
///
/// [`Trap::OutOfFuel`] when the visit budget is exhausted.
pub fn solve<A: Analysis>(cfg: &Cfg, a: &A, fuel: &mut Fuel) -> Result<Vec<A::Fact>, Trap> {
    let n = cfg.node_count();
    let mut facts: Vec<A::Fact> = vec![a.bottom(); n];
    let mut queued = vec![true; n];
    let mut work: Vec<usize> = match a.direction() {
        Direction::Forward => (0..n).collect(),
        Direction::Backward => (0..n).rev().collect(),
    };
    // Visit in reverse push order (a stack): for the acyclic graphs S₀
    // produces this touches each node O(1) times per dependency chain.
    while let Some(i) = work.pop() {
        queued[i] = false;
        fuel.step()?;
        match a.direction() {
            Direction::Forward => {
                let mut fact = if i == Cfg::ENTRY { a.boundary() } else { a.bottom() };
                for &p in &cfg.pred[i] {
                    let out = a.transfer(&cfg.nodes[p], &facts[p]);
                    a.join(&mut fact, &out);
                }
                if fact != facts[i] {
                    facts[i] = fact;
                    for &s in &cfg.succ[i] {
                        if !queued[s] {
                            queued[s] = true;
                            work.push(s);
                        }
                    }
                }
            }
            Direction::Backward => {
                let mut out = if cfg.succ[i].is_empty() { a.boundary() } else { a.bottom() };
                for &s in &cfg.succ[i] {
                    a.join(&mut out, &facts[s]);
                }
                let fact = a.transfer(&cfg.nodes[i], &out);
                if fact != facts[i] {
                    facts[i] = fact;
                    for &p in &cfg.pred[i] {
                        if !queued[p] {
                            queued[p] = true;
                            work.push(p);
                        }
                    }
                }
            }
        }
    }
    Ok(facts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::s0::{S0Proc, S0Simple, S0Tail};
    use pe_governor::Limits;
    use std::collections::BTreeSet;

    /// Reachability-from-entry as a trivial forward analysis.
    struct Reach;

    impl Analysis for Reach {
        type Fact = bool;

        fn direction(&self) -> Direction {
            Direction::Forward
        }

        fn boundary(&self) -> bool {
            true
        }

        fn bottom(&self) -> bool {
            false
        }

        fn join(&self, into: &mut bool, from: &bool) -> bool {
            let old = *into;
            *into |= *from;
            old != *into
        }

        fn transfer(&self, _node: &Node, fact: &bool) -> bool {
            *fact
        }
    }

    /// Live variables, used here only to exercise the backward path.
    struct Live;

    impl Analysis for Live {
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
            match node {
                Node::Entry | Node::Fail(_) => {}
                Node::Branch(c) | Node::Return(c) => c.vars(&mut |v| {
                    out.insert(v);
                }),
                Node::Call(_, args) => args.iter().for_each(|a| {
                    a.vars(&mut |v| {
                        out.insert(v);
                    });
                }),
            }
            out
        }
    }

    fn branchy() -> S0Proc {
        S0Proc {
            name: "f".into(),
            params: vec!["a".into(), "b".into(), "c".into()],
            body: S0Tail::If(
                S0Simple::Var(0),
                Box::new(S0Tail::Return(S0Simple::Var(1))),
                Box::new(S0Tail::Fail("no".into())),
            ),
        }
    }

    #[test]
    fn forward_reaches_every_node() {
        let cfg = Cfg::build(&branchy());
        let mut fuel = Fuel::new(&Limits::default());
        let facts = solve(&cfg, &Reach, &mut fuel).unwrap();
        assert!(facts.iter().all(|&r| r), "{facts:?}");
    }

    #[test]
    fn backward_liveness_sees_branch_uses() {
        let cfg = Cfg::build(&branchy());
        let mut fuel = Fuel::new(&Limits::default());
        let facts = solve(&cfg, &Live, &mut fuel).unwrap();
        let at_entry = &facts[Cfg::ENTRY];
        assert!(at_entry.contains(&0) && at_entry.contains(&1), "{at_entry:?}");
        assert!(!at_entry.contains(&2), "c is dead: {at_entry:?}");
    }

    #[test]
    fn solver_respects_fuel() {
        let cfg = Cfg::build(&branchy());
        let mut fuel = Fuel::new(&Limits { fuel: 1, ..Limits::default() });
        assert!(matches!(solve(&cfg, &Reach, &mut fuel), Err(Trap::OutOfFuel { .. })));
    }
}
