//! Explicit per-procedure control-flow graphs over S₀.
//!
//! An S₀ body is a tree of tail expressions: conditionals branch, and
//! every leaf either returns a value, tail-calls another procedure, or
//! faults.  The CFG makes that flow explicit — one [`Node`] per tail
//! expression plus a distinguished entry — so the worklist solver in
//! [`crate::solver`] can run standard forward/backward analyses over
//! it.  Intra-procedural graphs are acyclic by construction (loops in
//! S₀ are inter-procedural tail calls), which the solver does not rely
//! on but every analysis gets to exploit: fixpoints converge in one
//! pass per topological order.

use crate::s0::{ProcId, S0Proc, S0Program, S0Simple, S0Tail};

/// One CFG node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// Procedure entry; its parameters are the only binders in S₀.
    Entry,
    /// An `(if c …)` test; successor 0 is the then-branch, successor 1
    /// the else-branch.
    Branch(S0Simple),
    /// A `Return` leaf: evaluate the expression and return it.
    Return(S0Simple),
    /// A tail call leaf: evaluate the arguments, transfer control.
    Call(ProcId, Vec<S0Simple>),
    /// A `%fail` leaf.
    Fail(String),
}

/// The control-flow graph of one procedure.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Nodes; index 0 is always [`Node::Entry`].
    pub nodes: Vec<Node>,
    /// Successor indices per node (branches list then before else).
    pub succ: Vec<Vec<usize>>,
    /// Predecessor indices per node.
    pub pred: Vec<Vec<usize>>,
}

impl Cfg {
    /// Index of the entry node.
    pub const ENTRY: usize = 0;

    /// Builds the CFG of `p`'s body.
    #[must_use]
    pub fn build(p: &S0Proc) -> Cfg {
        let mut cfg = Cfg { nodes: vec![Node::Entry], succ: vec![Vec::new()], pred: Vec::new() };
        let first = cfg.add_tail(&p.body);
        cfg.succ[Cfg::ENTRY].push(first);
        cfg.pred = vec![Vec::new(); cfg.nodes.len()];
        for (n, ss) in cfg.succ.iter().enumerate() {
            for &s in ss {
                cfg.pred[s].push(n);
            }
        }
        cfg
    }

    fn add(&mut self, node: Node) -> usize {
        self.nodes.push(node);
        self.succ.push(Vec::new());
        self.nodes.len() - 1
    }

    fn add_tail(&mut self, t: &S0Tail) -> usize {
        match t {
            S0Tail::Return(s) => self.add(Node::Return(s.clone())),
            S0Tail::TailCall(p, args) => self.add(Node::Call(*p, args.clone())),
            S0Tail::Fail(m) => self.add(Node::Fail(m.clone())),
            S0Tail::If(c, a, b) => {
                let n = self.add(Node::Branch(c.clone()));
                let t = self.add_tail(a);
                let e = self.add_tail(b);
                self.succ[n] = vec![t, e];
                n
            }
        }
    }

    /// Number of nodes (including the entry).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.succ.iter().map(Vec::len).sum()
    }
}

/// The CFGs of every procedure in a program.
#[derive(Debug, Clone)]
pub struct ProgramCfg {
    /// One graph per procedure, indexed by [`ProcId`].
    pub procs: Vec<Cfg>,
}

impl ProgramCfg {
    /// Builds all per-procedure CFGs.
    #[must_use]
    pub fn build(p: &S0Program) -> ProgramCfg {
        ProgramCfg { procs: p.procs.iter().map(Cfg::build).collect() }
    }

    /// Total node count across procedures.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.procs.iter().map(Cfg::node_count).sum()
    }

    /// Total edge count across procedures.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.procs.iter().map(Cfg::edge_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_frontend::ast::Constant;
    use pe_frontend::Prim;

    #[test]
    fn straight_line_body_is_entry_plus_leaf() {
        let p = S0Proc {
            name: "f".into(),
            params: vec!["x".into()],
            body: S0Tail::Return(S0Simple::Var(0)),
        };
        let cfg = Cfg::build(&p);
        assert_eq!(cfg.node_count(), 2);
        assert_eq!(cfg.edge_count(), 1);
        assert_eq!(cfg.succ[Cfg::ENTRY], vec![1]);
        assert_eq!(cfg.pred[1], vec![0]);
    }

    #[test]
    fn branches_fan_out_then_before_else() {
        let p = S0Proc {
            name: "f".into(),
            params: vec!["n".into()],
            body: S0Tail::If(
                S0Simple::Prim(Prim::ZeroP, vec![S0Simple::Var(0)]),
                Box::new(S0Tail::Return(S0Simple::Const(Constant::Int(0)))),
                Box::new(S0Tail::TailCall(ProcId(0), vec![S0Simple::Var(0)])),
            ),
        };
        let cfg = Cfg::build(&p);
        // entry, branch, return, call
        assert_eq!(cfg.node_count(), 4);
        assert_eq!(cfg.edge_count(), 3);
        let branch = cfg.succ[Cfg::ENTRY][0];
        assert!(matches!(cfg.nodes[branch], Node::Branch(_)));
        let [t, e] = cfg.succ[branch][..] else { panic!("two successors") };
        assert!(matches!(cfg.nodes[t], Node::Return(_)));
        assert!(matches!(cfg.nodes[e], Node::Call(_, _)));
    }

    #[test]
    fn program_cfg_totals_are_sums() {
        let p = S0Program {
            entry: ProcId(0),
            procs: vec![
                S0Proc { name: "a".into(), params: vec![], body: S0Tail::Fail("x".into()) },
                S0Proc { name: "b".into(), params: vec![], body: S0Tail::Fail("y".into()) },
            ],
        };
        let pc = ProgramCfg::build(&p);
        assert_eq!(pc.node_count(), 4);
        assert_eq!(pc.edge_count(), 2);
    }
}
