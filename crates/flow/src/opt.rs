//! Residual-program optimization in two stages: syntactic
//! post-processing ([`postprocess`]) and the flow-based passes
//! ([`optimize`]).
//!
//! Unmix's post-processor performs post-unfolding and arity raising; the
//! equivalents on S₀ are:
//!
//! * **reachability** — drop procedures never called from the entry;
//! * **transition compression** — a procedure whose body is a single
//!   tail call is inlined everywhere (classic Mix);
//! * **inline-once** — a non-recursive procedure with exactly one call
//!   site is inlined there (post-unfolding);
//! * **dead-parameter elimination** — driven by the interprocedural
//!   liveness fixpoint in [`crate::liveness`], which also kills
//!   parameters that merely circulate through recursive calls.
//!
//! On top of the syntactic fixpoint, [`optimize`] runs the dataflow
//! passes — copy/constant propagation ([`crate::constprop`]),
//! dispatch-arm folding and closure-slot pruning ([`crate::slots`]),
//! dead-binding elimination — interleaved with clean-up rounds until
//! nothing changes, reporting a [`FlowStats`] for the trace counters.
//!
//! All passes iterate to a fixpoint.  Inlining in S₀ is sound by
//! construction: bodies only reference their own parameters, and calls
//! are always in tail position, so substitution never captures and never
//! changes evaluation order.

use crate::s0::{S0Proc, S0Program, S0Simple, S0Tail};
use pe_governor::{Fuel, Limits, Trap};
use std::collections::{BTreeSet, HashMap, HashSet};

/// Runs all syntactic post passes to a fixpoint.
pub fn postprocess(mut p: S0Program) -> S0Program {
    // One budget for every round's dead-parameter analysis; once it is
    // spent the parameters stay as they are.
    let mut fuel = Fuel::new(&Limits::default());
    loop {
        let before = fingerprint(&p);
        p = simplify(p);
        p = drop_unreachable(p);
        p = compress_transitions(p);
        p = compress_returns(p);
        p = inline_once(p);
        let _ = crate::liveness::prune_dead_params(&mut p, &mut fuel);
        p = merge_entry(p);
        if fingerprint(&p) == before {
            return p;
        }
    }
}

/// Upper bound on [`optimize`] rounds; the fixpoint normally lands far
/// below it.
const MAX_ROUNDS: usize = 32;

/// What the flow optimizer did — the source of the `flow` trace
/// counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowStats {
    /// Variable occurrences replaced by known constants.
    pub copies_propagated: usize,
    /// Parameter bindings eliminated.
    pub dead_bindings: usize,
    /// Dispatch arms folded away.
    pub arms_folded: usize,
    /// `(label, slot)` capture pairs pruned.
    pub slots_pruned: usize,
}

/// Runs the flow passes to a fixpoint (or for `MAX_ROUNDS` rounds).
///
/// Pass order within a round: propagation first (it seeds constants),
/// then arm folding and slot pruning (shape-based), then dead-binding
/// elimination (it collects the parameters propagation just made
/// dead), then a syntactic clean-up when anything changed.
///
/// # Errors
///
/// [`Trap::OutOfFuel`] when the analysis budget is exhausted; the
/// input program is consumed, so callers wanting graceful degradation
/// keep a clone (as pe-core's pipeline does).
pub fn optimize(mut p: S0Program, fuel: &mut Fuel) -> Result<(S0Program, FlowStats), Trap> {
    let mut stats = FlowStats::default();
    for _ in 0..MAX_ROUNDS {
        fuel.step()?;
        let (q, copies) = crate::constprop::propagate(p, fuel)?;
        let (q, arms) = crate::slots::fold_arms(q, fuel)?;
        let (q, slots) = crate::slots::prune(q, fuel)?;
        p = q;
        let dead = crate::liveness::prune_dead_params(&mut p, fuel)?;
        stats.copies_propagated += copies;
        stats.arms_folded += arms;
        stats.slots_pruned += slots;
        stats.dead_bindings += dead;
        if copies + arms + slots + dead == 0 {
            break;
        }
        // Clean up what the rewrites exposed: substituted constants
        // feeding conditionals, dispatch targets now unreachable.
        p = simplify(p);
        p = drop_unreachable(p);
    }
    Ok((p, stats))
}

/// Inlines procedures whose whole body is a `Return` of a simple
/// expression (return compression), under the duplication guard.
fn compress_returns(mut p: S0Program) -> S0Program {
    let returners: HashMap<String, (Vec<String>, S0Tail)> = p
        .procs
        .iter()
        .filter(|q| matches!(q.body, S0Tail::Return(_)))
        .map(|q| (q.name.clone(), (q.params.clone(), q.body.clone())))
        .collect();
    if returners.is_empty() {
        return p;
    }
    for q in &mut p.procs {
        q.body = rewrite_calls(&q.body, &mut |callee, args| match returners.get(callee) {
            Some((params, body)) if !duplicates(params, args, body) => {
                body.subst(&bind(params, args))
            }
            _ => S0Tail::TailCall(callee.to_string(), args.to_vec()),
        });
    }
    drop_unreachable(p)
}

/// When the entry is a pure trampoline — its body forwards its own
/// parameters, in order, to one other procedure — delete the wrapper and
/// give the target the entry's public name.
fn merge_entry(mut p: S0Program) -> S0Program {
    let Some(entry) = p.proc(&p.entry) else { return p };
    let S0Tail::TailCall(target, args) = &entry.body else {
        return p;
    };
    let target = target.clone();
    if target == p.entry {
        return p;
    }
    let forwards_params = args.len() == entry.params.len()
        && entry
            .params
            .iter()
            .zip(args)
            .all(|(pm, a)| matches!(a, S0Simple::Var(v) if v == pm));
    if !forwards_params {
        return p;
    }
    // The target must have the same arity (it does: the call above).
    let entry_name = p.entry.clone();
    p.procs.retain(|q| q.name != entry_name);
    for q in &mut p.procs {
        if q.name == target {
            q.name = entry_name.clone();
        }
        q.body = rewrite_calls(&q.body, &mut |callee, args| {
            let callee =
                if callee == target { entry_name.clone() } else { callee.to_string() };
            S0Tail::TailCall(callee, args.to_vec())
        });
    }
    p
}

/// Peephole simplification on simple expressions:
/// `(car (cons a d)) → a`, `(cdr (cons a d)) → d`,
/// `(closure-label (make-closure ℓ …)) → ℓ`,
/// `(closure-freeval (make-closure ℓ v₀…) i) → vᵢ`,
/// `(equal? k₁ k₂) → #t/#f` on atom constants, and constant-condition
/// folding on `if` — all only when the discarded part cannot fault.
fn simplify(mut p: S0Program) -> S0Program {
    fn effect_free_all(args: &[S0Simple]) -> bool {
        args.iter().all(is_effect_free)
    }
    fn go_simple(s: &S0Simple) -> S0Simple {
        use pe_frontend::Prim::*;
        let s = match s {
            S0Simple::Var(_) | S0Simple::Const(_) => return s.clone(),
            S0Simple::Prim(op, args) => {
                S0Simple::Prim(*op, args.iter().map(go_simple).collect())
            }
            S0Simple::MakeClosure(l, args) => {
                S0Simple::MakeClosure(*l, args.iter().map(go_simple).collect())
            }
            S0Simple::ClosureLabel(a) => S0Simple::ClosureLabel(Box::new(go_simple(a))),
            S0Simple::ClosureFreeval(a, i) => {
                S0Simple::ClosureFreeval(Box::new(go_simple(a)), *i)
            }
        };
        match &s {
            S0Simple::Prim(op @ (Car | Cdr), args) => {
                if let [S0Simple::Prim(Cons, parts)] = args.as_slice() {
                    let (keep, drop) =
                        if *op == Car { (&parts[0], &parts[1]) } else { (&parts[1], &parts[0]) };
                    if is_effect_free(drop) {
                        return keep.clone();
                    }
                }
                s
            }
            S0Simple::Prim(NullP, args) => {
                if let [S0Simple::Prim(Cons, parts)] = args.as_slice() {
                    if effect_free_all(parts) {
                        return S0Simple::Const(pe_frontend::Constant::Bool(false));
                    }
                }
                s
            }
            S0Simple::Prim(EqualP, args) => {
                if let [S0Simple::Const(a), S0Simple::Const(b)] = args.as_slice() {
                    return S0Simple::Const(pe_frontend::Constant::Bool(a == b));
                }
                s
            }
            S0Simple::ClosureLabel(a) => {
                if let S0Simple::MakeClosure(l, args) = &**a {
                    if effect_free_all(args) {
                        return S0Simple::Const(pe_frontend::Constant::Int(i64::from(*l)));
                    }
                }
                s
            }
            S0Simple::ClosureFreeval(a, i) => {
                if let S0Simple::MakeClosure(_, args) = &**a {
                    if let Some(v) = args.get(*i) {
                        let others_free = args
                            .iter()
                            .enumerate()
                            .all(|(j, x)| j == *i || is_effect_free(x));
                        if others_free {
                            return v.clone();
                        }
                    }
                }
                s
            }
            _ => s,
        }
    }
    fn go_tail(t: &S0Tail) -> S0Tail {
        match t {
            S0Tail::Return(s) => S0Tail::Return(go_simple(s)),
            S0Tail::If(c, a, b) => {
                let c = go_simple(c);
                let a = go_tail(a);
                let b = go_tail(b);
                if let S0Simple::Const(k) = &c {
                    return if k.is_truthy() { a } else { b };
                }
                S0Tail::If(c, Box::new(a), Box::new(b))
            }
            S0Tail::TailCall(p, args) => {
                S0Tail::TailCall(p.clone(), args.iter().map(go_simple).collect())
            }
            S0Tail::Fail(_) => t.clone(),
        }
    }
    for q in &mut p.procs {
        q.body = go_tail(&q.body);
    }
    p
}

fn fingerprint(p: &S0Program) -> (usize, usize) {
    (p.procs.len(), p.size())
}

/// Drops procedures unreachable from the entry.
fn drop_unreachable(p: S0Program) -> S0Program {
    let mut reach: HashSet<String> = HashSet::new();
    let mut work = vec![p.entry.clone()];
    while let Some(name) = work.pop() {
        if !reach.insert(name.clone()) {
            continue;
        }
        if let Some(proc_) = p.proc(&name) {
            proc_.body.calls(&mut |callee| work.push(callee.to_string()));
        }
    }
    S0Program {
        procs: p.procs.into_iter().filter(|q| reach.contains(&q.name)).collect(),
        entry: p.entry,
    }
}

/// Inlines procedures whose whole body is a single tail call.
fn compress_transitions(mut p: S0Program) -> S0Program {
    // name → (params, body) for trivial trampolines, skipping self-loops.
    let trivial: HashMap<String, (Vec<String>, S0Tail)> = p
        .procs
        .iter()
        .filter(|q| matches!(&q.body, S0Tail::TailCall(t, _) if *t != q.name))
        .map(|q| (q.name.clone(), (q.params.clone(), q.body.clone())))
        .collect();
    if trivial.is_empty() {
        return p;
    }
    for q in &mut p.procs {
        q.body = rewrite_calls(&q.body, &mut |callee, args| {
            let mut callee = callee.to_string();
            let mut args = args.to_vec();
            // Chase the trampoline chain, stopping before it re-enters a
            // trampoline it already passed (a mutual trampoline cycle).
            let mut seen: HashSet<&str> = HashSet::new();
            while let Some((name, (params, body @ S0Tail::TailCall(target, targs)))) =
                trivial.get_key_value(callee.as_str())
            {
                seen.insert(name);
                if seen.contains(target.as_str()) || duplicates(params, &args, body) {
                    break;
                }
                let map = bind(params, &args);
                args = targs.iter().map(|a| a.subst(&map)).collect();
                callee.clone_from(target);
            }
            S0Tail::TailCall(callee, args)
        });
    }
    // Entry may itself be a trampoline; keep it (it is the public name).
    drop_unreachable(p)
}

/// Inlines non-recursive procedures called from exactly one site.
///
/// Victims go lowest program position first, and eligibility is
/// re-checked after every inline.  Inlining keeps every call count (the
/// victim's one site gives way to its body, which carries the victim's
/// calls along), so the call index is built once.  An inline changes
/// only the caller's body and the sites of the victim's callees, so
/// only those procedures are re-checked.  Public so that tests outside
/// the crate can hold it against a reference.
pub fn inline_once(p: S0Program) -> S0Program {
    let mut ix = CallIndex::new(p.procs, &p.entry);
    while let Some(v) = ix.ready.pop_first() {
        ix.inline(v);
    }
    S0Program { procs: ix.procs.into_iter().flatten().collect(), entry: p.entry }
}

/// Who calls whom, for [`inline_once`]; positions are indices into the
/// program's procedure list.
struct CallIndex {
    /// The procedures in program order; `None` once inlined away.
    procs: Vec<Option<S0Proc>>,
    /// Position of each procedure name.
    pos: HashMap<String, usize>,
    /// Position of the entry, which is never inlined.
    entry: Option<usize>,
    /// Call sites per procedure.
    count: Vec<usize>,
    /// The calling procedure and the arguments of each procedure's
    /// first call site, its only one when `count` is 1.
    site: Vec<Option<(usize, Vec<S0Simple>)>>,
    /// Whether each procedure calls itself.
    recursive: Vec<bool>,
    /// Positions of the procedures that can be inlined now.
    ready: BTreeSet<usize>,
}

impl CallIndex {
    fn new(procs: Vec<S0Proc>, entry: &str) -> CallIndex {
        let n = procs.len();
        let pos: HashMap<String, usize> =
            procs.iter().enumerate().map(|(i, q)| (q.name.clone(), i)).collect();
        let mut count = vec![0; n];
        let mut site = vec![None; n];
        let mut recursive = vec![false; n];
        for (i, q) in procs.iter().enumerate() {
            visit_calls(&q.body, &mut |callee, args| {
                if let Some(&j) = pos.get(callee) {
                    count[j] += 1;
                    site[j].get_or_insert_with(|| (i, args.to_vec()));
                    recursive[j] |= i == j;
                }
            });
        }
        let mut ix = CallIndex {
            procs: procs.into_iter().map(Some).collect(),
            entry: pos.get(entry).copied(),
            pos,
            count,
            site,
            recursive,
            ready: BTreeSet::new(),
        };
        for i in 0..n {
            ix.recheck(i);
        }
        ix
    }

    /// Files `i` under `ready` exactly when it can be inlined: a
    /// non-entry, non-recursive procedure with one call site whose
    /// arguments pass the duplication guard.
    fn recheck(&mut self, i: usize) {
        let ok = match (&self.procs[i], &self.site[i]) {
            (Some(q), Some((_, args))) => {
                Some(i) != self.entry
                    && self.count[i] == 1
                    && !self.recursive[i]
                    && !duplicates(&q.params, args, &q.body)
            }
            _ => false,
        };
        if ok {
            self.ready.insert(i);
        } else {
            self.ready.remove(&i);
        }
    }

    /// Inlines procedure `v` into its one caller, in place.
    fn inline(&mut self, v: usize) {
        let victim = self.procs[v].take().expect("ready procedures are present");
        let (c, args) = self.site[v].take().expect("ready procedures have a call site");
        let body = victim.body.subst(&bind(&victim.params, &args));
        // The victim's calls now sit in the caller, with new arguments.
        let mut moved = vec![c];
        visit_calls(&body, &mut |callee, args| {
            if let Some(&j) = self.pos.get(callee) {
                self.recursive[c] |= j == c;
                if self.count[j] == 1 {
                    self.site[j] = Some((c, args.to_vec()));
                    moved.push(j);
                }
            }
        });
        let caller = self.procs[c].as_mut().expect("a call site's caller is present");
        *call_site(&mut caller.body, &victim.name).expect("the caller holds the call") = body;
        for i in moved {
            self.recheck(i);
        }
    }
}

/// A simple expression that can never fault at runtime.
#[must_use]
pub(crate) fn is_effect_free(s: &S0Simple) -> bool {
    use pe_frontend::Prim::*;
    match s {
        S0Simple::Var(_) | S0Simple::Const(_) => true,
        S0Simple::MakeClosure(_, args) => args.iter().all(is_effect_free),
        S0Simple::Prim(op, args) => {
            matches!(
                op,
                Cons | NullP | PairP | Not | EqP | EqvP | EqualP | SymbolP | NumberP | BooleanP
            ) && args.iter().all(is_effect_free)
        }
        // closure-label / closure-freeval fault on non-closures.
        S0Simple::ClosureLabel(_) | S0Simple::ClosureFreeval(_, _) => false,
    }
}

fn occurrences(s: &S0Simple, v: &str) -> usize {
    match s {
        S0Simple::Var(x) => usize::from(x == v),
        S0Simple::Const(_) => 0,
        S0Simple::Prim(_, args) | S0Simple::MakeClosure(_, args) => {
            args.iter().map(|a| occurrences(a, v)).sum()
        }
        S0Simple::ClosureLabel(a) | S0Simple::ClosureFreeval(a, _) => occurrences(a, v),
    }
}

fn occurrences_tail(t: &S0Tail, v: &str) -> usize {
    match t {
        S0Tail::Return(s) => occurrences(s, v),
        S0Tail::If(c, a, b) => {
            occurrences(c, v) + occurrences_tail(a, v).max(occurrences_tail(b, v))
        }
        S0Tail::TailCall(_, args) => args.iter().map(|a| occurrences(a, v)).sum(),
        S0Tail::Fail(_) => 0,
    }
}

/// Whether inlining `body` with `params` bound to `args` would
/// duplicate work: some non-trivial argument (anything but a variable
/// or a constant) would replace a parameter that `body` reads more than
/// once on one path.  The guard of every inlining pass.
fn duplicates(params: &[String], args: &[S0Simple], body: &S0Tail) -> bool {
    params.iter().zip(args).any(|(pm, a)| {
        !matches!(a, S0Simple::Var(_) | S0Simple::Const(_)) && occurrences_tail(body, pm) > 1
    })
}

fn bind(params: &[String], args: &[S0Simple]) -> HashMap<String, S0Simple> {
    params.iter().cloned().zip(args.iter().cloned()).collect()
}

fn rewrite_calls(t: &S0Tail, f: &mut impl FnMut(&str, &[S0Simple]) -> S0Tail) -> S0Tail {
    match t {
        S0Tail::Return(_) | S0Tail::Fail(_) => t.clone(),
        S0Tail::If(c, a, b) => S0Tail::If(
            c.clone(),
            Box::new(rewrite_calls(a, f)),
            Box::new(rewrite_calls(b, f)),
        ),
        S0Tail::TailCall(p, args) => f(p, args),
    }
}

fn visit_calls(t: &S0Tail, f: &mut impl FnMut(&str, &[S0Simple])) {
    match t {
        S0Tail::Return(_) | S0Tail::Fail(_) => {}
        S0Tail::If(_, a, b) => {
            visit_calls(a, f);
            visit_calls(b, f);
        }
        S0Tail::TailCall(p, args) => f(p, args),
    }
}


/// The tail call to `callee` in `t`.
fn call_site<'a>(t: &'a mut S0Tail, callee: &str) -> Option<&'a mut S0Tail> {
    if matches!(t, S0Tail::TailCall(p, _) if p == callee) {
        return Some(t);
    }
    match t {
        S0Tail::If(_, a, b) => call_site(a, callee).or_else(|| call_site(b, callee)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{check, FlowSeverity};
    use crate::s0::S0Proc;
    use pe_frontend::ast::Constant;
    use pe_frontend::Prim;

    fn var(v: &str) -> S0Simple {
        S0Simple::Var(v.into())
    }

    fn kint(n: i64) -> S0Simple {
        S0Simple::Const(Constant::Int(n))
    }

    fn fuel() -> Fuel {
        Fuel::new(&Limits::default())
    }

    fn prune(mut p: S0Program) -> S0Program {
        crate::liveness::prune_dead_params(&mut p, &mut fuel()).unwrap();
        p
    }

    fn proc_(name: &str, params: &[&str], body: S0Tail) -> S0Proc {
        S0Proc { name: name.into(), params: params.iter().map(|&v| v.into()).collect(), body }
    }

    fn call(callee: &str, args: Vec<S0Simple>) -> S0Tail {
        S0Tail::TailCall(callee.into(), args)
    }

    fn prim(op: Prim, args: Vec<S0Simple>) -> S0Simple {
        S0Simple::Prim(op, args)
    }

    /// The flow verifier must report no errors on the program.
    fn assert_wellformed(q: &S0Program) {
        let diags = check(q, &mut fuel()).unwrap();
        let errs: Vec<_> =
            diags.iter().filter(|d| d.severity == FlowSeverity::Error).collect();
        assert!(errs.is_empty(), "{errs:?}\n{q}");
    }

    #[test]
    fn unreachable_procs_are_dropped() {
        let p = S0Program {
            entry: "main".into(),
            procs: vec![
                S0Proc { name: "main".into(), params: vec![], body: S0Tail::Return(kint(1)) },
                S0Proc { name: "junk".into(), params: vec![], body: S0Tail::Return(kint(2)) },
            ],
        };
        let p = drop_unreachable(p);
        assert_eq!(p.procs.len(), 1);
        assert_eq!(p.procs[0].name, "main");
    }

    #[test]
    fn transition_chains_are_compressed() {
        // main → a → b, both trampolines; main should call c directly.
        let p = S0Program {
            entry: "main".into(),
            procs: vec![
                S0Proc {
                    name: "main".into(),
                    params: vec!["x".into()],
                    body: S0Tail::TailCall("a".into(), vec![var("x")]),
                },
                S0Proc {
                    name: "a".into(),
                    params: vec!["y".into()],
                    body: S0Tail::TailCall(
                        "b".into(),
                        vec![S0Simple::Prim(Prim::Cons, vec![var("y"), kint(1)])],
                    ),
                },
                S0Proc {
                    name: "b".into(),
                    params: vec!["z".into()],
                    body: S0Tail::TailCall("c".into(), vec![var("z"), var("z")]),
                },
                S0Proc {
                    name: "c".into(),
                    params: vec!["u".into(), "v".into()],
                    body: S0Tail::Return(var("u")),
                },
            ],
        };
        let p = compress_transitions(p);
        let main = p.proc("main").unwrap();
        // The chase inlines a (and substitutes its cons into b's arg),
        // then stops: b would duplicate the non-trivial cons argument
        // into c's two argument slots.
        match &main.body {
            S0Tail::TailCall(t, args) => {
                assert_eq!(t, "b");
                assert_eq!(args.len(), 1);
            }
            other => panic!("expected direct call to b, got {other:?}"),
        }
        assert!(p.proc("a").is_none(), "trampoline a removed");
        assert!(p.proc("b").is_some(), "duplicating trampoline b kept");
    }

    #[test]
    fn transition_compression_never_duplicates_work() {
        // x → dup with a computed argument used twice: must not chase.
        let p = S0Program {
            entry: "x".into(),
            procs: vec![
                S0Proc {
                    name: "x".into(),
                    params: vec!["v".into()],
                    body: S0Tail::TailCall(
                        "dup".into(),
                        vec![S0Simple::Prim(Prim::Cons, vec![var("v"), kint(1)])],
                    ),
                },
                S0Proc {
                    name: "dup".into(),
                    params: vec!["w".into()],
                    body: S0Tail::TailCall("use2".into(), vec![var("w"), var("w")]),
                },
                S0Proc {
                    name: "use2".into(),
                    params: vec!["a".into(), "b".into()],
                    body: S0Tail::Return(S0Simple::Prim(Prim::Cons, vec![var("a"), var("b")])),
                },
            ],
        };
        let before = p.size();
        let q = postprocess(p);
        assert_wellformed(&q);
        // The cons argument appears once in the output program.
        assert!(q.size() <= before + 2, "no blowup: {} -> {}", before, q.size());
    }

    #[test]
    fn transition_cycles_never_grow_the_program() {
        // a → b → a, each wrapping its argument in a cons: the chase must
        // stop where the cycle closes instead of going round it.
        let p = S0Program {
            entry: "main".into(),
            procs: vec![
                proc_("main", &["x"], call("a", vec![var("x")])),
                proc_("a", &["y"], call("b", vec![prim(Prim::Cons, vec![var("y"), kint(1)])])),
                proc_("b", &["z"], call("a", vec![prim(Prim::Cons, vec![var("z"), kint(2)])])),
            ],
        };
        let before = p.size();
        let q = compress_transitions(p);
        assert!(q.size() <= before, "grew: {before} -> {}\n{q}", q.size());
        assert_wellformed(&q);
    }

    #[test]
    fn inline_once_sees_a_mutual_pair_turn_self_recursive() {
        // f and g call each other once.  f goes first (lower position);
        // inlining it makes g call itself, so g must then stay.
        let p = S0Program {
            entry: "main".into(),
            procs: vec![
                proc_("main", &["x"], S0Tail::Return(var("x"))),
                proc_(
                    "f",
                    &["a"],
                    S0Tail::If(
                        prim(Prim::NullP, vec![var("a")]),
                        Box::new(S0Tail::Return(kint(1))),
                        Box::new(call("g", vec![var("a")])),
                    ),
                ),
                proc_(
                    "g",
                    &["b"],
                    S0Tail::If(
                        prim(Prim::PairP, vec![var("b")]),
                        Box::new(call("f", vec![var("b")])),
                        Box::new(S0Tail::Return(kint(2))),
                    ),
                ),
            ],
        };
        let q = inline_once(p);
        let names: Vec<&str> = q.procs.iter().map(|q| q.name.as_str()).collect();
        assert_eq!(names, ["main", "g"], "{q}");
        let mut calls = Vec::new();
        q.procs[1].body.calls(&mut |c| calls.push(c.to_string()));
        assert_eq!(calls, ["g"], "{q}");
    }

    #[test]
    fn inline_once_rechecks_the_guard_after_the_caller_moves() {
        // c is inlined first (lower position); v's argument then turns
        // from the variable y into (car x), and v reads its parameter
        // twice, so v must stay.  Inlining v first would keep c instead.
        let p = S0Program {
            entry: "main".into(),
            procs: vec![
                proc_("main", &["x"], call("c", vec![prim(Prim::Car, vec![var("x")])])),
                proc_("c", &["y"], call("v", vec![var("y")])),
                proc_("v", &["z"], S0Tail::Return(prim(Prim::Cons, vec![var("z"), var("z")]))),
            ],
        };
        let q = inline_once(p);
        assert_eq!(q.procs.len(), 2, "{q}");
        assert_eq!(
            q.procs[0].body,
            call("v", vec![prim(Prim::Car, vec![var("x")])]),
            "{q}"
        );
        assert_eq!(q.procs[1].name, "v");
    }

    #[test]
    fn inline_once_merges_chains() {
        // The paper's append-$1 scenario: a chain of once-called procs
        // collapses into the entry.
        let p = S0Program {
            entry: "append-$1".into(),
            procs: vec![
                S0Proc {
                    name: "append-$1".into(),
                    params: vec!["y".into()],
                    body: S0Tail::TailCall("sl-eval-$1".into(), vec![var("y")]),
                },
                S0Proc {
                    name: "sl-eval-$1".into(),
                    params: vec!["cv-vals-$1".into()],
                    body: S0Tail::Return(S0Simple::Prim(
                        Prim::Cons,
                        vec![S0Simple::Const(Constant::Sym("foo".into())), var("cv-vals-$1")],
                    )),
                },
            ],
        };
        let p = postprocess(p);
        assert_eq!(p.procs.len(), 1);
        match &p.procs[0].body {
            S0Tail::Return(S0Simple::Prim(Prim::Cons, args)) => {
                assert_eq!(args[1], var("y"));
            }
            other => panic!("expected inlined cons, got {other:?}"),
        }
    }

    #[test]
    fn recursive_procs_are_not_inlined() {
        let p = S0Program {
            entry: "main".into(),
            procs: vec![
                S0Proc {
                    name: "main".into(),
                    params: vec!["n".into()],
                    body: S0Tail::TailCall("loop".into(), vec![var("n")]),
                },
                S0Proc {
                    name: "loop".into(),
                    params: vec!["n".into()],
                    body: S0Tail::If(
                        S0Simple::Prim(Prim::ZeroP, vec![var("n")]),
                        Box::new(S0Tail::Return(kint(0))),
                        Box::new(S0Tail::TailCall(
                            "loop".into(),
                            vec![S0Simple::Prim(Prim::Sub, vec![var("n"), kint(1)])],
                        )),
                    ),
                },
            ],
        };
        let q = postprocess(p.clone());
        // merge_entry renames the loop to the public entry name; the
        // self-recursive loop itself must survive under either name.
        let survivor = q.proc("loop").or_else(|| q.proc("main")).expect("loop survives");
        let mut recursive = false;
        survivor.body.calls(&mut |c| recursive |= c == survivor.name);
        assert!(recursive, "{q}");
        assert_wellformed(&q);
    }

    #[test]
    fn dead_params_are_dropped_when_safe() {
        let p2 = S0Program {
            entry: "main".into(),
            procs: vec![
                S0Proc {
                    name: "main".into(),
                    params: vec!["x".into()],
                    body: S0Tail::TailCall("f".into(), vec![kint(1), var("x")]),
                },
                S0Proc {
                    name: "f".into(),
                    params: vec!["dead".into(), "live".into()],
                    body: S0Tail::Return(var("live")),
                },
            ],
        };
        let q = prune(p2);
        let f = q.proc("f").unwrap();
        assert_eq!(f.params, vec!["live".to_string()]);
        assert_wellformed(&q);

        // The unsafe case: argument can fault, parameter must stay.
        let p3 = S0Program {
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
        let q = prune(p3);
        assert_eq!(q.proc("f").unwrap().params.len(), 2, "faulting arg must stay");
    }

    #[test]
    fn postprocess_preserves_wellformedness() {
        let p = S0Program {
            entry: "e".into(),
            procs: vec![
                S0Proc {
                    name: "e".into(),
                    params: vec!["a".into()],
                    body: S0Tail::TailCall("t1".into(), vec![var("a")]),
                },
                S0Proc {
                    name: "t1".into(),
                    params: vec!["b".into()],
                    body: S0Tail::TailCall("t2".into(), vec![var("b"), kint(9)]),
                },
                S0Proc {
                    name: "t2".into(),
                    params: vec!["c".into(), "d".into()],
                    body: S0Tail::Return(S0Simple::Prim(Prim::Cons, vec![var("c"), var("d")])),
                },
            ],
        };
        let q = postprocess(p);
        assert_wellformed(&q);
        assert_eq!(q.procs.len(), 1, "everything inlined into the entry");
    }

    /// A constant circulating through a recursive loop: propagation
    /// substitutes it, liveness then kills the parameter, and the
    /// clean-up pass folds the exposed constants.
    #[test]
    fn optimize_combines_propagation_and_dead_params() {
        let p = S0Program {
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
                        Box::new(S0Tail::Return(var("x"))),
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
        let (q, stats) = optimize(p, &mut fuel()).unwrap();
        assert_eq!(stats.copies_propagated, 2, "{stats:?}");
        assert_eq!(stats.dead_bindings, 1, "{stats:?}");
        let lp = q.proc("loop").unwrap();
        assert_eq!(lp.params, vec!["n".to_string()]);
        assert_wellformed(&q);
    }

    #[test]
    fn optimize_respects_fuel() {
        let p = S0Program {
            entry: "main".into(),
            procs: vec![S0Proc {
                name: "main".into(),
                params: vec![],
                body: S0Tail::Return(kint(1)),
            }],
        };
        let mut tiny = Fuel::new(&Limits { fuel: 1, ..Limits::default() });
        assert!(matches!(optimize(p, &mut tiny), Err(Trap::OutOfFuel { .. })));
    }
}
