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

use crate::s0::{ProcId, S0Proc, S0Program, S0Simple, S0Tail};
use pe_governor::{Fuel, Limits, Trap};
use std::collections::{BTreeSet, HashSet};

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
    // Each procedure's body when it is a `Return`.
    let returners: Vec<Option<S0Tail>> = p
        .procs
        .iter()
        .map(|q| matches!(q.body, S0Tail::Return(_)).then(|| q.body.clone()))
        .collect();
    if returners.iter().all(Option::is_none) {
        return p;
    }
    for q in &mut p.procs {
        q.body = rewrite_calls(&q.body, &mut |callee, args| match returners.get(callee.index()) {
            Some(Some(body)) if !duplicates(args, body) => body.subst(args),
            _ => S0Tail::TailCall(callee, args.to_vec()),
        });
    }
    drop_unreachable(p)
}

/// When the entry is a pure trampoline — its body forwards its own
/// parameters, in order, to one other procedure — delete the wrapper and
/// give the target the entry's public name.
fn merge_entry(mut p: S0Program) -> S0Program {
    let e = p.entry;
    let Some(entry) = p.procs.get(e.index()) else { return p };
    let S0Tail::TailCall(target, args) = &entry.body else {
        return p;
    };
    let target = *target;
    if target == e || target.index() >= p.procs.len() {
        return p;
    }
    let forwards_params = args.len() == entry.params.len()
        && args.iter().enumerate().all(|(i, a)| *a == S0Simple::Var(i as u32));
    if !forwards_params {
        return p;
    }
    // The target has the same arity (the call above), so calls to the
    // entry may go to the target instead.
    p.procs[target.index()].name = std::mem::take(&mut p.procs[e.index()].name);
    for q in &mut p.procs {
        calls_mut(&mut q.body, &mut |callee| {
            if *callee == e {
                *callee = target;
            }
        });
    }
    let procs = p.procs.into_iter().enumerate().map(|(i, q)| (i != e.index()).then_some(q));
    compact(procs.collect(), target)
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
                S0Tail::TailCall(*p, args.iter().map(go_simple).collect())
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

/// Removes the `None` procedures and renumbers every call and the entry
/// to the survivors' new positions: the one place procedure ids are
/// renumbered.  A call to a removed procedure (which no pass leaves
/// behind) ends up out of range, and an id that was already out of
/// range stays so.
fn compact(procs: Vec<Option<S0Proc>>, entry: ProcId) -> S0Program {
    if procs.iter().all(Option::is_some) {
        return S0Program { procs: procs.into_iter().flatten().collect(), entry };
    }
    let mut next = 0;
    let remap: Vec<ProcId> = procs
        .iter()
        .map(|q| match q {
            Some(_) => {
                next += 1;
                ProcId(next - 1)
            }
            None => ProcId(u32::MAX),
        })
        .collect();
    let mut renumber = |id: &mut ProcId| *id = remap.get(id.index()).copied().unwrap_or(*id);
    let mut procs: Vec<S0Proc> = procs.into_iter().flatten().collect();
    for q in &mut procs {
        calls_mut(&mut q.body, &mut renumber);
    }
    let mut entry = entry;
    renumber(&mut entry);
    S0Program { procs, entry }
}

/// Drops procedures unreachable from the entry.
fn drop_unreachable(p: S0Program) -> S0Program {
    let mut reach = vec![false; p.procs.len()];
    let mut work = vec![p.entry];
    while let Some(f) = work.pop() {
        let Some(seen) = reach.get_mut(f.index()) else { continue };
        if !std::mem::replace(seen, true) {
            p.procs[f.index()].body.calls(&mut |callee, _| work.push(callee));
        }
    }
    let procs = p.procs.into_iter().zip(reach).map(|(q, r)| r.then_some(q));
    compact(procs.collect(), p.entry)
}

/// Inlines procedures whose whole body is a single tail call.
fn compress_transitions(mut p: S0Program) -> S0Program {
    // Each trivial trampoline's body, skipping self-loops.
    let trivial: Vec<Option<S0Tail>> = p
        .procs
        .iter()
        .enumerate()
        .map(|(i, q)| {
            matches!(&q.body, S0Tail::TailCall(t, _) if t.index() != i).then(|| q.body.clone())
        })
        .collect();
    if trivial.iter().all(Option::is_none) {
        return p;
    }
    for q in &mut p.procs {
        q.body = rewrite_calls(&q.body, &mut |mut callee, args| {
            let mut args = args.to_vec();
            // Chase the trampoline chain, stopping before it re-enters a
            // trampoline it already passed (a mutual trampoline cycle).
            let mut seen: HashSet<ProcId> = HashSet::new();
            while let Some(Some(body @ S0Tail::TailCall(target, targs))) =
                trivial.get(callee.index())
            {
                seen.insert(callee);
                if seen.contains(target) || duplicates(&args, body) {
                    break;
                }
                args = targs.iter().map(|a| a.subst(&args)).collect();
                callee = *target;
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
    let mut ix = CallIndex::new(p.procs, p.entry);
    while let Some(v) = ix.ready.pop_first() {
        ix.inline(v);
    }
    compact(ix.procs, p.entry)
}

/// Who calls whom, for [`inline_once`]; positions are [`ProcId`]s.
struct CallIndex {
    /// The procedures in program order; `None` once inlined away.
    procs: Vec<Option<S0Proc>>,
    /// Position of the entry, which is never inlined.
    entry: usize,
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
    fn new(procs: Vec<S0Proc>, entry: ProcId) -> CallIndex {
        let n = procs.len();
        let mut count = vec![0; n];
        let mut site = vec![None; n];
        let mut recursive = vec![false; n];
        for (i, q) in procs.iter().enumerate() {
            q.body.calls(&mut |callee, args| {
                let j = callee.index();
                if j < n {
                    count[j] += 1;
                    site[j].get_or_insert_with(|| (i, args.to_vec()));
                    recursive[j] |= i == j;
                }
            });
        }
        let mut ix = CallIndex {
            procs: procs.into_iter().map(Some).collect(),
            entry: entry.index(),
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
                i != self.entry
                    && self.count[i] == 1
                    && !self.recursive[i]
                    && !duplicates(args, &q.body)
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
        let body = victim.body.subst(&args);
        // The victim's calls now sit in the caller, with new arguments.
        let mut moved = vec![c];
        body.calls(&mut |callee, args| {
            let j = callee.index();
            if j < self.count.len() {
                self.recursive[c] |= j == c;
                if self.count[j] == 1 {
                    self.site[j] = Some((c, args.to_vec()));
                    moved.push(j);
                }
            }
        });
        let caller = self.procs[c].as_mut().expect("a call site's caller is present");
        *call_site(&mut caller.body, ProcId(v as u32)).expect("the caller holds the call") = body;
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

fn occurrences(s: &S0Simple, v: u32) -> usize {
    match s {
        S0Simple::Var(x) => usize::from(*x == v),
        S0Simple::Const(_) => 0,
        S0Simple::Prim(_, args) | S0Simple::MakeClosure(_, args) => {
            args.iter().map(|a| occurrences(a, v)).sum()
        }
        S0Simple::ClosureLabel(a) | S0Simple::ClosureFreeval(a, _) => occurrences(a, v),
    }
}

fn occurrences_tail(t: &S0Tail, v: u32) -> usize {
    match t {
        S0Tail::Return(s) => occurrences(s, v),
        S0Tail::If(c, a, b) => {
            occurrences(c, v) + occurrences_tail(a, v).max(occurrences_tail(b, v))
        }
        S0Tail::TailCall(_, args) => args.iter().map(|a| occurrences(a, v)).sum(),
        S0Tail::Fail(_) => 0,
    }
}

/// Whether inlining `body` with its slots bound to `args` would
/// duplicate work: some non-trivial argument (anything but a variable
/// or a constant) would replace a slot that `body` reads more than
/// once on one path.  The guard of every inlining pass.
fn duplicates(args: &[S0Simple], body: &S0Tail) -> bool {
    args.iter().enumerate().any(|(i, a)| {
        !matches!(a, S0Simple::Var(_) | S0Simple::Const(_)) && occurrences_tail(body, i as u32) > 1
    })
}

fn rewrite_calls(t: &S0Tail, f: &mut impl FnMut(ProcId, &[S0Simple]) -> S0Tail) -> S0Tail {
    match t {
        S0Tail::Return(_) | S0Tail::Fail(_) => t.clone(),
        S0Tail::If(c, a, b) => S0Tail::If(
            c.clone(),
            Box::new(rewrite_calls(a, f)),
            Box::new(rewrite_calls(b, f)),
        ),
        S0Tail::TailCall(p, args) => f(*p, args),
    }
}

/// Calls `f` on every call target in `t`, which it may change.
fn calls_mut(t: &mut S0Tail, f: &mut impl FnMut(&mut ProcId)) {
    match t {
        S0Tail::Return(_) | S0Tail::Fail(_) => {}
        S0Tail::If(_, a, b) => {
            calls_mut(a, f);
            calls_mut(b, f);
        }
        S0Tail::TailCall(p, _) => f(p),
    }
}

/// The tail call to `callee` in `t`.
fn call_site(t: &mut S0Tail, callee: ProcId) -> Option<&mut S0Tail> {
    if matches!(t, S0Tail::TailCall(p, _) if *p == callee) {
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
    use pe_frontend::ast::Constant;
    use pe_frontend::Prim;

    fn var(slot: u32) -> S0Simple {
        S0Simple::Var(slot)
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

    /// A program whose entry is its first procedure.
    fn program(procs: Vec<S0Proc>) -> S0Program {
        S0Program { entry: ProcId(0), procs }
    }

    fn call(callee: u32, args: Vec<S0Simple>) -> S0Tail {
        S0Tail::TailCall(ProcId(callee), args)
    }

    fn prim(op: Prim, args: Vec<S0Simple>) -> S0Simple {
        S0Simple::Prim(op, args)
    }

    /// The names of the procedures `q` calls, in program order.
    fn callees(p: &S0Program, q: &S0Proc) -> Vec<String> {
        let mut out = Vec::new();
        q.body.calls(&mut |c, _| out.push(p.procs[c.index()].name.clone()));
        out
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
        let p = program(vec![
            proc_("main", &[], S0Tail::Return(kint(1))),
            proc_("junk", &[], S0Tail::Return(kint(2))),
        ]);
        let p = drop_unreachable(p);
        assert_eq!(p.procs.len(), 1);
        assert_eq!(p.procs[0].name, "main");
    }

    #[test]
    fn compaction_renumbers_calls_past_a_dropped_middle_procedure() {
        // junk sits between loop and the entry; dropping it moves main
        // from position 2 to 1, and every call must follow.
        let p = S0Program {
            entry: ProcId(2),
            procs: vec![
                proc_(
                    "loop",
                    &["n"],
                    S0Tail::If(
                        prim(Prim::ZeroP, vec![var(0)]),
                        Box::new(S0Tail::Return(kint(0))),
                        Box::new(call(2, vec![prim(Prim::Sub1, vec![var(0)])])),
                    ),
                ),
                proc_("junk", &[], call(0, vec![kint(1)])),
                proc_("main", &["x"], call(0, vec![var(0)])),
            ],
        };
        let want: String = p
            .to_source()
            .lines()
            .filter(|l| !l.starts_with("(define (junk"))
            .map(|l| format!("{l}\n"))
            .collect();
        let q = drop_unreachable(p);
        assert_eq!(q.to_source(), want);
        assert_eq!(q.procs[q.entry.index()].name, "main");
        assert_eq!(callees(&q, &q.procs[0]), ["main"]);
        assert_eq!(callees(&q, &q.procs[1]), ["loop"]);
    }

    #[test]
    fn merge_entry_drops_the_entry_and_redirects_its_callers() {
        // main forwards to loop; other calls main back.  After the merge
        // loop carries the entry's name, and other's call reaches it.
        let p = program(vec![
            proc_("main", &["x", "y"], call(2, vec![var(0), var(1)])),
            proc_("other", &["a"], call(0, vec![var(0), var(0)])),
            proc_(
                "loop",
                &["n", "acc"],
                S0Tail::If(
                    prim(Prim::ZeroP, vec![var(0)]),
                    Box::new(S0Tail::Return(var(1))),
                    Box::new(call(1, vec![var(0)])),
                ),
            ),
        ]);
        let q = merge_entry(p);
        assert_eq!(
            q.to_source(),
            "(define (other a) (main a a))\n(define (main n acc) (if (zero? n) acc (other n)))\n"
        );
        assert_eq!(q.entry, ProcId(1));
        assert_eq!(q.procs[1].name, "main");
        assert_eq!(callees(&q, &q.procs[0]), ["main"]);
        assert_eq!(callees(&q, &q.procs[1]), ["other"]);
        assert_wellformed(&q);
    }

    #[test]
    fn transition_chains_are_compressed() {
        // main → a → b, both trampolines; main should call c directly.
        let p = program(vec![
            proc_("main", &["x"], call(1, vec![var(0)])),
            proc_("a", &["y"], call(2, vec![prim(Prim::Cons, vec![var(0), kint(1)])])),
            proc_("b", &["z"], call(3, vec![var(0), var(0)])),
            proc_("c", &["u", "v"], S0Tail::Return(var(0))),
        ]);
        let p = compress_transitions(p);
        let main = p.proc("main").unwrap();
        // The chase inlines a (and substitutes its cons into b's arg),
        // then stops: b would duplicate the non-trivial cons argument
        // into c's two argument slots.
        match &main.body {
            S0Tail::TailCall(t, args) => {
                assert_eq!(p.procs[t.index()].name, "b");
                assert_eq!(args.len(), 1);
            }
            other => panic!("expected direct call to b, got {other:?}"),
        }
        assert!(p.proc("a").is_none(), "trampoline a removed");
        assert!(p.proc("b").is_some(), "duplicating trampoline b kept");
        assert_wellformed(&p);
    }

    #[test]
    fn transition_compression_never_duplicates_work() {
        // x → dup with a computed argument used twice: must not chase.
        let p = program(vec![
            proc_("x", &["v"], call(1, vec![prim(Prim::Cons, vec![var(0), kint(1)])])),
            proc_("dup", &["w"], call(2, vec![var(0), var(0)])),
            proc_("use2", &["a", "b"], S0Tail::Return(prim(Prim::Cons, vec![var(0), var(1)]))),
        ]);
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
        let p = program(vec![
            proc_("main", &["x"], call(1, vec![var(0)])),
            proc_("a", &["y"], call(2, vec![prim(Prim::Cons, vec![var(0), kint(1)])])),
            proc_("b", &["z"], call(1, vec![prim(Prim::Cons, vec![var(0), kint(2)])])),
        ]);
        let before = p.size();
        let q = compress_transitions(p);
        assert!(q.size() <= before, "grew: {before} -> {}\n{q}", q.size());
        assert_wellformed(&q);
    }

    #[test]
    fn inline_once_sees_a_mutual_pair_turn_self_recursive() {
        // f and g call each other once.  f goes first (lower position);
        // inlining it makes g call itself, so g must then stay.
        let p = program(vec![
            proc_("main", &["x"], S0Tail::Return(var(0))),
            proc_(
                "f",
                &["a"],
                S0Tail::If(
                    prim(Prim::NullP, vec![var(0)]),
                    Box::new(S0Tail::Return(kint(1))),
                    Box::new(call(2, vec![var(0)])),
                ),
            ),
            proc_(
                "g",
                &["b"],
                S0Tail::If(
                    prim(Prim::PairP, vec![var(0)]),
                    Box::new(call(1, vec![var(0)])),
                    Box::new(S0Tail::Return(kint(2))),
                ),
            ),
        ]);
        let q = inline_once(p);
        let names: Vec<&str> = q.procs.iter().map(|q| q.name.as_str()).collect();
        assert_eq!(names, ["main", "g"], "{q}");
        assert_eq!(callees(&q, &q.procs[1]), ["g"], "{q}");
    }

    #[test]
    fn inline_once_rechecks_the_guard_after_the_caller_moves() {
        // c is inlined first (lower position); v's argument then turns
        // from the variable y into (car x), and v reads its parameter
        // twice, so v must stay.  Inlining v first would keep c instead.
        let p = program(vec![
            proc_("main", &["x"], call(1, vec![prim(Prim::Car, vec![var(0)])])),
            proc_("c", &["y"], call(2, vec![var(0)])),
            proc_("v", &["z"], S0Tail::Return(prim(Prim::Cons, vec![var(0), var(0)]))),
        ]);
        let q = inline_once(p);
        assert_eq!(q.procs.len(), 2, "{q}");
        assert_eq!(q.procs[0].body, call(1, vec![prim(Prim::Car, vec![var(0)])]), "{q}");
        assert_eq!(q.procs[1].name, "v");
    }

    #[test]
    fn inline_once_merges_chains() {
        // The paper's append-$1 scenario: a chain of once-called procs
        // collapses into the entry.
        let p = program(vec![
            proc_("append-$1", &["y"], call(1, vec![var(0)])),
            proc_(
                "sl-eval-$1",
                &["cv-vals-$1"],
                S0Tail::Return(prim(
                    Prim::Cons,
                    vec![S0Simple::Const(Constant::Sym("foo".into())), var(0)],
                )),
            ),
        ]);
        let p = postprocess(p);
        assert_eq!(p.procs.len(), 1);
        match &p.procs[0].body {
            S0Tail::Return(S0Simple::Prim(Prim::Cons, args)) => {
                assert_eq!(args[1], var(0));
            }
            other => panic!("expected inlined cons, got {other:?}"),
        }
        assert_eq!(p.to_source(), "(define (append-$1 y) (cons (quote foo) y))\n");
    }

    #[test]
    fn recursive_procs_are_not_inlined() {
        let p = program(vec![
            proc_("main", &["n"], call(1, vec![var(0)])),
            proc_(
                "loop",
                &["n"],
                S0Tail::If(
                    prim(Prim::ZeroP, vec![var(0)]),
                    Box::new(S0Tail::Return(kint(0))),
                    Box::new(call(1, vec![prim(Prim::Sub, vec![var(0), kint(1)])])),
                ),
            ),
        ]);
        let q = postprocess(p.clone());
        // merge_entry renames the loop to the public entry name; the
        // self-recursive loop itself must survive under either name.
        let survivor = q.proc("loop").or_else(|| q.proc("main")).expect("loop survives");
        assert_eq!(callees(&q, survivor), std::slice::from_ref(&survivor.name), "{q}");
        assert_wellformed(&q);
    }

    #[test]
    fn dead_params_are_dropped_when_safe() {
        let p2 = program(vec![
            proc_("main", &["x"], call(1, vec![kint(1), var(0)])),
            proc_("f", &["dead", "live"], S0Tail::Return(var(1))),
        ]);
        let q = prune(p2);
        let f = q.proc("f").unwrap();
        assert_eq!(f.params, vec!["live".to_string()]);
        assert_eq!(f.body, S0Tail::Return(var(0)), "the live slot moved down");
        assert_wellformed(&q);

        // The unsafe case: argument can fault, parameter must stay.
        let p3 = program(vec![
            proc_("main", &["x"], call(1, vec![prim(Prim::Car, vec![var(0)]), var(0)])),
            proc_("f", &["dead", "live"], S0Tail::Return(var(1))),
        ]);
        let q = prune(p3);
        assert_eq!(q.proc("f").unwrap().params.len(), 2, "faulting arg must stay");
    }

    #[test]
    fn postprocess_preserves_wellformedness() {
        let p = program(vec![
            proc_("e", &["a"], call(1, vec![var(0)])),
            proc_("t1", &["b"], call(2, vec![var(0), kint(9)])),
            proc_("t2", &["c", "d"], S0Tail::Return(prim(Prim::Cons, vec![var(0), var(1)]))),
        ]);
        let q = postprocess(p);
        assert_wellformed(&q);
        assert_eq!(q.procs.len(), 1, "everything inlined into the entry");
    }

    /// A constant circulating through a recursive loop: propagation
    /// substitutes it, liveness then kills the parameter, and the
    /// clean-up pass folds the exposed constants.
    #[test]
    fn optimize_combines_propagation_and_dead_params() {
        let p = program(vec![
            proc_("main", &["n"], call(1, vec![var(0), kint(7)])),
            proc_(
                "loop",
                &["n", "x"],
                S0Tail::If(
                    prim(Prim::ZeroP, vec![var(0)]),
                    Box::new(S0Tail::Return(var(1))),
                    Box::new(call(1, vec![prim(Prim::Sub, vec![var(0), kint(1)]), var(1)])),
                ),
            ),
        ]);
        let (q, stats) = optimize(p, &mut fuel()).unwrap();
        assert_eq!(stats.copies_propagated, 2, "{stats:?}");
        assert_eq!(stats.dead_bindings, 1, "{stats:?}");
        let lp = q.proc("loop").unwrap();
        assert_eq!(lp.params, vec!["n".to_string()]);
        assert_wellformed(&q);
    }

    #[test]
    fn optimize_respects_fuel() {
        let p = program(vec![proc_("main", &[], S0Tail::Return(kint(1)))]);
        let mut tiny = Fuel::new(&Limits { fuel: 1, ..Limits::default() });
        assert!(matches!(optimize(p, &mut tiny), Err(Trap::OutOfFuel { .. })));
    }
}
