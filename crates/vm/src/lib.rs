//! The S₀ virtual machine — an executable model of the hand-written C
//! translation of §5.1.
//!
//! The C back end turns the whole program into a single function:
//! procedures become labels, tail calls become assignments to global
//! parameter variables followed by `goto`, and closures are flat
//! vectors.  This crate implements exactly that execution model in Rust:
//! one dispatch loop, a register frame for the current procedure's
//! parameters, and index-based operands (S₀ already names procedures
//! by position and variables by parameter slot, so loading maps them
//! straight to blocks and frame slots) — so benchmark
//! numbers measured here transfer to the C code's behaviour, and the
//! instruction/allocation counters give deterministic, machine-
//! independent cost figures for the evaluation tables.
//!
//! ```
//! use pe_core::{compile, CompileOptions};
//! use pe_frontend::{desugar, parse_source};
//! use pe_interp::{Datum, Limits};
//! use pe_vm::Vm;
//!
//! let p = parse_source("(define (double x) (+ x x))").unwrap();
//! let s0 = compile(&desugar(&p).unwrap(), "double", &CompileOptions::default()).unwrap();
//! let vm = Vm::compile(&s0).unwrap();
//! let (result, stats) = vm.run(&[Datum::Int(21)], Limits::default()).unwrap();
//! assert_eq!(result, Datum::Int(42));
//! assert!(stats.steps >= 1);
//! ```

use pe_core::s0::{proc_name, var_name};
use pe_core::{S0Proc, S0Program, S0Simple, S0Tail};
use pe_frontend::ast::{Constant, Prim};
use pe_governor::Trap;
use pe_interp::value::{apply_prim, Value};
use pe_interp::{Datum, Fuel, InterpError, Limits};
use std::fmt;
use std::rc::Rc;

/// A flat runtime closure: label + captured values, the §5.1 vector
/// representation.
#[derive(Debug, Clone, PartialEq)]
pub struct VmClosure {
    /// The label stored by `make-closure`.
    pub label: u32,
    /// Captured values.
    pub freevals: Rc<[V]>,
}

type V = Value<VmClosure>;

/// Execution counters: deterministic cost figures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VmStats {
    /// Machine transitions (returns, branches, tail calls).
    pub steps: u64,
    /// Heap allocations (pairs and closures).
    pub allocs: u64,
    /// Tail calls (`goto`s in the C model).
    pub calls: u64,
}

/// An error while compiling S₀ to the register machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// A call targets an undefined procedure.
    UndefinedProc(String),
    /// A call has the wrong number of arguments.
    Arity { name: String, expected: usize, got: usize },
    /// A variable is not a parameter of its procedure.
    UnboundVar { proc_name: String, var: String },
    /// The entry procedure is missing.
    NoEntry(String),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::UndefinedProc(p) => write!(f, "vm: call to undefined procedure {p}"),
            VmError::Arity { name, expected, got } => {
                write!(f, "vm: {name} expects {expected} argument(s), got {got}")
            }
            VmError::UnboundVar { proc_name, var } => {
                write!(f, "vm: unbound variable {var} in {proc_name}")
            }
            VmError::NoEntry(e) => write!(f, "vm: entry {e} not defined"),
        }
    }
}

impl std::error::Error for VmError {}

/// A resolved simple expression: variables are frame-slot indices.
#[derive(Debug, Clone)]
enum RSimple {
    Slot(usize),
    /// Index into the [`Vm`]'s constant table.  Constants are stored as
    /// [`Constant`] (which is `Send`, so the compiled `Vm` can cross
    /// threads) and materialized into runtime values once per run — the
    /// dispatch loop then clones them shallowly from the run's pool.
    Const(u32),
    Prim(Prim, Vec<RSimple>),
    MakeClosure(u32, Vec<RSimple>),
    ClosureLabel(Box<RSimple>),
    ClosureFreeval(Box<RSimple>, usize),
}

/// A resolved tail expression: calls are block indices.
#[derive(Debug, Clone)]
enum RTail {
    Return(RSimple),
    If(RSimple, Box<RTail>, Box<RTail>),
    Goto(usize, Vec<RSimple>),
    Fail(String),
}

#[derive(Debug)]
struct Block {
    arity: usize,
    body: RTail,
}

/// A compiled S₀ program, ready to run.
#[derive(Debug)]
pub struct Vm {
    blocks: Vec<Block>,
    /// Block names, parallel to `blocks` — kept for trap diagnostics.
    names: Vec<String>,
    /// The constant table `RSimple::Const` indexes into.
    consts: Vec<Constant>,
    entry: usize,
    entry_name: String,
}

impl Vm {
    /// Maps procedure ids to blocks and variable slots to frame slots,
    /// checking that each is in range and that every call has its
    /// target's arity.
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] naming the first violation.
    pub fn compile(p: &S0Program) -> Result<Vm, VmError> {
        let entry = p.entry.index();
        let entry_name = match p.procs.get(entry) {
            Some(q) => q.name.clone(),
            None => return Err(VmError::NoEntry(proc_name(&p.procs, p.entry).into_owned())),
        };
        let mut blocks = Vec::with_capacity(p.procs.len());
        let mut consts = Vec::new();
        for q in &p.procs {
            let body = resolve_tail(&q.body, q, &p.procs, &mut consts)?;
            blocks.push(Block { arity: q.params.len(), body });
        }
        let names = p.procs.iter().map(|q| q.name.clone()).collect();
        Ok(Vm { blocks, names, consts, entry, entry_name })
    }

    /// The number of compiled blocks (procedures).
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// The name of the block at `pc`, as reported in traps.
    pub fn block_name(&self, pc: usize) -> Option<&str> {
        self.names.get(pc).map(String::as_str)
    }

    /// Runs the program on first-order inputs, returning the result and
    /// the execution counters.
    ///
    /// # Errors
    ///
    /// Returns an [`InterpError`] on dynamic faults, `%fail`, exhausted
    /// budgets ([`Limits::fuel`], [`Limits::max_heap`]) or a
    /// closure-valued result.  Machine-invariant violations surface as
    /// [`Trap::UnboundLabel`] / [`Trap::BadDispatch`] carrying the
    /// program counter (block index) — never as a panic.
    pub fn run(&self, args: &[Datum], limits: Limits) -> Result<(Datum, VmStats), InterpError> {
        self.run_with(args, limits, &mut pe_trace::NullSink)
    }

    /// Like [`Vm::run`], under a `vm-run` span on `sink` with the
    /// execution counters flushed at the end — and the governor meter
    /// snapshot when the machine traps, so the trap carries its
    /// metrics.
    ///
    /// # Errors
    ///
    /// As [`Vm::run`].
    pub fn run_with(
        &self,
        args: &[Datum],
        limits: Limits,
        sink: &mut dyn pe_trace::Sink,
    ) -> Result<(Datum, VmStats), InterpError> {
        self.run_reported(args, limits, &mut NoProfile, sink)
    }

    /// [`Vm::run_with`] with the hot-label profiler switched on: the
    /// run additionally counts block entries and dispatch-arm takes
    /// per label and emits per-label `Event::Attr` rows under
    /// `vm-run`, with the run's measured execution time spread across
    /// labels by entry share.  The normal [`Vm::run_with`] path is
    /// monomorphized over a no-op profiler, so it pays nothing for
    /// this — profiling is opt-in per run, not a VM mode.
    ///
    /// # Errors
    ///
    /// As [`Vm::run`].
    pub fn run_profiled_with(
        &self,
        args: &[Datum],
        limits: Limits,
        sink: &mut dyn pe_trace::Sink,
    ) -> Result<(Datum, VmStats, VmProfile), InterpError> {
        let mut profile = VmProfile::sized(self.blocks.len());
        let (v, stats) = self.run_reported(args, limits, &mut profile, sink)?;
        Ok((v, stats, profile))
    }

    /// One run as every entry point reports it: `exec` under a `vm-run`
    /// span, then the three execution counters, the governor meter
    /// snapshot when the machine trapped, and the profiler's own rows,
    /// all skipped (clock reads included) when `sink` is disabled.
    fn run_reported<P: Profiler>(
        &self,
        args: &[Datum],
        limits: Limits,
        prof: &mut P,
        sink: &mut dyn pe_trace::Sink,
    ) -> Result<(Datum, VmStats), InterpError> {
        let t = pe_trace::begin(sink, pe_trace::Phase::VmRun);
        let mut stats = VmStats::default();
        let mut fuel = Fuel::new(&limits);
        let t0 = sink.enabled().then(std::time::Instant::now);
        let result = self.exec(args, &mut stats, &mut fuel, prof);
        if let Some(t0) = t0 {
            use pe_trace::Counter;
            let exec_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            sink.counter(Counter::VmSteps, stats.steps);
            sink.counter(Counter::VmAllocs, stats.allocs);
            sink.counter(Counter::VmCalls, stats.calls);
            if result.is_err() {
                let snap = fuel.snapshot();
                pe_trace::trap_gauges(sink, snap.steps, snap.cells, snap.peak_depth as u64);
            }
            prof.report(self, exec_ns, sink);
        }
        pe_trace::end(sink, t);
        result.map(|v| (v, stats))
    }

    fn exec<P: Profiler>(
        &self,
        args: &[Datum],
        stats: &mut VmStats,
        fuel: &mut Fuel,
        prof: &mut P,
    ) -> Result<Datum, InterpError> {
        let mut pc = self.entry;
        let entry = self.blocks.get(pc).ok_or_else(|| {
            InterpError::Trap(Trap::UnboundLabel { label: self.entry_name.clone(), pc })
        })?;
        if entry.arity != args.len() {
            return Err(InterpError::EntryArity {
                name: self.entry_name.clone(),
                expected: entry.arity,
                got: args.len(),
            });
        }
        // Materialize the constant pool for this run: one deep
        // conversion per constant, then every `RSimple::Const` in the
        // loop below is a shallow clone.
        let pool: Vec<V> = self.consts.iter().map(Value::from_constant).collect();
        // The "global parameter variables" of the C translation.
        let mut frame: Vec<V> = args.iter().map(Datum::embed).collect();
        let mut body = &entry.body;
        prof.enter(pc);
        // The machine is a flat goto loop: fuel and the heap budget
        // apply; `max_call_depth` does not (the host stack never grows).
        loop {
            fuel.step()?;
            stats.steps += 1;
            match body {
                RTail::Return(s) => {
                    let v = eval(s, &frame, &pool, pc, stats, fuel)?;
                    return v.to_datum().ok_or(InterpError::ResultNotFirstOrder);
                }
                RTail::If(c, t, e) => {
                    let taken = eval(c, &frame, &pool, pc, stats, fuel)?.is_truthy();
                    prof.branch(pc, taken);
                    body = if taken { t } else { e };
                }
                RTail::Goto(target, args) => {
                    stats.calls += 1;
                    // Arguments are simple expressions over the *current*
                    // frame; evaluate them all, then switch frames — the
                    // C translation's assign-then-goto discipline.
                    let mut next = Vec::with_capacity(args.len());
                    for a in args {
                        next.push(eval(a, &frame, &pool, pc, stats, fuel)?);
                    }
                    let block = self.blocks.get(*target).ok_or_else(|| {
                        InterpError::Trap(Trap::UnboundLabel {
                            label: format!("block {target}"),
                            pc,
                        })
                    })?;
                    frame = next;
                    body = &block.body;
                    pc = *target;
                    prof.enter(pc);
                }
                RTail::Fail(m) => return Err(InterpError::NotAProcedure(m.clone())),
            }
        }
    }
}

/// The execution loop's profiling hook.  [`NoProfile`] monomorphizes
/// to nothing (the default path); [`VmProfile`] counts label entries
/// and dispatch arms for the hot-path ranking a native tier needs.
trait Profiler {
    fn enter(&mut self, pc: usize);
    fn branch(&mut self, pc: usize, taken: bool);
    fn report(&self, _vm: &Vm, _exec_ns: u64, _sink: &mut dyn pe_trace::Sink) {}
}

/// The zero-cost profiler: every hook is an empty inline body.
struct NoProfile;

impl Profiler for NoProfile {
    #[inline(always)]
    fn enter(&mut self, _pc: usize) {}

    #[inline(always)]
    fn branch(&mut self, _pc: usize, _taken: bool) {}
}

/// Per-label execution counts from one profiled run
/// ([`Vm::run_profiled_with`]).  Indexes parallel the VM's block
/// table; translate with [`Vm::block_name`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VmProfile {
    /// Times each block was entered (the entry block counts its
    /// initial activation).
    pub entries: Vec<u64>,
    /// Conditional dispatches per block: `(true-arm, false-arm)`
    /// takes, summed over every `if` the block executed.
    pub branches: Vec<(u64, u64)>,
}

impl VmProfile {
    fn sized(blocks: usize) -> VmProfile {
        VmProfile { entries: vec![0; blocks], branches: vec![(0, 0); blocks] }
    }

    /// Block indices ranked by entry count (descending, index as the
    /// deterministic tiebreak), hottest first, zero-entry blocks
    /// omitted.
    #[must_use]
    pub fn hottest(&self) -> Vec<usize> {
        let mut idx: Vec<usize> =
            (0..self.entries.len()).filter(|&i| self.entries[i] > 0).collect();
        idx.sort_by(|&a, &b| {
            self.entries[b].cmp(&self.entries[a]).then(a.cmp(&b))
        });
        idx
    }

    /// Total block entries across the run.
    #[must_use]
    pub fn total_entries(&self) -> u64 {
        self.entries.iter().sum()
    }
}

impl Profiler for VmProfile {
    #[inline]
    fn enter(&mut self, pc: usize) {
        if let Some(n) = self.entries.get_mut(pc) {
            *n += 1;
        }
    }

    #[inline]
    fn branch(&mut self, pc: usize, taken: bool) {
        if let Some((t, f)) = self.branches.get_mut(pc) {
            if taken {
                *t += 1;
            } else {
                *f += 1;
            }
        }
    }

    /// One `Event::Attr` per entered label under `vm-run`, with the
    /// run's execution time spread across labels by entry share.
    fn report(&self, vm: &Vm, exec_ns: u64, sink: &mut dyn pe_trace::Sink) {
        let parts = pe_prof::distribute_ns(exec_ns, &self.entries);
        for (pc, (&entries, ns)) in self.entries.iter().zip(parts).enumerate() {
            if entries > 0 {
                let name = vm.block_name(pc).unwrap_or("<unknown>");
                sink.attr(pe_trace::Phase::VmRun, name, ns, entries);
            }
        }
    }
}

fn eval(
    s: &RSimple,
    frame: &[V],
    pool: &[V],
    pc: usize,
    stats: &mut VmStats,
    fuel: &mut Fuel,
) -> Result<V, InterpError> {
    match s {
        RSimple::Slot(i) => frame.get(*i).cloned().ok_or_else(|| {
            InterpError::Trap(Trap::BadDispatch {
                pc,
                detail: format!("frame slot {i} out of range ({} slots)", frame.len()),
            })
        }),
        RSimple::Const(i) => pool.get(*i as usize).cloned().ok_or_else(|| {
            InterpError::Trap(Trap::BadDispatch {
                pc,
                detail: format!("constant {i} out of range ({} constants)", pool.len()),
            })
        }),
        RSimple::Prim(op, args) => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval(a, frame, pool, pc, stats, fuel)?);
            }
            if *op == Prim::Cons {
                stats.allocs += 1;
                fuel.alloc(1)?;
            }
            Ok(apply_prim(*op, &vals)?)
        }
        RSimple::MakeClosure(label, args) => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval(a, frame, pool, pc, stats, fuel)?);
            }
            stats.allocs += 1;
            fuel.alloc(1)?;
            Ok(Value::Closure(VmClosure { label: *label, freevals: vals.into() }))
        }
        RSimple::ClosureLabel(a) => match eval(a, frame, pool, pc, stats, fuel)? {
            Value::Closure(c) => Ok(Value::Int(i64::from(c.label))),
            v => Err(InterpError::Trap(Trap::BadDispatch {
                pc,
                detail: format!("closure-label of non-closure {v}"),
            })),
        },
        RSimple::ClosureFreeval(a, i) => match eval(a, frame, pool, pc, stats, fuel)? {
            Value::Closure(c) => c.freevals.get(*i).cloned().ok_or_else(|| {
                InterpError::Trap(Trap::BadDispatch {
                    pc,
                    detail: format!(
                        "closure-freeval {i} out of range ({} captured)",
                        c.freevals.len()
                    ),
                })
            }),
            v => Err(InterpError::Trap(Trap::BadDispatch {
                pc,
                detail: format!("closure-freeval of non-closure {v}"),
            })),
        },
    }
}

fn resolve_simple(
    s: &S0Simple,
    owner: &S0Proc,
    consts: &mut Vec<Constant>,
) -> Result<RSimple, VmError> {
    let all = |args: &[S0Simple], consts: &mut Vec<Constant>| {
        args.iter().map(|a| resolve_simple(a, owner, consts)).collect::<Result<_, _>>()
    };
    Ok(match s {
        S0Simple::Var(v) if (*v as usize) < owner.params.len() => RSimple::Slot(*v as usize),
        S0Simple::Var(v) => {
            return Err(VmError::UnboundVar {
                proc_name: owner.name.clone(),
                var: var_name(&owner.params, *v).into_owned(),
            })
        }
        S0Simple::Const(k) => {
            let i = u32::try_from(consts.len()).unwrap_or(u32::MAX);
            consts.push(k.clone());
            RSimple::Const(i)
        }
        S0Simple::Prim(op, args) => RSimple::Prim(*op, all(args, consts)?),
        S0Simple::MakeClosure(l, args) => RSimple::MakeClosure(*l, all(args, consts)?),
        S0Simple::ClosureLabel(a) => {
            RSimple::ClosureLabel(Box::new(resolve_simple(a, owner, consts)?))
        }
        S0Simple::ClosureFreeval(a, i) => {
            RSimple::ClosureFreeval(Box::new(resolve_simple(a, owner, consts)?), *i)
        }
    })
}

fn resolve_tail(
    t: &S0Tail,
    owner: &S0Proc,
    procs: &[S0Proc],
    consts: &mut Vec<Constant>,
) -> Result<RTail, VmError> {
    Ok(match t {
        S0Tail::Return(s) => RTail::Return(resolve_simple(s, owner, consts)?),
        S0Tail::If(c, a, b) => RTail::If(
            resolve_simple(c, owner, consts)?,
            Box::new(resolve_tail(a, owner, procs, consts)?),
            Box::new(resolve_tail(b, owner, procs, consts)?),
        ),
        S0Tail::TailCall(callee, args) => {
            let target = procs
                .get(callee.index())
                .ok_or_else(|| VmError::UndefinedProc(proc_name(procs, *callee).into_owned()))?;
            if target.params.len() != args.len() {
                return Err(VmError::Arity {
                    name: target.name.clone(),
                    expected: target.params.len(),
                    got: args.len(),
                });
            }
            RTail::Goto(
                callee.index(),
                args.iter()
                    .map(|a| resolve_simple(a, owner, consts))
                    .collect::<Result<_, _>>()?,
            )
        }
        S0Tail::Fail(m) => RTail::Fail(m.clone()),
    })
}

/// An error from [`run_s0`], keeping the two failure phases apart: a
/// program that does not compile is not the same fault as a compiled
/// program that traps at run time, and callers can now match on which.
#[derive(Debug, Clone, PartialEq)]
pub enum S0RunError {
    /// The S₀ program failed to compile to the register machine.
    Compile(VmError),
    /// The compiled program faulted while running.
    Run(InterpError),
}

impl fmt::Display for S0RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            S0RunError::Compile(e) => write!(f, "compile: {e}"),
            S0RunError::Run(e) => write!(f, "run: {e}"),
        }
    }
}

impl std::error::Error for S0RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            S0RunError::Compile(e) => Some(e),
            S0RunError::Run(e) => Some(e),
        }
    }
}

impl From<VmError> for S0RunError {
    fn from(e: VmError) -> S0RunError {
        S0RunError::Compile(e)
    }
}

impl From<InterpError> for S0RunError {
    fn from(e: InterpError) -> S0RunError {
        S0RunError::Run(e)
    }
}

/// Compiles and runs in one call (convenience for tests and benches).
///
/// # Errors
///
/// [`S0RunError::Compile`] wraps the precise [`VmError`] when the
/// program is ill-formed; [`S0RunError::Run`] wraps the [`InterpError`]
/// from execution.
pub fn run_s0(
    p: &S0Program,
    args: &[Datum],
    limits: Limits,
) -> Result<(Datum, VmStats), S0RunError> {
    let vm = Vm::compile(p)?;
    Ok(vm.run(args, limits)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_core::{compile, specialize, CompileOptions, GenStrategy};
    use pe_frontend::{desugar, parse_source};

    type R = Result<(), Box<dyn std::error::Error>>;

    fn compile_to_vm(src: &str, entry: &str) -> Result<Vm, Box<dyn std::error::Error>> {
        let p = parse_source(src)?;
        let d = desugar(&p)?;
        let s0 = compile(&d, entry, &CompileOptions::default())?;
        Ok(Vm::compile(&s0)?)
    }

    #[test]
    fn vm_matches_interpreters_on_cps_append() -> R {
        let src = "(define (append x y) (cps-append x y (lambda (v) v)))
                   (define (cps-append x y c)
                     (if (null? x) (c y)
                         (cps-append (cdr x) y (lambda (xy) (c (cons (car x) xy))))))";
        let vm = compile_to_vm(src, "append")?;
        let (r, stats) =
            vm.run(&[Datum::parse("(a b)")?, Datum::parse("(c)")?], Limits::default())?;
        assert_eq!(r.to_string(), "(a b c)");
        assert!(stats.allocs >= 3, "conses + continuation closures: {stats:?}");
        Ok(())
    }

    #[test]
    fn profiled_run_matches_plain_run_and_counts_deterministically() -> R {
        let src = "(define (count n) (if (zero? n) 0 (count (- n 1))))";
        let vm = compile_to_vm(src, "count")?;
        let (plain, pstats) = vm.run(&[Datum::Int(25)], Limits::default())?;
        let mut sink = pe_trace::CollectingSink::new();
        let (profiled, stats, profile) =
            vm.run_profiled_with(&[Datum::Int(25)], Limits::default(), &mut sink)?;
        assert_eq!(plain, profiled);
        assert_eq!(pstats, stats, "profiling must not perturb the machine");
        // The loop block was entered once per count, and the branch
        // split 25 continues / 1 exit (arm polarity aside).
        assert!(profile.total_entries() >= 26, "{profile:?}");
        let hot = profile.hottest();
        assert!(!hot.is_empty());
        assert_eq!(profile.entries[hot[0]], *profile.entries.iter().max().unwrap());
        let branches: u64 = profile
            .branches
            .iter()
            .map(|&(t, f)| t + f)
            .sum();
        assert_eq!(branches, 26, "{profile:?}");
        // Per-label attribution rows landed under vm-run and sum to
        // the phase span.
        assert!(sink.attr_ns(pe_trace::Phase::VmRun) <= sink.phase_ns(pe_trace::Phase::VmRun));
        let (again, _, profile2) =
            vm.run_profiled_with(&[Datum::Int(25)], Limits::default(), &mut pe_trace::NullSink)?;
        assert_eq!(again, plain);
        assert_eq!(profile, profile2, "profiles are deterministic");
        Ok(())
    }

    #[test]
    fn vm_runs_tak() -> R {
        let src = "(define (tak x y z)
                     (if (not (< y x)) z
                         (tak (tak (- x 1) y z) (tak (- y 1) z x) (tak (- z 1) x y))))";
        let vm = compile_to_vm(src, "tak")?;
        let (r, stats) =
            vm.run(&[Datum::Int(14), Datum::Int(7), Datum::Int(3)], Limits::default())?;
        assert_eq!(r, Datum::Int(7));
        // tak's contexts are heap-allocated closures in our model — the
        // §8 observation that Hobbit's native stack wins on this code.
        assert!(stats.allocs > 1000, "{stats:?}");
        Ok(())
    }

    #[test]
    fn counters_are_deterministic() -> R {
        let src = "(define (loop n) (if (zero? n) 0 (loop (- n 1))))";
        let vm = compile_to_vm(src, "loop")?;
        let (_, s1) = vm.run(&[Datum::Int(1000)], Limits::default())?;
        let (_, s2) = vm.run(&[Datum::Int(1000)], Limits::default())?;
        assert_eq!(s1, s2);
        assert!(s1.calls >= 1000);
        assert_eq!(s1.allocs, 0, "a first-order tail loop allocates nothing");
        Ok(())
    }

    #[test]
    fn specialized_code_is_cheaper() -> R {
        // The interpretive-overhead claim in miniature: append
        // specialized to its first argument does fewer steps than the
        // general compiled version.
        let src = "(define (append x y) (cps-append x y (lambda (v) v)))
                   (define (cps-append x y c)
                     (if (null? x) (c y)
                         (cps-append (cdr x) y (lambda (xy) (c (cons (car x) xy))))))";
        let p = parse_source(src)?;
        let d = desugar(&p)?;
        let opts = CompileOptions { strategy: GenStrategy::Online, ..CompileOptions::default() };
        let gen_p = compile(&d, "append", &opts)?;
        let spec_p = specialize(&d, "append", &[Some(Datum::parse("(a b c d)")?), None], &opts)?;
        let y = Datum::parse("(e f)")?;
        let x = Datum::parse("(a b c d)")?;
        let (r1, s1) = run_s0(&gen_p, &[x, y.clone()], Limits::default())?;
        let (r2, s2) = run_s0(&spec_p, &[y], Limits::default())?;
        assert_eq!(r1, r2);
        assert!(
            s2.steps < s1.steps,
            "specialized {s2:?} must beat general {s1:?}"
        );
        Ok(())
    }

    #[test]
    fn vm_compile_rejects_bad_programs() {
        use pe_core::{ProcId, S0Proc};
        let main = |body| S0Program {
            entry: ProcId(0),
            procs: vec![S0Proc { name: "main".into(), params: vec![], body }],
        };
        let bad = main(S0Tail::TailCall(ProcId(1), vec![]));
        assert_eq!(Vm::compile(&bad).unwrap_err(), VmError::UndefinedProc("%proc-1".into()));
        let bad = main(S0Tail::TailCall(ProcId(0), vec![S0Simple::Const(Constant::Nil)]));
        assert_eq!(
            Vm::compile(&bad).unwrap_err(),
            VmError::Arity { name: "main".into(), expected: 0, got: 1 }
        );
        let bad = main(S0Tail::Return(S0Simple::Var(0)));
        assert_eq!(
            Vm::compile(&bad).unwrap_err(),
            VmError::UnboundVar { proc_name: "main".into(), var: "%slot-0".into() }
        );
        let bad = S0Program { entry: ProcId(0), procs: vec![] };
        assert_eq!(Vm::compile(&bad).unwrap_err(), VmError::NoEntry("%proc-0".into()));
    }

    #[test]
    fn run_s0_separates_compile_and_run_errors() {
        use pe_core::{ProcId, S0Proc};
        let bad = S0Program { entry: ProcId(0), procs: vec![] };
        assert!(matches!(
            run_s0(&bad, &[], Limits::default()),
            Err(S0RunError::Compile(VmError::NoEntry(_)))
        ));
        let diverge = S0Program {
            entry: ProcId(0),
            procs: vec![S0Proc {
                name: "f".into(),
                params: vec![],
                body: S0Tail::TailCall(ProcId(0), vec![]),
            }],
        };
        let lim = Limits { fuel: 100, ..Limits::default() };
        assert_eq!(
            run_s0(&diverge, &[], lim),
            Err(S0RunError::Run(InterpError::FuelExhausted))
        );
    }

    #[test]
    fn deep_tail_recursion_is_flat() -> R {
        let vm = compile_to_vm("(define (loop n) (if (zero? n) 'ok (loop (- n 1))))", "loop")?;
        let (r, _) = vm.run(&[Datum::Int(3_000_000)], Limits::default())?;
        assert_eq!(r, Datum::Sym("ok".into()));
        Ok(())
    }

    #[test]
    fn fuel_and_heap_budgets_trap() -> R {
        // A divergent loop traps on fuel … (dynamically guarded, so the
        // size-change analysis lets it through to run time)
        let vm = compile_to_vm("(define (f n) (if (zero? n) (f 1) (f 2)))", "f")?;
        let lim = Limits { fuel: 100, ..Limits::default() };
        assert_eq!(vm.run(&[Datum::Int(0)], lim), Err(InterpError::FuelExhausted));
        // … and a cons-builder traps on the heap budget first.  The
        // accumulator is tested so the flow optimizer cannot delete the
        // (otherwise unobserved) allocation.
        let vm = compile_to_vm("(define (g x) (if (pair? x) (g (cons x x)) (g (cons x x))))", "g")?;
        let lim = Limits { max_heap: 50, ..Limits::default() };
        assert_eq!(
            vm.run(&[Datum::Int(0)], lim),
            Err(InterpError::Trap(Trap::Heap { limit: 50 }))
        );
        Ok(())
    }

    #[test]
    fn closure_misuse_is_a_dispatch_trap() -> R {
        use pe_core::{ProcId, S0Proc};
        // closure-freeval on an int: compiles (S₀ is untyped) but must
        // trap with a pc, not panic.
        let p = S0Program {
            entry: ProcId(0),
            procs: vec![S0Proc {
                name: "main".into(),
                params: vec!["x".into()],
                body: S0Tail::Return(S0Simple::ClosureFreeval(
                    Box::new(S0Simple::Var(0)),
                    0,
                )),
            }],
        };
        let vm = Vm::compile(&p)?;
        let r = vm.run(&[Datum::Int(7)], Limits::default());
        assert!(
            matches!(r, Err(InterpError::Trap(Trap::BadDispatch { pc: 0, .. }))),
            "got {r:?}"
        );
        assert_eq!(vm.block_name(0), Some("main"));
        Ok(())
    }
}
