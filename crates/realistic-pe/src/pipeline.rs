//! The end-to-end compilation pipeline, tying every crate together:
//!
//! ```text
//! source ──parse──▶ surface AST ──desugar──▶ tail form (Fig. 5)
//!    ──specializing compiler (Fig. 7)──▶ S₀ ──▶ VM / C back end
//! ```
//!
//! plus the two §6 comparators: the interpreter family and the
//! Hobbit-like baseline.

use pe_core::{CompileOptions, S0Program, SpecError};
use pe_frontend::{desugar, parse_program_positioned, DProgram, ParseError, Program};
use pe_hobbit::Hobbit;
use pe_interp::{Datum, InterpError, Limits};
use pe_trace::{Aggregator, Counter, NullSink, Phase, Sink};
use pe_vm::{Vm, VmStats};
use std::fmt;

/// Any error the pipeline can produce.
#[derive(Debug)]
pub enum PipelineError {
    /// Reading/parsing/validation failed.
    Parse(ParseError),
    /// Desugaring failed (programmatic ASTs only).
    Desugar(pe_frontend::DesugarError),
    /// Specialization failed.
    Spec(SpecError),
    /// The compiled program did not pass the S₀ well-formedness check.
    IllFormed(Vec<String>),
    /// Baseline compilation failed.
    Hobbit(pe_hobbit::HobError),
    /// VM compilation failed.
    Vm(pe_vm::VmError),
    /// Execution failed.
    Run(InterpError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Parse(e) => write!(f, "{e}"),
            PipelineError::Desugar(e) => write!(f, "{e}"),
            PipelineError::Spec(e) => write!(f, "{e}"),
            PipelineError::IllFormed(errs) => {
                write!(f, "ill-formed residual program: {}", errs.join("; "))
            }
            PipelineError::Hobbit(e) => write!(f, "{e}"),
            PipelineError::Vm(e) => write!(f, "{e}"),
            PipelineError::Run(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<ParseError> for PipelineError {
    fn from(e: ParseError) -> Self {
        PipelineError::Parse(e)
    }
}

impl From<SpecError> for PipelineError {
    fn from(e: SpecError) -> Self {
        PipelineError::Spec(e)
    }
}

impl From<InterpError> for PipelineError {
    fn from(e: InterpError) -> Self {
        PipelineError::Run(e)
    }
}

/// The outcome of [`Pipeline::compile_robust`]: either a loaded VM or a
/// marker that specialization was cut off by its resource budget and
/// the program should run interpreted instead.
#[derive(Debug)]
pub enum RobustExec {
    /// Specialization finished within budget; run compiled.
    Compiled(Box<Vm>),
    /// Specialization exhausted its budget or the termination analysis
    /// refused the program; run the tail interpreter (its fuel bounds a
    /// genuinely divergent run).
    Degraded {
        /// The error that stopped specialization.
        reason: SpecError,
    },
}

impl RobustExec {
    /// True when this outcome is the degraded (interpreted) fallback.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        matches!(self, RobustExec::Degraded { .. })
    }
}

/// Everything a traced compilation produced: the residual program, the
/// verification report, and the aggregated observability data.
///
/// Returned by [`Pipeline::compile_traced`] and
/// [`Pipeline::compile_vm_traced`].  Phase durations appear in the
/// order the phases finished; counters in the order first emitted.
#[derive(Debug)]
pub struct CompileReport {
    /// The compiled (and verified) residual S₀ program.
    pub s0: S0Program,
    /// The full verification report, warnings included.
    pub verify: pe_verify::Report,
    /// Wall-clock nanoseconds per pipeline phase.
    pub phases: Vec<(Phase, u64)>,
    /// Summed specializer/size counters.
    pub counters: Vec<(Counter, u64)>,
}

impl CompileReport {
    /// Total nanoseconds across all recorded phases.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.phases.iter().map(|&(_, ns)| ns).sum()
    }

    /// The summed value of `counter`, zero if never emitted.
    #[must_use]
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters.iter().find(|&&(c, _)| c == counter).map_or(0, |&(_, n)| n)
    }
}

/// A parsed and desugared program, ready for any engine.
pub struct Pipeline {
    /// The surface program (Fig. 2).
    pub program: Program,
    /// The desugared tail form (Fig. 5).
    pub dprog: DProgram,
}

impl Pipeline {
    /// Parses and desugars source text.
    ///
    /// # Errors
    ///
    /// See [`PipelineError`].
    pub fn new(source: &str) -> Result<Pipeline, PipelineError> {
        Pipeline::new_traced(source, &mut NullSink)
    }

    /// Like [`Pipeline::new`], emitting `read`, `parse`, and `desugar`
    /// phase spans to `sink`.
    ///
    /// # Errors
    ///
    /// See [`PipelineError`].
    pub fn new_traced(source: &str, sink: &mut dyn Sink) -> Result<Pipeline, PipelineError> {
        let t = pe_trace::begin(sink, Phase::Read);
        let forms = pe_sexpr::read_positioned(source);
        pe_trace::end(sink, t);
        let forms = forms.map_err(|e| PipelineError::Parse(ParseError::Read(e)))?;
        let (exprs, poss): (Vec<pe_sexpr::Sexpr>, Vec<pe_sexpr::Pos>) =
            forms.into_iter().unzip();
        let t = pe_trace::begin(sink, Phase::Parse);
        let program = parse_program_positioned(&exprs, &poss);
        pe_trace::end(sink, t);
        let program = program?;
        let t = pe_trace::begin(sink, Phase::Desugar);
        let dprog = desugar(&program).map_err(PipelineError::Desugar);
        pe_trace::end(sink, t);
        Ok(Pipeline { program, dprog: dprog? })
    }

    /// Compiles `entry` to S₀ and verifies it with every
    /// [`pe_verify`] pass: well-formedness, closure-shape analysis, the
    /// language-preservation certificate, and the residual-quality
    /// lints.  Error-severity findings abort compilation; warnings are
    /// available via [`Pipeline::verify`].
    ///
    /// # Errors
    ///
    /// See [`PipelineError`].
    pub fn compile(&self, entry: &str, opts: &CompileOptions) -> Result<S0Program, PipelineError> {
        self.compile_verified(entry, opts, &mut NullSink).map(|(s0, _)| s0)
    }

    /// Compiles and verifies, returning the report beside the program so
    /// callers that need both never run the verifier a second time.
    /// Phase spans and specializer counters go to `sink`.
    fn compile_verified(
        &self,
        entry: &str,
        opts: &CompileOptions,
        sink: &mut dyn Sink,
    ) -> Result<(S0Program, pe_verify::Report), PipelineError> {
        let (s0, audit) = pe_core::compile_audited_with(&self.dprog, entry, opts, sink)?;
        let report = verified(&s0, &audit, sink)?;
        Ok((s0, report))
    }

    /// Compiles and verifies `entry` under an [`Aggregator`], returning
    /// the program, the verification report, and the aggregated
    /// phase/counter data as a [`CompileReport`].  Spans and counters
    /// also stream to `sink` as they happen.
    ///
    /// # Errors
    ///
    /// See [`PipelineError`].
    pub fn compile_traced(
        &self,
        entry: &str,
        opts: &CompileOptions,
        sink: &mut dyn Sink,
    ) -> Result<CompileReport, PipelineError> {
        let mut agg = Aggregator::new(sink);
        let (s0, verify) = self.compile_verified(entry, opts, &mut agg)?;
        let (phases, counters, _) = agg.into_parts();
        Ok(CompileReport { s0, verify, phases, counters })
    }

    /// [`Pipeline::compile`] with warm-start, tracing to `sink`: the
    /// specializer is seeded from a [`pe_core::MemoSnapshot`] captured
    /// by an earlier compile of the *same* program with the same
    /// options (`None` compiles cold), and the run returns a fresh
    /// snapshot beside the program.  Verification runs in full either
    /// way — a warm result is held to exactly the same seven passes as
    /// a cold one.
    ///
    /// Callers own snapshot validity: pe-serve keys snapshots by the
    /// content fingerprint of (canonical source, options), which is the
    /// only sound cache key.
    ///
    /// # Errors
    ///
    /// See [`PipelineError`].
    pub fn compile_warm(
        &self,
        entry: &str,
        opts: &CompileOptions,
        warm: Option<&pe_core::MemoSnapshot>,
        sink: &mut dyn Sink,
    ) -> Result<(S0Program, pe_core::MemoSnapshot), PipelineError> {
        let (s0, audit, snap) =
            pe_core::compile_warm_audited_with(&self.dprog, entry, opts, warm, sink)?;
        verified(&s0, &audit, sink)?;
        Ok((s0, snap))
    }

    /// Compiles `entry` to S₀ and returns the full verification report,
    /// warnings included.
    ///
    /// # Errors
    ///
    /// See [`PipelineError`] (verification findings are *returned*, not
    /// treated as errors).
    pub fn verify(
        &self,
        entry: &str,
        opts: &CompileOptions,
    ) -> Result<pe_verify::Report, PipelineError> {
        let (s0, audit) =
            pe_core::compile_audited_with(&self.dprog, entry, opts, &mut NullSink)?;
        let mut report = pe_verify::verify(&s0);
        report.merge(pe_verify::verify_audit(&audit));
        Ok(report)
    }

    /// Compiles `entry` to S₀ and loads it into the VM.
    ///
    /// # Errors
    ///
    /// See [`PipelineError`].
    pub fn compile_vm(&self, entry: &str, opts: &CompileOptions) -> Result<Vm, PipelineError> {
        self.load_vm(entry, opts, &mut NullSink).map(|(vm, _, _)| vm)
    }

    /// [`Pipeline::compile_vm`] under an [`Aggregator`]: the report
    /// additionally covers the `vm-load` phase.
    ///
    /// # Errors
    ///
    /// See [`PipelineError`].
    pub fn compile_vm_traced(
        &self,
        entry: &str,
        opts: &CompileOptions,
        sink: &mut dyn Sink,
    ) -> Result<(Vm, CompileReport), PipelineError> {
        let mut agg = Aggregator::new(sink);
        let (vm, s0, verify) = self.load_vm(entry, opts, &mut agg)?;
        let (phases, counters, _) = agg.into_parts();
        Ok((vm, CompileReport { s0, verify, phases, counters }))
    }

    /// Compiles and verifies `entry`, then loads it into the VM under a
    /// `vm-load` span.
    fn load_vm(
        &self,
        entry: &str,
        opts: &CompileOptions,
        sink: &mut dyn Sink,
    ) -> Result<(Vm, S0Program, pe_verify::Report), PipelineError> {
        let (s0, report) = self.compile_verified(entry, opts, sink)?;
        let t = pe_trace::begin(sink, Phase::VmLoad);
        let vm = Vm::compile(&s0).map_err(PipelineError::Vm);
        pe_trace::end(sink, t);
        Ok((vm?, s0, report))
    }

    /// Compiles the whole program with the Hobbit-like baseline.
    ///
    /// # Errors
    ///
    /// See [`PipelineError`].
    pub fn compile_hobbit(&self) -> Result<Hobbit, PipelineError> {
        Hobbit::compile(&self.program).map_err(PipelineError::Hobbit)
    }

    /// Runs the standard (Fig. 3) interpreter.
    ///
    /// # Errors
    ///
    /// See [`PipelineError`].
    pub fn run_standard(
        &self,
        entry: &str,
        args: &[Datum],
        limits: Limits,
    ) -> Result<Datum, PipelineError> {
        Ok(pe_interp::standard::run(&self.program, entry, args, limits)?)
    }

    /// Runs the closure-converted (Fig. 4) interpreter.
    ///
    /// # Errors
    ///
    /// See [`PipelineError`].
    pub fn run_closconv(
        &self,
        entry: &str,
        args: &[Datum],
        limits: Limits,
    ) -> Result<Datum, PipelineError> {
        Ok(pe_interp::closconv::run(&self.program, entry, args, limits)?)
    }

    /// Runs the tail-recursive (Fig. 6) interpreter.
    ///
    /// # Errors
    ///
    /// See [`PipelineError`].
    pub fn run_tail(
        &self,
        entry: &str,
        args: &[Datum],
        limits: Limits,
    ) -> Result<Datum, PipelineError> {
        Ok(pe_interp::tail::run(&self.dprog, entry, args, limits)?)
    }

    /// Compiles and runs on the VM, returning result and counters.
    ///
    /// # Errors
    ///
    /// See [`PipelineError`].
    pub fn run_compiled(
        &self,
        entry: &str,
        args: &[Datum],
        opts: &CompileOptions,
        limits: Limits,
    ) -> Result<(Datum, VmStats), PipelineError> {
        let vm = self.compile_vm(entry, opts)?;
        Ok(vm.run(args, limits)?)
    }

    /// Compiles `entry` for the VM, degrading gracefully when the
    /// specializer cannot finish: a [`SpecError::Budget`],
    /// [`SpecError::DepthExceeded`], or [`SpecError::SctDiverges`]
    /// outcome becomes [`RobustExec::Degraded`] instead of an error,
    /// since the subject program can still be handed to an interpreter
    /// (whose own fuel bounds a genuinely divergent run).  Genuine
    /// compile-time errors (missing entry, arity, internal faults) are
    /// still reported as errors.
    ///
    /// # Errors
    ///
    /// See [`PipelineError`]; budget exhaustion is *not* an error here.
    pub fn compile_robust(
        &self,
        entry: &str,
        opts: &CompileOptions,
    ) -> Result<RobustExec, PipelineError> {
        self.compile_robust_traced(entry, opts, &mut NullSink)
    }

    /// [`Pipeline::compile_robust`] with phase spans and specializer
    /// counters streaming to `sink`.  On the degraded path the sink has
    /// still seen every event up to the budget cut-off (counters flush
    /// even when specialization errors).
    ///
    /// # Errors
    ///
    /// See [`PipelineError`]; budget exhaustion is *not* an error here.
    pub fn compile_robust_traced(
        &self,
        entry: &str,
        opts: &CompileOptions,
        sink: &mut dyn Sink,
    ) -> Result<RobustExec, PipelineError> {
        match self.load_vm(entry, opts, sink) {
            Ok((vm, _, _)) => Ok(RobustExec::Compiled(Box::new(vm))),
            Err(PipelineError::Spec(e)) if e.is_degradable() => {
                Ok(RobustExec::Degraded { reason: e })
            }
            Err(e) => Err(e),
        }
    }

    /// Runs `entry`, preferring compiled execution and falling back to
    /// the tail interpreter when specialization exhausts its budget.
    /// Returns the result together with the degradation reason, if any
    /// (`None` means the program ran compiled).
    ///
    /// # Errors
    ///
    /// See [`PipelineError`].
    pub fn run_robust(
        &self,
        entry: &str,
        args: &[Datum],
        opts: &CompileOptions,
        limits: Limits,
    ) -> Result<(Datum, Option<SpecError>), PipelineError> {
        self.run_robust_traced(entry, args, opts, limits, &mut NullSink)
    }

    /// [`Pipeline::run_robust`] with the whole robust path observable:
    /// compile-side spans and counters stream to `sink` as in
    /// [`Pipeline::compile_robust_traced`], and the execution engine —
    /// the VM on the compiled path, the tail interpreter on the
    /// degraded path — flushes its run counters and, on a trap, the
    /// governor meter snapshot.  This is the hook the pe-siege chaos
    /// ladder drives: one call per budget rung, with peak meters
    /// recoverable from the gauge stream.
    ///
    /// # Errors
    ///
    /// See [`PipelineError`].
    pub fn run_robust_traced(
        &self,
        entry: &str,
        args: &[Datum],
        opts: &CompileOptions,
        limits: Limits,
        sink: &mut dyn Sink,
    ) -> Result<(Datum, Option<SpecError>), PipelineError> {
        match self.compile_robust_traced(entry, opts, sink)? {
            RobustExec::Compiled(vm) => Ok((vm.run_with(args, limits, sink)?.0, None)),
            RobustExec::Degraded { reason } => {
                let v = pe_interp::tail::run_with(&self.dprog, entry, args, limits, sink)?;
                Ok((v, Some(reason)))
            }
        }
    }

    /// Emits the §5.1 C translation of the compiled program, with `args`
    /// baked into `main`.
    ///
    /// # Errors
    ///
    /// See [`PipelineError`].
    pub fn emit_c(
        &self,
        entry: &str,
        args: &[Datum],
        opts: &CompileOptions,
    ) -> Result<pe_backend_c::CProgram, PipelineError> {
        self.emit_c_traced(entry, args, opts, &mut NullSink)
    }

    /// [`Pipeline::emit_c`] with phase spans (including `emit-c`) and
    /// specializer counters streaming to `sink`.
    ///
    /// # Errors
    ///
    /// See [`PipelineError`].
    pub fn emit_c_traced(
        &self,
        entry: &str,
        args: &[Datum],
        opts: &CompileOptions,
        sink: &mut dyn Sink,
    ) -> Result<pe_backend_c::CProgram, PipelineError> {
        let (s0, _) = self.compile_verified(entry, opts, sink)?;
        let t = pe_trace::begin(sink, Phase::EmitC);
        let c = pe_backend_c::emit_c(&s0, args, &pe_backend_c::COptions::default());
        pe_trace::end(sink, t);
        if sink.enabled() {
            sink.counter(Counter::MovesElided, c.moves_elided as u64);
        }
        Ok(c)
    }
}

/// Verifies a freshly compiled residual under a `verify` span: every
/// [`pe_verify`] pass, then pass 7 (termination) — the specializer's
/// control log audited against the size-change verdicts — with an
/// `<audit>` attribution row so the verify phase's books include the
/// one check that is not per-procedure.  Error-severity findings are
/// refused as [`PipelineError::IllFormed`].
fn verified(
    s0: &S0Program,
    audit: &pe_core::CompileAudit,
    sink: &mut dyn Sink,
) -> Result<pe_verify::Report, PipelineError> {
    let t = pe_trace::begin(sink, Phase::Verify);
    let mut report = pe_verify::verify_with(s0, sink);
    let t0 = sink.enabled().then(std::time::Instant::now);
    report.merge(pe_verify::verify_audit(audit));
    if let Some(t0) = t0 {
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        sink.attr(Phase::Verify, "<audit>", ns, audit.events.len() as u64);
    }
    pe_trace::end(sink, t);
    if report.has_errors() {
        return Err(PipelineError::IllFormed(report.error_messages()));
    }
    Ok(report)
}
