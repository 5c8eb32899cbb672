//! **realistic-pe** — a full reproduction of Sperber & Thiemann,
//! *Realistic Compilation by Partial Evaluation* (PLDI 1996), in Rust.
//!
//! The system compiles a strict, higher-order, purely functional Scheme
//! subset to first-order tail-recursive code (and C) by the interpretive
//! approach: the compiler is the specializer-projection reading of a
//! two-level interpreter, performing closure conversion, conversion to
//! tail form, and aggressive constant propagation in a single pass.
//!
//! # Crates
//!
//! | crate | contents |
//! |-------|----------|
//! | `pe-sexpr` | S-expression reader/printer |
//! | `pe-frontend` | AST (Fig. 2), parser, desugarer (Fig. 5), 0CFA, §4.5 generalization analysis |
//! | `pe-interp` | the interpreter family: Fig. 3, Fig. 4, Fig. 6 |
//! | `pe-core` | the specializing compiler (Fig. 7) → S₀, online/offline generalization, post passes |
//! | `pe-sct` | size-change termination analysis: bounded/unbounded/unknown verdicts driving static specialization control |
//! | `pe-unmix` | first-order offline partial evaluator: BTA, reducer, arity raiser, Futamura projection |
//! | `pe-hobbit` | the §6 baseline: native-stack direct compiler |
//! | `pe-vm` | S₀ goto-machine (the §5.1 C execution model) with counters |
//! | `pe-backend-c` | S₀ → C translator |
//! | `pe-verify` | static verification: well-formedness, closure shapes, preservation certificate, lints, BTA audit |
//!
//! # Quickstart
//!
//! ```
//! use realistic_pe::{Pipeline, CompileOptions, Datum, Limits};
//!
//! let pipe = Pipeline::new(
//!     "(define (append x y) (cps-append x y (lambda (v) v)))
//!      (define (cps-append x y c)
//!        (if (null? x) (c y)
//!            (cps-append (cdr x) y (lambda (xy) (c (cons (car x) xy))))))",
//! ).unwrap();
//! let (result, _stats) = pipe.run_compiled(
//!     "append",
//!     &[Datum::parse("(1 2)").unwrap(), Datum::parse("(3)").unwrap()],
//!     &CompileOptions::default(),
//!     Limits::default(),
//! ).unwrap();
//! assert_eq!(result.to_string(), "(1 2 3)");
//! ```
//!
//! Every [`Pipeline`] compile path runs one pe-core compile and one
//! seven-pass verify step; the `_traced` variants stream to the sink
//! they are given, and only [`Pipeline::compile_traced`] and
//! [`Pipeline::compile_vm_traced`] aggregate into a [`CompileReport`].

pub mod pipeline;
pub mod suite;

pub use pe_backend_c::{emit_c, COptions, CProgram};
pub use pe_core::{compile, specialize, CompileOptions, GenStrategy, S0Program, SpecError};
pub use pe_sct::{SctAnalysis, SctStats, Verdict, Verdicts};
pub use pe_frontend::{desugar, parse_source, DProgram, Program};
pub use pe_hobbit::Hobbit;
pub use pe_interp::{Datum, Fuel, InterpError, Limits, Trap};
pub use pe_unmix::{compile_by_futamura, encode_program, UnmixOptions, FUTAMURA_ENTRY, SINT};
pub use pe_verify::{
    verify, verify_division, verify_program, verify_source, Diagnostic, Report, Severity,
};
pub use pe_trace::{
    Aggregator, CollectingSink, Counter, Event, Gauge, JsonlSink, NullSink, Phase, Sink,
};
pub use pe_vm::{Vm, VmStats};
pub use pipeline::{CompileReport, Pipeline, PipelineError, RobustExec};
pub use suite::{benchmark, Benchmark, SUITE};

/// Runs `f` on a worker thread with a large stack and returns its
/// result.
///
/// The engines that model a *native-stack* execution (the Fig. 3/Fig. 4
/// interpreters and the Hobbit-like baseline) recurse on the host stack
/// by design — that is the very property the paper's Fig. 8 discusses.
/// CPS-heavy benchmarks nest tens of thousands of frames, more than a
/// default thread provides, so benchmark drivers and tests construct
/// and run everything inside this wrapper.  (The PE-compiled code needs
/// no such help: it is tail-recursive by construction.)
pub fn with_big_stack<R: Send>(f: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .stack_size(1 << 30)
            .spawn_scoped(scope, f)
            .expect("spawn big-stack worker")
            .join()
            .expect("worker panicked")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every Fig. 8 benchmark runs correctly on every engine — the
    /// suite-wide equivalence theorem behind the evaluation.
    #[test]
    fn suite_equivalence_all_engines() {
        with_big_stack(suite_equivalence_all_engines_inner);
    }

    fn suite_equivalence_all_engines_inner() {
        for b in SUITE {
            let pipe = Pipeline::new(b.source).unwrap();
            let args = b.test_inputs();
            let expect = Datum::parse(b.test_expect).unwrap();
            let lim = Limits::default();

            let std = pipe.run_standard(b.entry, &args, lim).unwrap();
            assert_eq!(std, expect, "{}: standard", b.name);
            let cc = pipe.run_closconv(b.entry, &args, lim).unwrap();
            assert_eq!(cc, expect, "{}: closconv", b.name);
            let tail = pipe.run_tail(b.entry, &args, lim).unwrap();
            assert_eq!(tail, expect, "{}: tail", b.name);
            let hob = pipe.compile_hobbit().unwrap().run(b.entry, &args, lim).unwrap();
            assert_eq!(hob, expect, "{}: hobbit", b.name);
            for strategy in [GenStrategy::Offline, GenStrategy::Online] {
                let opts = CompileOptions { strategy, ..CompileOptions::default() };
                let (vm, _) = pipe.run_compiled(b.entry, &args, &opts, lim).unwrap();
                assert_eq!(vm, expect, "{}: compiled/{strategy:?}", b.name);
            }
        }
    }

    #[test]
    fn compiled_suite_is_first_order_and_tail_recursive() {
        // The language preservation property over the whole suite: the
        // residual programs pass every pe-verify pass with no errors
        // (first-order, all calls in tail position, sound closure
        // shapes).
        for b in SUITE {
            let pipe = Pipeline::new(b.source).unwrap();
            let s0 = pipe.compile(b.entry, &CompileOptions::default()).unwrap();
            let report = verify(&s0);
            assert!(report.is_clean(), "{}:\n{report}", b.name);
            assert!(!s0.to_source().contains("lambda"), "{}", b.name);
        }
    }

    #[test]
    fn pipeline_error_display() {
        let Err(e) = Pipeline::new("(define (f x) y)") else {
            panic!("unbound variable must not parse");
        };
        assert!(e.to_string().contains("unbound"));
        let pipe = Pipeline::new("(define (f x) x)").unwrap();
        let e = pipe.compile("ghost", &CompileOptions::default()).unwrap_err();
        assert!(e.to_string().contains("ghost"));
    }

    #[test]
    fn pipeline_parse_errors_carry_source_positions() {
        // The offending form starts on line 2: the error message leads
        // with its line:col.
        let Err(e) = Pipeline::new("(define (f x) x)\n(define (g y) z)") else {
            panic!("unbound variable must not parse");
        };
        let msg = e.to_string();
        assert!(msg.starts_with("2:"), "expected a position prefix, got: {msg}");
    }

    /// Ω under every engine: divergence is always cut off by a specific
    /// structured trap, never a host stack overflow or a hang.
    #[test]
    fn omega_traps_on_every_engine() {
        let pipe = Pipeline::new(
            "(define (omega) ((lambda (x) (x x)) (lambda (x) (x x))))",
        )
        .unwrap();
        // Host-stack engines: the call-depth cap fires first.
        let depth = Limits { max_call_depth: 64, ..Limits::default() };
        assert!(matches!(
            pipe.run_standard("omega", &[], depth),
            Err(PipelineError::Run(InterpError::Trap(Trap::CallDepth { limit: 64 })))
        ));
        assert!(matches!(
            pipe.run_closconv("omega", &[], depth),
            Err(PipelineError::Run(InterpError::Trap(Trap::CallDepth { limit: 64 })))
        ));
        // The flat tail machine never grows the host stack: fuel fires.
        let fuel = Limits { fuel: 10_000, ..Limits::default() };
        assert!(matches!(
            pipe.run_tail("omega", &[], fuel),
            Err(PipelineError::Run(InterpError::FuelExhausted))
        ));
        // The specializing compiler proves Ω divergent at BTA time and
        // rejects it outright, before any unfolding.
        assert!(matches!(
            pipe.run_compiled("omega", &[], &CompileOptions::default(), Limits::default()),
            Err(PipelineError::Spec(SpecError::SctDiverges(_)))
        ));
        // With the analysis off, the unfolding budget is the backstop.
        let no_sct = CompileOptions { sct: false, ..CompileOptions::default() };
        assert!(matches!(
            pipe.run_compiled("omega", &[], &no_sct, Limits::default()),
            Err(PipelineError::Spec(e)) if e.is_budget_exhaustion()
        ));
    }

    /// Graceful degradation: when specialization exhausts its residual
    /// budget, the pipeline falls back to interpreter-packaged execution
    /// and reports the reason instead of failing.
    #[test]
    fn budget_exhaustion_degrades_to_interpreted_run() {
        let pipe = Pipeline::new(
            "(define (main n) (even-p n))
             (define (even-p n) (if (zero? n) 1 (odd-p (- n 1))))
             (define (odd-p n) (if (zero? n) 0 (even-p (- n 1))))",
        )
        .unwrap();
        let opts = CompileOptions {
            limits: Limits { max_residual: 1, ..Limits::default() },
            ..CompileOptions::default()
        };
        // Plain compilation refuses under this budget…
        assert!(matches!(
            pipe.compile("main", &opts),
            Err(PipelineError::Spec(e)) if e.is_budget_exhaustion()
        ));
        // …the robust path degrades instead…
        let exec = pipe.compile_robust("main", &opts).unwrap();
        assert!(exec.is_degraded(), "expected Degraded, got {exec:?}");
        // …and still computes the right answer, flagging the fallback.
        let (v, why) =
            pipe.run_robust("main", &[Datum::Int(6)], &opts, Limits::default()).unwrap();
        assert_eq!(v, Datum::Int(1));
        assert!(why.is_some_and(|e| e.is_budget_exhaustion()));
        // With an adequate budget the same call runs compiled.
        let (v, why) = pipe
            .run_robust("main", &[Datum::Int(6)], &CompileOptions::default(), Limits::default())
            .unwrap();
        assert_eq!(v, Datum::Int(1));
        assert!(why.is_none());
    }

    /// The traced robust path streams the executing engine's counters:
    /// VM counters on the compiled path, interpreter counters on the
    /// degraded path — so a soak harness can read peak meters from one
    /// sink regardless of which engine actually ran.
    #[test]
    fn run_robust_traced_streams_engine_counters() {
        let pipe = Pipeline::new(
            "(define (main n) (even-p n))
             (define (even-p n) (if (zero? n) 1 (odd-p (- n 1))))
             (define (odd-p n) (if (zero? n) 0 (even-p (- n 1))))",
        )
        .unwrap();
        // Compiled path: vm-run span + VM step counters.
        let mut sink = CollectingSink::new();
        let (v, why) = pipe
            .run_robust_traced(
                "main",
                &[Datum::Int(4)],
                &CompileOptions::default(),
                Limits::default(),
                &mut sink,
            )
            .unwrap();
        assert_eq!(v, Datum::Int(1));
        assert!(why.is_none());
        assert!(sink.check_balanced().is_ok());
        assert!(sink.counter_total(Counter::VmSteps) > 0);
        // Degraded path: the tail interpreter's counters flush instead.
        let opts = CompileOptions {
            limits: Limits::builder().with_residual(1).build(),
            ..CompileOptions::default()
        };
        let mut sink = CollectingSink::new();
        let (v, why) = pipe
            .run_robust_traced("main", &[Datum::Int(4)], &opts, Limits::default(), &mut sink)
            .unwrap();
        assert_eq!(v, Datum::Int(1));
        assert!(why.is_some_and(|e| e.is_budget_exhaustion()));
        assert!(sink.check_balanced().is_ok());
        assert!(sink.counter_total(Counter::EvalSteps) > 0);
        assert_eq!(sink.counter_total(Counter::VmSteps), 0);
    }

    /// Genuine errors are NOT degraded: only budget exhaustion is.
    #[test]
    fn robust_compile_still_reports_genuine_errors() {
        let pipe = Pipeline::new("(define (f x) x)").unwrap();
        assert!(matches!(
            pipe.compile_robust("ghost", &CompileOptions::default()),
            Err(PipelineError::Spec(SpecError::NoSuchProc(_)))
        ));
    }
}
