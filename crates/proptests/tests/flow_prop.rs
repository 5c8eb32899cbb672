//! Property tests for the pe-flow dataflow framework: liveness is a
//! sound (and, for parameters, exact) over-approximation of syntactic
//! reads, and the flow optimizer is a semantics-preserving shrink on
//! randomly generated programs.

use pe_core::{compile, eval, CompileOptions};
use pe_flow::s0::{S0Proc, S0Program, S0Simple, S0Tail};
use pe_governor::{Fuel, Limits as GovLimits};
use pe_interp::{Datum, Limits};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Generates bodies over `x` (number) and `l` (list) — the same shape
/// as `spec_prop.rs`, giving structurally terminating programs whose
/// residuals exercise closures, dispatch, and dead code.
fn arb_body() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        Just("x".to_string()),
        Just("l".to_string()),
        (-9i64..10).prop_map(|n| n.to_string()),
        Just("'a".to_string()),
        Just("'()".to_string()),
        Just("#f".to_string()),
    ];
    leaf.prop_recursive(4, 16, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("(cons {a} {b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("(+ {a} {b})")),
            (inner.clone(), inner.clone(), inner.clone())
                .prop_map(|(c, t, f)| format!("(if (null? {c}) {t} {f})")),
            inner.clone().prop_map(|a| format!("(walk {a})")),
            (inner.clone(), inner.clone()).prop_map(|(r, b)| format!("(let ((w {r})) {b})")),
            (inner.clone(), inner.clone())
                .prop_map(|(b, a)| format!("((lambda (v) {b}) {a})")),
            inner.clone().prop_map(|a| format!("(if (pair? {a}) (car {a}) {a})")),
            inner.prop_map(|a| format!("(if (pair? {a}) (cdr {a}) '())")),
        ]
    })
}

fn compile_unoptimized(body: &str) -> S0Program {
    let src = format!(
        "(define (main x l) {body})
         (define (walk v) (if (pair? v) (walk (cdr v)) v))"
    );
    let p = pe_frontend::parse_source(&src).expect("parses");
    let d = pe_frontend::desugar(&p).expect("desugars");
    // Flow disabled: the raw residual is the test subject.
    compile(&d, "main", &CompileOptions { flow: false, ..CompileOptions::default() })
        .expect("compiles")
}

/// Every variable slot the procedure body mentions, collected
/// syntactically.
fn reads(q: &S0Proc) -> BTreeSet<u32> {
    fn simple(s: &S0Simple, out: &mut BTreeSet<u32>) {
        match s {
            S0Simple::Var(v) => {
                out.insert(*v);
            }
            S0Simple::Const(_) => {}
            S0Simple::Prim(_, args) | S0Simple::MakeClosure(_, args) => {
                args.iter().for_each(|a| simple(a, out));
            }
            S0Simple::ClosureLabel(a) | S0Simple::ClosureFreeval(a, _) => simple(a, out),
        }
    }
    fn walk(t: &S0Tail, out: &mut BTreeSet<u32>) {
        match t {
            S0Tail::Return(s) => simple(s, out),
            S0Tail::Fail(_) => {}
            S0Tail::If(c, a, b) => {
                simple(c, out);
                walk(a, out);
                walk(b, out);
            }
            S0Tail::TailCall(_, args) => args.iter().for_each(|a| simple(a, out)),
        }
    }
    let mut out = BTreeSet::new();
    walk(&q.body, &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// Soundness of liveness: in S₀, parameters are the only binders
    /// and are never rebound, so a parameter is live at entry *iff* the
    /// body syntactically reads it.  A parameter the analysis declares
    /// dead must therefore never be mentioned — the direction the
    /// optimizer relies on when pruning.
    #[test]
    fn liveness_over_approximates_reads(body in arb_body()) {
        let s0 = compile_unoptimized(&body);
        let mut fuel = Fuel::new(&GovLimits::default());
        for q in &s0.procs {
            let live = pe_flow::liveness::live_at_entry(q, &mut fuel).expect("fuel");
            let read = reads(q);
            for (slot, p) in (0u32..).zip(&q.params) {
                prop_assert_eq!(
                    live.contains(&slot),
                    read.contains(&slot),
                    "proc {} param {}: live_at_entry disagrees with syntactic reads",
                    q.name, p
                );
            }
            // Soundness proper: everything read is live somewhere, so
            // nothing the body mentions may be missing from the entry
            // set *if it is a parameter slot* (other slots cannot occur
            // in well-formed S₀).
            for v in &read {
                if (*v as usize) < q.params.len() {
                    prop_assert!(live.contains(v), "proc {}: read slot {} not live", q.name, v);
                }
            }
        }
    }

    /// Translation validation of the optimizer on random programs:
    /// optimized output verifies cleanly, never grows, and computes the
    /// same result on the S₀ evaluator for random inputs.
    #[test]
    fn optimize_preserves_meaning_and_never_grows(
        body in arb_body(),
        x in -30i64..30,
        l in proptest::collection::vec(-3i64..4, 0..4),
    ) {
        let s0 = compile_unoptimized(&body);
        let mut fuel = Fuel::new(&GovLimits::default());
        let (opt, _) = pe_flow::optimize(s0.clone(), &mut fuel).expect("fuel");
        prop_assert!(opt.size() <= s0.size(), "grew: {} -> {}", s0.size(), opt.size());
        prop_assert!(pe_flow::cfg::ProgramCfg::build(&opt).node_count() > 0);
        let report = pe_verify::verify(&opt);
        prop_assert!(report.is_clean(), "{report}");

        let args = [
            Datum::Int(x),
            Datum::parse(&format!("({})", l.iter().map(i64::to_string)
                .collect::<Vec<_>>().join(" "))).unwrap(),
        ];
        let lim = Limits::builder().with_fuel(1_000_000).build();
        let base = eval::run(&s0, &args, lim);
        let flow = eval::run(&opt, &args, lim);
        match (&base, &flow) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(_), _) => {
                // Like specialization itself, the optimizer may delete a
                // faulting computation whose value is never observed;
                // optimized code is at least as defined as its input.
            }
            (Ok(a), Err(e)) => prop_assert!(
                false, "base ok {a} but optimized faulted {e}\n{opt}"
            ),
        }
    }

    /// The flow analyses respect the governor: a starved fuel budget
    /// traps instead of looping or returning a wrong program.
    #[test]
    fn starved_fuel_traps_cleanly(body in arb_body()) {
        let s0 = compile_unoptimized(&body);
        let mut fuel = Fuel::new(&GovLimits::builder().with_fuel(1).build());
        prop_assert!(pe_flow::optimize(s0, &mut fuel).is_err());
    }
}
