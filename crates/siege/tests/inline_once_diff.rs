//! Differential test of the indexed inline-once pass: on the raw
//! residuals (no post-processing, no flow optimization) of the Gabriel
//! suite, the siege corpus and a fixed-seed batch of generated
//! programs, `pe_flow::opt::inline_once` must print byte-identically to
//! the rescan algorithm it replaced, kept here as the reference.

use pe_core::{CompileOptions, ProcId, S0Proc, S0Program, S0Simple, S0Tail};
use pe_siege::gen::gen_case;
use pe_siege::rng::Rng;
use realistic_pe::{Pipeline, SUITE};
use std::path::Path;

/// Generated programs in the batch.
const GENERATED: u64 = 300;

/// The reference: every round recounts the calls, picks the first
/// eligible procedure in program order, and rewrites every procedure.
/// Inlined procedures leave a hole until the end, so ids stay put.
fn inline_once_rescan(p: S0Program) -> S0Program {
    let mut procs: Vec<Option<S0Proc>> = p.procs.into_iter().map(Some).collect();
    let n = procs.len();
    loop {
        let mut counts = vec![0usize; n];
        let mut self_recursive = vec![false; n];
        let mut call_args: Vec<Option<Vec<S0Simple>>> = vec![None; n];
        for (i, q) in procs.iter().enumerate() {
            let Some(q) = q else { continue };
            q.body.calls(&mut |c, args| {
                counts[c.index()] += 1;
                self_recursive[c.index()] |= c.index() == i;
                call_args[c.index()].get_or_insert_with(|| args.to_vec());
            });
        }
        let candidate = (0..n).find(|&i| {
            procs[i].as_ref().is_some_and(|q| {
                i != p.entry.index()
                    && counts[i] == 1
                    && !self_recursive[i]
                    && call_args[i].as_ref().is_some_and(|args| {
                        args.iter().enumerate().all(|(j, a)| {
                            matches!(a, S0Simple::Var(_) | S0Simple::Const(_))
                                || occurrences_tail(&q.body, j as u32) <= 1
                        })
                    })
            })
        });
        let Some(v) = candidate else { break };
        let victim = procs[v].take().expect("candidates are present");
        for q in procs.iter_mut().flatten() {
            q.body = rewrite_calls(&q.body, &mut |callee, args| {
                if callee.index() == v {
                    victim.body.subst(args)
                } else {
                    S0Tail::TailCall(callee, args.to_vec())
                }
            });
        }
    }
    // Close the holes: survivors move down past every inlined procedure.
    let new_id: Vec<u32> = procs
        .iter()
        .scan(0, |next, q| {
            let id = *next;
            *next += u32::from(q.is_some());
            Some(id)
        })
        .collect();
    let procs = procs
        .into_iter()
        .flatten()
        .map(|q| S0Proc {
            body: rewrite_calls(&q.body, &mut |c, args| {
                S0Tail::TailCall(ProcId(new_id[c.index()]), args.to_vec())
            }),
            ..q
        })
        .collect();
    S0Program { procs, entry: ProcId(new_id[p.entry.index()]) }
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

fn rewrite_calls(t: &S0Tail, f: &mut impl FnMut(ProcId, &[S0Simple]) -> S0Tail) -> S0Tail {
    match t {
        S0Tail::Return(_) | S0Tail::Fail(_) => t.clone(),
        S0Tail::If(c, a, b) => {
            S0Tail::If(c.clone(), Box::new(rewrite_calls(a, f)), Box::new(rewrite_calls(b, f)))
        }
        S0Tail::TailCall(p, args) => f(*p, args),
    }
}

/// The specializer's output for `entry`, or `None` when the compile is
/// refused (a divergent program, an exhausted budget).
fn raw_residual(source: &str, entry: &str) -> Option<S0Program> {
    let opts = CompileOptions { postprocess: false, flow: false, ..CompileOptions::default() };
    Pipeline::new(source).ok()?.compile(entry, &opts).ok()
}

#[test]
fn indexed_inline_once_matches_the_rescan_reference() {
    let mut programs: Vec<(String, String, String)> = SUITE
        .iter()
        .map(|b| (b.name.to_string(), b.source.to_string(), b.entry.to_string()))
        .collect();
    let corpus = pe_siege::corpus::load_dir(&Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus"))
        .expect("corpus loads");
    assert_eq!(corpus.len(), 8);
    programs.extend(corpus.into_iter().map(|c| (c.name, c.source, c.entry)));
    let mut rng = Rng::new(0x1A1E_0ACE);
    for i in 0..GENERATED {
        let case = gen_case(&mut rng);
        programs.push((format!("gen-{i}"), case.source, case.entry));
    }
    realistic_pe::with_big_stack(move || {
        let mut compared = 0;
        let mut inlined = 0;
        for (name, source, entry) in &programs {
            let Some(raw) = raw_residual(source, entry) else { continue };
            let want = inline_once_rescan(raw.clone());
            let got = pe_flow::opt::inline_once(raw.clone());
            assert_eq!(got.to_source(), want.to_source(), "{name}");
            compared += 1;
            inlined += raw.procs.len() - got.procs.len();
        }
        // Nearly every program compiles, and the pass has work to do.
        assert!(compared + 2 >= programs.len(), "{compared} of {}", programs.len());
        assert!(inlined > 0);
    });
}
