//! Differential test of the indexed inline-once pass: on the raw
//! residuals (no post-processing, no flow optimization) of the Gabriel
//! suite, the siege corpus and a fixed-seed batch of generated
//! programs, `pe_flow::opt::inline_once` must print byte-identically to
//! the rescan algorithm it replaced, kept here as the reference.

use pe_core::{CompileOptions, S0Program, S0Simple, S0Tail};
use pe_siege::gen::gen_case;
use pe_siege::rng::Rng;
use realistic_pe::{Pipeline, SUITE};
use std::collections::{HashMap, HashSet};
use std::path::Path;

/// Generated programs in the batch.
const GENERATED: u64 = 300;

/// The reference: every round recounts the calls, picks the first
/// eligible procedure in program order, and rewrites every procedure.
fn inline_once_rescan(mut p: S0Program) -> S0Program {
    loop {
        let mut counts: HashMap<String, usize> = HashMap::new();
        for q in &p.procs {
            q.body.calls(&mut |c| *counts.entry(c.to_string()).or_insert(0) += 1);
        }
        let self_recursive: HashSet<String> = p
            .procs
            .iter()
            .filter(|q| {
                let mut rec = false;
                q.body.calls(&mut |c| rec |= c == q.name);
                rec
            })
            .map(|q| q.name.clone())
            .collect();
        let mut call_args: HashMap<String, Vec<S0Simple>> = HashMap::new();
        for q in &p.procs {
            visit_calls(&q.body, &mut |callee, args| {
                call_args.entry(callee.to_string()).or_insert_with(|| args.to_vec());
            });
        }
        let candidate = p.procs.iter().find(|q| {
            q.name != p.entry
                && counts.get(&q.name).copied().unwrap_or(0) == 1
                && !self_recursive.contains(&q.name)
                && call_args.get(&q.name).is_some_and(|args| {
                    q.params.iter().zip(args).all(|(pm, a)| {
                        matches!(a, S0Simple::Var(_) | S0Simple::Const(_))
                            || occurrences_tail(&q.body, pm) <= 1
                    })
                })
        });
        let Some(victim) = candidate else {
            return p;
        };
        let (vname, vparams, vbody) =
            (victim.name.clone(), victim.params.clone(), victim.body.clone());
        p.procs.retain(|q| q.name != vname);
        for q in &mut p.procs {
            q.body = rewrite_calls(&q.body, &mut |callee, args| {
                if callee == vname {
                    let map: HashMap<String, S0Simple> =
                        vparams.iter().cloned().zip(args.iter().cloned()).collect();
                    vbody.subst(&map)
                } else {
                    S0Tail::TailCall(callee.to_string(), args.to_vec())
                }
            });
        }
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

fn rewrite_calls(t: &S0Tail, f: &mut impl FnMut(&str, &[S0Simple]) -> S0Tail) -> S0Tail {
    match t {
        S0Tail::Return(_) | S0Tail::Fail(_) => t.clone(),
        S0Tail::If(c, a, b) => {
            S0Tail::If(c.clone(), Box::new(rewrite_calls(a, f)), Box::new(rewrite_calls(b, f)))
        }
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
