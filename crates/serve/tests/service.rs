//! Service-level guarantees, end to end:
//!
//! * golden fingerprints — the content-address scheme is pinned for the
//!   Fig. 8 suite, so an accidental hash change (iteration order,
//!   pointer identity, field reordering) fails loudly instead of
//!   silently cold-starting every deployed cache;
//! * concurrency differential — N workers over one shared cache produce
//!   byte-identical residual S₀ *and* C output to a sequential run,
//!   with exact hit/miss accounting;
//! * siege differential — the same, over generated programs, plus the
//!   compile-vs-interpret oracle on every artifact.

use pe_serve::{fingerprint, CompileRequest, Outcome, Server, ServerConfig};
use realistic_pe::{emit_c, COptions, CompileOptions, Datum, Limits, SUITE};

/// Requests for the whole Fig. 8 suite.
fn suite_requests() -> Vec<CompileRequest> {
    SUITE
        .iter()
        .map(|b| CompileRequest::new(b.name, b.source, b.entry))
        .collect()
}

#[test]
fn golden_fingerprints_for_the_suite() {
    // Computed once with FORMAT_VERSION = 2 and default options.  A
    // mismatch means the fingerprint function changed behaviour: bump
    // `pe_serve::FORMAT_VERSION` and re-pin, or fix the regression.
    let golden = [
        ("deriv", "465a286c3f86529f59d1ae2c88897558"),
        ("tak", "d182dd55bd4a6e620589eb8e61a9fe14"),
        ("cpstak", "424d1127cfca4554ce6abbc0aa37e266"),
        ("takl", "d8d6c0715b150660e37c960c926b0100"),
        ("fibclos", "d6abc1578927d8d9215e78b024b820dc"),
        ("cps-append", "7320348ba1c7fb5481b8149d71c8e69e"),
        ("queens", "ffb575501fc49dc617f1926a4c069f3b"),
    ];
    let opts = CompileOptions::default();
    assert_eq!(golden.len(), SUITE.len());
    for ((name, expect), b) in golden.iter().zip(SUITE) {
        assert_eq!(*name, b.name);
        let fp = fingerprint(b.source, b.entry, &opts).expect("suite sources read");
        assert_eq!(
            fp.to_string(),
            *expect,
            "{name}: fingerprint drifted — bump FORMAT_VERSION or fix the hash"
        );
    }
}

/// The reference: every request served sequentially on a fresh server.
fn sequential_reference(reqs: &[CompileRequest]) -> Vec<pe_serve::CompileResponse> {
    Server::new(ServerConfig { threads: 1, ..ServerConfig::default() }).serve(reqs)
}

#[test]
fn concurrent_suite_is_byte_identical_to_sequential() {
    // Three interleaved copies of the suite: plenty of duplicate keys
    // in flight at once.
    let mut reqs = Vec::new();
    for _ in 0..3 {
        reqs.extend(suite_requests());
    }
    let reference = sequential_reference(&reqs);
    for threads in [2, 4] {
        let server = Server::new(ServerConfig { threads, ..ServerConfig::default() });
        let got = server.serve(&reqs);
        assert_eq!(got.len(), reference.len());
        for (r, g) in reference.iter().zip(&got) {
            assert_eq!(r.fingerprint, g.fingerprint, "{}", r.name);
            assert_eq!(
                r.residual_source(),
                g.residual_source(),
                "{} @ {threads} threads: residual S0 must be byte-identical",
                r.name
            );
        }
        let s = server.stats();
        assert_eq!(s.lookups, s.hits + s.misses, "accounting: {s:?}");
        assert_eq!(s.lookups, reqs.len() as u64, "one lookup per request");
        // 7 distinct keys.  Workers that race on the same fresh key
        // each count a miss, but in-flight dedup makes only the first
        // compile — the rest wait and collect the landed artifact — so
        // misses can exceed the distinct-key count while compiles
        // cannot.
        assert!(s.misses >= SUITE.len() as u64, "{s:?}");
        assert!(s.hits > 0, "duplicates must mostly hit: {s:?}");
    }
}

#[test]
fn concurrent_c_output_is_byte_identical_to_sequential() {
    let reqs = suite_requests();
    let reference = sequential_reference(&reqs);
    let server = Server::new(ServerConfig { threads: 4, ..ServerConfig::default() });
    let got = server.serve(&reqs);
    for ((r, g), b) in reference.iter().zip(&got).zip(SUITE) {
        let args: Vec<Datum> = b.test_inputs();
        let c_ref = emit_c(&r.artifact().expect("reference compiled").s0, &args, &COptions::default());
        let c_got = emit_c(&g.artifact().expect("parallel compiled").s0, &args, &COptions::default());
        assert_eq!(
            c_ref.source, c_got.source,
            "{}: C output must be byte-identical",
            b.name
        );
    }
}

#[test]
fn siege_programs_shared_cache_agrees_with_oracle() {
    // Generated programs, one shared cache, four threads: outputs must
    // match the sequential serve byte-for-byte, and every residual
    // program must agree with the tail interpreter on the generated
    // arguments (the pe-siege oracle relation).
    let mut rng = pe_siege::rng::Rng::new(0x5EED);
    let cases: Vec<pe_siege::gen::GenCase> =
        (0..10).map(|_| pe_siege::gen::gen_case(&mut rng)).collect();
    let mut reqs: Vec<CompileRequest> = cases
        .iter()
        .enumerate()
        .map(|(i, c)| CompileRequest::new(&format!("gen-{i}"), &c.source, &c.entry))
        .collect();
    // Duplicates in reverse order so hits land on different workers.
    let dups: Vec<CompileRequest> = reqs.iter().rev().cloned().collect();
    reqs.extend(dups);

    let reference = sequential_reference(&reqs);
    let server = Server::new(ServerConfig { threads: 4, ..ServerConfig::default() });
    let got = server.serve(&reqs);
    for (r, g) in reference.iter().zip(&got) {
        assert_eq!(r.residual_source(), g.residual_source(), "{}", r.name);
    }

    let limits = Limits::default();
    for (i, case) in cases.iter().enumerate() {
        let Some(artifact) = got[i].artifact() else {
            // The generator can produce programs the specializer
            // rejects by budget; rejection must at least be the same
            // outcome sequentially.
            assert!(reference[i].artifact().is_none(), "gen-{i}: outcome diverged");
            continue;
        };
        let pipeline = realistic_pe::Pipeline::new(&case.source).expect("generated source parses");
        let oracle = pipeline.run_tail(&case.entry, &case.args, limits);
        let vm = realistic_pe::Vm::compile(&artifact.s0).expect("residual loads");
        let compiled = vm.run(&case.args, limits).map(|(v, _)| v);
        match (oracle, compiled) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "gen-{i}: compiled result diverged"),
            (Err(_), _) | (_, Err(_)) => {
                // Budget-limited runs may trap in either engine; the
                // differential guarantee is about successful runs.
            }
        }
    }
}

#[test]
fn trace_stream_from_concurrent_serve_validates() {
    // Workers publish whole per-request event groups through the shared
    // JSONL sink; the validator rejects torn lines, unbalanced spans,
    // and unknown names.
    let shared = pe_trace::SharedSink::new(pe_trace::JsonlSink::new(Vec::new()));
    let server = Server::new(ServerConfig { threads: 4, ..ServerConfig::default() });
    let mut reqs = Vec::new();
    for _ in 0..2 {
        reqs.extend(suite_requests());
    }
    let resps = server.serve_with(&reqs, &shared);
    assert_eq!(resps.len(), reqs.len());
    let sink = shared.try_unwrap().expect("no other handles");
    let bytes = sink.finish().expect("no I/O errors on a Vec");
    let stream = String::from_utf8(bytes).expect("UTF-8 JSONL");
    let summary = pe_trace::jsonl::validate(&stream).expect("stream validates");
    assert_eq!(summary.counter("serve_requests"), reqs.len() as u64);
    assert_eq!(
        summary.counter("cache_hits") + summary.counter("cache_misses"),
        reqs.len() as u64
    );
    assert!(summary.spans_opened >= reqs.len(), "one serve span per request");
}

#[test]
fn warm_start_is_much_cheaper_than_cold() {
    // The acceptance bar: a warm answer at least 10x faster than a cold
    // compile.  Use the cache-hit path (the service's warm answer) on
    // the heaviest suite program, and give the ratio a wide margin to
    // keep CI deterministic: a hit is a map lookup + clone, orders of
    // magnitude below a full pipeline run.
    let b = realistic_pe::suite::benchmark("queens").expect("queens exists");
    let server = Server::new(ServerConfig::default());
    let req = CompileRequest::new(b.name, b.source, b.entry);

    let t0 = std::time::Instant::now();
    let cold = server.serve(std::slice::from_ref(&req));
    let cold_ns = t0.elapsed().as_nanos().max(1);
    assert!(matches!(cold[0].outcome, Outcome::Compiled { warm_started: false, .. }));

    let t1 = std::time::Instant::now();
    let warm = server.serve(std::slice::from_ref(&req));
    let warm_ns = t1.elapsed().as_nanos().max(1);
    assert!(warm[0].is_hit());
    assert_eq!(cold[0].residual_source(), warm[0].residual_source());
    assert!(
        cold_ns >= warm_ns * 10,
        "warm answer must be >=10x faster: cold {cold_ns}ns vs warm {warm_ns}ns"
    );
}
