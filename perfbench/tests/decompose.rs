//! The benchmark times the compile as a sequence of layer calls; that
//! sequence must be the compile `Pipeline::compile` performs.  For every
//! program the benchmark compiles or serves, the composed calls give
//! residual S₀ that prints byte-identically, traced or not.  (Run with `--release`: the
//! compile stream has over a thousand programs.)

use pe_perfbench::compile::compile;
use pe_perfbench::programs::fig8;
use pe_perfbench::trace::Tracer;
use pe_perfbench::workload::{self, serve_pool};
use realistic_pe::{CompileOptions, Pipeline};
use std::collections::BTreeSet;

#[test]
fn layer_calls_reproduce_pipeline_compile() {
    realistic_pe::with_big_stack(|| {
        let mut seen = BTreeSet::new();
        for p in workload::stream(1).into_iter().chain(serve_pool()) {
            if !seen.insert(p.name.clone()) {
                continue;
            }
            let want = Pipeline::new(&p.source)
                .and_then(|pipe| pipe.compile(&p.entry, &CompileOptions::default()))
                .unwrap_or_else(|e| panic!("{}: pipeline: {e}", p.name))
                .to_source();
            for traced in [false, true] {
                let got = compile(&p, 0, &mut Tracer::new(traced))
                    .unwrap_or_else(|e| panic!("{}: layers: {e}", p.name));
                assert_eq!(got.s0.to_source(), want, "{} (traced: {traced})", p.name);
            }
        }
        assert_eq!(seen.len(), 7 + workload::STREAM_GENERATED);
    });
}

#[test]
fn compile_spans_nest_inside_their_parent() {
    realistic_pe::with_big_stack(|| {
        let mut tr = Tracer::new(true);
        for (i, p) in fig8().iter().enumerate() {
            compile(p, i as u64, &mut tr).expect("Fig. 8 program compiles");
        }
        let spans = tr.spans();
        assert_eq!(tr.durations("compile").count(), 7);
        for s in spans {
            assert!(s.start_ns <= s.end_ns, "{s:?}");
            if let Some(parent) = s.parent {
                let p = &spans[parent];
                assert!(
                    p.start_ns <= s.start_ns && s.end_ns <= p.end_ns,
                    "{s:?} escapes {p:?}"
                );
                assert_eq!(p.id, s.id);
            } else {
                assert_eq!(s.name, "compile");
            }
        }
        for layer in [
            "frontend",
            "core.cfa",
            "sct",
            "core.specialize",
            "flow.post",
            "flow.optimize",
            "verify",
            "verify.flow",
            "vm.load",
            "backend-c.emit",
        ] {
            assert_eq!(tr.durations(layer).count(), 7, "{layer}");
        }
    });
}
