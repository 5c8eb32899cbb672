//! Inputs come from the seed alone, and the deterministic metrics repeat
//! exactly: one seed gives one program stream, one request sequence,
//! the same residual sizes and the same VM work counts.

use pe_perfbench::programs::{fig8, Checks};
use pe_perfbench::runs::{self, Runs};
use pe_perfbench::serve::ServeSetup;
use pe_perfbench::stream::Stream;
use pe_perfbench::trace::Tracer;
use pe_perfbench::workload::{self, serve_pool};
use pe_siege::rng::Rng;
use std::time::Duration;

fn names(seed: u64) -> Vec<String> {
    workload::stream(seed)
        .into_iter()
        .map(|p| format!("{}\n{}", p.name, p.source))
        .collect()
}

#[test]
fn the_seed_fixes_the_stream_and_another_seed_changes_it() {
    realistic_pe::with_big_stack(|| {
        assert_eq!(names(7), names(7));
        assert_ne!(names(7), names(8));
    });
}

#[test]
fn the_seed_fixes_the_request_sequence() {
    realistic_pe::with_big_stack(|| {
        let pool = serve_pool();
        let setup = ServeSetup::new(&pool);
        let draw = |seed| setup.traffic(2, &mut Rng::new(seed));
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
        // Every block requests every program, in Zipf proportion.
        let first = &draw(3)[..setup.block_len()];
        for i in 0..pool.len() {
            assert!(first.contains(&i), "program {i} missing from a block");
        }
    });
}

#[test]
fn residual_sizes_repeat_exactly() {
    realistic_pe::with_big_stack(|| {
        let measure = |seed| {
            let programs = workload::stream(seed);
            let refs: Vec<_> = programs.iter().map(|p| p.reference()).collect();
            let mut checks = Checks::default();
            let mut tr = Tracer::new(false);
            let r = Stream::new(&programs).finish(&refs, &mut tr, &mut checks);
            assert_eq!(checks.failed, 0);
            (r.residual_nodes, r.c_bytes, r.raw_nodes, r.post_nodes)
        };
        let first = measure(11);
        assert_eq!(first, measure(11));
        // The pool is the same for every seed; only the order differs.
        assert_eq!(first, measure(12));
    });
}

#[test]
fn vm_work_counts_repeat_exactly() {
    realistic_pe::with_big_stack(|| {
        let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("perfbench-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch directory");
        let measure = |seed| {
            let programs = fig8();
            let refs: Vec<_> = programs.iter().map(|p| p.reference()).collect();
            let setup = runs::setup(&programs, &refs, &dir).expect("Fig. 8 set-up");
            let mut checks = Checks::default();
            let mut runs = Runs::new(&setup, Rng::new(seed));
            runs.step(Duration::ZERO, &mut Tracer::new(false), &mut checks);
            assert_eq!(checks.failed, 0);
            runs.result.stats
        };
        let first = measure(5);
        assert_eq!(first, measure(5));
        assert!(first.steps > 0 && first.allocs > 0 && first.calls > 0);
        std::fs::remove_dir_all(&dir).expect("remove scratch directory");
    });
}
