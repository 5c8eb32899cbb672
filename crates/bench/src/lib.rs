//! The CI timing gate over the paper's §8 suite.
//!
//! For every [`SUITE`] benchmark it checks that the S₀ VM, the Fig. 6
//! tail interpreter and the §6 Hobbit baseline all compute
//! `test_expect` (a wrong answer is never timed), then times
//! `compile_vm` and the three engines, min of [`REPS`] at the test
//! inputs.  [`check`] compares those times with a committed baseline.
//! Everything else is measured by perfbench (`perfbench/`) or pinned
//! exactly by `crates/siege/tests/output_digests.rs`.

use realistic_pe::{with_big_stack, Benchmark, CompileOptions, Datum, Limits, Pipeline, SUITE};
use std::fmt;
use std::time::Instant;

pub mod check;

/// Timed repetitions per measurement; the minimum is kept.
pub const REPS: u32 = 3;

/// The timed quantities, in [`Row::ms`] order.
pub const METRICS: [&str; 4] = ["compile_ms", "vm_ms", "tail_ms", "hobbit_ms"];

/// One benchmark's best times in milliseconds, in [`METRICS`] order.
#[derive(Debug, PartialEq)]
pub struct Row {
    /// The Fig. 8 row name.
    pub name: String,
    /// `compile_vm`, then the VM, tail-interpreter and Hobbit runs.
    pub ms: [f64; 4],
}

/// Renders the row as one baseline line (see [`check`]).
impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)?;
        self.ms.iter().try_for_each(|ms| write!(f, " {ms:.3}"))
    }
}

/// Best-of-`reps` wall-clock time of `f`, in milliseconds.
pub fn time_min_ms(reps: u32, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1000.0);
    }
    best
}

/// Checks and times the whole suite, sequentially on one big-stack
/// worker (Hobbit recurses on the host stack by design), in Fig. 8 order.
///
/// # Errors
///
/// A message naming the benchmark when it fails to compile, an engine
/// fails, or an engine computes anything but `test_expect`.
pub fn run_suite() -> Result<Vec<Row>, String> {
    with_big_stack(|| SUITE.iter().map(time_benchmark).collect())
}

fn time_benchmark(b: &Benchmark) -> Result<Row, String> {
    let fail = |stage: &str, e: &dyn fmt::Display| format!("{}: {stage}: {e}", b.name);
    let pipe = Pipeline::new(b.source).map_err(|e| fail("parse", &e))?;
    let opts = CompileOptions::default();
    let vm = pipe.compile_vm(b.entry, &opts).map_err(|e| fail("compile", &e))?;
    let hob = pipe.compile_hobbit().map_err(|e| fail("hobbit", &e))?;
    let (args, lim) = (b.test_inputs(), Limits::default());
    let expect = Datum::parse(b.test_expect).expect("parseable expectation");
    for (engine, got) in [
        ("vm", vm.run(&args, lim).map(|(v, _)| v).map_err(|e| e.to_string())),
        ("tail", pipe.run_tail(b.entry, &args, lim).map_err(|e| e.to_string())),
        ("hobbit", hob.run(b.entry, &args, lim).map_err(|e| e.to_string())),
    ] {
        match got {
            Ok(v) if v == expect => {}
            Ok(v) => return Err(format!("{}: {engine} computed {v}, expected {expect}", b.name)),
            Err(e) => return Err(fail(engine, &e)),
        }
    }
    let ms = [
        time_min_ms(REPS, || assert!(pipe.compile_vm(b.entry, &opts).is_ok())),
        time_min_ms(REPS, || assert!(vm.run(&args, lim).is_ok())),
        time_min_ms(REPS, || assert!(pipe.run_tail(b.entry, &args, lim).is_ok())),
        time_min_ms(REPS, || assert!(hob.run(b.entry, &args, lim).is_ok())),
    ];
    Ok(Row { name: b.name.to_string(), ms })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_min_ms_takes_the_minimum() {
        let mut calls = 0;
        let t = time_min_ms(4, || calls += 1);
        assert_eq!(calls, 4);
        assert!(t >= 0.0 && t.is_finite());
    }

    #[test]
    fn quick_suite_measures_every_benchmark_on_three_engines() {
        let rows = run_suite().expect("every engine computes test_expect");
        assert_eq!(rows.len(), SUITE.len());
        for (row, b) in rows.iter().zip(SUITE) {
            assert_eq!(row.name, b.name, "fixed Fig. 8 order");
            assert!(row.ms.iter().all(|ms| ms.is_finite() && *ms >= 0.0), "{row}");
            assert!(row.ms[0] > 0.0, "{}: compile was not timed", row.name);
        }
    }
}
