//! The compile stage: every program of a stream compiled cold, one
//! after another, pass after pass, in time slices.  Programs are not
//! executed while the clock runs; the residuals of the first pass are
//! checked against the reference when the stage finishes.

use crate::compile::compile;
use crate::programs::{vm_limits, Checks, Program};
use crate::trace::Tracer;
use pe_interp::Datum;
use pe_vm::Vm;
use std::time::{Duration, Instant};

/// What the stage measured.
#[derive(Debug, Default)]
pub struct StreamResult {
    /// Per-compile latency in ms, every pass.
    pub latency_ms: Vec<f64>,
    /// Wall time of all slices, in seconds.
    pub wall_s: f64,
    /// Whole passes over the stream.
    pub passes: usize,
    /// Total residual S₀ nodes of one pass.
    pub residual_nodes: u64,
    /// Total emitted C bytes of one pass.
    pub c_bytes: u64,
    /// Total specializer output nodes of one pass.
    pub raw_nodes: u64,
    /// Total nodes after `pe_flow::postprocess`, one pass.
    pub post_nodes: u64,
    /// Programs whose reference trapped (compiled, not compared).
    pub reference_traps: u64,
    /// Untraced and traced compile ms over the same programs (traced
    /// runs only): the tracing overhead.
    pub paired_ms: (f64, f64),
}

/// Times one compile of `p` with `tr` switched off.
fn untraced_ms(p: &Program, id: u64, tr: &mut Tracer) -> f64 {
    tr.set_enabled(false);
    let t = Instant::now();
    let out = compile(p, id, tr);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    drop(out);
    tr.set_enabled(true);
    ms
}

/// The compile stage in progress.  A traced run compiles every program
/// twice back to back, untraced and traced, so the overhead of the
/// spans is measured on the same work.
pub struct Stream<'a> {
    stream: &'a [Program],
    /// Next program to compile.
    pos: usize,
    /// Pass 0's loaded residual and size per program.
    first: Vec<Option<(Vm, usize)>>,
    result: StreamResult,
}

impl<'a> Stream<'a> {
    /// Nothing compiled yet.
    #[must_use]
    pub fn new(stream: &'a [Program]) -> Stream<'a> {
        Stream {
            stream,
            pos: 0,
            first: Vec::new(),
            result: StreamResult::default(),
        }
    }

    /// Compiles programs until `slice` is spent, at least one.
    pub fn step(&mut self, slice: Duration, tr: &mut Tracer, checks: &mut Checks) {
        let start = Instant::now();
        loop {
            self.compile_next(tr, checks);
            if start.elapsed() >= slice {
                break;
            }
        }
        self.result.wall_s += start.elapsed().as_secs_f64();
    }

    fn compile_next(&mut self, tr: &mut Tracer, checks: &mut Checks) {
        let (i, p) = (self.pos, &self.stream[self.pos]);
        let res = &mut self.result;
        let id = i as u64;
        let traced = tr.enabled();
        // The pair's order alternates between programs and between
        // passes, so neither side gains more from the other's warm caches.
        let untraced_first = (i + res.passes).is_multiple_of(2);
        if traced && untraced_first {
            res.paired_ms.0 += untraced_ms(p, id, tr);
        }
        let t = Instant::now();
        let out = compile(p, id, tr);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        res.latency_ms.push(ms);
        if traced {
            res.paired_ms.1 += ms;
            if !untraced_first {
                res.paired_ms.0 += untraced_ms(p, id, tr);
            }
        }
        match out {
            Ok(c) if res.passes == 0 => {
                res.residual_nodes += c.s0.size() as u64;
                res.c_bytes += c.c.size_bytes() as u64;
                res.raw_nodes += c.raw_nodes as u64;
                res.post_nodes += c.post_nodes as u64;
                self.first.push(Some((c.vm, c.s0.size())));
            }
            Ok(c) => {
                let want = self.first[i].as_ref().map(|f| f.1);
                checks.check(want == Some(c.s0.size()), || {
                    format!("{}: residual size changed between passes", p.name)
                });
            }
            Err(e) => {
                checks.check(false, || format!("{}: compile failed: {e}", p.name));
                if res.passes == 0 {
                    self.first.push(None);
                }
            }
        }
        self.pos += 1;
        if self.pos == self.stream.len() {
            self.pos = 0;
            res.passes += 1;
        }
    }

    /// Completes the current pass, so every program has as many samples,
    /// then runs each first-pass residual on the VM and compares it with
    /// `references` (`None` where the reference trapped).
    pub fn finish(
        mut self,
        references: &[Option<Datum>],
        tr: &mut Tracer,
        checks: &mut Checks,
    ) -> StreamResult {
        let start = Instant::now();
        while self.pos != 0 || self.result.passes == 0 {
            self.compile_next(tr, checks);
        }
        self.result.wall_s += start.elapsed().as_secs_f64();
        let res = &mut self.result;
        for ((p, c), reference) in self.stream.iter().zip(&self.first).zip(references) {
            let Some((vm, _)) = c else { continue };
            checks.pass(1);
            let Some(want) = reference else {
                res.reference_traps += 1;
                continue;
            };
            let got = vm.run(&p.args, vm_limits());
            checks.check(matches!(&got, Ok((v, _)) if v == want), || {
                format!("{}: VM gave {got:?}, reference {want}", p.name)
            });
        }
        self.result
    }
}
