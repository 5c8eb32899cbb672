//! The run stage: the Fig. 8 programs, compiled in setup (including
//! `cc -O2` of the emitted C), then run repeatedly on the S₀ VM and as
//! native binaries, interleaved across programs in a seeded order.

use crate::compile::compile;
use crate::programs::{shuffled, Checks, Program};
use crate::trace::Tracer;
use pe_hobbit::Hobbit;
use pe_interp::{Datum, Limits};
use pe_siege::rng::Rng;
use pe_vm::{Vm, VmStats};
use realistic_pe::Pipeline;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One Fig. 8 program ready to run.
pub struct Runnable {
    /// Benchmark name.
    pub name: String,
    args: Vec<Datum>,
    vm: Vm,
    hobbit: Hobbit,
    entry: String,
    binary: PathBuf,
    reference: Datum,
    /// Milliseconds `cc -O2` took on this program's C.
    pub cc_ms: f64,
}

/// The stage's inputs: runnable programs plus a trivial binary whose
/// run time is the process start-up floor.
pub struct RunSetup {
    /// In Fig. 8 order.
    pub programs: Vec<Runnable>,
    trivial: PathBuf,
}

/// Runs `cc -O2` on `c_file`, writing `binary`; temporaries go to `dir`.
fn cc(c_file: &Path, binary: &Path, dir: &Path) -> Result<f64, String> {
    let t = Instant::now();
    let out = Command::new("cc")
        .arg("-O2")
        .arg("-o")
        .arg(binary)
        .arg(c_file)
        .env("TMPDIR", dir)
        .output()
        .map_err(|e| format!("cannot run cc: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "cc failed on {}: {}",
            c_file.display(),
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(t.elapsed().as_secs_f64() * 1e3)
}

/// Compiles every program to the VM and to a native binary in `dir`,
/// running at most two `cc` processes at once.  `references` holds each
/// program's reference result.
///
/// # Errors
///
/// A compile or `cc` failure, or a missing reference: the benchmark
/// cannot run.
pub fn setup(
    programs: &[Program],
    references: &[Option<Datum>],
    dir: &Path,
) -> Result<RunSetup, String> {
    let mut jobs = Vec::new();
    let mut staged = Vec::new();
    for (i, (p, reference)) in programs.iter().zip(references).enumerate() {
        let compiled = compile(p, i as u64, &mut Tracer::new(false))?;
        let c_file = dir.join(format!("{}.c", p.name));
        let binary = dir.join(&p.name);
        std::fs::write(&c_file, &compiled.c.source).map_err(|e| e.to_string())?;
        jobs.push((compiled.c.size_bytes(), Some(i), c_file, binary.clone()));
        let pipe = Pipeline::new(&p.source).map_err(|e| e.to_string())?;
        let hobbit = pipe.compile_hobbit().map_err(|e| e.to_string())?;
        let reference = reference
            .clone()
            .ok_or_else(|| format!("{}: reference trapped", p.name))?;
        staged.push((compiled.vm, hobbit, binary, reference));
    }
    let trivial_c = dir.join("trivial.c");
    let trivial = dir.join("trivial");
    std::fs::write(&trivial_c, "int main(void) { return 0; }\n").map_err(|e| e.to_string())?;
    jobs.push((0, None, trivial_c, trivial.clone()));
    // Popped largest first, so the longest `cc` overlaps all the others.
    jobs.sort_by_key(|j| j.0);
    let queue = Mutex::new(jobs);
    let cc_ms = Mutex::new(vec![0.0; programs.len()]);
    let errors = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| loop {
                let Some((_, i, c_file, binary)) = queue.lock().expect("cc queue").pop() else {
                    break;
                };
                match (cc(&c_file, &binary, dir), i) {
                    (Ok(ms), Some(i)) => cc_ms.lock().expect("cc times")[i] = ms,
                    (Ok(_), None) => {}
                    (Err(e), _) => errors.lock().expect("cc errors").push(e),
                }
            });
        }
    });
    if let Some(e) = errors.into_inner().expect("cc errors").pop() {
        return Err(e);
    }
    let cc_ms = cc_ms.into_inner().expect("cc times");
    let programs = programs
        .iter()
        .zip(staged)
        .zip(cc_ms)
        .map(|((p, (vm, hobbit, binary, reference)), cc_ms)| Runnable {
            name: p.name.clone(),
            args: p.args.clone(),
            vm,
            hobbit,
            entry: p.entry.clone(),
            binary,
            reference,
            cc_ms,
        })
        .collect();
    Ok(RunSetup { programs, trivial })
}

/// Per-program run times and the VM's work counts.
#[derive(Debug, Default)]
pub struct RunResult {
    /// VM run times per program, in Fig. 8 order.
    pub vm_ms: Vec<Vec<f64>>,
    /// C binary wall times (spawn to exit) per program.
    pub c_ms: Vec<Vec<f64>>,
    /// Summed `VmStats` of one run of each program.
    pub stats: VmStats,
    /// Rounds completed.
    pub rounds: usize,
}

fn run_binary(path: &Path) -> Result<String, String> {
    let out = Command::new(path).output().map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("{} exited with {}", path.display(), out.status));
    }
    Ok(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The run stage in progress: rounds over all programs, each in a
/// fresh seeded order.  Every output is compared with the reference.  A
/// traced run also times the Hobbit baseline and the trivial binary.
pub struct Runs<'a> {
    setup: &'a RunSetup,
    rng: Rng,
    /// What the rounds so far measured.
    pub result: RunResult,
}

impl<'a> Runs<'a> {
    /// No rounds yet.
    #[must_use]
    pub fn new(setup: &'a RunSetup, rng: Rng) -> Runs<'a> {
        let n = setup.programs.len();
        Runs {
            setup,
            rng,
            result: RunResult {
                vm_ms: vec![Vec::new(); n],
                c_ms: vec![Vec::new(); n],
                ..RunResult::default()
            },
        }
    }

    /// Runs whole rounds until `slice` is spent, at least one.
    pub fn step(&mut self, slice: Duration, tr: &mut Tracer, checks: &mut Checks) {
        let start = Instant::now();
        loop {
            self.round(tr, checks);
            if start.elapsed() >= slice {
                break;
            }
        }
    }

    fn round(&mut self, tr: &mut Tracer, checks: &mut Checks) {
        let res = &mut self.result;
        for i in shuffled(self.setup.programs.len(), &mut self.rng) {
            let p = &self.setup.programs[i];
            let id = i as u64;
            let t = Instant::now();
            let out = tr.leaf("vm.run", id, || p.vm.run(&p.args, Limits::default()));
            res.vm_ms[i].push(t.elapsed().as_secs_f64() * 1e3);
            if let Ok((_, stats)) = &out {
                if res.rounds == 0 {
                    res.stats.steps += stats.steps;
                    res.stats.allocs += stats.allocs;
                    res.stats.calls += stats.calls;
                }
            }
            checks.check(matches!(&out, Ok((v, _)) if *v == p.reference), || {
                format!("{}: VM gave {out:?}, reference {}", p.name, p.reference)
            });
            let t = Instant::now();
            let out = tr.leaf("backend-c.run", id, || run_binary(&p.binary));
            res.c_ms[i].push(t.elapsed().as_secs_f64() * 1e3);
            let want = p.reference.to_string();
            checks.check(out.as_deref() == Ok(want.as_str()), || {
                format!("{}: C binary gave {out:?}, reference {want}", p.name)
            });
            if tr.enabled() {
                let out = tr.leaf("hobbit.run", id, || {
                    p.hobbit.run(&p.entry, &p.args, Limits::default())
                });
                checks.check(out.as_ref() == Ok(&p.reference), || {
                    format!("{}: Hobbit gave {out:?}", p.name)
                });
                let out = tr.leaf("backend-c.spawn", id, || run_binary(&self.setup.trivial));
                checks.check(out.is_ok(), || format!("trivial binary: {out:?}"));
            }
        }
        res.rounds += 1;
    }
}
