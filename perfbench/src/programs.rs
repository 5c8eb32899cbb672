//! The benchmark's inputs: the Fig. 8 suite, a generated program pool,
//! and each program's reference result from the Fig. 3 standard
//! interpreter, which shares no code with the compiler under test.

use pe_interp::{Datum, Limits};
use pe_siege::rng::Rng;
use realistic_pe::{Pipeline, SUITE};

/// Root seed of the generated pool.  The pool is the same for every
/// `--seed`; see `NOTES.md` for why the seed draws order and traffic
/// over it rather than the programs themselves.
pub const POOL_SEED: u64 = 0x005E_ED0F_F188;

/// Budget of the reference interpreter on generated programs.  The
/// call depth is bounded well below the default: the standard
/// interpreter recurses on the host stack, and the default cap
/// overflowed the 1 GiB worker stack on a generated case.  The Fig. 8
/// programs run under the default limits, which they are known to fit.
#[must_use]
pub fn generated_reference_limits() -> Limits {
    Limits::builder()
        .with_depth(10_000)
        .with_fuel(20_000_000)
        .build()
}

/// Budget of the VM when a generated residual is checked: larger than
/// the reference's, so a program the reference finishes never runs out
/// of fuel on the VM first.
#[must_use]
pub fn vm_limits() -> Limits {
    Limits::builder().with_fuel(200_000_000).build()
}

/// One subject program with its entry call.
#[derive(Debug, Clone)]
pub struct Program {
    /// `deriv`, …, or `gen-<i>`.
    pub name: String,
    /// Subject-language source.
    pub source: String,
    /// Entry procedure.
    pub entry: String,
    /// Entry arguments.
    pub args: Vec<Datum>,
    /// Budget of the reference run.
    pub reference_limits: Limits,
}

impl Program {
    /// The reference result, or `None` when the reference itself traps
    /// (a run-time error or an exhausted budget): such programs are
    /// compiled and timed but not compared.
    #[must_use]
    pub fn reference(&self) -> Option<Datum> {
        let pipe = Pipeline::new(&self.source).ok()?;
        pipe.run_standard(&self.entry, &self.args, self.reference_limits)
            .ok()
    }
}

/// The seven Fig. 8 programs at their `bench_args`.
#[must_use]
pub fn fig8() -> Vec<Program> {
    SUITE
        .iter()
        .map(|b| Program {
            name: b.name.to_string(),
            source: b.source.to_string(),
            entry: b.entry.to_string(),
            args: b.bench_inputs(),
            reference_limits: Limits::default(),
        })
        .collect()
}

/// `n` programs from `pe_siege::gen::gen_case`, one forked generator
/// each, always the same for a given `n`.
#[must_use]
pub fn generated(n: usize) -> Vec<Program> {
    let mut rng = Rng::new(POOL_SEED);
    (0..n)
        .map(|i| {
            let case = pe_siege::gen::gen_case(&mut rng.fork());
            Program {
                name: format!("gen-{i}"),
                source: case.source,
                entry: case.entry,
                args: case.args,
                reference_limits: generated_reference_limits(),
            }
        })
        .collect()
}

/// A seeded Fisher–Yates permutation of `0..n`.
#[must_use]
pub fn shuffled(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
    v
}

/// Counts checked outputs and mismatches.
#[derive(Debug, Default)]
pub struct Checks {
    /// Outputs compared, compiles and requests attempted.
    pub attempted: u64,
    /// Wrong results, errors and rejections.
    pub failed: u64,
}

impl Checks {
    /// Counts `n` attempts that succeeded.
    pub fn pass(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one attempt; a failure is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("perfbench: FAILED {}", what());
            }
        }
    }
}
