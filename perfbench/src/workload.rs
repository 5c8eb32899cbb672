//! Workloads: the inputs the three stages share, how each workload
//! divides the measured time among the stages, and the metrics a run
//! reports.

use crate::programs::{fig8, generated, shuffled, Checks, Program};
use crate::runs::{self, RunSetup, Runs};
use crate::serve::{self, Class, Serve, ServeSetup};
use crate::stats::{geomean, median, peak_rss_mb, percentile};
use crate::stream::{self, Stream};
use crate::trace::Tracer;
use pe_interp::Datum;
use pe_siege::rng::Rng;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Generated programs in the compile stream (plus the seven Fig. 8
/// sources), enough for p99 to have ten samples beyond it.
pub const STREAM_GENERATED: usize = 1000;
/// Generated programs in the serve pool (plus the seven Fig. 8 sources).
pub const SERVE_GENERATED: usize = 393;
/// Untimed warm-up requests before the serve stage is measured.
pub const SERVE_WARMUP: usize = 800;
/// Times the set-up is repeated; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;
/// Turns each stage takes during the measured time.
pub const SLICES: u32 = 10;

/// A named traffic mix over the three stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Mostly repeated runs of the Fig. 8 programs on the VM and as C.
    Fig8Run,
    /// Mostly cold compiles of the generated stream.
    CompileStream,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::Fig8Run, Workload::CompileStream];

    /// The command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig8Run => "fig8-run",
            Workload::CompileStream => "compile-stream",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Shares of the measured time for the run, compile and serve
    /// stages.  Every workload runs all three stages on the same inputs,
    /// so that every run reports every metric; the main stage gets most
    /// of the time.
    fn shares(self) -> [f64; 3] {
        match self {
            Workload::Fig8Run => [0.6, 0.2, 0.2],
            Workload::CompileStream => [0.2, 0.6, 0.2],
        }
    }
}

/// The compile stream for `seed`: the Fig. 8 sources and the generated
/// pool, in a seeded order.
#[must_use]
pub fn stream(seed: u64) -> Vec<Program> {
    let mut programs = fig8();
    programs.extend(generated(STREAM_GENERATED));
    shuffled(programs.len(), &mut Rng::new(seed))
        .into_iter()
        .map(|i| programs[i].clone())
        .collect()
}

/// The programs pe-serve is asked for: the Fig. 8 sources and the first
/// `SERVE_GENERATED` of the generated pool.
#[must_use]
pub fn serve_pool() -> Vec<Program> {
    let mut pool = fig8();
    pool.extend(generated(SERVE_GENERATED));
    pool
}

/// Everything a run needs before the clock starts.
pub struct Setup {
    runs: RunSetup,
    stream: Vec<Program>,
    stream_refs: Vec<Option<Datum>>,
    pool: Vec<Program>,
    pool_refs: Vec<Option<Datum>>,
    serve: ServeSetup,
}

impl Setup {
    /// Builds the inputs for `seed`; binaries go to `dir`.
    ///
    /// # Errors
    ///
    /// When a Fig. 8 program cannot be compiled or its reference traps.
    pub fn new(seed: u64, dir: &Path) -> Result<Setup, String> {
        // Each program's reference is computed once, whichever stages use it.
        let mut memo: BTreeMap<String, Option<Datum>> = BTreeMap::new();
        let mut references = |programs: &[Program]| -> Vec<Option<Datum>> {
            programs
                .iter()
                .map(|p| {
                    memo.entry(p.name.clone())
                        .or_insert_with(|| p.reference())
                        .clone()
                })
                .collect()
        };
        let t = Instant::now();
        let programs = fig8();
        let runs = runs::setup(&programs, &references(&programs), dir)?;
        let runs_s = t.elapsed().as_secs_f64();
        let stream = stream(seed);
        let stream_refs = references(&stream);
        let stream_s = t.elapsed().as_secs_f64() - runs_s;
        let pool = serve_pool();
        let pool_refs = references(&pool);
        let serve = ServeSetup::new(&pool);
        serve.warm_up(SERVE_WARMUP, &mut Rng::new(seed ^ 0x5E57E));
        let serve_s = t.elapsed().as_secs_f64() - runs_s - stream_s;
        eprintln!(
            "perfbench: set-up {runs_s:.2} s runs, {stream_s:.2} s stream, {serve_s:.2} s serve"
        );
        Ok(Setup {
            runs,
            stream,
            stream_refs,
            pool,
            pool_refs,
            serve,
        })
    }
}

/// A metric as printed: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// The outcome of one run.
pub struct Report {
    /// Checks made.
    pub checks: Checks,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
}

/// What the three stages measured.
struct Measured {
    runs: runs::RunResult,
    stream: stream::StreamResult,
    served: serve::ServeResult,
}

/// Sets up `SETUP_REPS` times, then measures for `seconds`.
///
/// # Errors
///
/// When set-up fails.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    dir: &Path,
) -> Result<Report, String> {
    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        drop(setup.take());
        let t = Instant::now();
        setup = Some(Setup::new(seed, dir)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let setup = setup.expect("at least one set-up");
    let [runs_share, compile_share, serve_share] = workload.shares();
    // The stages take turns in short slices, so that each samples the
    // whole run and drift of the host's speed reaches all of them alike.
    let slice = |share: f64| Duration::from_secs_f64(seconds * share / SLICES as f64);
    let mut rng = Rng::new(seed);
    let mut tr = Tracer::new(traced);
    let mut checks = Checks::default();
    let mut runs = Runs::new(&setup.runs, rng.fork());
    let mut compiles = Stream::new(&setup.stream);
    let mut serving = Serve::new(&setup.serve, slice(serve_share) * SLICES, &mut rng.fork());
    for _ in 0..SLICES {
        runs.step(slice(runs_share), &mut tr, &mut checks);
        compiles.step(slice(compile_share), &mut tr, &mut checks);
        serving.step(slice(serve_share));
    }
    let m = Measured {
        runs: runs.result,
        stream: compiles.finish(&setup.stream_refs, &mut tr, &mut checks),
        served: serving.finish(&setup.pool, &setup.pool_refs, &mut checks),
    };
    let metrics = if traced {
        per_layer(&m, &tr, &setup.runs)
    } else {
        end_to_end(&m, median(&setup_s))
    };
    Ok(Report { checks, metrics })
}

fn end_to_end(m: &Measured, setup_s: f64) -> Vec<Metric> {
    let vm: Vec<f64> = m.runs.vm_ms.iter().map(|xs| median(xs)).collect();
    let c: Vec<f64> = m.runs.c_ms.iter().map(|xs| median(xs)).collect();
    let compile_ms = &m.stream.latency_ms;
    [
        ("setup_s", setup_s, "s"),
        ("vm_run_ms", geomean(&vm), "ms"),
        ("c_run_ms", geomean(&c), "ms"),
        ("compile_ms_p50", percentile(compile_ms, 0.5), "ms"),
        ("compile_ms_p99", percentile(compile_ms, 0.99), "ms"),
        (
            "compile_per_s",
            compile_ms.len() as f64 / m.stream.wall_s,
            "1/s",
        ),
        ("residual_nodes", m.stream.residual_nodes as f64, "count"),
        ("c_bytes", m.stream.c_bytes as f64, "bytes"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
    .into_iter()
    .map(|(name, value, unit)| (name.to_string(), value, unit))
    .collect()
}

/// Compile layers: mean ms per traced compile of each span.
const LAYERS: [&str; 14] = [
    "frontend",
    "core.cfa",
    "sct",
    "core.specialize",
    "flow.post",
    "flow.optimize",
    "verify",
    "verify.wellformed",
    "verify.closure",
    "verify.preservation",
    "verify.lints",
    "verify.flow",
    "vm.load",
    "backend-c.emit",
];

fn per_layer(m: &Measured, tr: &Tracer, runs: &RunSetup) -> Vec<Metric> {
    let mut out: Vec<Metric> = Vec::new();
    let mut push = |name: String, value: f64, unit| out.push((name, value, unit));
    let traced_compiles = tr.durations("compile").count().max(1) as f64;
    for layer in LAYERS {
        push(
            format!("{layer}.ms"),
            tr.total_ms(layer) / traced_compiles,
            "ms",
        );
    }
    let s = &m.stream;
    push("core.raw_nodes".into(), s.raw_nodes as f64, "count");
    push("flow.post_nodes".into(), s.post_nodes as f64, "count");
    push("flow.opt_nodes".into(), s.residual_nodes as f64, "count");
    let (untraced_ms, traced_ms) = s.paired_ms;
    push(
        "trace.overhead_ms".into(),
        (traced_ms - untraced_ms) / traced_compiles,
        "ms",
    );
    push("compile.samples".into(), s.latency_ms.len() as f64, "count");
    push("reference_traps".into(), s.reference_traps as f64, "count");
    for (span, prefix) in [
        ("vm.run", "vm.run.ms."),
        ("backend-c.run", "backend-c.run.ms."),
        ("hobbit.run", "hobbit.run.ms."),
    ] {
        for (i, p) in runs.programs.iter().enumerate() {
            let xs: Vec<f64> = tr
                .durations(span)
                .filter(|&(id, _)| id == i as u64)
                .map(|(_, ms)| ms)
                .collect();
            push(format!("{prefix}{}", p.name), median(&xs), "ms");
        }
    }
    let vm = m.runs.stats;
    push("vm.steps".into(), vm.steps as f64, "count");
    push("vm.allocs".into(), vm.allocs as f64, "count");
    push("vm.calls".into(), vm.calls as f64, "count");
    let cc_ms = runs.programs.iter().map(|p| p.cc_ms).sum();
    push("backend-c.cc_ms".into(), cc_ms, "ms");
    let spawn: Vec<f64> = tr.durations("backend-c.spawn").map(|(_, ms)| ms).collect();
    push("backend-c.spawn_ms".into(), median(&spawn), "ms");
    for (name, class) in [
        ("serve.hit_ms_p50", Class::Hit),
        ("serve.warm_ms_p50", Class::Warm),
        ("serve.cold_ms_p50", Class::Cold),
    ] {
        let xs: Vec<f64> = m
            .served
            .samples
            .iter()
            .filter(|s| s.class == class)
            .map(|s| s.ms)
            .collect();
        push(name.into(), median(&xs), "ms");
    }
    let serve_ms: Vec<f64> = m.served.samples.iter().map(|s| s.ms).collect();
    push("serve.ms_p50".into(), percentile(&serve_ms, 0.5), "ms");
    push("serve.ms_p99".into(), percentile(&serve_ms, 0.99), "ms");
    push(
        "serve.rps".into(),
        serve_ms.len() as f64 / m.served.wall_s,
        "1/s",
    );
    let st = m.served.stats;
    push(
        "serve.hit_ratio".into(),
        st.hits as f64 / st.lookups.max(1) as f64,
        "ratio",
    );
    push("serve.evictions".into(), st.evictions as f64, "count");
    push("serve.warm_starts".into(), st.warm_starts as f64, "count");
    push(
        "serve.samples".into(),
        m.served.samples.len() as f64,
        "count",
    );
    out
}
