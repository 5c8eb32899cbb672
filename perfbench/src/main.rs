//! `pe-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints progress on stderr and, as the last line of stdout, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.  Exits
//! non-zero without a result when set-up fails.

use pe_perfbench::workload::{self, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// A scratch directory next to the executable, removed on drop.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pe-perfbench: {e}");
            eprintln!("usage: pe-perfbench --workload <fig8-run|compile-stream> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let exe = std::env::current_exe().expect("own executable path");
    let dir = WorkDir(exe.with_file_name(format!("perfbench-work-{}", std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&dir.0) {
        eprintln!("pe-perfbench: cannot create {}: {e}", dir.0.display());
        return ExitCode::FAILURE;
    }
    let path = dir.0.clone();
    // The standard interpreter and the Hobbit baseline recurse on the
    // host stack; everything runs on one big-stack thread.
    let result = realistic_pe::with_big_stack(move || {
        workload::run(args.workload, args.seed, args.seconds, args.trace, &path).map(|r| {
            let metrics: Vec<String> = r
                .metrics
                .iter()
                .map(|(name, value, unit)| {
                    assert!(value.is_finite(), "{name} is not finite");
                    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
                })
                .collect();
            format!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
                r.checks.failed == 0,
                r.checks.attempted,
                r.checks.failed,
                metrics.join(", ")
            )
        })
    });
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pe-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
