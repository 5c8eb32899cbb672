//! `pe-bench BASELINE` — the CI timing gate:
//! `cargo run --release -p pe-bench -- crates/bench/baseline.txt`.
//!
//! Prints the fresh times in the baseline's format (so the output is a
//! new baseline) and exits non-zero when an engine computes a wrong
//! answer, a time exceeds `baseline × 2.5 + 25 ms`, or a benchmark is
//! missing from the run or the baseline.

use pe_bench::check::{check_regressions, header, parse_baseline};
use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(regressions) if regressions.is_empty() => {
            eprintln!("timing gate: OK");
            ExitCode::SUCCESS
        }
        Ok(regressions) => {
            eprintln!("timing gate: FAIL");
            regressions.iter().for_each(|r| eprintln!("  {r}"));
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("pe-bench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<Vec<String>, String> {
    let mut args = std::env::args().skip(1);
    let (Some(path), None) = (args.next(), args.next()) else {
        return Err("usage: pe-bench BASELINE".to_string());
    };
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let baseline = parse_baseline(&text).map_err(|e| format!("{path}: {e}"))?;
    let rows = pe_bench::run_suite()?;
    println!("{}", header());
    rows.iter().for_each(|row| println!("{row}"));
    Ok(check_regressions(&baseline, &rows))
}
