//! The timing gate: compares a fresh run with the committed baseline.
//!
//! Wall-clock time moves across machines and CI load, so a time fails
//! only past a large multiple of its baseline plus an absolute slack: the
//! gate catches "the compiler got 3× slower", not jitter.  Improvements
//! never fail.  A program missing from either side fails, so a renamed or
//! dropped benchmark cannot pass unnoticed.
//!
//! The baseline is plain text, one benchmark per line:
//! `name compile_ms vm_ms tail_ms hobbit_ms`.  Blank lines and lines
//! starting with `#` are skipped.  It is the format the gate prints, so
//! a run's output is a new baseline.

use crate::{Row, METRICS};

/// A time regresses when it exceeds `baseline * RATIO + SLACK_MS`.
const RATIO: f64 = 2.5;

/// Absolute slack in ms, absorbing jitter on sub-millisecond baselines.
const SLACK_MS: f64 = 25.0;

/// Reads a baseline.
///
/// # Errors
///
/// A message naming the line when a row does not have a name and four
/// finite, non-negative times, when a name repeats, or when there are no
/// rows: a baseline the gate cannot read must fail it, not pass it.
pub fn parse_baseline(text: &str) -> Result<Vec<Row>, String> {
    let mut rows: Vec<Row> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = || format!("line {}: expected `{}`: {line:?}", i + 1, header());
        let mut fields = line.split_whitespace();
        let name = fields.next().ok_or_else(bad)?.to_string();
        let times: Option<Vec<f64>> =
            fields.map(|f| f.parse().ok().filter(|ms: &f64| ms.is_finite() && *ms >= 0.0)).collect();
        let ms: [f64; 4] = times.and_then(|t| t.try_into().ok()).ok_or_else(bad)?;
        if rows.iter().any(|r| r.name == name) {
            return Err(format!("line {}: {name} appears twice", i + 1));
        }
        rows.push(Row { name, ms });
    }
    if rows.is_empty() {
        return Err("baseline has no rows".to_string());
    }
    Ok(rows)
}

/// The header line the gate prints above its rows.
#[must_use]
pub fn header() -> String {
    format!("# name {}", METRICS.join(" "))
}

/// One message per regression of `run` against `baseline`; empty means
/// the gate passes.
#[must_use]
pub fn check_regressions(baseline: &[Row], run: &[Row]) -> Vec<String> {
    let mut regressions = Vec::new();
    for base in baseline {
        let Some(now) = run.iter().find(|r| r.name == base.name) else {
            regressions.push(format!("{}: missing from the run", base.name));
            continue;
        };
        for ((metric, was), got) in METRICS.iter().zip(base.ms).zip(now.ms) {
            let limit = was * RATIO + SLACK_MS;
            if got > limit {
                regressions.push(format!(
                    "{}: {metric} regressed: {was:.3} -> {got:.3} (limit {limit:.3})",
                    base.name
                ));
            }
        }
    }
    for now in run {
        if !baseline.iter().any(|b| b.name == now.name) {
            regressions.push(format!("{}: missing from the baseline", now.name));
        }
    }
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = "# name compile_ms vm_ms tail_ms hobbit_ms\n\
                        tak 10.000 0.200 0.800 0.500\n\
                        queens 4.000 4.400 3.400 1.700\n";

    fn base() -> Vec<Row> {
        parse_baseline(BASE).expect("parses")
    }

    fn with_compile(ms: f64) -> Vec<Row> {
        let mut run = base();
        run[0].ms[0] = ms;
        run
    }

    #[test]
    fn parser_round_trips_the_shapes_the_writer_emits() {
        let rows = base();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], Row { name: "tak".to_string(), ms: [10.0, 0.2, 0.8, 0.5] });
        let printed: String = std::iter::once(header())
            .chain(rows.iter().map(Row::to_string))
            .collect::<Vec<_>>()
            .join("\n");
        assert_eq!(printed + "\n", BASE);
    }

    #[test]
    fn identical_runs_and_improvements_pass() {
        assert_eq!(check_regressions(&base(), &base()), Vec::<String>::new());
        assert_eq!(check_regressions(&base(), &with_compile(1.0)), Vec::<String>::new());
    }

    #[test]
    fn synthetic_regressions_are_caught() {
        // 10 ms -> 100 ms blows through 10 * 2.5 + 25.
        let r = check_regressions(&base(), &with_compile(100.0));
        assert_eq!(r, ["tak: compile_ms regressed: 10.000 -> 100.000 (limit 50.000)"]);
        // 10 ms -> 20 ms is jitter, not a bug.
        assert!(check_regressions(&base(), &with_compile(20.0)).is_empty());
        // A benchmark that vanished from the run is a regression, not a
        // skip; so is one the baseline does not know.
        let mut renamed = base();
        renamed[0].name = "tak2".to_string();
        let r = check_regressions(&base(), &renamed);
        assert_eq!(r, ["tak: missing from the run", "tak2: missing from the baseline"]);
    }

    #[test]
    fn incomparable_runs_error_instead_of_passing() {
        for text in [
            "not a baseline",
            "",
            "# only a header\n",
            "tak 10 0.2 0.8",
            "tak 10 0.2 0.8 0.5 0.1",
            "tak 10 0.2 0.8 fast",
            "tak 10 0.2 0.8 NaN",
            "tak 10 0.2 0.8 inf",
            "tak 10 0.2 0.8 -0.5",
            "tak 10 0.2 0.8 0.5\ntak 10 0.2 0.8 0.5",
        ] {
            assert!(parse_baseline(text).is_err(), "{text:?} parsed");
        }
    }
}
