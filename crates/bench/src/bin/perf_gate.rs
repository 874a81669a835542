//! CI perf-regression gate over `BENCH_timings.json` documents.
//!
//! ```text
//! perf_gate <fresh BENCH_timings.json> <baseline BENCH_timings.json> [--tolerance 0.25]
//! ```
//!
//! Compares every phase timing in the committed baseline against the
//! fresh run and exits non-zero when any phase regressed by more than
//! the tolerance (default 25%, overridable by `--tolerance`).
//!
//! Absolute wall-clock numbers are not portable across machines, so
//! both documents carry a `calibration_ms` field — the time of one
//! fixed deterministic workload on the machine that produced them. The
//! gate scales the baseline by `fresh_calibration / base_calibration`
//! before comparing, which cancels raw machine-speed differences while
//! still catching real slowdowns in the measured code. A 2 ms absolute
//! grace keeps sub-millisecond phases from tripping on scheduler noise.
//!
//! The parser is deliberately minimal (the workspace is offline, no
//! serde): it understands exactly the flat shape `timings_json` emits.

use std::process::ExitCode;

const DEFAULT_TOLERANCE: f64 = 0.25;
/// Absolute slack added to every allowance, so near-zero phases don't
/// fail on timer granularity.
const GRACE_MS: f64 = 2.0;

/// Extracts the number following `"key":` (first occurrence).
fn extract_f64(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = json.find(&pat)? + pat.len();
    let rest = &json[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts the `(name, ms)` pairs of the `entries` array.
fn extract_entries(json: &str) -> Vec<(String, f64)> {
    let Some(start) = json.find("\"entries\":[") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut rest = &json[start..];
    while let Some(i) = rest.find("\"name\":\"") {
        rest = &rest[i + "\"name\":\"".len()..];
        let Some(q) = rest.find('"') else { break };
        let name = rest[..q].to_string();
        if let Some(ms) = extract_f64(rest, "ms") {
            out.push((name, ms));
        }
        rest = &rest[q..];
    }
    out
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn tolerance(args: &[String]) -> f64 {
    args.iter()
        .position(|a| a == "--tolerance")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_TOLERANCE)
}

fn gate(fresh: &str, baseline: &str, tol: f64) -> Result<(), String> {
    let fresh_calib = extract_f64(fresh, "calibration_ms").unwrap_or(0.0);
    let base_calib = extract_f64(baseline, "calibration_ms").unwrap_or(0.0);
    let scale = if fresh_calib > 0.0 && base_calib > 0.0 {
        fresh_calib / base_calib
    } else {
        1.0
    };
    println!(
        "perf gate: calibration fresh {fresh_calib:.2} ms / baseline {base_calib:.2} ms \
         -> machine scale {scale:.3}, tolerance {:.0}%",
        tol * 100.0
    );
    let fresh_entries = extract_entries(fresh);
    let mut failures = Vec::new();
    for (name, base_ms) in extract_entries(baseline) {
        if name == "calibration" {
            continue;
        }
        let Some((_, fresh_ms)) = fresh_entries.iter().find(|(n, _)| *n == name) else {
            failures.push(format!("phase `{name}` missing from fresh timings"));
            continue;
        };
        let allowed = base_ms * scale * (1.0 + tol) + GRACE_MS;
        let verdict = if *fresh_ms > allowed { "FAIL" } else { "ok" };
        println!(
            "  {name:<12} baseline {base_ms:>9.1} ms  allowed {allowed:>9.1} ms  fresh {fresh_ms:>9.1} ms  {verdict}"
        );
        if *fresh_ms > allowed {
            failures.push(format!(
                "phase `{name}` regressed: {fresh_ms:.1} ms > allowed {allowed:.1} ms \
                 (baseline {base_ms:.1} ms, scale {scale:.3})"
            ));
        }
    }
    if failures.is_empty() {
        println!("perf gate: all phases within tolerance");
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional = Vec::new();
    let mut skip_next = false;
    for (i, a) in args.iter().enumerate() {
        if skip_next {
            skip_next = false;
            continue;
        }
        if a == "--tolerance" {
            skip_next = true;
        } else if !a.starts_with("--") {
            positional.push(args[i].as_str());
        }
    }
    let (fresh_path, base_path) = match positional.as_slice() {
        [fresh, base] => (*fresh, *base),
        _ => {
            eprintln!(
                "usage: perf_gate <fresh BENCH_timings.json> <baseline BENCH_timings.json> [--tolerance 0.25]"
            );
            return ExitCode::from(2);
        }
    };
    let run =
        || -> Result<(), String> { gate(&read(fresh_path)?, &read(base_path)?, tolerance(&args)) };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perf gate FAILED:\n{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(calib: f64, entries: &[(&str, f64)]) -> String {
        let rows: Vec<String> = entries
            .iter()
            .map(|(n, ms)| format!("{{\"name\":\"{n}\",\"ms\":{ms}}}"))
            .collect();
        format!(
            "{{\"table\":\"timings\",\"jobs\":8,\"calibration_ms\":{calib},\"total_ms\":1.0,\"entries\":[{}]}}",
            rows.join(",")
        )
    }

    #[test]
    fn parses_entries_and_calibration() {
        let d = doc(12.5, &[("table1", 1.5), ("table4", 250.0)]);
        assert_eq!(extract_f64(&d, "calibration_ms"), Some(12.5));
        assert_eq!(
            extract_entries(&d),
            vec![("table1".to_string(), 1.5), ("table4".to_string(), 250.0)]
        );
    }

    #[test]
    fn identical_runs_pass() {
        let d = doc(10.0, &[("table4", 100.0)]);
        assert!(gate(&d, &d, 0.25).is_ok());
    }

    #[test]
    fn large_regression_fails() {
        let base = doc(10.0, &[("table4", 100.0)]);
        let fresh = doc(10.0, &[("table4", 160.0)]);
        assert!(gate(&fresh, &base, 0.25).is_err());
    }

    #[test]
    fn calibration_normalises_slower_machines() {
        // The fresh machine is 2x slower overall; 2x the phase time is
        // not a regression once calibration is applied.
        let base = doc(10.0, &[("table4", 100.0)]);
        let fresh = doc(20.0, &[("table4", 200.0)]);
        assert!(gate(&fresh, &base, 0.25).is_ok());
    }

    #[test]
    fn missing_phase_fails() {
        let base = doc(10.0, &[("table4", 100.0)]);
        let fresh = doc(10.0, &[("table1", 1.0)]);
        assert!(gate(&fresh, &base, 0.25).is_err());
    }

    #[test]
    fn sub_millisecond_phases_get_grace() {
        let base = doc(10.0, &[("table1", 0.2)]);
        let fresh = doc(10.0, &[("table1", 1.9)]);
        assert!(gate(&fresh, &base, 0.25).is_ok());
    }
}
