//! `ledger compare A.json B.json`: B against A, per workload and
//! end-to-end metric, with the bounds BENCHMARK.json fixes; and the
//! determinism gate over every count that must repeat exactly.
//!
//! A file holds one report (`run --out`) or an array of them (`all
//! --out`, or several of those concatenated into one array for medians
//! and spreads).

use crate::json::Json;
use crate::stats;
use std::fmt::Write as _;

pub struct Verdict {
    pub ok: bool,
    pub text: String,
}

struct Run<'a> {
    workload: &'a str,
    seed: f64,
    seconds: f64,
    traced: bool,
    failed: f64,
    attempted: f64,
    json: &'a Json,
}

fn runs(file: &Json) -> Result<Vec<Run<'_>>, String> {
    let items = match file {
        Json::Arr(items) => items.as_slice(),
        one => std::slice::from_ref(one),
    };
    items
        .iter()
        .map(|j| {
            let num = |k: &str| j.get(k).and_then(Json::as_f64);
            Some(Run {
                workload: j.get("workload")?.as_str()?,
                seed: num("seed")?,
                seconds: num("seconds")?,
                traced: j.get("traced")?.as_bool()?,
                failed: num("failed")?,
                attempted: num("attempted")?,
                json: j,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "not a ledger report (or an array of them)".to_string())
}

fn metric(run: &Run, table: &str, name: &str) -> Option<f64> {
    run.json.get(table)?.get(name)?.get("value")?.as_f64()
}

/// The first count that differs between two runs of the same workload,
/// seed, size and mode.
fn first_mismatch(a: &Run, b: &Run) -> Option<String> {
    for table in ["end_to_end", "per_layer"] {
        for (name, m) in a.json.get(table).and_then(Json::as_obj).unwrap_or(&[]) {
            if m.get("exact").and_then(Json::as_bool) != Some(true) {
                continue;
            }
            let (va, vb) = (
                m.get("value").and_then(Json::as_f64),
                metric(b, table, name),
            );
            if va != vb {
                return Some(format!("{name}: {va:?} vs {vb:?}"));
            }
        }
    }
    None
}

/// The untraced runs of workload `w`: end-to-end numbers never come from
/// a traced run.
fn untraced<'a, 'b>(side: &'a [Run<'b>], w: &str) -> Vec<&'a Run<'b>> {
    side.iter()
        .filter(|r| r.workload == w && !r.traced)
        .collect()
}

/// IQR ÷ median, the driver's measure of spread; `None` below two runs.
fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = stats::quartiles(values)?;
    Some((q3 - q1) / q2)
}

pub fn compare(bench: &Json, a: &Json, b: &Json) -> Result<Verdict, String> {
    let (a, b) = (runs(a)?, runs(b)?);
    let mut text = String::new();
    let mut ok = true;

    // The determinism gate: same code, same seed, same size — every
    // exact count identical, within each file and across the two.
    let all: Vec<&Run> = a.iter().chain(&b).collect();
    let mut pairs = 0;
    for (i, x) in all.iter().enumerate() {
        for y in &all[i + 1..] {
            let same_input = (x.workload, x.seed, x.seconds, x.traced)
                == (y.workload, y.seed, y.seconds, y.traced);
            if !same_input {
                continue;
            }
            pairs += 1;
            if let Some(diff) = first_mismatch(x, y) {
                ok = false;
                let _ = writeln!(text, "MISMATCH {} seed={}: {diff}", x.workload, x.seed);
            }
        }
    }
    let _ = writeln!(
        text,
        "determinism: {pairs} pair(s) of runs with equal inputs checked"
    );

    let metrics = bench
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let workloads = bench
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no workloads list")?;
    let _ = writeln!(
        text,
        "{:<22} {:<18} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "change", "bound", "spread"
    );
    for w in workloads.iter().filter_map(|w| w.get("name")?.as_str()) {
        let (ra, rb) = (untraced(&a, w), untraced(&b, w));
        if ra.is_empty() || rb.is_empty() {
            continue;
        }
        let fail_frac = |runs: &[&Run]| {
            runs.iter().map(|r| r.failed).sum::<f64>()
                / runs.iter().map(|r| r.attempted).sum::<f64>().max(1.0)
        };
        let (fa, fb) = (fail_frac(&ra), fail_frac(&rb));
        if fb > fa {
            ok = false;
        }
        let _ = writeln!(
            text,
            "{w:<22} {:<18} {fa:>14.6} {fb:>14.6} {:>8} {:>7} {:>7}  {}",
            "fail_frac",
            "",
            "0",
            "",
            if fb > fa {
                "WORSE (may not rise)"
            } else {
                "within"
            }
        );
        for m in metrics {
            let (Some(name), Some(bound), Some(better)) = (
                m.get("name").and_then(Json::as_str),
                m.get("bound").and_then(Json::as_f64),
                m.get("better").and_then(Json::as_str),
            ) else {
                return Err(
                    "BENCHMARK.json: an end_to_end entry lacks name, bound or better".into(),
                );
            };
            let values = |runs: &[&Run]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| metric(r, "end_to_end", name))
                    .collect()
            };
            let (va, vb) = (values(&ra), values(&rb));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            // Positive = worse, as a share of A's median (the base).
            let sign = if better == "higher" { -1.0 } else { 1.0 };
            let change = sign * (mb - ma) / ma;
            let widest = spread(&va)
                .into_iter()
                .chain(spread(&vb))
                .fold(0.0, f64::max);
            let every_b_better = va.iter().all(|x| vb.iter().all(|y| sign * (y - x) < 0.0));
            let verdict = if widest > bound {
                if every_b_better {
                    "better"
                } else {
                    "unresolved (spread wider than bound)"
                }
            } else if change > bound {
                ok = false;
                "WORSE"
            } else if change < -bound {
                "better"
            } else {
                "within"
            };
            let _ = writeln!(
                text,
                "{w:<22} {name:<18} {ma:>14.6} {mb:>14.6} {:>+7.1}% {:>6.0}% {:>6.1}%  {verdict} (n={}/{})",
                100.0 * sign * change,
                100.0 * bound,
                100.0 * widest,
                va.len(),
                vb.len()
            );
        }
    }
    let _ = writeln!(text, "{}", if ok { "OK" } else { "NOT OK" });
    Ok(Verdict { ok, text })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench() -> Json {
        Json::parse(
            r#"{"workloads": [{"name": "w", "why": "x"}],
                "end_to_end": [
                  {"name": "latency_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1},
                  {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .expect("valid")
    }

    fn report(seed: u64, latency: f64, throughput: f64, sent: u64, failed: u64) -> Json {
        let m = |v: f64, exact: bool| {
            Json::obj([("value", Json::Num(v)), ("exact", Json::Bool(exact))])
        };
        Json::obj([
            ("workload", Json::str("w")),
            ("seed", Json::Num(seed as f64)),
            ("seconds", Json::Num(10.0)),
            ("traced", Json::Bool(false)),
            ("failed", Json::Num(failed as f64)),
            ("attempted", Json::Num(100.0)),
            (
                "end_to_end",
                Json::obj([
                    ("latency_ms_p50", m(latency, false)),
                    ("throughput_per_s", m(throughput, false)),
                ]),
            ),
            (
                "per_layer",
                Json::obj([("net.sim.total_sent", m(sent as f64, true))]),
            ),
        ])
    }

    #[test]
    fn within_bounds_and_identical_counts_pass() {
        let v = compare(
            &bench(),
            &report(1, 10.0, 100.0, 5, 0),
            &report(1, 10.5, 97.0, 5, 0),
        )
        .expect("compares");
        assert!(v.ok, "{}", v.text);
        assert!(v.text.contains("within"));
        assert!(v.text.contains("1 pair(s)"));
    }

    #[test]
    fn a_regression_in_either_direction_of_better_fails() {
        let slower = compare(
            &bench(),
            &report(1, 10.0, 100.0, 5, 0),
            &report(1, 11.5, 100.0, 5, 0),
        )
        .expect("compares");
        assert!(
            !slower.ok && slower.text.contains("WORSE"),
            "{}",
            slower.text
        );
        let less = compare(
            &bench(),
            &report(1, 10.0, 100.0, 5, 0),
            &report(1, 10.0, 85.0, 5, 0),
        )
        .expect("compares");
        assert!(!less.ok, "{}", less.text);
        let faster = compare(
            &bench(),
            &report(1, 10.0, 100.0, 5, 0),
            &report(1, 8.0, 100.0, 5, 0),
        )
        .expect("compares");
        assert!(
            faster.ok && faster.text.contains("better"),
            "{}",
            faster.text
        );
    }

    #[test]
    fn a_differing_exact_count_is_named_and_fails() {
        let v = compare(
            &bench(),
            &report(1, 10.0, 100.0, 5, 0),
            &report(1, 10.0, 100.0, 6, 0),
        )
        .expect("compares");
        assert!(!v.ok);
        assert!(
            v.text.contains("MISMATCH w seed=1: net.sim.total_sent"),
            "{}",
            v.text
        );
        // Another seed is another input: nothing to compare.
        let v = compare(
            &bench(),
            &report(1, 10.0, 100.0, 5, 0),
            &report(2, 10.0, 100.0, 6, 0),
        )
        .expect("compares");
        assert!(v.ok, "{}", v.text);
    }

    #[test]
    fn more_failures_fail_and_wide_spread_is_unresolved() {
        let v = compare(
            &bench(),
            &report(1, 10.0, 100.0, 5, 0),
            &report(1, 10.0, 100.0, 5, 1),
        )
        .expect("compares");
        assert!(!v.ok && v.text.contains("may not rise"), "{}", v.text);

        let noisy =
            |vals: &[f64]| Json::Arr(vals.iter().map(|l| report(1, *l, 100.0, 5, 0)).collect());
        let v = compare(
            &bench(),
            &noisy(&[8.0, 10.0, 12.0, 14.0]),
            &noisy(&[9.0, 12.0, 13.0, 16.0]),
        )
        .expect("compares");
        assert!(v.ok && v.text.contains("unresolved"), "{}", v.text);
        // Every run of B better than every run of A: better, however wide.
        let v = compare(
            &bench(),
            &noisy(&[8.0, 10.0, 12.0, 14.0]),
            &noisy(&[4.0, 5.0, 6.0, 7.0]),
        )
        .expect("compares");
        assert!(v.ok && v.text.contains("better"), "{}", v.text);
    }

    #[test]
    fn a_file_that_is_not_a_report_is_refused() {
        assert!(compare(&bench(), &Json::Num(1.0), &report(1, 1.0, 1.0, 1, 0)).is_err());
    }
}
