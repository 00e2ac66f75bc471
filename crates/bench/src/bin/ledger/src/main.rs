//! `ledger`: the repo's benchmark. README.md beside `Cargo.toml` has the
//! metric definitions, the layer → end-to-end map and how to run it.
//!
//! ```text
//! ledger run --workload W [--seed S] [--seconds N] [--trace 0|1] [--out F]
//! ledger all [--seed S] [--seconds N] [--trace 0|1] [--out F]
//! ledger compare A.json B.json [--bench BENCHMARK.json]
//! ```

mod compare;
mod json;
mod probes;
mod report;
mod simrun;
mod span;
mod stats;
mod workloads;

use json::Json;
use report::Report;
use span::Tracer;
use std::process::ExitCode;
use workloads::{chord, forensic, realtime, stack};

/// `--seconds` scales every measured window: the sizes in the workload
/// modules are for 10, the `run_seconds` BENCHMARK.json fixes, on the
/// 2-core box they were read off. The work is a function of the seed and
/// of `--seconds` only, never of the clock, so counts repeat exactly.
#[derive(Clone, Copy)]
pub struct Sizing {
    pub seconds: u64,
}

impl Sizing {
    pub fn scale(self, base: u64) -> u64 {
        (base * self.seconds / 10).max(1)
    }
}

/// Every workload with its default seed, in the order `all` runs them.
pub const WORKLOADS: &[(&str, u64)] = &[
    (chord::NAME, chord::DEFAULT_SEED),
    (stack::NAME, stack::DEFAULT_SEED),
    (forensic::FILL, forensic::DEFAULT_SEED),
    (forensic::QUERY, forensic::DEFAULT_SEED),
    (forensic::RECOVER, forensic::DEFAULT_SEED),
    (realtime::NAME, realtime::DEFAULT_SEED),
];

pub fn run_workload(name: &str, s: Sizing, r: &mut Report, tr: &mut Tracer) {
    match name {
        chord::NAME => chord::run(&chord::Params::sized(s), r, tr),
        stack::NAME => stack::run(&stack::Params::sized(s), r, tr),
        forensic::FILL => forensic::run_fill(&forensic::Params::sized(s), r, tr),
        forensic::QUERY => forensic::run_query(&forensic::Params::sized(s), r, tr),
        forensic::RECOVER => forensic::run_recover(&forensic::Params::sized(s), r, tr),
        realtime::NAME => realtime::run(&realtime::Params::sized(s), r, tr),
        other => unreachable!("{other} was checked against WORKLOADS"),
    }
}

/// Fill in what every workload reports the same way, once it has run.
pub fn finish(r: &mut Report) {
    match stats::peak_rss_mb() {
        Ok(mb) => r.set("peak_rss_mb", mb),
        Err(why) => {
            // The contract wants a value that is never 0; a platform
            // without VmHWM gets a run marked as such, not a made-up one.
            r.notes.push(format!("peak_rss_mb skipped: {why}"));
            r.invalid.push(format!("peak_rss_mb unavailable: {why}"));
        }
    }
    for name in r.missing_end_to_end() {
        r.invalid.push(format!("{name} was not measured"));
    }
}

struct Opts {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: u64,
    trace: bool,
    out: Option<String>,
    bench: String,
    files: Vec<String>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: None,
        seconds: 10,
        trace: false,
        out: None,
        bench: "BENCHMARK.json".to_string(),
        files: Vec::new(),
    };
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match a.as_str() {
            "--workload" => o.workload = Some(value("--workload")?),
            "--seed" => {
                o.seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                );
            }
            "--seconds" => {
                o.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&o.seconds) {
                    return Err("--seconds must be between 1 and 600".to_string());
                }
            }
            "--out" => o.out = Some(value("--out")?),
            "--bench" => o.bench = value("--bench")?,
            // `--trace`, `--trace 1` and `--trace 0` are all accepted.
            "--trace" => {
                o.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            positional => o.files.push(positional.to_string()),
        }
    }
    Ok(o)
}

fn write_file(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("write {path}: {e}"))
}

/// `--out F`'s sibling for the spans: `F` with its `.json` replaced by
/// `.trace.json`.
fn trace_path(out: &str) -> String {
    format!("{}.trace.json", out.strip_suffix(".json").unwrap_or(out))
}

fn cmd_run(mut o: Opts) -> Result<ExitCode, String> {
    let name = match (o.workload.take(), o.files.as_slice()) {
        (Some(w), []) => w,
        (None, [w]) => w.clone(),
        _ => return Err("run takes exactly one workload".to_string()),
    };
    let Some(&(name, default_seed)) = WORKLOADS.iter().find(|(n, _)| *n == name) else {
        let known: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        return Err(format!(
            "unknown workload {name}; known: {}",
            known.join(", ")
        ));
    };
    let mut r = Report::new(name, o.seed.unwrap_or(default_seed), o.seconds, o.trace);
    let mut tr = Tracer::new(o.trace);
    run_workload(name, Sizing { seconds: o.seconds }, &mut r, &mut tr);
    finish(&mut r);
    if let Some(out) = &o.out {
        write_file(out, &format!("{}\n", r.to_json().render()))?;
        if o.trace {
            write_file(&trace_path(out), &format!("{}\n", tr.to_json().render()))?;
        }
    }
    r.print_table();
    println!("{}", r.contract_line());
    Ok(if r.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Each workload in a fresh process (peak memory and allocator state
/// are per process), their reports gathered into one array.
fn cmd_all(o: Opts) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let scratch = std::env::current_dir()
        .map_err(|e| format!("current_dir: {e}"))?
        .join(format!(".ledger_all_{}.json", std::process::id()));
    let scratch_str = scratch.to_string_lossy().to_string();
    let mut reports = Vec::new();
    let mut ok = true;
    for (name, default_seed) in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["run", "--workload", name])
            .args(["--seed", &o.seed.unwrap_or(*default_seed).to_string()])
            .args(["--seconds", &o.seconds.to_string()])
            .args(["--trace", if o.trace { "1" } else { "0" }])
            .args(["--out", &scratch_str])
            .status()
            .map_err(|e| format!("spawn {name}: {e}"))?;
        ok &= status.success();
        let text = std::fs::read_to_string(&scratch);
        let _ = std::fs::remove_file(&scratch);
        let _ = std::fs::remove_file(trace_path(&scratch_str));
        match text
            .map_err(|e| e.to_string())
            .and_then(|t| Json::parse(&t))
        {
            Ok(report) => reports.push(report),
            Err(e) => {
                eprintln!("{name}: no report ({e})");
                ok = false;
            }
        }
    }
    if let Some(out) = &o.out {
        let lines: Vec<String> = reports.iter().map(Json::render).collect();
        write_file(out, &format!("[\n{}\n]\n", lines.join(",\n")))?;
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn cmd_compare(o: Opts) -> Result<ExitCode, String> {
    let [a, b] = o.files.as_slice() else {
        return Err("compare takes two report files".to_string());
    };
    let read = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let verdict = compare::compare(&read(&o.bench)?, &read(a)?, &read(b)?)?;
    print!("{}", verdict.text);
    Ok(if verdict.ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("usage: ledger <run|all|compare> ... (see README.md)");
        return ExitCode::from(2);
    };
    let result = parse_opts(rest).and_then(|o| match cmd.as_str() {
        "run" => cmd_run(o),
        "all" => cmd_all(o),
        "compare" => cmd_compare(o),
        other => Err(format!("unknown command {other}")),
    });
    result.unwrap_or_else(|e| {
        eprintln!("ledger: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_drivers_argument_form_parses() {
        let o = parse_opts(&args(
            "--workload realtime_echo --seed 9 --seconds 10 --trace 0",
        ))
        .expect("parses");
        assert_eq!(o.workload.as_deref(), Some("realtime_echo"));
        assert_eq!((o.seed, o.seconds, o.trace), (Some(9), 10, false));
        let o = parse_opts(&args("chord_monitor_256 --trace --out x.json")).expect("parses");
        assert!(o.trace);
        assert_eq!(o.files, ["chord_monitor_256"]);
        assert_eq!(trace_path("x.json"), "x.trace.json");
        assert!(parse_opts(&args("--seconds 0")).is_err());
        assert!(parse_opts(&args("--bogus")).is_err());
        assert!(parse_opts(&args("--seed")).is_err());
    }

    /// Every workload at toy size produces every end-to-end metric and
    /// the layer metrics it owns, and all of its operations succeed.
    #[test]
    fn every_workload_reports_what_it_owns_at_toy_size() {
        for (name, seed) in WORKLOADS {
            for traced in [false, true] {
                let mut r = Report::new(name, *seed, 1, traced);
                let mut tr = Tracer::new(traced);
                workloads::run_toy(name, &mut r, &mut tr);
                finish(&mut r);
                assert!(
                    r.correct(),
                    "{name} traced={traced}: failed {} of {}, invalid {:?}",
                    r.failed,
                    r.attempted,
                    r.invalid
                );
                for d in report::END_TO_END {
                    assert!(
                        r.get(d.name).is_some_and(|v| v > 0.0),
                        "{name}: {} must be measured and never 0",
                        d.name
                    );
                }
                for owned in workloads::owned_layers(name, traced) {
                    assert!(
                        r.get(owned).is_some(),
                        "{name} traced={traced}: {owned} missing"
                    );
                }
            }
        }
    }

    /// BENCHMARK.json names exactly the workloads and metrics the ledger
    /// has, with the units it prints.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let bench = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            bench
                .get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let table = |t: &[report::Def]| -> Vec<(String, String)> {
            t.iter()
                .map(|d| (d.name.to_string(), d.unit.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), table(report::END_TO_END));
        assert_eq!(names("per_layer"), table(report::PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        assert_eq!(workloads, ours);
    }
}
