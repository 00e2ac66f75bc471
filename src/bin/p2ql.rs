// The CLI reads files and flags from outside: every panic path must be
// justified. unwrap/expect are clippy-warned outside tests (see
// scripts/tier1.sh, which denies warnings).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

//! `p2ql` — command-line front end for OverLog programs.
//!
//! ```text
//! p2ql check  prog.olg ...             # full static analysis (see below)
//! p2ql fmt    prog.olg                 # canonical pretty-printed source
//! p2ql plan   prog.olg [--opt off]     # EXPLAIN the compiled rule strands
//! p2ql run    prog.olg [options]       # execute on a simulated population
//! p2ql trace  prog.olg [options]       # run + dump ruleExec/tupleTable
//! p2ql replay [options]                # forensic time-travel demo (below)
//! p2ql recover --dir PATH              # offline durable-log recovery audit
//!
//! check runs the whole `p2-analysis` pipeline — validation, type
//! inference, location safety, liveness lints, and a planner dry run —
//! and renders every finding with a source snippet. Multiple files are
//! checked independently; with `--stack` they are analyzed as one
//! stack, in order (base application first, monitors after), which is
//! how they would be installed. `--extern EVENT` (repeatable) names an
//! event relation injected from outside — an operator console — so
//! consuming it is not flagged. Exit status is non-zero when any file
//! has errors or warnings; notes are informational.
//!
//! check options beyond `--stack` / `--extern`:
//!   --deep     run the flow analyzer too (DESIGN.md §2.13): cascade
//!              termination (P2W601), amplification bounds (P2W602),
//!              stratification (P2E603); prints per-root worst-case
//!              cascade depth and amplification after the verdict
//!   --json     machine-readable report on stdout: one array with an
//!              object per checked stack ({stack, passes, diagnostics,
//!              flow}); unbounded flow bounds render as null
//!   --chord    prepend the built-in Chord program and the §3 monitor
//!              suite to the stack (implies --stack; no files needed) —
//!              how tier-1 gates the shipped corpus
//!
//! run/trace options:
//!   --nodes N        population size (default 1; addresses n0..n[N-1])
//!   --for SECS       virtual seconds to run (default 30)
//!   --watch REL      print tuples of this relation as they appear
//!                    (repeatable)
//!   --dump TABLE     print the table's rows at the end (repeatable)
//!   --seed S         simulation seed (default 1)
//!   --latency MS     link latency in milliseconds (default 10)
//! ```
//!
//! The program is installed on **every** node; per-node facts can use
//! explicit addresses (`node@"n0"(0x11).`). This is the operator-console
//! stand-in: the paper's §1.3 usage of writing a monitoring query and
//! pointing it at a running system, here bootstrapped from files.
//!
//! `replay` is the forensic (§3 + DESIGN.md §2.11) demonstration: it
//! runs a Chord ring in forensic mode (tracing + archive tier on),
//! corrupts one successor pointer mid-run, lets stabilization heal it
//! and the live soft state expire, and then answers "was the ring
//! well-formed at instant T?" **retrospectively** — from archived
//! segments alone. The report is canonical text: the same seed prints
//! byte-identical output at any shard count (the tier-1 determinism
//! gate diffs 1 shard against 4).
//!
//! replay options:
//!   --nodes N        ring size (default 5, minimum 3)
//!   --seed S         simulation seed (default 1)
//!   --shards K       split the population over K shards (default 1)
//!   --warm SECS      stabilization warm-up (default 180)
//!   --post SECS      run-on after the corruption (default 120; must
//!                    exceed the routing-row lifetime so the probed
//!                    history is truly expired)
//!   --collect        add a collector node the ring streams sealed
//!                    segments to (DESIGN.md §2.12 subscribe mode) and
//!                    answer every verdict from the collector's
//!                    deployment-wide history instead of walking each
//!                    origin's archive. The report must be
//!                    byte-identical either way — tier-1 diffs the two.
//!   --restart I      after the post run, crash-restart ring node I
//!                    (mod ring size): all soft state is lost, the
//!                    archive recovers from the durable segment log
//!                    (DESIGN.md §2.14), and every verdict over
//!                    pre-crash instants is answered from recovered
//!                    segments. Implies durability (in-memory backend
//!                    unless --data-dir is also given). The report is
//!                    still shard-count-invariant — tier-1 diffs 1
//!                    shard against 4 with a restart injected.
//!   --data-dir PATH  put the durable logs on disk under PATH (one
//!                    subdirectory per node); implies durability.
//!                    `p2ql recover --dir PATH/<node>` audits what a
//!                    reboot would recover from such a directory.

use p2ql::core::{NodeConfig, ParallelHarness, SimHarness};
use p2ql::net::SimConfig;
use p2ql::store::AuditRefused;
use p2ql::types::{TimeDelta, Value};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("usage: p2ql <check|fmt|plan|run|trace|replay|recover> [file.olg] [options]");
        return ExitCode::from(2);
    };
    if cmd == "check" {
        return check(&args[1..]);
    }
    if cmd == "replay" {
        return replay(&args[1..]);
    }
    if cmd == "recover" {
        return recover(&args[1..]);
    }
    let Some(path) = args.get(1) else {
        eprintln!("missing program file");
        return ExitCode::from(2);
    };
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };

    match cmd.as_str() {
        "fmt" => fmt(&src),
        "plan" => plan(&src, &args[2..]),
        "run" => run(&src, &args[2..], false),
        "trace" => run(&src, &args[2..], true),
        other => {
            eprintln!("unknown command '{other}'");
            ExitCode::from(2)
        }
    }
}

fn check(args: &[String]) -> ExitCode {
    use p2ql::analysis::{check_sources_with, AnalysisCtx, CheckOpts, FlowReport};
    use p2ql::overlog::{Severity, SourceUnit};

    let mut stack = false;
    let mut deep = false;
    let mut json = false;
    let mut chord = false;
    let mut ctx = AnalysisCtx::default();
    let mut paths: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--stack" => stack = true,
            "--deep" => deep = true,
            "--json" => json = true,
            "--chord" => {
                chord = true;
                stack = true; // the builtins only make sense as one stack
            }
            "--extern" => match it.next() {
                Some(name) => {
                    ctx.external_events.insert(name.clone());
                }
                None => {
                    eprintln!("--extern needs an event relation name");
                    return ExitCode::from(2);
                }
            },
            other if other.starts_with("--") => {
                eprintln!("unknown check option '{other}'");
                return ExitCode::from(2);
            }
            p => paths.push(p),
        }
    }
    if paths.is_empty() && !chord {
        eprintln!(
            "usage: p2ql check [--stack] [--deep] [--json] [--chord] \
             [--extern EVENT] <file.olg> [more.olg ...]"
        );
        return ExitCode::from(2);
    }

    // `--chord` prepends the built-in Chord overlay plus the §3 monitor
    // suite, so the shipped corpus can be gated without source files on
    // disk (tier-1 runs `p2ql check --deep --chord`).
    let mut names: Vec<String> = Vec::new();
    let mut sources: Vec<String> = Vec::new();
    if chord {
        use p2ql::monitor::{ordering, oscillation, ring, watchpoints};
        let builtins = [
            (
                "<builtin:chord>",
                p2ql::chord::chord_program(&p2ql::chord::ChordConfig::default()),
            ),
            ("<builtin:ring-active>", ring::active_probe_program(10)),
            ("<builtin:ring-passive>", ring::passive_check_program()),
            ("<builtin:ordering>", ordering::opportunistic_program()),
            ("<builtin:traversal>", ordering::traversal_program()),
            ("<builtin:oscillation>", oscillation::full_program()),
            ("<builtin:watchpoints>", watchpoints::suite_program(10)),
        ];
        for (n, s) in builtins {
            names.push(n.to_string());
            sources.push(s);
        }
        // The token traversal starts from the operator console
        // (`ordering::start_traversal` injects it), not from a rule.
        ctx.external_events.insert("orderingEvent".to_string());
    }
    for p in &paths {
        match std::fs::read_to_string(p) {
            Ok(s) => {
                names.push((*p).to_string());
                sources.push(s);
            }
            Err(e) => {
                eprintln!("cannot read {p}: {e}");
                return ExitCode::from(2);
            }
        }
    }

    // Each file alone, or all files as one install stack.
    let groups: Vec<Vec<usize>> = if stack {
        vec![(0..names.len()).collect()]
    } else {
        (0..names.len()).map(|i| vec![i]).collect()
    };

    let opts = CheckOpts { deep };
    let mut failed = false;
    let mut json_groups: Vec<String> = Vec::new();
    for group in groups {
        let units: Vec<SourceUnit<'_>> = group
            .iter()
            .map(|&i| SourceUnit {
                name: &names[i],
                src: &sources[i],
            })
            .collect();
        let report = check_sources_with(&units, &ctx, &opts);
        let label = group
            .iter()
            .map(|&i| names[i].as_str())
            .collect::<Vec<_>>()
            .join(" + ");
        if !report.passes() {
            failed = true;
        }
        if json {
            json_groups.push(check_group_json(&label, &units, &report));
            continue;
        }
        if report.diags.items.is_empty() {
            let rules: usize = report.programs.iter().map(|p| p.rules().count()).sum();
            let tables: usize = report
                .programs
                .iter()
                .map(|p| p.materializations().count())
                .sum();
            println!("{label}: ok ({rules} rules, {tables} tables)");
        } else {
            eprint!("{}", report.diags.render(&units));
            let (e, w, n) = (
                report.diags.count(Severity::Error),
                report.diags.count(Severity::Warning),
                report.diags.count(Severity::Note),
            );
            eprintln!("{label}: {e} errors, {w} warnings, {n} notes");
        }
        if let Some(flow) = &report.flow {
            print_flow_summary(flow);
        }
    }
    if json {
        println!("[{}]", json_groups.join(","));
    }
    return if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    };

    /// Human-readable `--deep` epilogue: worst-case cascade bounds per
    /// external root, and how many strata the stack needs.
    fn print_flow_summary(flow: &FlowReport) {
        let max_stratum = flow.strata.values().copied().max().unwrap_or(0);
        println!("  flow: {} strata, roots: {}", max_stratum + 1, {
            if flow.roots.is_empty() {
                "none".to_string()
            } else {
                flow.roots.join(", ")
            }
        });
        for root in &flow.roots {
            let depth = flow
                .depth
                .get(root)
                .map_or("0".to_string(), |b| b.to_string());
            let amp = flow
                .amplification
                .get(root)
                .map_or("0".to_string(), |b| b.to_string());
            println!("    {root}: cascade depth {depth}, amplification {amp}");
        }
    }
}

/// One `--json` result object for a check group. Hand-rolled (the tree
/// is small and flat; no serializer dependency wanted).
fn check_group_json(
    label: &str,
    units: &[p2ql::overlog::SourceUnit<'_>],
    report: &p2ql::analysis::CheckReport,
) -> String {
    use p2ql::analysis::Bound;

    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    fn bound(b: &Bound) -> String {
        match b {
            Bound::Finite(n) => n.to_string(),
            Bound::Unbounded => "null".to_string(),
        }
    }

    let mut diags = Vec::new();
    for d in &report.diags.items {
        let file = units.get(d.unit).map(|u| u.name).unwrap_or("<unknown>");
        let (line, col) = d
            .span
            .map_or(("null".to_string(), "null".to_string()), |s| {
                (s.line.to_string(), s.col.to_string())
            });
        let context = d
            .context
            .as_deref()
            .map_or("null".to_string(), |c| format!("\"{}\"", esc(c)));
        let help = d
            .help
            .as_deref()
            .map_or("null".to_string(), |h| format!("\"{}\"", esc(h)));
        diags.push(format!(
            "{{\"code\":\"{}\",\"severity\":\"{}\",\"file\":\"{}\",\
             \"line\":{line},\"col\":{col},\"message\":\"{}\",\
             \"context\":{context},\"help\":{help}}}",
            d.code,
            d.severity,
            esc(file),
            esc(&d.message),
        ));
    }

    let flow = report.flow.as_ref().map_or("null".to_string(), |f| {
        let roots: Vec<String> = f.roots.iter().map(|r| format!("\"{}\"", esc(r))).collect();
        let depth: Vec<String> = f
            .depth
            .iter()
            .map(|(r, b)| format!("\"{}\":{}", esc(r), bound(b)))
            .collect();
        let amp: Vec<String> = f
            .amplification
            .iter()
            .map(|(r, b)| format!("\"{}\":{}", esc(r), bound(b)))
            .collect();
        let strata: Vec<String> = f
            .strata
            .iter()
            .map(|(r, s)| format!("\"{}\":{s}", esc(r)))
            .collect();
        format!(
            "{{\"roots\":[{}],\"depth\":{{{}}},\"amplification\":{{{}}},\
             \"strata\":{{{}}}}}",
            roots.join(","),
            depth.join(","),
            amp.join(","),
            strata.join(",")
        )
    });

    format!(
        "{{\"stack\":\"{}\",\"passes\":{},\"diagnostics\":[{}],\"flow\":{flow}}}",
        esc(label),
        report.passes(),
        diags.join(",")
    )
}

fn fmt(src: &str) -> ExitCode {
    match p2ql::overlog::parse_program(src) {
        Ok(p) => {
            print!("{}", p2ql::overlog::pretty::program_to_string(&p));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn plan(src: &str, args: &[String]) -> ExitCode {
    let mut opts = p2ql::planner::PlanOpts::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--opt" => match it.next().map(String::as_str) {
                Some("off") => opts = p2ql::planner::PlanOpts::off(),
                Some("full") => opts = p2ql::planner::PlanOpts::default(),
                other => {
                    eprintln!("--opt needs 'off' or 'full', got {other:?}");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown plan option '{other}'");
                return ExitCode::from(2);
            }
        }
    }
    let program = match p2ql::overlog::compile(src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let compiled = match p2ql::planner::compile_program_with(&program, &Default::default(), &opts) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("plan error: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", p2ql::planner::explain(&compiled));
    ExitCode::SUCCESS
}

struct RunOpts {
    nodes: usize,
    secs: u64,
    seed: u64,
    latency_ms: u64,
    watches: Vec<String>,
    dumps: Vec<String>,
}

fn parse_opts(args: &[String]) -> Result<RunOpts, String> {
    let mut o = RunOpts {
        nodes: 1,
        secs: 30,
        seed: 1,
        latency_ms: 10,
        watches: Vec::new(),
        dumps: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--nodes" => {
                o.nodes = val("--nodes")?
                    .parse()
                    .map_err(|e| format!("--nodes: {e}"))?
            }
            "--for" => o.secs = val("--for")?.parse().map_err(|e| format!("--for: {e}"))?,
            "--seed" => o.seed = val("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--latency" => {
                o.latency_ms = val("--latency")?
                    .parse()
                    .map_err(|e| format!("--latency: {e}"))?
            }
            "--watch" => o.watches.push(val("--watch")?),
            "--dump" => o.dumps.push(val("--dump")?),
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    if o.nodes == 0 {
        return Err("--nodes must be at least 1".into());
    }
    Ok(o)
}

fn run(src: &str, args: &[String], tracing: bool) -> ExitCode {
    let opts = match parse_opts(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut sim = SimHarness::new(
        SimConfig {
            latency: TimeDelta::from_millis(opts.latency_ms),
            ..Default::default()
        },
        NodeConfig {
            tracing,
            ..Default::default()
        },
        opts.seed,
    );
    for i in 0..opts.nodes {
        sim.add_node(&format!("n{i}"));
    }
    let addrs = sim.addrs().to_vec();
    for a in &addrs {
        if let Err(e) = sim.install(a, src) {
            eprintln!("install on {a} failed: {e}");
            return ExitCode::FAILURE;
        }
        for w in &opts.watches {
            sim.node_mut(a).watch(w);
        }
    }
    sim.run_for(TimeDelta::from_secs(opts.secs));

    for a in &addrs {
        for w in opts.watches.clone() {
            for (t, tup) in sim.node_mut(a).take_watched(&w) {
                println!("[{t}] {a}: {tup}");
            }
        }
    }
    let now = sim.now();
    for d in &opts.dumps {
        // A typo would otherwise dump nothing and exit 0. On stderr, so
        // stdout stays byte-comparable.
        let mut nodes = addrs.iter();
        if !nodes.any(|a| sim.node_mut(a).catalog_mut().is_materialized(d)) {
            eprintln!("warning: --dump {d}: no such table on any node");
        }
    }
    for a in &addrs {
        for d in &opts.dumps {
            for row in sim.node_mut(a).table_scan(d, now) {
                println!("{a}: {row}");
            }
        }
    }
    if tracing {
        for a in &addrs {
            let execs = sim.node_mut(a).table_scan("ruleExec", now);
            println!("-- {a}: {} ruleExec rows", execs.len());
            for row in execs.iter().take(50) {
                // Resolve memoized IDs back to content for readability.
                let fmt_id = |v: Option<&Value>| match v {
                    Some(Value::Id(i)) => sim
                        .node(a)
                        .trace_content_of(p2ql::types::TupleId(i.0))
                        .map(|t| t.to_string())
                        .unwrap_or_else(|| format!("{i}")),
                    Some(other) => other.to_string(),
                    None => "?".into(),
                };
                println!(
                    "   {} : {} -> {}  [{}]",
                    row.get(1).map(|v| v.to_string()).unwrap_or_default(),
                    fmt_id(row.get(2)),
                    fmt_id(row.get(3)),
                    if row.get(6) == Some(&Value::Bool(true)) {
                        "event"
                    } else {
                        "precond"
                    },
                );
            }
        }
    }
    ExitCode::SUCCESS
}

struct ReplayOpts {
    nodes: usize,
    seed: u64,
    shards: usize,
    warm_secs: u64,
    post_secs: u64,
    collect: bool,
    /// Crash-restart the ring node with this index after the post run;
    /// its soft state is lost and its archive recovers from the durable
    /// log (DESIGN.md §2.14). Implies durability (in-memory backend
    /// unless `--data-dir` picks the file backend).
    restart: Option<usize>,
    /// Root directory for file-backed durable logs (one subdirectory
    /// per node). Implies durability.
    data_dir: Option<String>,
}

fn parse_replay_opts(args: &[String]) -> Result<ReplayOpts, String> {
    let mut o = ReplayOpts {
        nodes: 5,
        seed: 1,
        shards: 1,
        warm_secs: 180,
        post_secs: 120,
        collect: false,
        restart: None,
        data_dir: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--nodes" => {
                o.nodes = val("--nodes")?
                    .parse()
                    .map_err(|e| format!("--nodes: {e}"))?
            }
            "--seed" => o.seed = val("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--shards" => {
                o.shards = val("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?
            }
            "--warm" => o.warm_secs = val("--warm")?.parse().map_err(|e| format!("--warm: {e}"))?,
            "--post" => o.post_secs = val("--post")?.parse().map_err(|e| format!("--post: {e}"))?,
            "--collect" => o.collect = true,
            "--restart" => {
                o.restart = Some(
                    val("--restart")?
                        .parse()
                        .map_err(|e| format!("--restart: {e}"))?,
                )
            }
            "--data-dir" => o.data_dir = Some(val("--data-dir")?),
            other => return Err(format!("unknown replay option '{other}'")),
        }
    }
    if o.nodes < 3 {
        return Err("--nodes must be at least 3 (the scenario mis-points one link)".into());
    }
    if o.shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    Ok(o)
}

/// The deterministic forensic scenario. The engine is bit-identical at
/// every shard count, which is what makes the report
/// shard-count-invariant.
fn replay_scenario(sim: &mut ParallelHarness, o: &ReplayOpts) -> String {
    use p2ql::chord::{build_ring, ChordConfig};
    use p2ql::monitor::retrospect::{self, History};
    use p2ql::types::{Time, Tuple};
    use std::fmt::Write as _;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "replay: nodes={} seed={} warm={}s post={}s",
        o.nodes, o.seed, o.warm_secs, o.post_secs
    );

    let ring = build_ring(sim, o.nodes, &ChordConfig::default());
    // Collect mode: one extra node runs no programs at all — the ring
    // streams its sealed segments there at every GC sweep, and every
    // retrospective verdict below reads that node's deployment-wide
    // history instead of walking each origin's own archive.
    let collector = o.collect.then(|| {
        let c = sim.add_node("collector");
        for addr in ring.addrs.clone() {
            sim.node_mut(&addr).ship_subscribe(c.clone());
        }
        c
    });
    sim.run_for(TimeDelta::from_secs(o.warm_secs));
    let t_healthy = sim.now();
    sim.run_for(TimeDelta::from_secs(1));

    // Mis-point the lowest-ID node's successor two positions ahead —
    // the §3.1 malformation, injected at a known instant.
    let sorted = ring.live_sorted(sim);
    let victim = sorted[0].1.clone();
    let wrong = sorted[2].1.clone();
    sim.inject(
        &victim,
        Tuple::new(
            "bestSucc",
            [
                Value::Addr(victim.clone()),
                Value::Id(ring.id_of(&wrong)),
                Value::Addr(wrong.clone()),
            ],
        ),
    );
    let t_corrupt = sim.now();
    let _ = writeln!(out, "corruption at {t_corrupt}: {victim} -> {wrong}");

    // Run on: stabilization heals the ring, and the row versions valid
    // at both probe instants expire out of the live tier. Everything
    // below reads archived history.
    sim.run_for(TimeDelta::from_secs(o.post_secs));

    // Crash-restart: the chosen node loses every piece of soft state
    // and recovers its sealed archive from the durable log, then the
    // ring re-stabilizes. The verdicts below range over instants before
    // the crash — they are answered from recovered segments.
    if let Some(i) = o.restart {
        let addr = ring.addrs[i % ring.addrs.len()].clone();
        let _ = writeln!(
            out,
            "crash-restart {addr}: soft state lost, archive recovered from the durable log"
        );
        if sim.restart(&addr).is_err() {
            let _ = writeln!(out, "  restart failed to reinstall programs");
        }
        // Subscriptions are soft state too: re-enroll the reborn origin.
        // Its bumped announce generation makes the collector re-baseline
        // rather than ignore announcements it thinks it has seen.
        if let Some(c) = &collector {
            sim.node_mut(&addr).ship_subscribe(c.clone());
        }
        sim.run_for(TimeDelta::from_secs(30));
    }
    let t_end = sim.now();

    let history = match &collector {
        Some(c) => History::from((&ring, c)),
        None => History::from(&ring),
    };
    let verdict = |sim: &mut ParallelHarness, t: Time, out: &mut String| {
        let wf = retrospect::ring_was_well_formed_at(sim, history, t);
        let viols = retrospect::ordering_violations_at(sim, history, t);
        let _ = writeln!(
            out,
            "[{t}] ring: {}, {} ordering violation(s)",
            if wf { "well-formed" } else { "MALFORMED" },
            viols.len()
        );
        for v in viols {
            let _ = writeln!(
                out,
                "  {} points at {}, expected {}",
                v.node, v.actual, v.expected
            );
        }
    };
    verdict(sim, t_healthy, &mut out);
    verdict(sim, t_corrupt, &mut out);
    verdict(sim, t_end, &mut out);

    let osc = retrospect::oscillators_in(sim, history, t_healthy, t_end, 2);
    let _ = writeln!(out, "oscillators in [{t_healthy} .. {t_end}]:");
    for (addr, flips) in osc {
        let _ = writeln!(out, "  {addr}: {flips} successor flips");
    }

    // Evidence the answers came from segments, not live rows: per node,
    // how many bestSucc versions the archive holds vs one live row.
    let _ = writeln!(out, "archived bestSucc versions:");
    match &collector {
        Some(c) => {
            let rows = sim
                .node_mut(c)
                .deployment_history_scan("bestSucc", Time::ZERO, t_end, t_end)
                .unwrap_or_default();
            for addr in ring.addrs.clone() {
                let n = rows
                    .iter()
                    .filter(|r| {
                        r.dropped_at.is_some()
                            && r.tuple
                                .get(0)
                                .and_then(Value::to_addr)
                                .is_some_and(|a| a == addr)
                    })
                    .count();
                let _ = writeln!(out, "  {addr}: {n}");
            }
            // Shipping evidence goes to stderr so stdout stays
            // byte-comparable with the walk-the-origins report.
            let stats = sim.node(c).ship_stats();
            eprintln!(
                "collect: {} announce chunks received, {} imports applied, {} bytes",
                stats.announce_chunks_received, stats.announces_applied, stats.bytes_received
            );
        }
        None => {
            for addr in ring.addrs.clone() {
                let rows = sim
                    .node_mut(&addr)
                    .history_scan("bestSucc", Time::ZERO, t_end, t_end)
                    .map(|rs| rs.iter().filter(|r| r.dropped_at.is_some()).count())
                    .unwrap_or(0);
                let _ = writeln!(out, "  {addr}: {rows}");
            }
        }
    }
    out
}

/// `p2ql recover --dir PATH` — offline recovery audit of one node's
/// file-backed durable log directory (DESIGN.md §2.14). Runs the same
/// recovery pass a booting node would (torn tails truncated, corrupt
/// frames quarantined, dirty logs rewritten clean) and prints the
/// per-relation summary. Exits 0 on any directory that holds a store,
/// no matter how damaged the logs are — recovery never panics — and
/// non-zero, changing nothing, on a path that holds none or a store of
/// another format (whose tag it names).
fn recover(args: &[String]) -> ExitCode {
    let mut dir: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--dir" => dir = it.next().cloned(),
            other => {
                eprintln!("unknown recover option '{other}'");
                return ExitCode::from(2);
            }
        }
    }
    let Some(dir) = dir else {
        eprintln!("usage: p2ql recover --dir PATH");
        return ExitCode::from(2);
    };
    match p2ql::store::recovery_report(std::path::Path::new(&dir)) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(AuditRefused::NoStore) => {
            eprintln!("error: no durable store at {dir}");
            ExitCode::FAILURE
        }
        Err(AuditRefused::OtherFormat(tag)) => {
            eprintln!(
                "error: {dir} holds a durable store of format '{tag}'; this build reads '{}' \
                 and left it untouched",
                p2ql::store::durable::MANIFEST_TAG
            );
            ExitCode::FAILURE
        }
    }
}

fn replay(args: &[String]) -> ExitCode {
    let o = match parse_replay_opts(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut node_config = NodeConfig::forensic();
    // `--restart` / `--data-dir` switch durability on: every sealed
    // segment is logged (in memory, or under the data dir) so the
    // crash-restart step can recover it. With neither flag the run is
    // byte-identical to before durability existed.
    if o.restart.is_some() || o.data_dir.is_some() {
        node_config.durability = Some(p2ql::core::DurabilityMode {
            backend: match &o.data_dir {
                Some(dir) => p2ql::core::DurableBackend::Dir(dir.into()),
                None => p2ql::core::DurableBackend::Memory,
            },
            fsync: false,
            plan: None,
        });
    }
    let mut sim = ParallelHarness::new(SimConfig::default(), node_config, o.seed, o.shards);
    print!("{}", replay_scenario(&mut sim, &o));
    ExitCode::SUCCESS
}
