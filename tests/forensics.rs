//! Time-travel forensics, end to end (ISSUE acceptance criteria).
//!
//! A §3-style question — *"what did this node's state and rule activity
//! look like during the incident window?"* — must be answerable:
//!
//! * **from archive segments alone**: the forensic query is installed,
//!   and fires, at a virtual time later than every live lifetime
//!   involved (app rows at 5 s, `ruleExec` at 120 s), so the live
//!   tables hold nothing from the window;
//! * **identically however the population is stepped**: the sequential
//!   oracle and the engine at every shard count tried must produce the
//!   same answers for the same seed.

use p2ql::core::{NodeConfig, ParallelHarness, Population, SequentialOracle, SimHarness};
use p2ql::net::SimConfig;
use p2ql::types::{Time, Tuple, Value};

const APP: &str = r#"
materialize(seen, 5, 32, keys(1, 2)).
r1 seen@N(X) :- ping@N(X).
r2 echo@N(X) :- ping@N(X), X > 10.
"#;

/// The forensic queries, installed AFTER the incident has expired:
/// `past()` over the app table and over the trace table.
const FORENSICS: &str = r#"
f1 hist@N(S) :- probe@N(T0, T1), past@N("seen", T0, T1, N, S).
f2 fired@N(R, IsE) :- probe@N(T0, T1),
    past@N("ruleExec", T0, T1, N, R, C, E, TIn, TOut, IsE).
"#;

/// Drive the incident, expire it, then ask. Returns canonical sorted
/// answer lines.
fn scenario<H: Population>(sim: &mut H) -> Vec<String> {
    let a = sim.add_node("a");
    sim.install(&a, APP).expect("app installs");

    // The incident: three pings inside [0s, 40s].
    for (t, x) in [(10u64, 7i64), (20, 11), (30, 42)] {
        sim.run_until(Time::from_secs(t));
        sim.inject(
            &a,
            Tuple::new("ping", [Value::Addr(a.clone()), Value::Int(x)]),
        );
    }

    // Outlive every lifetime involved: seen at 5s, ruleExec at 120s.
    // Periodic trace GC along the way is the deployed shape.
    for t in [100u64, 200, 300] {
        sim.run_until(Time::from_secs(t));
        sim.node_mut(&a).trace_gc(Time::from_secs(t));
    }
    let now = sim.now();
    assert!(
        sim.node_mut(&a).table_scan("seen", now).is_empty(),
        "live app rows must be gone"
    );
    assert!(
        sim.node_mut(&a).table_scan("ruleExec", now).is_empty(),
        "live trace rows must be gone"
    );

    // Only now does anyone ask.
    sim.install(&a, FORENSICS).expect("forensic query installs");
    sim.node_mut(&a).watch("hist");
    sim.node_mut(&a).watch("fired");
    sim.inject(
        &a,
        Tuple::new(
            "probe",
            [Value::Addr(a.clone()), Value::Int(0), Value::Int(40)],
        ),
    );
    let mut out: Vec<String> = sim
        .node_mut(&a)
        .take_watched("hist")
        .into_iter()
        .chain(sim.node_mut(&a).take_watched("fired"))
        .map(|(_, t)| t.to_string())
        .collect();
    out.sort();
    out
}

fn forensic_config() -> NodeConfig {
    NodeConfig {
        stagger_timers: false,
        ..NodeConfig::forensic()
    }
}

#[test]
fn forensic_query_answers_after_every_lifetime_expired() {
    let mut sim = SimHarness::new(SimConfig::default(), forensic_config(), 99);
    let got = scenario(&mut sim);
    // All three pings reconstruct from the archive...
    assert!(
        got.iter().any(|s| s.contains("hist") && s.contains("7")),
        "{got:?}"
    );
    assert!(
        got.iter().any(|s| s.contains("hist") && s.contains("11")),
        "{got:?}"
    );
    assert!(
        got.iter().any(|s| s.contains("hist") && s.contains("42")),
        "{got:?}"
    );
    // ...and the archived ruleExec provenance names both rules: r1 for
    // every ping, r2 only for the two that passed the X > 10 guard.
    let r1 = got
        .iter()
        .filter(|s| s.contains("fired") && s.contains("r1"))
        .count();
    let r2 = got
        .iter()
        .filter(|s| s.contains("fired") && s.contains("r2"))
        .count();
    assert!(r1 >= 3, "r1 fired for each ping: {got:?}");
    assert!(r2 >= 2 && r2 < r1, "r2 fired only past the guard: {got:?}");
}

#[test]
fn forensic_answers_are_engine_invariant() {
    let want = scenario(&mut SequentialOracle::new(
        SimConfig::default(),
        forensic_config(),
        7,
    ));
    assert!(!want.is_empty(), "scenario must produce answers");
    for shards in [1usize, 2, 4] {
        let mut sim = ParallelHarness::new(SimConfig::default(), forensic_config(), 7, shards);
        let got = scenario(&mut sim);
        assert_eq!(got, want, "diverged at {shards} shards");
    }
}

#[test]
fn interval_bounds_select_the_window() {
    // A second probe over a window missing the incident returns nothing:
    // history scans answer for the asked interval, not "everything".
    let mut sim = SimHarness::new(SimConfig::default(), forensic_config(), 13);
    let a = sim.add_node("a");
    sim.install(&a, APP).expect("app installs");
    sim.run_until(Time::from_secs(10));
    sim.inject(
        &a,
        Tuple::new("ping", [Value::Addr(a.clone()), Value::Int(1)]),
    );
    sim.run_until(Time::from_secs(200));
    sim.install(&a, FORENSICS).expect("forensic query installs");
    sim.node_mut(&a).watch("hist");
    // The row lived [10s, 15s]; ask about [100s, 120s].
    sim.inject(
        &a,
        Tuple::new(
            "probe",
            [Value::Addr(a.clone()), Value::Int(100), Value::Int(120)],
        ),
    );
    assert!(sim.node_mut(&a).take_watched("hist").is_empty());
    // The covering window still answers.
    sim.inject(
        &a,
        Tuple::new(
            "probe",
            [Value::Addr(a.clone()), Value::Int(0), Value::Int(60)],
        ),
    );
    assert_eq!(sim.node_mut(&a).take_watched("hist").len(), 1);
}

#[test]
fn an_inverted_window_matches_nothing() {
    // `past` over [T0, T1] with T0 > T1 is an empty window: the row that
    // lies across [T1, T0] answers neither while it is live nor, later,
    // from the archive — only the same window the right way round does.
    let mut sim = SimHarness::new(SimConfig::default(), forensic_config(), 13);
    let a = sim.add_node("a");
    sim.install(&a, APP).expect("app installs");
    sim.install(&a, FORENSICS).expect("forensic query installs");
    sim.node_mut(&a).watch("hist");
    sim.run_until(Time::from_secs(10));
    sim.inject(
        &a,
        Tuple::new("ping", [Value::Addr(a.clone()), Value::Int(1)]),
    );
    let probe = |t0: i64, t1: i64| {
        Tuple::new(
            "probe",
            [Value::Addr(a.clone()), Value::Int(t0), Value::Int(t1)],
        )
    };
    // The row lives [10s, 15s]: ask at 12s (live) and at 200s (archived).
    for at in [12u64, 200] {
        sim.run_until(Time::from_secs(at));
        sim.inject(&a, probe(14, 11));
        assert!(
            sim.node_mut(&a).take_watched("hist").is_empty(),
            "inverted window answered at {at}s"
        );
        sim.inject(&a, probe(11, 14));
        assert_eq!(sim.node_mut(&a).take_watched("hist").len(), 1, "at {at}s");
    }
}
