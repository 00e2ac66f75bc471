//! The flow analyzer's static bounds dominate the cascades the tracer
//! records (DESIGN.md §2.13).
//!
//! The oracle is a query over each node's `ruleExec` table: its
//! event rows (`isEvent = true`) are cause → effect edges between
//! memoized tuple IDs, one per rule firing (§2.1.1, with §2.1.2's stage
//! association separating pipelined firings). These tests run the Chord
//! overlay plus §3 monitors traced and assert, at 1 and 4 shards, that
//! no measured cascade depth or per-episode output count ever exceeds
//! the static `depth` / `amplification` bound the deep analysis derives
//! for that root relation. Roots the analysis calls `Unbounded`
//! (anything reaching the lookup recursion) are skipped — there is no
//! finite bound to compare against.

use p2ql::analysis::{flow_report, AnalysisCtx, Bound, FlowReport};
use p2ql::chord::{build_ring, chord_program, ChordConfig};
use p2ql::core::{Node, NodeConfig, ParallelHarness, Population, SimHarness};
use p2ql::monitor::{ordering, oscillation, ring, watchpoints};
use p2ql::overlog::{parse_program, Statement};
use p2ql::trace::{RULE_EXEC, TUPLE_TABLE};
use p2ql::types::{Addr, Time, TimeDelta, Tuple, TupleId, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// Root relation → (max cascade depth, max outputs of one episode).
type Maxima = BTreeMap<String, (u64, u64)>;

fn traced() -> NodeConfig {
    NodeConfig {
        tracing: true,
        ..Default::default()
    }
}

/// Labels of the `delete` rules among `sources`: a deletion revises, it
/// does not derive, so the flow model gives those rules no edges and
/// their `ruleExec` rows are not cascade steps.
fn delete_rules(sources: &[String]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for s in sources {
        let program = parse_program(s).expect("shipped program parses");
        for st in &program.statements {
            if let Statement::Rule(r) = st {
                if r.delete {
                    out.extend(r.label.clone());
                }
            }
        }
    }
    out
}

/// The oracle query: fold the cascades node `node` ran after `since`,
/// read from its live `ruleExec` table, into `maxima`.
///
/// A node runs a cascade to quiescence inside one pump, at one instant,
/// so an **episode** is a root plus everything reachable from it over
/// the edges fired at that instant. A root is a cause nothing produced
/// at that instant — a network arrival, an injection, a timer's
/// `periodic` tuple, or a row whose producing edge has already left the
/// table (then its own relation's bound applies, which is still a sound
/// comparison). Depth folds from every episode: any chain of edges is a
/// real path in the trigger graph. The output count — the distinct
/// tuples the episode derived — folds only from episodes the trace
/// attributes exactly: tuple IDs memoize content, so a tuple two
/// firings derived (in-degree above one) or one that also arrived from
/// the network may hold the descendants of more than one episode.
fn measure(
    node: &mut Node,
    since: Time,
    now: Time,
    deletes: &BTreeSet<String>,
    maxima: &mut Maxima,
) {
    fn id(v: Option<&Value>) -> Option<u64> {
        match v {
            Some(Value::Id(r)) => Some(r.0),
            _ => None,
        }
    }
    let local = node.addr().clone();
    let catalog = node.catalog_mut();
    let mut arrived: HashSet<u64> = HashSet::new();
    if let Some(table) = catalog.table_mut(TUPLE_TABLE) {
        table.for_each_live(now, |r| {
            if r.get(2)
                .and_then(Value::to_addr)
                .is_some_and(|src| src != local)
            {
                arrived.extend(id(r.get(1)));
            }
        });
    }
    // instant → cause → effects
    let mut instants: BTreeMap<Time, HashMap<u64, BTreeSet<u64>>> = BTreeMap::new();
    if let Some(table) = catalog.table_mut(RULE_EXEC) {
        table.for_each_live(now, |row| {
            let (Some(Value::Str(rule)), Some(cause), Some(effect), Some(Value::Time(at))) =
                (row.get(1), id(row.get(2)), id(row.get(3)), row.get(5))
            else {
                return;
            };
            if *at > since && row.get(6) == Some(&Value::Bool(true)) && !deletes.contains(&**rule) {
                let edges = instants.entry(*at).or_default();
                edges.entry(cause).or_default().insert(effect);
            }
        });
    }
    for edges in instants.values() {
        let mut in_degree: HashMap<u64, usize> = HashMap::new();
        for effect in edges.values().flatten() {
            *in_degree.entry(*effect).or_default() += 1;
        }
        for &root in edges.keys().filter(|c| !in_degree.contains_key(c)) {
            let Some(rel) = node
                .trace_content_of(TupleId(root))
                .map(|t| t.name().to_string())
            else {
                continue;
            };
            // Level by level; a tuple may recur on a deeper level, so the
            // last non-empty level is the longest chain. A cycle (only a
            // statically unbounded relation has one) stops at the cap.
            let cap = in_degree.len() as u64 + 1;
            let (mut depth, mut level, mut derived) =
                (0u64, BTreeSet::from([root]), BTreeSet::new());
            while depth < cap {
                let next: BTreeSet<u64> = level
                    .iter()
                    .filter_map(|c| edges.get(c))
                    .flatten()
                    .copied()
                    .collect();
                if next.is_empty() {
                    break;
                }
                derived.extend(next.iter().copied());
                level = next;
                depth += 1;
            }
            let exact = derived
                .iter()
                .all(|t| in_degree[t] == 1 && !arrived.contains(t));
            let entry = maxima.entry(rel).or_default();
            entry.0 = entry.0.max(depth);
            if exact {
                entry.1 = entry.1.max(derived.len() as u64);
            }
        }
    }
}

/// Run `secs` virtual seconds, measuring every node's trace after each
/// one. `ruleExec` is keyed by (rule, cause, effect), so when a later
/// round fires an identical edge the row moves to that round's instant
/// and leaves a gap in the episode it came from: reading each second
/// sees an episode before the next round of its timer re-fires any of
/// its edges (every period in these programs is a second or more).
fn run_measured<H: Population>(
    sim: &mut H,
    secs: u64,
    addrs: &[Addr],
    deletes: &BTreeSet<String>,
    maxima: &mut HashMap<Addr, Maxima>,
) {
    for _ in 0..secs {
        let since = sim.now();
        sim.run_for(TimeDelta::from_secs(1));
        let now = sim.now();
        for a in addrs {
            let node = sim.node_mut(a);
            measure(
                node,
                since,
                now,
                deletes,
                maxima.entry(a.clone()).or_default(),
            );
        }
    }
}

/// Static flow report over exactly the sources the scenario installs.
fn static_bounds(sources: &[String]) -> FlowReport {
    let programs: Vec<_> = sources
        .iter()
        .map(|s| parse_program(s).expect("shipped program parses"))
        .collect();
    let refs: Vec<&_> = programs.iter().collect();
    flow_report(&refs, &AnalysisCtx::default())
}

/// Drive the ring + monitors scenario, measuring as it goes, then check
/// every node's measured maxima against the static bounds.
fn assert_measured_within_static<H: Population>(sim: &mut H, label: &str) {
    let monitors = [
        ring::active_probe_program(9),
        ring::passive_check_program(),
        ordering::opportunistic_program(),
        oscillation::full_program(),
        watchpoints::suite_program(10),
    ];
    let mut sources = vec![chord_program(&ChordConfig::default())];
    sources.extend(monitors.iter().cloned());
    let deletes = delete_rules(&sources);
    let report = static_bounds(&sources);

    let topo = build_ring(sim, 6, &ChordConfig::default());
    let mut maxima = HashMap::new();
    run_measured(sim, 120, &topo.addrs, &deletes, &mut maxima);
    for a in topo.addrs.clone() {
        for m in &monitors {
            sim.install(&a, m).expect("monitor installs");
        }
    }
    run_measured(sim, 180, &topo.addrs, &deletes, &mut maxima);

    let mut checked = 0usize;
    let mut skipped = 0usize;
    for a in &topo.addrs {
        let measured = &maxima[a];
        assert!(
            !measured.is_empty(),
            "[{label}] the trace recorded no cascade at {a}"
        );
        for (rel, &(depth, outputs)) in measured {
            match report.depth.get(rel) {
                Some(Bound::Finite(d)) => {
                    checked += 1;
                    assert!(
                        depth <= *d,
                        "[{label}] {a}: measured cascade depth {depth} from root \
                         '{rel}' exceeds the static bound {d}"
                    );
                }
                Some(Bound::Unbounded) => skipped += 1,
                // A relation outside the trigger graph cannot cascade.
                None => assert_eq!(
                    depth, 0,
                    "[{label}] {a}: root '{rel}' is not in the trigger graph \
                     yet cascaded to depth {depth}"
                ),
            }
            match report.amplification.get(rel) {
                Some(Bound::Finite(b)) => assert!(
                    outputs <= *b,
                    "[{label}] {a}: episode from root '{rel}' derived {outputs} \
                     tuples, above the static amplification bound {b}"
                ),
                Some(Bound::Unbounded) => {}
                None => assert_eq!(
                    outputs, 0,
                    "[{label}] {a}: root '{rel}' outside the trigger graph \
                     derived {outputs} tuples"
                ),
            }
        }
    }
    assert!(
        checked > 0,
        "[{label}] no finite-bound root was ever measured \
         (checked={checked}, skipped={skipped})"
    );
}

#[test]
fn measured_cascades_stay_within_static_bounds_sequential() {
    let mut sim = SimHarness::new(Default::default(), traced(), 90);
    assert_measured_within_static(&mut sim, "1 shard");
}

#[test]
fn measured_cascades_stay_within_static_bounds_sharded() {
    let mut sim = ParallelHarness::new(Default::default(), traced(), 90, 4);
    assert_measured_within_static(&mut sim, "4 shards");
}

/// Exact-bound sanity on closed scenarios: a periodic fan-out over a
/// full eight-row peer table, node-local so the whole cascade is one
/// episode, and a beat arriving from a peer, re-rooted on the receiver.
/// Each measures exactly the static bound.
#[test]
fn linear_chain_measures_at_most_the_declared_bound() {
    let local = "materialize(peer, infinity, 8, keys(1, 2)).
                 hb1 beat@N(P, E) :- periodic@N(E, 5), peer@N(P).
                 hb2 seen@N(F) :- beat@N(F, E).
                 materialize(seen, infinity, infinity, keys(1, 2)).";
    let remote = local.replace("beat@N(P, E)", "beat@P(N, E)");
    let mut sim = SimHarness::new(Default::default(), traced(), 7);
    let a = sim.add_node("a");
    let b = sim.add_node("b");
    let c = sim.add_node("c");
    sim.install(&a, local).expect("installs");
    for p in 0..8 {
        sim.install(&a, &format!("peer@\"{a}\"(\"p{p}\").\n"))
            .expect("fact installs");
    }
    sim.install(&b, &remote).expect("installs");
    sim.install(&c, &remote).expect("installs");
    sim.install(&b, &format!("peer@\"{b}\"(\"{c}\").\n"))
        .expect("fact installs");
    let mut maxima = HashMap::new();
    run_measured(
        &mut sim,
        40,
        &[a.clone(), c.clone()],
        &BTreeSet::new(),
        &mut maxima,
    );

    for src in [local.to_string(), remote] {
        let report = static_bounds(&[src]);
        assert_eq!(
            report.amplification.get("periodic"),
            Some(&Bound::Finite(16))
        );
        assert_eq!(report.depth.get("periodic"), Some(&Bound::Finite(2)));
        assert_eq!(report.amplification.get("beat"), Some(&Bound::Finite(1)));
        assert_eq!(report.depth.get("beat"), Some(&Bound::Finite(1)));
    }
    // Eight beats and eight `seen` rows per firing, two hops deep.
    assert_eq!(maxima[&a].get("periodic"), Some(&(2, 16)));
    // The receiver's episodes start at the arriving beat.
    assert_eq!(maxima[&c].get("beat"), Some(&(1, 1)));
}

/// The episode rules on a small trace: an episode that alone derived
/// its tuples folds depth and output count; two roots deriving the same
/// tuple at one instant fold only their depth.
#[test]
fn conflated_episodes_fold_depth_but_not_outputs() {
    let mut n = Node::new(Addr::new("n"), traced());
    n.install(
        "r1 x@N(X) :- a@N(X).
         r2 x@N(X) :- b@N(X).
         r3 y@N(X) :- x@N(X).",
        Time::ZERO,
    )
    .expect("installs");
    let ev = |rel: &str, x: i64| Tuple::new(rel, [Value::addr("n"), Value::Int(x)]);
    let mut maxima = Maxima::new();
    n.inject(ev("a", 1));
    n.pump(Time::from_secs(1));
    measure(
        &mut n,
        Time::ZERO,
        Time::from_secs(1),
        &BTreeSet::new(),
        &mut maxima,
    );
    assert_eq!(maxima.get("a"), Some(&(2, 2)));
    // `x(2)` has two producing edges at the 2-s instant.
    n.inject(ev("a", 2));
    n.inject(ev("b", 2));
    n.pump(Time::from_secs(2));
    let (since, now) = (Time::from_secs(1), Time::from_secs(2));
    measure(&mut n, since, now, &BTreeSet::new(), &mut maxima);
    assert_eq!(maxima.get("a"), Some(&(2, 2)));
    assert_eq!(maxima.get("b"), Some(&(2, 0)));
}

/// The oracle only reads: a traced run measured every second ends in the
/// same protocol state and counters as one nobody looked at.
#[test]
fn lint_oracle_is_observably_inert() {
    let fingerprint = |look: bool| {
        let mut sim = SimHarness::new(Default::default(), traced(), 90);
        let topo = build_ring(&mut sim, 5, &ChordConfig::default());
        let sources = [chord_program(&ChordConfig::default())];
        let mut maxima = HashMap::new();
        if look {
            run_measured(
                &mut sim,
                140,
                &topo.addrs,
                &delete_rules(&sources),
                &mut maxima,
            );
            sim.run_for(TimeDelta::from_secs(10));
        } else {
            sim.run_for(TimeDelta::from_secs(150));
        }
        let mut out = String::new();
        for a in topo.addrs.clone() {
            let m = sim.node_mut(&a).metrics().clone();
            out.push_str(&format!(
                "{a}: dispatched={} firings={} sent={}\n",
                m.tuples_dispatched, m.strand_firings, m.tuples_sent
            ));
            let now = sim.now();
            let mut rows: Vec<String> = sim
                .node_mut(&a)
                .table_scan("bestSucc", now)
                .iter()
                .map(|t| t.to_string())
                .collect();
            rows.sort();
            out.push_str(&rows.join("\n"));
            out.push('\n');
        }
        out
    };
    assert_eq!(fingerprint(false), fingerprint(true));
}
