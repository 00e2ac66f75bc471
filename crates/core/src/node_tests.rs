use super::*;

fn node(name: &str) -> Node {
    Node::new(
        Addr::new(name),
        NodeConfig {
            stagger_timers: false,
            ..Default::default()
        },
    )
}

#[test]
fn install_and_fact_insertion() {
    let mut n = node("n1");
    n.install(
        "materialize(link, infinity, infinity, keys(1, 2)).
         link@\"n1\"(\"n2\", 3).",
        Time::ZERO,
    )
    .unwrap();
    let out = n.pump(Time::ZERO);
    assert!(out.is_empty());
    let rows = n.table_scan("link", Time::ZERO);
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].get(1), Some(&Value::str("n2")));
}

#[test]
fn event_rule_chain_and_routing() {
    let mut n = node("n1");
    n.install(
        "r1 hop@\"n2\"(X) :- go@N(X).
         r2 local@N(X) :- go@N(X).",
        Time::ZERO,
    )
    .unwrap();
    n.watch("local");
    n.inject(Tuple::new("go", [Value::addr("n1"), Value::Int(5)]));
    let out = n.pump(Time::ZERO);
    // r1's head routes to n2 over the network.
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].dst, Addr::new("n2"));
    assert_eq!(out[0].tuples[0].name(), "hop");
    // r2's head is a local event, observed by the watch.
    assert_eq!(n.watched("local").len(), 1);
    assert_eq!(n.metrics().msgs_sent, 1);
}

#[test]
fn table_delta_rules_fire() {
    let mut n = node("n1");
    n.install(
        "materialize(succ, infinity, infinity, keys(1, 2)).
         d twice@N(S) :- succ@N(S).",
        Time::ZERO,
    )
    .unwrap();
    n.watch("twice");
    n.inject(Tuple::new("succ", [Value::addr("n1"), Value::id(9)]));
    n.pump(Time::ZERO);
    assert_eq!(n.watched("twice").len(), 1);
    // Identical re-insertion refreshes without a delta.
    n.inject(Tuple::new("succ", [Value::addr("n1"), Value::id(9)]));
    n.pump(Time::ZERO);
    assert_eq!(n.watched("twice").len(), 1, "refresh must not re-fire");
}

#[test]
fn periodic_timer_fires_and_reschedules() {
    let mut n = node("n1");
    n.install("p tick@N(E) :- periodic@N(E, 2).", Time::ZERO)
        .unwrap();
    n.watch("tick");
    assert_eq!(n.next_timer(), Some(Time::from_secs(2)));
    n.fire_timers(Time::from_secs(2));
    n.pump(Time::from_secs(2));
    assert_eq!(n.watched("tick").len(), 1);
    assert_eq!(n.next_timer(), Some(Time::from_secs(4)));
    // Catch-up: far-future firing fires once and reschedules beyond.
    n.fire_timers(Time::from_secs(11));
    n.pump(Time::from_secs(11));
    assert_eq!(n.watched("tick").len(), 2);
    assert!(n.next_timer().unwrap() > Time::from_secs(11));
}

#[test]
fn delete_rule_removes_rows() {
    let mut n = node("n1");
    n.install(
        "materialize(t, infinity, infinity, keys(1, 2)).
         t@\"n1\"(1). t@\"n1\"(2).
         d delete t@N(X) :- zap@N(X).",
        Time::ZERO,
    )
    .unwrap();
    n.pump(Time::ZERO);
    assert_eq!(n.table_scan("t", Time::ZERO).len(), 2);
    n.inject(Tuple::new("zap", [Value::addr("n1"), Value::Int(1)]));
    n.pump(Time::ZERO);
    let rows = n.table_scan("t", Time::ZERO);
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].get(1), Some(&Value::Int(2)));
    assert_eq!(n.metrics().deletes, 1);
}

#[test]
fn remote_delivery_and_delete() {
    let mut n = node("n2");
    n.install(
        "materialize(t, infinity, infinity, keys(1, 2)).",
        Time::ZERO,
    )
    .unwrap();
    let t = Tuple::new("t", [Value::addr("n2"), Value::Int(7)]);
    n.deliver(
        Envelope::new(t.clone(), Addr::new("n1"), Addr::new("n2")),
        Time::ZERO,
    );
    n.pump(Time::ZERO);
    assert_eq!(n.table_scan("t", Time::ZERO).len(), 1);
    // Remote delete.
    let mut del = Envelope::new(t, Addr::new("n1"), Addr::new("n2"));
    del.delete = true;
    n.deliver(del, Time::ZERO);
    assert_eq!(n.table_scan("t", Time::ZERO).len(), 0);
}

#[test]
fn batched_delivery_dispatches_every_tuple() {
    let mut n = node("n2");
    n.install(
        "materialize(t, infinity, infinity, keys(1, 2)).",
        Time::ZERO,
    )
    .unwrap();
    let mut env = Envelope {
        tuples: Vec::new(),
        src: Addr::new("n1"),
        dst: Addr::new("n2"),
        src_tuple_ids: Vec::new(),
        delete: false,
    };
    for i in 0..5 {
        env.push(Tuple::new("t", [Value::addr("n2"), Value::Int(i)]), None);
    }
    n.deliver(env, Time::ZERO);
    n.pump(Time::ZERO);
    assert_eq!(n.table_scan("t", Time::ZERO).len(), 5);
    assert_eq!(n.metrics().msgs_received, 1);
    assert_eq!(n.metrics().tuples_dispatched, 5);
}

#[test]
fn outbox_coalesces_consecutive_same_destination_outputs() {
    let mut n = node("n1");
    n.install("r1 hop@\"n2\"(X) :- go@N(X).", Time::ZERO)
        .unwrap();
    for i in 0..4 {
        n.inject(Tuple::new("go", [Value::addr("n1"), Value::Int(i)]));
    }
    let out = n.pump(Time::ZERO);
    // Four outputs, one frame: same (dst, relation, delete) run.
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].len(), 4);
    assert_eq!(n.metrics().msgs_sent, 1);
    assert_eq!(n.metrics().tuples_sent, 4);
}

#[test]
fn envelope_flush_threshold_cuts_runs() {
    let mut n = node("n1");
    n.install("r1 hop@\"n2\"(X) :- go@N(X).", Time::ZERO)
        .unwrap();
    for i in 0..150 {
        n.inject(Tuple::new("go", [Value::addr("n1"), Value::Int(i)]));
    }
    let out = n.pump(Time::ZERO);
    let sizes: Vec<usize> = out.iter().map(Envelope::len).collect();
    assert_eq!(sizes, vec![64, 64, 22]);
    assert_eq!(n.metrics().msgs_sent, 3);
    assert_eq!(n.metrics().tuples_sent, 150);
}

#[test]
fn silent_relations_are_stored_counted_and_watched_in_order() {
    let mut n = node("n1");
    // No rule reads t: nothing fires, yet every tuple is dispatched.
    n.install(
        "materialize(t, infinity, infinity, keys(1, 2)).",
        Time::ZERO,
    )
    .unwrap();
    n.watch("t");
    for i in 0..10 {
        n.inject(Tuple::new("t", [Value::addr("n1"), Value::Int(i)]));
    }
    n.pump(Time::ZERO);
    assert_eq!(n.table_scan("t", Time::ZERO).len(), 10);
    assert_eq!(n.metrics().tuples_dispatched, 10);
    // Watches still see every tuple, in order.
    let seen: Vec<_> = n
        .watched("t")
        .iter()
        .map(|(_, t)| t.get(1).cloned().unwrap())
        .collect();
    assert_eq!(seen, (0..10).map(Value::Int).collect::<Vec<_>>());
}

#[test]
fn a_budget_cut_inside_a_silent_run_drops_the_rest() {
    let mut n = Node::new(
        Addr::new("n1"),
        NodeConfig {
            max_dispatch_per_pump: 4,
            ..Default::default()
        },
    );
    n.install(
        "materialize(t, infinity, infinity, keys(1, 2)).",
        Time::ZERO,
    )
    .unwrap();
    n.watch("t");
    for i in 0..10 {
        n.inject(Tuple::new("t", [Value::addr("n1"), Value::Int(i)]));
    }
    n.pump(Time::ZERO);
    assert_eq!(n.table_scan("t", Time::ZERO).len(), 4);
    assert_eq!(n.metrics().tuples_dispatched, 4);
    assert_eq!(n.metrics().overflow_drops, 6);
    let seen: Vec<_> = n
        .watched("t")
        .iter()
        .map(|(_, t)| t.get(1).cloned().unwrap())
        .collect();
    assert_eq!(seen, (0..4).map(Value::Int).collect::<Vec<_>>());
}

#[test]
fn tracing_produces_rule_exec_rows() {
    let mut n = Node::new(
        Addr::new("n1"),
        NodeConfig {
            tracing: true,
            stagger_timers: false,
            ..Default::default()
        },
    );
    n.install(
        "materialize(prec, infinity, infinity, keys(1, 2)).
         prec@\"n1\"(4).
         r1 head@N(Z) :- ev@N(Z), prec@N(Z).",
        Time::ZERO,
    )
    .unwrap();
    n.pump(Time::ZERO);
    n.inject(Tuple::new("ev", [Value::addr("n1"), Value::Int(4)]));
    n.pump(Time::ZERO);
    let execs = n.table_scan("ruleExec", Time::ZERO);
    // The paper's worked example: 2 rows (event cause + precondition
    // cause) — but the fact insertion itself is untraced here because
    // facts fire no strands; only r1's execution shows up.
    assert_eq!(execs.len(), 2);
    let tt = n.table_scan("tupleTable", Time::ZERO);
    assert!(tt.len() >= 3);
}

#[test]
fn tracing_off_produces_nothing() {
    let mut n = node("n1");
    n.install("r1 out@N(X) :- ev@N(X).", Time::ZERO).unwrap();
    n.inject(Tuple::new("ev", [Value::addr("n1"), Value::Int(1)]));
    n.pump(Time::ZERO);
    assert!(n.table_scan("ruleExec", Time::ZERO).is_empty());
}

#[test]
fn uninstall_removes_strands_and_timers() {
    let mut n = node("n1");
    let keep = n.install("k out@N(X) :- ev@N(X).", Time::ZERO).unwrap();
    let gone = n
        .install("g out2@N(E) :- periodic@N(E, 5).", Time::ZERO)
        .unwrap();
    assert_eq!(n.strand_count(), 2);
    assert!(n.next_timer().is_some());
    n.uninstall(gone);
    assert_eq!(n.strand_count(), 1);
    assert!(n.next_timer().is_none());
    // The kept rule still works.
    n.watch("out");
    n.inject(Tuple::new("ev", [Value::addr("n1"), Value::Int(1)]));
    n.pump(Time::ZERO);
    assert_eq!(n.watched("out").len(), 1);
    let _ = keep;
}

#[test]
fn uninstall_forgets_the_strands_execution_records() {
    let traced = |budget| {
        let mut n = Node::new(
            Addr::new("n1"),
            NodeConfig {
                tracing: true,
                max_dispatch_per_pump: budget,
                stagger_timers: false,
                ..Default::default()
            },
        );
        n.install(
            "materialize(p, infinity, infinity, keys(2)).
             materialize(q, infinity, infinity, keys(2)).
             p@\"n1\"(1). p@\"n1\"(2). q@\"n1\"(3).",
            Time::ZERO,
        )
        .unwrap();
        n.pump(Time::ZERO);
        n
    };
    let ev = |x| Tuple::new("ev", [Value::addr("n1"), Value::Int(x)]);

    // Churn: every round installs a monitor under a fresh rule label,
    // runs it, and uninstalls it. The tracer keeps records only for
    // what is installed.
    let mut n = traced(200_000);
    for round in 0..8 {
        let pid = n
            .install(
                &format!("m{round} out@N(X, Y) :- ev@N(X), p@N(Y)."),
                Time::ZERO,
            )
            .unwrap();
        n.inject(ev(round));
        n.pump(Time::ZERO);
        assert_eq!(n.tracer.tracked_strands(), 1);
        n.uninstall(pid);
        assert_eq!(n.tracer.tracked_strands(), 0);
    }

    // Re-install: whatever half-filled record the first incarnation left
    // (its pump cut off by the budget at any point of the pipeline), the
    // second incarnation's ruleExec rows name only causes it observed
    // itself.
    let rule = "r1 out@N(X, Y, Z) :- ev@N(X), p@N(Y), q@N(Z).";
    let reinstalled_at = Time::from_secs(10);
    for budget in 1..40 {
        let mut n = traced(200_000);
        let pid = n.install(rule, Time::ZERO).unwrap();
        n.config.max_dispatch_per_pump = budget;
        n.inject(ev(1));
        n.pump(Time::ZERO);
        n.uninstall(pid);
        n.config.max_dispatch_per_pump = 200_000;
        n.install(rule, reinstalled_at).unwrap();
        n.inject(ev(2));
        n.pump(reinstalled_at);
        let fresh: Vec<Tuple> = n
            .table_scan("ruleExec", reinstalled_at)
            .into_iter()
            .filter(|row| row.get(5) == Some(&Value::Time(reinstalled_at)))
            .collect();
        assert!(!fresh.is_empty(), "budget {budget}");
        for row in fresh {
            assert_eq!(
                row.get(4),
                Some(&Value::Time(reinstalled_at)),
                "budget {budget}: cause observed before the re-install in {row}"
            );
        }
    }
}

#[test]
fn runaway_rules_hit_dispatch_budget() {
    let mut n = Node::new(
        Addr::new("n1"),
        NodeConfig {
            max_dispatch_per_pump: 1_000,
            stagger_timers: false,
            ..Default::default()
        },
    );
    // a and b feed each other forever.
    n.install("r1 a@N(X) :- b@N(X). r2 b@N(X) :- a@N(X).", Time::ZERO)
        .unwrap();
    n.inject(Tuple::new("a", [Value::addr("n1"), Value::Int(0)]));
    n.pump(Time::ZERO); // must terminate
    assert!(n.metrics().overflow_drops > 0);
}

#[test]
fn budget_covers_strand_steps_and_counts_abandoned_work() {
    let mut n = Node::new(
        Addr::new("n1"),
        NodeConfig {
            max_dispatch_per_pump: 4,
            stagger_timers: false,
            ..Default::default()
        },
    );
    n.install(
        "materialize(p, infinity, infinity, keys(2)).
         r1 out@N(Y) :- ev@N(X), p@N(Y).",
        Time::ZERO,
    )
    .unwrap();
    // Seed the joined table (its inserts are silent: one budget unit
    // each, so one pump's budget of 4 covers all rows).
    for i in 0..4 {
        n.inject(Tuple::new("p", [Value::addr("n1"), Value::Int(i)]));
    }
    n.pump(Time::ZERO);
    assert_eq!(n.table_scan("p", Time::ZERO).len(), 4);
    assert_eq!(n.metrics().strand_overflow_drops, 0);
    // One event probes 4 matches: dispatch + pipeline steps overrun the
    // budget, so the tail of the join is abandoned and counted.
    n.inject(Tuple::new("ev", [Value::addr("n1"), Value::Int(0)]));
    n.pump(Time::ZERO); // must terminate
    assert!(n.metrics().strand_overflow_drops > 0, "{:?}", n.metrics());
    // The node is healthy afterwards: the next pump starts fresh.
    n.watch("out");
    n.inject(Tuple::new("ev", [Value::addr("n1"), Value::Int(1)]));
    n.pump(Time::ZERO);
    assert!(!n.watched("out").is_empty());
}

#[test]
fn malformed_location_is_counted_not_fatal() {
    let mut n = node("n1");
    n.install("r1 out@N(X) :- ev@N(X).", Time::ZERO).unwrap();
    // Event whose bound location is a non-address: head location
    // coercion turns strings into addrs, but an Int location fails.
    n.inject(Tuple::new("ev", [Value::Int(9), Value::Int(1)]));
    n.pump(Time::ZERO);
    // The trigger bound N := Int(9); the head built out(9, 1) whose
    // location is not an address → dropped and counted.
    assert_eq!(n.metrics().malformed_drops, 1);
}

#[test]
fn watch_take_and_peek() {
    let mut n = node("n1");
    n.install("r1 out@N(X) :- ev@N(X).", Time::ZERO).unwrap();
    n.watch("out");
    for i in 0..3 {
        n.inject(Tuple::new("ev", [Value::addr("n1"), Value::Int(i)]));
    }
    n.pump(Time::ZERO);
    assert_eq!(n.watched("out").len(), 3);
    let taken = n.take_watched("out");
    assert_eq!(taken.len(), 3);
    assert!(n.watched("out").is_empty(), "take drains");
    // Watch keeps observing after a drain.
    n.inject(Tuple::new("ev", [Value::addr("n1"), Value::Int(9)]));
    n.pump(Time::ZERO);
    assert_eq!(n.watched("out").len(), 1);
}

#[test]
fn tracing_toggles_at_runtime() {
    let mut n = node("n1");
    n.install(
        "materialize(prec, infinity, infinity, keys(1, 2)).
         prec@\"n1\"(4).
         r1 head@N(Z) :- ev@N(Z), prec@N(Z).",
        Time::ZERO,
    )
    .unwrap();
    n.pump(Time::ZERO);
    assert!(!n.tracing());
    n.inject(Tuple::new("ev", [Value::addr("n1"), Value::Int(4)]));
    n.pump(Time::ZERO);
    assert!(n.table_scan("ruleExec", Time::ZERO).is_empty());
    // Flip tracing on mid-life: subsequent executions are traced.
    n.set_tracing(true);
    n.inject(Tuple::new("ev", [Value::addr("n1"), Value::Int(4)]));
    n.pump(Time::ZERO);
    assert_eq!(n.table_scan("ruleExec", Time::ZERO).len(), 2);
    // And off again.
    n.set_tracing(false);
    let before = n.table_scan("ruleExec", Time::ZERO).len();
    n.inject(Tuple::new("ev", [Value::addr("n1"), Value::Int(4)]));
    n.pump(Time::ZERO);
    assert_eq!(n.table_scan("ruleExec", Time::ZERO).len(), before);
}

#[test]
fn event_log_records_arrivals_and_removals() {
    let mut cfg = NodeConfig {
        tracing: true,
        stagger_timers: false,
        ..Default::default()
    };
    cfg.trace.log_events = true;
    let mut n = Node::new(Addr::new("n1"), cfg);
    n.install(
        "materialize(t, infinity, infinity, keys(1, 2)).
         d delete t@N(X) :- zap@N(X), t@N(X).",
        Time::ZERO,
    )
    .unwrap();
    n.inject(Tuple::new("t", [Value::addr("n1"), Value::Int(1)]));
    n.pump(Time::ZERO);
    n.inject(Tuple::new("zap", [Value::addr("n1"), Value::Int(1)]));
    n.pump(Time::ZERO);
    let log = n.table_scan(p2_trace::EVENT_LOG, Time::ZERO);
    let ops: Vec<(String, String)> = log
        .iter()
        .filter_map(|r| Some((r.get(1)?.to_string(), r.get(2)?.to_string())))
        .collect();
    assert!(ops.contains(&("t".into(), "arrive".into())), "{ops:?}");
    assert!(ops.contains(&("zap".into(), "arrive".into())), "{ops:?}");
    assert!(ops.contains(&("t".into(), "remove".into())), "{ops:?}");
    // The log never logs itself or the trace tables.
    assert!(ops
        .iter()
        .all(|(rel, _)| rel != "eventLog" && rel != "ruleExec"));
}

#[test]
fn event_log_off_by_default() {
    let mut n = Node::new(
        Addr::new("n1"),
        NodeConfig {
            tracing: true,
            stagger_timers: false,
            ..Default::default()
        },
    );
    n.install("r1 out@N(X) :- ev@N(X).", Time::ZERO).unwrap();
    n.inject(Tuple::new("ev", [Value::addr("n1"), Value::Int(1)]));
    n.pump(Time::ZERO);
    assert!(n.table_scan(p2_trace::EVENT_LOG, Time::ZERO).is_empty());
}

#[test]
fn install_registers_join_probe_indexes() {
    let mut n = node("n1");
    n.install(
        "materialize(pred, infinity, 16, keys(1)).
         materialize(succ, infinity, 16, keys(1, 2)).
         r1 out@N(P) :- ev@N(X), pred@N(PID, P), succ@N(X, S).",
        Time::ZERO,
    )
    .unwrap();
    // pred is probed on no selective field beyond the location (both
    // body fields bind), so only its location could be probed; succ is
    // probed on field 1 (X is bound by the trigger).
    assert_eq!(n.catalog_mut().indexed_fields("succ"), vec![1]);
    // A second program over the *same* base tables adds its own index
    // without re-declaring them.
    n.install("q1 hit@N(S) :- chk@N(S), succ@N(X, S).", Time::ZERO)
        .unwrap();
    assert_eq!(n.catalog_mut().indexed_fields("succ"), vec![1, 2]);
}

#[test]
fn install_errors_are_typed() {
    let mut n = node("n1");
    assert!(matches!(
        n.install("r1 out@A(X) :- .", Time::ZERO),
        Err(InstallError::Compile(_))
    ));
    assert!(matches!(
        n.install("r h@N() :- e1@N(X), e2@N(Y).", Time::ZERO),
        Err(InstallError::Plan(_))
    ));
    n.install("materialize(t, 10, 10, keys(1)).", Time::ZERO)
        .unwrap();
    assert!(matches!(
        n.install("materialize(t, 99, 10, keys(1)).", Time::ZERO),
        Err(InstallError::Catalog(_))
    ));
}

#[test]
fn shared_prefix_family_installs_as_one_runtime() {
    let mut n = node("n1");
    n.install(
        "materialize(t, 100, 100, keys(1, 2, 3)).
         r1 outa@N(X, Y) :- ev@N(X), t@N(X, Y).
         r2 outb@N(X, Y) :- ev@N(X), t@N(X, Y).",
        Time::ZERO,
    )
    .unwrap();
    // Two strands planned, one family runtime installed.
    assert_eq!(n.strand_count(), 2);
    assert_eq!(n.strands.len(), 1);
    n.watch("outa");
    n.watch("outb");
    n.inject(Tuple::new(
        "t",
        [Value::addr("n1"), Value::Int(1), Value::Int(7)],
    ));
    n.pump(Time::ZERO);
    n.inject(Tuple::new("ev", [Value::addr("n1"), Value::Int(1)]));
    n.pump(Time::ZERO);
    assert_eq!(n.watched("outa").len(), 1);
    assert_eq!(n.watched("outb").len(), 1);
    // Both branches report their own firing through strand_stats.
    let fired: Vec<u64> = n
        .strand_stats()
        .into_iter()
        .map(|(_, _, s)| s.fired)
        .collect();
    assert_eq!(fired, vec![1, 1]);
}

#[test]
fn dead_rule_diagnostic_surfaces_and_clears_on_uninstall() {
    let mut n = node("n1");
    let pid = n
        .install("d1 out@N(X) :- ev@N(X), 1 == 2.", Time::ZERO)
        .unwrap();
    let diags: Vec<String> = n.plan_diagnostics().map(|d| d.message.clone()).collect();
    assert_eq!(diags.len(), 1);
    assert!(diags[0].contains("dead"), "got: {}", diags[0]);
    // The dead rule legally produces nothing.
    n.watch("out");
    n.inject(Tuple::new("ev", [Value::addr("n1"), Value::Int(1)]));
    n.pump(Time::ZERO);
    assert_eq!(n.watched("out").len(), 0);
    n.uninstall(pid);
    assert_eq!(n.plan_diagnostics().count(), 0);
}

#[test]
fn optimizer_off_matches_full_end_to_end() {
    let src = "materialize(t, 100, 100, keys(1, 2, 3)).
         r1 out@N(X, Z, W) :- ev@N(X, K), t@N(X, Z), W := Z * 2 + 1, K > 0.";
    let drive = |opts: p2_planner::PlanOpts| {
        let mut n = Node::new(
            Addr::new("n1"),
            NodeConfig {
                stagger_timers: false,
                ..Default::default()
            },
        );
        n.install_planned(src, Time::ZERO, &opts).unwrap();
        n.watch("out");
        for z in 0..4 {
            n.inject(Tuple::new(
                "t",
                [Value::addr("n1"), Value::Int(1), Value::Int(z)],
            ));
        }
        n.pump(Time::ZERO);
        n.inject(Tuple::new(
            "ev",
            [Value::addr("n1"), Value::Int(1), Value::Int(5)],
        ));
        n.pump(Time::ZERO);
        let mut got: Vec<String> = n
            .watched("out")
            .iter()
            .map(|(_, t)| t.to_string())
            .collect();
        got.sort();
        got
    };
    let off = drive(p2_planner::PlanOpts::off());
    let full = drive(p2_planner::PlanOpts::default());
    assert_eq!(off.len(), 4);
    assert_eq!(off, full);
}

#[test]
fn forensic_node_answers_past_queries_after_expiry() {
    // The tentpole end-to-end: a forensic-mode node materializes a
    // 2-second table, lets every row expire, and a later OverLog rule
    // ranging over `past()` still reconstructs what was there.
    let mut n = Node::new(
        Addr::new("n1"),
        NodeConfig {
            stagger_timers: false,
            ..NodeConfig::forensic()
        },
    );
    n.install(
        "materialize(succ, 2, 8, keys(1, 2)).
         f1 wasSucc@N(S) :- probe@N(T0, T1), past@N(\"succ\", T0, T1, N, S).",
        Time::ZERO,
    )
    .unwrap();
    n.watch("wasSucc");
    n.inject(Tuple::new("succ", [Value::addr("n1"), Value::id(9)]));
    n.pump(Time::from_secs(1));

    // By t=30 the row is long gone from the live table...
    let later = Time::from_secs(30);
    assert!(n.table_scan("succ", later).is_empty());

    // ...but the archive still answers for the [0s, 10s] window.
    n.inject(Tuple::new(
        "probe",
        [Value::addr("n1"), Value::Int(0), Value::Int(10)],
    ));
    n.pump(later);
    let hits = n.watched("wasSucc");
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].1.get(1), Some(&Value::id(9)));
}

#[test]
fn archive_enrollment_follows_the_policy() {
    use p2_store::ArchiveConfig;
    let mut n = Node::new(
        Addr::new("n1"),
        NodeConfig {
            tracing: true,
            stagger_timers: false,
            archive: Some(ArchiveMode {
                config: ArchiveConfig::default(),
                enroll: ArchiveEnroll::Named(vec!["succ".into()]),
            }),
            ..Default::default()
        },
    );
    n.install(
        "materialize(succ, 2, 8, keys(1, 2)).
         materialize(other, 2, 8, keys(1, 2)).",
        Time::ZERO,
    )
    .unwrap();
    n.inject(Tuple::new("succ", [Value::addr("n1"), Value::id(1)]));
    n.inject(Tuple::new("other", [Value::addr("n1"), Value::id(2)]));
    n.pump(Time::ZERO);
    let later = Time::from_secs(10);
    // Named policy: succ's history survives, other's does not.
    let succ = n.history_scan("succ", Time::ZERO, later, later).unwrap();
    assert_eq!(succ.len(), 1);
    assert!(succ[0].dropped_at.is_some(), "row expired into the archive");
    let other = n.history_scan("other", Time::ZERO, later, later).unwrap();
    assert!(other.is_empty());
    // Trace tables enroll under every policy.
    let traced = n
        .history_scan(p2_trace::RULE_EXEC, Time::ZERO, later, later)
        .unwrap();
    let _ = traced; // may be empty (no rules fired), but must not error
}

/// Hand-delivered ship frames against the receiver's ordering rules
/// (DESIGN.md §2.12): what is a stray, what is stale, and that the
/// answer to an open fetch is taken whatever generation it carries.
#[test]
fn ship_receiver_orders_by_generation_except_for_the_answer_it_asked_for() {
    use p2_net::ship::{encode_batch, Shipment};
    use p2_net::ShipMsg;
    let (origin, me) = (Addr::new("a"), Addr::new("coll"));
    let mut n = Node::new(
        me.clone(),
        NodeConfig {
            stagger_timers: false,
            ..Default::default()
        },
    );
    n.install(
        "materialize(seen, 5, 32, keys(1, 2)).
         f1 hist@N(O, S) :- probe@N(T0, T1), past@N(\"seen\", T0, T1, O, S).",
        Time::ZERO,
    )
    .unwrap();
    n.ship_add_peer(origin.clone());
    let deliver = |n: &mut Node, gen: u64, chunks: u32, solicited: bool| {
        let frame = Shipment {
            gen,
            relation: "seen".into(),
            chunk: 0,
            chunks,
            solicited,
            base: None,
            watermark: u64::MAX,
            oldest_lo: u64::MAX,
            bytes: encode_batch(&[]),
        };
        let tuple = ShipMsg::Shipment(frame).to_tuple(&me);
        n.deliver(Envelope::new(tuple, origin.clone(), me.clone()), Time::ZERO);
        n.pump(Time::ZERO)
    };

    // Half of a pushed generation from the origin's previous life, and
    // a solicited shipment nobody asked for.
    deliver(&mut n, 100, 2, false);
    deliver(&mut n, 101, 1, true);
    assert_eq!(n.ship_stats().strays, 1);
    assert!(!n.ship_covered(&origin, "seen"));

    // A trigger stages behind one request.
    n.inject(Tuple::new(
        "probe",
        [Value::Addr(me.clone()), Value::Int(0), Value::Int(40)],
    ));
    assert_eq!(n.pump(Time::ZERO).len(), 1, "the request");
    assert_eq!(n.ship_stats().triggers_staged, 1);

    // The origin lost its log and counts from zero: the answer's
    // generation is below the half-arrived one, and still resolves.
    deliver(&mut n, 1, 1, true);
    let stats = n.ship_stats();
    assert_eq!((stats.fetches_completed, stats.triggers_released), (1, 1));
    assert!(n.ship_covered(&origin, "seen"));
    assert_eq!(n.next_timer(), None, "no fetch deadline left behind");

    // Pushed shipments are ordered against what is now held.
    deliver(&mut n, 1, 1, false);
    assert_eq!(n.ship_stats().announces_applied, 1, "generation 1 is stale");
    deliver(&mut n, 2, 1, false);
    assert_eq!(n.ship_stats().announces_applied, 2);
}
