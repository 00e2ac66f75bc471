//! Plan-equivalence oracle: the optimizer must never change *what* a
//! program computes, only *how*.
//!
//! Each case generates a small OverLog program from a template with
//! randomized constants, table contents, and trigger streams; compiles
//! it twice — `PlanOpts::off()` (the unoptimized semantic oracle) and
//! the default Full level (constant folding, pushdown, join reordering,
//! shared-prefix strands) — executes both against identical stores and
//! identical triggers, and requires the **output multisets** to be
//! identical. Ordering is allowed to differ (join reordering changes
//! enumeration order); content is not.
//!
//! Three fixed cases then pin what the optimizer is *for*, as store work
//! counters rather than wall-clock: on a 4,096-row table each of its
//! three runtime wins (join reordering, selection pushdown, shared-prefix
//! strands) must leave the outputs alone and cut `rows_scanned` /
//! `index_probes` by the factor its fixture is built for.

use p2ql::dataflow::tap::NullSink;
use p2ql::dataflow::{Action, StrandRuntime};
use p2ql::planner::expr::FixedCtx;
use p2ql::planner::{compile_program_with, CompiledProgram, PlanOpts, Trigger};
use p2ql::store::{Catalog, TableSpec};
use p2ql::types::{Time, TimeDelta, Tuple, Value};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

/// Instantiate runtimes the way the node installer does: the planner's
/// index requests registered before anything fires, strands in a
/// shared-prefix family one runtime at the leader's position.
fn instantiate(compiled: CompiledProgram) -> (Vec<StrandRuntime>, Catalog) {
    let mut cat = Catalog::new();
    for t in &compiled.tables {
        cat.register(TableSpec::new(
            &t.name,
            t.lifetime_secs.map(TimeDelta::from_secs_f64),
            t.max_rows,
            t.key_fields.clone(),
        ))
        .unwrap();
    }
    for (table, field) in &compiled.index_requests {
        let _ = cat.ensure_index(table, *field);
    }
    let plans: Vec<Arc<p2ql::planner::Strand>> =
        compiled.strands.into_iter().map(Arc::new).collect();
    let mut group_of: Vec<Option<usize>> = vec![None; plans.len()];
    for (g, pg) in compiled.prefix_groups.iter().enumerate() {
        for &m in &pg.members {
            group_of[m] = Some(g);
        }
    }
    let mut runtimes = Vec::new();
    for (i, plan) in plans.iter().enumerate() {
        match group_of[i] {
            Some(g) => {
                let pg = &compiled.prefix_groups[g];
                if pg.members[0] != i {
                    continue;
                }
                let members: Vec<_> = pg.members.iter().map(|&m| plans[m].clone()).collect();
                runtimes.push(StrandRuntime::family(members, pg.shared_ops));
            }
            None => runtimes.push(StrandRuntime::new(plan.clone())),
        }
    }
    (runtimes, cat)
}

/// `rel@n1(a, b)`: every row and trigger in this file lives on one node.
fn at_n1(rel: &str, fields: &[i64]) -> Tuple {
    let n = std::iter::once(Value::addr("n1"));
    Tuple::new(rel, n.chain(fields.iter().map(|&f| Value::Int(f))))
}

/// Store `rows`, then run every `ev`-triggered strand over the trigger
/// stream; return the outputs as a sorted multiset of `(delete, tuple)`
/// strings, and the catalog for its probe counters.
fn run(src: &str, opts: &PlanOpts, rows: &[Tuple], trigs: &[Tuple]) -> (Vec<String>, Catalog) {
    let prog = p2ql::overlog::compile(src).expect("template must parse");
    let compiled = compile_program_with(&prog, &HashSet::new(), opts).expect("template must plan");
    let (mut runtimes, mut cat) = instantiate(compiled);
    for row in rows {
        let _ = cat.insert(row.clone(), Time::ZERO);
    }

    let mut ctx = FixedCtx::default();
    let mut sink = NullSink;
    let mut actions: Vec<Action> = Vec::new();
    for ev in trigs {
        for rt in &mut runtimes {
            if matches!(&rt.plan().trigger, Trigger::Event { name } if name == "ev") {
                rt.fire(ev, &mut cat, &mut ctx, &mut sink, Time::ZERO, &mut actions);
                rt.run_to_quiescence(&mut cat, &mut ctx, &mut sink, Time::ZERO, &mut actions);
            }
        }
    }
    let mut out: Vec<String> = actions
        .iter()
        .map(|a| format!("{}{}", if a.delete { "delete " } else { "" }, a.tuple))
        .collect();
    out.sort();
    (out, cat)
}

/// [`run`] for the randomized cases: `t1` / `t2` rows and `ev(X, K)`
/// triggers from pairs, outputs only.
fn execute(
    src: &str,
    opts: &PlanOpts,
    rows1: &[(i64, i64)],
    rows2: &[(i64, i64)],
    trigs: &[(i64, i64)],
) -> Vec<String> {
    let pairs = |rel, ps: &[(i64, i64)]| -> Vec<Tuple> {
        ps.iter().map(|&(a, b)| at_n1(rel, &[a, b])).collect()
    };
    let rows = [pairs("t1", rows1), pairs("t2", rows2)].concat();
    run(src, opts, &rows, &pairs("ev", trigs)).0
}

/// Source order scans `big` (location-only probe) before the selective
/// `small` join; the optimizer reorders `small` first.
const REORDER: &str = "materialize(big, 1000, 100000, keys(1, 2)).
     materialize(small, 1000, 1000, keys(1, 2)).
     r1 out@N(X, Z) :- ev@N(X), big@N(Y, Z), small@N(X, Y).";

/// The `K == 3` filter is written last; the optimizer pushes it ahead
/// of the join, so non-matching triggers die in one comparison.
const PUSHDOWN: &str = "materialize(big, 1000, 100000, keys(1, 2)).
     r1 out@N(X, Z) :- ev@N(X, K), big@N(X, Z), Z > -1, K == 3.";

/// Four rules share trigger + join prefix; Full runs the prefix once.
/// The per-rule tails read the join's `Z`: a tail on the trigger alone
/// is pushed ahead of the join, and the four prefixes then differ.
const SHARED: &str = "materialize(big, 1000, 100000, keys(1, 2)).
     r1 outa@N(X, Z) :- ev@N(X, K), big@N(X, Z), Z > K.
     r2 outb@N(X, Z) :- ev@N(X, K), big@N(X, Z), Z > K + 10.
     r3 outc@N(X, Z) :- ev@N(X, K), big@N(X, Z), Z > K + 20.
     r4 outd@N(X, Z) :- ev@N(X, K), big@N(X, Z), Z > K + 30.";

const BIG_ROWS: i64 = 4096;

/// Run one fixture at both levels over `big(i, 7i)`, i < 4,096, and
/// `small(i, i)`, i < `small_rows`, firing one `ev` per entry of `trigs`;
/// require equal outputs (`expected` of them) and no linear probe, and
/// return `big`'s `(index_probes, rows_scanned)` as `[Off, Full]`.
fn probe_work(src: &str, small_rows: i64, trigs: &[&[i64]], expected: usize) -> [(u64, u64); 2] {
    let rows: Vec<Tuple> = (0..BIG_ROWS)
        .map(|i| at_n1("big", &[i, i * 7]))
        .chain((0..small_rows).map(|i| at_n1("small", &[i, i])))
        .collect();
    let trigs: Vec<Tuple> = trigs.iter().map(|t| at_n1("ev", t)).collect();
    let (off, off_cat) = run(src, &PlanOpts::off(), &rows, &trigs);
    let (full, full_cat) = run(src, &PlanOpts::default(), &rows, &trigs);
    assert_eq!(off, full, "optimizer changed program output\n{src}");
    assert_eq!(full.len(), expected);
    [off_cat, full_cat].map(|cat| {
        let stats = cat.index_stats();
        let (_, big) = stats.iter().find(|(t, _)| t == "big").expect("big exists");
        assert_eq!(big.linear_probes, 0);
        (big.index_probes, big.rows_scanned)
    })
}

/// Reordering: source order walks all of `big` once per firing (the
/// location is its only bound field); Full probes `small` first and
/// reaches `big` by key, once per `small` hit — X = 64 has none.
#[test]
fn reorder_turns_a_full_scan_per_firing_into_a_keyed_probe() {
    let work = probe_work(REORDER, 64, &[&[3], &[10], &[63], &[64]], 3);
    assert_eq!(work, [(4, 4 * 4096), (3, 3)]);
}

/// Pushdown: source order probes `big` for every trigger and filters
/// afterwards; Full tests `K == 3` first, so only the one matching
/// trigger of four ever reaches the store.
#[test]
fn pushdown_keeps_non_matching_triggers_out_of_the_store() {
    let work = probe_work(PUSHDOWN, 0, &[&[2, 9], &[5, 9], &[7, 3], &[8, 1]], 1);
    assert_eq!(work, [(4, 4), (1, 1)]);
}

/// Shared prefix: four rules with one trigger and one join probe `big`
/// four times per trigger at Off, once at Full. The three triggers
/// pass two, four and none of the per-rule tails.
#[test]
fn shared_prefix_probes_once_per_trigger_instead_of_once_per_rule() {
    let work = probe_work(SHARED, 0, &[&[2, 2], &[5, 4], &[9, 100]], 6);
    assert_eq!(work, [(12, 12), (3, 3)]);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Off and Full produce identical output multisets for randomized
    /// join/select/assign rules — including constant selections that
    /// fold to true (dropped) or false (dead rule, zero output).
    #[test]
    fn optimizer_preserves_output_multisets(
        consts in (-3i64..4, -5i64..6, -2i64..8, 0i64..3),
        cc in (-2i64..3, -2i64..3),
        rows1 in proptest::collection::vec((0i64..4, -5i64..10), 0..5),
        rows2 in proptest::collection::vec((-5i64..10, -5i64..10), 0..5),
        trigs in proptest::collection::vec((0i64..4, 0i64..3), 1..5),
    ) {
        let (m, a, z_min, k_ne) = consts;
        let (c1, c2) = cc;
        // r1: joins + arithmetic assign + variable and constant selects.
        // r2: same trigger and joins as r1 after reordering — a
        //     shared-prefix family candidate at Full.
        let src = format!(
            "materialize(t1, 100, 100, keys(1, 2)).
             materialize(t2, 100, 100, keys(1, 2)).
             r1 out@N(X, Y, Z, W) :- ev@N(X, K), t1@N(X, Y), t2@N(Y, Z), \
                W := Y * {m} + {a}, Z > {z_min}, K != {k_ne}, {c1} < {c2} + 1.
             r2 out2@N(X, Z2) :- ev@N(X, K), t1@N(X, Y), t2@N(Y, Z2), Z2 < {z_min}."
        );
        let off = execute(&src, &PlanOpts::off(), &rows1, &rows2, &trigs);
        let full = execute(&src, &PlanOpts::default(), &rows1, &rows2, &trigs);
        prop_assert_eq!(&off, &full, "optimizer changed program output\n{}", src);
    }

    /// Delete-rule outputs survive optimization identically too.
    #[test]
    fn optimizer_preserves_deletes(
        bound in -5i64..10,
        rows1 in proptest::collection::vec((0i64..4, -5i64..10), 1..5),
        trigs in proptest::collection::vec((0i64..4, 0i64..3), 1..4),
    ) {
        let src = format!(
            "materialize(t1, 100, 100, keys(1, 2)).
             materialize(t2, 100, 100, keys(1, 2)).
             d1 delete t1@N(X, Y) :- ev@N(X, K), t1@N(X, Y), Y < {bound}."
        );
        let off = execute(&src, &PlanOpts::off(), &rows1, &[], &trigs);
        let full = execute(&src, &PlanOpts::default(), &rows1, &[], &trigs);
        prop_assert_eq!(&off, &full);
    }
}
