//! Strand execution: stateful join stages, pipelining, aggregation.

use crate::tap::{TapEvent, TapKind, TapSink};
use p2_overlog::AggFunc;
use p2_planner::expr::{eval, truthy, EvalCtx, PExpr};
use p2_planner::plan::{AggPlan, FieldMatch, FieldOut, MatchSpec, Op, Strand};
use p2_store::Catalog;
use p2_types::{Addr, Time, Tuple, Value};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// A variable environment: one optional value per planner slot.
pub type Env = Vec<Option<Value>>;

/// An output produced by a strand, to be routed by the node runtime.
#[derive(Debug, Clone, PartialEq)]
pub struct Action {
    /// The head tuple (location in field 0).
    pub tuple: Tuple,
    /// `true` if this is a `delete` rule output: remove the matching row
    /// from the destination table instead of inserting/raising it.
    pub delete: bool,
}

/// Execution counters for one strand (reflected into `sysRule`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StrandStats {
    /// Trigger tuples that matched and entered the strand.
    pub fired: u64,
    /// Output tuples produced.
    pub outputs: u64,
    /// Bindings dropped because an expression failed to evaluate
    /// (division by zero, type mismatch on wire data, ...).
    pub eval_errors: u64,
    /// Join probes answered from the strand's probe cache instead of the
    /// store (consecutive same-key triggers; see `ProbeCache`).
    pub probe_cache_hits: u64,
}

/// The last equality-probe result, memoized per strand.
///
/// Consecutive triggers of one strand tend to probe the same key (an
/// envelope's tuples, one rule's outputs). The cache is keyed on
/// `(stage, field, value, table-version, now)`: the store bumps a table's
/// version on *every* observable mutation (including refreshes, which
/// reorder scans) and expiry is a pure function of `now`, so a key hit
/// guarantees the cached candidate rows are bit-identical to what a fresh
/// probe would return — the trace stays exact.
#[derive(Debug)]
struct ProbeCache {
    stage: usize,
    field: usize,
    value: Value,
    version: u64,
    now: Time,
    rows: Vec<Tuple>,
}

/// One stateful stage: a join (or archive scan) plus the stateless
/// operators that follow it up to the next stateful op.
#[derive(Debug, Clone)]
struct StageDef {
    table: String,
    match_spec: MatchSpec,
    /// `Some((t0, t1))` makes this an **archive-scan** stage: instead
    /// of probing the live table, it ranges over the history of `table`
    /// this node holds — its own tiers plus every imported origin's
    /// (DESIGN.md §2.12) — for rows whose validity interval overlaps
    /// the evaluated `[t0, t1]`. Any fetching from peers happens
    /// *before* the strand fires, so the scan itself stays synchronous.
    /// Archive stages never use the probe cache or the secondary
    /// indexes.
    archive: Option<(PExpr, PExpr)>,
    post: Vec<Op>,
}

#[derive(Debug, Default)]
struct StageState {
    input: VecDeque<StageInput>,
    active: Option<ActiveJoin>,
}

/// A queued unit of work for a stage. `trigger` is present only on
/// stage-0 entries: the Input tap fires when the trigger *enters the
/// first stateful element* (activation), not when it is merely queued —
/// this is what lets a subsequent event's Input be observed while a prior
/// event still occupies later stages (the Figure 3 scenario).
#[derive(Debug)]
struct StageInput {
    env: Env,
    trigger: Option<Tuple>,
}

/// An in-progress join: precomputed `(extended-env, matched-tuple)` pairs
/// that are emitted **one per scheduler step**, which is what produces
/// genuine pipelining across consecutive trigger events (§2.1.2).
#[derive(Debug)]
struct ActiveJoin {
    /// Owning iterator so each match is moved out exactly once — a
    /// result is never revisited, so cloning it per emission would be
    /// pure allocation overhead.
    results: std::vec::IntoIter<(Env, Tuple)>,
}

/// One member of a strand family: the rule's own identity, its private
/// stateless tail (ops after the shared prefix), and its counters. A
/// plain single-rule strand is a family of one whose tail is empty.
struct Branch {
    plan: Arc<Strand>,
    strand_id: Arc<str>,
    rule_label: Arc<str>,
    /// Stateless ops applied per-branch at finalize time, after the
    /// shared prefix produced a binding.
    tail: Vec<Op>,
    stats: StrandStats,
}

/// The runtime instantiation of one compiled strand — or of a
/// **shared-prefix family** of strands (`CompiledProgram::prefix_groups`):
/// the common trigger match, pre-ops, and join pipeline run **once** per
/// trigger, and each member branch applies its own stateless tail and
/// head per result.
///
/// Observability is per branch: every Input/Precondition/StageComplete/
/// Output tap is emitted once per member under the member's own strand
/// id, so the tracer's per-rule records are identical to running the
/// members unshared. Work counters attributable to the shared region
/// (eval errors in shared ops, probe-cache hits) land on the first
/// branch.
pub struct StrandRuntime {
    branches: Vec<Branch>,
    /// Stateless operators before the first join (shared).
    pre_ops: Vec<Op>,
    stage_defs: Vec<StageDef>,
    stages: Vec<StageState>,
    /// Environment width: the max over member plans (prefix slots are
    /// identical across members; tails may extend differently).
    slots: usize,
    /// Round-robin scheduling cursor over stages. Round-robin (rather
    /// than drain-downstream-first) is what produces the genuine
    /// pipelined interleavings of §2.1.2.
    cursor: usize,
    probe_cache: Option<ProbeCache>,
}

impl StrandRuntime {
    /// Instantiate a single compiled strand (a family of one: the whole
    /// op list is the "shared" region and the tail is empty, which makes
    /// execution — taps included — bit-identical to the pre-family
    /// runtime).
    pub fn new(plan: Arc<Strand>) -> StrandRuntime {
        let shared = plan.ops.len();
        StrandRuntime::family(vec![plan], shared)
    }

    /// Instantiate a shared-prefix family. All members must agree on the
    /// trigger, the trigger match, and the first `shared_ops` ops (the
    /// planner's `PrefixGroup` guarantees this, along with purity of
    /// every member — sharing evaluates the prefix once instead of once
    /// per member); with more than one member no member may aggregate.
    pub fn family(plans: Vec<Arc<Strand>>, shared_ops: usize) -> StrandRuntime {
        assert!(!plans.is_empty(), "a family needs at least one member");
        let rep = plans[0].clone();
        debug_assert!(plans.iter().all(|p| {
            p.trigger == rep.trigger
                && p.trigger_match == rep.trigger_match
                && p.ops[..shared_ops] == rep.ops[..shared_ops]
        }));
        debug_assert!(plans.len() == 1 || plans.iter().all(|p| p.head.agg.is_none()));
        let mut pre_ops = Vec::new();
        let mut stage_defs: Vec<StageDef> = Vec::new();
        for op in &rep.ops[..shared_ops] {
            match op {
                Op::Join { table, match_spec } => {
                    stage_defs.push(StageDef {
                        table: table.clone(),
                        match_spec: match_spec.clone(),
                        archive: None,
                        post: Vec::new(),
                    });
                }
                Op::ArchiveScan {
                    table,
                    t0,
                    t1,
                    match_spec,
                } => {
                    stage_defs.push(StageDef {
                        table: table.clone(),
                        match_spec: match_spec.clone(),
                        archive: Some((t0.clone(), t1.clone())),
                        post: Vec::new(),
                    });
                }
                other => {
                    if let Some(last) = stage_defs.last_mut() {
                        last.post.push(other.clone());
                    } else {
                        pre_ops.push(other.clone());
                    }
                }
            }
        }
        let stages = (0..stage_defs.len())
            .map(|_| StageState::default())
            .collect();
        let slots = plans.iter().map(|p| p.slots).max().unwrap_or(0);
        let branches = plans
            .into_iter()
            .map(|p| Branch {
                strand_id: Arc::from(p.strand_id.as_str()),
                rule_label: Arc::from(p.rule_label.as_str()),
                tail: p.ops[shared_ops..].to_vec(),
                stats: StrandStats::default(),
                plan: p,
            })
            .collect();
        StrandRuntime {
            branches,
            pre_ops,
            stage_defs,
            stages,
            slots,
            cursor: 0,
            probe_cache: None,
        }
    }

    /// The compiled plan of the first (representative) member.
    pub fn plan(&self) -> &Strand {
        &self.branches[0].plan
    }

    /// Number of member strands sharing this runtime.
    pub fn branch_count(&self) -> usize {
        self.branches.len()
    }

    /// Per-member plans and counters, in member order.
    pub fn branches(&self) -> impl Iterator<Item = (&Strand, StrandStats)> + '_ {
        self.branches.iter().map(|b| (&*b.plan, b.stats))
    }

    /// Execution counters, summed across members (identical to the
    /// single strand's counters for a family of one).
    pub fn stats(&self) -> StrandStats {
        let mut total = StrandStats::default();
        for b in &self.branches {
            total.fired += b.stats.fired;
            total.outputs += b.stats.outputs;
            total.eval_errors += b.stats.eval_errors;
            total.probe_cache_hits += b.stats.probe_cache_hits;
        }
        total
    }

    /// Whether any stage still holds queued or in-progress work.
    pub fn has_work(&self) -> bool {
        self.stages
            .iter()
            .any(|s| !s.input.is_empty() || s.active.is_some())
    }

    /// Relations this strand's `past()` stages scan. The node runtime
    /// consults this before firing the strand: any peer history these
    /// relations need must be fetched and imported first, so the scan
    /// itself never blocks.
    pub fn history_relations(&self) -> impl Iterator<Item = &str> {
        self.stage_defs
            .iter()
            .filter(|d| d.archive.is_some())
            .map(|d| d.table.as_str())
    }

    /// Emit a tap once per member branch (under each member's identity).
    fn tap_all(&self, sink: &mut dyn TapSink, at: Time, kind: &TapKind) {
        if !sink.enabled() {
            return;
        }
        let stage_count = self.stage_defs.len();
        for b in &self.branches {
            sink.tap(TapEvent {
                strand_id: b.strand_id.clone(),
                rule_label: b.rule_label.clone(),
                stage_count,
                kind: kind.clone(),
                at,
            });
        }
    }

    /// Offer a trigger tuple to the strand. If it matches, the strand
    /// either queues work into its first stage or (for strands with no
    /// joins, and for aggregates, which run atomically) completes
    /// immediately, appending outputs to `actions`.
    ///
    /// Returns `true` if the trigger matched.
    #[allow(clippy::too_many_arguments)]
    pub fn fire(
        &mut self,
        trigger: &Tuple,
        store: &mut Catalog,
        ctx: &mut dyn EvalCtx,
        sink: &mut dyn TapSink,
        now: Time,
        actions: &mut Vec<Action>,
    ) -> bool {
        let mut env: Env = vec![None; self.slots];
        match self.branches[0]
            .plan
            .trigger_match
            .apply(trigger, &mut env, ctx)
        {
            Ok(true) => {}
            Ok(false) => return false,
            Err(_) => {
                self.branches[0].stats.eval_errors += 1;
                return false;
            }
        }
        for b in &mut self.branches {
            b.stats.fired += 1;
        }

        if self.branches[0].plan.head.agg.is_some() {
            self.tap_all(
                sink,
                now,
                &TapKind::Input {
                    tuple: trigger.clone(),
                },
            );
            self.fire_aggregate(env, store, ctx, sink, now, actions);
            return true;
        }

        let env = match apply_stateless(&self.pre_ops, env, ctx, &mut self.branches[0].stats) {
            Some(e) => e,
            None => {
                // The trigger matched but a pre-join condition filtered
                // it; the rule never "enters" the strand, so no Input tap.
                return true;
            }
        };
        if self.stage_defs.is_empty() {
            self.tap_all(
                sink,
                now,
                &TapKind::Input {
                    tuple: trigger.clone(),
                },
            );
            self.finalize(env, ctx, sink, now, actions);
        } else {
            self.stages[0].input.push_back(StageInput {
                env,
                trigger: Some(trigger.clone()),
            });
        }
        true
    }

    /// Advance the strand by one scheduler step: the **highest** stage
    /// with available work emits one match (downstream-first scheduling,
    /// the classic pipeline discipline). Returns `true` if work was done.
    pub fn step(
        &mut self,
        store: &mut Catalog,
        ctx: &mut dyn EvalCtx,
        sink: &mut dyn TapSink,
        now: Time,
        actions: &mut Vec<Action>,
    ) -> bool {
        let n = self.stages.len();
        for k in 0..n {
            let i = (self.cursor + k) % n;
            // Emit one pending match from an active join.
            if self.stages[i].active.is_some() {
                let (emit, done): (Option<(Env, Tuple)>, bool) = {
                    // `if let` would hold the borrow across the strand
                    // methods below; the narrow block keeps it local.
                    #[expect(clippy::expect_used, reason = "is_some checked just above")]
                    let active = self.stages[i].active.as_mut().expect("checked");
                    match active.results.next() {
                        Some(r) => (Some(r), false),
                        None => (None, true),
                    }
                };
                if let Some((env, tuple)) = emit {
                    self.tap_all(sink, now, &TapKind::Precondition { stage: i, tuple });
                    if let Some(env) = apply_stateless(
                        &self.stage_defs[i].post,
                        env,
                        ctx,
                        &mut self.branches[0].stats,
                    ) {
                        if i + 1 < self.stages.len() {
                            self.stages[i + 1]
                                .input
                                .push_back(StageInput { env, trigger: None });
                        } else {
                            self.finalize(env, ctx, sink, now, actions);
                        }
                    }
                } else if done {
                    // Exhausted: signal completion (the element "seeks a
                    // new input", §2.1.2) and free the stage.
                    self.stages[i].active = None;
                    self.tap_all(sink, now, &TapKind::StageComplete { stage: i });
                }
                self.cursor = (i + 1) % n;
                return true;
            }
            // Activate the next queued input (its own scheduler step; the
            // first match is emitted on the stage's next visit).
            if let Some(item) = self.stages[i].input.pop_front() {
                if let Some(trigger) = item.trigger {
                    self.tap_all(sink, now, &TapKind::Input { tuple: trigger });
                }
                let results = probe_stage(
                    &self.stage_defs[i],
                    i,
                    &item.env,
                    store,
                    ctx,
                    now,
                    &mut self.branches[0].stats,
                    &mut self.probe_cache,
                );
                self.stages[i].active = Some(ActiveJoin {
                    results: results.into_iter(),
                });
                self.cursor = (i + 1) % n;
                return true;
            }
        }
        false
    }

    /// Discard all queued and in-progress pipeline work (the scheduler's
    /// budget-exhaustion path). Returns the number of work units dropped:
    /// queued stage inputs, un-emitted join matches, and in-progress
    /// joins themselves.
    pub fn abandon_work(&mut self) -> u64 {
        let mut dropped = 0;
        for s in &mut self.stages {
            dropped += s.input.len() as u64;
            s.input.clear();
            if let Some(a) = s.active.take() {
                dropped += 1 + a.results.len() as u64;
            }
        }
        self.cursor = 0;
        dropped
    }

    /// Drive the strand until no stage has work left.
    pub fn run_to_quiescence(
        &mut self,
        store: &mut Catalog,
        ctx: &mut dyn EvalCtx,
        sink: &mut dyn TapSink,
        now: Time,
        actions: &mut Vec<Action>,
    ) {
        while self.step(store, ctx, sink, now, actions) {}
    }

    /// Finish one binding produced by the shared region: each member
    /// branch applies its own stateless tail over its own copy of the
    /// environment (tails may write disjoint slot ranges; copying makes
    /// collisions impossible) and emits its own head tuple and Output
    /// tap. For a family of one the tail is empty and this is exactly
    /// the old single-strand finalize.
    fn finalize(
        &mut self,
        mut env: Env,
        ctx: &mut dyn EvalCtx,
        sink: &mut dyn TapSink,
        now: Time,
        actions: &mut Vec<Action>,
    ) {
        let stage_count = self.stage_defs.len();
        let n = self.branches.len();
        for (i, b) in self.branches.iter_mut().enumerate() {
            let benv = if i + 1 == n {
                std::mem::take(&mut env)
            } else {
                env.clone()
            };
            let Some(benv) = apply_stateless(&b.tail, benv, ctx, &mut b.stats) else {
                continue;
            };
            match head_tuple(&b.plan, &benv, ctx, None) {
                Ok(tuple) => {
                    if sink.enabled() {
                        sink.tap(TapEvent {
                            strand_id: b.strand_id.clone(),
                            rule_label: b.rule_label.clone(),
                            stage_count,
                            kind: TapKind::Output {
                                tuple: tuple.clone(),
                            },
                            at: now,
                        });
                    }
                    b.stats.outputs += 1;
                    actions.push(Action {
                        tuple,
                        delete: b.plan.head.delete,
                    });
                }
                Err(()) => {
                    b.stats.eval_errors += 1;
                }
            }
        }
    }

    /// Aggregate strands run atomically per trigger: evaluate the whole
    /// body, group the result multiset by the non-aggregate head fields,
    /// and emit one output per group (plus the zero-count row when the
    /// plan allows it — rule `sr8`/`sr9`). Aggregates never share a
    /// prefix, so this always runs on a family of one.
    fn fire_aggregate(
        &mut self,
        env0: Env,
        store: &mut Catalog,
        ctx: &mut dyn EvalCtx,
        sink: &mut dyn TapSink,
        now: Time,
        actions: &mut Vec<Action>,
    ) {
        debug_assert_eq!(self.branches.len(), 1, "aggregates are never shared");
        let plan = self.branches[0].plan.clone();
        #[expect(
            clippy::expect_used,
            reason = "only strands planned with an aggregate head reach this path"
        )]
        let agg: AggPlan = plan.head.agg.clone().expect("agg strand");
        let mut envs = match apply_stateless(
            &self.pre_ops,
            env0.clone(),
            ctx,
            &mut self.branches[0].stats,
        ) {
            Some(e) => vec![e],
            None => Vec::new(),
        };
        for i in 0..self.stage_defs.len() {
            let mut next_envs = Vec::new();
            for env in envs {
                for (e2, t) in probe_stage(
                    &self.stage_defs[i],
                    i,
                    &env,
                    store,
                    ctx,
                    now,
                    &mut self.branches[0].stats,
                    &mut self.probe_cache,
                ) {
                    self.tap_all(sink, now, &TapKind::Precondition { stage: i, tuple: t });
                    if let Some(e3) = apply_stateless(
                        &self.stage_defs[i].post,
                        e2,
                        ctx,
                        &mut self.branches[0].stats,
                    ) {
                        next_envs.push(e3);
                    }
                }
            }
            envs = next_envs;
        }

        // Group by the evaluated non-aggregate head fields.
        let mut groups: BTreeMap<Vec<Value>, AggState> = BTreeMap::new();
        for env in &envs {
            let key = match group_key(&plan, env, ctx, &agg) {
                Ok(k) => k,
                Err(()) => {
                    self.branches[0].stats.eval_errors += 1;
                    continue;
                }
            };
            let input = match &agg.over {
                Some(e) => match eval(e, env, ctx) {
                    Ok(v) => Some(v),
                    Err(_) => {
                        self.branches[0].stats.eval_errors += 1;
                        continue;
                    }
                },
                None => None,
            };
            groups
                .entry(key)
                .or_insert_with(|| AggState::new(agg.func))
                .feed(input);
        }

        // Zero-count emission for an empty match set.
        if groups.is_empty() && agg.func == AggFunc::Count && agg.group_bound_by_trigger {
            if let Ok(key) = group_key(&plan, &env0, ctx, &agg) {
                groups.insert(key, AggState::new(AggFunc::Count));
            }
        }

        for (key, state) in groups {
            let Some(agg_value) = state.result() else {
                continue;
            };
            // Rebuild the tuple: key fields in order with the aggregate
            // value spliced at its position.
            let mut vals = Vec::with_capacity(plan.head.fields.len());
            let mut key_iter = key.into_iter();
            for (pos, _) in plan.head.fields.iter().enumerate() {
                if pos == agg.position {
                    vals.push(agg_value.clone());
                } else {
                    #[expect(
                        clippy::expect_used,
                        reason = "group keys carry one value per non-aggregate head field"
                    )]
                    vals.push(key_iter.next().expect("group key arity"));
                }
            }
            if let Some(Value::Str(s)) = vals.first() {
                vals[0] = Value::Addr(Addr::new(&**s));
            }
            let tuple = Tuple::new(&plan.head.name, vals);
            self.tap_all(
                sink,
                now,
                &TapKind::Output {
                    tuple: tuple.clone(),
                },
            );
            self.branches[0].stats.outputs += 1;
            actions.push(Action {
                tuple,
                delete: plan.head.delete,
            });
        }
        // Aggregate strands run atomically, so every stage has completed
        // by now; signal the completions in stage order for the tracer.
        for i in 0..self.stage_defs.len() {
            self.tap_all(sink, now, &TapKind::StageComplete { stage: i });
        }
    }
}

/// Apply stateless operators; `None` means the binding was filtered out
/// (or errored, which is counted against `stats` and treated as
/// filtered).
fn apply_stateless(
    ops: &[Op],
    mut env: Env,
    ctx: &mut dyn EvalCtx,
    stats: &mut StrandStats,
) -> Option<Env> {
    for op in ops {
        match op {
            Op::Select(e) => match eval(e, &env, ctx).and_then(|v| truthy(&v)) {
                Ok(true) => {}
                Ok(false) => return None,
                Err(_) => {
                    stats.eval_errors += 1;
                    return None;
                }
            },
            Op::Assign { slot, expr } => match eval(expr, &env, ctx) {
                Ok(v) => env[*slot] = Some(v),
                Err(_) => {
                    stats.eval_errors += 1;
                    return None;
                }
            },
            Op::Join { .. } | Op::ArchiveScan { .. } => {
                unreachable!("stateful ops are stage boundaries")
            }
        }
    }
    Some(env)
}

/// Evaluate a plan's head fields over `env`; `agg_value` fills the
/// aggregate position if present.
fn head_tuple(
    plan: &Strand,
    env: &Env,
    ctx: &mut dyn EvalCtx,
    agg_value: Option<Value>,
) -> Result<Tuple, ()> {
    let mut vals = Vec::with_capacity(plan.head.fields.len());
    for f in &plan.head.fields {
        let v = match f {
            FieldOut::Slot(s) => env.get(*s).and_then(|v| v.clone()).ok_or(())?,
            FieldOut::Const(c) => c.clone(),
            FieldOut::Expr(e) => eval(e, env, ctx).map_err(|_| ())?,
            FieldOut::Agg => agg_value.clone().ok_or(())?,
        };
        vals.push(v);
    }
    // Coerce a string location to an address so heads like
    // `marker@RemoteAddr(...)` route even when the binding came off a
    // string-valued field.
    if let Some(Value::Str(s)) = vals.first() {
        vals[0] = Value::Addr(Addr::new(&**s));
    }
    Ok(Tuple::new(&plan.head.name, vals))
}

/// Evaluate the non-aggregate head fields as the group key.
fn group_key(
    plan: &Strand,
    env: &Env,
    ctx: &mut dyn EvalCtx,
    agg: &AggPlan,
) -> Result<Vec<Value>, ()> {
    let mut key = Vec::new();
    for (pos, f) in plan.head.fields.iter().enumerate() {
        if pos == agg.position {
            continue;
        }
        let v = match f {
            FieldOut::Slot(s) => env.get(*s).and_then(|v| v.clone()).ok_or(())?,
            FieldOut::Const(c) => c.clone(),
            FieldOut::Expr(e) => eval(e, env, ctx).map_err(|_| ())?,
            FieldOut::Agg => unreachable!("skipped"),
        };
        key.push(v);
    }
    Ok(key)
}

/// Compute the join results for one stage against the current store.
///
/// The probe strategy mirrors the planner's index requests: when the
/// stage's [`MatchSpec::probe_field`] names an equality field whose value
/// is known (a constant, or an already-bound variable), the probe goes
/// through [`Catalog::scan_eq`] — an index lookup once the catalog has
/// registered the `(table, field)` index, a counted linear fallback
/// otherwise. Everything else falls back to a full scan.
///
/// A free function (rather than a method) so callers can hold a borrow of
/// one stage definition while lending out the stats counters.
///
/// Equality probes consult the strand's [`ProbeCache`] first: consecutive
/// same-key triggers probe the store once and replay the cached
/// candidates, which the `(version, now)` key proves bit-identical.
#[allow(clippy::too_many_arguments)]
fn probe_stage(
    def: &StageDef,
    stage: usize,
    env: &Env,
    store: &mut Catalog,
    ctx: &mut dyn EvalCtx,
    now: Time,
    stats: &mut StrandStats,
    cache: &mut Option<ProbeCache>,
) -> Vec<(Env, Tuple)> {
    if let Some(window) = &def.archive {
        return archive_stage(def, window, env, store, ctx, now, stats);
    }
    let candidates = match def.match_spec.probe_field() {
        Some(field) => {
            let want = match &def.match_spec.fields[field] {
                FieldMatch::EqConst(c) => Some(c.clone()),
                FieldMatch::EqVar(slot) => env[*slot].clone(),
                _ => None,
            };
            match want {
                Some(v) => {
                    let version = store.version_of(&def.table);
                    let cached = cache.as_ref().filter(|c| {
                        c.stage == stage
                            && c.field == field
                            && c.now == now
                            && c.version == version
                            && c.value == v
                    });
                    if let Some(c) = cached {
                        stats.probe_cache_hits += 1;
                        c.rows.clone()
                    } else {
                        let rows = store.scan_eq(&def.table, field, &v, now);
                        // Version is read *after* the scan: the scan's own
                        // lazy expiry may bump it, and the cache must key
                        // on the post-expiry state it captured.
                        *cache = Some(ProbeCache {
                            stage,
                            field,
                            value: v,
                            version: store.version_of(&def.table),
                            now,
                            rows: rows.clone(),
                        });
                        rows
                    }
                }
                None => store.scan(&def.table, now),
            }
        }
        None => store.scan(&def.table, now),
    };
    let mut results = Vec::new();
    for t in candidates {
        let mut e2 = env.clone();
        match def.match_spec.apply(&t, &mut e2, ctx) {
            Ok(true) => results.push((e2, t)),
            Ok(false) => {}
            Err(_) => stats.eval_errors += 1,
        }
    }
    results
}

/// Compute the results of an archive-scan stage: evaluate the interval
/// bounds over the current binding, range over every origin's archived
/// (and still-live) history of the relation held here, and apply the
/// field match to each row.
///
/// Equality fields whose value is already known — a constant, or a
/// variable bound by an earlier stage — are handed to the store as
/// **pushdown hints**: the archive uses its per-segment column min/max
/// summaries to skip whole sealed segments that cannot contain a
/// matching row. The full match spec still runs on every surviving
/// row, so the hints are purely an optimization.
///
/// Failure is never fatal: an unevaluable bound, a bound that is not a
/// time-like value, or a segment that fails to decode (hostile or
/// truncated bytes surface as typed [`p2_store::SegmentError`]s) all
/// count one eval error and produce zero matches — exactly how a join
/// treats a binding whose expressions misbehave.
fn archive_stage(
    def: &StageDef,
    (t0, t1): &(PExpr, PExpr),
    env: &Env,
    store: &mut Catalog,
    ctx: &mut dyn EvalCtx,
    now: Time,
    stats: &mut StrandStats,
) -> Vec<(Env, Tuple)> {
    let mut bound = |e: &PExpr, stats: &mut StrandStats| -> Option<Time> {
        match eval(e, env, ctx).ok().as_ref().and_then(value_to_time) {
            Some(t) => Some(t),
            None => {
                stats.eval_errors += 1;
                None
            }
        }
    };
    let Some(t0) = bound(t0, stats) else {
        return Vec::new();
    };
    let Some(t1) = bound(t1, stats) else {
        return Vec::new();
    };
    let eqs = eq_hints(&def.match_spec, env);
    let local = ctx.local_addr();
    let Ok(rows) = store.deployment_scan(local.as_str(), &def.table, t0, t1, now, &eqs) else {
        stats.eval_errors += 1;
        return Vec::new();
    };
    let mut results = Vec::new();
    for r in rows {
        let mut e2 = env.clone();
        match def.match_spec.apply(&r.tuple, &mut e2, ctx) {
            Ok(true) => results.push((e2, r.tuple)),
            Ok(false) => {}
            Err(_) => stats.eval_errors += 1,
        }
    }
    results
}

/// Extract the equality predicates of a match spec whose values are
/// known before the scan runs: `EqConst` directly, `EqVar` when the
/// referenced slot is bound in the current environment. `EqExpr` is
/// skipped — expressions may consult `f_rand()`, so pre-evaluating
/// them for a hint would perturb the deterministic RNG stream.
fn eq_hints(ms: &MatchSpec, env: &Env) -> Vec<(usize, Value)> {
    let mut eqs = Vec::new();
    for (i, f) in ms.fields.iter().enumerate() {
        match f {
            FieldMatch::EqConst(c) => eqs.push((i, c.clone())),
            FieldMatch::EqVar(slot) => {
                if let Some(v) = &env[*slot] {
                    eqs.push((i, v.clone()));
                }
            }
            _ => {}
        }
    }
    eqs
}

/// Interpret a value as a point in virtual time: `Time` directly,
/// non-negative integers and floats as *seconds* (the unit every other
/// OverLog surface uses — lifetimes, periods).
fn value_to_time(v: &Value) -> Option<Time> {
    match v {
        Value::Time(t) => Some(*t),
        Value::Int(n) => u64::try_from(*n).ok().map(Time::from_secs),
        Value::Float(x) if *x >= 0.0 && x.is_finite() => {
            Some(Time(p2_types::TimeDelta::from_secs_f64(*x).micros()))
        }
        _ => None,
    }
}

/// Incremental aggregate state.
#[derive(Debug)]
enum AggState {
    Count(u64),
    Min(Option<Value>),
    Max(Option<Value>),
    Sum(Option<Value>),
    Avg { sum: f64, n: u64 },
}

impl AggState {
    fn new(func: AggFunc) -> AggState {
        match func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
            AggFunc::Sum => AggState::Sum(None),
            AggFunc::Avg => AggState::Avg { sum: 0.0, n: 0 },
        }
    }

    fn feed(&mut self, input: Option<Value>) {
        match self {
            AggState::Count(n) => *n += 1,
            AggState::Min(cur) => {
                if let Some(v) = input {
                    let better = cur.as_ref().map(|c| v < *c).unwrap_or(true);
                    if better {
                        *cur = Some(v);
                    }
                }
            }
            AggState::Max(cur) => {
                if let Some(v) = input {
                    let better = cur.as_ref().map(|c| v > *c).unwrap_or(true);
                    if better {
                        *cur = Some(v);
                    }
                }
            }
            AggState::Sum(cur) => {
                if let Some(v) = input {
                    *cur = Some(match cur.take() {
                        Some(acc) => acc.add(&v).unwrap_or(v),
                        None => v,
                    });
                }
            }
            AggState::Avg { sum, n } => {
                if let Some(v) = input {
                    let x = match v {
                        Value::Int(i) => i as f64,
                        Value::Float(f) => f,
                        Value::Time(t) => t.0 as f64,
                        Value::Id(i) => i.0 as f64,
                        _ => return,
                    };
                    *sum += x;
                    *n += 1;
                }
            }
        }
    }

    fn result(self) -> Option<Value> {
        match self {
            AggState::Count(n) => Some(Value::Int(n as i64)),
            AggState::Min(v) | AggState::Max(v) | AggState::Sum(v) => v,
            AggState::Avg { sum, n } => {
                if n == 0 {
                    None
                } else {
                    Some(Value::Float(sum / n as f64))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tap::VecSink;
    use p2_planner::compile_program;
    use p2_planner::expr::FixedCtx;
    use p2_store::TableSpec;
    use p2_types::TimeDelta;
    use std::collections::HashSet;

    /// Build runtimes + a catalog from a program source.
    fn setup(src: &str) -> (Vec<StrandRuntime>, Catalog) {
        let prog = p2_overlog::parse_program(src).unwrap();
        let compiled = compile_program(&prog, &HashSet::new()).unwrap();
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
        let strands = compiled
            .strands
            .into_iter()
            .map(|s| StrandRuntime::new(Arc::new(s)))
            .collect();
        (strands, cat)
    }

    fn drive(s: &mut StrandRuntime, trigger: &Tuple, cat: &mut Catalog) -> (Vec<Action>, VecSink) {
        let mut ctx = FixedCtx::default();
        let mut sink = VecSink::default();
        let mut actions = Vec::new();
        s.fire(trigger, cat, &mut ctx, &mut sink, Time::ZERO, &mut actions);
        s.run_to_quiescence(cat, &mut ctx, &mut sink, Time::ZERO, &mut actions);
        (actions, sink)
    }

    #[test]
    fn event_join_produces_output() {
        let (mut strands, mut cat) = setup(
            "materialize(pred, 100, 10, keys(1)).
             rp4 inconsistentPred@NAddr(PAddr) :- stabilizeRequest@NAddr(SomeID, SomeAddr), pred@NAddr(PID, PAddr), SomeAddr != PAddr.",
        );
        // pred(n1, 5, n9): n1's predecessor is n9.
        cat.insert(
            Tuple::new("pred", [Value::addr("n1"), Value::id(5), Value::addr("n9")]),
            Time::ZERO,
        )
        .unwrap();
        // Stabilize request from n7 (not the predecessor) → inconsistency.
        let trig = Tuple::new(
            "stabilizeRequest",
            [Value::addr("n1"), Value::id(7), Value::addr("n7")],
        );
        let (actions, sink) = drive(&mut strands[0], &trig, &mut cat);
        assert_eq!(actions.len(), 1);
        assert_eq!(actions[0].tuple.name(), "inconsistentPred");
        assert_eq!(actions[0].tuple.get(1), Some(&Value::addr("n9")));
        // Taps: input, precondition, output, stage-complete.
        let kinds: Vec<_> = sink
            .0
            .iter()
            .map(|e| std::mem::discriminant(&e.kind))
            .collect();
        assert_eq!(kinds.len(), 4);

        // From the predecessor itself → no alarm.
        let ok = Tuple::new(
            "stabilizeRequest",
            [Value::addr("n1"), Value::id(5), Value::addr("n9")],
        );
        let (actions, _) = drive(&mut strands[0], &ok, &mut cat);
        assert!(actions.is_empty());
    }

    #[test]
    fn assignments_and_builtins() {
        let (mut strands, mut cat) =
            setup("cs1 conProbe@NAddr(ProbeID, K, T) :- periodic@NAddr(ProbeID, 40), K := f_randID(), T := f_now().");
        let trig = Tuple::new(
            "periodic",
            [Value::addr("n1"), Value::id(9), Value::Int(40)],
        );
        let (actions, _) = drive(&mut strands[0], &trig, &mut cat);
        assert_eq!(actions.len(), 1);
        let t = &actions[0].tuple;
        assert_eq!(t.name(), "conProbe");
        assert_eq!(t.get(1), Some(&Value::id(9)));
        assert!(matches!(t.get(2), Some(Value::Id(_))));
        assert!(matches!(t.get(3), Some(Value::Time(_))));
    }

    #[test]
    fn archive_scan_reads_expired_history() {
        // succ rows live 5s; the forensic rule ranges over [T0, T1]
        // long after every live row has expired.
        let (mut strands, mut cat) = setup(
            "materialize(succ, 5, 10, keys(1, 2)).
             f1 wasSucc@N(S) :- probe@N(T0, T1), past@N(\"succ\", T0, T1, N, S).",
        );
        cat.enable_archive(p2_store::ArchiveConfig::default());
        cat.enroll_archive("succ").unwrap();
        cat.insert(
            Tuple::new("succ", [Value::addr("n1"), Value::id(7)]),
            Time::from_secs(1),
        )
        .unwrap();
        let now = Time::from_secs(30);
        assert!(cat.scan("succ", now).is_empty(), "live row expired");

        let trig = Tuple::new("probe", [Value::addr("n1"), Value::Int(0), Value::Int(10)]);
        let mut ctx = FixedCtx::default();
        let mut sink = VecSink::default();
        let mut actions = Vec::new();
        strands[0].fire(&trig, &mut cat, &mut ctx, &mut sink, now, &mut actions);
        strands[0].run_to_quiescence(&mut cat, &mut ctx, &mut sink, now, &mut actions);
        assert_eq!(actions.len(), 1);
        assert_eq!(actions[0].tuple.name(), "wasSucc");
        assert_eq!(actions[0].tuple.get(1), Some(&Value::id(7)));

        // An interval that predates the row finds nothing, and a scan
        // with archiving off (a fresh catalog) is empty, not an error.
        let early = Tuple::new("probe", [Value::addr("n1"), Value::Int(0), Value::Int(0)]);
        let mut actions = Vec::new();
        strands[0].fire(&early, &mut cat, &mut ctx, &mut sink, now, &mut actions);
        strands[0].run_to_quiescence(&mut cat, &mut ctx, &mut sink, now, &mut actions);
        assert!(actions.is_empty());
        assert_eq!(strands[0].stats().eval_errors, 0);
    }

    #[test]
    fn multi_join_cross_product() {
        let (mut strands, mut cat) = setup(
            "materialize(prec1, 100, 10, keys(1, 2, 3)).
             materialize(prec2, 100, 10, keys(1, 2, 3)).
             r2 head@Z(Y) :- event@N(X), prec1@N(X, Y), prec2@N(Y, Z).",
        );
        let n = Value::addr("n");
        cat.insert(
            Tuple::new("prec1", [n.clone(), Value::Int(1), Value::Int(10)]),
            Time::ZERO,
        )
        .unwrap();
        cat.insert(
            Tuple::new("prec1", [n.clone(), Value::Int(1), Value::Int(20)]),
            Time::ZERO,
        )
        .unwrap();
        cat.insert(
            Tuple::new("prec2", [n.clone(), Value::Int(10), Value::str("za")]),
            Time::ZERO,
        )
        .unwrap();
        cat.insert(
            Tuple::new("prec2", [n.clone(), Value::Int(20), Value::str("zb")]),
            Time::ZERO,
        )
        .unwrap();
        cat.insert(
            Tuple::new("prec2", [n.clone(), Value::Int(20), Value::str("zc")]),
            Time::ZERO,
        )
        .unwrap();
        let trig = Tuple::new("event", [n.clone(), Value::Int(1)]);
        let (actions, sink) = drive(&mut strands[0], &trig, &mut cat);
        // Y=10 → za; Y=20 → zb, zc.
        assert_eq!(actions.len(), 3);
        // Outputs carry Y; locations are the prec2 Z values coerced to addrs.
        let locs: Vec<_> = actions
            .iter()
            .map(|a| a.tuple.location().unwrap().to_string())
            .collect();
        assert!(locs.contains(&"za".to_string()));
        assert!(locs.contains(&"zc".to_string()));
        // Preconditions were tapped at both stages.
        let pre0 = sink
            .0
            .iter()
            .filter(|e| matches!(e.kind, TapKind::Precondition { stage: 0, .. }))
            .count();
        let pre1 = sink
            .0
            .iter()
            .filter(|e| matches!(e.kind, TapKind::Precondition { stage: 1, .. }))
            .count();
        assert_eq!(pre0, 2);
        assert_eq!(pre1, 3);
    }

    #[test]
    fn pipelined_interleaving_across_events() {
        // Two events enter a two-join strand; with downstream-first
        // stepping the second event's stage-0 work interleaves with the
        // first event's stage-1 work once stage 0 completes for event 1.
        let (mut strands, mut cat) = setup(
            "materialize(p1, 100, 10, keys(1, 2)).
             materialize(p2, 100, 10, keys(1, 2)).
             r head@N(Y, Z) :- ev@N(X), p1@N(X, Y), p2@N(Y, Z).",
        );
        let n = Value::addr("n");
        cat.insert(
            Tuple::new("p1", [n.clone(), Value::Int(1), Value::Int(5)]),
            Time::ZERO,
        )
        .unwrap();
        cat.insert(
            Tuple::new("p2", [n.clone(), Value::Int(5), Value::Int(7)]),
            Time::ZERO,
        )
        .unwrap();
        let mut ctx = FixedCtx::default();
        let mut sink = VecSink::default();
        let mut actions = Vec::new();
        let s = &mut strands[0];
        let e1 = Tuple::new("ev", [n.clone(), Value::Int(1)]);
        let e2 = Tuple::new("ev", [n.clone(), Value::Int(1)]);
        assert!(s.fire(&e1, &mut cat, &mut ctx, &mut sink, Time::ZERO, &mut actions));
        assert!(s.fire(&e2, &mut cat, &mut ctx, &mut sink, Time::ZERO, &mut actions));
        s.run_to_quiescence(&mut cat, &mut ctx, &mut sink, Time::ZERO, &mut actions);
        assert_eq!(actions.len(), 2);
        // Both events produced stage-complete signals for both stages.
        let completes = sink
            .0
            .iter()
            .filter(|e| matches!(e.kind, TapKind::StageComplete { .. }))
            .count();
        assert_eq!(completes, 4);
    }

    #[test]
    fn count_aggregate_over_event_trigger() {
        // sr8-like: count table rows matching the event; zero allowed.
        let (mut strands, mut cat) = setup(
            "materialize(snapState, 100, 100, keys(1, 2)).
             sr8 haveSnap@NAddr(SrcAddr, I, count<*>) :- snapState@NAddr(I, State), marker@NAddr(SrcAddr, I).",
        );
        let trig = Tuple::new(
            "marker",
            [Value::addr("n1"), Value::addr("n5"), Value::Int(3)],
        );
        // No snapState rows yet → count must be 0 (sr9 depends on this).
        let (actions, _) = drive(&mut strands[0], &trig, &mut cat);
        assert_eq!(actions.len(), 1);
        assert_eq!(actions[0].tuple.get(3), Some(&Value::Int(0)));

        cat.insert(
            Tuple::new(
                "snapState",
                [Value::addr("n1"), Value::Int(3), Value::str("Snapping")],
            ),
            Time::ZERO,
        )
        .unwrap();
        let (actions, _) = drive(&mut strands[0], &trig, &mut cat);
        assert_eq!(actions[0].tuple.get(3), Some(&Value::Int(1)));
    }

    #[test]
    fn count_aggregate_recomputes_on_table_trigger() {
        // cs6-like: the count must be the table total for the group, not 1.
        let (mut strands, mut cat) = setup(
            "materialize(conRespTable, 100, 100, keys(1, 3)).
             cs6 respCluster@NAddr(ProbeID, SAddr, count<*>) :- conRespTable@NAddr(ProbeID, ReqID, SAddr).",
        );
        let n = Value::addr("n1");
        for req in 0..3 {
            cat.insert(
                Tuple::new(
                    "conRespTable",
                    [n.clone(), Value::Int(7), Value::Int(req), Value::addr("s1")],
                ),
                Time::ZERO,
            )
            .unwrap();
        }
        // Delta: the third insertion (replay it as the trigger).
        let delta = Tuple::new(
            "conRespTable",
            [n.clone(), Value::Int(7), Value::Int(2), Value::addr("s1")],
        );
        let (actions, _) = drive(&mut strands[0], &delta, &mut cat);
        assert_eq!(actions.len(), 1);
        let t = &actions[0].tuple;
        assert_eq!(t.name(), "respCluster");
        assert_eq!(t.get(1), Some(&Value::Int(7)));
        assert_eq!(t.get(3), Some(&Value::Int(3)), "count over whole group");
    }

    #[test]
    fn min_aggregate() {
        let (mut strands, mut cat) = setup(
            "materialize(finger, 100, 100, keys(1, 2)).
             l2 best@NAddr(K, min<D>) :- lookup@NAddr(K), finger@NAddr(FPos, FID), D := K - FID - 1.",
        );
        let n = Value::addr("n1");
        for (pos, fid) in [(0i64, 10u64), (1, 90), (2, 40)] {
            cat.insert(
                Tuple::new("finger", [n.clone(), Value::Int(pos), Value::id(fid)]),
                Time::ZERO,
            )
            .unwrap();
        }
        let trig = Tuple::new("lookup", [n.clone(), Value::id(100)]);
        let (actions, _) = drive(&mut strands[0], &trig, &mut cat);
        assert_eq!(actions.len(), 1);
        // min D = 100 - 90 - 1 = 9.
        assert_eq!(actions[0].tuple.get(2), Some(&Value::id(9)));
    }

    #[test]
    fn min_aggregate_empty_emits_nothing() {
        let (mut strands, mut cat) = setup(
            "materialize(finger, 100, 100, keys(1, 2)).
             l2 best@NAddr(K, min<D>) :- lookup@NAddr(K), finger@NAddr(FPos, FID), D := K - FID - 1.",
        );
        let trig = Tuple::new("lookup", [Value::addr("n1"), Value::id(100)]);
        let (actions, _) = drive(&mut strands[0], &trig, &mut cat);
        assert!(actions.is_empty());
    }

    #[test]
    fn sum_and_avg_extensions() {
        let (mut strands, mut cat) = setup(
            "materialize(score, 100, 100, keys(1, 2)).
             s total@N(sum<V>) :- tally@N(), score@N(K, V).
             a mean@N(avg<V>) :- tally@N(), score@N(K, V).",
        );
        let n = Value::addr("n1");
        for (k, v) in [(1i64, 10i64), (2, 20), (3, 3)] {
            cat.insert(
                Tuple::new("score", [n.clone(), Value::Int(k), Value::Int(v)]),
                Time::ZERO,
            )
            .unwrap();
        }
        let trig = Tuple::new("tally", [n.clone()]);
        let (actions, _) = drive(&mut strands[0], &trig, &mut cat);
        assert_eq!(actions[0].tuple.get(1), Some(&Value::Int(33)));
        let (actions, _) = drive(&mut strands[1], &trig, &mut cat);
        assert_eq!(actions[0].tuple.get(1), Some(&Value::Float(11.0)));
    }

    #[test]
    fn delete_action_flag() {
        let (mut strands, mut cat) = setup(
            "materialize(t, 100, 100, keys(1, 2)).
             d delete t@N(P, T2) :- c@N(P), t@N(P, T2).",
        );
        cat.insert(
            Tuple::new("t", [Value::addr("n1"), Value::Int(1), Value::Int(99)]),
            Time::ZERO,
        )
        .unwrap();
        let trig = Tuple::new("c", [Value::addr("n1"), Value::Int(1)]);
        let (actions, _) = drive(&mut strands[0], &trig, &mut cat);
        assert_eq!(actions.len(), 1);
        assert!(actions[0].delete);
        assert_eq!(actions[0].tuple.name(), "t");
    }

    #[test]
    fn eval_errors_counted_not_fatal() {
        let (mut strands, mut cat) = setup("r out@N(X) :- ev@N(X), X / 0 == 1.");
        let trig = Tuple::new("ev", [Value::addr("n1"), Value::Int(4)]);
        let (actions, _) = drive(&mut strands[0], &trig, &mut cat);
        assert!(actions.is_empty());
        assert_eq!(strands[0].stats().eval_errors, 1);
        assert_eq!(strands[0].stats().fired, 1);
    }

    #[test]
    fn interval_select_in_strand() {
        let (mut strands, mut cat) = setup(
            "materialize(node, 100, 1, keys(1)).
             materialize(bestSucc, 100, 1, keys(1)).
             l1 res@ReqAddr(K, SID) :- lookup@NAddr(K, ReqAddr), node@NAddr(NID), bestSucc@NAddr(SID), K in (NID, SID].",
        );
        let n = Value::addr("n1");
        cat.insert(Tuple::new("node", [n.clone(), Value::id(10)]), Time::ZERO)
            .unwrap();
        cat.insert(
            Tuple::new("bestSucc", [n.clone(), Value::id(20)]),
            Time::ZERO,
        )
        .unwrap();
        let hit = Tuple::new("lookup", [n.clone(), Value::id(15), Value::addr("req")]);
        let (actions, _) = drive(&mut strands[0], &hit, &mut cat);
        assert_eq!(actions.len(), 1);
        assert_eq!(actions[0].tuple.location().unwrap().as_str(), "req");
        let miss = Tuple::new("lookup", [n.clone(), Value::id(25), Value::addr("req")]);
        let (actions, _) = drive(&mut strands[0], &miss, &mut cat);
        assert!(actions.is_empty());
    }

    #[test]
    fn expression_args_in_body_predicates() {
        // `t@N(X + 1)` compiles to an EqExpr field match: the probe keeps
        // only rows whose field equals the evaluated expression.
        let (mut strands, mut cat) = setup(
            "materialize(t, 100, 10, keys(1, 2)).
             r out@N(X) :- ev@N(X), t@N(X + 1).",
        );
        cat.insert(
            Tuple::new("t", [Value::addr("n"), Value::Int(6)]),
            Time::ZERO,
        )
        .unwrap();
        cat.insert(
            Tuple::new("t", [Value::addr("n"), Value::Int(7)]),
            Time::ZERO,
        )
        .unwrap();
        let hit = Tuple::new("ev", [Value::addr("n"), Value::Int(5)]);
        let (actions, _) = drive(&mut strands[0], &hit, &mut cat);
        assert_eq!(actions.len(), 1, "only t(6) == 5+1 matches");
        let miss = Tuple::new("ev", [Value::addr("n"), Value::Int(9)]);
        let (actions, _) = drive(&mut strands[0], &miss, &mut cat);
        assert!(actions.is_empty());
    }

    #[test]
    fn repeated_variable_in_trigger() {
        // ev@N(X, X): both fields must be equal for the strand to fire.
        let (mut strands, mut cat) = setup("r out@N(X) :- ev@N(X, X).");
        let eq = Tuple::new("ev", [Value::addr("n"), Value::Int(3), Value::Int(3)]);
        let (actions, _) = drive(&mut strands[0], &eq, &mut cat);
        assert_eq!(actions.len(), 1);
        let ne = Tuple::new("ev", [Value::addr("n"), Value::Int(3), Value::Int(4)]);
        let (actions, _) = drive(&mut strands[0], &ne, &mut cat);
        assert!(actions.is_empty());
    }

    #[test]
    fn probe_cache_hits_on_repeated_keys_and_invalidates_on_mutation() {
        let (mut strands, mut cat) = setup(
            "materialize(pred, 100, 10, keys(1)).
             r out@N(P) :- ev@N(X), pred@N(X, P).",
        );
        let n = Value::addr("n1");
        cat.insert(
            Tuple::new("pred", [n.clone(), Value::Int(1), Value::Int(10)]),
            Time::ZERO,
        )
        .unwrap();
        let trig = Tuple::new("ev", [n.clone(), Value::Int(1)]);
        let s = &mut strands[0];
        let (a1, _) = drive(s, &trig, &mut cat);
        assert_eq!(a1.len(), 1);
        assert_eq!(s.stats().probe_cache_hits, 0, "first probe fills the cache");
        // Same key, unchanged table: the probe is answered from cache with
        // identical output.
        let (a2, _) = drive(s, &trig, &mut cat);
        assert_eq!(a2, a1);
        assert_eq!(s.stats().probe_cache_hits, 1);
        // Any table mutation invalidates: results must reflect the new row.
        cat.insert(
            Tuple::new("pred", [n.clone(), Value::Int(1), Value::Int(20)]),
            Time::ZERO,
        )
        .unwrap();
        let (a3, _) = drive(s, &trig, &mut cat);
        assert_eq!(
            s.stats().probe_cache_hits,
            1,
            "version bump forces a real probe"
        );
        assert_eq!(a3.len(), 1);
        assert_eq!(a3[0].tuple.get(1), Some(&Value::Int(20)));
    }

    #[test]
    fn abandon_work_drops_everything_and_counts_it() {
        // keys (2, 3) = (X, Y), so all ten rows below are distinct.
        let (mut strands, mut cat) = setup(
            "materialize(p1, 100, 100, keys(2, 3)).
             r head@N(Y) :- ev@N(X), p1@N(X, Y).",
        );
        let n = Value::addr("n");
        for y in 0..10 {
            cat.insert(
                Tuple::new("p1", [n.clone(), Value::Int(1), Value::Int(y)]),
                Time::ZERO,
            )
            .unwrap();
        }
        let mut ctx = FixedCtx::default();
        let mut sink = VecSink::default();
        let mut actions = Vec::new();
        let s = &mut strands[0];
        for _ in 0..3 {
            let e = Tuple::new("ev", [n.clone(), Value::Int(1)]);
            s.fire(&e, &mut cat, &mut ctx, &mut sink, Time::ZERO, &mut actions);
        }
        // Activate the first input and emit a couple of matches, leaving
        // an in-progress join plus two queued inputs.
        for _ in 0..3 {
            s.step(&mut cat, &mut ctx, &mut sink, Time::ZERO, &mut actions);
        }
        assert!(s.has_work());
        let dropped = s.abandon_work();
        // 2 queued inputs + 1 active join + 8 un-emitted matches.
        assert_eq!(dropped, 11);
        assert!(!s.has_work());
        // The strand still accepts new work afterwards.
        let e = Tuple::new("ev", [n.clone(), Value::Int(1)]);
        let before = actions.len();
        s.fire(&e, &mut cat, &mut ctx, &mut sink, Time::ZERO, &mut actions);
        s.run_to_quiescence(&mut cat, &mut ctx, &mut sink, Time::ZERO, &mut actions);
        assert_eq!(actions.len() - before, 10);
    }

    /// Build one family runtime from a program whose planner found a
    /// shared-prefix group covering all strands.
    fn setup_family(src: &str) -> (StrandRuntime, Catalog) {
        let prog = p2_overlog::parse_program(src).unwrap();
        let compiled = compile_program(&prog, &HashSet::new()).unwrap();
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
        assert_eq!(compiled.prefix_groups.len(), 1, "test wants one family");
        let group = compiled.prefix_groups[0].clone();
        let plans: Vec<Arc<Strand>> = compiled.strands.into_iter().map(Arc::new).collect();
        let members: Vec<Arc<Strand>> = group.members.iter().map(|&i| plans[i].clone()).collect();
        (StrandRuntime::family(members, group.shared_ops), cat)
    }

    #[test]
    fn family_shares_prefix_and_fans_out_tails() {
        let (mut fam, mut cat) = setup_family(
            "materialize(t, 100, 10, keys(1, 2, 3)).
             r1 a@N(X, Y) :- ev@N(X), t@N(X, Y).
             r2 b@N(X, Z) :- ev@N(X), t@N(X, Y), Z := Y + 1.",
        );
        assert_eq!(fam.branch_count(), 2);
        let n = Value::addr("n");
        for y in [10i64, 20] {
            cat.insert(
                Tuple::new("t", [n.clone(), Value::Int(1), Value::Int(y)]),
                Time::ZERO,
            )
            .unwrap();
        }
        let trig = Tuple::new("ev", [n.clone(), Value::Int(1)]);
        let (actions, sink) = drive(&mut fam, &trig, &mut cat);
        // Two matches × two members = four outputs.
        assert_eq!(actions.len(), 4);
        let a_outs: Vec<i64> = actions
            .iter()
            .filter(|a| a.tuple.name() == "a")
            .map(|a| match a.tuple.get(2) {
                Some(Value::Int(v)) => *v,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        let b_outs: Vec<i64> = actions
            .iter()
            .filter(|a| a.tuple.name() == "b")
            .map(|a| match a.tuple.get(2) {
                Some(Value::Int(v)) => *v,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(a_outs, vec![10, 20]);
        assert_eq!(b_outs, vec![11, 21], "r2's private tail ran per member");
        // Observability is per member: each tap kind appears once per
        // branch, under the branch's own strand id.
        let inputs_r1 = sink
            .0
            .iter()
            .filter(|e| matches!(e.kind, TapKind::Input { .. }) && e.strand_id.as_ref() == "r1")
            .count();
        let inputs_r2 = sink
            .0
            .iter()
            .filter(|e| matches!(e.kind, TapKind::Input { .. }) && e.strand_id.as_ref() == "r2")
            .count();
        assert_eq!((inputs_r1, inputs_r2), (1, 1));
        let pre_r2 = sink
            .0
            .iter()
            .filter(|e| {
                matches!(e.kind, TapKind::Precondition { .. }) && e.strand_id.as_ref() == "r2"
            })
            .count();
        assert_eq!(pre_r2, 2, "both join matches tapped for the second member");
        // Per-branch stats: both fired once; outputs counted separately.
        let per_branch: Vec<(String, StrandStats)> = fam
            .branches()
            .map(|(p, s)| (p.strand_id.clone(), s))
            .collect();
        assert_eq!(per_branch[0].1.fired, 1);
        assert_eq!(per_branch[1].1.fired, 1);
        assert_eq!(per_branch[0].1.outputs, 2);
        assert_eq!(per_branch[1].1.outputs, 2);
    }

    #[test]
    fn family_output_multiset_matches_unshared_execution() {
        let src = "materialize(t, 100, 10, keys(1, 2, 3)).
             r1 a@N(X, Y) :- ev@N(X), t@N(X, Y), Y > 10.
             r2 b@N(X, Y) :- ev@N(X), t@N(X, Y), Y < 15.";
        let fill = |cat: &mut Catalog| {
            let n = Value::addr("n");
            for y in [5i64, 12, 30] {
                cat.insert(
                    Tuple::new("t", [n.clone(), Value::Int(1), Value::Int(y)]),
                    Time::ZERO,
                )
                .unwrap();
            }
        };
        // Shared execution.
        let (mut fam, mut cat) = setup_family(src);
        fill(&mut cat);
        let trig = Tuple::new("ev", [Value::addr("n"), Value::Int(1)]);
        let (mut shared, _) = drive(&mut fam, &trig, &mut cat);
        // Unshared execution: one runtime per strand.
        let (mut singles, mut cat2) = setup(src);
        fill(&mut cat2);
        let mut unshared = Vec::new();
        for s in &mut singles {
            let (a, _) = drive(s, &trig, &mut cat2);
            unshared.extend(a);
        }
        let key = |a: &Action| format!("{}|{}", a.tuple, a.delete);
        shared.sort_by_key(key);
        unshared.sort_by_key(key);
        assert_eq!(shared, unshared);
    }

    #[test]
    fn trigger_mismatch_does_not_fire() {
        let (mut strands, mut cat) = setup("r out@N() :- ev@N(X, 7).");
        let wrong = Tuple::new("ev", [Value::addr("n1"), Value::Int(1), Value::Int(8)]);
        let (actions, sink) = drive(&mut strands[0], &wrong, &mut cat);
        assert!(actions.is_empty());
        assert!(sink.0.is_empty(), "no Input tap for non-matching trigger");
        assert_eq!(strands[0].stats().fired, 0);
    }
}
