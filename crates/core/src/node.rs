//! The node runtime: state and public API.
//!
//! A [`Node`] owns the per-node machinery of Figure 1 — catalog, rule
//! strands, timers, tracer, router — but the runtime logic is split
//! across sibling modules, each an `impl Node` block over the same
//! state:
//!
//! * `scheduler` — the pump loop, the dispatch budget, and the
//!   timer wheel,
//! * `router` — action routing (local loop-back vs network) and
//!   the coalescing outbox,
//! * `installer` — program compile/install/uninstall and
//!   trace-table registration.
//!
//! Local deltas flow through `Node::push_pending` into one FIFO of
//! tuples; the scheduler pops them one at a time, so the paper's §2.1.2
//! per-tuple interleave is the only schedule there is.

use crate::metrics::NodeMetrics;
use p2_dataflow::{NullSink, StrandRuntime, TapSink};
use p2_net::Envelope;
use p2_planner::expr::EvalCtx;
use p2_store::Catalog;
use p2_trace::{TraceConfig, Tracer};
use p2_types::{Addr, DetRng, Time, Tuple, Value};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;

/// Handle to an installed program, for later removal ("piecemeal"
/// deployment and un-deployment of monitoring queries, §1.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProgramId(pub u64);

/// Errors from installing a program on a running node.
#[derive(Debug, Clone, PartialEq)]
pub enum InstallError {
    /// Front-end (parse/validate) failure.
    Compile(p2_overlog::CompileError),
    /// A static-analysis pass found hard errors (warnings and notes do
    /// not reject — they surface through `sysDiag`).
    Analysis(p2_overlog::Diagnostics),
    /// Planning failure.
    Plan(p2_planner::PlanError),
    /// A table re-declaration conflicted with the running catalog.
    Catalog(p2_store::CatalogError),
}

impl fmt::Display for InstallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstallError::Compile(e) => write!(f, "{e}"),
            InstallError::Analysis(ds) => match ds.first_error() {
                Some(d) => write!(f, "analysis error [{}]: {}", d.code, d.message),
                None => write!(f, "analysis error"),
            },
            InstallError::Plan(e) => write!(f, "plan error: {e}"),
            InstallError::Catalog(e) => write!(f, "catalog error: {e}"),
        }
    }
}

impl std::error::Error for InstallError {}

/// Which tables write-through into the archive tier (beyond the trace
/// tables, which are always enrolled when archiving is on — they carry
/// the §3 provenance and have the shortest lifetimes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArchiveEnroll {
    /// Every registered table spills, except the `sys*` reflection
    /// tables (they are re-materialized snapshots of live state;
    /// archiving their churn would record the act of looking).
    All,
    /// Trace tables plus exactly the named application tables.
    Named(Vec<String>),
}

/// Archive-tier settings: tuning knobs plus the enrollment policy.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchiveMode {
    /// Epoch width, retention budget, compaction threshold.
    pub config: p2_store::ArchiveConfig,
    /// Which tables spill (see [`ArchiveEnroll`]).
    pub enroll: ArchiveEnroll,
}

impl Default for ArchiveMode {
    fn default() -> Self {
        ArchiveMode {
            config: p2_store::ArchiveConfig::default(),
            enroll: ArchiveEnroll::All,
        }
    }
}

/// Where a node's durable segment log lives (DESIGN.md §2.14).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DurableBackend {
    /// Deterministic in-memory log: survives [`Node::into_durable`] /
    /// [`Node::with_recovered`] handover (the sim harness's restart
    /// path) but not process exit. The default for simulation.
    Memory,
    /// One directory per deployment; each node keeps its manifest and
    /// per-relation `.seglog` files under `<dir>/<sanitized addr>/`.
    Dir(std::path::PathBuf),
}

/// Durability settings: backend, fsync policy, and an optional
/// deterministic fault plan (crash points, torn writes, bit flips)
/// applied to the store for recovery testing.
#[derive(Debug, Clone)]
pub struct DurabilityMode {
    /// Log placement (see [`DurableBackend`]).
    pub backend: DurableBackend,
    /// Whether the seal barrier additionally `fsync`s file-backed logs
    /// (counted either way in `durable.fsyncs`).
    pub fsync: bool,
    /// Deterministic fault injection wrapped around the backend; `None`
    /// in production.
    pub plan: Option<p2_store::FaultPlan>,
}

impl Default for DurabilityMode {
    fn default() -> Self {
        DurabilityMode {
            backend: DurableBackend::Memory,
            fsync: false,
            plan: None,
        }
    }
}

/// Node configuration.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Whether execution tracing (taps → `ruleExec`/`tupleTable`) is on.
    pub tracing: bool,
    /// Tracer resource bounds.
    pub trace: TraceConfig,
    /// RNG seed (combined with the address for per-node streams).
    pub seed: u64,
    /// Stagger the first firing of each periodic timer uniformly within
    /// its period (desynchronizes protocol rounds across nodes, as real
    /// deployments are).
    pub stagger_timers: bool,
    /// Work budget per pump, covering both tuple dispatches and strand
    /// pipeline steps: a runaway rule set (e.g. a mutually recursive
    /// event loop) is cut off after this much work and counted in
    /// `NodeMetrics::overflow_drops` / `strand_overflow_drops` instead
    /// of hanging the process.
    pub max_dispatch_per_pump: u64,
    /// Archive tier (DESIGN.md §2.11): `None` (the default) keeps the
    /// live-only store bit-identical to the pre-archive runtime; `Some`
    /// spills dropped rows of the enrolled tables into epoch-segmented
    /// history, so `past()` scans and forensic replays can range over
    /// state that has already expired.
    pub archive: Option<ArchiveMode>,
    /// Durable segment log (DESIGN.md §2.14): `None` (the default)
    /// keeps the archive purely in memory and every existing trace
    /// byte-identical; `Some` appends each sealed segment to the
    /// configured backend before it becomes visible, so
    /// [`Node::with_recovered`] can rebuild archived history after a
    /// crash. Requires `archive` to be enabled to have any effect.
    pub durability: Option<DurabilityMode>,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            tracing: false,
            trace: TraceConfig::default(),
            seed: 0,
            stagger_timers: true,
            max_dispatch_per_pump: 200_000,
            archive: None,
            durability: None,
        }
    }
}

impl NodeConfig {
    /// Forensic preset: tracing on and every table archived. Install on
    /// nodes under investigation so §3 questions ("why does this entry
    /// exist?", "what did the ring look like at T?") stay answerable
    /// from segments alone after every live lifetime has expired.
    pub fn forensic() -> NodeConfig {
        NodeConfig {
            tracing: true,
            archive: Some(ArchiveMode::default()),
            ..NodeConfig::default()
        }
    }
}

/// Expression-evaluation context handed to strands: virtual (or real)
/// time, the node's deterministic RNG, and its address.
pub(crate) struct NodeCtx<'a> {
    pub(crate) now: Time,
    pub(crate) addr: Addr,
    pub(crate) rng: &'a mut DetRng,
}

impl EvalCtx for NodeCtx<'_> {
    fn now(&self) -> Time {
        self.now
    }
    fn rand(&mut self) -> u64 {
        self.rng.next_u64()
    }
    fn local_addr(&self) -> Addr {
        self.addr.clone()
    }
}

/// One P2 node: catalog, strands, timers, tracer, router.
pub struct Node {
    pub(crate) addr: Addr,
    pub(crate) config: NodeConfig,
    pub(crate) catalog: Catalog,
    pub(crate) strands: Vec<StrandRuntime>,
    /// Strand index per program, for uninstall.
    pub(crate) strand_programs: Vec<ProgramId>,
    pub(crate) event_dispatch: HashMap<String, Vec<usize>>,
    pub(crate) table_dispatch: HashMap<String, Vec<usize>>,
    pub(crate) timers: Vec<crate::scheduler::TimerState>,
    /// Pending firings: (next_fire, timer index). Peeked for scheduling,
    /// popped on firing — O(log n) per timer event instead of a scan
    /// over every installed timer (Figure 4 installs hundreds).
    pub(crate) timer_heap: BinaryHeap<Reverse<(Time, usize)>>,
    pub(crate) tracer: Tracer,
    pub(crate) rng: DetRng,
    /// Queued local dispatches, `(tuple, traced)`. `traced` is false
    /// for tuples that originate from the tracer's own tables, so trace
    /// processing is never itself traced (regress protection; see
    /// `p2-trace` docs).
    pub(crate) pending: VecDeque<(Tuple, bool)>,
    /// Strands with in-flight pipeline work, ascending — the scheduler's
    /// worklist, replacing an O(strands) scan per pump iteration.
    pub(crate) active_strands: BTreeSet<usize>,
    pub(crate) outbox: Vec<Envelope>,
    pub(crate) watches: HashMap<String, Vec<(Time, Tuple)>>,
    pub(crate) metrics: NodeMetrics,
    /// Shard counters published by the engine when it has more than
    /// one shard (otherwise `sysStat` carries no `shard.*` rows).
    pub(crate) shard_stats: Option<crate::metrics::ShardStats>,
    pub(crate) next_program: u64,
    /// Installed programs and their sources, in install order; what a
    /// restart reinstalls.
    pub(crate) programs: Vec<(ProgramId, Arc<str>)>,
    /// Plan-time warnings from installed programs (dead rules, ...),
    /// tagged with the owning program for uninstall cleanup.
    pub(crate) plan_diagnostics: Vec<(ProgramId, p2_planner::Diagnostic)>,
    /// Static-analysis warnings/notes per installed program, reflected
    /// into `sysDiag` on introspection refresh.
    pub(crate) analysis_diagnostics: Vec<(ProgramId, p2_overlog::Diagnostic)>,
    /// Segment-shipping coordinator state (DESIGN.md §2.12).
    pub(crate) ship: crate::ship::ShipState,
}

impl Node {
    /// Create a node at `addr`. With durability configured this is a
    /// *first boot*: the durable store is built from the config and its
    /// (empty) logs recovered, so a fresh node and a restarted one take
    /// the same code path.
    pub fn new(addr: Addr, config: NodeConfig) -> Node {
        Node::boot(addr, config, None)
    }

    /// Re-create a node after a crash, recovering archived history from
    /// the durable store handed over from its previous incarnation (see
    /// [`Node::into_durable`]). Soft state — live tables, timers, trace
    /// state, in-flight strands — is gone by contract; only sealed
    /// segments survive. With `store == None` this is a plain boot.
    pub fn with_recovered(
        addr: Addr,
        config: NodeConfig,
        store: Option<p2_store::DurableStore>,
    ) -> Node {
        Node::boot(addr, config, store)
    }

    /// Tear the node down and detach its durable store (if any) for
    /// handover to the next incarnation. Everything else is dropped —
    /// the crash loses all soft state.
    pub fn into_durable(mut self) -> Option<p2_store::DurableStore> {
        self.catalog.take_durable()
    }

    /// Build the durable store described by `mode` (first boot: no
    /// handover). File-backed logs live under `<dir>/<sanitized addr>/`.
    fn build_durable(addr: &Addr, mode: &DurabilityMode) -> p2_store::DurableStore {
        let store = match &mode.backend {
            DurableBackend::Memory => p2_store::DurableStore::memory(),
            DurableBackend::Dir(base) => {
                let leaf: String = addr
                    .as_str()
                    .chars()
                    .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                    .collect();
                p2_store::DurableStore::dir(base.join(leaf), mode.fsync)
            }
        };
        store.with_faults(mode.plan.clone().unwrap_or_default())
    }

    fn boot(addr: Addr, config: NodeConfig, handover: Option<p2_store::DurableStore>) -> Node {
        let rng = DetRng::derive(config.seed, addr.as_str());
        let tracer = Tracer::new(addr.clone(), config.trace.clone());
        let mut node = Node {
            addr,
            config,
            catalog: Catalog::new(),
            strands: Vec::new(),
            strand_programs: Vec::new(),
            event_dispatch: HashMap::new(),
            table_dispatch: HashMap::new(),
            timers: Vec::new(),
            timer_heap: BinaryHeap::new(),
            tracer,
            rng,
            pending: VecDeque::new(),
            active_strands: BTreeSet::new(),
            outbox: Vec::new(),
            watches: HashMap::new(),
            metrics: NodeMetrics::default(),
            shard_stats: None,
            next_program: 1,
            programs: Vec::new(),
            plan_diagnostics: Vec::new(),
            analysis_diagnostics: Vec::new(),
            ship: crate::ship::ShipState::default(),
        };
        // The archive tier goes up before any table registers, so every
        // registration path can enroll as it goes.
        if let Some(mode) = &node.config.archive {
            node.catalog.enable_archive(mode.config);
        }
        // Durable recovery runs right after the archive tier exists and
        // before any new spill: recovered segments form the clean prefix
        // every later seal appends to.
        if node.config.archive.is_some() {
            if let Some(mode) = node.config.durability.clone() {
                let store = handover.unwrap_or_else(|| Node::build_durable(&node.addr, &mode));
                node.catalog.recover_durability(store);
                // Shipment generations must outrun every pre-crash one,
                // or collectors drop the restarted node's first push
                // as stale; the boot counter gives a monotone epoch.
                if let Some(stats) = node.catalog.durable_stats() {
                    node.ship.gen = stats.boots.saturating_sub(1) << 32;
                }
            }
        }
        if node.config.tracing {
            node.register_trace_tables();
        }
        node.register_introspection_tables();
        node
    }

    /// The node's address.
    pub fn addr(&self) -> &Addr {
        &self.addr
    }

    /// The shard counters last published by a multi-shard engine, if the
    /// node runs under one.
    pub fn shard_stats(&self) -> Option<&crate::metrics::ShardStats> {
        self.shard_stats.as_ref()
    }

    /// Publish shard counters (a multi-shard engine calls this after
    /// every run so introspection reflects its rendezvous and mailbox).
    pub fn set_shard_stats(&mut self, stats: crate::metrics::ShardStats) {
        self.shard_stats = Some(stats);
    }

    /// Measurement counters.
    pub fn metrics(&self) -> &NodeMetrics {
        &self.metrics
    }

    /// Live tuples across all tables (Figures 6–7 series).
    pub fn live_tuples(&self) -> usize {
        self.catalog.live_tuples()
    }

    /// Approximate memory held by tables + tracer state, bytes.
    pub fn approx_bytes(&self) -> usize {
        self.catalog.approx_bytes() + self.tracer.approx_bytes()
    }

    /// Whether execution tracing is currently enabled.
    pub fn tracing(&self) -> bool {
        self.config.tracing
    }

    /// Enable or disable execution tracing at runtime (the §4 logging
    /// cost experiment toggles exactly this).
    pub fn set_tracing(&mut self, on: bool) {
        self.config.tracing = on;
        if on {
            self.register_trace_tables();
        }
    }

    /// Direct read access to a table's live rows.
    pub fn table_scan(&mut self, name: &str, now: Time) -> Vec<Tuple> {
        self.catalog.scan(name, now)
    }

    /// The catalog (tests and benches reach through this).
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// Resolve a traced tuple ID back to content (forensics helper).
    pub fn trace_content_of(&self, id: p2_types::TupleId) -> Option<&Tuple> {
        self.tracer.content_of(id)
    }

    /// The trace ID this node assigned to a tuple it has seen (forensics
    /// entry point: operators pick a response tuple and walk backwards
    /// from its ID, §3.2).
    pub fn trace_id_of(&self, t: &Tuple) -> Option<p2_types::TupleId> {
        self.tracer.lookup_id(t)
    }

    /// Observe every future tuple of relation `name` dispatched at this
    /// node (events and table deltas alike). The observer stand-in for
    /// the paper's operator console.
    pub fn watch(&mut self, name: &str) {
        self.watches.entry(name.to_string()).or_default();
    }

    /// Drain watched tuples of `name` observed so far.
    pub fn take_watched(&mut self, name: &str) -> Vec<(Time, Tuple)> {
        self.watches
            .get_mut(name)
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Peek at watched tuples without draining.
    pub fn watched(&self, name: &str) -> &[(Time, Tuple)] {
        self.watches.get(name).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Deliver an envelope (a same-relation batch) from the network.
    pub fn deliver(&mut self, env: Envelope, now: Time) {
        self.metrics.msgs_received += 1;
        // Segment-shipping traffic is infrastructure, not application
        // tuples: intercepted whole, before tracing or dispatch.
        if self.ship_intercept(&env, now) {
            return;
        }
        let Envelope {
            tuples,
            src,
            src_tuple_ids,
            delete,
            ..
        } = env;
        if delete {
            for tuple in &tuples {
                match self.catalog.delete_by_key(tuple, now) {
                    Ok(Some(_)) => {
                        self.metrics.deletes += 1;
                        self.log_event(tuple.name(), "remove", now);
                    }
                    Ok(None) => {}
                    Err(_) => self.metrics.malformed_drops += 1,
                }
            }
            return;
        }
        for (i, tuple) in tuples.into_iter().enumerate() {
            if self.config.tracing {
                match src_tuple_ids.get(i).copied().flatten() {
                    Some(src_id) => {
                        self.tracer.on_receive(&tuple, &src, src_id, now);
                    }
                    None => {
                        // Untraced sender: still memoize locally so
                        // forensic walks terminate at this hop.
                        self.tracer.id_of(&tuple, now);
                    }
                }
            }
            self.push_pending(tuple, true);
        }
    }

    /// Inject a local tuple (tests, operators, upper layers).
    pub fn inject(&mut self, tuple: Tuple) {
        self.push_pending(tuple, true);
    }

    /// Run the tracer's reference-count sweep (§2.1.3) and drain table
    /// spill buffers into the archive. The harness calls this
    /// periodically; *when* is immaterial — the archive is a pure
    /// function of each relation's spill stream, and history scans
    /// drain lazily anyway.
    pub fn trace_gc(&mut self, now: Time) {
        if self.config.tracing {
            self.tracer.gc(&mut self.catalog, now);
        }
        self.catalog.archive_maintain();
        // With durability on, the sweep is also the checkpoint: expired
        // history is sealed into the log before announces go out.
        self.catalog.durable_checkpoint(now);
        self.ship_announce_pump(now);
    }

    /// This node's *own* history of `name` (time travel): every row
    /// whose validity interval intersects `[t0, t1]` — archived rows
    /// first, then still-live ones; what `past@N("name", T0, T1, N, …)`
    /// answers. Empty when archiving is disabled or the table was never
    /// enrolled.
    pub fn history_scan(
        &mut self,
        name: &str,
        t0: Time,
        t1: Time,
        now: Time,
    ) -> Result<Vec<p2_store::ArchivedRow>, p2_store::SegmentError> {
        self.catalog.archive_scan(name, t0, t1, now, &[])
    }

    /// Every history of `name` this node holds — its own plus every
    /// imported origin's, in sorted origin order (see
    /// [`p2_store::Catalog::deployment_scan`]); what `past()` with the
    /// location field left free answers.
    pub fn deployment_history_scan(
        &mut self,
        name: &str,
        t0: Time,
        t1: Time,
        now: Time,
    ) -> Result<Vec<p2_store::ArchivedRow>, p2_store::SegmentError> {
        let local = self.addr.as_str().to_string();
        self.catalog.deployment_scan(&local, name, t0, t1, now, &[])
    }

    /// Refresh the `sysTable`/`sysRule`/`sysStat` introspection tables.
    pub fn refresh_introspection(&mut self, now: Time) {
        crate::introspect::refresh(self, now);
    }

    /// Snapshot of per-strand execution stats (for `sysRule`). Flattens
    /// shared-prefix families: one row per member rule, under the
    /// member's own strand id, with the member's own counters.
    pub fn strand_stats(&self) -> Vec<(String, String, p2_dataflow::StrandStats)> {
        self.strands
            .iter()
            .flat_map(|s| {
                s.branches()
                    .map(|(plan, stats)| (plan.strand_id.clone(), plan.source.clone(), stats))
            })
            .collect()
    }

    /// Number of installed strands (family members counted
    /// individually — sharing a prefix is an execution detail).
    pub fn strand_count(&self) -> usize {
        self.strands.iter().map(|s| s.branch_count()).sum()
    }

    /// Plan-time warnings surfaced by the optimizer for currently
    /// installed programs (dead rules, never-boolean selections).
    pub fn plan_diagnostics(&self) -> impl Iterator<Item = &p2_planner::Diagnostic> + '_ {
        self.plan_diagnostics.iter().map(|(_, d)| d)
    }

    /// Static-analysis warnings and notes for currently installed
    /// programs (typo'd relations, cross-location joins, soft-state
    /// leaks, ...). Also reflected as `sysDiag` tuples on
    /// [`Node::refresh_introspection`].
    pub fn analysis_diagnostics(&self) -> impl Iterator<Item = &p2_overlog::Diagnostic> + '_ {
        self.analysis_diagnostics.iter().map(|(_, d)| d)
    }

    // ------------------------------------------------------------ internal

    /// Queue a local dispatch behind everything already queued.
    pub(crate) fn push_pending(&mut self, tuple: Tuple, traced: bool) {
        self.pending.push_back((tuple, traced));
    }

    /// Whether a relation belongs to the trace/introspection machinery
    /// (its churn must not be event-logged, or logging would log itself).
    pub(crate) fn is_internal_relation(name: &str) -> bool {
        matches!(
            name,
            p2_trace::RULE_EXEC
                | p2_trace::TUPLE_TABLE
                | p2_trace::EVENT_LOG
                | p2_net::SHIP_RELATION
                | crate::introspect::SYS_TABLE
                | crate::introspect::SYS_RULE
                | crate::introspect::SYS_STAT
        )
    }

    /// Append a row to the §2.1 system-event log (arrivals/removals),
    /// when enabled.
    pub(crate) fn log_event(&mut self, relation: &str, op: &'static str, now: Time) {
        if !self.config.tracing
            || !self.config.trace.log_events
            || Self::is_internal_relation(relation)
        {
            return;
        }
        let row = Tuple::new(
            p2_trace::EVENT_LOG,
            [
                Value::Addr(self.addr.clone()),
                Value::str(relation),
                Value::str(op),
                Value::Time(now),
            ],
        );
        self.push_pending(row, false);
    }

    /// Fire strand `idx` with a trigger tuple, route its outputs, and
    /// keep the scheduler's worklist in sync with any pipeline work the
    /// firing left behind.
    pub(crate) fn fire_strand(&mut self, idx: usize, tuple: &Tuple, traced: bool, now: Time) {
        let mut actions = Vec::new();
        let use_tracer = traced && self.config.tracing;
        {
            let mut ctx = NodeCtx {
                now,
                addr: self.addr.clone(),
                rng: &mut self.rng,
            };
            let mut null = NullSink;
            let sink: &mut dyn TapSink = if use_tracer {
                &mut self.tracer
            } else {
                &mut null
            };
            if self.strands[idx].fire(tuple, &mut self.catalog, &mut ctx, sink, now, &mut actions) {
                // Each family member logically fired once.
                self.metrics.strand_firings += self.strands[idx].branch_count() as u64;
            }
        }
        if self.strands[idx].has_work() {
            self.active_strands.insert(idx);
        }
        for a in actions {
            self.route_action(a, now);
        }
    }
}

#[cfg(test)]
#[path = "node_tests.rs"]
mod tests;
