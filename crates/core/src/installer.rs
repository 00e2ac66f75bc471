//! The node installer: program compile/install/uninstall and trace-table
//! registration ("piecemeal deployment", §1.3).
//!
//! Installing is two steps. A [`Compiled`] program is parse → analysis →
//! plan, a pure function of the source text, the names of the tables
//! materialized where it installs, and the planner options; the install
//! step registers its tables, instantiates its strands and routes its
//! facts on one node. An engine deploys one source onto many nodes with
//! identical catalogs, so it keeps a [`CompileMap`] and compiles each
//! (source, catalog) pair once; the nodes share the compiled strands.

use crate::node::{ArchiveEnroll, InstallError, Node, ProgramId};
use crate::scheduler::TimerState;
use p2_dataflow::StrandRuntime;
use p2_planner::plan::{CompiledProgram, Strand, Trigger};
use p2_planner::{compile_program_with, PlanOpts};
use p2_store::TableSpec;
use p2_types::{Time, TimeDelta};
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A program compiled against one catalog, installable on every node
/// whose catalog names the same tables.
pub(crate) struct Compiled {
    source: Arc<str>,
    /// The plan, but for its strands, which are in `strands`.
    plan: CompiledProgram,
    /// Shared by the runtimes of every node that installs this.
    strands: Vec<Arc<Strand>>,
    /// Warnings and notes; a program with analysis errors never compiles.
    analysis: p2_overlog::Diagnostics,
}

impl Compiled {
    /// Compile `source` for a node whose catalog holds the tables `known`.
    pub(crate) fn new(
        source: Arc<str>,
        known: HashSet<String>,
        opts: &PlanOpts,
    ) -> Result<Compiled, InstallError> {
        let program = p2_overlog::compile(&source).map_err(InstallError::Compile)?;
        // Static analysis against the live catalog: hard errors reject
        // the install; warnings and notes ride along and surface through
        // `sysDiag` (and `Node::analysis_diagnostics`).
        let ctx = p2_analysis::AnalysisCtx {
            known_tables: known,
            ..Default::default()
        };
        let analysis = p2_analysis::analyze(&[&program], &ctx);
        if analysis.has_errors() {
            return Err(InstallError::Analysis(analysis));
        }
        let mut plan =
            compile_program_with(&program, &ctx.known_tables, opts).map_err(InstallError::Plan)?;
        let strands = std::mem::take(&mut plan.strands)
            .into_iter()
            .map(Arc::new)
            .collect();
        Ok(Compiled {
            source,
            plan,
            strands,
            analysis,
        })
    }
}

/// One deployment's compiles, by source text and then by the sorted
/// table names of the catalog compiled against — the compile's whole
/// input, since an engine always plans with the default options. It
/// holds one entry per distinct (source, catalog) pair installed, and
/// lives as long as the engine.
#[derive(Default)]
pub(crate) struct CompileMap(HashMap<Arc<str>, HashMap<Vec<String>, Compiled>>);

impl CompileMap {
    /// `source` compiled against a catalog of the tables `known`
    /// (sorted), compiling it on the first ask. A failed compile is not
    /// kept.
    pub(crate) fn get(
        &mut self,
        source: &str,
        known: Vec<String>,
    ) -> Result<&Compiled, InstallError> {
        let source = match self.0.get_key_value(source) {
            Some((shared, _)) => shared.clone(),
            None => Arc::from(source),
        };
        match self.0.entry(source.clone()).or_default().entry(known) {
            Entry::Occupied(hit) => Ok(hit.into_mut()),
            Entry::Vacant(miss) => {
                let known = miss.key().iter().cloned().collect();
                Ok(miss.insert(Compiled::new(source, known, &PlanOpts::default())?))
            }
        }
    }

    /// How many (source, catalog) pairs have been compiled.
    pub(crate) fn len(&self) -> usize {
        self.0.values().map(HashMap::len).sum()
    }
}

impl Node {
    pub(crate) fn register_trace_tables(&mut self) {
        for spec in self.tracer.table_specs() {
            let name = spec.name.clone();
            // Idempotent; conflict impossible (we own the specs).
            let _ = self.catalog.register(spec);
            self.maybe_enroll_archive(&name, true);
        }
        if self.config.trace.log_events {
            let _ = self.catalog.register(TableSpec::new(
                p2_trace::EVENT_LOG,
                Some(p2_trace::EVENT_LOG_LIFETIME),
                Some(p2_trace::EVENT_LOG_MAX_ROWS),
                vec![0, 1, 2, 3],
            ));
            self.maybe_enroll_archive(p2_trace::EVENT_LOG, true);
        }
    }

    pub(crate) fn register_introspection_tables(&mut self) {
        for spec in crate::introspect::table_specs() {
            let _ = self.catalog.register(spec);
            // Reflection tables never enroll — even under
            // `ArchiveEnroll::All` (see its docs).
        }
    }

    /// Enroll `name` into the archive if this node's policy covers it.
    /// Trace tables are covered by every policy; application tables by
    /// `All` and matching `Named` entries. A no-op with archiving off.
    pub(crate) fn maybe_enroll_archive(&mut self, name: &str, trace_table: bool) {
        let Some(mode) = &self.config.archive else {
            return;
        };
        let wanted = trace_table
            || match &mode.enroll {
                ArchiveEnroll::All => true,
                ArchiveEnroll::Named(names) => names.iter().any(|n| n == name),
            };
        if wanted {
            // The table was just registered; a miss means a Named entry
            // for a table that never materialized — harmless.
            let _ = self.catalog.enroll_archive(name);
        }
    }

    /// Install an OverLog program (source text) on the running node.
    ///
    /// Returns a handle for [`Node::uninstall`]. Predicates are
    /// classified against the tables materialized *at install time*, so
    /// install monitoring programs after the application they observe.
    pub fn install(&mut self, source: &str, now: Time) -> Result<ProgramId, InstallError> {
        self.install_planned(source, now, &PlanOpts::default())
    }

    /// [`Node::install`] under explicit planner options. Nodes always
    /// run every optimizer pass; node tests pass `PlanOpts::off()` (rule
    /// bodies in literal source order) as the semantic oracle.
    pub(crate) fn install_planned(
        &mut self,
        source: &str,
        now: Time,
        opts: &PlanOpts,
    ) -> Result<ProgramId, InstallError> {
        let known = self.catalog.table_names().into_iter().collect();
        let compiled = Compiled::new(Arc::from(source), known, opts)?;
        self.install_compiled(&compiled, now)
    }

    /// Install a program compiled against this node's catalog as it is
    /// now (the tables the compile was told are materialized).
    pub(crate) fn install_compiled(
        &mut self,
        compiled: &Compiled,
        now: Time,
    ) -> Result<ProgramId, InstallError> {
        let plan = &compiled.plan;
        // Register tables first (strand classification already done).
        for t in &plan.tables {
            self.catalog
                .register(TableSpec::new(
                    &t.name,
                    t.lifetime_secs.map(TimeDelta::from_secs_f64),
                    t.max_rows,
                    t.key_fields.clone(),
                ))
                .map_err(InstallError::Catalog)?;
            self.maybe_enroll_archive(&t.name, false);
        }

        // Register the secondary indexes the planner's join probes want,
        // so every `scan_eq` on those fields is an index lookup from the
        // strand's first firing. This covers tables the program reads but
        // does not declare (a monitoring query over the base application's
        // tables): joins are only planned against relations materialized
        // here, so the table is already in the catalog. A miss is
        // tolerated anyway — the store's auto-index fallback would pick
        // the field up after a few linear probes.
        for (table, field) in &plan.index_requests {
            let _ = self.catalog.ensure_index(table, *field);
        }

        let pid = ProgramId(self.next_program);
        self.next_program += 1;

        for d in &plan.diagnostics {
            self.plan_diagnostics.push((pid, d.clone()));
        }
        for d in &compiled.analysis.items {
            self.analysis_diagnostics.push((pid, d.clone()));
        }
        self.programs.push((pid, compiled.source.clone()));

        // Instantiate runtimes. Strands the optimizer grouped into a
        // shared-prefix family become ONE runtime (instantiated at the
        // first member's position; the prefix runs once per trigger and
        // member tails fan out); everything else is a runtime of its own.
        // A family's members share one trigger, so dispatch/timer
        // registration is per runtime, exactly as for single strands.
        let plans = &compiled.strands;
        let mut group_of: Vec<Option<usize>> = vec![None; plans.len()];
        for (g, pg) in plan.prefix_groups.iter().enumerate() {
            for &m in &pg.members {
                group_of[m] = Some(g);
            }
        }
        for (i, strand) in plans.iter().enumerate() {
            let runtime = match group_of[i] {
                Some(g) => {
                    let pg = &plan.prefix_groups[g];
                    if pg.members[0] != i {
                        continue; // instantiated with its family leader
                    }
                    let members: Vec<Arc<Strand>> =
                        pg.members.iter().map(|&m| plans[m].clone()).collect();
                    StrandRuntime::family(members, pg.shared_ops)
                }
                None => StrandRuntime::new(strand.clone()),
            };
            let idx = self.strands.len();
            match &runtime.plan().trigger {
                Trigger::Event { name } => {
                    self.event_dispatch
                        .entry(name.clone())
                        .or_default()
                        .push(idx);
                }
                Trigger::TableInsert { name } => {
                    self.table_dispatch
                        .entry(name.clone())
                        .or_default()
                        .push(idx);
                }
                Trigger::Periodic { period_secs } => {
                    let period = TimeDelta::from_secs_f64(*period_secs);
                    let offset = if self.config.stagger_timers {
                        TimeDelta::from_micros(self.rng.below(period.micros().max(1)))
                    } else {
                        period
                    };
                    let tidx = self.timers.len();
                    self.timers.push(TimerState {
                        strand_idx: idx,
                        period,
                        next_fire: now + offset,
                        program: pid,
                    });
                    self.timer_heap.push(Reverse((now + offset, tidx)));
                }
            }
            self.strands.push(runtime);
            self.strand_programs.push(pid);
        }

        // Inject facts as ordinary dispatches (they may be remote).
        for fact in &plan.facts {
            self.route_tuple(fact.clone(), false, now);
        }
        Ok(pid)
    }

    /// Remove a program's strands and timers. Its tables (and their
    /// contents) remain — soft state expires on its own, and other
    /// programs may read them.
    pub fn uninstall(&mut self, pid: ProgramId) {
        self.programs.retain(|(p, _)| *p != pid);
        self.plan_diagnostics.retain(|(p, _)| *p != pid);
        self.analysis_diagnostics.retain(|(p, _)| *p != pid);
        let keep: Vec<bool> = self.strand_programs.iter().map(|p| *p != pid).collect();
        // Rebuild the strand vector and all dispatch indexes.
        let mut new_strands = Vec::new();
        let mut new_programs = Vec::new();
        let mut remap: Vec<Option<usize>> = Vec::with_capacity(self.strands.len());
        for (i, strand) in self.strands.drain(..).enumerate() {
            if keep[i] {
                remap.push(Some(new_strands.len()));
                new_strands.push(strand);
                new_programs.push(self.strand_programs[i]);
            } else {
                remap.push(None);
            }
        }
        self.strands = new_strands;
        self.strand_programs = new_programs;
        // The tracer keys execution records by strand id: a re-install
        // of the same rules must start from fresh records, not resume
        // the half-filled ones this incarnation leaves.
        let installed: HashSet<&str> = (self.strands.iter())
            .flat_map(|s| s.branches().map(|(plan, _)| plan.strand_id.as_str()))
            .collect();
        self.tracer.retain_strands(|id| installed.contains(id));
        for map in [&mut self.event_dispatch, &mut self.table_dispatch] {
            for v in map.values_mut() {
                *v = v.iter().filter_map(|&i| remap[i]).collect();
            }
            map.retain(|_, v| !v.is_empty());
        }
        self.timers.retain_mut(|t| {
            if t.program == pid {
                return false;
            }
            #[expect(
                clippy::expect_used,
                reason = "timers only reference strands of installed programs, all remapped"
            )]
            {
                t.strand_idx = remap[t.strand_idx].expect("kept strands remapped");
            }
            true
        });
        // Timer indices shifted: rebuild the heap (uninstall is rare).
        self.timer_heap = self
            .timers
            .iter()
            .enumerate()
            .map(|(i, t)| Reverse((t.next_fire, i)))
            .collect();
        // Strand indices shifted too: rebuild the scheduler's worklist.
        self.active_strands = self
            .strands
            .iter()
            .enumerate()
            .filter(|(_, s)| s.has_work())
            .map(|(i, _)| i)
            .collect();
    }
}
