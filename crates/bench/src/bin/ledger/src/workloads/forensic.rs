//! The three forensic workloads: one 16-node ring in
//! `NodeConfig::forensic()` with a file-backed durable log, measured
//! while it writes history (`forensic_fill_16`), while history is read
//! back (`forensic_query_16`), and while history leaves the node — to a
//! collector, and to disk and back across a crash (`forensic_recover_16`).
//!
//! Writes and reads run the same `store.archive` / `store.durable` code,
//! so a gain for one side that costs the other shows as a regression on
//! the neighbouring workload. Shipping has a phase of its own because a
//! collector subscribed during the fill doubles the fill's cost.

use crate::report::Report;
use crate::simrun::{self, install_each, run_window, snapshot, Engine, Snapshot};
use crate::span::Tracer;
use crate::stats;
use crate::Sizing;
use p2_chord::{build_ring, ChordConfig, ChordRing};
use p2_core::{DurabilityMode, DurableBackend, NodeConfig, Population, SimHarness};
use p2_monitor::retrospect;
use p2_net::SimConfig;
use p2_types::{Addr, DetRng, Time, TimeDelta, Tuple, Value};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub const FILL: &str = "forensic_fill_16";
pub const QUERY: &str = "forensic_query_16";
pub const RECOVER: &str = "forensic_recover_16";
pub const DEFAULT_SEED: u64 = 101;
/// The ring and its corruption are the same on every run; `--seed` draws
/// the probe windows and the restart order (`forensic_fill_16` has no
/// request stream, so nothing there depends on it). Which node is
/// corrupted decides how many `ruleExec` rows the probed node logs per
/// window, so drawing it per seed would change the work.
const POPULATION_SEED: u64 = 101;

/// Deployments `forensic_fill_16` times after a first, untimed one.
const FILL_SETUPS: usize = 5;

const PROBE_RULE: &str = r#"
fq1 fired@N(R, TIn) :- fprobe@N(T0, T1),
     past@N("ruleExec", T0, T1, N, R, C, E, TIn, TOut, IsE).
"#;

pub struct Params {
    pub nodes: usize,
    pub warm_vsec: u64,
    /// The fill `forensic_query_16` and `forensic_recover_16` set up.
    pub fill_vsec: u64,
    /// The fill `forensic_fill_16` measures.
    pub fill_window_vsec: u64,
    pub probes: u64,
    pub probe_window_vsec: u64,
    pub ship_vsec: u64,
    pub restart_rounds: u64,
}

impl Params {
    /// `forensic_fill_16` scales its window, the fill; the other two
    /// keep the fill fixed (it is their set-up, and the 10^6-row archive
    /// is the stated input size) and scale what they do to it.
    pub fn sized(s: Sizing) -> Params {
        Params {
            nodes: 16,
            warm_vsec: 60,
            fill_vsec: 1000,
            fill_window_vsec: s.scale(1000),
            probes: s.scale(200),
            probe_window_vsec: 30,
            ship_vsec: 60,
            restart_rounds: s.scale(3),
        }
    }
}

/// The durable logs' directory, removed again on every exit path that
/// unwinds. It sits under the working directory, not the system's
/// temporary directory: the benchmark may write only inside its checkout.
struct LogDir(PathBuf);

impl LogDir {
    fn create(workload: &str) -> LogDir {
        let dir = std::env::current_dir()
            .unwrap_or_else(|_| PathBuf::from("."))
            .join(".ledger_tmp")
            .join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
        LogDir(dir)
    }
}

impl Drop for LogDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The parent goes too once the last run has left it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

struct Deployment {
    sim: SimHarness,
    ring: ChordRing,
    logs: LogDir,
    t_healthy: Time,
    t_corrupt: Time,
    build: Duration,
    install_us: Vec<f64>,
}

/// Ring, warm-up, and one `bestSucc` corruption injected at a known
/// instant, as `p2ql replay` does it.
fn deploy(workload: &str, p: &Params, tr: &mut Tracer) -> Deployment {
    let logs = LogDir::create(workload);
    let mut config = NodeConfig::forensic();
    if let Some(archive) = config.archive.as_mut() {
        archive.config.retention_bytes = 1 << 30;
    }
    config.durability = Some(DurabilityMode {
        backend: DurableBackend::Dir(logs.0.clone()),
        fsync: false,
        plan: None,
    });
    let mut sim = SimHarness::new(SimConfig::default(), config, POPULATION_SEED);
    let (ring, build) = tr.time("chord.testbed/build_ring", 0, |_| {
        build_ring(&mut sim, p.nodes, &ChordConfig::default())
    });
    tr.time("core.sim/warm", 0, |_| {
        sim.run_for(TimeDelta::from_secs(p.warm_vsec))
    });
    let t_healthy = sim.now();
    sim.run_for(TimeDelta::from_secs(1));
    // Mis-point the lowest-ID node's successor two positions ahead.
    let sorted = ring.live_sorted(&sim);
    let (victim, wrong) = (sorted[0].1.clone(), sorted[2 % sorted.len()].1.clone());
    tr.time("core.sim/inject", 0, |_| {
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
        )
    });
    let t_corrupt = sim.now();
    Deployment {
        sim,
        ring,
        logs,
        t_healthy,
        t_corrupt,
        build,
        install_us: Vec::new(),
    }
}

impl Deployment {
    /// The three retrospective verdicts: well-formed before the
    /// corruption, malformed at it, healed by now.
    fn check_verdicts(&mut self, r: &mut Report, tr: &mut Tracer) {
        let t_end = self.sim.now();
        let mut ok = 0;
        for (t, want) in [
            (self.t_healthy, true),
            (self.t_corrupt, false),
            (t_end, true),
        ] {
            let (got, _) = tr.time("monitor.retrospect/ring_was_well_formed_at", 0, |_| {
                retrospect::ring_was_well_formed_at(&mut self.sim, &self.ring, t)
            });
            r.check(got == want);
            ok += u64::from(got == want);
        }
        r.set("monitor.retrospect_verdicts_ok", ok as f64);
    }

    /// Archive and durable-log counters as the fill left them (they
    /// start at zero with the deployment, so totals are the fill's; a
    /// restart zeroes the in-memory ones, so they are read before any).
    fn report_archive(&mut self, r: &mut Report, s: &Snapshot, log_bytes: u64) {
        let spilled = s.stat("archive.spilledRows") as f64;
        let log_bytes = log_bytes as f64;
        r.set("store.archive.spilled_rows", spilled);
        r.set("store.archive.segments", s.stat("archive.segments") as f64);
        r.set(
            "store.archive.sealed_bytes",
            s.stat("archive.sealedBytes") as f64,
        );
        r.set(
            "store.archive.compactions",
            s.stat("archive.compactions") as f64,
        );
        r.must_be_zero(
            "store.archive.dropped_segments",
            (s.stat("archive.droppedSegments") + s.stat("archive.ageDroppedSegments")) as f64,
        );
        r.set("store.archive.bytes_per_row", log_bytes / spilled.max(1.0));
        r.set("store.durable.appends", s.stat("durable.appends") as f64);
        r.set("store.durable.fsyncs", s.stat("durable.fsyncs") as f64);
        r.set("store.durable.log_bytes", log_bytes);
        r.set(
            "trace.rule_exec_rows",
            table_rows(&mut self.sim, &self.ring.addrs, p2_trace::RULE_EXEC),
        );
        r.set(
            "trace.tuple_table_rows",
            table_rows(&mut self.sim, &self.ring.addrs, p2_trace::TUPLE_TABLE),
        );
        r.notes.push(format!(
            "durable logs: {} (fsync off; removed at exit)",
            self.logs.0.display()
        ));
    }

    /// Durable-log health at the end of the run, restarts included.
    fn report_durable_health(&mut self, r: &mut Report) {
        let s = snapshot(&mut self.sim, &self.ring.addrs);
        r.set(
            "store.durable.recovered_segments",
            s.stat("durable.recoveredSegments") as f64,
        );
        r.must_be_zero(
            "store.durable.quarantined",
            s.stat("durable.quarantined") as f64,
        );
        r.must_be_zero("store.durable.io_errors", s.stat("durable.ioErrors") as f64);
    }

    /// Every enrolled relation's full history on every node, timed as
    /// one scan, three times over; returns rows per scan and the median
    /// host time.
    fn scan_everything(&mut self, tr: &mut Tracer) -> (u64, Duration) {
        let now = self.sim.now();
        let mut scans: Vec<(Duration, u64)> = (0..3)
            .map(|_| {
                let mut rows = 0u64;
                let (_, took) = tr.time("store.archive/history_scan_all", 0, |_| {
                    for addr in &self.ring.addrs {
                        let node = self.sim.node_mut(addr);
                        let relations = node.catalog_mut().enrolled_relations().to_vec();
                        for rel in relations {
                            let got = node.history_scan(&rel, Time::ZERO, now, now);
                            rows += got.map(|v| v.len() as u64).unwrap_or(0);
                        }
                    }
                });
                (took, rows)
            })
            .collect();
        scans.sort();
        let (took, rows) = scans[1];
        (rows, took)
    }

    /// Per node and enrolled relation, how many archived rows were
    /// dropped at or before `cutoff`: history old enough to be sealed,
    /// logged and shipped.
    fn sealed_census(&mut self, cutoff: Time) -> Vec<(Addr, String, u64)> {
        let now = self.sim.now();
        let mut out = Vec::new();
        for addr in &self.ring.addrs {
            let node = self.sim.node_mut(addr);
            let relations = node.catalog_mut().enrolled_relations().to_vec();
            for rel in relations {
                let rows = node
                    .history_scan(&rel, Time::ZERO, cutoff, now)
                    .unwrap_or_default();
                let n = rows
                    .iter()
                    .filter(|row| row.dropped_at.is_some_and(|d| d <= cutoff))
                    .count();
                out.push((addr.clone(), rel, n as u64));
            }
        }
        out
    }
}

fn sequential(addrs: &[Addr]) -> Engine<'_> {
    Engine {
        layer: "core.sim",
        shards: 1,
        addrs,
    }
}

/// Rows a table holds, summed over `addrs`, from the catalog's own count.
pub fn table_rows<H: Population>(sim: &mut H, addrs: &[Addr], table: &str) -> f64 {
    addrs
        .iter()
        .map(|a| {
            sim.node_mut(a)
                .catalog_mut()
                .table_stats()
                .into_iter()
                .find(|(name, _, _)| name == table)
                .map_or(0, |(_, rows, _)| rows)
        })
        .sum::<usize>() as f64
}

/// One node's own `sysStat` value for an unfolded key.
fn node_stat(sim: &mut SimHarness, addr: &Addr, key: &str) -> f64 {
    let now = sim.now();
    let node = sim.node_mut(addr);
    node.refresh_introspection(now);
    node.table_scan("sysStat", now)
        .iter()
        .find(|row| matches!(row.get(1), Some(Value::Str(k)) if &**k == key))
        .and_then(|row| row.get(2).and_then(|v| v.as_int().ok()))
        .unwrap_or(0) as f64
}

/// `forensic_fill_16`: the write side. The request is one virtual
/// second of the ring tracing, spilling, sealing and logging.
pub fn run_fill(p: &Params, r: &mut Report, tr: &mut Tracer) {
    // Set-up is a quarter of a second: deploy several times and keep the
    // median (the earlier deployment and its log directory go first,
    // outside the timing).
    let mut setup_s = Vec::new();
    let mut d = deploy(FILL, p, tr);
    for _ in 0..FILL_SETUPS {
        drop(d);
        let setup = Instant::now();
        d = deploy(FILL, p, tr);
        setup_s.push(setup.elapsed().as_secs_f64());
    }
    let vsec = p.fill_window_vsec;

    let before = snapshot(&mut d.sim, &d.ring.addrs);
    let addrs = d.ring.addrs.clone();
    let w = run_window(&mut d.sim, &sequential(&addrs), vsec, 1, tr, |_, _, _| {});
    let after = snapshot(&mut d.sim, &d.ring.addrs);

    d.check_verdicts(r, tr);
    r.set_n("setup_s", stats::median(&setup_s), setup_s.len());
    let (typical_ms, spans) = w.typical_ms();
    r.set_n("latency_ms_p50", typical_ms, spans);
    r.set_n(
        "throughput_per_s",
        vsec as f64 / w.wall.as_secs_f64(),
        w.slice_ms.len(),
    );
    simrun::report_window(r, &w, &before, &after, 1, 1..1 + vsec, tr);
    r.require_zero("core.scheduler.overflow_drops");
    r.set("chord.build_ring_s", d.build.as_secs_f64());
    let log_bytes = dir_bytes(&d.logs.0);
    d.report_archive(r, &after, log_bytes);
    d.report_durable_health(r);
    if tr.on() {
        crate::probes::trace_gc(&mut d.sim, &addrs, r, tr);
        crate::probes::wire_codec(&mut d.sim, &addrs[0], p2_trace::RULE_EXEC, r, tr);
    }
}

/// `forensic_query_16`: the read side, over the archive a 1,000-vsec
/// fill leaves (about 10^6 spilled rows). The request is one `past()`
/// probe over a 30-second window, from injecting `fprobe` to the last
/// `fired` row taken; the unit of work is a row returned by the
/// full-history scan.
pub fn run_query(p: &Params, r: &mut Report, tr: &mut Tracer) {
    let setup = Instant::now();
    let mut d = deploy(QUERY, p, tr);
    let t_fill = d.sim.now();
    tr.time("core.sim/fill", 0, |_| {
        d.sim.run_for(TimeDelta::from_secs(p.fill_vsec))
    });
    let asker = d.ring.addrs[1 % d.ring.addrs.len()].clone();
    install_each(
        &mut d.sim,
        std::slice::from_ref(&asker),
        PROBE_RULE,
        tr,
        &mut d.install_us,
    );
    d.sim.node_mut(&asker).watch("fired");
    let filled = snapshot(&mut d.sim, &d.ring.addrs);
    let log_bytes = dir_bytes(&d.logs.0);
    let setup_s = setup.elapsed().as_secs_f64();

    let t_end = d.sim.now();
    let span = t_end.micros() - t_fill.micros() - p.probe_window_vsec * 1_000_000;
    let mut rng = DetRng::derive(r.seed, "ledger-fprobe");
    let pruned_key = "archive.ruleExec.prunedSegments";
    let pruned0 = node_stat(&mut d.sim, &asker, pruned_key);
    let scans0 = node_stat(&mut d.sim, &asker, "archive.ruleExec.scans");
    let (mut query_ms, mut scan_ms, mut hits) = (Vec::new(), Vec::new(), 0u64);
    for i in 0..p.probes {
        let t0 = Time(t_fill.micros() + rng.below(span));
        let t1 = t0 + TimeDelta::from_secs(p.probe_window_vsec);
        let probe = Tuple::new(
            "fprobe",
            [Value::Addr(asker.clone()), Value::Time(t0), Value::Time(t1)],
        );
        let (fired, took) = tr.time("dataflow.strand/past_query", 1 + i, |tr| {
            tr.time("core.sim/inject", 1 + i, |_| d.sim.inject(&asker, probe));
            tr.time("core.node/take_watched", 1 + i, |_| {
                d.sim.node_mut(&asker).take_watched("fired").len() as u64
            })
            .0
        });
        query_ms.push(took.as_secs_f64() * 1e3);
        hits += fired;
        // The same window straight off the archive: the reference for
        // the hit count, and the layer's own cost without the dataflow.
        let now = d.sim.now();
        let (direct, took) = tr.time("store.archive/history_scan", 1 + i, |_| {
            d.sim
                .node_mut(&asker)
                .history_scan(p2_trace::RULE_EXEC, t0, t1, now)
                .map(|rows| rows.len() as u64)
        });
        scan_ms.push(took.as_secs_f64() * 1e3);
        r.check(direct.as_ref().is_ok_and(|n| *n == fired && fired > 0));
    }
    let probe_scans = (node_stat(&mut d.sim, &asker, "archive.ruleExec.scans") - scans0).max(1.0);
    let pruned = node_stat(&mut d.sim, &asker, pruned_key) - pruned0;
    let segments = node_stat(&mut d.sim, &asker, "archive.ruleExec.segments").max(1.0);

    let (rows, scan_took) = d.scan_everything(tr);
    d.check_verdicts(r, tr);

    let rows_per_s = rows as f64 / scan_took.as_secs_f64();
    let (tail_pct, tail_ms) = stats::tail(&query_ms);
    r.set("setup_s", setup_s);
    r.set_n("latency_ms_p50", stats::median(&query_ms), query_ms.len());
    r.set_n("throughput_per_s", rows_per_s, rows as usize);
    r.set_n(
        "forensic.past_query_ms_p50",
        stats::median(&query_ms),
        query_ms.len(),
    );
    r.set_n("forensic.past_query_ms_tail", tail_ms, query_ms.len());
    r.set_n("forensic.past_query_tail_pct", tail_pct, query_ms.len());
    r.set("forensic.past_query_hits", hits as f64);
    r.set_n(
        "forensic.history_scan_mrows_per_s",
        rows_per_s / 1e6,
        rows as usize,
    );
    r.set_n(
        "store.archive.window_scan_ms_p50",
        stats::median(&scan_ms),
        scan_ms.len(),
    );
    r.set(
        "store.archive.pruned_share",
        pruned / (probe_scans * segments),
    );
    r.set("chord.build_ring_s", d.build.as_secs_f64());
    r.set_n(
        "core.installer.install_us_p50",
        stats::median(&d.install_us),
        d.install_us.len(),
    );
    d.report_archive(r, &filled, log_bytes);
    d.report_durable_health(r);
    if tr.on() {
        crate::probes::wire_codec(&mut d.sim, &asker, p2_trace::RULE_EXEC, r, tr);
    }
}

/// `forensic_recover_16`: history leaving the node. The request is one
/// crash-restart (recover the durable log, reinstall the programs); the
/// unit of work is a sealed byte shipped to a freshly subscribed
/// collector.
pub fn run_recover(p: &Params, r: &mut Report, tr: &mut Tracer) {
    let setup = Instant::now();
    let mut d = deploy(RECOVER, p, tr);
    tr.time("core.sim/fill", 0, |_| {
        d.sim.run_for(TimeDelta::from_secs(p.fill_vsec))
    });
    let addrs = d.ring.addrs.clone();
    let filled = snapshot(&mut d.sim, &addrs);
    let log_bytes = dir_bytes(&d.logs.0);
    let setup_s = setup.elapsed().as_secs_f64();

    // Ship: a collector that runs no program subscribes to every origin;
    // each GC sweep streams what it has not yet seen.
    let cutoff = Time(d.sim.now().micros() - 2 * 30_000_000);
    let census = d.sealed_census(cutoff);
    let ship = Instant::now();
    let collector = d.sim.add_node("collector");
    for a in &addrs {
        d.sim.node_mut(a).ship_subscribe(collector.clone());
    }
    let w = run_window(
        &mut d.sim,
        &sequential(&addrs),
        p.ship_vsec,
        1,
        tr,
        |_, _, _| {},
    );
    let ship_s = ship.elapsed().as_secs_f64();
    // The collector's deployment-wide history must hold, per origin and
    // relation, exactly the sealed rows the origins hold themselves.
    let now = d.sim.now();
    let relations: std::collections::BTreeSet<&String> =
        census.iter().map(|(_, rel, _)| rel).collect();
    let mut shipped: HashMap<(Addr, &String), u64> = HashMap::new();
    for rel in relations {
        let (rows, _) = tr.time("store.archive/deployment_history_scan", 0, |_| {
            d.sim
                .node_mut(&collector)
                .deployment_history_scan(rel, Time::ZERO, cutoff, now)
                .unwrap_or_default()
        });
        for row in rows
            .iter()
            .filter(|row| row.dropped_at.is_some_and(|t| t <= cutoff))
        {
            if let Some(origin) = row.tuple.get(0).and_then(Value::to_addr) {
                *shipped.entry((origin, rel)).or_insert(0) += 1;
            }
        }
    }
    for (origin, rel, want) in &census {
        let got = shipped.get(&(origin.clone(), rel)).copied().unwrap_or(0);
        r.check(got == *want);
    }
    let cs = d.sim.node(&collector).ship_stats();
    let sealed_bytes = filled.stat("archive.sealedBytes") as f64;

    d.check_verdicts(r, tr);
    if tr.on() {
        crate::probes::wire_codec(&mut d.sim, &addrs[0], p2_trace::RULE_EXEC, r, tr);
    }

    // Restart: every ring node, `restart_rounds` times over.
    let mut restart_ms = Vec::new();
    let restart_all = Instant::now();
    let mut order = addrs.clone();
    let mut rng = DetRng::derive(r.seed, "ledger-restart-order");
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    for round in 0..p.restart_rounds {
        for a in &order {
            let op = 1 + p.ship_vsec + round;
            let (res, took) = tr.time("store.durable/restart", op, |_| d.sim.restart(a));
            r.check(res.is_ok());
            restart_ms.push(took.as_secs_f64() * 1e3);
        }
    }
    let restart_all_s = restart_all.elapsed().as_secs_f64() / p.restart_rounds as f64;
    // Every sealed row the origins held before the crashes is back.
    // (Rows still live at a crash are soft state and gone, so verdicts on
    // the past are judged above, before the restarts.)
    let recovered = d.sealed_census(cutoff);
    for (before, after) in census.iter().zip(&recovered) {
        r.check(before == after);
    }
    let log_mb = dir_bytes(&d.logs.0) as f64 / (1024.0 * 1024.0);

    r.set("setup_s", setup_s);
    r.set_n(
        "latency_ms_p50",
        stats::median(&restart_ms),
        restart_ms.len(),
    );
    r.set_n("throughput_per_s", sealed_bytes / ship_s, w.slice_ms.len());
    r.set_n("forensic.restart_all_s", restart_all_s, restart_ms.len());
    r.set_n("forensic.ship_catchup_s", ship_s, w.slice_ms.len());
    r.set_n(
        "store.durable.restart_ms_p50",
        stats::median(&restart_ms),
        restart_ms.len(),
    );
    r.set("store.durable.recover_mb_per_s", log_mb / restart_all_s);
    r.set(
        "core.ship.announce_chunks",
        cs.announce_chunks_received as f64,
    );
    r.set("core.ship.imports_applied", cs.announces_applied as f64);
    r.set("core.ship.bytes_received", cs.bytes_received as f64);
    r.set(
        "core.ship.wire_bytes_per_sealed_byte",
        cs.bytes_received as f64 / sealed_bytes.max(1.0),
    );
    let origin_timeouts: u64 = addrs
        .iter()
        .map(|a| d.sim.node(a).ship_stats().timeouts)
        .sum();
    r.must_be_zero("core.ship.timeouts", (origin_timeouts + cs.timeouts) as f64);
    r.set("chord.build_ring_s", d.build.as_secs_f64());
    d.report_archive(r, &filled, log_bytes);
    d.report_durable_health(r);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_log_directory_is_removed_when_its_guard_drops_even_by_panic() {
        let dir = LogDir::create("unit-test");
        let path = dir.0.clone();
        std::fs::write(path.join("rel-0.seglog"), b"1234").expect("writable");
        assert_eq!(dir_bytes(&path), 4);
        let unwound = std::panic::catch_unwind(move || {
            let _held = dir;
            panic!("a workload failed mid-run");
        });
        assert!(unwound.is_err());
        assert!(!path.exists(), "{} survived the unwind", path.display());
    }
}
