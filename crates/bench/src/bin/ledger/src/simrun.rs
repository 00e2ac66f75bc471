//! What the three simulator workloads share: the sliced measured window,
//! counter snapshots read from outside, and the layer metrics derived
//! from their deltas.

use crate::report::Report;
use crate::span::Tracer;
use crate::stats;
use p2_chord::testbed::collect_lookup_results;
use p2_chord::{issue_lookup, lookup_oracle, ChordRing};
use p2_core::Population;
use p2_types::{Addr, DetRng, RingId, TimeDelta, Value};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Install `source` on every node of `addrs`, one span per install.
pub fn install_each<H: Population>(
    sim: &mut H,
    addrs: &[Addr],
    source: &str,
    tr: &mut Tracer,
    install_us: &mut Vec<f64>,
) {
    for addr in addrs {
        let (res, took) = tr.time("core.installer/install", 0, |_| sim.install(addr, source));
        res.unwrap_or_else(|e| panic!("install on {addr}: {e}"));
        install_us.push(took.as_secs_f64() * 1e6);
    }
}

/// Time `parse_program` over `sources` (the front end in isolation).
pub fn parse_us(sources: &[String], tr: &mut Tracer) -> f64 {
    let (_, took) = tr.time("overlog/parse_program", 0, |_| {
        for s in sources {
            let parsed = p2_overlog::parse_program(s);
            assert!(parsed.is_ok(), "a shipped program must parse");
            std::hint::black_box(&parsed);
        }
    });
    took.as_secs_f64() * 1e6
}

/// Seeded Chord lookups issued during a window, and their verdicts.
///
/// Answers go to a client node outside the ring that runs no program:
/// Chord's join rule absorbs any `lookupResults` a ring member receives
/// as a successor candidate, so a member asking for random keys would
/// rewire the ring it is measuring.
pub struct Lookups {
    rng: DetRng,
    entry: Entry,
    client: Addr,
    issued: Vec<(RingId, RingId)>,
}

/// Where a lookup enters the ring.
#[derive(Clone, Copy)]
pub enum Entry {
    /// At a random node, routed from there: for a ring that has converged.
    Anywhere,
    /// Two nodes before the key's owner in ring order, so at most one
    /// forwarding hop: for a ring that has not. There every successor hop
    /// multiplies a lookup by the number of finger positions that hold
    /// that successor (events are not deduplicated), a walk of a few such
    /// hops exceeds `max_dispatch_per_pump`, and the pump that is cut
    /// drops tuples: on the 256-ring after 30 virtual seconds one seed in
    /// three tripped it (a 1.4-s slice) and one in twenty-four lost a
    /// lookup. From here the only node between entry and key is the key's
    /// predecessor, so the work is bounded and the answer certain,
    /// whatever the seed.
    NearOwner,
}

pub struct Judged {
    pub answered: bool,
    /// The answer names the owner `lookup_oracle` names.
    pub consistent: bool,
}

impl Lookups {
    /// Also clears the ring-probe alarms watched so far, so that
    /// [`Lookups::report`] counts the window's.
    pub fn new<H: Population>(sim: &mut H, ring: &ChordRing, seed: u64, entry: Entry) -> Lookups {
        let client = sim.add_node("lookup-client");
        sim.node_mut(&client).watch("lookupResults");
        take_alarms(sim, ring);
        Lookups {
            rng: DetRng::derive(seed, "ledger-lookups"),
            entry,
            client,
            issued: Vec::new(),
        }
    }

    /// Issue `n` lookups for random keys, each entering the ring where
    /// [`Entry`] says.
    pub fn issue<H: Population>(
        &mut self,
        sim: &mut H,
        ring: &ChordRing,
        n: u64,
        op: u64,
        tr: &mut Tracer,
    ) {
        for _ in 0..n {
            let (at, key) = match self.entry {
                Entry::Anywhere => {
                    let at = self.rng.below(ring.addrs.len() as u64) as usize;
                    (ring.addrs[at].clone(), self.rng.ring_id())
                }
                Entry::NearOwner => {
                    let key = self.rng.ring_id();
                    let sorted = ring.live_sorted(sim);
                    let owner = sorted.partition_point(|(id, _)| *id < key);
                    let at = (owner + 2 * sorted.len() - 2) % sorted.len();
                    (sorted[at].1.clone(), key)
                }
            };
            let req = self.rng.next_u64();
            tr.time("chord.testbed/issue_lookup", op, |_| {
                issue_lookup(sim, &at, key, &self.client, req)
            });
            self.issued.push((RingId(req), key));
        }
    }

    /// Drain the watched answers, judge every lookup issued, and report
    /// the counts (with the ring-probe alarms raised meanwhile).
    pub fn report<H: Population>(
        &self,
        sim: &mut H,
        ring: &ChordRing,
        r: &mut Report,
    ) -> Vec<Judged> {
        let judged = self.judge(sim, ring);
        let answered = judged.iter().filter(|j| j.answered).count();
        let inconsistent = judged
            .iter()
            .filter(|j| j.answered && !j.consistent)
            .count();
        r.set("chord.lookups_answered", answered as f64);
        r.set("chord.lookups_inconsistent", inconsistent as f64);
        r.set("monitor.ring_alarms", take_alarms(sim, ring) as f64);
        judged
    }

    fn judge<H: Population>(&self, sim: &mut H, ring: &ChordRing) -> Vec<Judged> {
        let watched = sim.node_mut(&self.client).take_watched("lookupResults");
        let answers = collect_lookup_results(&watched);
        self.issued
            .iter()
            .map(|(req, key)| {
                let answer = answers.get(req);
                Judged {
                    answered: answer.is_some(),
                    consistent: answer.map(|(_, owner)| owner)
                        == lookup_oracle(sim, ring, *key).map(|(_, a)| a).as_ref(),
                }
            })
            .collect()
    }
}

/// Watch the ring probe's alarm relation on every ring node.
pub fn watch_alarms<H: Population>(sim: &mut H, ring: &ChordRing) {
    for a in &ring.addrs {
        sim.node_mut(a).watch(p2_monitor::ring::ALARM);
    }
}

fn take_alarms<H: Population>(sim: &mut H, ring: &ChordRing) -> usize {
    ring.addrs
        .iter()
        .map(|a| sim.node_mut(a).take_watched(p2_monitor::ring::ALARM).len())
        .sum()
}

/// Counters summed over a set of nodes at one instant.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// `sysStat` rows summed by key. Per-table `idx.<table>.<counter>`
    /// and per-relation `archive.<relation>.<counter>` rows are folded to
    /// `idx.<counter>` / `archive.<counter>`; `archive.ship.in.*` rows
    /// (per origin) are dropped.
    pub stat: BTreeMap<String, i64>,
    pub busy: Duration,
    pub dispatched: u64,
    pub overflow_drops: u64,
    pub fired: u64,
    pub outputs: u64,
    pub eval_errors: u64,
    pub probe_cache_hits: u64,
    pub strands: u64,
    pub live_tuples: u64,
    pub live_bytes: u64,
    pub total_sent: u64,
    pub dropped: u64,
}

fn fold_key(key: &str) -> Option<String> {
    if key.starts_with("archive.ship.in.") {
        return None;
    }
    if key.starts_with("archive.ship.") {
        return Some(key.to_string());
    }
    for prefix in ["idx.", "archive."] {
        if let Some(rest) = key.strip_prefix(prefix) {
            let counter = rest.rsplit('.').next().unwrap_or(rest);
            return Some(format!("{prefix}{counter}"));
        }
    }
    Some(key.to_string())
}

/// Σ `NodeMetrics::busy` over `addrs`: the one child of a slice that is
/// visible from outside.
pub fn busy_sum<H: Population>(sim: &H, addrs: &[Addr]) -> Duration {
    addrs.iter().map(|a| sim.node(a).metrics().busy).sum()
}

/// Read every counter the program publishes, on every node of `addrs`.
/// Refreshing `sysStat` writes rows into the `sys*` tables, so both the
/// traced and the untraced run take the same snapshots at the same
/// virtual instants.
pub fn snapshot<H: Population>(sim: &mut H, addrs: &[Addr]) -> Snapshot {
    let now = sim.now();
    let mut s = Snapshot::default();
    for addr in addrs {
        let node = sim.node_mut(addr);
        node.refresh_introspection(now);
        for row in node.table_scan("sysStat", now) {
            let (Some(Value::Str(key)), Some(Value::Int(v))) = (row.get(1), row.get(2)) else {
                continue;
            };
            if let Some(key) = fold_key(key) {
                *s.stat.entry(key).or_insert(0) += v;
            }
        }
        for (_, _, st) in node.strand_stats() {
            s.fired += st.fired;
            s.outputs += st.outputs;
            s.eval_errors += st.eval_errors;
            s.probe_cache_hits += st.probe_cache_hits;
        }
        s.strands += node.strand_count() as u64;
        let m = node.metrics();
        s.busy += m.busy;
        s.dispatched += m.tuples_dispatched;
        s.overflow_drops += m.overflow_drops + m.strand_overflow_drops;
        s.live_tuples += node.live_tuples() as u64;
        s.live_bytes += node.approx_bytes() as u64;
    }
    let net = sim.net_stats();
    s.total_sent = net.total_sent();
    s.dropped = net.dropped;
    s
}

impl Snapshot {
    pub fn stat(&self, key: &str) -> i64 {
        self.stat.get(key).copied().unwrap_or(0)
    }
}

/// `after - before` of one folded `sysStat` key.
pub fn stat_delta(before: &Snapshot, after: &Snapshot, key: &str) -> f64 {
    (after.stat(key) - before.stat(key)) as f64
}

/// The measured window: `vsec` slices of one virtual second each.
pub struct Window {
    pub slice_ms: Vec<f64>,
    pub wall: Duration,
}

/// Virtual seconds per span of [`Window::typical_ms`]: the protocol's
/// periods (1, 2, 4, 5 and 10 s) all divide it or nearly do.
const SPAN_VSEC: usize = 10;

impl Window {
    /// Host ms a virtual second typically costs: the median, over spans
    /// of ten consecutive slices, of the span's mean, with the number of
    /// spans. Single slices are bimodal (a second with a stabilization
    /// round in it, or without), so their median flips between the modes
    /// from run to run; a span holds the same rounds every time, and the
    /// median still leaves out the spans a 30-second sweep falls in.
    pub fn typical_ms(&self) -> (f64, usize) {
        let spans: Vec<f64> = self
            .slice_ms
            .chunks_exact(SPAN_VSEC)
            .map(|c| c.iter().sum::<f64>() / c.len() as f64)
            .collect();
        if spans.len() < 3 {
            return (stats::median(&self.slice_ms), self.slice_ms.len());
        }
        (stats::median(&spans), spans.len())
    }
}

/// Which engine a window runs on, and the nodes whose busy time is its
/// slices' visible child.
pub struct Engine<'a> {
    /// The span layer: `core.sim` or `core.parallel`.
    pub layer: &'static str,
    pub shards: u32,
    pub addrs: &'a [Addr],
}

/// Advance `sim` by `vsec` virtual seconds in 1-vsec `run_for` slices,
/// timing each. Slice `i` carries operation id `first_op + i`;
/// `before_slice` is handed that id and runs inside the slice's span,
/// ahead of `run_for` (a workload injects its requests there).
pub fn run_window<H: Population>(
    sim: &mut H,
    engine: &Engine,
    vsec: u64,
    first_op: u64,
    tr: &mut Tracer,
    mut before_slice: impl FnMut(&mut H, u64, &mut Tracer),
) -> Window {
    let span_name = format!("{}/run_for", engine.layer);
    let (addrs, shards) = (engine.addrs, engine.shards);
    let mut slice_ms = Vec::with_capacity(vsec as usize);
    let start = Instant::now();
    for i in 0..vsec {
        let busy0 = tr.bookkeep(|| busy_sum(sim, addrs));
        let (_, took) = tr.time(&span_name, first_op + i, |tr| {
            before_slice(sim, first_op + i, tr);
            sim.run_for(TimeDelta::from_secs(1));
            if let Some(busy0) = busy0 {
                let busy = tr
                    .bookkeep(|| busy_sum(sim, addrs))
                    .unwrap_or(busy0)
                    .saturating_sub(busy0);
                // Shards run side by side: their summed busy time covers
                // 1/shards of it in wall time.
                tr.child("core.scheduler/busy", busy / shards);
                tr.count("busy_us", busy.as_secs_f64() * 1e6);
            }
        });
        slice_ms.push(took.as_secs_f64() * 1e3);
    }
    Window {
        slice_ms,
        wall: start.elapsed(),
    }
}

/// The layer metrics every simulator workload derives the same way from
/// its window and the snapshots around it.
pub fn report_window(
    r: &mut Report,
    w: &Window,
    before: &Snapshot,
    after: &Snapshot,
    shards: u32,
    ops: std::ops::Range<u64>,
    tr: &Tracer,
) {
    let wall = w.wall.as_secs_f64();
    let n = w.slice_ms.len();
    let sorted = stats::sorted(&w.slice_ms);
    let p50 = stats::quantile(&sorted, 0.5);
    let (tail_pct, tail_ms) = stats::tail(&w.slice_ms);
    r.set_n("window.wall_s", wall, n);
    r.set_n("window.slice_ms_p50", p50, n);
    r.set_n("window.slice_ms_tail", tail_ms, n);
    r.set_n("window.slice_tail_pct", tail_pct, n);
    r.set_n(
        "window.slice_ms_max",
        sorted.last().copied().unwrap_or(0.0),
        n,
    );
    // The share of the window a run of median slices would not explain:
    // what the periodic sweeps (tracer GC, expiry, seal) add on top.
    let total_ms: f64 = w.slice_ms.iter().sum();
    r.set_n(
        "window.sweep_share",
        ((total_ms - p50 * n as f64) / total_ms).max(0.0),
        n,
    );

    let busy = after.busy.saturating_sub(before.busy).as_secs_f64();
    let dispatches = (after.dispatched - before.dispatched) as f64;
    r.set("core.scheduler.busy_s", busy);
    r.set("core.scheduler.dispatches", dispatches);
    r.set(
        "core.scheduler.ns_per_dispatch",
        busy * 1e9 / dispatches.max(1.0),
    );
    r.set(
        "core.scheduler.overflow_drops",
        (after.overflow_drops - before.overflow_drops) as f64,
    );
    // What the sequential engine itself costs: the next-event scan,
    // delivery and pumping every node. The sharded engine's share is
    // `core.parallel.busy_share`, which its workload sets.
    if shards == 1 {
        r.set("core.sim.engine_self_s", (wall - busy).max(0.0));
    }

    let hits = (after.probe_cache_hits - before.probe_cache_hits) as f64;
    let index_probes = stat_delta(before, after, "idx.indexProbes");
    let linear_probes = stat_delta(before, after, "idx.linearProbes");
    r.set(
        "dataflow.strand.firings",
        (after.fired - before.fired) as f64,
    );
    r.set(
        "dataflow.strand.outputs",
        (after.outputs - before.outputs) as f64,
    );
    r.set(
        "dataflow.strand.eval_errors",
        (after.eval_errors - before.eval_errors) as f64,
    );
    r.set(
        "dataflow.strand.probe_cache_hit_share",
        hits / (hits + index_probes + linear_probes).max(1.0),
    );
    r.set("core.installer.strands", after.strands as f64);

    r.set("store.table.live_tuples", after.live_tuples as f64);
    r.set("store.table.live_bytes", after.live_bytes as f64);
    r.set("store.table.index_probes", index_probes);
    r.set("store.table.linear_probes", linear_probes);
    r.set(
        "store.table.rows_scanned_per_returned",
        stat_delta(before, after, "idx.rowsScanned")
            / stat_delta(before, after, "idx.rowsReturned").max(1.0),
    );
    r.set(
        "store.table.heap_pops",
        stat_delta(before, after, "idx.heapPops"),
    );

    r.set(
        "net.sim.total_sent",
        (after.total_sent - before.total_sent) as f64,
    );
    r.set("net.sim.dropped", (after.dropped - before.dropped) as f64);

    if tr.on() {
        let layers = tr.layer_self_s(ops);
        let attributed: f64 = layers.values().sum();
        r.set("window.attributed_share", attributed / wall.max(1e-9));
        r.set(
            "trace.overhead_frac",
            tr.bookkeeping().as_secs_f64() / wall.max(1e-9),
        );
        for (layer, s) in layers {
            r.notes.push(format!(
                "window self time: {layer} {s:.3} s ({:.1} % of the window)",
                100.0 * s / wall.max(1e-9)
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typical_second_is_the_median_span_not_the_median_slice() {
        // Bimodal slices (1 ms, 9 ms alternating) and one 100-ms sweep.
        let mut slice_ms: Vec<f64> = (0..50)
            .map(|i| if i % 2 == 0 { 1.0 } else { 9.0 })
            .collect();
        slice_ms[25] = 100.0;
        let w = Window {
            slice_ms,
            wall: Duration::from_secs(1),
        };
        // Four spans average 5 ms, the one holding the sweep 14.1 ms.
        assert_eq!(w.typical_ms(), (5.0, 5));
        // Too few spans to take a median of: fall back to the slices.
        let short = Window {
            slice_ms: vec![1.0, 9.0, 1.0],
            wall: Duration::from_secs(1),
        };
        assert_eq!(short.typical_ms(), (1.0, 3));
    }

    #[test]
    fn per_table_and_per_relation_keys_fold_to_their_counter() {
        assert_eq!(
            fold_key("idx.succ.indexProbes").as_deref(),
            Some("idx.indexProbes")
        );
        assert_eq!(
            fold_key("archive.ruleExec.spilledRows").as_deref(),
            Some("archive.spilledRows")
        );
        assert_eq!(
            fold_key("archive.ship.bytesReceived").as_deref(),
            Some("archive.ship.bytesReceived")
        );
        assert_eq!(fold_key("archive.ship.in.n1.succ.segments"), None);
        assert_eq!(
            fold_key("durable.appends").as_deref(),
            Some("durable.appends")
        );
    }
}
