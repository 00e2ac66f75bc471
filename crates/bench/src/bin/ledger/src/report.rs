//! The metric tables (one source for names, units and which counts must
//! repeat exactly) and the report one run produces.

use crate::json::Json;
use std::collections::BTreeMap;

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    /// A count that must be identical between two runs of the same code
    /// with the same seed and `--seconds`.
    pub exact: bool,
}

const fn t(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        exact: false,
    }
}

const fn c(name: &'static str) -> Def {
    Def {
        name,
        unit: "count",
        exact: true,
    }
}

/// What a user of the system sees. Every workload reports every one;
/// README.md says what the request and the unit of work are on each.
pub const END_TO_END: &[Def] = &[
    t("setup_s", "s"),
    t("peak_rss_mb", "MB"),
    t("latency_ms_p50", "ms"),
    t("throughput_per_s", "1/s"),
];

/// Single layers, by module name. A workload that does not run a layer
/// reports 0 for it, which is the "bypass" half of every prediction.
pub const PER_LAYER: &[Def] = &[
    t("chord.build_ring_s", "s"),
    c("chord.lookups_answered"),
    c("chord.lookups_inconsistent"),
    t("overlog.parse_us", "us"),
    t("core.installer.install_us_p50", "us"),
    c("core.installer.strands"),
    c("core.parallel.events"),
    c("core.parallel.barrier_waits"),
    c("core.parallel.mailbox_envelopes"),
    t("core.parallel.mailbox_share", "ratio"),
    t("core.parallel.busy_share", "ratio"),
    t("core.sim.engine_self_s", "s"),
    t("core.scheduler.busy_s", "s"),
    c("core.scheduler.dispatches"),
    t("core.scheduler.ns_per_dispatch", "ns"),
    c("core.scheduler.overflow_drops"),
    c("dataflow.strand.firings"),
    c("dataflow.strand.outputs"),
    c("dataflow.strand.eval_errors"),
    t("dataflow.strand.probe_cache_hit_share", "ratio"),
    c("store.table.live_tuples"),
    c("store.table.live_bytes"),
    c("store.table.index_probes"),
    c("store.table.linear_probes"),
    t("store.table.rows_scanned_per_returned", "ratio"),
    c("store.table.heap_pops"),
    t("store.table.scan_eq_ns", "ns"),
    c("trace.rule_exec_rows"),
    c("trace.tuple_table_rows"),
    t("trace.gc_ms_p50", "ms"),
    t("trace.overhead_frac", "ratio"),
    t("window.wall_s", "s"),
    t("window.slice_ms_p50", "ms"),
    t("window.slice_ms_tail", "ms"),
    t("window.slice_tail_pct", "%"),
    t("window.slice_ms_max", "ms"),
    t("window.sweep_share", "ratio"),
    t("window.attributed_share", "ratio"),
    c("net.sim.total_sent"),
    c("net.sim.dropped"),
    t("net.wire.encode_ns", "ns"),
    t("net.wire.decode_ns", "ns"),
    t("net.wire.bytes_per_envelope", "B"),
    t("net.threaded.send_ns", "ns"),
    t("net.threaded.try_recv_ns", "ns"),
    t("net.udp.rtt_ms_p50", "ms"),
    t("net.udp.malformed", "count"),
    t("core.driver.tick_us_per_envelope", "us"),
    t("rt.poll_wait_ms", "ms"),
    t("rt.latency_ms_tail", "ms"),
    t("rt.latency_tail_pct", "%"),
    t("rt.gen_late_ms_max", "ms"),
    t("rt.gen_late_ms_p99", "ms"),
    t("rt.lost", "count"),
    c("store.archive.spilled_rows"),
    c("store.archive.segments"),
    c("store.archive.sealed_bytes"),
    c("store.archive.compactions"),
    c("store.archive.dropped_segments"),
    t("store.archive.pruned_share", "ratio"),
    t("store.archive.bytes_per_row", "B"),
    t("store.archive.window_scan_ms_p50", "ms"),
    t("forensic.past_query_ms_p50", "ms"),
    t("forensic.past_query_ms_tail", "ms"),
    t("forensic.past_query_tail_pct", "%"),
    c("forensic.past_query_hits"),
    t("forensic.history_scan_mrows_per_s", "Mrows/s"),
    t("forensic.restart_all_s", "s"),
    t("forensic.ship_catchup_s", "s"),
    c("store.durable.appends"),
    c("store.durable.fsyncs"),
    c("store.durable.log_bytes"),
    c("store.durable.recovered_segments"),
    c("store.durable.quarantined"),
    c("store.durable.io_errors"),
    t("store.durable.restart_ms_p50", "ms"),
    t("store.durable.recover_mb_per_s", "MB/s"),
    c("core.ship.announce_chunks"),
    c("core.ship.imports_applied"),
    c("core.ship.bytes_received"),
    t("core.ship.wire_bytes_per_sealed_byte", "ratio"),
    c("core.ship.timeouts"),
    c("monitor.ring_alarms"),
    c("monitor.retrospect_verdicts_ok"),
];

fn def(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// What one run of one workload measured.
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Reasons the run's numbers must not be used (a late generator, a
    /// counter that must be zero and is not). Empty on a good run.
    pub invalid: Vec<String>,
    /// Things a reader should know that are not numbers: what was
    /// skipped and why, the fsync policy, the thread count.
    pub notes: Vec<String>,
    values: BTreeMap<&'static str, (f64, u64)>,
}

impl Report {
    pub fn new(workload: &str, seed: u64, seconds: u64, traced: bool) -> Report {
        Report {
            workload: workload.to_string(),
            seed,
            seconds,
            traced,
            attempted: 0,
            failed: 0,
            invalid: Vec::new(),
            notes: Vec::new(),
            values: BTreeMap::new(),
        }
    }

    /// Record a metric with the number of samples behind it.
    ///
    /// # Panics
    ///
    /// Panics on a name that is in neither table: a typo in the ledger.
    pub fn set_n(&mut self, name: &str, value: f64, samples: usize) {
        let d = def(name).unwrap_or_else(|| panic!("metric {name} is in no table"));
        self.values.insert(d.name, (value, samples as u64));
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.set_n(name, value, 1);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|(v, _)| *v)
    }

    /// Count one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// A count that must be zero for the run to be valid.
    pub fn must_be_zero(&mut self, name: &str, value: f64) {
        self.set(name, value);
        self.require_zero(name);
    }

    /// Mark the run invalid unless the metric already set is zero.
    pub fn require_zero(&mut self, name: &str) {
        match self.get(name) {
            Some(0.0) => {}
            v => self.invalid.push(format!("{name} = {v:?}, must be 0")),
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.invalid.is_empty() && self.attempted > 0
    }

    fn metric_json(&self, d: &Def) -> (String, Json) {
        let (value, _) = self.values.get(d.name).copied().unwrap_or((0.0, 0));
        (
            d.name.to_string(),
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(d.unit))]),
        )
    }

    /// The end-to-end metrics a workload did not set.
    pub fn missing_end_to_end(&self) -> Vec<&'static str> {
        END_TO_END
            .iter()
            .filter(|d| !self.values.contains_key(d.name))
            .map(|d| d.name)
            .collect()
    }

    /// The last line of standard output: end-to-end metrics from an
    /// untraced run, per-layer metrics from a traced one.
    pub fn contract_line(&self) -> String {
        let table = if self.traced { PER_LAYER } else { END_TO_END };
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(table.iter().map(|d| self.metric_json(d)).collect()),
            ),
        ])
        .render()
    }

    /// Everything, for `--out`: both tables (a traced run's end-to-end
    /// values are kept but marked as not to be used), sample counts,
    /// notes.
    pub fn to_json(&self) -> Json {
        let full = |table: &[Def]| {
            Json::Obj(
                table
                    .iter()
                    .filter_map(|d| {
                        let (value, samples) = self.values.get(d.name).copied()?;
                        Some((
                            d.name.to_string(),
                            Json::obj([
                                ("value", Json::Num(value)),
                                ("unit", Json::str(d.unit)),
                                ("samples", Json::Num(samples as f64)),
                                ("exact", Json::Bool(d.exact)),
                            ]),
                        ))
                    })
                    .collect(),
            )
        };
        Json::obj([
            ("workload", Json::str(&self.workload)),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds as f64)),
            ("traced", Json::Bool(self.traced)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "invalid",
                Json::Arr(self.invalid.iter().map(Json::str).collect()),
            ),
            (
                "notes",
                Json::Arr(self.notes.iter().map(Json::str).collect()),
            ),
            ("end_to_end", full(END_TO_END)),
            ("per_layer", full(PER_LAYER)),
        ])
    }

    /// Every metric by name with its unit and sample count, for people.
    pub fn print_table(&self) {
        println!(
            "== {} seed={} seconds={} traced={}",
            self.workload, self.seed, self.seconds, self.traced
        );
        for (title, table) in [("end to end", END_TO_END), ("per layer", PER_LAYER)] {
            println!("-- {title}");
            for d in table {
                if let Some((value, samples)) = self.values.get(d.name) {
                    let exact = if d.exact { " exact" } else { "" };
                    println!(
                        "{:<42} {:>16.6} {:<8} n={samples}{exact}",
                        d.name, value, d.unit
                    );
                }
            }
        }
        println!(
            "-- operations: attempted {} failed {} ({})",
            self.attempted,
            self.failed,
            if self.correct() {
                "correct"
            } else {
                "NOT CORRECT"
            }
        );
        for why in &self.invalid {
            println!("INVALID: {why}");
        }
        for note in &self.notes {
            println!("note: {note}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                !d.name.is_empty()
                    && d.name.len() <= 64
                    && d.name
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_ascii_alphanumeric())
                    && d.name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad name {}",
                d.name
            );
            assert!(
                !d.unit.is_empty()
                    && d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {} on {}",
                d.unit,
                d.name
            );
            assert!(seen.insert(d.name), "{} is listed twice", d.name);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn contract_line_follows_the_trace_flag() {
        let mut r = Report::new("w", 1, 10, false);
        r.set("setup_s", 1.25);
        r.set_n("latency_ms_p50", 0.5, 100);
        r.set("net.sim.total_sent", 12.0);
        r.check(true);
        let line = Json::parse(&r.contract_line()).expect("json");
        let metrics = line.get("metrics").and_then(Json::as_obj).expect("metrics");
        assert_eq!(
            metrics.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            END_TO_END.iter().map(|d| d.name).collect::<Vec<_>>()
        );
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(r.missing_end_to_end(), ["peak_rss_mb", "throughput_per_s"]);

        r.traced = true;
        let line = Json::parse(&r.contract_line()).expect("json");
        let metrics = line.get("metrics").and_then(Json::as_obj).expect("metrics");
        assert_eq!(metrics.len(), PER_LAYER.len());
        let sent = line
            .get("metrics")
            .and_then(|m| m.get("net.sim.total_sent"))
            .and_then(|m| m.get("value"));
        assert_eq!(sent, Some(&Json::Num(12.0)));
    }

    #[test]
    fn a_nonzero_must_be_zero_counter_spoils_the_run() {
        let mut r = Report::new("w", 1, 10, true);
        r.check(true);
        assert!(r.correct());
        r.must_be_zero("core.ship.timeouts", 0.0);
        assert!(r.correct());
        r.must_be_zero("core.scheduler.overflow_drops", 3.0);
        assert!(!r.correct());
    }
}
