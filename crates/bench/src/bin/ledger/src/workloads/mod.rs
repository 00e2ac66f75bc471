pub mod chord;
pub mod forensic;
pub mod realtime;
pub mod stack;

/// Each workload at toy size, for the unit tests: at most 6 nodes, 20
/// virtual seconds, 200 pings.
#[cfg(test)]
pub fn run_toy(name: &str, r: &mut crate::report::Report, tr: &mut crate::span::Tracer) {
    match name {
        chord::NAME => chord::run(
            &chord::Params {
                nodes: 6,
                warm_vsec: 20,
                window_vsec: 10,
                lookups_per_vsec: 2,
            },
            r,
            tr,
        ),
        stack::NAME => stack::run(
            &stack::Params {
                nodes: 6,
                warm_vsec: 200,
                settle_vsec: 10,
                window_vsec: 20,
                lookups_per_vsec: 2,
            },
            r,
            tr,
        ),
        forensic::FILL | forensic::QUERY | forensic::RECOVER => {
            let p = forensic::Params {
                nodes: 5,
                warm_vsec: 120,
                fill_vsec: 200,
                fill_window_vsec: 20,
                probes: 5,
                probe_window_vsec: 30,
                ship_vsec: 40,
                restart_rounds: 1,
            };
            match name {
                forensic::FILL => forensic::run_fill(&p, r, tr),
                forensic::QUERY => forensic::run_query(&p, r, tr),
                _ => forensic::run_recover(&p, r, tr),
            }
        }
        realtime::NAME => realtime::run(
            &realtime::Params {
                open_rate: 1_000,
                open_pings: 200,
                outstanding: 16,
                closed_echoes: 200,
                setups: 2,
                udp_rate: 1_000,
                udp_pings: 100,
            },
            r,
            tr,
        ),
        other => panic!("no toy size for {other}"),
    }
}

/// The per-layer metrics a workload must produce (beyond the end-to-end
/// ones every workload owes). Probe metrics exist in traced runs only.
#[cfg(test)]
pub fn owned_layers(name: &str, traced: bool) -> Vec<&'static str> {
    const WINDOW: &[&str] = &[
        "window.wall_s",
        "window.slice_ms_p50",
        "window.slice_ms_tail",
        "window.slice_ms_max",
        "window.sweep_share",
        "core.scheduler.busy_s",
        "core.scheduler.dispatches",
        "core.scheduler.overflow_drops",
        "dataflow.strand.firings",
        "dataflow.strand.outputs",
        "dataflow.strand.probe_cache_hit_share",
        "store.table.live_tuples",
        "store.table.index_probes",
        "store.table.heap_pops",
        "net.sim.total_sent",
        "core.installer.strands",
        "chord.build_ring_s",
    ];
    const ARCHIVE: &[&str] = &[
        "store.archive.spilled_rows",
        "store.archive.segments",
        "store.archive.sealed_bytes",
        "store.archive.dropped_segments",
        "store.archive.bytes_per_row",
        "store.durable.appends",
        "store.durable.log_bytes",
        "store.durable.io_errors",
        "monitor.retrospect_verdicts_ok",
        "trace.rule_exec_rows",
    ];
    const WIRE: &[&str] = &[
        "net.wire.encode_ns",
        "net.wire.decode_ns",
        "net.wire.bytes_per_envelope",
    ];
    let (always, probes): (Vec<&[&str]>, Vec<&[&str]>) = match name {
        chord::NAME => (
            vec![
                WINDOW,
                &[
                    "chord.lookups_answered",
                    "chord.lookups_inconsistent",
                    "core.parallel.events",
                    "core.parallel.barrier_waits",
                    "core.parallel.mailbox_envelopes",
                    "core.parallel.mailbox_share",
                    "core.parallel.busy_share",
                    "core.installer.install_us_p50",
                    "monitor.ring_alarms",
                ],
            ],
            vec![&[
                "overlog.parse_us",
                "window.attributed_share",
                "trace.overhead_frac",
            ]],
        ),
        stack::NAME => (
            vec![
                WINDOW,
                &[
                    "core.sim.engine_self_s",
                    "chord.lookups_answered",
                    "trace.rule_exec_rows",
                    "trace.tuple_table_rows",
                    "core.installer.install_us_p50",
                ],
            ],
            vec![
                WIRE,
                &[
                    "overlog.parse_us",
                    "store.table.scan_eq_ns",
                    "trace.gc_ms_p50",
                    "window.attributed_share",
                    "trace.overhead_frac",
                ],
            ],
        ),
        forensic::FILL => (
            vec![WINDOW, ARCHIVE, &["core.sim.engine_self_s"]],
            vec![WIRE, &["trace.gc_ms_p50", "window.attributed_share"]],
        ),
        forensic::QUERY => (
            vec![
                ARCHIVE,
                &[
                    "forensic.past_query_ms_p50",
                    "forensic.past_query_ms_tail",
                    "forensic.past_query_hits",
                    "forensic.history_scan_mrows_per_s",
                    "store.archive.window_scan_ms_p50",
                    "store.archive.pruned_share",
                ],
            ],
            vec![WIRE],
        ),
        forensic::RECOVER => (
            vec![
                ARCHIVE,
                &[
                    "forensic.restart_all_s",
                    "forensic.ship_catchup_s",
                    "store.durable.restart_ms_p50",
                    "store.durable.recover_mb_per_s",
                    "store.durable.recovered_segments",
                    "core.ship.announce_chunks",
                    "core.ship.imports_applied",
                    "core.ship.bytes_received",
                    "core.ship.wire_bytes_per_sealed_byte",
                    "core.ship.timeouts",
                ],
            ],
            vec![WIRE],
        ),
        realtime::NAME => (
            vec![&[
                "rt.latency_ms_tail",
                "rt.gen_late_ms_p99",
                "rt.gen_late_ms_max",
                "rt.lost",
                "core.scheduler.dispatches",
                "core.installer.install_us_p50",
            ]],
            vec![
                WIRE,
                &[
                    "net.threaded.send_ns",
                    "net.threaded.try_recv_ns",
                    "core.driver.tick_us_per_envelope",
                    "rt.poll_wait_ms",
                ],
            ],
        ),
        other => panic!("no metric list for {other}"),
    };
    let mut out: Vec<&str> = always.into_iter().flatten().copied().collect();
    if traced {
        out.extend(probes.into_iter().flatten().copied());
    }
    out
}
