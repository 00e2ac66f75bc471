//! Segment-shipping costs (DESIGN.md §2.12).
//!
//! Shipping moves sealed history between nodes; the numbers that
//! matter are the per-hop stage costs and the end-to-end fetch:
//!
//! * `ship_export`: snapshotting one relation's history as encoded
//!   frames — the pure read an origin pays per shipment.
//!   Sealed segments clone their already-encoded frames; the live tier
//!   is frozen into one synthetic frame per call.
//! * `ship_wire_roundtrip`: batch-encode, chunk, reassemble, decode,
//!   and re-validate the frames — both endpoints' codec work for one
//!   shipped relation, excluding the network itself.
//! * `ship_import_scan`: install validated frames under an origin key
//!   and run the deployment-wide scan a `past()` strand performs —
//!   the collector's read path.
//! * `ship_fetch_e2e`: a full pull-mode round trip under the simulated
//!   harness — trigger stages, request, solicited shipment, import,
//!   release, strand fires — the wall every deployment-wide `past()`
//!   hits on a collector its origins do not stream to (each staged
//!   trigger fetches afresh).

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use p2_core::{NodeConfig, SimHarness};
use p2_net::ship::{chunk_payload, decode_batch, encode_batch, Reassembly};
use p2_net::SimConfig;
use p2_store::{Archive, ArchiveConfig, Segment, SpilledRow};
use p2_types::{Time, TimeDelta, Tuple, Value};

const ROWS: usize = 8 * 1024;
const CHUNK: usize = 48 * 1024;

fn spilled(i: usize) -> SpilledRow {
    let at = Time::from_secs(i as u64);
    SpilledRow {
        tuple: Tuple::new(
            "bestSucc",
            [Value::addr("n1"), Value::Int(i as i64), Value::str("v")],
        ),
        inserted_at: at,
        dropped_at: Time::from_secs(i as u64 + 30),
    }
}

fn sealed_archive(rows: usize) -> Archive {
    let mut a = Archive::new(ArchiveConfig {
        retention_bytes: usize::MAX,
        ..ArchiveConfig::default()
    });
    a.spill("bestSucc", (0..rows).map(spilled));
    a.seal_all();
    a
}

fn bench_segment_ship(c: &mut Criterion) {
    let archive = sealed_archive(ROWS);
    c.bench_function("ship_export", |b| {
        b.iter(|| black_box(archive.export_frames("bestSucc").len()))
    });

    let frames = archive.export_frames("bestSucc");
    c.bench_function("ship_wire_roundtrip", |b| {
        b.iter(|| {
            let encoded: Vec<Vec<u8>> = frames.iter().map(|s| s.as_bytes().to_vec()).collect();
            let batch = encode_batch(&encoded);
            let parts = chunk_payload(&batch, CHUNK);
            let chunks = parts.len() as u32;
            let mut rx = Reassembly::new();
            let mut payload = None;
            for (i, part) in parts.into_iter().enumerate() {
                if let Some(done) = rx.offer(i as u32, chunks, part).expect("in-order") {
                    payload = Some(done);
                }
            }
            let segs: Vec<Segment> = decode_batch(&payload.expect("complete"))
                .expect("batch decodes")
                .iter()
                .map(|b| Segment::from_bytes(b).expect("frame decodes"))
                .collect();
            black_box(segs.len())
        })
    });

    let shipped: Vec<Segment> = frames.clone();
    c.bench_function("ship_import_scan", |b| {
        b.iter_batched(
            || (p2_store::ImportedHistory::default(), shipped.clone()),
            |(mut imported, segs)| {
                imported.import("n1", "bestSucc", None, segs, None);
                let rows = imported
                    .scan(
                        "n1",
                        "bestSucc",
                        Time::ZERO,
                        Time::from_secs(ROWS as u64 + 30),
                        &[],
                    )
                    .expect("imported frames decode");
                black_box(rows.len())
            },
            BatchSize::SmallInput,
        )
    });

    c.bench_function("ship_fetch_e2e", |b| {
        b.iter_batched(
            staged_fetch_population,
            |(mut sim, coll)| {
                sim.inject(
                    &coll,
                    Tuple::new(
                        "probe",
                        [Value::Addr(coll.clone()), Value::Int(0), Value::Int(600)],
                    ),
                );
                sim.run_for(TimeDelta::from_secs(1));
                let got = sim.node_mut(&coll).take_watched("hist");
                assert!(!got.is_empty(), "fetch must complete and fire the strand");
                black_box(got.len())
            },
            BatchSize::SmallInput,
        )
    });
}

/// A two-node population with archived history on the origin and a
/// `past()` query staged on the collector, ready to probe.
fn staged_fetch_population() -> (SimHarness, p2_types::Addr) {
    let forensic = NodeConfig {
        stagger_timers: false,
        ..NodeConfig::forensic()
    };
    let mut sim = SimHarness::new(SimConfig::default(), forensic, 42);
    let origin = sim.add_node("a");
    sim.install(
        &origin,
        "materialize(seen, 5, 512, keys(1, 2)).\nr1 seen@N(X) :- ping@N(X).",
    )
    .expect("app installs");
    for i in 0..256u64 {
        sim.run_until(Time::from_millis(10 + i * 100));
        sim.inject(
            &origin,
            Tuple::new("ping", [Value::Addr(origin.clone()), Value::Int(i as i64)]),
        );
    }
    sim.run_until(Time::from_secs(60));
    sim.node_mut(&origin).trace_gc(Time::from_secs(60));
    let coll = sim.add_node("coll");
    sim.install(
        &coll,
        "materialize(seen, 5, 512, keys(1, 2)).\nf1 hist@N(O, S) :- probe@N(T0, T1), past@N(\"seen\", T0, T1, O, S).",
    )
    .expect("query installs");
    sim.node_mut(&coll).ship_add_peer(origin.clone());
    sim.node_mut(&coll).watch("hist");
    (sim, coll)
}

criterion_group!(benches, bench_segment_ship);
criterion_main!(benches);
