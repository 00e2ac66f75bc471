//! Layer probes: one layer's public function called in isolation, on the
//! data the run itself produced. Traced runs only; they run after the
//! measured window, so they change no end-to-end number.

use crate::report::Report;
use crate::span::Tracer;
use crate::stats;
use p2_core::Population;
use p2_net::Envelope;
use p2_types::Addr;

/// `trace.tracer`: one `Node::trace_gc` sweep per node.
pub fn trace_gc<H: Population>(sim: &mut H, addrs: &[Addr], r: &mut Report, tr: &mut Tracer) {
    let now = sim.now();
    let ms: Vec<f64> = addrs
        .iter()
        .map(|a| {
            let (_, took) = tr.time("trace.tracer/trace_gc", 0, |_| {
                sim.node_mut(a).trace_gc(now)
            });
            took.as_secs_f64() * 1e3
        })
        .collect();
    r.set_n("trace.gc_ms_p50", stats::median(&ms), ms.len());
}

/// `store.table`: equality probes on the node's largest table, keyed by
/// values taken from that table's own rows (field 1, the first non-
/// location field). Past the store's auto-index threshold, so this is
/// the indexed path a join probe takes.
pub fn scan_eq<H: Population>(sim: &mut H, addr: &Addr, r: &mut Report, tr: &mut Tracer) {
    let now = sim.now();
    let node = sim.node_mut(addr);
    let Some((table, _, _)) = node
        .catalog_mut()
        .table_stats()
        .into_iter()
        .filter(|(name, _, _)| !name.starts_with("sys"))
        .max_by_key(|(_, rows, _)| *rows)
    else {
        return;
    };
    let keys: Vec<_> = node
        .table_scan(&table, now)
        .iter()
        .filter_map(|t| t.get(1).cloned())
        .take(1024)
        .collect();
    if keys.is_empty() {
        return;
    }
    const ROUNDS: usize = 8;
    let (_, took) = tr.time("store.table/scan_eq", 0, |_| {
        for _ in 0..ROUNDS {
            for k in &keys {
                std::hint::black_box(node.catalog_mut().scan_eq(&table, 1, k, now));
            }
        }
    });
    let calls = ROUNDS * keys.len();
    r.set_n(
        "store.table.scan_eq_ns",
        took.as_secs_f64() * 1e9 / calls as f64,
        calls,
    );
    r.notes
        .push(format!("store.table.scan_eq_ns probes `{table}` on {addr}"));
}

/// Encode and decode `envelopes`, reporting ns per envelope and the mean
/// frame size.
pub fn codec(envelopes: &[Envelope], r: &mut Report, tr: &mut Tracer) {
    if envelopes.is_empty() {
        return;
    }
    const ROUNDS: usize = 16;
    let n = (ROUNDS * envelopes.len()) as f64;
    let mut frames = Vec::new();
    let (_, enc) = tr.time("net.wire/encode_envelope", 0, |_| {
        for _ in 0..ROUNDS {
            frames.clear();
            frames.extend(envelopes.iter().map(p2_net::wire::encode_envelope));
        }
    });
    let (_, dec) = tr.time("net.wire/decode_envelope", 0, |_| {
        for _ in 0..ROUNDS {
            for f in &frames {
                let back = p2_net::wire::decode_envelope(f);
                assert!(back.is_ok(), "the codec must read its own frames");
                std::hint::black_box(&back);
            }
        }
    });
    let bytes: usize = frames.iter().map(Vec::len).sum();
    r.set_n(
        "net.wire.encode_ns",
        enc.as_secs_f64() * 1e9 / n,
        n as usize,
    );
    r.set_n(
        "net.wire.decode_ns",
        dec.as_secs_f64() * 1e9 / n,
        n as usize,
    );
    r.set_n(
        "net.wire.bytes_per_envelope",
        bytes as f64 / frames.len() as f64,
        frames.len(),
    );
}

/// `net.wire` on envelopes rebuilt from rows of one of the run's own
/// tables (one tuple per envelope, as most protocol traffic travels).
pub fn wire_codec<H: Population>(
    sim: &mut H,
    addr: &Addr,
    table: &str,
    r: &mut Report,
    tr: &mut Tracer,
) {
    let now = sim.now();
    let envelopes: Vec<Envelope> = sim
        .node_mut(addr)
        .table_scan(table, now)
        .into_iter()
        .take(2048)
        .map(|t| Envelope::new(t, addr.clone(), addr.clone()))
        .collect();
    codec(&envelopes, r, tr);
}
