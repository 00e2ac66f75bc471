//! Per-node measurement counters.
//!
//! These back the evaluation's four series (§4): *CPU utilization* is
//! reported as busy wall-clock time divided by elapsed virtual time —
//! the same ratio the paper plots, with the node's dataflow work as the
//! numerator; *memory* / *live tuples* come from the catalog (plus
//! tracer-internal state); *Tx messages* are counted at the network.

use std::time::Duration;

/// Monotonic counters for one node.
#[derive(Debug, Clone, Default)]
pub struct NodeMetrics {
    /// Wall-clock time spent executing this node's dataflow (pump +
    /// timer firing). Numerator of the CPU-utilization metric.
    pub busy: Duration,
    /// Envelopes handed to the network. With outbox coalescing one
    /// envelope can carry a whole same-relation run, so this counts
    /// *frames*; see `tuples_sent` for payload volume.
    pub msgs_sent: u64,
    /// Payload tuples handed to the network (across all envelopes).
    pub tuples_sent: u64,
    /// Envelopes received from the network.
    pub msgs_received: u64,
    /// Tuples dispatched through the demux (events + table deltas).
    pub tuples_dispatched: u64,
    /// Rule-strand firings.
    pub strand_firings: u64,
    /// Deletions executed on behalf of `delete` rules.
    pub deletes: u64,
    /// Tuples discarded because a pump exceeded its dispatch budget
    /// (runaway-rule protection; see `NodeConfig::max_dispatch_per_pump`).
    pub overflow_drops: u64,
    /// In-flight strand work units (queued stage inputs, un-emitted join
    /// matches) abandoned when a pump's budget ran out. Counted apart
    /// from `overflow_drops` so operators can tell queue pressure from
    /// pipeline pressure.
    pub strand_overflow_drops: u64,
    /// Malformed envelopes (decode failures, bad locations) dropped.
    pub malformed_drops: u64,
}

/// Runtime counters for the population shard a node lives on, published
/// into every member node after each run so the `sysStat` introspection
/// table covers the engine's synchronisation and mailbox (`shard.*`
/// rows). Unreported when the population is a single shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Which shard the node is assigned to.
    pub shard: u64,
    /// Event instants the shard has executed.
    pub events: u64,
    /// Population-wide rendezvous the shard has taken part in: one per
    /// run deadline and one per tracer-GC instant. (How often it waited
    /// on a peer's clock in between is timing, and is not counted.)
    pub barrier_waits: u64,
    /// Envelopes the shard has routed through the cross-shard mailbox.
    pub mailbox_envelopes: u64,
}

impl NodeMetrics {
    /// CPU-utilization percentage against an elapsed virtual duration.
    pub fn cpu_percent(&self, elapsed_virtual_secs: f64) -> f64 {
        if elapsed_virtual_secs <= 0.0 {
            return 0.0;
        }
        100.0 * self.busy.as_secs_f64() / elapsed_virtual_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_percent() {
        let m = NodeMetrics {
            busy: Duration::from_millis(250),
            ..Default::default()
        };
        assert!((m.cpu_percent(10.0) - 2.5).abs() < 1e-9);
        assert_eq!(m.cpu_percent(0.0), 0.0);
    }
}
