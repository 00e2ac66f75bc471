//! Per-node measurement counters.
//!
//! These back the evaluation's four series (§4): *CPU utilization* is
//! reported as busy wall-clock time divided by elapsed virtual time —
//! the same ratio the paper plots, with the node's dataflow work as the
//! numerator; *memory* / *live tuples* come from the catalog (plus
//! tracer-internal state); *Tx messages* are counted at the network.

use std::time::Duration;

p2_types::counters! {
    /// Monotonic counters for one node.
    #[derive(Debug, Clone, Default)]
    pub struct NodeMetrics {
        /// Wall-clock time spent executing this node's dataflow (pump +
        /// timer firing). Numerator of the CPU-utilization metric.
        pub busy: Duration,
        /// Envelopes handed to the network. With outbox coalescing one
        /// envelope can carry a whole same-relation run, so this counts
        /// *frames*; see `tuples_sent` for payload volume.
        pub msgs_sent: u64 = "msgsSent",
        /// Envelopes received from the network.
        pub msgs_received: u64 = "msgsReceived",
        /// Tuples dispatched through the demux (events + table deltas).
        pub tuples_dispatched: u64 = "tuplesDispatched",
        /// Rule-strand firings.
        pub strand_firings: u64 = "strandFirings",
        /// Deletions executed on behalf of `delete` rules.
        pub deletes: u64 = "deletes",
        /// Tuples discarded because a pump exceeded its dispatch budget
        /// (runaway-rule protection; see `NodeConfig::max_dispatch_per_pump`).
        pub overflow_drops: u64 = "overflowDrops",
        /// In-flight strand work units (queued stage inputs, un-emitted join
        /// matches) abandoned when a pump's budget ran out. Counted apart
        /// from `overflow_drops` so operators can tell queue pressure from
        /// pipeline pressure.
        pub strand_overflow_drops: u64 = "strandOverflowDrops",
        /// Payload tuples handed to the network (across all envelopes).
        pub tuples_sent: u64 = "tuplesSent",
        /// Malformed envelopes (decode failures, bad locations) dropped.
        pub malformed_drops: u64 = "malformedDrops",
    }
}

p2_types::counters! {
    /// Runtime counters for the population shard a node lives on, published
    /// into every member node after each run so the `sysStat` introspection
    /// table covers the engine's synchronisation and mailbox (`shard.*`
    /// rows). Unreported when the population is a single shard.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ShardStats {
        /// Which shard the node is assigned to.
        pub shard: u64 = "id",
        /// Event instants the shard has executed.
        pub events: u64 = "events",
        /// Population-wide rendezvous the shard has taken part in: one per
        /// run deadline and one per tracer-GC instant. (How often it waited
        /// on a peer's clock in between is timing, and is not counted.)
        pub barrier_waits: u64 = "barrier_waits",
        /// Envelopes the shard has routed through the cross-shard mailbox.
        pub mailbox_envelopes: u64 = "mailbox_envelopes",
    }
}
