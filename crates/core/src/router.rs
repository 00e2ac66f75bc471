//! The node router: local loop-back vs network, and the coalescing
//! outbox.
//!
//! Remote outputs are grouped into same-`(dst, relation, delete)`
//! envelopes — but only **consecutive** outputs coalesce (the router
//! only ever appends to the most recent envelope), so the receiver
//! dispatches tuples in exactly the order a one-envelope-per-tuple
//! sender would have produced. An envelope is cut at
//! [`ENVELOPE_FLUSH`] tuples; the receiver unpacks it into its queue one
//! tuple per entry.

use crate::node::Node;
use p2_dataflow::Action;
use p2_net::Envelope;
use p2_types::{Time, Tuple};

/// Most payload tuples the router coalesces into one outgoing envelope
/// before starting a new frame.
const ENVELOPE_FLUSH: usize = 64;

impl Node {
    pub(crate) fn route_action(&mut self, action: Action, now: Time) {
        let Action { tuple, delete } = action;
        self.route_tuple(tuple, delete, now);
    }

    /// Route a tuple by its location field: local loop-back or network.
    pub(crate) fn route_tuple(&mut self, tuple: Tuple, delete: bool, now: Time) {
        let dst = match tuple.location() {
            Ok(a) => a.clone(),
            Err(_) => {
                self.metrics.malformed_drops += 1;
                return;
            }
        };
        if dst == self.addr {
            if delete {
                if let Ok(Some(_)) = self.catalog.delete_by_key(&tuple, now) {
                    self.metrics.deletes += 1;
                    self.log_event(tuple.name(), "remove", now);
                }
            } else {
                self.push_pending(tuple, true);
            }
            return;
        }
        let src_tuple_id = if self.config.tracing {
            Some(self.tracer.on_send(&tuple, &dst, now))
        } else {
            None
        };
        self.metrics.tuples_sent += 1;
        if let Some(last) = self.outbox.last_mut() {
            if last.dst == dst
                && last.delete == delete
                && last.relation() == Some(tuple.name())
                && last.len() < ENVELOPE_FLUSH
            {
                last.push(tuple, src_tuple_id);
                return;
            }
        }
        self.metrics.msgs_sent += 1;
        let mut env = Envelope {
            tuples: Vec::new(),
            src: self.addr.clone(),
            dst,
            src_tuple_ids: Vec::new(),
            delete,
        };
        env.push(tuple, src_tuple_id);
        self.outbox.push(env);
    }

    /// Hand the accumulated envelopes to the caller (end of a pump).
    pub(crate) fn flush_outbox(&mut self) -> Vec<Envelope> {
        std::mem::take(&mut self.outbox)
    }
}
