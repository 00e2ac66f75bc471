//! The node scheduler: pump loop, dispatch budget, and timer wheel.
//!
//! The pump is the paper's §2.1.2 schedule and nothing else: pop one
//! queued tuple and demux it (watches, event log, table insert, strand
//! firings), then run one pipeline step per active strand, and repeat
//! until nothing is left. Every tuple — application deltas, trace rows
//! (`ruleExec`/`tupleTable`, queued as records), the event log,
//! introspection churn — takes that one path, so the tap order and the
//! traced tuple IDs are whatever this loop produces.
//!
//! The per-pump budget covers *all* work — tuple dispatches and strand
//! steps alike. On exhaustion queued tuples are dropped (counted in
//! `overflow_drops`) and in-flight strand pipelines are abandoned
//! (counted separately in `strand_overflow_drops`).

use crate::node::{Node, NodeCtx, Queued};
use p2_dataflow::{NullSink, TapSink};
use p2_net::Envelope;
use p2_types::{Time, TimeDelta, TraceRow, Tuple, Value};
use std::cmp::Reverse;
use std::time::Instant;

/// A periodic timer installed for a `periodic`-triggered strand.
#[derive(Debug, Clone)]
pub(crate) struct TimerState {
    pub(crate) strand_idx: usize,
    pub(crate) period: TimeDelta,
    pub(crate) next_fire: Time,
    pub(crate) program: crate::node::ProgramId,
}

impl Node {
    /// Earliest pending timer, for the simulation scheduler.
    ///
    /// The heap top is exact: there is exactly one entry per installed
    /// timer (pushed at install, re-pushed on every firing, and the heap
    /// is rebuilt wholesale on uninstall).
    pub fn next_timer(&self) -> Option<Time> {
        let heap = self.timer_heap.peek().map(|Reverse((t, _))| *t);
        // Outstanding fetch deadlines wake the node too: a staged
        // trigger must be released even if the peer never answers.
        match (heap, self.ship.next_deadline()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Fire every timer due at or before `now` (synthesizing `periodic`
    /// event tuples), then pump.
    pub fn fire_timers(&mut self, now: Time) {
        let started = Instant::now();
        self.ship_check_timeouts(now);
        while let Some(Reverse((t, i))) = self.timer_heap.peek().copied() {
            if t > now {
                break;
            }
            self.timer_heap.pop();
            let Some(state) = self.timers.get(i) else {
                continue;
            };
            if state.next_fire != t {
                continue; // stale entry from a rebuild
            }
            let (strand_idx, period) = (state.strand_idx, state.period);
            let mut next = t + period;
            while next <= now {
                next += period; // catch up after long gaps
            }
            self.timers[i].next_fire = next;
            self.timer_heap.push(Reverse((next, i)));
            let nonce = self.rng.next_u64();
            let tuple = Tuple::new(
                "periodic",
                [
                    Value::Addr(self.addr.clone()),
                    Value::id(nonce),
                    Value::Float(period.as_secs_f64()),
                ],
            );
            self.fire_strand(strand_idx, &tuple, true, now);
        }
        self.metrics.busy += started.elapsed();
    }

    /// Process until quiescent at virtual time `now`; returns envelopes
    /// to transmit.
    pub fn pump(&mut self, now: Time) -> Vec<Envelope> {
        let started = Instant::now();
        let mut budget = self.config.max_dispatch_per_pump;
        'pump: loop {
            let mut did_work = false;

            // Staged triggers whose fetches all resolved fire first:
            // they were dispatched (watched, event-logged, counted)
            // before they parked, so only the strand firings remain.
            while let Some((tuple, traced)) = self.ship.released.pop_front() {
                if budget == 0 {
                    self.overflow();
                    break 'pump;
                }
                budget -= 1;
                if let Some(idxs) = self.event_dispatch.get(tuple.name()).cloned() {
                    for &idx in idxs.iter() {
                        self.fire_strand(idx, &tuple, traced, now);
                    }
                }
                did_work = true;
            }

            if !self.pending.is_empty() {
                if budget == 0 {
                    self.overflow();
                    break;
                }
                self.consume_front(&mut budget, now);
                did_work = true;
            }

            // One pipeline step per strand with in-flight work, in
            // ascending strand order (the §2.1.2 round-robin interleave
            // the per-tuple engine used).
            let active: Vec<usize> = self.active_strands.iter().copied().collect();
            for idx in active {
                if !self.strands[idx].has_work() {
                    self.active_strands.remove(&idx);
                    continue;
                }
                if budget == 0 {
                    self.overflow();
                    break 'pump;
                }
                budget -= self.step_strand(idx, budget, now);
                if !self.strands[idx].has_work() {
                    self.active_strands.remove(&idx);
                }
                did_work = true;
            }

            // Flush tracer rows into the queue, each in the slot a tuple
            // would take; their deltas dispatch untraced.
            if self.config.tracing && self.tracer.pending_len() > 0 {
                let rows = self.tracer.drain_rows();
                self.pending.extend(rows.into_iter().map(Queued::Trace));
                did_work = true;
            }

            if !did_work {
                break;
            }
        }
        self.metrics.busy += started.elapsed();
        self.flush_outbox()
    }

    /// Whether the last pump left work behind. A pump that runs to
    /// quiescence never does; one that exhausts its budget can break out
    /// with tracer rows it never flushed or released triggers it never
    /// fired (the queued deltas themselves are dropped).
    pub(crate) fn has_backlog(&self) -> bool {
        !self.ship.released.is_empty() || (self.config.tracing && self.tracer.pending_len() > 0)
    }

    /// Dispatch the tuple or trace row at the front of the queue.
    fn consume_front(&mut self, budget: &mut u64, now: Time) {
        let Some(queued) = self.pending.pop_front() else {
            return; // caller checks non-empty; an empty queue is done
        };
        *budget -= 1;
        match queued {
            Queued::Tuple(tuple, traced) => self.dispatch(tuple, traced, now),
            Queued::Trace(row) => self.dispatch_trace(row, now),
        }
    }

    /// Dispatch a tracer row. Its relation is a table no strand or
    /// watch reads, as a rule: then the row goes into the table as its
    /// record, which is all [`Node::dispatch`] would do with its tuple.
    /// Otherwise its tuple is built and takes that path.
    fn dispatch_trace(&mut self, row: TraceRow, now: Time) {
        let name = row.relation();
        let read = self.watches.contains_key(name)
            || self
                .table_dispatch
                .get(name)
                .is_some_and(|idxs| !idxs.is_empty());
        if read || !self.catalog.is_materialized(name) {
            self.dispatch(row.to_tuple(), false, now);
            return;
        }
        self.metrics.tuples_dispatched += 1;
        if self.catalog.insert_row(row, now).is_err() {
            self.metrics.malformed_drops += 1;
        }
    }

    /// Dispatch one tuple through the demux: watches, table insert (and
    /// delta strands) or event strands.
    pub(crate) fn dispatch(&mut self, tuple: Tuple, traced: bool, now: Time) {
        self.metrics.tuples_dispatched += 1;
        if let Some(log) = self.watches.get_mut(tuple.name()) {
            log.push((now, tuple.clone()));
        }
        if traced {
            self.log_event(tuple.name(), "arrive", now);
        }
        let name = tuple.name();
        if self.catalog.is_materialized(name) {
            match self.catalog.insert(tuple.clone(), now) {
                Ok(p2_store::InsertOutcome::Refreshed) => return, // no delta
                Ok(_) => {}
                Err(_) => {
                    self.metrics.malformed_drops += 1;
                    return;
                }
            }
            if let Some(idxs) = self.table_dispatch.get(name).cloned() {
                for &idx in idxs.iter() {
                    self.fire_strand(idx, &tuple, traced, now);
                }
            }
        } else if let Some(idxs) = self.event_dispatch.get(name).cloned() {
            // `past()` scans fetch before they fire: if any watching
            // strand needs uncovered peer history, the trigger parks
            // behind the requests and fires on release instead.
            if self.ship_stage_event(&idxs, &tuple, traced, now) {
                return;
            }
            for &idx in idxs.iter() {
                self.fire_strand(idx, &tuple, traced, now);
            }
        }
    }

    /// Step strand `idx`. Normally one unit of work; when this strand is
    /// the *only* source of work (nothing pending, no sibling strand
    /// active) it keeps stepping — stopping at the first step that emits
    /// an action, so produced tuples are dispatched at exactly the point
    /// the one-step-per-iteration schedule would have dispatched them.
    /// Returns the number of steps taken (all budget-covered).
    fn step_strand(&mut self, idx: usize, budget: u64, now: Time) -> u64 {
        let solo = self.pending.is_empty() && self.active_strands.len() == 1;
        let traced = self.config.tracing;
        let mut steps = 0u64;
        loop {
            let mut actions = Vec::new();
            let stepped = {
                let mut ctx = NodeCtx {
                    now,
                    addr: self.addr.clone(),
                    rng: &mut self.rng,
                };
                let mut null = NullSink;
                let sink: &mut dyn TapSink = if traced { &mut self.tracer } else { &mut null };
                self.strands[idx].step(&mut self.catalog, &mut ctx, sink, now, &mut actions)
            };
            if !stepped {
                break;
            }
            steps += 1;
            let emitted = !actions.is_empty();
            for a in actions {
                self.route_action(a, now);
            }
            if !solo || emitted || !self.pending.is_empty() || steps >= budget {
                break;
            }
        }
        steps
    }

    /// Budget exhausted: drop all queued deltas and abandon all in-flight
    /// strand work, counting each separately.
    fn overflow(&mut self) {
        self.metrics.overflow_drops += self.pending.len() as u64;
        self.pending.clear();
        let active: Vec<usize> = self.active_strands.iter().copied().collect();
        for idx in active {
            self.metrics.strand_overflow_drops += self.strands[idx].abandon_work();
        }
        self.active_strands.clear();
    }
}
