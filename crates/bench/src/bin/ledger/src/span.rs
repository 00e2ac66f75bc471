//! Spans around the calls the ledger makes into each layer.
//!
//! A span is named `layer/call`. [`Tracer::time`] always measures the
//! call (the end-to-end metrics need that with tracing off) and records
//! the span only in a traced run. Everything is kept in memory and written
//! out once, at exit.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    /// The workload operation this span belongs to (slice number, probe
    /// number, ping sequence); spans of one operation share it.
    pub op: u64,
    pub start_us: f64,
    pub end_us: f64,
    pub counters: Vec<(String, f64)>,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Host time the ledger itself spent on traced-run bookkeeping
    /// (reading counters at span boundaries).
    bookkeeping: Duration,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            bookkeeping: Duration::ZERO,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn us(&self, t: Instant) -> f64 {
        t.duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Run `f` as the span `name`, returning its result and duration.
    pub fn time<R>(
        &mut self,
        name: &str,
        op: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, Duration) {
        let start = Instant::now();
        let id = self.on.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                parent: self.open.last().copied(),
                op,
                start_us: self.us(start),
                end_us: f64::NAN,
                counters: Vec::new(),
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let out = f(self);
        let took = start.elapsed();
        if let Some(id) = id {
            self.spans[id].end_us = self.us(start + took);
            self.open.pop();
        }
        (out, took)
    }

    /// Record a child of the innermost open span whose duration is known
    /// but whose position inside the parent is not (busy time summed
    /// from counters): it is laid to end now, after the children already
    /// recorded, so it does not hide behind them in the union.
    pub fn child(&mut self, name: &str, took: Duration) {
        let Some(&parent) = self.open.last() else {
            return;
        };
        let end_us = self.us(Instant::now());
        self.spans.push(Span {
            name: name.to_string(),
            parent: Some(parent),
            op: self.spans[parent].op,
            start_us: end_us - took.as_secs_f64() * 1e6,
            end_us,
            counters: Vec::new(),
        });
    }

    /// Attach a counter reading to the innermost open span.
    pub fn count(&mut self, key: &str, value: f64) {
        if let Some(&id) = self.open.last() {
            self.spans[id].counters.push((key.to_string(), value));
        }
    }

    /// Run `f` only in a traced run, charging its time to the tracing
    /// overhead. For counter reads the untraced run does not need.
    pub fn bookkeep<R>(&mut self, f: impl FnOnce() -> R) -> Option<R> {
        if !self.on {
            return None;
        }
        let start = Instant::now();
        let out = f();
        self.bookkeeping += start.elapsed();
        Some(out)
    }

    pub fn bookkeeping(&self) -> Duration {
        self.bookkeeping
    }

    /// Seconds of self time per layer (the part of a span's name before
    /// `/`), over the spans whose operation id is in `ops`.
    pub fn layer_self_s(&self, ops: std::ops::Range<u64>) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for (id, us) in self_times_us(&self.spans).into_iter().enumerate() {
            let span = &self.spans[id];
            if ops.contains(&span.op) {
                let layer = span.name.split('/').next().unwrap_or(&span.name);
                *out.entry(layer.to_string()).or_insert(0.0) += us / 1e6;
            }
        }
        out
    }

    pub fn to_json(&self) -> Json {
        let self_us = self_times_us(&self.spans);
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        ("name", Json::str(&s.name)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("op", Json::Num(s.op as f64)),
                        ("start_us", Json::Num(s.start_us)),
                        ("end_us", Json::Num(s.end_us)),
                        ("self_us", Json::Num(self_us[id])),
                        (
                            "counters",
                            Json::Obj(
                                s.counters
                                    .iter()
                                    .map(|(k, v)| (k.clone(), Json::Num(*v)))
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

/// A span's self time: its duration minus the part of it that its
/// children cover. Children may overlap each other or stick out of the
/// parent (the summed busy time of two shards can), so the covered part
/// is the union of the child intervals clipped to the parent.
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (
                s.start_us.max(spans[p].start_us),
                s.end_us.min(spans[p].end_us),
            );
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (lo, hi) in kids {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_us - s.start_us - covered).max(0.0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start_us: f64, end_us: f64) -> Span {
        Span {
            name: name.to_string(),
            parent,
            op: 0,
            start_us,
            end_us,
            counters: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = [
            span("a/root", None, 0.0, 100.0),
            span("b/child", Some(0), 10.0, 60.0),
            span("c/grandchild", Some(1), 20.0, 30.0),
        ];
        // The grandchild is the child's business, not the root's.
        assert_eq!(self_times_us(&spans), vec![50.0, 40.0, 10.0]);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        let spans = [
            span("a/root", None, 0.0, 100.0),
            span("b/x", Some(0), 10.0, 50.0),
            span("b/y", Some(0), 30.0, 70.0),
            span("b/inside-x", Some(0), 15.0, 20.0),
            span("b/sticks-out", Some(0), 90.0, 130.0),
        ];
        // Union: [10,70] and [90,100] = 70 of the root's 100.
        assert_eq!(self_times_us(&spans)[0], 30.0);
    }

    #[test]
    fn children_longer_than_the_parent_leave_zero() {
        let spans = [
            span("a/root", None, 0.0, 10.0),
            span("b/x", Some(0), 0.0, 25.0),
        ];
        assert_eq!(self_times_us(&spans)[0], 0.0);
    }

    #[test]
    fn tracer_nests_and_attributes_by_layer() {
        let mut tr = Tracer::new(true);
        tr.time("core.sim/run_for", 3, |tr| {
            tr.count("dispatches", 7.0);
            tr.child("core.scheduler/busy", Duration::from_micros(1));
            tr.time("chord.testbed/issue_lookup", 3, |_| ());
        });
        assert_eq!(tr.spans.len(), 3);
        assert_eq!(tr.spans[1].parent, Some(0));
        assert_eq!(tr.spans[2].parent, Some(0));
        assert_eq!(tr.spans[0].counters, vec![("dispatches".to_string(), 7.0)]);
        let layers = tr.layer_self_s(3..4);
        assert_eq!(
            layers.keys().collect::<Vec<_>>(),
            ["chord.testbed", "core.scheduler", "core.sim"]
        );
        assert!(tr.layer_self_s(0..3).is_empty());
    }

    #[test]
    fn untraced_run_records_nothing_but_still_times() {
        let mut tr = Tracer::new(false);
        let (v, took) = tr.time("x/y", 0, |tr| {
            tr.count("k", 1.0);
            tr.child("x/z", Duration::from_secs(1));
            assert_eq!(tr.bookkeep(|| 1), None);
            std::thread::sleep(Duration::from_millis(2));
            5
        });
        assert_eq!(v, 5);
        assert!(took >= Duration::from_millis(2));
        assert!(tr.spans.is_empty());
    }
}
