//! The new bounded insert is the old one.
//!
//! [`Model`] is [`Table`] as it stood before evictions moved rows into
//! the spill buffer with one probe and took their expiry entries with
//! them, and before the expiry heap became a sorted queue: a
//! `BinaryHeap` of `(at, seq)` entries that evicted rows leave behind,
//! `get` then `remove` per evicted row, a clone for the spill buffer.
//! Secondary indexes and probe counters are left out — nothing compared
//! here reads them. The proptest below drives both through random
//! inserts (new, refresh, replace), deletes by key and by predicate,
//! expiry and eviction at a bound, on a clock that also runs backwards,
//! and after every step compares what the node can observe: `scan`,
//! `take_spilled` (order and content) and the lifetime counters.

use crate::archive::SpilledRow;
use crate::table::{Key, Table, TableSpec};
use p2_types::{Time, TimeDelta, Tuple, Value};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

struct Row {
    tuple: Tuple,
    seq: u64,
    inserted_at: Time,
}

#[derive(PartialEq, Eq)]
struct HeapEnt {
    at: Time,
    seq: u64,
    key: Key,
}

impl PartialOrd for HeapEnt {
    fn partial_cmp(&self, other: &HeapEnt) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEnt {
    fn cmp(&self, other: &HeapEnt) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

struct Model {
    spec: TableSpec,
    rows: crate::FxHashMap<Key, Row>,
    order: VecDeque<(Key, u64)>,
    expiry: BinaryHeap<Reverse<HeapEnt>>,
    next_seq: u64,
    spilled: Vec<SpilledRow>,
    counters: (u64, u64, u64, u64, u64),
}

impl Model {
    fn new(spec: TableSpec) -> Model {
        Model {
            spec,
            rows: Default::default(),
            order: VecDeque::new(),
            expiry: BinaryHeap::new(),
            next_seq: 0,
            spilled: Vec::new(),
            counters: (0, 0, 0, 0, 0),
        }
    }

    fn spill(&mut self, row: &Row, dropped_at: Time) {
        self.spilled.push(SpilledRow {
            tuple: row.tuple.clone(),
            inserted_at: row.inserted_at,
            dropped_at,
        });
    }

    fn expire(&mut self, now: Time) {
        if self.spec.lifetime.is_none() {
            return;
        }
        while let Some(Reverse(top)) = self.expiry.peek() {
            if top.at > now {
                break;
            }
            let Some(Reverse(ent)) = self.expiry.pop() else {
                break;
            };
            if self.rows.get(&ent.key).is_some_and(|r| r.seq == ent.seq) {
                if let Some(row) = self.rows.remove(&ent.key) {
                    self.counters.3 += 1;
                    self.spill(&row, ent.at);
                }
            }
        }
    }

    fn compact(&mut self) {
        let rows = &self.rows;
        if self.order.len() > 16 && self.order.len() > 4 * rows.len() {
            self.order
                .retain(|(k, s)| rows.get(k).is_some_and(|r| r.seq == *s));
        }
        if self.expiry.len() > 16 && self.expiry.len() > 4 * rows.len() {
            self.expiry = self
                .expiry
                .drain()
                .filter(|Reverse(e)| rows.get(&e.key).is_some_and(|r| r.seq == e.seq))
                .collect();
        }
    }

    fn insert(&mut self, tuple: Tuple, now: Time) {
        self.expire(now);
        self.compact();
        let key = self.spec.key_arc(&tuple);
        let expires_at = self.spec.lifetime.map(|l| now + l);
        let seq = self.next_seq;
        self.next_seq += 1;
        if let Some(max) = self.spec.max_rows {
            if max == 0 {
                return;
            }
            if self.rows.len() >= max && !self.rows.contains_key(&key) {
                while self.rows.len() >= max {
                    let Some((k, s)) = self.order.pop_front() else {
                        break;
                    };
                    if self.rows.get(&k).is_some_and(|r| r.seq == s) {
                        if let Some(r) = self.rows.remove(&k) {
                            self.spill(&r, now);
                            self.counters.2 += 1;
                        }
                    }
                }
            }
        }
        let queue = |key: Key, expiry: &mut BinaryHeap<_>, order: &mut VecDeque<_>| {
            if let Some(at) = expires_at {
                expiry.push(Reverse(HeapEnt {
                    at,
                    seq,
                    key: key.clone(),
                }));
            }
            order.push_back((key, seq));
        };
        match self.rows.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let existing = e.get_mut();
                if existing.tuple == tuple {
                    existing.seq = seq;
                    queue(e.key().clone(), &mut self.expiry, &mut self.order);
                    return;
                }
                let old = std::mem::replace(
                    existing,
                    Row {
                        tuple,
                        seq,
                        inserted_at: now,
                    },
                );
                queue(e.key().clone(), &mut self.expiry, &mut self.order);
                self.spill(&old, now);
                self.counters.1 += 1;
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                queue(v.key().clone(), &mut self.expiry, &mut self.order);
                v.insert(Row {
                    tuple,
                    seq,
                    inserted_at: now,
                });
                self.counters.0 += 1;
            }
        }
    }

    fn delete_by_key(&mut self, tuple: &Tuple, now: Time) {
        self.expire(now);
        let key = self.spec.key_of(tuple);
        if let Some(r) = self.rows.remove(&key[..]) {
            self.counters.4 += 1;
            self.spill(&r, now);
        }
    }

    fn delete_where(&mut self, now: Time, mut pred: impl FnMut(&Tuple) -> bool) {
        self.expire(now);
        let gone: Vec<Row> = self
            .rows
            .extract_if(|_, r| pred(&r.tuple))
            .map(|(_, r)| r)
            .collect();
        for r in gone {
            self.counters.4 += 1;
            self.spill(&r, now);
        }
    }

    fn scan(&mut self, now: Time) -> Vec<Tuple> {
        self.expire(now);
        let rows = &self.rows;
        self.order
            .iter()
            .filter(|(k, s)| rows.get(k).is_some_and(|r| r.seq == *s))
            .map(|(k, _)| rows[k].tuple.clone())
            .collect()
    }
}

fn row(a: u8, b: i64) -> Tuple {
    Tuple::new("t", [Value::addr(format!("n{a}")), Value::Int(b)])
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// Under any schedule the real table and the pre-change one agree on
    /// everything a node observes, including the order rows spill in.
    #[test]
    fn prop_table_matches_pre_change_model(
        lifetime in 0u8..3,
        bound in 0u8..4,
        ops in proptest::collection::vec((0u8..10, 0u8..6, 0i64..3, -4i64..6), 1..160),
    ) {
        let lifetime = [None, Some(5), Some(20)][lifetime as usize].map(TimeDelta::from_secs);
        let max_rows = [None, Some(1), Some(3), Some(5)][bound as usize];
        let spec = TableSpec::new("t", lifetime, max_rows, vec![0]);
        let (mut t, mut m) = (Table::new(spec.clone()), Model::new(spec));
        t.set_archive_enrolled(true);
        let mut secs = 50i64;
        for (sel, a, b, dt) in ops {
            // The clock mostly advances, sometimes stands still, and
            // sometimes runs backwards.
            secs = (secs + dt).max(0);
            let now = Time::from_secs(secs as u64);
            match sel {
                0..=5 => {
                    t.insert(row(a, b), now);
                    m.insert(row(a, b), now);
                }
                6 => {
                    t.delete_by_key(&row(a, 0), now);
                    m.delete_by_key(&row(a, 0), now);
                }
                7 => {
                    let p = |x: &Tuple| x.get(1) == Some(&Value::Int(b));
                    t.delete_where(now, p);
                    m.delete_where(now, p);
                }
                _ => {
                    t.expire(now);
                    m.expire(now);
                }
            }
            prop_assert_eq!(t.scan(now), m.scan(now));
            prop_assert_eq!(t.take_spilled(), std::mem::take(&mut m.spilled));
            prop_assert_eq!(t.counters(), m.counters);
        }
    }
}
