//! Tracer records and the §2.1.2 stage-association algorithm.
//!
//! One [`RecordSet`] exists per rule strand. Each [`Record`] captures (at
//! most) one in-flight execution: the input event, one precondition per
//! join stage, and the window `[first, last]` of stages the execution
//! currently occupies. The four observations drive it:
//!
//! * **input** — reuse a record with no associated stages (or allocate,
//!   up to the fixed cap; beyond it the oldest record is recycled —
//!   §3.4's "fixed number of execution records" optimization), clear it,
//!   store the input, associate window `[0, 0]`.
//! * **precondition at stage i** — post into the record whose window
//!   covers `i`, flushing any filled fields to the right of `i` (§2.1.1:
//!   tuples flow left-to-right, so a mid-strand precondition invalidates
//!   later ones). If no window covers `i`, the record with the latest
//!   window is extended to contain `i`.
//! * **stage i complete** — the record whose window *begins* at `i`
//!   abandons it (advance `first` to `i + 1`); a record advancing past
//!   the last stage retires (window cleared, fields kept until reuse).
//!   If no window begins at `i`, the record with the latest window is
//!   extended to contain `i` (no-op when already contained).
//! * **output** — package the record with the highest window into
//!   `ruleExec` rows (done by the [`crate::tracer::Tracer`], which owns
//!   tuple IDs; this module just finds the record).

use p2_types::{Time, TupleId};

/// One execution record: the §2.1.1 structure, sized by the strand's
/// join-stage count.
#[derive(Debug, Clone)]
pub struct Record {
    /// Window of stages this record's execution currently occupies
    /// (`None` = idle/reusable).
    window: Option<(usize, usize)>,
    /// The input event observation.
    pub input: Option<(TupleId, Time)>,
    /// One precondition observation slot per join stage.
    pub preconditions: Vec<Option<(TupleId, Time)>>,
    /// Allocation age, for oldest-first recycling.
    age: u64,
}

impl Record {
    fn new(stage_count: usize) -> Record {
        Record {
            window: None,
            input: None,
            preconditions: vec![None; stage_count],
            age: 0,
        }
    }

    /// The record's stage window, if active.
    pub fn window(&self) -> Option<(usize, usize)> {
        self.window
    }

    fn clear(&mut self, stage_count: usize) {
        self.input = None;
        self.preconditions.clear();
        self.preconditions.resize(stage_count, None);
    }
}

/// All records of one strand.
#[derive(Debug)]
pub struct RecordSet {
    records: Vec<Record>,
    stage_count: usize,
    cap: usize,
    next_age: u64,
}

impl RecordSet {
    /// Create a record set for a strand with `stage_count` join stages,
    /// holding at most `cap` concurrent records.
    pub fn new(stage_count: usize, cap: usize) -> RecordSet {
        RecordSet {
            records: Vec::new(),
            stage_count,
            cap: cap.max(1),
            next_age: 0,
        }
    }

    /// The join-stage count this set was sized for.
    pub fn stage_count(&self) -> usize {
        self.stage_count
    }

    /// Number of live (associated) records.
    pub fn active_count(&self) -> usize {
        self.records.iter().filter(|r| r.window.is_some()).count()
    }

    /// Total allocated records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no records are allocated.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Observe a strand input.
    pub fn observe_input(&mut self, id: TupleId, at: Time) {
        let stage_count = self.stage_count;
        let age = self.bump_age();
        // Prefer an idle record.
        if let Some(r) = self.records.iter_mut().find(|r| r.window.is_none()) {
            r.clear(stage_count);
            r.input = Some((id, at));
            r.window = if stage_count == 0 { None } else { Some((0, 0)) };
            r.age = age;
            return;
        }
        if self.records.len() < self.cap {
            let mut r = Record::new(stage_count);
            r.input = Some((id, at));
            r.window = if stage_count == 0 { None } else { Some((0, 0)) };
            r.age = age;
            self.records.push(r);
            return;
        }
        // Fixed record budget exhausted: recycle the oldest (§3.4).
        if let Some(r) = self.records.iter_mut().min_by_key(|r| r.age) {
            r.clear(stage_count);
            r.input = Some((id, at));
            r.window = if stage_count == 0 { None } else { Some((0, 0)) };
            r.age = age;
        }
    }

    /// Observe a precondition fetched at stage `i`.
    pub fn observe_precondition(&mut self, i: usize, id: TupleId, at: Time) {
        if i >= self.stage_count {
            return;
        }
        if let Some(r) = self
            .records
            .iter_mut()
            .filter(|r| matches!(r.window, Some((f, l)) if f <= i && i <= l))
            .max_by_key(|r| r.age)
        {
            r.preconditions[i] = Some((id, at));
            for later in r.preconditions[i + 1..].iter_mut() {
                *later = None;
            }
            return;
        }
        // Extend the record with the latest window to contain stage i.
        if let Some((r, (f, l))) = self
            .records
            .iter_mut()
            .filter_map(|r| r.window.map(|w| (r, w)))
            .max_by_key(|(r, (_, l))| (*l, r.age))
        {
            r.window = Some((f.min(i), l.max(i)));
            r.preconditions[i] = Some((id, at));
            for later in r.preconditions[i + 1..].iter_mut() {
                *later = None;
            }
        }
        // No active record at all: a precondition without an observed
        // input (e.g. tracing enabled mid-flight) is dropped.
    }

    /// Observe a stage-completion signal for stage `i`.
    pub fn observe_stage_complete(&mut self, i: usize) {
        if let Some((r, l)) = self
            .records
            .iter_mut()
            .filter_map(|r| match r.window {
                Some((f, l)) if f == i => Some((r, l)),
                _ => None,
            })
            .min_by_key(|(r, _)| r.age)
        {
            let nf = i + 1;
            if nf >= self.stage_count {
                // Advanced past the final stage: retire.
                r.window = None;
            } else {
                r.window = Some((nf, l.max(nf)));
            }
            return;
        }
        // Extend the latest record to contain stage i (usually a no-op —
        // a later batch of an execution already covering i completing).
        if let Some((r, (f, l))) = self
            .records
            .iter_mut()
            .filter_map(|r| r.window.map(|w| (r, w)))
            .max_by_key(|(r, (_, l))| (*l, r.age))
        {
            r.window = Some((f, l.max(i)));
        }
    }

    /// Find the record an output should package from: the record with the
    /// highest associated stage (§2.1.2); for zero-stage strands, the most
    /// recent record with an input.
    pub fn record_for_output(&self) -> Option<&Record> {
        if self.stage_count == 0 {
            return self
                .records
                .iter()
                .filter(|r| r.input.is_some())
                .max_by_key(|r| r.age);
        }
        self.records
            .iter()
            .filter(|r| r.window.is_some() && r.input.is_some())
            .max_by_key(|r| (r.window.map(|(_, l)| l), r.age))
            // An output may be observed just after the final stage
            // completed (aggregate strands signal completions in a
            // batch); fall back to the freshest inputful record.
            .or_else(|| {
                self.records
                    .iter()
                    .filter(|r| r.input.is_some())
                    .max_by_key(|r| r.age)
            })
    }

    fn bump_age(&mut self) -> u64 {
        self.next_age += 1;
        self.next_age
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u64) -> TupleId {
        TupleId(n)
    }

    fn t(n: u64) -> Time {
        Time(n)
    }

    #[test]
    fn simple_execution_single_record() {
        // One event through a 2-stage strand (the §2.1.1 worked example
        // generalized to rule r2's shape).
        let mut rs = RecordSet::new(2, 4);
        rs.observe_input(id(1), t(10));
        assert_eq!(rs.active_count(), 1);
        rs.observe_precondition(0, id(2), t(11));
        rs.observe_precondition(1, id(3), t(12));
        let r = rs.record_for_output().unwrap();
        assert_eq!(r.input, Some((id(1), t(10))));
        assert_eq!(r.preconditions[0], Some((id(2), t(11))));
        assert_eq!(r.preconditions[1], Some((id(3), t(12))));
        // Window extended to cover stage 1 by the precondition.
        assert_eq!(r.window(), Some((0, 1)));
    }

    #[test]
    fn flush_right_on_mid_strand_precondition() {
        // §2.1.1: a new stage-0 precondition invalidates the stage-1 slot.
        let mut rs = RecordSet::new(2, 4);
        rs.observe_input(id(1), t(0));
        rs.observe_precondition(0, id(2), t(1));
        rs.observe_precondition(1, id(3), t(2));
        rs.observe_precondition(0, id(4), t(3));
        let r = rs.record_for_output().unwrap();
        assert_eq!(r.preconditions[0], Some((id(4), t(3))));
        assert_eq!(r.preconditions[1], None, "right of stage 0 flushed");
    }

    #[test]
    fn figure3_pipelined_two_records() {
        // Reproduce Figure 3: event 1 occupies the last join while
        // event 2 has started on the first join.
        let mut rs = RecordSet::new(2, 4);
        rs.observe_input(id(1), t(0)); // e1 -> record A (0,0)
        rs.observe_precondition(0, id(2), t(1)); // A[0]
        rs.observe_stage_complete(0); // A advances to (1,1)
        rs.observe_input(id(10), t(2)); // e2 -> record B (0,0)
        assert_eq!(rs.active_count(), 2);
        // Preconditions route by window: stage 1 -> A, stage 0 -> B.
        rs.observe_precondition(1, id(3), t(3));
        rs.observe_precondition(0, id(11), t(4));
        let a = rs.record_for_output().unwrap(); // highest window = A
        assert_eq!(a.input, Some((id(1), t(0))));
        assert_eq!(a.preconditions[1], Some((id(3), t(3))));
        rs.observe_stage_complete(1); // A retires
        assert_eq!(rs.active_count(), 1);
        // Now B is the only record; its execution proceeds.
        rs.observe_stage_complete(0); // B -> (1,1)
        rs.observe_precondition(1, id(12), t(5));
        let b = rs.record_for_output().unwrap();
        assert_eq!(b.input, Some((id(10), t(2))));
        assert_eq!(b.preconditions[0], Some((id(11), t(4))));
        assert_eq!(b.preconditions[1], Some((id(12), t(5))));
        rs.observe_stage_complete(1);
        assert_eq!(rs.active_count(), 0);
        // Records are reused, not leaked.
        assert_eq!(rs.len(), 2);
        rs.observe_input(id(20), t(6));
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn record_cap_recycles_oldest() {
        let mut rs = RecordSet::new(1, 2);
        rs.observe_input(id(1), t(0));
        rs.observe_input(id(2), t(1));
        rs.observe_input(id(3), t(2)); // cap hit: recycles record of id(1)
        assert_eq!(rs.len(), 2);
        let inputs: Vec<_> = rs.records.iter().filter_map(|r| r.input).collect();
        assert!(inputs.contains(&(id(2), t(1))));
        assert!(inputs.contains(&(id(3), t(2))));
        assert!(!inputs.contains(&(id(1), t(0))));
    }

    #[test]
    fn zero_stage_strand() {
        let mut rs = RecordSet::new(0, 2);
        rs.observe_input(id(1), t(0));
        let r = rs.record_for_output().unwrap();
        assert_eq!(r.input, Some((id(1), t(0))));
        assert!(r.preconditions.is_empty());
        // A second input reuses the (idle) record.
        rs.observe_input(id(2), t(1));
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.record_for_output().unwrap().input, Some((id(2), t(1))));
    }

    #[test]
    fn orphan_precondition_dropped() {
        // Tracing enabled mid-execution: a precondition with no input.
        let mut rs = RecordSet::new(2, 2);
        rs.observe_precondition(1, id(9), t(0));
        assert!(rs.record_for_output().is_none());
        assert_eq!(rs.active_count(), 0);
    }

    #[test]
    fn out_of_range_stage_ignored() {
        let mut rs = RecordSet::new(1, 2);
        rs.observe_input(id(1), t(0));
        rs.observe_precondition(5, id(2), t(1)); // nonsense stage
        let r = rs.record_for_output().unwrap();
        assert_eq!(r.preconditions[0], None);
    }

    #[test]
    fn stage_complete_without_records_is_noop() {
        let mut rs = RecordSet::new(2, 2);
        rs.observe_stage_complete(0);
        rs.observe_stage_complete(1);
        assert_eq!(rs.active_count(), 0);
    }
}
