//! The discrete-event core: a time-ordered event queue with a total,
//! reproducible order.
//!
//! The queue is generic over the event payload `E`; the top-level crate
//! (`grid3-core`) defines the concrete event enum and drives the loop.
//! Ties in time are broken by insertion sequence number, so two events
//! scheduled for the same instant always fire in the order they were
//! scheduled — the property that makes whole-grid runs bit-reproducible.
//!
//! Two interchangeable backends implement that order:
//!
//! * `LadderQueue` — a FIFO-stable two-tier ladder/calendar queue with
//!   amortized O(1) schedule/pop, the default;
//! * a plain `BinaryHeap` (O(log n) per operation), kept as the reference
//!   implementation behind [`EventQueue::with_heap`] for differential
//!   tests and benchmarks.
//!
//! Both produce the exact same `(time, seq)` pop sequence — the
//! `queue_equivalence` differential suite and the golden-hash
//! determinism tests hold them to it.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event plus its firing time and tie-breaking sequence number.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct ScheduledEvent<E> {
    /// When the event fires.
    pub time: SimTime,
    /// Monotonic insertion index; earlier-scheduled fires first on ties.
    pub seq: u64,
    /// The payload.
    pub event: E,
}

impl<E> ScheduledEvent<E> {
    /// The `(time, seq)` total-order key.
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for ScheduledEvent<E> {}

impl<E> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want earliest first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

// ---------------------------------------------------------------------
// The ladder queue
// ---------------------------------------------------------------------

/// Largest bucket that is sorted straight into the bottom tier instead of
/// being spread over a finer rung.
const SORT_THRESHOLD: usize = 48;
/// Refinement depth bound: beyond this many rungs a bucket is sorted
/// directly, whatever its size (pathological same-instant pile-ups).
const MAX_RUNGS: usize = 8;
/// Bucket-count bound when spreading a batch of `n` events (one bucket
/// per event up to this cap).
const MAX_BUCKETS: usize = 4096;

/// One rung of the ladder: a span of time cut into equal-width buckets.
///
/// Deeper rungs refine one consumed bucket of the rung above, so the live
/// spans of the rung stack are disjoint and increase from the deepest
/// rung upward.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Rung<E> {
    /// Start (micros) of bucket 0.
    base: u64,
    /// Bucket width in micros (>= 1).
    width: u64,
    /// First bucket not yet consumed.
    cur: usize,
    buckets: Vec<Vec<ScheduledEvent<E>>>,
    /// Events currently stored in this rung.
    count: usize,
}

impl<E> Rung<E> {
    /// Spread `events` (all with `base <= time < span_end`) into a fresh
    /// rung covering exactly `[base, span_end)` — full coverage keeps the
    /// rung stack's spans contiguous, so later arrivals anywhere in the
    /// span route back to a live bucket, never into a gap.
    fn spread(base: u64, width: u64, span_end: u64, events: Vec<ScheduledEvent<E>>) -> Self {
        debug_assert!(width >= 1 && span_end > base);
        let nbuckets = ((span_end - base).div_ceil(width)) as usize;
        let mut rung = Rung {
            base,
            width,
            cur: 0,
            buckets: (0..nbuckets).map(|_| Vec::new()).collect(),
            count: 0,
        };
        for ev in events {
            rung.insert(ev);
        }
        rung
    }

    /// Start time of the first unconsumed bucket.
    fn cur_start(&self) -> u64 {
        self.base + self.cur as u64 * self.width
    }

    /// Drop an event into its bucket (append order preserves FIFO for
    /// equal keys; the sort happens once, when the bucket reaches the
    /// bottom tier).
    fn insert(&mut self, ev: ScheduledEvent<E>) {
        let idx = ((ev.time.as_micros() - self.base) / self.width) as usize;
        // Full-span coverage means every routed arrival lands in range;
        // the clamp is belt-and-braces against rounding at the span end.
        let idx = idx.min(self.buckets.len() - 1);
        debug_assert!(idx >= self.cur, "insert into a consumed bucket");
        self.buckets[idx].push(ev);
        self.count += 1;
    }

    /// Take the next non-empty bucket, consuming it; returns the bucket
    /// and its `[start, end)` span (the end is the post-take
    /// `cur_start`, which is what keeps refinement spans contiguous).
    fn take_next_bucket(&mut self) -> (Vec<ScheduledEvent<E>>, u64, u64) {
        while self.buckets[self.cur].is_empty() {
            self.cur += 1;
        }
        let start = self.cur_start();
        let bucket = std::mem::take(&mut self.buckets[self.cur]);
        self.cur += 1;
        self.count -= bucket.len();
        (bucket, start, self.cur_start())
    }
}

/// A FIFO-stable ladder/calendar queue over `(SimTime, seq)` keys.
///
/// Three storage tiers, ordered by key:
///
/// * **bottom** — the near future, kept sorted (descending, so the next
///   event is an O(1) `Vec::pop` from the back);
/// * **rungs** — the mid future, a stack of bucket arrays; scheduling
///   into a rung is an O(1) append, and each bucket is sorted only once,
///   when it becomes the bottom;
/// * **top** — the far future, an unsorted append-only spill that is
///   spread over a fresh rung when everything nearer has drained.
///
/// Every event is therefore appended O(1) and takes part in exactly one
/// small sort on its way out — amortized O(1) per event versus the
/// `BinaryHeap`'s O(log n) — while the pop sequence stays *identical* to
/// the heap's, including FIFO tie-breaks (the differential proptests in
/// `tests/queue_equivalence.rs` drive both backends through randomized
/// schedules and compare every popped key).
///
/// Invariant: whenever the queue is non-empty, `bottom` is non-empty —
/// maintained by `LadderQueue::refill` after every mutation — so
/// [`LadderQueue::peek_key`] is a borrow of `bottom.last()`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct LadderQueue<E> {
    /// Sorted descending by `(time, seq)`; popped from the back.
    bottom: Vec<ScheduledEvent<E>>,
    /// Refinement stack; deeper rungs hold nearer spans.
    rungs: Vec<Rung<E>>,
    /// Far-future spill: every event with `time >= top_start`.
    top: Vec<ScheduledEvent<E>>,
    /// Micros threshold above which arrivals go to `top`.
    top_start: u64,
    /// Min/max event time currently in `top` (valid when non-empty).
    top_min: u64,
    top_max: u64,
    len: usize,
}

impl<E> Default for LadderQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> LadderQueue<E> {
    /// An empty ladder.
    pub fn new() -> Self {
        LadderQueue {
            bottom: Vec::new(),
            rungs: Vec::new(),
            top: Vec::new(),
            top_start: 0,
            top_min: u64::MAX,
            top_max: 0,
            len: 0,
        }
    }

    /// Number of events stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// The smallest `(time, seq)` key, without consuming it.
    pub(crate) fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.bottom.last().map(ScheduledEvent::key)
    }

    /// Insert an event. `seq` values must be unique and monotonically
    /// increasing across inserts (the [`EventQueue`] wrapper guarantees
    /// this); equal-time events pop in `seq` order.
    pub fn push(&mut self, ev: ScheduledEvent<E>) {
        let t = ev.time.as_micros();
        if t >= self.top_start {
            self.top_min = self.top_min.min(t);
            self.top_max = self.top_max.max(t);
            self.top.push(ev);
        } else if let Some(rung) = self.rung_for(t) {
            self.rungs[rung].insert(ev);
        } else {
            // Nearer than every rung: sorted insert into the bottom.
            let key = ev.key();
            let at = self.bottom.partition_point(|e| e.key() > key);
            self.bottom.insert(at, ev);
        }
        self.len += 1;
        if self.bottom.is_empty() {
            self.refill();
        }
    }

    /// Pop the smallest-keyed event.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let ev = self.bottom.pop()?;
        self.len -= 1;
        if self.bottom.is_empty() {
            self.refill();
        }
        Some(ev)
    }

    /// Borrowing iterator over every stored event, in internal storage
    /// order (bottom tier, then rung buckets, then the far-future
    /// spill) — *not* pop order. Consumes nothing; `len` and all
    /// refinement state are untouched.
    pub(crate) fn iter_events(&self) -> impl Iterator<Item = &ScheduledEvent<E>> {
        self.bottom
            .iter()
            .chain(self.rungs.iter().flat_map(|r| r.buckets.iter().flatten()))
            .chain(self.top.iter())
    }

    /// The rung whose live span contains `t`, if any.
    ///
    /// Rung spans are contiguous and ordered: each deeper rung refines
    /// the bucket its parent just consumed, so rung `i+1`'s span ends
    /// exactly at rung `i`'s `cur_start`, and the shallowest rung ends at
    /// `top_start`. Scanning shallow-to-deep, the first rung with
    /// `t >= cur_start` is therefore the unique home; falling through
    /// every rung means `t` is nearer than the deepest span (bottom).
    fn rung_for(&self, t: u64) -> Option<usize> {
        (0..self.rungs.len()).find(|&i| t >= self.rungs[i].cur_start())
    }

    /// Restore the invariant: move the nearest span of events into the
    /// (empty) bottom tier, sorting exactly one small batch.
    fn refill(&mut self) {
        debug_assert!(self.bottom.is_empty());
        loop {
            // Drain exhausted rungs.
            while self.rungs.last().is_some_and(|r| r.count == 0) {
                self.rungs.pop();
            }
            let bucket = if let Some(rung) = self.rungs.last_mut() {
                let (bucket, start, end) = rung.take_next_bucket();
                // A wide, crowded bucket gets refined over a fresh rung
                // (spanning the *whole* consumed bucket, to stay
                // contiguous with the parent) instead of one big sort; a
                // width-1 bucket is a single instant (only seq
                // distinguishes events), so refining cannot split it.
                if bucket.len() > SORT_THRESHOLD && end - start > 1 && self.rungs.len() < MAX_RUNGS
                {
                    let width = bucket_width(start, end, bucket.len());
                    self.rungs.push(Rung::spread(start, width, end, bucket));
                    continue;
                }
                bucket
            } else if !self.top.is_empty() {
                // Every nearer tier is dry: spread the far-future spill
                // over a fresh first rung covering up to the new
                // `top_start`.
                let batch = std::mem::take(&mut self.top);
                let (min, max) = (self.top_min, self.top_max);
                self.top_start = max + 1;
                self.top_min = u64::MAX;
                self.top_max = 0;
                if min == max {
                    batch // a single instant; sort below
                } else {
                    let width = bucket_width(min, max + 1, batch.len());
                    self.rungs.push(Rung::spread(min, width, max + 1, batch));
                    continue;
                }
            } else {
                return; // queue is empty
            };
            if bucket.is_empty() {
                continue;
            }
            self.bottom = bucket;
            // Descending, so the back of the vec is the next event.
            self.bottom
                .sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
            return;
        }
    }
}

/// Bucket width spreading `[start, end)` over roughly one bucket per
/// event (bounded by [`MAX_BUCKETS`]).
fn bucket_width(start: u64, end: u64, n: usize) -> u64 {
    let n = n.clamp(2, MAX_BUCKETS) as u64;
    ((end - start) / n).max(1)
}

// ---------------------------------------------------------------------
// The event queue
// ---------------------------------------------------------------------

/// Storage backend for [`EventQueue`] (see the module docs).
#[derive(Debug, Clone, Serialize, Deserialize)]
enum Backend<E> {
    Ladder(LadderQueue<E>),
    Heap(BinaryHeap<ScheduledEvent<E>>),
}

/// The event queue and simulation clock.
///
/// Invariants (checked by the property tests below):
/// * events pop in non-decreasing time order;
/// * equal-time events pop in scheduling order;
/// * the clock never moves backwards.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EventQueue<E> {
    backend: Backend<E>,
    now: SimTime,
    next_seq: u64,
    processed: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at the epoch, on the default
    /// ladder backend.
    pub fn new() -> Self {
        EventQueue {
            backend: Backend::Ladder(LadderQueue::new()),
            now: SimTime::EPOCH,
            next_seq: 0,
            processed: 0,
        }
    }

    /// An empty queue on the reference `BinaryHeap` backend — same pop
    /// sequence, O(log n) operations; kept for differential tests and
    /// the hot-path benchmarks.
    pub fn with_heap() -> Self {
        EventQueue {
            backend: Backend::Heap(BinaryHeap::new()),
            now: SimTime::EPOCH,
            next_seq: 0,
            processed: 0,
        }
    }

    /// The active backend's name (`"ladder"` or `"heap"`).
    pub fn backend_name(&self) -> &'static str {
        match &self.backend {
            Backend::Ladder(_) => "ladder",
            Backend::Heap(_) => "heap",
        }
    }

    /// Current simulated time (the time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting.
    ///
    /// ```
    /// use grid3_simkit::engine::EventQueue;
    /// use grid3_simkit::time::SimTime;
    ///
    /// let mut q = EventQueue::new();
    /// q.schedule_at(SimTime::from_secs(10), "tick");
    /// q.schedule_at(SimTime::from_secs(20), "tock");
    /// assert_eq!(q.len(), 2);
    /// q.pop();
    /// assert_eq!(q.len(), 1);
    /// ```
    pub fn len(&self) -> usize {
        match &self.backend {
            Backend::Ladder(l) => l.len(),
            Backend::Heap(h) => h.len(),
        }
    }

    /// True if no events are waiting.
    ///
    /// ```
    /// use grid3_simkit::engine::EventQueue;
    /// use grid3_simkit::time::SimTime;
    ///
    /// let mut q = EventQueue::new();
    /// assert!(q.is_empty());
    /// q.schedule_at(SimTime::from_secs(1), "tick");
    /// assert!(!q.is_empty());
    /// q.pop();
    /// assert!(q.is_empty());
    /// ```
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events popped so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// Scheduling into the past is a logic error: it would corrupt
    /// causality (the event would fire with the clock already beyond
    /// it). Debug builds panic on it; release builds clamp `at` to the
    /// current clock, so the event fires "now" — after everything
    /// already scheduled for the current instant — and time still never
    /// runs backwards.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now,
            "cannot schedule into the past: now={}, at={}",
            self.now,
            at
        );
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        let ev = ScheduledEvent {
            time: at,
            seq,
            event,
        };
        match &mut self.backend {
            Backend::Ladder(l) => l.push(ev),
            Backend::Heap(h) => h.push(ev),
        }
    }

    /// Pop the next event, advancing the clock to its firing time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let se = match &mut self.backend {
            Backend::Ladder(l) => l.pop()?,
            Backend::Heap(h) => h.pop()?,
        };
        debug_assert!(se.time >= self.now, "queue produced out-of-order event");
        self.now = se.time;
        self.processed += 1;
        Some((se.time, se.event))
    }

    /// Account for an event delivered from outside the queue (a caller's
    /// own time-ordered stream, merged ahead of the queue head) exactly
    /// as a pop would: the clock moves to `at` and
    /// [`processed`](Self::processed) counts the event. No sequence
    /// number is consumed and nothing is stored.
    ///
    /// ```
    /// use grid3_simkit::engine::EventQueue;
    /// use grid3_simkit::time::SimTime;
    ///
    /// let mut q: EventQueue<&str> = EventQueue::new();
    /// q.schedule_at(SimTime::from_secs(30), "queued");
    /// q.deliver_external(SimTime::from_secs(10));
    /// assert_eq!((q.now(), q.processed(), q.len()), (SimTime::from_secs(10), 1, 1));
    /// ```
    pub fn deliver_external(&mut self, at: SimTime) {
        debug_assert!(
            at >= self.now,
            "external event out of order: now={}, at={}",
            self.now,
            at
        );
        self.now = at;
        self.processed += 1;
    }

    /// Peek at the next firing time without advancing.
    ///
    /// ```
    /// use grid3_simkit::engine::EventQueue;
    /// use grid3_simkit::time::SimTime;
    ///
    /// let mut q = EventQueue::new();
    /// assert_eq!(q.peek_time(), None);
    /// q.schedule_at(SimTime::from_secs(30), "later");
    /// q.schedule_at(SimTime::from_secs(5), "sooner");
    /// assert_eq!(q.peek_time(), Some(SimTime::from_secs(5)));
    /// // Peeking does not advance the clock or consume the event.
    /// assert_eq!(q.now(), SimTime::EPOCH);
    /// assert_eq!(q.len(), 2);
    /// ```
    pub fn peek_time(&self) -> Option<SimTime> {
        match &self.backend {
            Backend::Ladder(l) => l.peek_key().map(|(t, _)| t),
            Backend::Heap(h) => h.peek().map(|se| se.time),
        }
    }

    /// Visit every pending event in pop (`(time, seq)`) order without
    /// consuming anything: `len`, the clock, and the ladder's internal
    /// refinement state are all preserved. Snapshot code uses this to
    /// enumerate in-flight events for inspection and checksumming.
    ///
    /// ```
    /// use grid3_simkit::engine::EventQueue;
    /// use grid3_simkit::time::SimTime;
    ///
    /// let mut q = EventQueue::new();
    /// q.schedule_at(SimTime::from_secs(20), "tock");
    /// q.schedule_at(SimTime::from_secs(10), "tick");
    /// let seen: Vec<&&str> = q.iter_pending().map(|(_, _, e)| e).collect();
    /// assert_eq!(seen, vec![&"tick", &"tock"]);
    /// assert_eq!(q.len(), 2); // nothing consumed
    /// ```
    pub fn iter_pending(&self) -> impl Iterator<Item = (SimTime, u64, &E)> {
        let mut items: Vec<&ScheduledEvent<E>> = match &self.backend {
            Backend::Ladder(l) => l.iter_events().collect(),
            Backend::Heap(h) => h.iter().collect(),
        };
        items.sort_unstable_by_key(|e| e.key());
        items.into_iter().map(|e| (e.time, e.seq, &e.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(30), "c");
        q.schedule_at(SimTime::from_secs(10), "a");
        q.schedule_at(SimTime::from_secs(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_schedule_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        for i in 0..10 {
            q.schedule_at(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(10), ());
        q.schedule_at(q.now() + SimDuration::from_secs(3), ());
        assert_eq!(q.now(), SimTime::EPOCH);
        let (t1, _) = q.pop().unwrap();
        assert_eq!(t1, SimTime::from_secs(3));
        assert_eq!(q.now(), SimTime::from_secs(3));
        let (t2, _) = q.pop().unwrap();
        assert_eq!(t2, SimTime::from_secs(10));
        assert!(q.pop().is_none());
        assert_eq!(q.processed(), 2);
    }

    // Scheduling into the past is rejected loudly in debug builds and
    // clamped to the clock in release builds (see `schedule_at`); each
    // contract gets its own regression test for the build that has it.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(10), ());
        q.pop();
        q.schedule_at(SimTime::from_secs(5), ());
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn scheduling_into_the_past_clamps_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(10), "a");
        q.pop();
        // The clock is at 10s; a 5s event is clamped to fire "now",
        // after anything already queued for the current instant.
        q.schedule_at(SimTime::from_secs(10), "b");
        q.schedule_at(SimTime::from_secs(5), "late");
        let (t1, e1) = q.pop().unwrap();
        assert_eq!((t1, e1), (SimTime::from_secs(10), "b"));
        let (t2, e2) = q.pop().unwrap();
        assert_eq!((t2, e2), (SimTime::from_secs(10), "late"));
        assert_eq!(q.now(), SimTime::from_secs(10));
    }

    #[test]
    fn heap_backend_matches_default_on_a_fixed_schedule() {
        let mut ladder = EventQueue::new();
        let mut heap = EventQueue::with_heap();
        assert_eq!(ladder.backend_name(), "ladder");
        assert_eq!(heap.backend_name(), "heap");
        let times = [30u64, 5, 5, 120, 0, 40, 5, 39, 40, 7, 1000, 5];
        for (i, t) in times.iter().enumerate() {
            ladder.schedule_at(SimTime::from_secs(*t), i);
            heap.schedule_at(SimTime::from_secs(*t), i);
        }
        loop {
            let a = ladder.pop();
            let b = heap.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn ladder_handles_schedule_during_drain() {
        // Events scheduled while the bottom tier is mid-drain must merge
        // into the sorted run, not wait for the next bucket.
        let mut q = EventQueue::new();
        for i in 0..200u64 {
            q.schedule_at(SimTime::from_secs(i * 10), i);
        }
        let mut popped = Vec::new();
        let mut extra = 1000u64;
        while let Some((t, i)) = q.pop() {
            popped.push((t, i));
            if i < 100 && i % 3 == 0 {
                // Just after "now": lands at or below the bottom tier.
                q.schedule_at(t + SimDuration::from_secs(1), extra);
                extra += 1;
            }
        }
        let mut sorted = popped.clone();
        sorted.sort_by_key(|(t, _)| *t);
        assert_eq!(popped, sorted, "pop order must be time-sorted");
        assert_eq!(popped.len(), 200 + 34);
    }

    #[test]
    fn ladder_same_instant_burst_stays_fifo() {
        // A burst far larger than SORT_THRESHOLD at one instant exercises
        // the width-1 / single-instant refinement guards.
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1000);
        for i in 0..(SORT_THRESHOLD * 10) {
            q.schedule_at(t, i);
        }
        // Force the burst through the far-future spill by draining an
        // earlier event first.
        q.schedule_at(SimTime::from_secs(1), usize::MAX);
        let (_, first) = q.pop().unwrap();
        assert_eq!(first, usize::MAX);
        let order: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..SORT_THRESHOLD * 10).collect::<Vec<_>>());
    }

    #[test]
    fn iter_pending_is_len_preserving_and_sorted() {
        let mut q = EventQueue::new();
        let times = [30u64, 5, 5, 120, 0, 40, 5, 39, 40, 7, 1000, 5];
        for (i, t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_secs(*t), i);
        }
        let before = q.len();
        let listed: Vec<(SimTime, u64)> = q.iter_pending().map(|(t, s, _)| (t, s)).collect();
        assert_eq!(listed.len(), before);
        assert_eq!(q.len(), before, "iteration must not consume");
        let mut sorted = listed.clone();
        sorted.sort();
        assert_eq!(listed, sorted, "iter_pending must yield pop order");
        // And the iteration agrees with what pop actually produces.
        let popped: Vec<SimTime> = std::iter::from_fn(|| q.pop().map(|(t, _)| t)).collect();
        assert_eq!(popped, listed.iter().map(|(t, _)| *t).collect::<Vec<_>>());
    }

    #[test]
    fn queue_serde_round_trip_preserves_pop_sequence() {
        // Build a ladder with live rung refinement state (mid-drain), and
        // a heap twin; both must survive serialize -> deserialize with
        // identical pop sequences.
        for heap in [false, true] {
            let mut q = if heap {
                EventQueue::with_heap()
            } else {
                EventQueue::new()
            };
            for i in 0..400u64 {
                q.schedule_at(SimTime::from_secs((i * 37) % 900), i);
            }
            // Drain partway so rungs/bottom hold refined state.
            for _ in 0..123 {
                q.pop();
            }
            let mut restored: EventQueue<u64> =
                serde::binary::from_bytes(&serde::binary::to_bytes(&q)).unwrap();
            assert_eq!(restored.len(), q.len());
            assert_eq!(restored.now(), q.now());
            assert_eq!(restored.processed(), q.processed());
            loop {
                let a = q.pop();
                let b = restored.pop();
                assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Any mixture of schedules pops in non-decreasing time order,
            /// with FIFO order at equal times.
            #[test]
            fn total_order_holds(times in proptest::collection::vec(0u64..1_000, 1..200)) {
                let mut q = EventQueue::new();
                for (i, t) in times.iter().enumerate() {
                    q.schedule_at(SimTime::from_secs(*t), i);
                }
                let mut last_time = SimTime::EPOCH;
                let mut last_seq_at_time: Option<usize> = None;
                while let Some((t, idx)) = q.pop() {
                    prop_assert!(t >= last_time);
                    if t == last_time {
                        if let Some(prev) = last_seq_at_time {
                            prop_assert!(idx > prev, "FIFO violated at equal times");
                        }
                    } else {
                        last_time = t;
                    }
                    last_seq_at_time = Some(idx);
                }
            }

            /// Interleaving relative scheduling with pops never violates causality.
            #[test]
            fn interleaved_scheduling_is_causal(
                delays in proptest::collection::vec(0u64..100, 1..100)
            ) {
                let mut q = EventQueue::new();
                q.schedule_at(SimTime::EPOCH, 0usize);
                let mut i = 0;
                let mut last = SimTime::EPOCH;
                while let Some((t, _)) = q.pop() {
                    prop_assert!(t >= last);
                    last = t;
                    if i < delays.len() {
                        q.schedule_at(q.now() + SimDuration::from_secs(delays[i]), i + 1);
                        i += 1;
                    }
                }
                prop_assert_eq!(q.processed(), delays.len() as u64 + 1);
            }
        }
    }
}
