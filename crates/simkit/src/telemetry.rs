//! Grid-wide instrumentation: the metrics registry.
//!
//! The paper's §8 lessons ask for "API for accessing troubleshooting and
//! accounting information … without the necessity of parsing log files".
//! A typed metrics registry is the simulation-side answer for counts:
//! every middleware subsystem increments counters against one shared
//! [`Telemetry`] handle, and the registry can be cross-checked against
//! the independently-collected monitoring paths (ACDC records, the
//! NetLogger archive) — the §5.2 redundancy property, applied to the
//! simulator's own internals. Per-job timelines are not kept here: the
//! monitoring crate's `TraceStore` records every job's lifecycle and
//! exports it as a Chrome trace.
//!
//! Design constraints:
//!
//! * **Zero-cost when disabled.** [`Telemetry::disabled`] holds no
//!   allocation; every recording call is a single `Option` check.
//! * **Interned hot path.** Metric names are interned once at
//!   registration into dense slot arrays; a [`Counter`] or [`Histo`]
//!   handle records with one `RefCell` borrow and one array index — no
//!   hashing, no tree walk, no `String` allocation. Recording goes
//!   through handles only; a cold call site registers its handle on
//!   first use.
//! * **Deterministic.** The intern index is kept sorted by
//!   `(subsystem, name, label)`, so every export is ordered
//!   independently of registration order and hash seeds.
//! * **Simulation-pure.** The registry counts simulated work only;
//!   wall-clock events/sec is computed by the bench harness, not here.
//! * **Bounded.** The registry holds one slot per registered
//!   `(subsystem, name, label)` key and nothing per event.
//!
//! The handle is a shared `Rc<RefCell<…>>`, so recording works through
//! `&self` — subsystems can instrument read-only query paths. Handles
//! are process-local plumbing, not state: they do not implement serde,
//! so a struct that derives it marks each handle field
//! `#[serde(skip)]` (left out of JSON and snapshots alike, read back
//! disabled) and re-attaches telemetry after a restore.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

/// A registry key: `(subsystem, name)` plus a free-form label
/// (site, VO, …). Empty label means "grid-wide".
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct MetricKey {
    /// Producing subsystem (`"gram"`, `"gridftp"`, …).
    pub subsystem: &'static str,
    /// Metric name within the subsystem.
    pub name: &'static str,
    /// Site/VO label, `""` for unlabelled.
    pub label: String,
}

/// A fixed-bucket histogram: `counts[i]` holds observations
/// `<= bounds[i]`, with one implicit overflow bucket at the end.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Upper bucket bounds, ascending.
    pub bounds: Vec<f64>,
    /// Per-bucket counts; `len() == bounds.len() + 1` (overflow last).
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
}

#[derive(Debug, Clone)]
struct Histogram {
    bounds: &'static [f64],
    counts: Vec<u64>,
    count: u64,
    sum: f64,
}

impl Histogram {
    fn new(bounds: &'static [f64]) -> Self {
        Histogram {
            bounds,
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
        }
    }

    fn observe(&mut self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|b| value <= *b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += value;
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.to_vec(),
            counts: self.counts.clone(),
            count: self.count,
            sum: self.sum,
        }
    }
}

/// One counter reading in a registry snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterReading {
    /// Producing subsystem.
    pub subsystem: &'static str,
    /// Metric name.
    pub name: &'static str,
    /// Site/VO label (`""` for unlabelled).
    pub label: String,
    /// Current value.
    pub value: u64,
}

#[derive(Debug, Default)]
struct Inner {
    /// Sorted `(key → slot)` intern index for counters. Binary-searched
    /// by registration and the readers; handles skip it entirely.
    counter_index: Vec<(MetricKey, u32)>,
    /// Dense counter storage; slots are append-only and stable, so
    /// [`Counter`] handles stay valid across later registrations.
    counter_values: Vec<u64>,
    /// Sorted `(key → slot)` intern index for histograms.
    hist_index: Vec<(MetricKey, u32)>,
    hist_slots: Vec<Histogram>,
}

impl Inner {
    /// Find or intern the counter `(subsystem, name, label)`, returning
    /// its stable slot. Allocation-free when the counter already exists.
    fn counter_slot(
        &mut self,
        subsystem: &'static str,
        name: &'static str,
        label: impl Into<String> + AsRef<str>,
    ) -> u32 {
        let probe = (subsystem, name, label.as_ref());
        match self
            .counter_index
            .binary_search_by(|(k, _)| (k.subsystem, k.name, k.label.as_str()).cmp(&probe))
        {
            Ok(pos) => self.counter_index[pos].1,
            Err(pos) => {
                let slot = self.counter_values.len() as u32;
                self.counter_values.push(0);
                let key = MetricKey {
                    subsystem,
                    name,
                    label: label.into(),
                };
                self.counter_index.insert(pos, (key, slot));
                slot
            }
        }
    }

    /// Find or intern the histogram `(subsystem, name, label)`.
    fn hist_slot(
        &mut self,
        subsystem: &'static str,
        name: &'static str,
        label: impl Into<String> + AsRef<str>,
        bounds: &'static [f64],
    ) -> u32 {
        let probe = (subsystem, name, label.as_ref());
        match self
            .hist_index
            .binary_search_by(|(k, _)| (k.subsystem, k.name, k.label.as_str()).cmp(&probe))
        {
            Ok(pos) => self.hist_index[pos].1,
            Err(pos) => {
                let slot = self.hist_slots.len() as u32;
                self.hist_slots.push(Histogram::new(bounds));
                let key = MetricKey {
                    subsystem,
                    name,
                    label: label.into(),
                };
                self.hist_index.insert(pos, (key, slot));
                slot
            }
        }
    }
}

/// A pre-registered counter: one `RefCell` borrow plus one array index
/// per [`Counter::add`], no name lookup. Obtained from
/// [`Telemetry::register_counter`]; a handle from a disabled `Telemetry`
/// is inert. Clones share the same slot.
#[derive(Clone, Default)]
pub struct Counter(Option<(Rc<RefCell<Inner>>, u32)>);

impl Counter {
    /// An inert handle (what a disabled `Telemetry` hands out).
    pub fn disabled() -> Self {
        Counter(None)
    }

    /// Whether this handle records anywhere.
    #[cfg(test)]
    pub(crate) fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Add `delta` to the counter.
    #[inline]
    pub fn add(&self, delta: u64) {
        if let Some((inner, slot)) = &self.0 {
            inner.borrow_mut().counter_values[*slot as usize] += delta;
        }
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            Some((_, slot)) => write!(f, "Counter(slot {slot})"),
            None => write!(f, "Counter(disabled)"),
        }
    }
}

/// A pre-registered fixed-bucket histogram: one `RefCell` borrow plus
/// one array index per [`Histo::observe`]. Obtained from
/// [`Telemetry::register_histogram`]; inert when the `Telemetry` was
/// disabled.
#[derive(Clone, Default)]
pub struct Histo(Option<(Rc<RefCell<Inner>>, u32)>);

impl Histo {
    /// An inert handle (what a disabled `Telemetry` hands out).
    pub fn disabled() -> Self {
        Histo(None)
    }

    /// Whether this handle records anywhere.
    #[cfg(test)]
    pub(crate) fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Observe `value` into the histogram.
    #[inline]
    pub fn observe(&self, value: f64) {
        if let Some((inner, slot)) = &self.0 {
            inner.borrow_mut().hist_slots[*slot as usize].observe(value);
        }
    }
}

impl std::fmt::Debug for Histo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            Some((_, slot)) => write!(f, "Histo(slot {slot})"),
            None => write!(f, "Histo(disabled)"),
        }
    }
}

/// The shared instrumentation handle. Cloning is cheap and every clone
/// records into the same registry; the disabled handle records nothing.
#[derive(Clone, Default)]
pub struct Telemetry(Option<Rc<RefCell<Inner>>>);

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            Some(inner) => write!(
                f,
                "Telemetry(enabled, {} counters)",
                inner.borrow().counter_index.len()
            ),
            None => write!(f, "Telemetry(disabled)"),
        }
    }
}

impl Telemetry {
    /// A no-op handle: every recording call is a single branch.
    pub fn disabled() -> Self {
        Telemetry(None)
    }

    /// An active handle with an empty registry.
    pub fn enabled() -> Self {
        Telemetry(Some(Rc::new(RefCell::new(Inner::default()))))
    }

    // ----- registration ----------------------------------------------

    /// Intern the counter `(subsystem, name, label)` and return a dense
    /// [`Counter`] handle for it. Register once at wiring time, then
    /// [`Counter::add`] from the hot path — it costs an array index, not
    /// a name lookup. The handle from a disabled `Telemetry` is inert.
    pub fn register_counter(
        &self,
        subsystem: &'static str,
        name: &'static str,
        label: impl Into<String> + AsRef<str>,
    ) -> Counter {
        match &self.0 {
            Some(inner) => {
                let slot = inner.borrow_mut().counter_slot(subsystem, name, label);
                Counter(Some((Rc::clone(inner), slot)))
            }
            None => Counter(None),
        }
    }

    /// Intern the histogram `(subsystem, name, label)` with fixed
    /// `bounds` and return a dense [`Histo`] handle for it.
    pub fn register_histogram(
        &self,
        subsystem: &'static str,
        name: &'static str,
        label: impl Into<String> + AsRef<str>,
        bounds: &'static [f64],
    ) -> Histo {
        match &self.0 {
            Some(inner) => {
                let slot = inner.borrow_mut().hist_slot(subsystem, name, label, bounds);
                Histo(Some((Rc::clone(inner), slot)))
            }
            None => Histo(None),
        }
    }

    // ----- readers ---------------------------------------------------

    /// Current value of one labelled counter (0 if never written).
    pub fn counter(&self, subsystem: &'static str, name: &'static str, label: &str) -> u64 {
        self.0
            .as_ref()
            .and_then(|inner| {
                let inner = inner.borrow();
                let probe = (subsystem, name, label);
                inner
                    .counter_index
                    .binary_search_by(|(k, _)| (k.subsystem, k.name, k.label.as_str()).cmp(&probe))
                    .ok()
                    .map(|pos| inner.counter_values[inner.counter_index[pos].1 as usize])
            })
            .unwrap_or(0)
    }

    /// Sum of a counter over every label.
    pub fn counter_total(&self, subsystem: &'static str, name: &'static str) -> u64 {
        self.0
            .as_ref()
            .map(|inner| {
                let inner = inner.borrow();
                inner
                    .counter_index
                    .iter()
                    .filter(|(k, _)| k.subsystem == subsystem && k.name == name)
                    .map(|(_, slot)| inner.counter_values[*slot as usize])
                    .sum()
            })
            .unwrap_or(0)
    }

    /// Snapshot of one histogram.
    #[cfg(test)]
    pub(crate) fn histogram(
        &self,
        subsystem: &'static str,
        name: &'static str,
        label: &str,
    ) -> Option<HistogramSnapshot> {
        self.0.as_ref().and_then(|inner| {
            let inner = inner.borrow();
            let probe = (subsystem, name, label);
            inner
                .hist_index
                .binary_search_by(|(k, _)| (k.subsystem, k.name, k.label.as_str()).cmp(&probe))
                .ok()
                .map(|pos| inner.hist_slots[inner.hist_index[pos].1 as usize].snapshot())
        })
    }

    /// All counters, in deterministic `(subsystem, name, label)` order.
    pub fn counters(&self) -> Vec<CounterReading> {
        self.0
            .as_ref()
            .map(|inner| {
                let inner = inner.borrow();
                inner
                    .counter_index
                    .iter()
                    .map(|(k, slot)| CounterReading {
                        subsystem: k.subsystem,
                        name: k.name,
                        label: k.label.clone(),
                        value: inner.counter_values[*slot as usize],
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    // ----- exports ---------------------------------------------------

    /// The whole registry (counters, histograms) as a JSON
    /// object string, deterministically ordered.
    pub fn registry_json(&self) -> String {
        let mut out = String::from("{\"counters\":[");
        for (i, c) in self.counters().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"subsystem\":\"{}\",\"name\":\"{}\",\"label\":\"{}\",\"value\":{}}}",
                c.subsystem, c.name, c.label, c.value
            );
        }
        out.push_str("],\"histograms\":[");
        if let Some(inner) = &self.0 {
            let inner = inner.borrow();
            for (i, (k, slot)) in inner.hist_index.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let snap = inner.hist_slots[*slot as usize].snapshot();
                let _ = write!(
                    out,
                    "{{\"subsystem\":\"{}\",\"name\":\"{}\",\"label\":\"{}\",\
                     \"count\":{},\"sum\":{},\"bounds\":{:?},\"bucket_counts\":{:?}}}",
                    k.subsystem, k.name, k.label, snap.count, snap.sum, snap.bounds, snap.counts
                );
            }
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_iterate_in_key_order() {
        let t = Telemetry::enabled();
        t.register_counter("rls", "lookups", "").add(2);
        t.register_counter("gram", "accepted", "site1").add(1);
        t.register_counter("gram", "accepted", "site0").add(3);
        let keys: Vec<(&str, &str, String)> = t
            .counters()
            .into_iter()
            .map(|c| (c.subsystem, c.name, c.label))
            .collect();
        assert_eq!(
            keys,
            vec![
                ("gram", "accepted", "site0".to_string()),
                ("gram", "accepted", "site1".to_string()),
                ("rls", "lookups", String::new()),
            ]
        );
        assert_eq!(t.counter_total("gram", "accepted"), 4);
        assert_eq!(t.counter("gram", "accepted", "site0"), 3);
    }

    #[test]
    fn registered_counter_handle_shares_the_slot() {
        let t = Telemetry::enabled();
        let h = t.register_counter("gram", "accepted", "site0");
        assert!(h.is_enabled());
        h.add(2);
        h.clone().add(4);
        assert_eq!(t.counter("gram", "accepted", "site0"), 6);
        // Re-registering the same key returns the same slot.
        let again = t.register_counter("gram", "accepted", "site0");
        again.add(1);
        assert_eq!(t.counter("gram", "accepted", "site0"), 7);
        assert_eq!(t.counters().len(), 1);
    }

    #[test]
    fn disabled_registration_hands_out_inert_handles() {
        let t = Telemetry::disabled();
        let c = t.register_counter("gram", "accepted", "site0");
        let h = t.register_histogram("gram", "load", "", &[1.0]);
        assert!(!c.is_enabled());
        assert!(!h.is_enabled());
        c.add(5);
        h.observe(0.5);
        assert_eq!(t.counter_total("gram", "accepted"), 0);
        assert!(t.counters().is_empty());
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        static BOUNDS: [f64; 3] = [1.0, 10.0, 100.0];
        let t = Telemetry::enabled();
        let h = t.register_histogram("gram", "load", "", &BOUNDS);
        for v in [0.5, 5.0, 50.0, 500.0, 0.9] {
            h.observe(v);
        }
        let h = t.histogram("gram", "load", "").unwrap();
        assert_eq!(h.counts, vec![2, 1, 1, 1]);
        assert_eq!(h.count, 5);
        assert!((h.sum - 556.4).abs() < 1e-9);
    }

    #[test]
    fn registered_histogram_handle_shares_the_slot() {
        static BOUNDS: [f64; 2] = [1.0, 10.0];
        let t = Telemetry::enabled();
        let h = t.register_histogram("gram", "load", "site3", &BOUNDS);
        h.observe(0.5);
        // Re-registering the same key returns the same slot.
        t.register_histogram("gram", "load", "site3", &BOUNDS)
            .observe(5.0);
        let snap = t.histogram("gram", "load", "site3").unwrap();
        assert_eq!(snap.counts, vec![1, 1, 0]);
        assert_eq!(snap.count, 2);
    }

    #[test]
    fn registry_export_is_wellformed() {
        static BOUNDS: [f64; 1] = [1.0];
        let t = Telemetry::enabled();
        t.register_counter("gram", "accepted", "site0").add(2);
        t.register_histogram("gram", "load", "", &BOUNDS)
            .observe(0.5);
        let reg = t.registry_json();
        assert!(reg.starts_with("{\"counters\":[{\"subsystem\":\"gram\""));
        assert!(reg.contains("\"value\":2"));
        assert!(reg.contains("\"bucket_counts\":[1, 0]"));
        assert!(reg.ends_with("]}"));
    }
}
