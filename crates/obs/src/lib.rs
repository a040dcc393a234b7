//! # uerl-obs
//!
//! The hand-rolled observability substrate of the workspace: a process-global
//! [`MetricsRegistry`] of atomic counters, gauges and fixed log2-bucket histograms,
//! RAII [`Span`] timers feeding those histograms, and the unified [`knob`] parser the
//! rest of the workspace routes its `UERL_*` environment knobs through.
//!
//! Everything here is vendored-deps-free (`std` only), matching the workspace's
//! offline-build convention.
//!
//! ## Runtime gating, and why recording is inert
//!
//! Instrumentation is **always compiled** and gated at runtime by `UERL_METRICS`
//! (`off`, the default, or `on`; any other value panics like every other workspace
//! knob). With metrics off, every record path is one relaxed atomic load and an early
//! return. Crucially, recording can never change what the instrumented code computes:
//! metric state is write-only from the hot paths (nothing reads it back into a
//! decision), so served decisions, costs and every parity fingerprint are bit-identical
//! with metrics on or off. The serving-parity suite and the `obs_overhead` perf_report
//! stage both pin this.
//!
//! ## Event-time vs. wall-clock metrics
//!
//! Every metric declares a [`MetricClass`]:
//!
//! * [`MetricClass::EventTime`] — derived from the event stream or a seeded
//!   computation (event counts, decision counts, accumulated node-hour costs,
//!   shadow-policy regret, TD errors). These are deterministic: bit-identical at any
//!   thread count, and — for the serving metrics — at any batch size.
//!   They are covered by [`MetricsSnapshot::fingerprint`].
//! * [`MetricClass::WallClock`] — timings and scheduler-dependent statistics (span
//!   durations of ticks and training phases). These legitimately
//!   vary run to run and are **excluded** from the fingerprint.
//!
//! ## Rendering
//!
//! [`MetricsRegistry::snapshot`] produces an immutable [`MetricsSnapshot`] whose
//! entries are sorted by `(name, labels)`, so both renders — [`MetricsSnapshot::to_json`]
//! and the Prometheus text exposition [`MetricsSnapshot::to_prometheus`] — are stable
//! byte for byte for the same recorded values.

pub mod knob;

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// The runtime gate
// ---------------------------------------------------------------------------

/// Gate state: 0 = uninitialised (read `UERL_METRICS` on first use), 1 = off, 2 = on.
static GATE: AtomicU8 = AtomicU8::new(0);

/// Whether metric recording is enabled (the `UERL_METRICS` knob, overridable at
/// runtime with [`set_enabled`]). One relaxed atomic load on the hot path.
#[inline]
pub fn enabled() -> bool {
    match GATE.load(Ordering::Relaxed) {
        0 => {
            let on = knob::env_choice(
                "UERL_METRICS",
                &[("", false), ("off", false), ("on", true)],
                false,
            );
            GATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
            on
        }
        state => state == 2,
    }
}

/// Override the metrics gate at runtime (tests and the `obs_overhead` benchmark stage
/// compare metrics-off and metrics-on legs within one process).
pub fn set_enabled(on: bool) {
    GATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------------

/// Determinism class of a metric. See the crate docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MetricClass {
    /// Deterministic, event-stream- or seed-derived. Fingerprinted.
    EventTime,
    /// Timing- or scheduler-dependent. Excluded from fingerprints.
    WallClock,
}

impl MetricClass {
    /// The snake_case label used in renders.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricClass::EventTime => "event_time",
            MetricClass::WallClock => "wall_clock",
        }
    }
}

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n` (no-op while metrics are disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A last-value-wins f64 gauge (stored as bits in an atomic, so reads snapshot a
/// complete write).
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Set the value (no-op while metrics are disabled).
    #[inline]
    pub fn set(&self, value: f64) {
        if enabled() {
            self.bits.store(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        self.bits.store(0, Ordering::Relaxed);
    }
}

/// Number of histogram buckets: one for zero, one per power of two up to `u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// The bucket a value falls into: bucket 0 holds exactly 0, bucket `i >= 1` holds
/// values in `[2^(i-1), 2^i)`.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// The inclusive upper bound of a bucket (`2^i - 1`; bucket 0 → 0, bucket 64 →
/// `u64::MAX`).
pub fn bucket_upper_bound(index: usize) -> u64 {
    match index {
        0 => 0,
        1..=63 => (1u64 << index) - 1,
        _ => u64::MAX,
    }
}

/// A fixed log2-bucket histogram over `u64` observations. Recording is three relaxed
/// atomic increments; bucket boundaries are powers of two, so a value's bucket is one
/// `leading_zeros` instruction.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// Record one observation (no-op while metrics are disabled).
    #[inline]
    pub fn record(&self, value: u64) {
        if !enabled() {
            return;
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Record the magnitude of an f64 observation in micro-units (`|value| * 1e6`,
    /// rounded): the integer-histogram form used for quantities like TD errors.
    #[inline]
    pub fn record_micros(&self, value: f64) {
        self.record((value.abs() * 1e6).round() as u64);
    }

    /// Start an RAII span feeding this histogram with the elapsed nanoseconds on drop.
    /// While metrics are disabled no clock is read and the drop is free.
    #[inline]
    pub fn span(&self) -> Span<'_> {
        Span {
            histogram: self,
            start: enabled().then(Instant::now),
        }
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Count in one bucket.
    pub fn bucket(&self, index: usize) -> u64 {
        self.buckets[index].load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        for bucket in &self.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
    }
}

/// An RAII timer: records the elapsed nanoseconds into its histogram when dropped.
/// Create one with [`Histogram::span`] or the [`span!`] macro.
#[must_use = "a span records on drop; binding it to `_` drops it immediately"]
pub struct Span<'a> {
    histogram: &'a Histogram,
    start: Option<Instant>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.histogram.record(start.elapsed().as_nanos() as u64);
        }
    }
}

/// Time the rest of the enclosing block into a histogram:
/// `uerl_obs::span!(metrics.tick_duration);`.
#[macro_export]
macro_rules! span {
    ($histogram:expr) => {
        let _uerl_obs_span = $histogram.span();
    };
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

#[derive(Debug, Clone)]
struct Entry {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    class: MetricClass,
    instrument: Instrument,
}

/// A registry of named metrics with static label sets (labels are fixed at
/// registration; there is no per-observation labelling, which is what keeps recording
/// allocation-free). Registering the same `(name, labels)` twice returns the existing
/// instrument, so independent subsystems can share a metric handle.
///
/// Most code uses the process-global [`registry`]; tests construct private instances.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    entries: Mutex<Vec<Entry>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or look up) a counter.
    ///
    /// # Panics
    /// Panics if `(name, labels)` is already registered as a different instrument type.
    pub fn counter(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        class: MetricClass,
    ) -> Arc<Counter> {
        match self.register(name, help, labels, class, || {
            Instrument::Counter(Arc::new(Counter::default()))
        }) {
            Instrument::Counter(c) => c,
            _ => panic!("metric {name:?} is already registered with a different type"),
        }
    }

    /// Register (or look up) a gauge.
    ///
    /// # Panics
    /// Panics if `(name, labels)` is already registered as a different instrument type.
    pub fn gauge(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        class: MetricClass,
    ) -> Arc<Gauge> {
        match self.register(name, help, labels, class, || {
            Instrument::Gauge(Arc::new(Gauge::default()))
        }) {
            Instrument::Gauge(g) => g,
            _ => panic!("metric {name:?} is already registered with a different type"),
        }
    }

    /// Register (or look up) a histogram.
    ///
    /// # Panics
    /// Panics if `(name, labels)` is already registered as a different instrument type.
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        class: MetricClass,
    ) -> Arc<Histogram> {
        match self.register(name, help, labels, class, || {
            Instrument::Histogram(Arc::new(Histogram::default()))
        }) {
            Instrument::Histogram(h) => h,
            _ => panic!("metric {name:?} is already registered with a different type"),
        }
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        class: MetricClass,
        build: impl FnOnce() -> Instrument,
    ) -> Instrument {
        let mut entries = self.entries.lock().expect("metrics registry poisoned");
        if let Some(entry) = entries.iter().find(|e| {
            e.name == name
                && e.labels.len() == labels.len()
                && e.labels
                    .iter()
                    .zip(labels)
                    .all(|((k, v), (lk, lv))| k == lk && v == lv)
        }) {
            return entry.instrument.clone();
        }
        let instrument = build();
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            class,
            instrument: instrument.clone(),
        });
        instrument
    }

    /// Zero every registered instrument (registrations are kept). The `obs_overhead`
    /// benchmark stage resets between its metrics-off / metrics-on legs.
    pub fn reset(&self) {
        let entries = self.entries.lock().expect("metrics registry poisoned");
        for entry in entries.iter() {
            match &entry.instrument {
                Instrument::Counter(c) => c.reset(),
                Instrument::Gauge(g) => g.reset(),
                Instrument::Histogram(h) => h.reset(),
            }
        }
    }

    /// An immutable snapshot of every registered metric, sorted by `(name, labels)`.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let entries = self.entries.lock().expect("metrics registry poisoned");
        let mut out: Vec<SnapshotEntry> = entries
            .iter()
            .map(|entry| SnapshotEntry {
                name: entry.name.clone(),
                help: entry.help.clone(),
                labels: entry.labels.clone(),
                class: entry.class,
                value: match &entry.instrument {
                    Instrument::Counter(c) => SnapshotValue::Counter(c.get()),
                    Instrument::Gauge(g) => SnapshotValue::Gauge(g.get()),
                    Instrument::Histogram(h) => {
                        let top = (0..HISTOGRAM_BUCKETS)
                            .rev()
                            .find(|&i| h.bucket(i) > 0)
                            .map_or(0, |i| i + 1);
                        let mut cumulative = 0;
                        let buckets = (0..top)
                            .map(|i| {
                                cumulative += h.bucket(i);
                                (bucket_upper_bound(i), cumulative)
                            })
                            .collect();
                        SnapshotValue::Histogram {
                            count: h.count(),
                            sum: h.sum(),
                            buckets,
                        }
                    }
                },
            })
            .collect();
        out.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        MetricsSnapshot { entries: out }
    }
}

/// The process-global registry every subsystem records into.
pub fn registry() -> &'static MetricsRegistry {
    static REGISTRY: OnceLock<MetricsRegistry> = OnceLock::new();
    REGISTRY.get_or_init(MetricsRegistry::new)
}

// ---------------------------------------------------------------------------
// Snapshot + renders
// ---------------------------------------------------------------------------

/// The value of one snapshotted metric.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotValue {
    /// A counter's value.
    Counter(u64),
    /// A gauge's value.
    Gauge(f64),
    /// A histogram: total count, total sum and `(inclusive upper bound, cumulative
    /// count)` per bucket up to the highest non-empty one.
    Histogram {
        /// Observations recorded.
        count: u64,
        /// Sum of recorded values.
        sum: u64,
        /// Cumulative bucket counts.
        buckets: Vec<(u64, u64)>,
    },
}

/// One snapshotted metric.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotEntry {
    /// Metric name.
    pub name: String,
    /// Help text.
    pub help: String,
    /// Static label set.
    pub labels: Vec<(String, String)>,
    /// Determinism class.
    pub class: MetricClass,
    /// The value.
    pub value: SnapshotValue,
}

/// An immutable, `(name, labels)`-sorted snapshot of a [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// The snapshotted metrics.
    pub entries: Vec<SnapshotEntry>,
}

impl MetricsSnapshot {
    fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&SnapshotEntry> {
        self.entries.iter().find(|e| {
            e.name == name
                && e.labels.len() == labels.len()
                && e.labels
                    .iter()
                    .zip(labels)
                    .all(|((k, v), (lk, lv))| k == lk && v == lv)
        })
    }

    /// The value of a counter, if present.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.find(name, labels)?.value {
            SnapshotValue::Counter(v) => Some(v),
            _ => None,
        }
    }

    /// The value of a gauge, if present.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        match self.find(name, labels)?.value {
            SnapshotValue::Gauge(v) => Some(v),
            _ => None,
        }
    }

    /// FNV-1a digest of every [`MetricClass::EventTime`] entry (name, labels, value
    /// bits). Wall-clock metrics are excluded by construction, so the fingerprint is
    /// bit-stable across thread counts and, for the serving metrics, across batch
    /// sizes.
    pub fn fingerprint(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for entry in &self.entries {
            if entry.class != MetricClass::EventTime {
                continue;
            }
            eat(entry.name.as_bytes());
            for (k, v) in &entry.labels {
                eat(k.as_bytes());
                eat(v.as_bytes());
            }
            match &entry.value {
                SnapshotValue::Counter(v) => eat(&v.to_le_bytes()),
                SnapshotValue::Gauge(v) => eat(&v.to_bits().to_le_bytes()),
                SnapshotValue::Histogram {
                    count,
                    sum,
                    buckets,
                } => {
                    eat(&count.to_le_bytes());
                    eat(&sum.to_le_bytes());
                    for (bound, cumulative) in buckets {
                        eat(&bound.to_le_bytes());
                        eat(&cumulative.to_le_bytes());
                    }
                }
            }
        }
        hash
    }

    /// Deterministic JSON render: `{"metrics": [...]}` with entries in snapshot
    /// (name, labels) order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"metrics\":[");
        for (i, entry) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            push_json_string(&mut out, &entry.name);
            out.push_str(",\"class\":");
            push_json_string(&mut out, entry.class.as_str());
            out.push_str(",\"labels\":{");
            for (j, (k, v)) in entry.labels.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                push_json_string(&mut out, k);
                out.push(':');
                push_json_string(&mut out, v);
            }
            out.push('}');
            match &entry.value {
                SnapshotValue::Counter(v) => {
                    out.push_str(&format!(",\"type\":\"counter\",\"value\":{v}"));
                }
                SnapshotValue::Gauge(v) => {
                    out.push_str(&format!(",\"type\":\"gauge\",\"value\":{}", json_f64(*v)));
                }
                SnapshotValue::Histogram {
                    count,
                    sum,
                    buckets,
                } => {
                    out.push_str(&format!(
                        ",\"type\":\"histogram\",\"count\":{count},\"sum\":{sum},\"buckets\":["
                    ));
                    for (j, (bound, cumulative)) in buckets.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        out.push_str(&format!("[{bound},{cumulative}]"));
                    }
                    out.push(']');
                }
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Prometheus text exposition format (version 0.0.4): `# HELP` / `# TYPE` headers
    /// per metric name, histograms as cumulative `_bucket{le=...}` series plus `_sum`
    /// and `_count`. Rendering is byte-stable for identical recorded values.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_name: Option<&str> = None;
        for entry in &self.entries {
            if last_name != Some(entry.name.as_str()) {
                let kind = match entry.value {
                    SnapshotValue::Counter(_) => "counter",
                    SnapshotValue::Gauge(_) => "gauge",
                    SnapshotValue::Histogram { .. } => "histogram",
                };
                out.push_str(&format!("# HELP {} {}\n", entry.name, entry.help));
                out.push_str(&format!("# TYPE {} {}\n", entry.name, kind));
                last_name = Some(entry.name.as_str());
            }
            match &entry.value {
                SnapshotValue::Counter(v) => {
                    out.push_str(&entry.name);
                    push_prom_labels(&mut out, &entry.labels, None);
                    out.push_str(&format!(" {v}\n"));
                }
                SnapshotValue::Gauge(v) => {
                    out.push_str(&entry.name);
                    push_prom_labels(&mut out, &entry.labels, None);
                    out.push_str(&format!(" {}\n", json_f64(*v)));
                }
                SnapshotValue::Histogram {
                    count,
                    sum,
                    buckets,
                } => {
                    for (bound, cumulative) in buckets {
                        out.push_str(&format!("{}_bucket", entry.name));
                        push_prom_labels(&mut out, &entry.labels, Some(&bound.to_string()));
                        out.push_str(&format!(" {cumulative}\n"));
                    }
                    out.push_str(&format!("{}_bucket", entry.name));
                    push_prom_labels(&mut out, &entry.labels, Some("+Inf"));
                    out.push_str(&format!(" {count}\n"));
                    out.push_str(&format!("{}_sum", entry.name));
                    push_prom_labels(&mut out, &entry.labels, None);
                    out.push_str(&format!(" {sum}\n"));
                    out.push_str(&format!("{}_count", entry.name));
                    push_prom_labels(&mut out, &entry.labels, None);
                    out.push_str(&format!(" {count}\n"));
                }
            }
        }
        out
    }
}

fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Shortest-roundtrip decimal for a finite f64 (Rust's `{:?}`), the form both renders
/// use so a re-parsed gauge is bit-exact.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        // JSON has no Inf/NaN; clamp to null (gauges in this workspace are finite).
        "null".to_string()
    }
}

fn push_prom_labels(out: &mut String, labels: &[(String, String)], le: Option<&str>) {
    if labels.is_empty() && le.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("{k}=\"{v}\""));
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        out.push_str(&format!("le=\"{le}\""));
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The gate is process-global and tests run concurrently, so every test that
    /// manipulates it serialises on this lock.
    static GATE_LOCK: Mutex<()> = Mutex::new(());

    fn with_metrics_on<T>(f: impl FnOnce() -> T) -> T {
        let _guard = GATE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        let out = f();
        set_enabled(false);
        out
    }

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        // Bucket 0 holds exactly zero; bucket i holds [2^(i-1), 2^i).
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(10), 1023);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
        for value in [0u64, 1, 2, 7, 8, 1 << 20, u64::MAX - 1, u64::MAX] {
            let i = bucket_index(value);
            assert!(value <= bucket_upper_bound(i), "value above its bucket");
            if i > 0 {
                assert!(
                    value > bucket_upper_bound(i - 1),
                    "value fits an earlier bucket"
                );
            }
        }
    }

    #[test]
    fn disabled_metrics_record_nothing_and_read_no_clock() {
        let _guard = GATE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(false);
        let registry = MetricsRegistry::new();
        let c = registry.counter("c_total", "help", &[], MetricClass::EventTime);
        let g = registry.gauge("g", "help", &[], MetricClass::EventTime);
        let h = registry.histogram("h", "help", &[], MetricClass::WallClock);
        c.inc();
        g.set(5.0);
        h.record(10);
        {
            let span = h.span();
            assert!(span.start.is_none(), "no clock read while disabled");
        }
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0.0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn event_time_counters_are_identical_at_1_and_4_threads() {
        // The same event-derived workload recorded from one thread and from four must
        // snapshot to bit-identical event-time entries and fingerprints (each record
        // is one atomic add; partitioning the work cannot change any total).
        let record_all = |threads: usize| -> (MetricsSnapshot, u64) {
            let registry = MetricsRegistry::new();
            let c = registry.counter("events_total", "h", &[], MetricClass::EventTime);
            let h = registry.histogram("sizes", "h", &[], MetricClass::EventTime);
            let work: Vec<u64> = (0..4096).map(|i| i % 97).collect();
            with_metrics_on(|| {
                std::thread::scope(|scope| {
                    for chunk in work.chunks(work.len() / threads) {
                        let (c, h) = (&c, &h);
                        scope.spawn(move || {
                            for &v in chunk {
                                c.inc();
                                h.record(v);
                            }
                        });
                    }
                });
            });
            let snap = registry.snapshot();
            let fp = snap.fingerprint();
            (snap, fp)
        };
        let (snap1, fp1) = record_all(1);
        let (snap4, fp4) = record_all(4);
        assert_eq!(snap1, snap4);
        assert_eq!(fp1, fp4);
        assert_eq!(snap1.counter("events_total", &[]), Some(4096));
    }

    #[test]
    fn wall_clock_entries_are_excluded_from_the_fingerprint() {
        let registry = MetricsRegistry::new();
        let c = registry.counter("events_total", "h", &[], MetricClass::EventTime);
        let w = registry.histogram("tick_nanos", "h", &[], MetricClass::WallClock);
        with_metrics_on(|| {
            c.add(7);
            w.record(123);
        });
        let fp_before = registry.snapshot().fingerprint();
        with_metrics_on(|| w.record(456_789));
        assert_eq!(
            registry.snapshot().fingerprint(),
            fp_before,
            "wall-clock observations must not move the fingerprint"
        );
        with_metrics_on(|| c.inc());
        assert_ne!(registry.snapshot().fingerprint(), fp_before);
    }

    #[test]
    fn prometheus_render_is_stable() {
        let registry = MetricsRegistry::new();
        let mitigate = registry.counter(
            "uerl_decisions_total",
            "Decisions served",
            &[("action", "mitigate")],
            MetricClass::EventTime,
        );
        let none = registry.counter(
            "uerl_decisions_total",
            "Decisions served",
            &[("action", "none")],
            MetricClass::EventTime,
        );
        let g = registry.gauge("uerl_cost", "Cost", &[], MetricClass::EventTime);
        let h = registry.histogram("uerl_sizes", "Sizes", &[], MetricClass::EventTime);
        with_metrics_on(|| {
            mitigate.add(3);
            none.add(4);
            g.set(1.5);
            h.record(0);
            h.record(3);
            h.record(3);
        });
        let expected = "\
# HELP uerl_cost Cost
# TYPE uerl_cost gauge
uerl_cost 1.5
# HELP uerl_decisions_total Decisions served
# TYPE uerl_decisions_total counter
uerl_decisions_total{action=\"mitigate\"} 3
uerl_decisions_total{action=\"none\"} 4
# HELP uerl_sizes Sizes
# TYPE uerl_sizes histogram
uerl_sizes_bucket{le=\"0\"} 1
uerl_sizes_bucket{le=\"1\"} 1
uerl_sizes_bucket{le=\"3\"} 3
uerl_sizes_bucket{le=\"+Inf\"} 3
uerl_sizes_sum 6
uerl_sizes_count 3
";
        assert_eq!(registry.snapshot().to_prometheus(), expected);
        // Rendering twice (and re-snapshotting) is byte-identical.
        assert_eq!(
            registry.snapshot().to_prometheus(),
            registry.snapshot().to_prometheus()
        );
    }

    #[test]
    fn json_render_is_valid_and_stable() {
        let registry = MetricsRegistry::new();
        let c = registry.counter("a_total", "h", &[("k", "v")], MetricClass::EventTime);
        let h = registry.histogram("b_nanos", "h", &[], MetricClass::WallClock);
        with_metrics_on(|| {
            c.add(2);
            h.record(5);
        });
        let json = registry.snapshot().to_json();
        assert_eq!(
            json,
            "{\"metrics\":[\
             {\"name\":\"a_total\",\"class\":\"event_time\",\"labels\":{\"k\":\"v\"},\
             \"type\":\"counter\",\"value\":2},\
             {\"name\":\"b_nanos\",\"class\":\"wall_clock\",\"labels\":{},\
             \"type\":\"histogram\",\"count\":1,\"sum\":5,\"buckets\":[[0,0],[1,0],[3,0],[7,1]]}\
             ]}"
        );
    }

    #[test]
    fn registration_is_idempotent_and_type_checked() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("x_total", "h", &[], MetricClass::EventTime);
        let b = registry.counter("x_total", "h", &[], MetricClass::EventTime);
        with_metrics_on(|| {
            a.inc();
            b.inc();
        });
        assert_eq!(a.get(), 2, "same (name, labels) shares one instrument");
        assert!(std::panic::catch_unwind(|| {
            registry.gauge("x_total", "h", &[], MetricClass::EventTime)
        })
        .is_err());
        // Different labels are a different instrument.
        let c = registry.counter("x_total", "h", &[("k", "v")], MetricClass::EventTime);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn reset_zeroes_values_but_keeps_registrations() {
        let registry = MetricsRegistry::new();
        let c = registry.counter("c_total", "h", &[], MetricClass::EventTime);
        let g = registry.gauge("g", "h", &[], MetricClass::EventTime);
        let h = registry.histogram("h", "h", &[], MetricClass::EventTime);
        with_metrics_on(|| {
            c.add(9);
            g.set(2.5);
            h.record(4);
        });
        registry.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0.0);
        assert_eq!(h.count(), 0);
        assert_eq!(registry.snapshot().entries.len(), 3);
    }

    #[test]
    fn span_records_elapsed_nanos() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("span_nanos", "h", &[], MetricClass::WallClock);
        with_metrics_on(|| {
            let _span = h.span();
            std::hint::black_box(1 + 1);
        });
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn record_micros_scales_and_rounds() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("td", "h", &[], MetricClass::EventTime);
        with_metrics_on(|| {
            h.record_micros(-1.5); // |−1.5| * 1e6 = 1_500_000
            h.record_micros(0.0);
        });
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 1_500_000);
    }
}
