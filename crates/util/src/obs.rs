//! Zero-dependency observability: counters, gauges, histograms, spans.
//!
//! The workspace argues cross-layer: a QoE symptom (a stall, a quality
//! drop) is caused by a decision several layers down (a grouping choice, a
//! beam switch, a dropped MAC item). This module is the measurement
//! substrate that lets a run *explain itself*: hot paths record counters,
//! high-watermark gauges, log-scale histograms and wall-clock spans under
//! hierarchical names (`session.frames`, `net.sim.dropped_items`,
//! `session.degrade.retransmits`, `codec.cells_encoded`), and a
//! [`MetricsSnapshot`] exports the totals through the in-tree JSON layer.
//!
//! ## Enablement and disabled-path cost
//!
//! Tracing is **off by default** and controlled by the `VOLCAST_TRACE`
//! environment variable (`1` or `true` enables it), resolved lazily the
//! same way `VOLCAST_THREADS` is. Every recording entry point begins with
//! a single relaxed atomic load ([`enabled`]) and returns immediately when
//! tracing is off — no locks, no thread-local access, no allocation — so
//! instrumented hot paths cost one predictable branch when disabled.
//! Tests and benches may override the environment with [`set_enabled`].
//!
//! ## The determinism contract
//!
//! Counts must not depend on the worker budget: `VOLCAST_THREADS=1` and
//! `VOLCAST_THREADS=N` must report identical totals. Each thread records
//! into a private thread-local sink; worker sinks flush into the global
//! registry when the worker terminates, which for [`crate::par`] regions
//! happens *before* `par_map` returns (scoped threads run thread-local
//! destructors before they are joined). Every merge operation is
//! commutative and associative — counter adds, bucket adds, min/max — so
//! the merged totals are independent of worker count and join order,
//! provided the mapped closures themselves are pure (the same contract
//! [`crate::par`] already imposes).
//!
//! Wall-clock values are the deliberate exception: span *durations* are
//! machine- and schedule-dependent and therefore non-deterministic.
//! [`MetricsSnapshot::deterministic`] strips them (keeping span *counts*,
//! which are deterministic) so snapshots can be byte-compared across
//! thread counts and commits.
//!
//! ## Naming scheme
//!
//! Dot-separated, `layer.component.metric`, lowercase with underscores:
//! `session.stalls`, `net.plan.airtime_us`, `session.multicast_bytes`,
//! `codec.cell_bytes`, `viewport.visibility.maps`. Histogram names carry
//! their unit as a suffix (`_us`, `_bytes`); span histograms are kept in a
//! separate section and always record nanoseconds.
//!
//! ```
//! use volcast_util::obs;
//!
//! obs::set_enabled(true);
//! obs::reset();
//! obs::inc("doc.frames");
//! obs::add("doc.bytes", 1500);
//! obs::record("doc.cell_bytes", 700);
//! {
//!     let _span = obs::span("doc.encode");
//! }
//! let snap = obs::snapshot();
//! assert_eq!(snap.counters[1].name, "doc.frames");
//! assert_eq!(snap.counters[1].value, 1);
//! assert_eq!(snap.spans[0].count, 1);
//! // Wall-clock durations are stripped from the comparable form.
//! assert_eq!(snap.deterministic().spans[0].sum, 0);
//! obs::set_enabled(false);
//! obs::reset();
//! ```

use crate::impl_json_struct;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Tri-state enable flag: 0 = unresolved, 1 = disabled, 2 = enabled.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// `true` when tracing is on.
///
/// Resolved lazily on first call: enabled iff `VOLCAST_TRACE` is `1` or
/// `true`, disabled otherwise (including when unset). The resolved value
/// is process-wide and stable afterwards; tests override it with
/// [`set_enabled`]. This is the fast path guarding every recording entry
/// point: one relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        0 => resolve_enabled(),
        2 => true,
        _ => false,
    }
}

/// Slow path of [`enabled`]: reads `VOLCAST_TRACE` once.
#[cold]
fn resolve_enabled() -> bool {
    let on = matches!(
        std::env::var("VOLCAST_TRACE").ok().as_deref(),
        Some("1") | Some("true")
    );
    let coded = if on { 2 } else { 1 };
    // Racing initializers compute the same value unless the env changed
    // mid-race; first store wins either way.
    let _ = ENABLED.compare_exchange(0, coded, Ordering::Relaxed, Ordering::Relaxed);
    ENABLED.load(Ordering::Relaxed) == 2
}

/// Overrides the `VOLCAST_TRACE` resolution (for tests and benches).
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// A log₂-bucketed value distribution, merged commutatively.
#[derive(Debug, Clone, Default)]
struct Hist {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    /// `buckets[i]` counts values in bucket `i`; bucket 0 holds the value
    /// 0 and bucket `i ≥ 1` holds values in `[2^(i-1), 2^i)`.
    buckets: Vec<u64>,
}

/// Bucket index for a value: 0 for 0, otherwise `⌊log₂ v⌋ + 1`.
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

impl Hist {
    fn record(&mut self, v: u64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        let idx = bucket_index(v);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
    }

    fn merge(&mut self, other: &Hist) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, &o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
    }
}

/// Per-thread staging area; merged into [`REGISTRY`] when the thread
/// terminates (or explicitly, from [`snapshot`] / [`reset`]).
#[derive(Default)]
struct LocalSink {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    hists: BTreeMap<&'static str, Hist>,
    spans: BTreeMap<&'static str, Hist>,
}

impl LocalSink {
    fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.hists.is_empty()
            && self.spans.is_empty()
    }

    /// Moves everything into the global registry, leaving `self` empty.
    fn flush(&mut self) {
        if self.is_empty() {
            return;
        }
        let mut reg = lock_registry();
        for (name, v) in std::mem::take(&mut self.counters) {
            *reg.counters.entry(name).or_insert(0) += v;
        }
        for (name, v) in std::mem::take(&mut self.gauges) {
            let slot = reg.gauges.entry(name).or_insert(f64::NEG_INFINITY);
            if v > *slot {
                *slot = v;
            }
        }
        for (name, h) in std::mem::take(&mut self.hists) {
            reg.hists.entry(name).or_default().merge(&h);
        }
        for (name, h) in std::mem::take(&mut self.spans) {
            reg.spans.entry(name).or_default().merge(&h);
        }
    }
}

impl Drop for LocalSink {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static SINK: RefCell<LocalSink> = RefCell::new(LocalSink::default());
}

/// Runs `f` on this thread's sink; a no-op during thread teardown (after
/// the sink's destructor has already flushed).
fn with_sink(f: impl FnOnce(&mut LocalSink)) {
    let _ = SINK.try_with(|s| {
        if let Ok(mut sink) = s.try_borrow_mut() {
            f(&mut sink);
        }
    });
}

/// Merged process-wide totals.
#[derive(Default)]
struct Registry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    hists: BTreeMap<&'static str, Hist>,
    spans: BTreeMap<&'static str, Hist>,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    counters: BTreeMap::new(),
    gauges: BTreeMap::new(),
    hists: BTreeMap::new(),
    spans: BTreeMap::new(),
});

/// Poison-tolerant registry lock (a panicking worker must not wedge the
/// whole process's metrics).
fn lock_registry() -> std::sync::MutexGuard<'static, Registry> {
    REGISTRY.lock().unwrap_or_else(|p| p.into_inner())
}

/// Adds `delta` to the counter `name`. No-op when tracing is disabled.
#[inline]
pub fn add(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    with_sink(|s| *s.counters.entry(name).or_insert(0) += delta);
}

/// Adds 1 to the counter `name`. No-op when tracing is disabled.
#[inline]
pub fn inc(name: &'static str) {
    add(name, 1);
}

/// Raises the high-watermark gauge `name` to at least `value`.
///
/// Gauges are merged by **maximum** (the only last-writer-free, and hence
/// thread-count-deterministic, combination), so a gauge reads as "the
/// largest value observed anywhere this run". No-op when disabled.
#[inline]
pub fn gauge(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    with_sink(|s| {
        let slot = s.gauges.entry(name).or_insert(f64::NEG_INFINITY);
        if value > *slot {
            *slot = value;
        }
    });
}

/// Records `value` into the log₂ histogram `name`. No-op when disabled.
#[inline]
pub fn record(name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    with_sink(|s| s.hists.entry(name).or_default().record(value));
}

/// An RAII wall-clock timer; its drop records the elapsed nanoseconds
/// into the span histogram it was opened with.
///
/// Span durations are wall clock and therefore **non-deterministic**:
/// they appear in the `spans` section of a [`MetricsSnapshot`] and are
/// stripped (durations zeroed, counts kept) by
/// [`MetricsSnapshot::deterministic`].
#[derive(Debug)]
#[must_use = "a span measures until it is dropped; binding it to _ drops it immediately"]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
}

/// Opens a span named `name`. When tracing is disabled the returned guard
/// is inert (no clock read, no recording).
#[inline]
pub fn span(name: &'static str) -> Span {
    Span {
        name,
        start: enabled().then(Instant::now),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            with_sink(|s| s.spans.entry(self.name).or_default().record(ns));
        }
    }
}

/// One counter in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSnapshot {
    /// Hierarchical metric name.
    pub name: String,
    /// Merged total.
    pub value: u64,
}
impl_json_struct!(CounterSnapshot { name, value });

/// One high-watermark gauge in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeSnapshot {
    /// Hierarchical metric name.
    pub name: String,
    /// Largest value observed by any thread.
    pub value: f64,
}
impl_json_struct!(GaugeSnapshot { name, value });

/// One histogram (or span histogram) in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Hierarchical metric name.
    pub name: String,
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values (saturating).
    pub sum: u64,
    /// Smallest recorded value (0 when `count == 0`).
    pub min: u64,
    /// Largest recorded value (0 when `count == 0`).
    pub max: u64,
    /// `buckets[0]` counts zeros; `buckets[i]` counts values in
    /// `[2^(i-1), 2^i)`. Trailing empty buckets are omitted.
    pub buckets: Vec<u64>,
}
impl_json_struct!(HistogramSnapshot {
    name,
    count,
    sum,
    min,
    max,
    buckets
});

/// A point-in-time export of every metric recorded so far, sorted by
/// name within each section. Serializes through the in-tree JSON layer
/// (`results/obs_*.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// High-watermark gauges, sorted by name.
    pub gauges: Vec<GaugeSnapshot>,
    /// Value histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
    /// Span (wall-clock) histograms, sorted by name. Durations are
    /// non-deterministic; counts are deterministic.
    pub spans: Vec<HistogramSnapshot>,
}
impl_json_struct!(MetricsSnapshot {
    counters,
    gauges,
    histograms,
    spans
});

impl MetricsSnapshot {
    /// The comparable subset: everything except wall-clock durations.
    ///
    /// Span histograms keep their `count` (how many times each span ran —
    /// deterministic) but have `sum`/`min`/`max`/`buckets` zeroed, so two
    /// runs of the same seeded workload serialize byte-identically
    /// regardless of `VOLCAST_THREADS` or machine speed.
    pub fn deterministic(&self) -> MetricsSnapshot {
        let mut out = self.clone();
        for s in &mut out.spans {
            s.sum = 0;
            s.min = 0;
            s.max = 0;
            s.buckets.clear();
        }
        out
    }
}

fn hist_snapshot(name: &str, h: &Hist) -> HistogramSnapshot {
    HistogramSnapshot {
        name: name.to_string(),
        count: h.count,
        sum: h.sum,
        min: if h.count == 0 { 0 } else { h.min },
        max: if h.count == 0 { 0 } else { h.max },
        buckets: h.buckets.clone(),
    }
}

/// Flushes the calling thread's sink and exports the merged totals.
///
/// Worker threads spawned by [`crate::par`] have already flushed by the
/// time their region returned; call this from the thread that owns the
/// workload (outside any parallel region) and the snapshot covers every
/// recording made so far.
pub fn snapshot() -> MetricsSnapshot {
    with_sink(|s| s.flush());
    let reg = lock_registry();
    MetricsSnapshot {
        counters: reg
            .counters
            .iter()
            .map(|(name, &value)| CounterSnapshot {
                name: name.to_string(),
                value,
            })
            .collect(),
        gauges: reg
            .gauges
            .iter()
            .map(|(name, &value)| GaugeSnapshot {
                name: name.to_string(),
                value,
            })
            .collect(),
        histograms: reg.hists.iter().map(|(n, h)| hist_snapshot(n, h)).collect(),
        spans: reg.spans.iter().map(|(n, h)| hist_snapshot(n, h)).collect(),
    }
}

/// Clears all recorded metrics (the registry and the calling thread's
/// sink). Call from outside any parallel region, e.g. between the warm-up
/// and measured phases of a bench, or between tests.
pub fn reset() {
    with_sink(|s| {
        s.counters.clear();
        s.gauges.clear();
        s.hists.clear();
        s.spans.clear();
    });
    let mut reg = lock_registry();
    reg.counters.clear();
    reg.gauges.clear();
    reg.hists.clear();
    reg.spans.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{FromJson, ToJson};
    use crate::par;

    /// Obs state is process-global; these tests serialize on this lock
    /// (and restore the disabled state) so they can run under the normal
    /// multi-threaded test harness.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn counter(snap: &MetricsSnapshot, name: &str) -> u64 {
        snap.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
            .unwrap_or(0)
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = TEST_LOCK.lock().unwrap();
        set_enabled(false);
        reset();
        inc("test.off.counter");
        record("test.off.hist", 5);
        gauge("test.off.gauge", 1.0);
        drop(span("test.off.span"));
        let snap = snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(snap.spans.is_empty());
    }

    #[test]
    fn totals_are_thread_count_invariant() {
        let _g = TEST_LOCK.lock().unwrap();
        let items: Vec<u64> = (0..97).collect();
        let mut reference: Option<String> = None;
        for threads in [1usize, 4] {
            let json = par::with_thread_count(threads, || {
                set_enabled(true);
                reset();
                let _ = par::par_map(&items, |&x| {
                    inc("test.par.items");
                    add("test.par.sum", x);
                    record("test.par.value", x);
                    gauge("test.par.max", x as f64);
                    x
                });
                let json = snapshot().deterministic().to_json().to_json_string();
                set_enabled(false);
                json
            });
            match &reference {
                None => reference = Some(json),
                Some(r) => assert_eq!(r, &json, "threads={threads}"),
            }
        }
        let snap_json = reference.unwrap();
        let snap = MetricsSnapshot::from_json(&crate::json::JsonValue::parse(&snap_json).unwrap())
            .unwrap();
        assert_eq!(counter(&snap, "test.par.items"), 97);
        assert_eq!(counter(&snap, "test.par.sum"), 96 * 97 / 2);
        let h = &snap.histograms[0];
        assert_eq!(h.name, "test.par.value");
        assert_eq!(h.count, 97);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 96);
        assert_eq!(snap.gauges[0].value, 96.0);
        reset();
    }

    #[test]
    fn spans_count_deterministically_but_time_is_stripped() {
        let _g = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        reset();
        for _ in 0..3 {
            let _s = span("test.span.work");
            std::hint::black_box(0u64);
        }
        let snap = snapshot();
        set_enabled(false);
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].count, 3);
        let det = snap.deterministic();
        assert_eq!(det.spans[0].count, 3);
        assert_eq!(det.spans[0].sum, 0);
        assert_eq!(det.spans[0].max, 0);
        assert!(det.spans[0].buckets.is_empty());
        reset();
    }

    #[test]
    fn snapshot_json_roundtrips() {
        let _g = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        reset();
        add("test.json.bytes", 1234);
        gauge("test.json.depth", 7.5);
        record("test.json.dist", 0);
        record("test.json.dist", 1023);
        let snap = snapshot();
        set_enabled(false);
        let parsed = MetricsSnapshot::from_json(
            &crate::json::JsonValue::parse(&snap.to_json().to_json_string()).unwrap(),
        )
        .unwrap();
        assert_eq!(parsed, snap);
        // Bucket layout: value 0 in bucket 0, 1023 in bucket 10.
        let h = &snap.histograms[0];
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[10], 1);
        assert_eq!(h.sum, 1023);
        reset();
    }

    #[test]
    fn bucket_indexing_covers_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
    }
}
