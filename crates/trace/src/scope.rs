//! Scoped metric groups: counters and histograms whose lifetime is an
//! object, not the process.
//!
//! The global [`Registry`](crate::Registry) interns every metric name
//! forever — exactly right for the fixed vocabulary of instrumentation
//! points, and exactly wrong for *per-entity* metrics like "queries
//! answered by session 17", whose names are unbounded. A [`Scope`] is
//! the per-entity counterpart: a named, heap-owned group of the same
//! [`Counter`]/[`Histogram`] primitives that drops with its owner,
//! snapshots into the same [`TraceReport`] (so the stable JSON writer
//! and the fixed-width table render it unchanged), and is **not**
//! gated by the global trace switch — a session's own statistics must
//! be reportable whether or not `KPA_TRACE` is on.
//!
//! # Examples
//!
//! ```
//! let scope = kpa_trace::Scope::new("session-1");
//! scope.counter("queries").add(3);
//! scope.histogram("batch_ns").record(1800);
//! let report = scope.snapshot();
//! assert_eq!(report.counter("queries"), 3);
//! assert_eq!(report.histograms["batch_ns"].count, 1);
//! // Dropping the scope releases every metric it owned.
//! ```

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::metrics::{Counter, Histogram};
use crate::report::{HistogramSnapshot, TraceReport, WindowedSnapshot};
use crate::rolling::RollingHistogram;

/// Look up `name` in `map`, or register a fresh `make()` under it.
fn lookup_or_insert<T>(
    map: &Mutex<BTreeMap<String, Arc<T>>>,
    name: &str,
    make: impl FnOnce() -> T,
) -> Arc<T> {
    let mut map = map.lock().expect("scope metrics");
    if let Some(m) = map.get(name) {
        return Arc::clone(m);
    }
    let m = Arc::new(make());
    map.insert(name.to_owned(), Arc::clone(&m));
    m
}

/// A named, independently owned group of counters and histograms.
///
/// Metric handles are shared `Arc`s: look one up once and update it
/// lock-free from any thread; the scope's maps are only locked on
/// first registration and at snapshot time. Unlike the global
/// [`Registry`](crate::Registry), a scope drops its metrics with its
/// owner and records whether or not tracing is on.
#[derive(Debug, Default)]
pub struct Scope {
    label: String,
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    rollings: Mutex<BTreeMap<String, Arc<RollingHistogram>>>,
}

impl Scope {
    /// An empty scope labelled `label` (the label becomes the
    /// `workload` field of exported snapshots).
    #[must_use]
    pub fn new(label: impl Into<String>) -> Scope {
        Scope {
            label: label.into(),
            ..Scope::default()
        }
    }

    /// The scope's label.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Look up (or create) the scope-local counter called `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        lookup_or_insert(&self.counters, name, Counter::new)
    }

    /// Look up (or create) the scope-local histogram called `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        lookup_or_insert(&self.histograms, name, Histogram::new)
    }

    /// Record one sample into the scope-local histogram called `name`.
    ///
    /// Convenience for `scope.histogram(name).record(v)` — it takes
    /// the registration lock each call, so hot paths should cache the
    /// `Arc` from [`Scope::histogram`] instead.
    pub fn record(&self, name: &str, v: u64) {
        self.histogram(name).record(v);
    }

    /// Look up (or create) the scope-local rolling-window histogram
    /// called `name`. Rolling histograms wrap cumulative ones at the
    /// call site; [`Scope::record_windowed`] records into both.
    pub fn rolling(&self, name: &str) -> Arc<RollingHistogram> {
        lookup_or_insert(&self.rollings, name, RollingHistogram::new)
    }

    /// Record one sample into both the cumulative histogram and the
    /// rolling window called `name`, so old readers of the cumulative
    /// stream are untouched while new readers get recent quantiles.
    /// Takes the registration locks each call; hot paths should cache
    /// the two handles instead.
    pub fn record_windowed(&self, name: &str, v: u64) {
        self.histogram(name).record(v);
        self.rolling(name).record(v);
    }

    /// A point-in-time copy of every metric in the scope, in the same
    /// [`TraceReport`] shape the global registry snapshots into — so
    /// [`TraceReport::to_json`] and [`TraceReport::render_table`] work
    /// on it unchanged. Scope reports always carry `enabled: true`
    /// (scopes are not gated) and have no span sites or rows.
    #[must_use]
    pub fn snapshot(&self) -> TraceReport {
        let counters = {
            let map = self.counters.lock().expect("scope counters");
            map.iter()
                .map(|(k, c)| (k.clone(), c.get()))
                .collect::<BTreeMap<String, u64>>()
        };
        let histograms = {
            let map = self.histograms.lock().expect("scope histograms");
            map.iter()
                .map(|(k, h)| (k.clone(), HistogramSnapshot::of(h)))
                .collect::<BTreeMap<String, HistogramSnapshot>>()
        };
        let windowed = {
            let map = self.rollings.lock().expect("scope rollings");
            map.iter()
                .map(|(k, r)| (k.clone(), WindowedSnapshot::of(&r.window())))
                .collect::<BTreeMap<String, WindowedSnapshot>>()
        };
        TraceReport {
            enabled: true,
            counters,
            histograms,
            windowed,
            span_sites: Vec::new(),
            spans_dropped: 0,
            rows: BTreeMap::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_metrics_are_independent_of_the_registry() {
        let scope = Scope::new("unit");
        assert_eq!(scope.label(), "unit");
        scope.counter("q").add(2);
        scope.counter("q").incr();
        scope.histogram("lat_ns").record(100);
        scope.record("lat_ns", 200);
        scope.record_windowed("frame_ns", 1800);
        let report = scope.snapshot();
        assert_eq!(report.counter("q"), 3);
        assert_eq!(report.histograms["lat_ns"].count, 2);
        assert_eq!(
            report.histograms["frame_ns"].count, 1,
            "windowed recording feeds the cumulative stream too"
        );
        assert_eq!(report.windowed["frame_ns"].count, 1);
        assert_eq!(report.windowed["frame_ns"].p50, Some(1024));
        // Nothing reached the process-global registry.
        assert_eq!(crate::registry().snapshot().counter("q"), 0);
        // A second scope with the same metric names starts from zero.
        let other = Scope::new("unit-2");
        assert_eq!(other.snapshot().counter("q"), 0);
    }

    #[test]
    fn scope_handles_are_shared() {
        let scope = Scope::new("unit");
        let a = scope.counter("x");
        let b = scope.counter("x");
        assert!(Arc::ptr_eq(&a, &b));
        a.incr();
        assert_eq!(b.get(), 1);
    }

    #[test]
    fn scope_snapshot_serializes_via_the_stable_writer() {
        let scope = Scope::new("session");
        scope.counter("frames").add(7);
        let json = scope.snapshot().to_json("session");
        assert!(json.contains("\"frames\": 7"));
        assert!(json.contains("\"workload\": \"session\""));
    }
}
