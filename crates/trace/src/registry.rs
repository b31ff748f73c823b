//! The process-global metric registry.
//!
//! Registration (first lookup of a name) takes a mutex and leaks the
//! metric into `'static` storage; every later access goes through the
//! returned `&'static` reference and is lock-free. Call sites that fire
//! repeatedly cache that reference in a `OnceLock` (the `count!` /
//! `record!` / `span!` macros do this automatically), so the steady
//! state never touches the registry lock at all.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::metrics::{Counter, Histogram};
use crate::report::{HistogramSnapshot, TraceReport, WindowedSnapshot};
use crate::rolling::RollingHistogram;
use crate::spans::{self, SpanSite};

/// Process-global registry of named counters, histograms, rolling
/// windows and span sites. Obtain it via [`registry`].
#[derive(Debug)]
pub struct Registry {
    counters: Mutex<BTreeMap<&'static str, &'static Counter>>,
    histograms: Mutex<BTreeMap<&'static str, &'static Histogram>>,
    rollings: Mutex<BTreeMap<&'static str, &'static RollingHistogram>>,
    span_sites: Mutex<BTreeMap<&'static str, &'static SpanSite>>,
    epoch: Instant,
}

/// The process-global [`Registry`].
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(BTreeMap::new()),
        histograms: Mutex::new(BTreeMap::new()),
        rollings: Mutex::new(BTreeMap::new()),
        span_sites: Mutex::new(BTreeMap::new()),
        epoch: Instant::now(),
    })
}

/// Intern a metric name: names live for the life of the process (the
/// registry is global and metrics are never unregistered), so leaking
/// the handful of distinct names is the zero-dep way to get `'static`
/// keys for names built at run time.
fn intern(name: &str) -> &'static str {
    Box::leak(name.to_owned().into_boxed_str())
}

/// Look up `name` in `map`, or leak `make(interned name)` into
/// `'static` storage and register it.
fn lookup_or_leak<T>(
    map: &Mutex<BTreeMap<&'static str, &'static T>>,
    name: &str,
    make: impl FnOnce(&'static str) -> T,
) -> &'static T {
    let mut map = map.lock().expect("trace registry");
    if let Some(m) = map.get(name) {
        return m;
    }
    let key = intern(name);
    let m: &'static T = Box::leak(Box::new(make(key)));
    map.insert(key, m);
    m
}

impl Registry {
    /// Look up (or create) the counter called `name`.
    ///
    /// The returned reference is `'static`: cache it and skip the
    /// lookup on the hot path. Names built at run time are fine — each
    /// *distinct* name leaks one small allocation, once.
    pub fn counter(&self, name: &str) -> &'static Counter {
        lookup_or_leak(&self.counters, name, |_| Counter::new())
    }

    /// Look up (or create) the histogram called `name`.
    pub fn histogram(&self, name: &str) -> &'static Histogram {
        lookup_or_leak(&self.histograms, name, |_| Histogram::new())
    }

    /// Look up (or create) the rolling-window histogram called `name`.
    ///
    /// Rolling histograms *wrap* cumulative ones at the call site —
    /// record into both — so existing cumulative readers see the same
    /// stream they always did.
    pub fn rolling(&self, name: &str) -> &'static RollingHistogram {
        lookup_or_leak(&self.rollings, name, |_| RollingHistogram::new())
    }

    /// Look up (or create) the `span!` call site called `name`: the
    /// site's cumulative histogram plus its interned name, bundled so
    /// the macro can open span-tree records without a second lookup.
    pub fn span_site(&self, name: &str) -> &'static SpanSite {
        lookup_or_leak(&self.span_sites, name, |key| {
            SpanSite::new(key, self.histogram(name))
        })
    }

    /// Nanoseconds elapsed since the registry was created (the time
    /// base of span records and rolling windows).
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A point-in-time copy of every metric and the span records.
    ///
    /// Snapshots are cheap (relaxed loads) and safe to take while
    /// workers are still recording; concurrent updates may or may not
    /// be visible, which is fine at the quiescent points where reports
    /// are taken.
    pub fn snapshot(&self) -> TraceReport {
        let counters = {
            let map = self.counters.lock().expect("trace counter registry");
            map.iter()
                .map(|(k, c)| ((*k).to_owned(), c.get()))
                .collect::<BTreeMap<String, u64>>()
        };
        let histograms = {
            let map = self.histograms.lock().expect("trace histogram registry");
            map.iter()
                .map(|(k, h)| ((*k).to_owned(), HistogramSnapshot::of(h)))
                .collect::<BTreeMap<String, HistogramSnapshot>>()
        };
        let windowed = {
            let map = self.rollings.lock().expect("trace rolling registry");
            map.iter()
                .map(|(k, r)| ((*k).to_owned(), WindowedSnapshot::of(&r.window())))
                .collect::<BTreeMap<String, WindowedSnapshot>>()
        };
        let (span_records, spans_dropped) = spans::snapshot_span_records();
        let span_sites = spans::span_site_stats(&span_records);
        TraceReport {
            enabled: crate::enabled(),
            counters,
            histograms,
            windowed,
            span_sites,
            spans_dropped,
            rows: BTreeMap::new(),
        }
    }

    /// Zero every counter, histogram and rolling window and drain the
    /// span rings. Used between bench rows to get per-row deltas from a
    /// shared process-global registry.
    pub fn reset(&self) {
        for c in self
            .counters
            .lock()
            .expect("trace counter registry")
            .values()
        {
            c.reset();
        }
        for h in self
            .histograms
            .lock()
            .expect("trace histogram registry")
            .values()
        {
            h.reset();
        }
        for r in self
            .rollings
            .lock()
            .expect("trace rolling registry")
            .values()
        {
            r.reset();
        }
        spans::reset_spans();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_interns_names_once() {
        let reg = registry();
        let a = reg.counter("test.registry.intern");
        let b = reg.counter("test.registry.intern");
        assert!(std::ptr::eq(a, b), "same name must yield same counter");
        let h1 = reg.histogram("test.registry.hist");
        let h2 = reg.histogram("test.registry.hist");
        assert!(std::ptr::eq(h1, h2));
        let r1 = reg.rolling("test.registry.roll");
        let r2 = reg.rolling("test.registry.roll");
        assert!(std::ptr::eq(r1, r2));
        let s1 = reg.span_site("test.registry.site_ns");
        let s2 = reg.span_site("test.registry.site_ns");
        assert!(std::ptr::eq(s1, s2));
        assert!(
            std::ptr::eq(s1.histogram(), reg.histogram("test.registry.site_ns")),
            "a span site shares the same-named cumulative histogram"
        );
    }
}
