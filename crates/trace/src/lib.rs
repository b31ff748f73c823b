//! # kpa-trace — zero-dependency tracing/metrics for the kpa workspace
//!
//! A process-global [`Registry`] of named [`Counter`]s and
//! log₂-bucketed latency [`Histogram`]s, plus RAII [`Span`] timers that
//! also record per-request span trees — all hermetic (std only,
//! matching the workspace's offline-build policy) and all compiled
//! down to *true no-ops* unless tracing is switched on.
//!
//! ## Gating
//!
//! Tracing is off by default. It turns on when either
//!
//! - the `KPA_TRACE` environment variable is set to `1`, `true`, or
//!   `on` (checked once, on first use), or
//! - [`set_enabled`]`(true)` is called at runtime (which overrides the
//!   environment either way).
//!
//! While disabled, every instrumentation macro costs exactly one
//! relaxed atomic load and a predictable branch — no clock reads, no
//! locks, no allocation — so instrumented hot paths are
//! observationally (and, within measurement noise, temporally)
//! identical to uninstrumented ones. `tests/trace_invisibility.rs` at
//! the workspace root pins the observational half of that guarantee
//! bit-for-bit.
//!
//! ## Recording
//!
//! ```
//! kpa_trace::set_enabled(true);
//! kpa_trace::count!("demo.widgets");            // +1
//! kpa_trace::count!("demo.widgets", 4);         // +n
//! kpa_trace::record!("demo.batch_len", 17);     // histogram sample
//! {
//!     let _guard = kpa_trace::span!("demo.step_ns"); // RAII timer
//!     // ... timed region ...
//! }
//! let report = kpa_trace::registry().snapshot();
//! assert!(report.counter("demo.widgets") >= 5);
//! # kpa_trace::set_enabled(false);
//! ```
//!
//! The macros cache the `&'static` metric behind a per-call-site
//! `OnceLock`, so the registry's name map is consulted once per call
//! site, not once per sample. Because of that cache, macro names must
//! be *constant per call site*; for dynamically named metrics (e.g.
//! per-shard counters) call [`Registry::counter`] directly and cache
//! the references yourself.
//!
//! ## Naming scheme
//!
//! `layer.noun[_qualifier]`, dot-separated layers, snake-case leaves:
//! `logic.knows_scan`, `measure.dense_query`, `assign.space_cache_hit`,
//! `logic.pr_memo_hit`, `betting.class_sweep`. Histograms carry a
//! unit suffix (`_ns` for nanoseconds, `_len`/`_size` for element
//! counts). DESIGN.md §3.2e is the canonical registry of names.
//!
//! ## Scoped metrics
//!
//! Global metrics live forever; *per-entity* metrics (one service
//! session's counters, say) must not. [`Scope`] is a named, droppable
//! metric group built from the same counter/histogram primitives and
//! snapshotting into the same [`TraceReport`] — see its docs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metrics;
mod registry;
mod report;
mod rolling;
mod scope;
mod spans;

pub use metrics::{bucket_floor, bucket_of, Counter, Histogram, BUCKETS};
pub use registry::{registry, Registry};
pub use report::{
    json_escape, HistogramSnapshot, TraceReport, WindowedSnapshot, TRACE_SCHEMA_VERSION,
};
pub use rolling::{RollingHistogram, ROLLING_SLOTS, ROLLING_SLOT_NS_SHIFT};
pub use scope::Scope;
pub use spans::{
    ambient_guard, current_trace_id, next_trace_id, snapshot_span_records, span_site_stats,
    spans_to_chrome_json, spans_to_folded, stitch_span_trees, take_span_records, AmbientGuard,
    SpanNode, SpanRecord, SpanSite, SpanSiteStat, SpanTree, TraceId, SPAN_RING_CAPACITY,
};

use std::sync::atomic::{AtomicU8, Ordering};
use std::time::Instant;

/// 0 = uninitialised (consult `KPA_TRACE` on first read), 1 = off,
/// 2 = on.
static STATE: AtomicU8 = AtomicU8::new(0);

/// Is tracing currently enabled? One relaxed load on the steady state;
/// the very first call (per process) consults the `KPA_TRACE`
/// environment variable.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        0 => init_from_env(),
        1 => false,
        _ => true,
    }
}

#[cold]
fn init_from_env() -> bool {
    let on = std::env::var("KPA_TRACE")
        .map(|v| {
            let v = v.trim();
            v == "1" || v.eq_ignore_ascii_case("true") || v.eq_ignore_ascii_case("on")
        })
        .unwrap_or(false);
    let want = if on { 2 } else { 1 };
    // Racing first readers agree on the env value; a concurrent
    // `set_enabled` wins over the env default.
    match STATE.compare_exchange(0, want, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => on,
        Err(actual) => actual == 2,
    }
}

/// Switch tracing on or off at runtime (overrides `KPA_TRACE`).
pub fn set_enabled(on: bool) {
    STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// RAII timer: measures wall time from construction to drop, records
/// the elapsed nanoseconds into its site's histogram and appends a
/// span-tree record for the request-scoped pipeline. Construct via the
/// [`span!`] macro (which skips the clock read entirely when tracing
/// is disabled) or [`Span::start_site`].
#[derive(Debug)]
#[must_use = "a span records on drop; binding it to `_` drops immediately"]
pub struct Span {
    inner: Option<SpanInner>,
}

#[derive(Debug)]
struct SpanInner {
    hist: &'static Histogram,
    start: Instant,
    /// The span-tree record being built.
    active: spans::ActiveSpan,
}

impl Span {
    /// Start timing at a registered [`SpanSite`]: records the duration
    /// into the site's cumulative histogram *and* appends a
    /// `(site, parent, start_ns, dur_ns, trace_id)` record to the
    /// thread's span ring — what [`span!`] does while tracing is on.
    #[inline]
    pub fn start_site(site: &'static SpanSite) -> Span {
        Span {
            inner: Some(SpanInner {
                hist: site.histogram(),
                active: spans::ActiveSpan::begin(site.name()),
                start: Instant::now(),
            }),
        }
    }

    /// A span that records nothing and never reads the clock — what
    /// [`span!`] returns while tracing is disabled.
    #[inline]
    pub fn disabled() -> Span {
        Span { inner: None }
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let dur_ns = inner.start.elapsed().as_nanos() as u64;
            inner.hist.record(dur_ns);
            inner.active.finish(dur_ns);
        }
    }
}

/// Bump a named counter by 1 (`count!("name")`) or by `n`
/// (`count!("name", n)`). Compiles to a relaxed load + branch while
/// tracing is disabled. The name must be constant per call site.
#[macro_export]
macro_rules! count {
    ($name:expr) => {
        $crate::count!($name, 1u64)
    };
    ($name:expr, $n:expr) => {
        if $crate::enabled() {
            static __KPA_TRACE_SLOT: ::std::sync::OnceLock<&'static $crate::Counter> =
                ::std::sync::OnceLock::new();
            __KPA_TRACE_SLOT
                .get_or_init(|| $crate::registry().counter($name))
                .add($n as u64);
        }
    };
}

/// Record one sample into a named histogram. Compiles to a relaxed
/// load + branch while tracing is disabled. The name must be constant
/// per call site.
#[macro_export]
macro_rules! record {
    ($name:expr, $v:expr) => {
        if $crate::enabled() {
            static __KPA_TRACE_SLOT: ::std::sync::OnceLock<&'static $crate::Histogram> =
                ::std::sync::OnceLock::new();
            __KPA_TRACE_SLOT
                .get_or_init(|| $crate::registry().histogram($name))
                .record($v as u64);
        }
    };
}

/// Start an RAII timer recording elapsed nanoseconds into a named
/// histogram; bind the result (`let _guard = span!("x_ns");`). While
/// tracing is disabled this neither reads the clock nor records.
/// While enabled, the site also appends a span-tree record carrying
/// the thread's ambient [`TraceId`] (see [`ambient_guard`]) to the
/// per-thread span ring.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        if $crate::enabled() {
            static __KPA_TRACE_SLOT: ::std::sync::OnceLock<&'static $crate::SpanSite> =
                ::std::sync::OnceLock::new();
            $crate::Span::start_site(
                __KPA_TRACE_SLOT.get_or_init(|| $crate::registry().span_site($name)),
            )
        } else {
            $crate::Span::disabled()
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The single test in this crate that flips the process-global
    /// switch: disabled macros record nothing, enabled macros record,
    /// and a reset zeroes the registry. Kept as one sequential `#[test]`
    /// because the flag is global to the test binary.
    #[test]
    fn lifecycle_disabled_then_enabled() {
        set_enabled(false);
        assert!(!enabled());
        count!("test.lifecycle.c");
        record!("test.lifecycle.h", 123);
        {
            let _g = span!("test.lifecycle.span_ns");
        }
        {
            // While off, the ambient guard must not touch TLS either.
            let _g = ambient_guard(TraceId(42));
            assert_eq!(current_trace_id(), TraceId::NONE);
        }
        let off = registry().snapshot();
        assert!(!off.enabled);
        assert_eq!(off.counter("test.lifecycle.c"), 0);
        assert!(!off.histograms.contains_key("test.lifecycle.h"));
        let (off_spans, _) = snapshot_span_records();
        assert!(
            off_spans
                .iter()
                .all(|r| !r.site.starts_with("test.lifecycle.")),
            "disabled span! sites must not reach the span rings"
        );

        set_enabled(true);
        assert!(enabled());
        count!("test.lifecycle.c");
        count!("test.lifecycle.c", 2);
        record!("test.lifecycle.h", 123);
        registry().rolling("test.lifecycle.roll_ns").record(900);
        let tid = next_trace_id();
        {
            let _req = ambient_guard(tid);
            assert_eq!(current_trace_id(), tid);
            let _g = span!("test.lifecycle.span_ns");
            let _inner = span!("test.lifecycle.inner_ns");
        }
        assert_eq!(current_trace_id(), TraceId::NONE, "guard restores on drop");
        let on = registry().snapshot();
        assert!(on.enabled);
        assert_eq!(on.counter("test.lifecycle.c"), 3);
        let h = &on.histograms["test.lifecycle.h"];
        assert_eq!(h.count, 1);
        assert_eq!(h.min, Some(123));
        let sp = &on.histograms["test.lifecycle.span_ns"];
        assert_eq!(sp.count, 1);
        assert_eq!(on.windowed["test.lifecycle.roll_ns"].count, 1);
        assert_eq!(on.windowed["test.lifecycle.roll_ns"].p50, Some(512));
        assert!(on
            .span_sites
            .iter()
            .any(|s| s.site == "test.lifecycle.span_ns" && s.count == 1));

        // The span records stitched into a tree: the inner span is a
        // child of the outer one and both carry the request's id.
        let (records, _) = snapshot_span_records();
        let outer = records
            .iter()
            .find(|r| r.site == "test.lifecycle.span_ns")
            .expect("outer span recorded");
        let inner = records
            .iter()
            .find(|r| r.site == "test.lifecycle.inner_ns")
            .expect("inner span recorded");
        assert_eq!(outer.trace_id, tid.0);
        assert_eq!(inner.trace_id, tid.0);
        assert_eq!(inner.parent, outer.seq, "nesting comes from the open stack");
        assert_eq!(outer.parent, 0, "outermost span is a root");

        registry().reset();
        let zeroed = registry().snapshot();
        assert_eq!(zeroed.counter("test.lifecycle.c"), 0);
        assert_eq!(zeroed.histograms["test.lifecycle.h"].count, 0);
        assert_eq!(zeroed.windowed["test.lifecycle.roll_ns"].count, 0);
        assert!(
            !zeroed
                .span_sites
                .iter()
                .any(|s| s.site.starts_with("test.lifecycle.")),
            "reset drains the span rings"
        );
        set_enabled(false);
    }
}
