//! Request-scoped span trees: per-thread span rings, `TraceId`
//! correlation, and flamegraph/Chrome exports.
//!
//! When tracing is on, every `span!` site — in addition to recording
//! its duration into the cumulative histogram — appends one
//! [`SpanRecord`] `(site, parent, start_ns, dur_ns, trace_id)` into a
//! **bounded per-thread ring**. Parenthood comes from a thread-local
//! stack of open spans (RAII nesting), and the trace id from a
//! thread-local *ambient* id that request handlers set for the
//! duration of one request ([`ambient_guard`]); `kpa-pool` forwards
//! the submitter's ambient id into its workers so chunk spans executed
//! on other threads still stitch into the right request tree.
//!
//! Rings are registered globally on first use per thread, so a
//! collector ([`snapshot_span_records`] / [`take_span_records`]) can
//! gather every thread's records; [`stitch_span_trees`] groups them
//! by trace id and rebuilds the call trees, which export as Chrome
//! `trace_event` JSON ([`spans_to_chrome_json`]) or flamegraph-foldable
//! stacks ([`spans_to_folded`]).
//!
//! While tracing is disabled none of this runs — the `span!` macro's
//! disabled arm is still exactly one relaxed load and a branch. While
//! enabled, recording costs one uncontended mutex lock on the thread's
//! own ring (the collector is the only other party that ever takes
//! it). Each per-thread ring holds [`SPAN_RING_CAPACITY`] records.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::metrics::Histogram;
use crate::report::json_escape;

/// Per-thread span-ring capacity (records; oldest evicted and counted
/// as dropped past this).
pub const SPAN_RING_CAPACITY: usize = 4096;

/// A request-correlation id. `0` ([`TraceId::NONE`]) means "no request
/// context"; real ids are allocated process-monotonically by
/// [`next_trace_id`] and never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The absent id: spans recorded outside any request carry it.
    pub const NONE: TraceId = TraceId(0);

    /// Is this a real (request-scoped) id?
    #[must_use]
    pub fn is_some(self) -> bool {
        self.0 != 0
    }

    /// The wire form: 16 hex digits, matching the serve protocol's
    /// bit-faithful word encoding.
    #[must_use]
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parse the wire form back ([`TraceId::to_hex`]'s inverse).
    #[must_use]
    pub fn from_hex(s: &str) -> Option<TraceId> {
        (s.len() == 16)
            .then(|| u64::from_str_radix(s, 16).ok())
            .flatten()
            .map(TraceId)
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Allocate the next process-unique trace id (never [`TraceId::NONE`]).
pub fn next_trace_id() -> TraceId {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    TraceId(NEXT.fetch_add(1, Ordering::Relaxed))
}

/// One finished span, as recorded into a thread ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The `span!` site's histogram name (interned; `'static`).
    pub site: &'static str,
    /// Process-unique span sequence number.
    pub seq: u64,
    /// `seq` of the enclosing open span on the same thread, `0` for
    /// roots.
    pub parent: u64,
    /// Start time, nanoseconds since the registry epoch.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
    /// The ambient [`TraceId`] when the span opened (`0` = none).
    pub trace_id: u64,
    /// Recording thread's ring index (stable per thread, first-use
    /// order).
    pub thread: u64,
}

/// A `span!` call site: the cumulative histogram plus the interned
/// site name, cached together behind the macro's `OnceLock`.
#[derive(Debug)]
pub struct SpanSite {
    pub(crate) name: &'static str,
    pub(crate) hist: &'static Histogram,
}

impl SpanSite {
    pub(crate) fn new(name: &'static str, hist: &'static Histogram) -> SpanSite {
        SpanSite { name, hist }
    }

    /// The site's (histogram) name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The site's cumulative duration histogram.
    #[must_use]
    pub fn histogram(&self) -> &'static Histogram {
        self.hist
    }
}

struct RingState {
    records: VecDeque<SpanRecord>,
    dropped: u64,
}

struct ThreadRing {
    index: u64,
    state: Mutex<RingState>,
}

impl ThreadRing {
    fn push(&self, record: SpanRecord) {
        let mut state = self.state.lock().expect("span ring");
        if state.records.len() >= SPAN_RING_CAPACITY {
            state.records.pop_front();
            state.dropped += 1;
        }
        state.records.push_back(record);
    }
}

/// Every thread's ring, registration order = thread index order.
fn rings() -> &'static Mutex<Vec<Arc<ThreadRing>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<ThreadRing>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    /// This thread's ring (registered globally on first use).
    static LOCAL_RING: RefCell<Option<Arc<ThreadRing>>> = const { RefCell::new(None) };
    /// Stack of open recorded spans (their `seq`s), for parenthood.
    static OPEN_SPANS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// The ambient request id spans record under.
    static AMBIENT: Cell<u64> = const { Cell::new(0) };
}

fn local_ring() -> Arc<ThreadRing> {
    LOCAL_RING.with(|slot| {
        let mut slot = slot.borrow_mut();
        if let Some(ring) = slot.as_ref() {
            return Arc::clone(ring);
        }
        static NEXT_INDEX: AtomicU64 = AtomicU64::new(0);
        let ring = Arc::new(ThreadRing {
            index: NEXT_INDEX.fetch_add(1, Ordering::Relaxed),
            state: Mutex::new(RingState {
                records: VecDeque::new(),
                dropped: 0,
            }),
        });
        rings().lock().expect("span rings").push(Arc::clone(&ring));
        *slot = Some(Arc::clone(&ring));
        ring
    })
}

/// The current thread's ambient trace id ([`TraceId::NONE`] outside
/// any request).
#[must_use]
pub fn current_trace_id() -> TraceId {
    TraceId(AMBIENT.with(Cell::get))
}

/// RAII guard restoring the previous ambient trace id on drop.
/// Obtained from [`ambient_guard`].
#[derive(Debug)]
#[must_use = "the ambient id reverts when this guard drops"]
pub struct AmbientGuard {
    previous: Option<u64>,
}

impl Drop for AmbientGuard {
    fn drop(&mut self) {
        if let Some(previous) = self.previous.take() {
            AMBIENT.with(|cell| cell.set(previous));
        }
    }
}

/// Set the thread's ambient trace id for the guard's lifetime. While
/// tracing is disabled this is a no-op costing one relaxed load, so
/// request handlers can install it unconditionally.
pub fn ambient_guard(id: TraceId) -> AmbientGuard {
    if !crate::enabled() {
        return AmbientGuard { previous: None };
    }
    let previous = AMBIENT.with(|cell| cell.replace(id.0));
    AmbientGuard {
        previous: Some(previous),
    }
}

/// An open, recorded span: created by `Span` when tracing is on,
/// finished (with the measured duration) on drop.
#[derive(Debug)]
pub(crate) struct ActiveSpan {
    site: &'static str,
    seq: u64,
    parent: u64,
    start_ns: u64,
    trace_id: u64,
}

impl ActiveSpan {
    /// Open a recorded span at `site`, pushing it on the thread's open
    /// stack.
    pub(crate) fn begin(site: &'static str) -> ActiveSpan {
        static SEQ: AtomicU64 = AtomicU64::new(1);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN_SPANS.with(|stack| {
            let mut stack = stack.borrow_mut();
            let parent = stack.last().copied().unwrap_or(0);
            stack.push(seq);
            parent
        });
        ActiveSpan {
            site,
            seq,
            parent,
            start_ns: crate::registry().now_ns(),
            trace_id: AMBIENT.with(Cell::get),
        }
    }

    /// Close the span with its measured duration and append the record
    /// to this thread's ring.
    pub(crate) fn finish(self, dur_ns: u64) {
        OPEN_SPANS.with(|stack| {
            let mut stack = stack.borrow_mut();
            // RAII drop order makes this the top of the stack; an
            // out-of-order drop (a span moved out of its scope) is
            // tolerated by removing it wherever it sits.
            if let Some(pos) = stack.iter().rposition(|&seq| seq == self.seq) {
                stack.remove(pos);
            }
        });
        let ring = local_ring();
        ring.push(SpanRecord {
            site: self.site,
            seq: self.seq,
            parent: self.parent,
            start_ns: self.start_ns,
            dur_ns,
            trace_id: self.trace_id,
            thread: ring.index,
        });
    }
}

fn collect(drain: bool) -> (Vec<SpanRecord>, u64) {
    let rings = rings().lock().expect("span rings");
    let mut out = Vec::new();
    let mut dropped = 0;
    for ring in rings.iter() {
        let mut state = ring.state.lock().expect("span ring");
        dropped += state.dropped;
        if drain {
            out.extend(state.records.drain(..));
            state.dropped = 0;
        } else {
            out.extend(state.records.iter().cloned());
        }
    }
    out.sort_by_key(|r| (r.start_ns, r.seq));
    (out, dropped)
}

/// A non-draining copy of every thread's span records, sorted by
/// start time. The second element counts records evicted from full
/// rings since the last drain.
#[must_use]
pub fn snapshot_span_records() -> (Vec<SpanRecord>, u64) {
    collect(false)
}

/// Drain every thread's span ring (and reset the dropped counts),
/// returning the records sorted by start time — the export path for
/// one run's span dump.
#[must_use]
pub fn take_span_records() -> (Vec<SpanRecord>, u64) {
    collect(true)
}

/// Empty every ring without returning the records (`Registry::reset`).
pub(crate) fn reset_spans() {
    let _ = collect(true);
}

/// One node of a stitched span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// The span itself.
    pub record: SpanRecord,
    /// Child spans (opened while this one was open), start-ordered.
    pub children: Vec<SpanNode>,
}

/// All spans of one request, stitched into call trees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanTree {
    /// The request's [`TraceId`] value (`0` collects ambient-less
    /// spans).
    pub trace_id: u64,
    /// Root spans (no surviving parent record), start-ordered.
    pub roots: Vec<SpanNode>,
}

/// Group records by trace id and rebuild each request's call trees
/// from the parent links. A child whose parent record was evicted
/// from its ring is promoted to a root rather than lost.
#[must_use]
pub fn stitch_span_trees(records: &[SpanRecord]) -> Vec<SpanTree> {
    let mut by_trace: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    for record in records {
        by_trace.entry(record.trace_id).or_default().push(record);
    }
    by_trace
        .into_iter()
        .map(|(trace_id, group)| {
            let present: std::collections::BTreeSet<u64> = group.iter().map(|r| r.seq).collect();
            // Children grouped under each parent, then built desc-first.
            let mut children: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
            let mut roots: Vec<&SpanRecord> = Vec::new();
            for record in &group {
                if record.parent != 0 && present.contains(&record.parent) {
                    children.entry(record.parent).or_default().push(record);
                } else {
                    roots.push(record);
                }
            }
            fn build(record: &SpanRecord, children: &BTreeMap<u64, Vec<&SpanRecord>>) -> SpanNode {
                let kids = children
                    .get(&record.seq)
                    .map(|kids| kids.iter().map(|k| build(k, children)).collect())
                    .unwrap_or_default();
                SpanNode {
                    record: record.clone(),
                    children: kids,
                }
            }
            SpanTree {
                trace_id,
                roots: roots.iter().map(|r| build(r, &children)).collect(),
            }
        })
        .collect()
}

/// Per-site aggregate over a batch of span records, hottest first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSiteStat {
    /// The `span!` site name.
    pub site: &'static str,
    /// Recorded spans at this site.
    pub count: u64,
    /// Total nanoseconds across those spans.
    pub total_ns: u64,
    /// Longest single span.
    pub max_ns: u64,
}

/// Aggregate records site-by-site, sorted by total time descending
/// (ties broken by name for determinism) — the "hottest span sites"
/// view `kpa-top` and the `metrics` op serve.
#[must_use]
pub fn span_site_stats(records: &[SpanRecord]) -> Vec<SpanSiteStat> {
    let mut by_site: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for record in records {
        let entry = by_site.entry(record.site).or_insert((0, 0, 0));
        entry.0 += 1;
        entry.1 += record.dur_ns;
        entry.2 = entry.2.max(record.dur_ns);
    }
    let mut stats: Vec<SpanSiteStat> = by_site
        .into_iter()
        .map(|(site, (count, total_ns, max_ns))| SpanSiteStat {
            site,
            count,
            total_ns,
            max_ns,
        })
        .collect();
    stats.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.site.cmp(b.site)));
    stats
}

/// Export records as Chrome `trace_event` JSON (load in
/// `chrome://tracing` or Perfetto): one complete (`"ph": "X"`) event
/// per span, microsecond timestamps relative to the registry epoch,
/// the ring index as the tid, and the trace id in `args`.
#[must_use]
pub fn spans_to_chrome_json(records: &[SpanRecord]) -> String {
    let mut s = String::with_capacity(64 + records.len() * 96);
    s.push_str("{\"traceEvents\":[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\n{{\"name\":{},\"cat\":\"kpa\",\"ph\":\"X\",\"ts\":{}.{:03},\
             \"dur\":{}.{:03},\"pid\":1,\"tid\":{},\"args\":{{\"trace_id\":\"{:016x}\",\
             \"seq\":{},\"parent\":{}}}}}",
            json_escape(r.site),
            r.start_ns / 1_000,
            r.start_ns % 1_000,
            r.dur_ns / 1_000,
            r.dur_ns % 1_000,
            r.thread,
            r.trace_id,
            r.seq,
            r.parent,
        );
    }
    if !records.is_empty() {
        s.push('\n');
    }
    s.push_str("],\"displayTimeUnit\":\"ns\"}\n");
    s
}

/// Export stitched trees as flamegraph-foldable stacks: one
/// `root;child;leaf self_ns` line per node, where self time is the
/// span's duration minus its children's (clamped at zero). Feed to
/// `flamegraph.pl` or any FlameGraph-compatible renderer.
#[must_use]
pub fn spans_to_folded(trees: &[SpanTree]) -> String {
    fn walk(node: &SpanNode, prefix: &str, out: &mut String) {
        let path = if prefix.is_empty() {
            node.record.site.to_owned()
        } else {
            format!("{prefix};{}", node.record.site)
        };
        let child_ns: u64 = node.children.iter().map(|c| c.record.dur_ns).sum();
        let self_ns = node.record.dur_ns.saturating_sub(child_ns);
        let _ = writeln!(out, "{path} {self_ns}");
        for child in &node.children {
            walk(child, &path, out);
        }
    }
    let mut out = String::new();
    for tree in trees {
        for root in &tree.roots {
            walk(root, "", &mut out);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(site: &'static str, seq: u64, parent: u64, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            site,
            seq,
            parent,
            start_ns: start,
            dur_ns: dur,
            trace_id: 7,
            thread: 0,
        }
    }

    #[test]
    fn trace_ids_are_unique_and_round_trip_hex() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert!(a.is_some() && b.is_some());
        assert_ne!(a, b);
        assert!(!TraceId::NONE.is_some());
        let hex = a.to_hex();
        assert_eq!(hex.len(), 16);
        assert_eq!(TraceId::from_hex(&hex), Some(a));
        assert_eq!(format!("{a}"), hex);
        assert_eq!(TraceId::from_hex("xyz"), None);
        assert_eq!(TraceId::from_hex("00zz000000000000"), None);
    }

    #[test]
    fn stitching_rebuilds_nesting_and_promotes_orphans() {
        let records = vec![
            rec("root", 1, 0, 0, 100),
            rec("child", 2, 1, 10, 30),
            rec("grandchild", 3, 2, 12, 5),
            rec("sibling", 4, 1, 50, 20),
            // Parent 99 was evicted from its ring: promoted to root.
            rec("orphan", 5, 99, 80, 7),
        ];
        let trees = stitch_span_trees(&records);
        assert_eq!(trees.len(), 1);
        let tree = &trees[0];
        assert_eq!(tree.trace_id, 7);
        assert_eq!(tree.roots.len(), 2, "true root plus the orphan");
        let root = &tree.roots[0];
        assert_eq!(root.record.site, "root");
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[0].record.site, "child");
        assert_eq!(root.children[0].children[0].record.site, "grandchild");
        assert_eq!(tree.roots[1].record.site, "orphan");
    }

    #[test]
    fn stitching_separates_trace_ids() {
        let mut a = rec("a", 1, 0, 0, 10);
        a.trace_id = 1;
        let mut b = rec("b", 2, 0, 5, 10);
        b.trace_id = 2;
        let trees = stitch_span_trees(&[a, b]);
        assert_eq!(trees.len(), 2);
        assert_eq!(trees[0].trace_id, 1);
        assert_eq!(trees[1].trace_id, 2);
    }

    #[test]
    fn site_stats_rank_by_total_time() {
        let records = vec![
            rec("cold", 1, 0, 0, 10),
            rec("hot", 2, 0, 0, 100),
            rec("hot", 3, 0, 0, 300),
        ];
        let stats = span_site_stats(&records);
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].site, "hot");
        assert_eq!(stats[0].count, 2);
        assert_eq!(stats[0].total_ns, 400);
        assert_eq!(stats[0].max_ns, 300);
        assert_eq!(stats[1].site, "cold");
    }

    #[test]
    fn chrome_export_is_wellformed_trace_event_json() {
        let records = vec![rec("a.b_ns", 1, 0, 1_500, 2_250), rec("c", 2, 1, 2_000, 10)];
        let json = spans_to_chrome_json(&records);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"a.b_ns\""));
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.contains("\"dur\":2.250"));
        assert!(json.contains("\"trace_id\":\"0000000000000007\""));
        assert!(json.contains("\"parent\":1"));
        let opens = json.matches('{').count() + json.matches('[').count();
        let closes = json.matches('}').count() + json.matches(']').count();
        assert_eq!(opens, closes);
        assert!(spans_to_chrome_json(&[]).contains("\"traceEvents\":[]"));
    }

    #[test]
    fn folded_export_subtracts_child_time() {
        let records = vec![rec("root", 1, 0, 0, 100), rec("child", 2, 1, 10, 30)];
        let folded = spans_to_folded(&stitch_span_trees(&records));
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines, vec!["root 70", "root;child 30"]);
    }

    #[test]
    fn ring_bounds_and_drops() {
        let ring = ThreadRing {
            index: 0,
            state: Mutex::new(RingState {
                records: VecDeque::new(),
                dropped: 0,
            }),
        };
        let pushed = SPAN_RING_CAPACITY as u64 + 3;
        for seq in 1..=pushed {
            ring.push(rec("x", seq, 0, seq, 1));
        }
        let state = ring.state.lock().unwrap();
        assert_eq!(state.records.len(), SPAN_RING_CAPACITY);
        assert_eq!(state.dropped, 3);
        assert_eq!(state.records.front().unwrap().seq, 4, "oldest evicted");
    }
}
