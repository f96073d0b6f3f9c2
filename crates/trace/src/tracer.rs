//! The tracer: spans, instants and counter samples over per-thread
//! lock-free buffers.
//!
//! A [`Tracer`] is shared across the pipeline as `Arc<Tracer>`. Each
//! thread that emits through it gets its own [`EventBuf`] (registered
//! lazily through a thread-local), so the hot path never takes a lock or
//! contends on a shared cache line. Collection ([`Tracer::collect`])
//! snapshots every track into a [`TraceData`] that the exporters and the
//! summariser consume.
//!
//! Overhead discipline:
//! - **Disabled** mode never reads the clock and never allocates — every
//!   entry point returns after one enum match on `mode`.
//! - **Full** mode records every span, instant and counter sample; the
//!   per-thread ring capacity is the only bound, and what overflows it
//!   is counted in [`TraceData::dropped`].
//! - The VM interpreter loop itself is deliberately *not* instrumented:
//!   its counters already accumulate in `FastPathStats`, and the
//!   pipeline layer emits them as counter events after each run. That
//!   keeps the disabled-mode cost of the hottest loop at exactly zero.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::Instant;

use crate::ring::EventBuf;

/// How much a tracer records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// Record nothing; every entry point is a single branch.
    Disabled,
    /// Record everything.
    Full,
}

/// Event kind, mirroring the Chrome trace-event phases we export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// A complete span with a duration (`ph: "X"`).
    Span,
    /// A point-in-time marker (`ph: "i"`).
    Instant,
    /// A counter sample (`ph: "C"`).
    Counter,
}

/// Up to four numeric key/value arguments, inline (no allocation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Args {
    len: u8,
    pairs: [(&'static str, u64); 4],
}

impl Args {
    /// Builds from a slice; arguments beyond the fourth are ignored.
    pub fn from_slice(pairs: &[(&'static str, u64)]) -> Args {
        let mut args = Args::default();
        for &(k, v) in pairs.iter().take(4) {
            args.pairs[args.len as usize] = (k, v);
            args.len += 1;
        }
        args
    }

    /// The populated key/value pairs.
    pub fn entries(&self) -> &[(&'static str, u64)] {
        &self.pairs[..self.len as usize]
    }
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Start time, nanoseconds since the tracer's epoch.
    pub ts_ns: u64,
    /// Duration in nanoseconds (spans only; 0 otherwise).
    pub dur_ns: u64,
    /// Event kind.
    pub ph: Phase,
    /// Category (e.g. `"stage"`, `"cache"`, `"vm"`).
    pub cat: &'static str,
    /// Static name (e.g. `"measure"`, `"profile_hit"`).
    pub name: &'static str,
    /// Optional dynamic suffix (e.g. a region or worker label).
    pub label: Option<Box<str>>,
    /// Numeric arguments.
    pub args: Args,
}

impl Event {
    /// `"name label"` when labelled, else `"name"`.
    pub fn full_name(&self) -> String {
        match &self.label {
            Some(label) => format!("{} {}", self.name, label),
            None => self.name.to_string(),
        }
    }
}

/// Per-thread event sink: a buffer plus identity for the exporter.
pub struct ThreadTrack {
    /// Stable per-tracer thread index (0 is the registering order).
    tid: u64,
    name: Mutex<String>,
    buf: EventBuf,
}

impl ThreadTrack {
    fn new(tid: u64, name: String, capacity: usize) -> ThreadTrack {
        ThreadTrack {
            tid,
            name: Mutex::new(name),
            buf: EventBuf::new(capacity),
        }
    }
}

/// Snapshot of one thread's events.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackData {
    /// Per-tracer thread index.
    pub tid: u64,
    /// Thread display name.
    pub name: String,
    /// Events in emission order.
    pub events: Vec<Event>,
}

/// Snapshot of everything a tracer recorded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceData {
    /// One entry per thread that emitted events, ordered by `tid`.
    pub tracks: Vec<TrackData>,
    /// Events lost to buffer overflow, across all tracks.
    pub dropped: u64,
    /// Per-thread ring capacity the tracer recorded with (0 when
    /// unknown, e.g. a trace file written before this field existed).
    pub ring_capacity: u64,
}

impl TraceData {
    /// Total recorded events across all tracks.
    pub fn event_count(&self) -> usize {
        self.tracks.iter().map(|t| t.events.len()).sum()
    }
}

/// Default per-thread event budget (events, not bytes).
pub const DEFAULT_TRACK_CAPACITY: usize = 16 * 1024;

static NEXT_TRACER_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// (tracer id, track) pairs for this thread. Weak so a dropped
    /// tracer's tracks don't outlive it pinned in thread-locals.
    static TRACKS: RefCell<Vec<(u64, Weak<ThreadTrack>)>> = const { RefCell::new(Vec::new()) };
}

/// A span/event/counter recorder with per-thread lock-free buffers.
pub struct Tracer {
    id: u64,
    mode: TraceMode,
    capacity: usize,
    epoch: Instant,
    tracks: Mutex<Vec<Arc<ThreadTrack>>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("id", &self.id)
            .field("mode", &self.mode)
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

impl Tracer {
    /// Creates a tracer with the default per-thread capacity.
    pub fn new(mode: TraceMode) -> Tracer {
        Tracer::with_capacity(mode, DEFAULT_TRACK_CAPACITY)
    }

    /// Creates a tracer with an explicit per-thread event budget.
    pub fn with_capacity(mode: TraceMode, capacity: usize) -> Tracer {
        Tracer {
            id: NEXT_TRACER_ID.fetch_add(1, Ordering::Relaxed),
            mode,
            capacity,
            epoch: Instant::now(),
            tracks: Mutex::new(Vec::new()),
        }
    }

    /// The recording mode.
    pub fn mode(&self) -> TraceMode {
        self.mode
    }

    /// True unless the mode is [`TraceMode::Disabled`].
    pub fn enabled(&self) -> bool {
        self.mode != TraceMode::Disabled
    }

    /// Nanoseconds since this tracer was created.
    pub fn now_ns(&self) -> u64 {
        // u64 nanoseconds covers ~584 years of process uptime.
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Names the *current thread's* track (shown as the Perfetto lane
    /// name). Registers the track if the thread has not emitted yet.
    pub fn set_thread_name(&self, name: &str) {
        if let Some(track) = self.track() {
            *track.name.lock().unwrap() = name.to_string();
        }
    }

    /// Starts a span; it records itself when the guard drops.
    pub fn span(self: &Arc<Self>, cat: &'static str, name: &'static str) -> Span {
        self.span_inner(cat, name, None)
    }

    /// Starts a span with a dynamic label (e.g. a region id).
    pub fn span_labeled(
        self: &Arc<Self>,
        cat: &'static str,
        name: &'static str,
        label: impl Into<String>,
    ) -> Span {
        if !self.enabled() {
            // Skip the `Into<String>` work entirely when disabled.
            return Span::disabled();
        }
        self.span_inner(cat, name, Some(label.into().into_boxed_str()))
    }

    fn span_inner(
        self: &Arc<Self>,
        cat: &'static str,
        name: &'static str,
        label: Option<Box<str>>,
    ) -> Span {
        if !self.enabled() {
            return Span::disabled();
        }
        Span {
            tracer: Some(Arc::clone(self)),
            start_ns: self.now_ns(),
            cat,
            name,
            label,
            args: Args::default(),
        }
    }

    /// Records a point-in-time event.
    pub fn instant(&self, cat: &'static str, name: &'static str, args: &[(&'static str, u64)]) {
        if !self.enabled() {
            return;
        }
        self.record(Event {
            ts_ns: self.now_ns(),
            dur_ns: 0,
            ph: Phase::Instant,
            cat,
            name,
            label: None,
            args: Args::from_slice(args),
        });
    }

    /// Records a counter sample. Each named counter becomes a track in
    /// the Chrome export.
    pub fn counter(&self, cat: &'static str, name: &'static str, value: u64) {
        if !self.enabled() {
            return;
        }
        self.record(Event {
            ts_ns: self.now_ns(),
            dur_ns: 0,
            ph: Phase::Counter,
            cat,
            name,
            label: None,
            args: Args::from_slice(&[("value", value)]),
        });
    }

    fn record(&self, event: Event) {
        if let Some(track) = self.track() {
            track.buf.push(event);
        }
    }

    /// This thread's track, registering it on first use.
    fn track(&self) -> Option<Arc<ThreadTrack>> {
        if !self.enabled() {
            return None;
        }
        TRACKS.with(|cell| {
            let mut tracks = cell.borrow_mut();
            if let Some((_, weak)) = tracks.iter().find(|(id, _)| *id == self.id) {
                if let Some(track) = weak.upgrade() {
                    return Some(track);
                }
            }
            // Drop stale registrations (dead tracers, or the find above
            // hitting a dead weak) before adding a fresh one.
            tracks.retain(|(id, weak)| *id != self.id && weak.strong_count() > 0);
            let track = {
                let mut owned = self.tracks.lock().unwrap();
                let tid = owned.len() as u64;
                let name = std::thread::current()
                    .name()
                    .map(str::to_string)
                    .unwrap_or_else(|| format!("thread-{tid}"));
                let track = Arc::new(ThreadTrack::new(tid, name, self.capacity));
                owned.push(Arc::clone(&track));
                track
            };
            tracks.push((self.id, Arc::downgrade(&track)));
            Some(track)
        })
    }

    /// Snapshots every track. Safe to call while other threads keep
    /// emitting; each track yields a consistent prefix.
    pub fn collect(&self) -> TraceData {
        let tracks = self.tracks.lock().unwrap();
        let mut dropped = 0;
        let data = tracks
            .iter()
            .map(|t| {
                dropped += t.buf.dropped();
                TrackData {
                    tid: t.tid,
                    name: t.name.lock().unwrap().clone(),
                    events: t.buf.snapshot(),
                }
            })
            .collect();
        TraceData {
            tracks: data,
            dropped,
            ring_capacity: self.capacity as u64,
        }
    }
}

/// RAII span guard: records a [`Phase::Span`] event when dropped.
#[must_use = "a span measures the scope it lives in; dropping it immediately records nothing useful"]
pub struct Span {
    tracer: Option<Arc<Tracer>>,
    start_ns: u64,
    cat: &'static str,
    name: &'static str,
    label: Option<Box<str>>,
    args: Args,
}

impl Span {
    /// An inert guard (used when tracing is disabled or absent).
    pub fn disabled() -> Span {
        Span {
            tracer: None,
            start_ns: 0,
            cat: "",
            name: "",
            label: None,
            args: Args::default(),
        }
    }

    /// Attaches a numeric argument (up to four are kept).
    pub fn arg(&mut self, key: &'static str, value: u64) {
        if self.tracer.is_some() && (self.args.len as usize) < self.args.pairs.len() {
            self.args.pairs[self.args.len as usize] = (key, value);
            self.args.len += 1;
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(tracer) = self.tracer.take() {
            let end = tracer.now_ns();
            tracer.record(Event {
                ts_ns: self.start_ns,
                dur_ns: end.saturating_sub(self.start_ns),
                ph: Phase::Span,
                cat: self.cat,
                name: self.name,
                label: self.label.take(),
                args: self.args,
            });
        }
    }
}

/// Starts a span on an optional tracer — the common call-site shape in
/// instrumented code that must also run untraced.
pub fn maybe_span(tracer: Option<&Arc<Tracer>>, cat: &'static str, name: &'static str) -> Span {
    match tracer {
        Some(t) => t.span(cat, name),
        None => Span::disabled(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Arc::new(Tracer::new(TraceMode::Disabled));
        {
            let mut span = tracer.span("stage", "measure");
            span.arg("n", 3);
        }
        tracer.instant("cache", "hit", &[]);
        tracer.counter("vm", "insns", 42);
        let data = tracer.collect();
        assert_eq!(data.event_count(), 0);
        assert!(data.tracks.is_empty());
        assert_eq!(data.dropped, 0);
    }

    #[test]
    fn spans_instants_and_counters_are_collected() {
        let tracer = Arc::new(Tracer::new(TraceMode::Full));
        {
            let mut span = tracer.span_labeled("stage", "measure", "region-3");
            span.arg("insns", 100);
            tracer.instant("cache", "profile_hit", &[("tier", 1)]);
        }
        tracer.counter("vm", "guest_insns", 12345);
        let data = tracer.collect();
        assert_eq!(data.tracks.len(), 1);
        let events = &data.tracks[0].events;
        assert_eq!(events.len(), 3);
        // The instant fires before the span guard drops.
        assert_eq!(events[0].ph, Phase::Instant);
        assert_eq!(events[0].args.entries(), &[("tier", 1)]);
        let span = events.iter().find(|e| e.ph == Phase::Span).unwrap();
        assert_eq!(span.full_name(), "measure region-3");
        assert_eq!(span.args.entries(), &[("insns", 100)]);
        let counter = events.iter().find(|e| e.ph == Phase::Counter).unwrap();
        assert_eq!(counter.args.entries(), &[("value", 12345)]);
    }

    #[test]
    fn span_timestamps_are_ordered() {
        let tracer = Arc::new(Tracer::new(TraceMode::Full));
        {
            let _outer = tracer.span("stage", "outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            let _inner = tracer.span("stage", "inner");
        }
        let data = tracer.collect();
        let events = &data.tracks[0].events;
        let outer = events.iter().find(|e| e.name == "outer").unwrap();
        let inner = events.iter().find(|e| e.name == "inner").unwrap();
        assert!(outer.ts_ns <= inner.ts_ns);
        assert!(outer.ts_ns + outer.dur_ns >= inner.ts_ns + inner.dur_ns);
        assert!(outer.dur_ns >= 2_000_000);
    }

    #[test]
    fn each_thread_gets_its_own_track() {
        let tracer = Arc::new(Tracer::new(TraceMode::Full));
        tracer.set_thread_name("main");
        tracer.instant("t", "main_event", &[]);
        std::thread::scope(|scope| {
            for i in 0..3u64 {
                let tracer = Arc::clone(&tracer);
                scope.spawn(move || {
                    tracer.set_thread_name(&format!("worker-{i}"));
                    for _ in 0..=i {
                        tracer.instant("t", "worker_event", &[]);
                    }
                });
            }
        });
        let data = tracer.collect();
        assert_eq!(data.tracks.len(), 4);
        let main = data.tracks.iter().find(|t| t.name == "main").unwrap();
        assert_eq!(main.events.len(), 1);
        let mut worker_events: Vec<usize> = data
            .tracks
            .iter()
            .filter(|t| t.name.starts_with("worker-"))
            .map(|t| t.events.len())
            .collect();
        worker_events.sort_unstable();
        assert_eq!(worker_events, vec![1, 2, 3]);
        // tids are unique and dense.
        let mut tids: Vec<u64> = data.tracks.iter().map(|t| t.tid).collect();
        tids.sort_unstable();
        assert_eq!(tids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn two_tracers_on_one_thread_do_not_mix() {
        let a = Arc::new(Tracer::new(TraceMode::Full));
        let b = Arc::new(Tracer::new(TraceMode::Full));
        a.instant("t", "for_a", &[]);
        b.instant("t", "for_b", &[]);
        a.instant("t", "for_a", &[]);
        assert_eq!(a.collect().event_count(), 2);
        assert_eq!(b.collect().event_count(), 1);
    }

    #[test]
    fn dropped_tracer_track_is_reclaimed_on_next_use() {
        // Many short-lived tracers on one thread must not grow the
        // thread-local registry without bound.
        for _ in 0..64 {
            let t = Arc::new(Tracer::new(TraceMode::Full));
            t.instant("t", "e", &[]);
            assert_eq!(t.collect().event_count(), 1);
        }
        TRACKS.with(|cell| {
            let live = cell
                .borrow()
                .iter()
                .filter(|(_, w)| w.strong_count() > 0)
                .count();
            assert_eq!(live, 0);
        });
    }

    #[test]
    fn overflow_is_counted_in_collect() {
        let tracer = Arc::new(Tracer::with_capacity(TraceMode::Full, 4));
        for _ in 0..10 {
            tracer.instant("t", "e", &[]);
        }
        let data = tracer.collect();
        assert_eq!(data.event_count(), 4);
        assert_eq!(data.dropped, 6);
    }
}
