//! Trace aggregation: fold a timeline back into per-stage / per-worker
//! totals.
//!
//! The summary is built from a Chrome trace-event document written by
//! [`chrome_trace`], which is what `elfie trace summarize out.json`
//! reads, so a trace file is self-contained. Spans aggregate under their
//! base name (the static part before any dynamic label), per-thread busy
//! time is the union of span intervals (so nested spans are not double
//! counted), and each counter reports its sample with the latest
//! timestamp across all threads.
//!
//! [`chrome_trace`]: crate::chrome::chrome_trace

use std::collections::BTreeMap;
use std::fmt;

use crate::json::Json;
use crate::tracer::{Phase, TraceData};

/// Aggregate statistics for one span name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanAgg {
    /// Number of completed spans.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Shortest span.
    pub min_ns: u64,
    /// Longest span.
    pub max_ns: u64,
}

impl SpanAgg {
    fn observe(&mut self, dur_ns: u64) {
        self.count = self.count.saturating_add(1);
        self.total_ns = self.total_ns.saturating_add(dur_ns);
        self.min_ns = self.min_ns.min(dur_ns);
        self.max_ns = self.max_ns.max(dur_ns);
    }

    /// Mean duration (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// Per-thread aggregate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadAgg {
    /// Thread display name.
    pub name: String,
    /// Events on this thread (all phases).
    pub events: u64,
    /// Completed spans on this thread.
    pub spans: u64,
    /// Union of span intervals — time the thread was inside at least
    /// one span, with nesting counted once.
    pub busy_ns: u64,
}

/// A per-stage / per-worker rollup of a trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Threads in tid order.
    pub threads: Vec<ThreadAgg>,
    /// Span aggregates keyed by base name.
    pub spans: BTreeMap<String, SpanAgg>,
    /// Instant-event counts keyed by base name.
    pub instants: BTreeMap<String, u64>,
    /// Last sample of each counter track.
    pub counters: BTreeMap<String, u64>,
    /// Events lost to ring-buffer overflow.
    pub dropped: u64,
    /// Per-thread ring capacity the trace was recorded with (0 when the
    /// source predates this field).
    pub ring_capacity: u64,
}

/// Sums the lengths of the union of `[start, end)` intervals.
fn interval_union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (start, end) in intervals {
        match cur {
            Some((s, e)) if start <= e => cur = Some((s, e.max(end))),
            Some((s, e)) => {
                total = total.saturating_add(e - s);
                cur = Some((start, end));
            }
            None => cur = Some((start, end)),
        }
    }
    if let Some((s, e)) = cur {
        total = total.saturating_add(e - s);
    }
    total
}

/// The static part of an exported event name (before the ` label`).
fn base_name(full: &str) -> &str {
    full.split(' ').next().unwrap_or(full)
}

impl TraceSummary {
    /// Builds a summary from a parsed Chrome trace-event document.
    ///
    /// # Errors
    /// Returns a description of the first structural problem.
    pub fn from_chrome_json(doc: &Json) -> Result<TraceSummary, String> {
        let events = doc
            .field("traceEvents")?
            .as_arr()
            .ok_or("`traceEvents` is not an array")?;
        let mut summary = TraceSummary {
            dropped: doc
                .get("otherData")
                .and_then(|o| o.get("dropped_events"))
                .and_then(Json::as_u64)
                .unwrap_or(0),
            ring_capacity: doc
                .get("otherData")
                .and_then(|o| o.get("ring_capacity"))
                .and_then(Json::as_u64)
                .unwrap_or(0),
            ..TraceSummary::default()
        };
        // tid -> (name, events, spans, intervals, last counter ts per name)
        struct Thread {
            name: String,
            events: u64,
            spans: u64,
            intervals: Vec<(u64, u64)>,
        }
        let mut threads: BTreeMap<u64, Thread> = BTreeMap::new();
        let mut counter_ts: BTreeMap<String, f64> = BTreeMap::new();
        let ns = |v: &Json| -> u64 { (v.as_f64().unwrap_or(0.0) * 1000.0).round() as u64 };
        for (i, event) in events.iter().enumerate() {
            let err = |e: String| format!("event {i}: {e}");
            let ph = event
                .field("ph")
                .map_err(&err)?
                .as_str()
                .ok_or_else(|| err("`ph` is not a string".into()))?;
            let tid = event
                .field("tid")
                .map_err(&err)?
                .as_u64()
                .ok_or_else(|| err("`tid` is not an integer".into()))?;
            let name = event
                .field("name")
                .map_err(&err)?
                .as_str()
                .ok_or_else(|| err("`name` is not a string".into()))?;
            let thread = threads.entry(tid).or_insert_with(|| Thread {
                name: format!("thread-{tid}"),
                events: 0,
                spans: 0,
                intervals: Vec::new(),
            });
            match ph {
                "M" => {
                    if name == "thread_name" {
                        if let Some(n) = event
                            .get("args")
                            .and_then(|a| a.get("name"))
                            .and_then(Json::as_str)
                        {
                            thread.name = n.to_string();
                        }
                    }
                }
                "X" => {
                    let ts = ns(event.field("ts").map_err(&err)?);
                    let dur = ns(event.field("dur").map_err(&err)?);
                    thread.events += 1;
                    thread.spans += 1;
                    thread.intervals.push((ts, ts.saturating_add(dur)));
                    summary.observe_span(base_name(name), dur);
                }
                "i" => {
                    thread.events += 1;
                    *summary
                        .instants
                        .entry(base_name(name).to_string())
                        .or_default() += 1;
                }
                "C" => {
                    thread.events += 1;
                    let ts = event.get("ts").map(ns).unwrap_or(0) as f64;
                    let value = event
                        .get("args")
                        .and_then(|a| a.as_obj())
                        .and_then(|fields| fields.first())
                        .and_then(|(_, v)| v.as_u64())
                        .unwrap_or(0);
                    // Counter events may interleave across threads; keep
                    // the one with the latest timestamp.
                    let key = base_name(name).to_string();
                    if counter_ts.get(&key).map_or(true, |&prev| ts >= prev) {
                        counter_ts.insert(key.clone(), ts);
                        summary.counters.insert(key, value);
                    }
                }
                other => return Err(err(format!("unknown phase `{other}`"))),
            }
        }
        for (_, thread) in threads {
            summary.threads.push(ThreadAgg {
                name: thread.name,
                events: thread.events,
                spans: thread.spans,
                busy_ns: interval_union_ns(thread.intervals),
            });
        }
        Ok(summary)
    }

    fn observe_span(&mut self, name: &str, dur_ns: u64) {
        self.spans
            .entry(name.to_string())
            .or_insert(SpanAgg {
                count: 0,
                total_ns: 0,
                min_ns: u64::MAX,
                max_ns: 0,
            })
            .observe(dur_ns);
    }

    /// Total events across all threads.
    pub fn event_count(&self) -> u64 {
        self.threads.iter().map(|t| t.events).sum()
    }
}

/// Durations of every completed span whose base name is `base`, across
/// all threads, sorted ascending — the input shape [`percentile_ns`]
/// expects. Fleet-style harnesses use this to turn per-job spans into
/// latency distributions.
pub fn span_durations_ns(data: &TraceData, base: &str) -> Vec<u64> {
    let mut durations: Vec<u64> = data
        .tracks
        .iter()
        .flat_map(|track| track.events.iter())
        .filter(|event| event.ph == Phase::Span && base_name(event.name) == base)
        .map(|event| event.dur_ns)
        .collect();
    durations.sort_unstable();
    durations
}

/// One span matching a request-id filter — a link in a request's causal
/// chain across client and daemon traces.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestSpan {
    /// Start, microseconds since the source tracer's epoch.
    pub ts_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Display name of the thread the span ran on.
    pub thread: String,
    /// Span name (including any dynamic label).
    pub name: String,
    /// Span category.
    pub cat: String,
    /// Nanoseconds the request's job waited in a shard queue — the
    /// `queue_ns` argument a daemon's job span carries; `None` elsewhere.
    pub queue_ns: Option<u64>,
}

/// Extracts every span in a parsed Chrome trace document whose
/// `args.request_id` equals `rid`, ordered by start time — the engine
/// behind `elfie trace summarize --request ID`. Each trace file has its
/// own epoch, so chains from different files (client vs daemon) order
/// within a file, not across files.
///
/// # Errors
/// Returns a description of the first structural problem.
pub fn request_chain(doc: &Json, rid: u64) -> Result<Vec<RequestSpan>, String> {
    let events = doc
        .field("traceEvents")?
        .as_arr()
        .ok_or("`traceEvents` is not an array")?;
    // First pass: thread names from the "M" metadata lane.
    let mut names: BTreeMap<u64, String> = BTreeMap::new();
    for event in events {
        if event.get("ph").and_then(Json::as_str) == Some("M")
            && event.get("name").and_then(Json::as_str) == Some("thread_name")
        {
            if let (Some(tid), Some(name)) = (
                event.get("tid").and_then(Json::as_u64),
                event
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str),
            ) {
                names.insert(tid, name.to_string());
            }
        }
    }
    let mut chain = Vec::new();
    for (i, event) in events.iter().enumerate() {
        if event.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        let arg = |key: &str| {
            event
                .get("args")
                .and_then(|a| a.get(key))
                .and_then(Json::as_u64)
        };
        if arg("request_id") != Some(rid) {
            continue;
        }
        let err = |e: String| format!("event {i}: {e}");
        let tid = event
            .field("tid")
            .map_err(&err)?
            .as_u64()
            .ok_or_else(|| err("`tid` is not an integer".into()))?;
        chain.push(RequestSpan {
            ts_us: event
                .field("ts")
                .map_err(&err)?
                .as_f64()
                .ok_or_else(|| err("`ts` is not a number".into()))?,
            dur_us: event
                .field("dur")
                .map_err(&err)?
                .as_f64()
                .ok_or_else(|| err("`dur` is not a number".into()))?,
            thread: names
                .get(&tid)
                .cloned()
                .unwrap_or_else(|| format!("thread-{tid}")),
            name: event
                .field("name")
                .map_err(&err)?
                .as_str()
                .ok_or_else(|| err("`name` is not a string".into()))?
                .to_string(),
            cat: event
                .get("cat")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            queue_ns: arg("queue_ns"),
        });
    }
    chain.sort_by(|a, b| a.ts_us.total_cmp(&b.ts_us));
    Ok(chain)
}

/// Nearest-rank percentile (`p` in `[0, 100]`) over an ascending-sorted
/// slice; 0 when empty. `percentile_ns(&d, 50.0)` is the median,
/// `percentile_ns(&d, 100.0)` the maximum.
pub fn percentile_ns(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p.clamp(0.0, 100.0) / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

impl fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "trace: {} events on {} thread{}, {} dropped",
            self.event_count(),
            self.threads.len(),
            if self.threads.len() == 1 { "" } else { "s" },
            self.dropped
        )?;
        if self.dropped > 0 {
            writeln!(
                f,
                "  warning: {} event{} dropped (per-thread rings overflowed; raise the ring capacity)",
                self.dropped,
                if self.dropped == 1 { "" } else { "s" }
            )?;
        }
        for t in &self.threads {
            write!(
                f,
                "  thread {}: {} events, {} spans, {:.3}s busy",
                t.name,
                t.events,
                t.spans,
                secs(t.busy_ns)
            )?;
            if self.ring_capacity > 0 {
                writeln!(
                    f,
                    ", ring {}/{} ({:.1}% full)",
                    t.events,
                    self.ring_capacity,
                    t.events as f64 * 100.0 / self.ring_capacity as f64
                )?;
            } else {
                writeln!(f)?;
            }
        }
        for (name, agg) in &self.spans {
            writeln!(
                f,
                "  span {}: {} calls, {:.3}s total (min {:.3}s, mean {:.3}s, max {:.3}s)",
                name,
                agg.count,
                secs(agg.total_ns),
                secs(agg.min_ns),
                secs(agg.mean_ns()),
                secs(agg.max_ns)
            )?;
        }
        for (name, count) in &self.instants {
            writeln!(f, "  event {name}: {count}")?;
        }
        for (name, value) in &self.counters {
            writeln!(f, "  counter {name}: {value}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chrome::chrome_trace;
    use crate::tracer::{TraceMode, Tracer};
    use std::sync::Arc;

    #[test]
    fn interval_union_merges_overlaps() {
        assert_eq!(interval_union_ns(vec![]), 0);
        assert_eq!(interval_union_ns(vec![(0, 10)]), 10);
        assert_eq!(interval_union_ns(vec![(0, 10), (5, 15)]), 15);
        assert_eq!(interval_union_ns(vec![(5, 15), (0, 10)]), 15);
        assert_eq!(interval_union_ns(vec![(0, 10), (20, 30)]), 20);
        // Nested spans count once.
        assert_eq!(interval_union_ns(vec![(0, 100), (10, 20), (30, 40)]), 100);
    }

    /// The summary `elfie trace summarize` would print for `data`: the
    /// trace goes through its Chrome export and back.
    fn summarize(data: &TraceData) -> TraceSummary {
        let doc = Json::parse(&chrome_trace(data).render()).unwrap();
        TraceSummary::from_chrome_json(&doc).unwrap()
    }

    fn build_trace() -> TraceData {
        let tracer = Arc::new(Tracer::new(TraceMode::Full));
        tracer.set_thread_name("main");
        {
            let _outer = tracer.span("stage", "measure");
            tracer.instant("cache", "profile_hit", &[]);
            tracer.instant("cache", "profile_hit", &[]);
        }
        tracer.counter("vm", "guest_insns", 10);
        tracer.counter("vm", "guest_insns", 99);
        std::thread::scope(|scope| {
            let tracer = Arc::clone(&tracer);
            scope.spawn(move || {
                tracer.set_thread_name("worker-0");
                let _span = tracer.span_labeled("task", "cluster", "c1");
            });
        });
        tracer.collect()
    }

    #[test]
    fn summary_from_trace_aggregates() {
        let summary = summarize(&build_trace());
        assert_eq!(summary.event_count(), 6);
        assert_eq!(summary.threads.len(), 2);
        assert_eq!(summary.threads[0].name, "main");
        assert_eq!(summary.threads[1].name, "worker-0");
        assert_eq!(summary.spans["measure"].count, 1);
        assert_eq!(summary.spans["cluster"].count, 1);
        assert_eq!(summary.instants["profile_hit"], 2);
        assert_eq!(summary.counters["guest_insns"], 99);
        assert_eq!(summary.dropped, 0);
        assert!(summary.threads[0].busy_ns >= summary.spans["measure"].total_ns);
    }

    #[test]
    fn display_renders_every_section() {
        let text = summarize(&build_trace()).to_string();
        assert!(text.contains("trace: "), "{text}");
        assert!(text.contains("thread main:"), "{text}");
        assert!(text.contains("thread worker-0:"), "{text}");
        assert!(text.contains("span measure: 1 calls"), "{text}");
        assert!(text.contains("event profile_hit: 2"), "{text}");
        assert!(text.contains("counter guest_insns: 99"), "{text}");
    }

    #[test]
    fn span_durations_collect_across_threads_sorted() {
        let tracer = Arc::new(Tracer::new(TraceMode::Full));
        {
            let _a = tracer.span("fleet", "job");
        }
        std::thread::scope(|scope| {
            let tracer = Arc::clone(&tracer);
            scope.spawn(move || {
                let _b = tracer.span_labeled("fleet", "job", "w1");
                let _other = tracer.span("fleet", "seed");
            });
        });
        let data = tracer.collect();
        let durations = span_durations_ns(&data, "job");
        assert_eq!(durations.len(), 2, "one per thread, label stripped");
        assert!(durations.windows(2).all(|w| w[0] <= w[1]), "sorted");
        assert_eq!(span_durations_ns(&data, "seed").len(), 1);
        assert!(span_durations_ns(&data, "missing").is_empty());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile_ns(&[], 50.0), 0);
        let d = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100];
        assert_eq!(percentile_ns(&d, 0.0), 10);
        assert_eq!(percentile_ns(&d, 50.0), 50);
        assert_eq!(percentile_ns(&d, 95.0), 100);
        assert_eq!(percentile_ns(&d, 100.0), 100);
        assert_eq!(percentile_ns(&[7], 50.0), 7);
    }

    #[test]
    fn display_shows_ring_occupancy_and_drop_warning() {
        let tracer = Arc::new(Tracer::with_capacity(TraceMode::Full, 4));
        tracer.set_thread_name("main");
        for _ in 0..10 {
            tracer.instant("t", "e", &[]);
        }
        // Through a Chrome file the figures survive otherData.
        let via = summarize(&tracer.collect());
        assert_eq!(via.dropped, 6);
        assert_eq!(via.ring_capacity, 4);
        let text = via.to_string();
        assert!(text.contains("6 dropped"), "{text}");
        assert!(text.contains("warning: 6 events dropped"), "{text}");
        assert!(text.contains("ring 4/4 (100.0% full)"), "{text}");
        // Pre-ring_capacity files omit the occupancy column.
        let legacy = TraceSummary {
            ring_capacity: 0,
            ..via
        };
        assert!(!legacy.to_string().contains("ring 4/4"), "{legacy}");
    }

    #[test]
    fn request_chain_filters_spans_by_request_id() {
        let tracer = Arc::new(Tracer::new(TraceMode::Full));
        tracer.set_thread_name("conn-1");
        {
            let mut span = tracer.span("serve", "request");
            span.arg("request_id", 77);
        }
        {
            let mut span = tracer.span_labeled("serve", "job", "validate acme:gcc#1");
            span.arg("queue_ns", 1_500);
            span.arg("request_id", 77);
            span.arg("shard", 2);
        }
        {
            let mut other = tracer.span("serve", "request");
            other.arg("request_id", 9);
        }
        let _untagged = tracer.span("serve", "idle");
        let doc = chrome_trace(&tracer.collect());
        let parsed = Json::parse(&doc.render()).unwrap();
        let chain = request_chain(&parsed, 77).unwrap();
        assert_eq!(chain.len(), 2, "{chain:?}");
        assert!(chain.iter().all(|s| s.thread == "conn-1"));
        assert!(chain.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
        let job = chain
            .iter()
            .find(|s| s.name == "job validate acme:gcc#1")
            .expect("job span");
        assert_eq!(job.queue_ns, Some(1_500), "the job span's queue wait");
        assert!(
            chain
                .iter()
                .any(|s| s.name == "request" && s.queue_ns.is_none()),
            "a span without the argument carries none: {chain:?}"
        );
        assert!(request_chain(&parsed, 12345).unwrap().is_empty());
        assert!(request_chain(&Json::Null, 1).is_err());
    }

    #[test]
    fn from_chrome_rejects_garbage() {
        assert!(TraceSummary::from_chrome_json(&Json::Null).is_err());
        let doc = Json::parse(r#"{"traceEvents":[{"ph":"Q","name":"n","tid":0}]}"#).unwrap();
        assert!(TraceSummary::from_chrome_json(&doc).is_err());
    }
}
