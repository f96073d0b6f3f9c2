//! Per-operation layer accounting for traced runs.
//!
//! The benchmark's own code wraps every call into a layer: the call
//! becomes an `elfie_trace` span (category = the layer's crate) and its
//! wall time is charged to the current operation. Untraced, the same
//! calls run with no spans and no bookkeeping, so end-to-end numbers
//! never include tracing.

use elfie::vm::FastPathStats;
use elfie_trace::{TraceMode, Tracer};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub struct Layers {
    tracer: Option<Arc<Tracer>>,
    /// One sample per operation that touched the metric's layer.
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// The current operation's sums, folded into `samples` when it ends.
    current: BTreeMap<&'static str, f64>,
    current_attributed_ms: f64,
    op_ms: f64,
    attributed_ms: f64,
    values: BTreeMap<&'static str, f64>,
    spans: u64,
}

impl Layers {
    pub fn new(tracer: Option<Arc<Tracer>>) -> Layers {
        Layers {
            tracer,
            samples: BTreeMap::new(),
            current: BTreeMap::new(),
            current_attributed_ms: 0.0,
            op_ms: 0.0,
            attributed_ms: 0.0,
            values: BTreeMap::new(),
            spans: 0,
        }
    }

    /// A recorder for another thread of the same run.
    pub fn fork(&self) -> Layers {
        Layers::new(self.tracer.clone())
    }

    pub fn enabled(&self) -> bool {
        self.tracer.is_some()
    }

    /// Runs one operation and returns its result with its wall time.
    pub fn op<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Layers) -> T) -> (T, Duration) {
        let span = self.tracer.as_ref().map(|t| t.span("op", name));
        let t0 = Instant::now();
        let out = f(self);
        let wall = t0.elapsed();
        drop(span);
        if self.enabled() {
            self.spans += 1;
            self.op_ms += ms(wall);
            self.attributed_ms += std::mem::take(&mut self.current_attributed_ms);
            for (metric, v) in std::mem::take(&mut self.current) {
                self.samples.entry(metric).or_default().push(v);
            }
        }
        (out, wall)
    }

    /// Times one call into a layer under a `cat`/`name` span, charging its
    /// wall time to the current operation. Returns the milliseconds taken
    /// (0 when untraced).
    pub fn span<T>(
        &mut self,
        cat: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let Some(tracer) = &self.tracer else {
            return (f(), 0.0);
        };
        let span = tracer.span(cat, name);
        let t0 = Instant::now();
        let out = f();
        let elapsed = ms(t0.elapsed());
        drop(span);
        self.spans += 1;
        self.current_attributed_ms += elapsed;
        (out, elapsed)
    }

    /// [`Layers::span`] whose time is also a sample of `metric` — a
    /// per-layer `_ms` metric named `<layer>.<call>_ms`.
    pub fn time<T>(&mut self, metric: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let (cat, rest) = metric.split_once('.').expect("metric is layer.call");
        let name = rest.strip_suffix("_ms").unwrap_or(rest);
        let (out, elapsed) = self.span(cat, name, f);
        self.add(metric, elapsed);
        (out, elapsed)
    }

    /// Adds `v` to the current operation's sample of `metric`.
    pub fn add(&mut self, metric: &'static str, v: f64) {
        if self.enabled() {
            *self.current.entry(metric).or_default() += v;
        }
    }

    /// Sets a metric that is not a per-operation median.
    pub fn set(&mut self, metric: &'static str, v: f64) {
        if self.enabled() {
            self.values.insert(metric, v);
        }
    }

    pub fn merge(&mut self, other: Layers) {
        for (metric, v) in other.samples {
            self.samples.entry(metric).or_default().extend(v);
        }
        self.values.extend(other.values);
        self.op_ms += other.op_ms;
        self.attributed_ms += other.attributed_ms;
        self.spans += other.spans;
    }

    /// The per-layer metrics of a traced measured phase that lasted
    /// `phase`: medians of the per-operation samples, the values set
    /// directly, the unattributed share of operation time (unless the
    /// workload set its own), the estimated tracing cost, and 0 for every
    /// declared metric the workload's operations never touched.
    pub fn finish(mut self, phase: Duration) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = crate::metrics::PER_LAYER
            .iter()
            .map(|d| (d.name, 0.0))
            .collect();
        for (metric, v) in &self.samples {
            out.insert(metric, crate::stats::median(v));
        }
        let unattributed = if self.op_ms > 0.0 {
            ((self.op_ms - self.attributed_ms) / self.op_ms).max(0.0)
        } else {
            0.0
        };
        self.values
            .entry("unattributed_frac")
            .or_insert(unattributed);
        let overhead = self.spans as f64 * span_cost_ns() / phase.as_nanos().max(1) as f64;
        self.values.entry("trace_overhead_frac").or_insert(overhead);
        out.extend(self.values);
        out
    }
}

/// Guest work of the calls that execute the VM, for the `vm.*` metrics.
#[derive(Default)]
pub struct VmTally {
    fastpath: FastPathStats,
    ms: f64,
}

impl VmTally {
    /// One call's fast-path counters and the wall time of the call.
    pub fn record(&mut self, fastpath: FastPathStats, ms: f64) {
        self.fastpath.accumulate(fastpath);
        self.ms += ms;
    }

    pub fn set_metrics(&self, lay: &mut Layers, ops: usize) {
        let minsns = self.fastpath.insns as f64 / 1e6;
        if self.ms > 0.0 {
            lay.set("vm.mips", minsns / (self.ms / 1e3));
        }
        lay.set("vm.block_hit_rate", self.fastpath.block_hit_rate());
        lay.set("vm.tlb_hit_rate", self.fastpath.tlb_hit_rate());
        lay.set("vm.guest_minsns_per_op", minsns / ops.max(1) as f64);
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Mean cost of recording one span, measured on a private tracer of the
/// kind traced runs use.
fn span_cost_ns() -> f64 {
    const N: u32 = 20_000;
    let tracer = Arc::new(Tracer::with_capacity(TraceMode::Full, N as usize));
    let t0 = Instant::now();
    for _ in 0..N {
        drop(std::hint::black_box(tracer.span("op", "calibrate")));
    }
    t0.elapsed().as_nanos() as f64 / f64::from(N)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untraced_layers_record_nothing() {
        let mut lay = Layers::new(None);
        let ((v, t), _) = lay.op("op", |lay| lay.time("store.put_ms", || 7));
        assert_eq!((v, t), (7, 0.0));
        let out = lay.finish(Duration::from_secs(1));
        assert_eq!(out["store.put_ms"], 0.0);
        assert_eq!(out.len(), crate::metrics::PER_LAYER.len());
    }

    #[test]
    fn traced_layers_take_medians_over_the_ops_that_call_them() {
        let tracer = Arc::new(Tracer::new(TraceMode::Full));
        let mut lay = Layers::new(Some(Arc::clone(&tracer)));
        for v in [1.0, 5.0, 3.0] {
            lay.op("op", |lay| {
                lay.add("store.put_ms", v);
                lay.add("store.put_ms", v);
            });
        }
        lay.op("op", |lay| lay.time("store.gc_ms", || ()));
        let out = lay.finish(Duration::from_secs(1));
        assert_eq!(out["store.put_ms"], 6.0);
        assert!(out["store.gc_ms"] >= 0.0);
        assert!(out["unattributed_frac"] >= 0.0 && out["unattributed_frac"] <= 1.0);
        let names: Vec<String> = tracer
            .collect()
            .tracks
            .iter()
            .flat_map(|t| t.events.iter().map(|e| format!("{}/{}", e.cat, e.name)))
            .collect();
        assert!(names.contains(&"store/gc".to_string()), "{names:?}");
    }
}
