//! Typed metrics registry: counters, gauges, and log2-bucket histograms.
//!
//! Handles are `Arc`-shared atomics, so recording is lock-free; the
//! registry lock is only taken at registration and snapshot time. All
//! metrics of a kind share one namespace, and re-registering a name
//! returns the existing handle — workers can each ask for
//! `"store.put_bytes"` and feed the same histogram.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::Json;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`, wrapping on overflow: a saturating CAS loop would cost
    /// more on the hot path than a 2^64 wrap is worth guarding against.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Raises the counter to `total` if it is below it (monotone `max`).
    /// For mirroring an externally-accumulated total (e.g. store puts
    /// rolled up from per-tenant caches) without double counting.
    pub fn observe_total(&self, total: u64) {
        self.0.fetch_max(total, Ordering::Relaxed);
    }
}

/// A signed instantaneous value.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjusts the value by `delta`.
    pub fn adjust(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: one for zero plus one per power of two.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A histogram with fixed log2 buckets.
///
/// Bucket 0 counts zero-valued observations; bucket `i` (1..=64) counts
/// values in `[2^(i-1), 2^i)`. Fixed buckets mean snapshots merge by
/// element-wise addition — no rebinning, and merging is associative.
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0u64; HISTOGRAM_BUCKETS].map(AtomicU64::new),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Bucket index for a value: 0 for 0, else `64 - leading_zeros`.
    pub fn bucket_index(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Lower bound of bucket `i` (inclusive).
    pub fn bucket_floor(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Copies out the bucket counts and running sum.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }

    /// Upper bound of bucket `i` (inclusive): the largest value the
    /// bucket can hold. Bucket 0 holds only zero; bucket `i` holds
    /// `[2^(i-1), 2^i - 1]`; bucket 64 tops out at `u64::MAX`.
    pub fn bucket_ceil(i: usize) -> u64 {
        match i {
            0 => 0,
            64 => u64::MAX,
            _ => (1u64 << i) - 1,
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Counts per log2 bucket.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Sum of all observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Total observation count.
    pub fn count(&self) -> u64 {
        self.buckets.iter().fold(0u64, |a, &b| a.saturating_add(b))
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Nearest-rank quantile estimate for `q` in `[0, 100]`.
    ///
    /// Log2 buckets lose the exact observations, so the estimate is the
    /// geometric midpoint of the bucket holding the rank — always within
    /// that bucket's `[floor, ceil]` bounds. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 100.0);
        // Nearest rank: the k-th smallest observation, 1-based.
        let rank = ((q / 100.0 * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                let floor = Histogram::bucket_floor(i);
                // floor + floor/2 stays below 2*floor, so the estimate
                // never escapes the bucket.
                return floor + floor / 2;
            }
        }
        Histogram::bucket_ceil(HISTOGRAM_BUCKETS - 1)
    }
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

/// A registry handing out shared metric handles by name.
///
/// Names are owned strings so dynamically-shaped families
/// (`serve.shard3.queue_depth`) register per instance. There is no
/// process-global instance: each component owns its registry, so counts
/// stay hermetic (a daemon under test, concurrent daemons in one binary).
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().unwrap();
        f.debug_struct("MetricsRegistry")
            .field("counters", &inner.counters.len())
            .field("gauges", &inner.gauges.len())
            .field("histograms", &inner.histograms.len())
            .finish()
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The counter named `name`, creating it on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.inner.lock().unwrap();
        match inner.counters.get(name) {
            Some(c) => Arc::clone(c),
            None => Arc::clone(inner.counters.entry(name.to_string()).or_default()),
        }
    }

    /// The gauge named `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = self.inner.lock().unwrap();
        match inner.gauges.get(name) {
            Some(g) => Arc::clone(g),
            None => Arc::clone(inner.gauges.entry(name.to_string()).or_default()),
        }
    }

    /// The histogram named `name`, creating it on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut inner = self.inner.lock().unwrap();
        match inner.histograms.get(name) {
            Some(h) => Arc::clone(h),
            None => Arc::clone(inner.histograms.entry(name.to_string()).or_default()),
        }
    }

    /// Snapshots every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().unwrap();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// A point-in-time copy of a [`MetricsRegistry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Serialises to JSON. Histograms keep only non-empty buckets, keyed
    /// by their floor value, so the document stays compact.
    pub fn to_json(&self) -> Json {
        let counters = Json::Obj(
            self.counters
                .iter()
                .map(|(k, &v)| (k.clone(), Json::U64(v)))
                .collect(),
        );
        let gauges = Json::Obj(
            self.gauges
                .iter()
                .map(|(k, &v)| {
                    let value = u64::try_from(v).map(Json::U64).unwrap_or(Json::I64(v));
                    (k.clone(), value)
                })
                .collect(),
        );
        let histograms = Json::Obj(
            self.histograms
                .iter()
                .map(|(k, h)| {
                    let buckets = Json::Obj(
                        h.buckets
                            .iter()
                            .enumerate()
                            .filter(|(_, &n)| n > 0)
                            .map(|(i, &n)| (Histogram::bucket_floor(i).to_string(), Json::U64(n)))
                            .collect(),
                    );
                    let fields = vec![
                        ("count".to_string(), Json::U64(h.count())),
                        ("sum".to_string(), Json::U64(h.sum)),
                        ("buckets".to_string(), buckets),
                    ];
                    (k.clone(), Json::Obj(fields))
                })
                .collect(),
        );
        Json::Obj(vec![
            ("counters".to_string(), counters),
            ("gauges".to_string(), gauges),
            ("histograms".to_string(), histograms),
        ])
    }

    /// Parses the [`MetricsSnapshot::to_json`] form back. Missing
    /// sections decode as empty; wrong types are errors.
    ///
    /// # Errors
    /// Describes the first structural problem found.
    pub fn from_json(doc: &Json) -> Result<MetricsSnapshot, String> {
        let section = |name: &str| -> Result<Vec<(String, Json)>, String> {
            match doc.get(name) {
                None => Ok(Vec::new()),
                Some(j) => Ok(j
                    .as_obj()
                    .ok_or_else(|| format!("`{name}` is not an object"))?
                    .to_vec()),
            }
        };
        let mut snap = MetricsSnapshot::default();
        for (k, v) in section("counters")? {
            let v = v
                .as_u64()
                .ok_or_else(|| format!("counter `{k}`: not a u64"))?;
            snap.counters.insert(k, v);
        }
        for (k, v) in section("gauges")? {
            let v = match v {
                Json::U64(n) => i64::try_from(n).ok(),
                Json::I64(n) => Some(n),
                _ => None,
            }
            .ok_or_else(|| format!("gauge `{k}`: not an i64"))?;
            snap.gauges.insert(k, v);
        }
        for (k, v) in section("histograms")? {
            let sum = v
                .get("sum")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("histogram `{k}`: missing u64 `sum`"))?;
            let mut buckets = [0u64; HISTOGRAM_BUCKETS];
            for (floor, n) in v
                .get("buckets")
                .and_then(Json::as_obj)
                .ok_or_else(|| format!("histogram `{k}`: missing `buckets` object"))?
            {
                let floor: u64 = floor
                    .parse()
                    .map_err(|_| format!("histogram `{k}`: bucket key `{floor}` is not a u64"))?;
                let i = Histogram::bucket_index(floor);
                if Histogram::bucket_floor(i) != floor {
                    return Err(format!("histogram `{k}`: `{floor}` is not a bucket floor"));
                }
                let n = n
                    .as_u64()
                    .ok_or_else(|| format!("histogram `{k}`: bucket count is not a u64"))?;
                buckets[i] = n;
            }
            snap.histograms
                .insert(k, HistogramSnapshot { buckets, sum });
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_are_shared_by_name() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("hits");
        let b = reg.counter("hits");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter("hits").get(), 3);

        let g = reg.gauge("depth");
        g.set(5);
        reg.gauge("depth").adjust(-7);
        assert_eq!(g.get(), -2);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        assert_eq!(Histogram::bucket_floor(0), 0);
        assert_eq!(Histogram::bucket_floor(1), 1);
        assert_eq!(Histogram::bucket_floor(2), 2);
        assert_eq!(Histogram::bucket_floor(3), 4);
        assert_eq!(Histogram::bucket_floor(64), 1u64 << 63);
        // Every value lands in the bucket whose floor bounds it below.
        for v in [0u64, 1, 7, 1024, 1 << 40, u64::MAX] {
            let i = Histogram::bucket_index(v);
            assert!(Histogram::bucket_floor(i) <= v.max(1) || v == 0);
            if i < 64 {
                assert!(v < Histogram::bucket_floor(i + 1));
            }
        }
    }

    #[test]
    fn histogram_records_and_snapshots() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("latency_ns");
        for v in [0, 1, 3, 3, 1000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 5);
        assert_eq!(snap.sum, 1007);
        assert_eq!(snap.buckets[0], 1); // the 0
        assert_eq!(snap.buckets[1], 1); // the 1
        assert_eq!(snap.buckets[2], 2); // the 3s
        assert_eq!(snap.buckets[10], 1); // 1000 in [512, 1024)
        assert!((snap.mean() - 201.4).abs() < 1e-9);
    }

    #[test]
    fn snapshot_serialises_compactly() {
        let reg = MetricsRegistry::new();
        reg.counter("hits").add(7);
        reg.gauge("live").set(-3);
        reg.histogram("bytes").record(5);
        let json = reg.snapshot().to_json();
        assert_eq!(
            json.get("counters").unwrap().get("hits").unwrap().as_u64(),
            Some(7)
        );
        assert_eq!(
            json.get("gauges").unwrap().get("live").unwrap(),
            &Json::I64(-3)
        );
        let h = json.get("histograms").unwrap().get("bytes").unwrap();
        assert_eq!(h.get("count").unwrap().as_u64(), Some(1));
        assert_eq!(h.get("sum").unwrap().as_u64(), Some(5));
        // 5 lands in [4, 8): keyed by floor 4; empty buckets are absent.
        let buckets = h.get("buckets").unwrap().as_obj().unwrap();
        assert_eq!(buckets.len(), 1);
        assert_eq!(buckets[0].0, "4");
        assert_eq!(buckets[0].1.as_u64(), Some(1));
        // Round-trips through the parser.
        assert_eq!(Json::parse(&json.render()).unwrap(), json);
    }

    #[test]
    fn empty_histogram_mean_is_zero() {
        let h = Histogram::default();
        assert_eq!(h.snapshot().mean(), 0.0);
        assert_eq!(h.snapshot().count(), 0);
        assert_eq!(h.snapshot().quantile(50.0), 0);
    }

    #[test]
    fn dynamic_names_register_distinct_handles() {
        let reg = MetricsRegistry::new();
        for shard in 0..4 {
            reg.gauge(&format!("serve.shard{shard}.queue_depth"))
                .set(shard);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.gauges.len(), 4);
        assert_eq!(snap.gauges["serve.shard3.queue_depth"], 3);
    }

    #[test]
    fn observe_total_is_monotone() {
        let c = Counter::default();
        c.observe_total(10);
        c.observe_total(7);
        assert_eq!(c.get(), 10);
        c.observe_total(12);
        assert_eq!(c.get(), 12);
    }

    #[test]
    fn quantile_estimates_stay_inside_their_bucket() {
        let h = Histogram::default();
        for v in [1u64, 3, 3, 900, 1000, 1 << 20] {
            h.record(v);
        }
        let snap = h.snapshot();
        for q in [0.0, 10.0, 50.0, 90.0, 95.0, 99.0, 100.0] {
            let est = snap.quantile(q);
            let i = Histogram::bucket_index(est);
            assert!(snap.buckets[i] > 0, "q{q} → {est} in an empty bucket");
            assert!(Histogram::bucket_floor(i) <= est && est <= Histogram::bucket_ceil(i));
        }
        // The median of {1,3,3,900,1000,2^20} sits in the 3s bucket [2,3].
        assert!(snap.quantile(50.0) <= 3);
        // The max lands in 2^20's bucket.
        assert!(snap.quantile(100.0) >= 1 << 20);
    }

    #[test]
    fn snapshot_json_roundtrips() {
        let reg = MetricsRegistry::new();
        reg.counter("hits").add(7);
        reg.gauge("depth").set(-3);
        reg.gauge("live").set(9);
        let h = reg.histogram("lat");
        for v in [0, 1, 5, 5000, u64::MAX] {
            h.record(v);
        }
        let snap = reg.snapshot();
        let back = MetricsSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
        // Empty documents decode as empty snapshots.
        let empty = MetricsSnapshot::from_json(&Json::Obj(vec![])).unwrap();
        assert_eq!(empty, MetricsSnapshot::default());
        // Bad bucket keys are typed errors.
        let bad = Json::parse(r#"{"histograms":{"h":{"sum":1,"buckets":{"3":1}}}}"#).unwrap();
        assert!(
            MetricsSnapshot::from_json(&bad).is_err(),
            "3 is not a floor"
        );
    }
}
