//! Parallel batch validation.
//!
//! Validation cost is dominated by independent guest runs: one BBV
//! profiling run and one logging pass per workload, one whole-program
//! measurement per workload, and one convert→measure chain per cluster.
//! [`BatchValidator`] fans those units across a scoped worker pool
//! (`std::thread::scope` — the toolchain's stable scoped-threads API, so
//! no external crate is needed) in two phases:
//!
//! 1. per workload, a *select* task — profile, pick the regions, then
//!    capture every cluster's representative in one logging pass
//!    ([`elfie_pinplay::Logger::capture_all`]) — and a *measure_whole*
//!    task, which needs no selection and so runs beside it;
//! 2. per cluster, the chain: convert and measure the representative the
//!    select task captured, falling back to alternates (captured one by
//!    one) until a candidate completes.
//!
//! The semantics stay those of the serial path:
//!
//! * the *unit of parallelism is the cluster*, never the candidate — a
//!   cluster's fallback-to-alternate chain is inherently sequential (an
//!   alternate is only tried after the representative fails), so it stays
//!   on one worker;
//! * results are merged in deterministic workload/cluster order, and the
//!   per-unit work is the exact same function the serial path runs, so
//!   a parallel [`crate::pipeline::ValidationReport`] is identical to a
//!   serial one — including float-summation order (asserted by the
//!   `parallel_validation` integration test). The one-pass capture
//!   yields the same pinballs as capturing each region alone, and the
//!   cache sees the same lookups: one per representative, one per
//!   alternate tried;
//! * workers share one [`PipelineCache`], so repeated runs (second
//!   trials, ablation sweeps) skip profiling, the whole-program run and
//!   capture entirely.
//!
//! Work is distributed by an atomic task counter rather than pre-chunking,
//! so a slow unit does not stall the neighbours a static partition
//! would have assigned to the same worker.

use crate::cache::{PipelineCache, WholeRun};
use crate::pipeline::{self, ClusterOutcome, Head, PipelineError, ValidationReport};
use crate::stats::{PipelineStats, StatsCollector};
use elfie_simpoint::{PinPoints, PinPointsConfig};
use elfie_trace::Tracer;
use elfie_workloads::Workload;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The parallel validation engine. Build one, optionally pin the worker
/// count or share a cache, then call [`BatchValidator::validate`] or
/// [`BatchValidator::validate_batch`].
#[derive(Debug, Clone)]
pub struct BatchValidator {
    workers: usize,
    cache: Arc<PipelineCache>,
    tracer: Option<Arc<Tracer>>,
}

impl Default for BatchValidator {
    fn default() -> Self {
        BatchValidator::new()
    }
}

impl BatchValidator {
    /// An engine with automatic worker count (the machine's available
    /// parallelism) and a fresh private cache.
    pub fn new() -> BatchValidator {
        BatchValidator {
            workers: 0,
            cache: Arc::new(PipelineCache::new()),
            tracer: None,
        }
    }

    /// An engine pinned to one worker: the serial reference path.
    pub fn serial() -> BatchValidator {
        BatchValidator::new().with_workers(1)
    }

    /// Pins the worker count (`0` = automatic).
    pub fn with_workers(mut self, workers: usize) -> BatchValidator {
        self.workers = workers;
        self
    }

    /// Shares an existing cache (e.g. across trials of an experiment).
    pub fn with_cache(mut self, cache: Arc<PipelineCache>) -> BatchValidator {
        self.cache = cache;
        self
    }

    /// The engine's cache.
    pub fn cache(&self) -> &Arc<PipelineCache> {
        &self.cache
    }

    /// Records the run as a timeline: per-worker lanes with per-unit
    /// spans (`select`, `measure_whole`, `cluster` and the stage spans
    /// under them), cache hit/miss instants, and VM counter tracks. The
    /// tracer is also attached to the engine's cache. A
    /// [`elfie_trace::TraceMode::Disabled`] tracer reduces every probe
    /// to a single branch.
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> BatchValidator {
        self.cache.attach_tracer(Arc::clone(&tracer));
        self.tracer = Some(tracer);
        self
    }

    /// The engine's tracer, if one was attached.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.as_ref()
    }

    /// The resolved worker count this engine will run with.
    pub fn worker_count(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(usize::from)
                .unwrap_or(1)
        }
    }

    /// Validates one workload. Equivalent to
    /// [`crate::pipeline::validate_with_elfies`] but parallel, cached, and
    /// instrumented.
    ///
    /// # Errors
    /// Propagates [`PipelineError`] (per-candidate failures are recorded
    /// in the report instead, exactly like the serial path).
    pub fn validate(
        &self,
        w: &Workload,
        cfg: &PinPointsConfig,
        seed: u64,
        fuel: u64,
    ) -> Result<(ValidationReport, PipelineStats), PipelineError> {
        let (mut reports, stats) = self.validate_batch(std::slice::from_ref(w), cfg, seed, fuel)?;
        Ok((reports.pop().expect("one report per workload"), stats))
    }

    /// Validates a batch of workloads against one selection configuration,
    /// fanning every independent unit — profiling and logging passes,
    /// whole-program measurements, cluster chains — across the worker
    /// pool. Reports come back in workload order and are identical to
    /// running [`crate::pipeline::validate_with_elfies`] on each workload
    /// in turn.
    ///
    /// The returned [`PipelineStats`] covers this batch only (cache
    /// counters are windowed to the run, not the cache lifetime).
    ///
    /// # Errors
    /// Propagates [`PipelineError`]; per-candidate failures are recorded
    /// in the reports instead.
    pub fn validate_batch(
        &self,
        workloads: &[Workload],
        cfg: &PinPointsConfig,
        seed: u64,
        fuel: u64,
    ) -> Result<(Vec<ValidationReport>, PipelineStats), PipelineError> {
        let t0 = Instant::now();
        let cache_before = self.cache.stats();
        let mut stats = StatsCollector::new();
        if let Some(tracer) = &self.tracer {
            stats = stats.with_tracer(Arc::clone(tracer));
        }
        let workers = self.worker_count();
        let _batch_span =
            elfie_trace::maybe_span(self.tracer.as_ref(), "pipeline", "validate_batch");

        // Phase 1: two tasks per workload. One profiles, selects and
        // captures every cluster's representative in one logging pass;
        // the other measures the whole program, which needs no selection.
        enum Done {
            Selected(PinPoints, Vec<Option<Head>>),
            Whole(WholeRun),
        }
        let done = run_indexed_traced(workers, 2 * workloads.len(), self.tracer.as_ref(), |t| {
            let w = &workloads[t / 2];
            if t % 2 == 0 {
                let _span = task_span(self.tracer.as_ref(), "select", &w.name);
                let points = pipeline::select_regions_cached(w, cfg, fuel, &self.cache, &stats);
                let heads =
                    pipeline::capture_heads_cached(w, &points, seed, fuel, &self.cache, &stats);
                Done::Selected(points, heads)
            } else {
                let _span = task_span(self.tracer.as_ref(), "measure_whole", &w.name);
                Done::Whole(pipeline::measure_whole_cached(
                    w,
                    seed,
                    fuel,
                    &self.cache,
                    &stats,
                ))
            }
        });
        let mut selections = Vec::with_capacity(workloads.len());
        let mut wholes = Vec::with_capacity(workloads.len());
        for d in done {
            match d {
                Done::Selected(points, heads) => selections.push((points, heads)),
                Done::Whole(whole) => wholes.push(whole),
            }
        }

        // Phase 2: one task per cluster chain, in merge order, so phase
        // output can be consumed sequentially regardless of completion
        // order.
        let tasks: Vec<(usize, usize)> = selections
            .iter()
            .enumerate()
            .flat_map(|(i, (points, _))| (0..points.k).map(move |c| (i, c)))
            .collect();
        let outcomes = run_indexed_traced(workers, tasks.len(), self.tracer.as_ref(), |t| {
            let (i, cluster) = tasks[t];
            let _span = match self.tracer.as_ref() {
                Some(tr) => tr.span_labeled(
                    "task",
                    "cluster",
                    format!("{}#{cluster}", workloads[i].name),
                ),
                None => elfie_trace::Span::disabled(),
            };
            let (points, heads) = &selections[i];
            pipeline::validate_cluster(
                &workloads[i],
                &points.candidates(cluster),
                heads[cluster].clone(),
                seed,
                fuel,
                &self.cache,
                &stats,
            )
        });

        // Merge in task order: deterministic regardless of scheduling.
        let mut outcomes = outcomes.into_iter();
        let reports = selections
            .iter()
            .zip(wholes)
            .map(|((points, _), whole)| {
                let chains: Vec<ClusterOutcome> = outcomes.by_ref().take(points.k).collect();
                pipeline::assemble_report(whole.cpi(), points.k, chains)
            })
            .collect();

        let cache_window = self.cache.stats().since(cache_before);
        Ok((reports, stats.finish(t0.elapsed(), workers, cache_window)))
    }
}

/// Starts a labelled per-unit span on the optional batch tracer.
fn task_span(tracer: Option<&Arc<Tracer>>, name: &'static str, label: &str) -> elfie_trace::Span {
    match tracer {
        Some(t) => t.span_labeled("task", name, label),
        None => elfie_trace::Span::disabled(),
    }
}

/// Runs `f(0..n)` across `workers` scoped threads and returns the results
/// in index order. Tasks are pulled from an atomic counter (work
/// stealing-lite); with one worker or one task it degenerates to a plain
/// in-order loop with no thread spawns. When a tracer is supplied each
/// worker lane is named `worker-<i>` so a timeline shows which worker ran
/// which unit.
fn run_indexed_traced<T: Send>(
    workers: usize,
    n: usize,
    tracer: Option<&Arc<Tracer>>,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    if workers <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for w in 0..workers.min(n) {
            let f = &f;
            let slots = &slots;
            let next = &next;
            scope.spawn(move || {
                if let Some(tracer) = tracer {
                    tracer.set_thread_name(&format!("worker-{w}"));
                }
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let out = f(i);
                    *slots[i].lock().unwrap() = Some(out);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().unwrap().expect("every task ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_indexed_returns_results_in_index_order() {
        for workers in [1, 2, 3, 8] {
            let out = run_indexed_traced(workers, 20, None, |i| i * i);
            assert_eq!(
                out,
                (0..20).map(|i| i * i).collect::<Vec<_>>(),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn run_indexed_handles_empty_and_single() {
        assert_eq!(run_indexed_traced(4, 0, None, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed_traced(4, 1, None, |i| i + 1), vec![1]);
    }

    #[test]
    fn run_indexed_runs_every_task_exactly_once() {
        use std::sync::atomic::AtomicU64;
        let calls = AtomicU64::new(0);
        let out = run_indexed_traced(4, 100, None, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 100);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn worker_count_resolution() {
        assert_eq!(BatchValidator::serial().worker_count(), 1);
        assert_eq!(BatchValidator::new().with_workers(6).worker_count(), 6);
        assert!(BatchValidator::new().worker_count() >= 1);
    }

    #[test]
    fn shared_cache_is_actually_shared() {
        let cache = Arc::new(PipelineCache::new());
        let a = BatchValidator::new().with_cache(Arc::clone(&cache));
        let b = BatchValidator::new().with_cache(Arc::clone(&cache));
        assert!(Arc::ptr_eq(a.cache(), b.cache()));
    }
}
