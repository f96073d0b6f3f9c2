//! The sharded job scheduler behind an `elfie serve` daemon.
//!
//! Jobs go to one of N *shards* — worker threads that each own a
//! bounded [`std::sync::mpsc::sync_channel`] queue. Every shard runs its
//! jobs against one shared map of per-tenant [`PipelineCache`] tiers, all
//! over the single store the daemon opened: a tenant's memory tier is one
//! object whichever shard runs the job, so placement is free to follow
//! load. Each shard counts its outstanding (queued plus running) jobs.
//! While fewer shards are busy than there are cores, a job goes to the
//! shard with the fewest outstanding jobs: an idle shard takes it
//! instead of it waiting behind another. Once every core is busy, a job
//! goes to its home shard, a hash of `(tenant, workload)`: spreading
//! further would only time-slice the cores, while at home a job queues
//! behind its own pair's jobs, so a cheap workload's jobs need not wait
//! behind an expensive one's. Admission is a `try_send` onto the chosen
//! shard's channel; the result travels back on a per-job rendezvous
//! channel. Each job takes the job-table lock for its state changes and
//! the tenant-map lock once to find its cache.
//!
//! **Admission control**: a full queue on the chosen shard sheds the
//! job immediately ([`Enqueued::Busy`]) instead of queueing unboundedly
//! — the caller turns that into the protocol's typed `Busy` response.
//! **Job isolation**: a job that panics fails with an `internal` error
//! and its shard keeps serving. **Graceful drain**: dropping the shard
//! senders lets each worker finish its queued jobs and exit;
//! [`Scheduler::drain`] joins them all.

use crate::protocol::{JobKind, JobPhase, JobSpec, JobSummary, ServeStats};
use elfie::prelude::*;
use elfie::trace::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot, Tracer};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Scheduler sizing.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Worker shards (each owns its queue; all share the tenant caches).
    /// A job goes to the shard with the fewest outstanding jobs while a
    /// core is free, else to its `(tenant, workload)` home shard.
    pub shards: usize,
    /// Bounded queue depth per shard; a job whose chosen shard has a
    /// full queue is shed.
    pub queue_depth: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            shards: 4,
            queue_depth: 64,
        }
    }
}

/// What happened to an enqueue attempt. A queued job's result has not
/// been waited for yet: the caller holds the reply channel and can
/// stream progress while the job runs.
#[derive(Debug)]
pub enum Enqueued {
    /// The job is on a shard queue; its outcome will arrive on `reply`
    /// ([`Scheduler::await_outcome`]).
    Queued {
        /// Daemon-unique job id.
        id: u64,
        /// Rendezvous channel the shard sends the outcome on.
        reply: mpsc::Receiver<JobOutcome>,
    },
    /// The target shard's queue was full; nothing was queued.
    Busy {
        /// The shard that was full.
        shard: u64,
        /// Its queue capacity.
        capacity: u64,
    },
    /// The job never reached a shard (invalid tenant, draining daemon).
    Rejected(String),
}

/// A finished job's result.
#[derive(Debug)]
pub struct JobOutcome {
    /// Daemon-unique job id.
    pub id: u64,
    /// Shard that ran it.
    pub shard: u64,
    /// Nanoseconds spent waiting in the shard queue.
    pub queue_ns: u64,
    /// Nanoseconds spent executing.
    pub run_ns: u64,
    /// Canonical report text, or a one-line failure.
    pub result: Result<String, String>,
}

struct ShardJob {
    id: u64,
    tenant: String,
    spec: JobSpec,
    enqueued: Instant,
    reply: mpsc::SyncSender<JobOutcome>,
    /// Client-stamped correlation id (0 = untagged); threaded onto the
    /// worker's job span so a merged client+server trace can be
    /// filtered to one request's causal chain.
    rid: u64,
}

/// Job states the table tracks (`JobSummary::state` strings).
const QUEUED: &str = "queued";
const RUNNING: &str = "running";
const DONE: &str = "done";
const FAILED: &str = "failed";

/// How many finished jobs the table retains (oldest evicted first), so
/// a long-lived daemon's `jobs` listing stays bounded.
const RETAINED_JOBS: usize = 1024;

#[derive(Default)]
struct TableState {
    rows: BTreeMap<u64, JobSummary>,
    /// Typed phase *history* per job (consecutive duplicates elided;
    /// the row carries only the latest display label). A follower that
    /// wakes late replays the tail it has not sent yet, so no phase
    /// transition is ever lost to polling. Evicted with the row.
    phases: BTreeMap<u64, Vec<JobPhase>>,
    /// Bumped on every mutation; watchers block on it via the condvar.
    version: u64,
}

/// The daemon's job listing and per-job phase history. Shard workers
/// write it; the daemon's list, watch and follow handlers read it
/// through [`Scheduler::table`].
#[derive(Default)]
pub(crate) struct JobTable {
    state: Mutex<TableState>,
    changed: Condvar,
}

impl JobTable {
    fn insert(&self, row: JobSummary) {
        let mut state = self.state.lock().unwrap();
        state.phases.insert(row.id, vec![JobPhase::Queued]);
        state.rows.insert(row.id, row);
        while state.rows.len() > RETAINED_JOBS {
            // Evict the oldest *finished* row; live rows are never dropped.
            let evict = state
                .rows
                .iter()
                .find(|(_, r)| r.state == DONE || r.state == FAILED)
                .map(|(id, _)| *id);
            match evict {
                Some(id) => {
                    state.rows.remove(&id);
                    state.phases.remove(&id);
                }
                None => break,
            };
        }
        self.bump(&mut state);
    }

    fn bump(&self, state: &mut TableState) {
        state.version += 1;
        self.changed.notify_all();
    }

    fn set_state(&self, id: u64, job_state: &str) {
        let mut state = self.state.lock().unwrap();
        if let Some(row) = state.rows.get_mut(&id) {
            row.state = job_state.to_string();
            self.bump(&mut state);
        }
    }

    fn set_phase(&self, id: u64, phase: JobPhase) {
        let mut state = self.state.lock().unwrap();
        if let Some(row) = state.rows.get_mut(&id) {
            row.phase = phase.label();
            let hist = state.phases.entry(id).or_default();
            if hist.last() != Some(&phase) {
                hist.push(phase);
            }
            self.bump(&mut state);
        }
    }

    fn remove(&self, id: u64) {
        let mut state = self.state.lock().unwrap();
        state.rows.remove(&id);
        state.phases.remove(&id);
        self.bump(&mut state);
    }

    /// Every job the table retains, id-ascending.
    pub(crate) fn snapshot(&self) -> Vec<JobSummary> {
        self.state.lock().unwrap().rows.values().cloned().collect()
    }

    /// The current change version (see [`JobTable::wait_change`]).
    pub(crate) fn version(&self) -> u64 {
        self.state.lock().unwrap().version
    }

    /// Latest published `(id, shard, phase)` per retained job.
    pub(crate) fn phases(&self) -> Vec<(u64, u64, JobPhase)> {
        let state = self.state.lock().unwrap();
        state
            .phases
            .iter()
            .filter_map(|(&id, hist)| {
                let &phase = hist.last()?;
                state.rows.get(&id).map(|row| (id, row.shard, phase))
            })
            .collect()
    }

    /// The `(shard, phases)` tail of job `id`'s phase history from index
    /// `from` on — the lossless feed behind `submit --follow`. A follower
    /// replays exactly the tail it has not streamed yet, so fast
    /// transitions cannot be coalesced away between wakeups.
    pub(crate) fn phases_since(&self, id: u64, from: usize) -> Option<(u64, Vec<JobPhase>)> {
        let state = self.state.lock().unwrap();
        let hist = state.phases.get(&id)?;
        let shard = state.rows.get(&id)?.shard;
        Some((shard, hist.get(from..).unwrap_or(&[]).to_vec()))
    }

    /// Blocks until the table's version exceeds `seen` or `timeout`
    /// elapses; returns the current version either way. Watch/follow
    /// connection threads poll on this — shard workers never wait for a
    /// watcher.
    pub(crate) fn wait_change(&self, seen: u64, timeout: Duration) -> u64 {
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock().unwrap();
        while state.version <= seen {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            let (next, result) = self.changed.wait_timeout(state, left).unwrap();
            state = next;
            if result.timed_out() {
                break;
            }
        }
        state.version
    }
}

/// The daemon's registry with its pre-registered handles — the only
/// store of the job, shed, connection and guest-memory counts that
/// [`Scheduler::stats`] reports, plus the queue depths and job latency
/// only the `metrics` exposition reads. The hot path touches atomics
/// only, never the registry's name map.
struct ServeMetrics {
    registry: Arc<MetricsRegistry>,
    jobs_submitted: Arc<Counter>,
    jobs_completed: Arc<Counter>,
    jobs_failed: Arc<Counter>,
    /// Failed jobs whose failure was a panic (also in `jobs_failed`).
    jobs_panicked: Arc<Counter>,
    busy_shed: Arc<Counter>,
    /// Connections accepted over the daemon's lifetime.
    connections: Arc<Gauge>,
    /// Summed `peak_owned_bytes` of every completed validate job: a sum
    /// of per-machine guest page peaks, not process RSS (the daemon
    /// reports that as the scrape-time `serve.process_rss_bytes` and
    /// `serve.process_hwm_bytes` gauges).
    peak_rss: Arc<Gauge>,
    /// Never written: the pipeline carries no residual owned bytes
    /// (see `ServeStats::owned_rss_bytes`).
    owned_rss: Arc<Gauge>,
    store_hits: Arc<Counter>,
    store_puts: Arc<Counter>,
    /// Queue wait plus run time of every finished job.
    job_latency: Arc<Histogram>,
    /// One queue-depth gauge per shard, indexed by shard number.
    shard_depth: Vec<Arc<Gauge>>,
}

impl ServeMetrics {
    fn new(shards: usize) -> ServeMetrics {
        let registry = Arc::new(MetricsRegistry::new());
        ServeMetrics {
            jobs_submitted: registry.counter("serve.jobs.submitted"),
            jobs_completed: registry.counter("serve.jobs.completed"),
            jobs_failed: registry.counter("serve.jobs.failed"),
            jobs_panicked: registry.counter("serve.jobs.panicked"),
            busy_shed: registry.counter("serve.busy_shed"),
            connections: registry.gauge("serve.connections"),
            peak_rss: registry.gauge("serve.peak_rss_bytes"),
            owned_rss: registry.gauge("serve.owned_rss_bytes"),
            store_hits: registry.counter("serve.store.hits"),
            store_puts: registry.counter("serve.store.puts"),
            job_latency: registry.histogram("serve.job_latency_ns"),
            shard_depth: (0..shards)
                .map(|i| registry.gauge(&format!("serve.shard{i}.queue_depth")))
                .collect(),
            registry,
        }
    }
}

/// A gauge that only goes up, read as the count it holds.
fn gauge_total(gauge: &Gauge) -> u64 {
    u64::try_from(gauge.get()).unwrap_or(0)
}

/// State shared between shards and the scheduler front end.
struct Shared {
    store: Store,
    tracer: Option<Arc<Tracer>>,
    /// One cache per tenant, shared by every shard and built on first
    /// use over `store`.
    tenants: Mutex<HashMap<String, Arc<PipelineCache>>>,
    table: JobTable,
    metrics: ServeMetrics,
    /// Outstanding jobs per shard, queued plus running, indexed by shard
    /// number: [`Scheduler::enqueue`] places by it and increments it, and
    /// every exit path (shed, disconnect, reply) decrements it. The counts
    /// are a placement hint and publish no other data, so they are
    /// `Relaxed` and read without a lock: two racing submits may both
    /// see the same shard as least loaded, and a stale read costs at
    /// most one job queued behind another.
    load: Vec<AtomicU64>,
    /// Cores the shards run on ([`std::thread::available_parallelism`]).
    cores: usize,
}

impl Shared {
    /// `tenant`'s cache: its memory tier plus the `{tenant}--` namespace
    /// of the shared store.
    fn tenant_cache(&self, tenant: &str) -> Arc<PipelineCache> {
        let mut tenants = self.tenants.lock().expect("tenant map poisoned");
        if let Some(cache) = tenants.get(tenant) {
            return Arc::clone(cache);
        }
        let cache = PipelineCache::new()
            .with_store(self.store.clone())
            .with_namespace(tenant);
        if let Some(tracer) = &self.tracer {
            cache.attach_tracer(Arc::clone(tracer));
        }
        let cache = Arc::new(cache);
        tenants.insert(tenant.to_string(), Arc::clone(&cache));
        cache
    }
}

/// The sharded scheduler. One per daemon; [`Scheduler::enqueue`] is safe
/// to call from any number of connection threads.
pub struct Scheduler {
    senders: Vec<mpsc::SyncSender<ShardJob>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    queue_depth: usize,
    next_id: AtomicU64,
    shared: Arc<Shared>,
}

/// A tenant name must be usable as a store-ref fragment and keep the
/// `{tenant}--` prefix unambiguous: 1–64 chars of `[A-Za-z0-9._-]`,
/// validated against [`Store::valid_ref_name`] as the authority.
pub fn valid_tenant(tenant: &str) -> bool {
    !tenant.is_empty()
        && tenant.len() <= 64
        && tenant
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
        && Store::valid_ref_name(tenant)
}

/// FNV-1a over `(tenant, workload)`: the job's *home* shard, where it
/// goes once every core is busy. Repeat jobs of one pair share a home.
fn shard_of(tenant: &str, workload: &str, shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in tenant.bytes().chain([0u8]).chain(workload.bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards.max(1) as u64) as usize
}

/// Where a job goes: the least-loaded shard while fewer than `cores`
/// shards are busy, else its `home` shard; home also wins ties. An idle
/// shard thus takes a job instead of it waiting behind another while a
/// core is free to run it. Past that, spreading jobs would only
/// time-slice the cores and put every job behind every other.
fn place(loads: &[AtomicU64], home: usize, cores: usize) -> usize {
    let load = |shard: usize| loads[shard].load(Ordering::Relaxed);
    let busy = (0..loads.len()).filter(|&shard| load(shard) > 0).count();
    let least = least_loaded(loads);
    if busy >= cores || load(home) <= load(least) {
        home
    } else {
        least
    }
}

/// The shard with the fewest outstanding jobs; ties go to the lowest
/// index.
fn least_loaded(loads: &[AtomicU64]) -> usize {
    loads
        .iter()
        .enumerate()
        .min_by_key(|(_, load)| load.load(Ordering::Relaxed))
        .map_or(0, |(shard, _)| shard)
}

impl Scheduler {
    /// Spawns `cfg.shards` worker threads over the opened `store`,
    /// which every tenant cache shares.
    pub fn start(store: Store, cfg: ServeConfig, tracer: Option<Arc<Tracer>>) -> Scheduler {
        let shards = cfg.shards.max(1);
        let shared = Arc::new(Shared {
            store,
            tracer,
            tenants: Mutex::new(HashMap::new()),
            table: JobTable::default(),
            metrics: ServeMetrics::new(shards),
            load: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            cores: std::thread::available_parallelism().map_or(1, usize::from),
        });
        let mut senders = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        for shard in 0..shards {
            let (tx, rx) = mpsc::sync_channel::<ShardJob>(cfg.queue_depth.max(1));
            let shared = Arc::clone(&shared);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("elfie-shard-{shard}"))
                    .spawn(move || shard_worker(shard, &rx, &shared))
                    .expect("spawn shard worker"),
            );
            senders.push(tx);
        }
        Scheduler {
            senders,
            handles,
            queue_depth: cfg.queue_depth.max(1),
            next_id: AtomicU64::new(1),
            shared,
        }
    }

    /// Admits `spec` under `tenant` without waiting for it: on success
    /// the caller holds the reply channel and can stream the job's
    /// phase changes from the job table while it runs.
    /// The job goes to the least-loaded shard while a core is free, else
    /// to its home shard; if that shard's queue is full the job is shed
    /// immediately. `rid` is the client's correlation id (0 = untagged),
    /// threaded onto the worker's job span.
    pub fn enqueue(&self, tenant: &str, spec: JobSpec, rid: u64) -> Enqueued {
        if !valid_tenant(tenant) {
            return Enqueued::Rejected(format!(
                "invalid tenant `{tenant}` (1-64 chars of [A-Za-z0-9._-])"
            ));
        }
        let load = &self.shared.load;
        let home = shard_of(tenant, &spec.workload, load.len());
        let shard = place(load, home, self.shared.cores);
        load[shard].fetch_add(1, Ordering::Relaxed);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (reply_tx, reply) = mpsc::sync_channel::<JobOutcome>(1);
        let job = ShardJob {
            id,
            tenant: tenant.to_string(),
            spec: spec.clone(),
            enqueued: Instant::now(),
            reply: reply_tx,
            rid,
        };
        // Table first so the shard's `running` transition cannot race the
        // insert; a shed submit removes the row again (only admitted jobs
        // are listed).
        self.shared.table.insert(JobSummary {
            id,
            tenant: tenant.to_string(),
            kind: spec.kind,
            workload: spec.workload.clone(),
            shard: shard as u64,
            state: QUEUED.to_string(),
            phase: JobPhase::Queued.label(),
        });
        match self.senders[shard].try_send(job) {
            Ok(()) => {}
            Err(mpsc::TrySendError::Full(_)) => {
                // Shed: nothing was queued, so nothing stays tabled.
                load[shard].fetch_sub(1, Ordering::Relaxed);
                self.shared.metrics.busy_shed.add(1);
                self.shared.table.remove(id);
                return Enqueued::Busy {
                    shard: shard as u64,
                    capacity: self.queue_depth as u64,
                };
            }
            Err(mpsc::TrySendError::Disconnected(_)) => {
                load[shard].fetch_sub(1, Ordering::Relaxed);
                self.shared.table.remove(id);
                return Enqueued::Rejected("daemon is draining".to_string());
            }
        }
        let m = &self.shared.metrics;
        m.jobs_submitted.add(1);
        m.shard_depth[shard].adjust(1);
        Enqueued::Queued { id, reply }
    }

    /// Blocks on an [`Enqueued::Queued`] job's reply channel. A broken
    /// channel (drain raced the submit) marks the job failed in the table
    /// and comes back as the error message.
    pub fn await_outcome(
        &self,
        id: u64,
        reply: &mpsc::Receiver<JobOutcome>,
    ) -> Result<JobOutcome, String> {
        reply.recv().map_err(|_| {
            // The shard died mid-job (drain raced a submit).
            self.shared.table.set_state(id, FAILED);
            "daemon is draining".to_string()
        })
    }

    /// The job table the daemon lists, watches and follows.
    pub(crate) fn table(&self) -> &JobTable {
        &self.shared.table
    }

    /// The daemon-private metrics registry. The daemon layer registers
    /// its request counters and uptime gauge here so one snapshot covers
    /// the whole process.
    pub fn metrics_registry(&self) -> &Arc<MetricsRegistry> {
        &self.shared.metrics.registry
    }

    /// Counts one accepted client connection (`serve.connections`) and
    /// returns how many were accepted before it. Call it from one accept
    /// loop only, so the returned ordinals are distinct.
    pub fn count_connection(&self) -> u64 {
        let connections = &self.shared.metrics.connections;
        connections.adjust(1);
        gauge_total(connections).saturating_sub(1)
    }

    /// A point-in-time metrics snapshot, with the store totals refreshed
    /// from the tenant caches first.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let m = &self.shared.metrics;
        let stats = self.stats();
        m.store_hits.observe_total(stats.store_hits);
        m.store_puts.observe_total(stats.store_puts);
        m.registry.snapshot()
    }

    /// Daemon-wide counters, read from the registry handles, plus the
    /// roll-up of every tenant cache.
    pub fn stats(&self) -> ServeStats {
        let shared = &self.shared;
        let mut cache = CacheStats::default();
        for c in shared.tenants.lock().expect("tenant map poisoned").values() {
            cache.merge(&c.stats());
        }
        let m = &shared.metrics;
        ServeStats {
            accepted: m.jobs_submitted.get(),
            rejected_busy: m.busy_shed.get(),
            completed: m.jobs_completed.get(),
            failed: m.jobs_failed.get(),
            connections: gauge_total(&m.connections),
            cache_hits: cache.hits(),
            cache_misses: cache.misses(),
            store_hits: cache.store_hits,
            store_puts: cache.store_puts,
            peak_rss_bytes: gauge_total(&m.peak_rss),
            owned_rss_bytes: gauge_total(&m.owned_rss),
        }
    }

    /// Jobs completed over the scheduler's lifetime.
    pub fn completed(&self) -> u64 {
        self.shared.metrics.jobs_completed.get()
    }

    /// Graceful drain: stop admitting, let every shard finish its queue,
    /// and join the workers. Idempotent.
    pub fn drain(&mut self) {
        self.senders.clear(); // disconnects every shard's receiver
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.drain();
    }
}

/// One shard: pulls jobs until the channel disconnects (drain) and runs
/// each against its tenant's shared cache.
fn shard_worker(shard: usize, rx: &mpsc::Receiver<ShardJob>, shared: &Shared) {
    if let Some(tracer) = &shared.tracer {
        tracer.set_thread_name(&format!("shard-{shard}"));
    }
    let m = &shared.metrics;
    while let Ok(job) = rx.recv() {
        m.shard_depth[shard].adjust(-1);
        let queue_ns = job.enqueued.elapsed().as_nanos() as u64;
        shared.table.set_state(job.id, RUNNING);
        let cache = shared.tenant_cache(&job.tenant);
        let t0 = Instant::now();
        let result = {
            let mut span = shared.tracer.as_ref().map(|t| {
                t.span_labeled(
                    "serve",
                    "job",
                    format!(
                        "{} {}:{}#{}",
                        job.spec.kind.name(),
                        job.tenant,
                        job.spec.workload,
                        job.id
                    ),
                )
            });
            if let Some(span) = span.as_mut() {
                span.arg("queue_ns", queue_ns);
                if job.rid != 0 {
                    span.arg("request_id", job.rid);
                }
            }
            run_guarded(|| execute(&job.spec, job.id, &cache, shared)).unwrap_or_else(|e| {
                m.jobs_panicked.add(1);
                Err(e)
            })
        };
        let run_ns = t0.elapsed().as_nanos() as u64;
        match &result {
            Ok(_) => {
                m.jobs_completed.add(1);
                shared.table.set_state(job.id, DONE);
            }
            Err(_) => {
                m.jobs_failed.add(1);
                shared.table.set_state(job.id, FAILED);
            }
        };
        m.job_latency.record(queue_ns.saturating_add(run_ns));
        // Uncount the job before replying: a closed-loop client submits
        // its next job as soon as it reads this reply, and placement must
        // not see the finished job as still running.
        shared.load[shard].fetch_sub(1, Ordering::Relaxed);
        // The submitter may have given up (connection dropped); a full
        // or disconnected reply slot is fine either way.
        let _ = job.reply.try_send(JobOutcome {
            id: job.id,
            shard: shard as u64,
            queue_ns,
            run_ns,
            result,
        });
    }
}

/// Runs `job` so that a panic cannot take its shard thread down: the
/// panic comes back as an `internal` error carrying its message.
fn run_guarded<T>(job: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).map_err(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string payload".to_string());
        format!("internal: job panicked: {message}")
    })
}

/// Runs one job against the tenant's cache. Validate reports are the
/// canonical [`elfie::render::validation_report`] bytes — bit-identical
/// to offline `elfie validate` with the same knobs. `id` is the job's
/// table row, where phase progress is published.
fn execute(
    spec: &JobSpec,
    id: u64,
    cache: &Arc<PipelineCache>,
    shared: &Shared,
) -> Result<String, String> {
    let scale = InputScale::parse(&spec.scale)?;
    let w = elfie::workloads::find_workload(&spec.workload, scale)
        .ok_or_else(|| format!("unknown workload `{}`", spec.workload))?;
    match spec.kind {
        JobKind::Validate => {
            let cfg = PinPointsConfig {
                slice_size: spec.slice,
                warmup: spec.warmup,
                max_k: spec.maxk as usize,
                ..PinPointsConfig::default()
            };
            let mut engine = BatchValidator::serial().with_cache(Arc::clone(cache));
            if let Some(tracer) = &shared.tracer {
                engine = engine.with_tracer(Arc::clone(tracer));
            }
            let (report, stats) = engine
                .validate(&w, &cfg, spec.seed, spec.fuel)
                .map_err(|e| format!("validation failed: {e}"))?;
            shared
                .metrics
                .peak_rss
                .adjust(i64::try_from(stats.vm.mat.peak_owned_bytes).unwrap_or(i64::MAX));
            Ok(elfie::render::validation_report(&w.name, &report))
        }
        JobKind::Record => {
            let pb = captured_region(cache, &w, spec)?;
            Ok(elfie::render::capture_line(&pb))
        }
        JobKind::Replay => {
            let pb = captured_region(cache, &w, spec)?;
            let s = Replayer::new(ReplayConfig::default()).replay(&pb, |_| {});
            Ok(elfie::render::replay_line(&pb.region.name, &s))
        }
        JobKind::Simulate => {
            let pb = captured_region(cache, &w, spec)?;
            let mut sim = Simulator::by_name(&spec.sim)?;
            // A raw pinball carries no ROI markers — the captured region
            // *is* the region of interest, as for offline `simulate`.
            sim.roi = elfie::sim::RoiMode::Always;
            if spec.shards == 0 {
                let o = elfie::sim::simulate_pinball(&pb, &sim);
                return Ok(format!(
                    "sim {} on {}: {} cycles, IPC {:.4}, CPI {:.4}, exit {:?}\n",
                    spec.sim, pb.region.name, o.cycles, o.ipc, o.cpi, o.exit
                ));
            }
            let cfg = ShardConfig {
                shards: spec.shards as usize,
                interval: spec.interval,
            };
            let table = &shared.table;
            let sharded = elfie::sim::simulate_pinball_sharded_with_progress(
                &pb,
                &sim,
                &cfg,
                &|p: ShardPhase| {
                    table.set_phase(
                        id,
                        match p {
                            ShardPhase::Profile => JobPhase::Profile,
                            ShardPhase::Slice { done, total } => JobPhase::Slice { done, total },
                            ShardPhase::Stitch => JobPhase::Stitch,
                        },
                    );
                },
            );
            table.set_phase(id, JobPhase::Render);
            let o = &sharded.outcome;
            Ok(format!(
                "sim {} on {} ({} slices, {} workers): {} cycles, IPC {:.4}, CPI {:.4}, exit {:?}\n",
                spec.sim,
                pb.region.name,
                sharded.slices.len(),
                sharded.workers,
                o.cycles,
                o.ipc,
                o.cpi,
                o.exit
            ))
        }
    }
}

/// Captures (or fetches from the tenant's cache) the fat pinball of the
/// region `spec` names. The cache key and the capture both come from one
/// synthetic [`PinPoint`], so the key describes the pinball it maps to and
/// matches across record/replay/simulate jobs on the same region.
fn captured_region(
    cache: &Arc<PipelineCache>,
    w: &Workload,
    spec: &JobSpec,
) -> Result<Arc<Pinball>, String> {
    let point = elfie::simpoint::PinPoint {
        cluster: 0,
        rank: 0,
        slice_index: 0,
        weight: 1.0,
        start_icount: spec.start,
        length: spec.length,
        warmup: 0,
    };
    cache
        .pinball(PipelineCache::pinball_key(w, &point), || {
            elfie::pipeline::capture_pinpoint(w, &point)
        })
        .map_err(|e| format!("capture failed: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_hash_is_stable_and_in_range() {
        for shards in [1usize, 2, 4, 7] {
            let a = shard_of("acme", "gcc_like", shards);
            assert_eq!(a, shard_of("acme", "gcc_like", shards));
            assert!(a < shards);
        }
        // Placement distinguishes tenant from workload bytes.
        assert_ne!(
            shard_of("ab", "c", 1 << 16),
            shard_of("a", "bc", 1 << 16),
            "tenant/workload boundary must be part of the key"
        );
    }

    fn loads(counts: &[u64]) -> Vec<AtomicU64> {
        counts.iter().map(|&c| AtomicU64::new(c)).collect()
    }

    #[test]
    fn placement_picks_the_least_loaded_shard_lowest_index_first() {
        for (counts, want) in [
            (&[0, 0][..], 0),
            (&[1, 0], 1),
            (&[1, 1], 0),
            (&[2, 1, 1], 1),
            (&[3], 0),
        ] {
            assert_eq!(least_loaded(&loads(counts)), want, "{counts:?}");
        }
    }

    #[test]
    fn a_busy_home_yields_to_an_idle_shard_only_while_a_core_is_free() {
        for (counts, home, cores, want) in [
            // An idle home keeps its job.
            (&[0, 0][..], 1, 2, 1),
            // A busy home with a core free: the least-loaded shard.
            (&[0, 1], 1, 2, 0),
            (&[2, 1, 1], 0, 8, 1),
            // ...unless no shard is less loaded than home.
            (&[1, 1], 1, 4, 1),
            // Every core busy: the job stays home, idle shards or not.
            (&[1, 1, 0], 0, 2, 0),
            (&[1, 0], 0, 1, 0),
            (&[3, 0, 0, 2], 3, 2, 3),
        ] {
            assert_eq!(
                place(&loads(counts), home, cores),
                want,
                "{counts:?} home {home} cores {cores}"
            );
        }
    }

    #[test]
    fn a_panicking_job_becomes_an_internal_error() {
        assert_eq!(run_guarded(|| 7), Ok(7));
        let err = run_guarded(|| -> u32 { panic!("boom {}", 1) }).unwrap_err();
        assert_eq!(err, "internal: job panicked: boom 1");
        let err = run_guarded(|| -> u32 { panic!("static") }).unwrap_err();
        assert_eq!(err, "internal: job panicked: static");
    }

    #[test]
    fn tenant_validation_rejects_path_tricks() {
        assert!(valid_tenant("acme"));
        assert!(valid_tenant("team-7.staging"));
        assert!(!valid_tenant(""));
        assert!(!valid_tenant("a/b"));
        assert!(!valid_tenant(".."));
        assert!(!valid_tenant("a b"));
        assert!(!valid_tenant(&"x".repeat(65)));
    }

    #[test]
    fn invalid_tenant_is_rejected_before_any_queueing() {
        let dir = std::env::temp_dir().join(format!("elfie-sched-rej-{}", std::process::id()));
        let store = Store::open(&dir).expect("opens store");
        let mut sched = Scheduler::start(store, ServeConfig::default(), None);
        match sched.enqueue("../evil", JobSpec::default(), 0) {
            Enqueued::Rejected(msg) => assert!(msg.contains("invalid tenant"), "{msg}"),
            other => panic!("{other:?}"),
        }
        assert!(sched.table().snapshot().is_empty(), "nothing was tabled");
        sched.drain();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_job_leaves_every_shard_uncounted() {
        let dir = std::env::temp_dir().join(format!("elfie-sched-fail-{}", std::process::id()));
        let store = Store::open(&dir).expect("opens store");
        let mut sched = Scheduler::start(store, ServeConfig::default(), None);
        let spec = JobSpec {
            workload: "nope".to_string(),
            ..JobSpec::default()
        };
        let Enqueued::Queued { id, reply } = sched.enqueue("acme", spec, 0) else {
            panic!("an idle scheduler admits the job");
        };
        let outcome = sched.await_outcome(id, &reply).expect("replies");
        assert!(outcome.result.is_err(), "{outcome:?}");
        let loads: Vec<u64> = sched
            .shared
            .load
            .iter()
            .map(|load| load.load(Ordering::Relaxed))
            .collect();
        assert!(loads.iter().all(|&l| l == 0), "{loads:?}");
        assert_eq!(sched.stats().failed, 1);
        sched.drain();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_served_region_is_cached_under_the_region_it_captures() {
        let cache = Arc::new(PipelineCache::new());
        let w = elfie::workloads::find_workload("gcc_like", InputScale::Test).expect("known");
        let spec = JobSpec {
            start: 20_000,
            length: 6_000,
            ..JobSpec::default()
        };
        let pb = captured_region(&cache, &w, &spec).expect("captures");
        let region = &pb.region;
        let start = match region.trigger {
            RegionTrigger::GlobalIcount(n) => n,
            _ => 0,
        } + region.warmup;
        let own = elfie::simpoint::PinPoint {
            cluster: 0,
            rank: 0,
            slice_index: region.slice_index,
            weight: region.weight,
            start_icount: start,
            length: region.length - region.warmup,
            warmup: region.warmup,
        };
        let again = cache
            .pinball(PipelineCache::pinball_key(&w, &own), || {
                panic!("the capture must be cached under its own region, {own:?}")
            })
            .expect("cached");
        assert!(Arc::ptr_eq(&pb, &again));
        assert_eq!(region.name, "gcc_like.0");
    }
}
