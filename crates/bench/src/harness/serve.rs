//! The **daemon_serve** scenario: an in-process `elfie serve` daemon
//! under ~100 concurrent client jobs over real loopback sockets.
//!
//! Where the `fleet` scenario measures the validation engine alone,
//! this one measures the whole serving stack — frame protocol, sharded
//! admission, per-tenant caches — end to end, client-side latency
//! included. Three properties gate alongside throughput:
//!
//! * **determinism** — every warm `validate` response must be
//!   bit-identical to what offline `elfie validate` renders for the
//!   same knobs (both ends call `elfie::render::validation_report`);
//! * **warm-cache residency** — after the warm phase the store holds
//!   every artifact, so the measured phase must finish with **zero**
//!   store puts;
//! * **admission control** — an over-capacity burst against a
//!   deliberately tiny daemon (1 shard, queue depth 2) must shed with
//!   typed `busy` responses, never by queueing unboundedly.

use super::doc::{Metric, ScenarioResult};
use super::{ms, BenchKnobs};
use elfie::prelude::*;
use elfie_serve::{Client, Daemon, JobKind, JobSpec, Response, ServeConfig};
use elfie_trace::percentile_ns;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Sizing for one daemon_serve run.
#[derive(Debug, Clone)]
pub struct ServeBenchConfig {
    /// Total requests in the measured phase.
    pub jobs: usize,
    /// Concurrent client connections firing them.
    pub clients: usize,
    /// Daemon sizing for the measured phase.
    pub daemon: ServeConfig,
    /// Tenants the jobs round-robin over (isolated store namespaces).
    pub tenants: &'static [&'static str],
}

impl ServeBenchConfig {
    /// Profile-sized config: 120 jobs / 8 clients for smoke (the CI
    /// gate), 400 jobs / 16 clients for full.
    pub fn for_knobs(knobs: &BenchKnobs) -> ServeBenchConfig {
        ServeBenchConfig {
            jobs: knobs.profile.pick(120, 400),
            clients: knobs.profile.pick(8, 16),
            daemon: ServeConfig {
                shards: 4,
                queue_depth: 64,
            },
            tenants: &["acme", "zephyr"],
        }
    }
}

/// The validate job every request runs — the fleet scenario's knobs
/// (slice 5k, warmup 2k, maxK 3, seed 17) so figures are comparable.
fn job_spec(workload: &str) -> JobSpec {
    JobSpec {
        kind: JobKind::Validate,
        workload: workload.to_string(),
        scale: "test".to_string(),
        slice: 5_000,
        warmup: 2_000,
        maxk: 3,
        seed: 17,
        fuel: 50_000_000,
        ..JobSpec::default()
    }
}

/// The offline reference bytes for [`job_spec`] on `w` — what
/// `elfie validate` prints, which every daemon response must equal.
fn offline_report(w: &Workload) -> String {
    let cfg = PinPointsConfig {
        slice_size: 5_000,
        warmup: 2_000,
        max_k: 3,
        ..PinPointsConfig::default()
    };
    let (report, _) = BatchValidator::serial()
        .validate(w, &cfg, 17, 50_000_000)
        .expect("offline reference validates");
    elfie::render::validation_report(&w.name, &report)
}

/// Everything one measured run produced.
#[derive(Debug)]
pub struct ServeOutcome {
    /// Measured-phase wall clock.
    pub wall: Duration,
    /// Ascending client-side request latencies.
    pub request_ns: Vec<u64>,
    /// Requests answered `done`.
    pub completed: usize,
    /// Every `done` report matched its offline reference.
    pub deterministic: bool,
    /// Store puts during the measured phase (gate: 0 — the warm phase
    /// seeded every artifact).
    pub store_puts_warm: u64,
    /// Store hits over the daemon's lifetime.
    pub store_hits: u64,
    /// Peak materialized page bytes over completed jobs.
    pub peak_rss_bytes: u64,
    /// Residual materialized page bytes after every job tore down
    /// (gate: 0 — anything else is a frame leak).
    pub owned_rss_bytes: u64,
    /// Ascending `metrics` scrape latencies sampled *during* the
    /// measured phase, from a dedicated connection racing the job
    /// traffic — what an external Prometheus poller would see.
    pub scrape_ns: Vec<u64>,
}

/// Boots a daemon over `dir`, warms every (tenant, workload) pair, then
/// fires the measured phase from concurrent client connections.
///
/// # Errors
/// Any client/daemon failure, a non-`done` warm response, or a measured
/// response that is neither `done` nor explainable.
pub fn run_serve(
    cfg: &ServeBenchConfig,
    workloads: &[Workload],
    dir: &std::path::Path,
) -> Result<ServeOutcome, String> {
    assert!(!workloads.is_empty());
    let daemon = Daemon::bind("127.0.0.1:0", dir, cfg.daemon, None)
        .map_err(|e| format!("daemon bind: {e}"))?;
    let addr = daemon.local_addr().to_string();
    let server = std::thread::spawn(move || daemon.run());

    let fail = |e: String| -> String {
        // Best-effort shutdown so a failed run does not leak the daemon.
        if let Ok(mut c) = Client::connect(&addr) {
            let _ = c.shutdown();
        }
        e
    };

    // Warm phase: every (tenant, workload) pair once, serially. After
    // this the store holds every profile and pinball each namespace
    // needs, and each shard's memory tier has seen its artifacts.
    let mut warm = Client::connect(&addr).map_err(|e| e.to_string())?;
    let references: Vec<String> = workloads.iter().map(offline_report).collect();
    for tenant in cfg.tenants {
        for (w, reference) in workloads.iter().zip(&references) {
            match warm.submit(tenant, job_spec(&w.name)) {
                Ok(Response::Done { report, .. }) => {
                    if report != *reference {
                        return Err(fail(format!("warm {tenant}/{} diverged", w.name)));
                    }
                }
                Ok(other) => return Err(fail(format!("warm {tenant}/{}: {other:?}", w.name))),
                Err(e) => return Err(fail(format!("warm {tenant}/{}: {e}", w.name))),
            }
        }
    }
    let warm_stats = warm.stats().map_err(|e| e.to_string())?;

    // Measured phase: `clients` connections race through `jobs` requests
    // while one extra connection scrapes `metrics` the whole time.
    let next = AtomicUsize::new(0);
    let latencies: Mutex<Vec<u64>> = Mutex::new(Vec::with_capacity(cfg.jobs));
    let completed = AtomicUsize::new(0);
    let mismatches = AtomicUsize::new(0);
    let first_error: Mutex<Option<String>> = Mutex::new(None);
    let scrapes: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let t0 = Instant::now();
    std::thread::scope(|s| {
        {
            let (next, scrapes, addr, jobs) = (&next, &scrapes, &addr, cfg.jobs);
            s.spawn(move || {
                let Ok(mut client) = Client::connect(addr) else {
                    return;
                };
                loop {
                    let t = Instant::now();
                    if client.metrics().is_err() {
                        break;
                    }
                    scrapes.lock().unwrap().push(t.elapsed().as_nanos() as u64);
                    if next.load(Ordering::Relaxed) >= jobs {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            });
        }
        for _ in 0..cfg.clients {
            let (next, latencies, completed, mismatches, first_error) =
                (&next, &latencies, &completed, &mismatches, &first_error);
            let (addr, references) = (&addr, &references);
            s.spawn(move || {
                let mut client = match Client::connect(addr) {
                    Ok(c) => c,
                    Err(e) => {
                        first_error
                            .lock()
                            .unwrap()
                            .get_or_insert_with(|| e.to_string());
                        return;
                    }
                };
                loop {
                    let job = next.fetch_add(1, Ordering::Relaxed);
                    if job >= cfg.jobs {
                        break;
                    }
                    let w = job % workloads.len();
                    let tenant = cfg.tenants[(job / workloads.len()) % cfg.tenants.len()];
                    let t = Instant::now();
                    let response = client.submit(tenant, job_spec(&workloads[w].name));
                    let elapsed = t.elapsed().as_nanos() as u64;
                    match response {
                        Ok(Response::Done { report, .. }) => {
                            latencies.lock().unwrap().push(elapsed);
                            completed.fetch_add(1, Ordering::Relaxed);
                            if report != references[w] {
                                mismatches.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Ok(other) => {
                            first_error
                                .lock()
                                .unwrap()
                                .get_or_insert_with(|| format!("job {job}: {other:?}"));
                            break;
                        }
                        Err(e) => {
                            first_error
                                .lock()
                                .unwrap()
                                .get_or_insert_with(|| format!("job {job}: {e}"));
                            break;
                        }
                    }
                }
            });
        }
    });
    let wall = t0.elapsed();
    if let Some(e) = first_error.into_inner().unwrap() {
        return Err(fail(e));
    }

    let mut scrape_ns = scrapes.into_inner().unwrap();
    // A very fast measured phase can outrun the sampler; make sure at
    // least one scrape (post-phase, daemon still warm) is recorded.
    if scrape_ns.is_empty() {
        let t = Instant::now();
        warm.metrics().map_err(|e| e.to_string())?;
        scrape_ns.push(t.elapsed().as_nanos() as u64);
    }
    scrape_ns.sort_unstable();

    let end_stats = warm.stats().map_err(|e| e.to_string())?;
    warm.shutdown().map_err(|e| e.to_string())?;
    let _report = server.join().map_err(|_| "daemon panicked".to_string())?;

    let mut request_ns = latencies.into_inner().unwrap();
    request_ns.sort_unstable();
    Ok(ServeOutcome {
        wall,
        request_ns,
        completed: completed.load(Ordering::Relaxed),
        deterministic: mismatches.load(Ordering::Relaxed) == 0,
        store_puts_warm: end_stats.store_puts - warm_stats.store_puts,
        store_hits: end_stats.store_hits,
        peak_rss_bytes: end_stats.peak_rss_bytes,
        owned_rss_bytes: end_stats.owned_rss_bytes,
        scrape_ns,
    })
}

/// Fires `burst` concurrent submits at a 1-shard / queue-depth-2 daemon
/// and counts the typed `busy` responses. Returns `(busy, other)` where
/// `other` counts anything that was neither `done` nor `busy`.
fn busy_burst(
    dir: &std::path::Path,
    workload: &Workload,
    burst: usize,
) -> Result<(u64, u64), String> {
    let daemon = Daemon::bind(
        "127.0.0.1:0",
        dir,
        ServeConfig {
            shards: 1,
            queue_depth: 2,
        },
        None,
    )
    .map_err(|e| format!("burst daemon bind: {e}"))?;
    let addr = daemon.local_addr().to_string();
    let server = std::thread::spawn(move || daemon.run());

    let busy = AtomicUsize::new(0);
    let other = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..burst {
            let (addr, busy, other) = (&addr, &busy, &other);
            s.spawn(move || {
                match Client::connect(addr)
                    .and_then(|mut c| c.submit("burst", job_spec(&workload.name)))
                {
                    Ok(Response::Done { .. }) => {}
                    Ok(Response::Busy { .. }) => {
                        busy.fetch_add(1, Ordering::Relaxed);
                    }
                    _ => {
                        other.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let mut end = Client::connect(&addr).map_err(|e| e.to_string())?;
    end.shutdown().map_err(|e| e.to_string())?;
    server
        .join()
        .map_err(|_| "burst daemon panicked".to_string())?;
    Ok((
        busy.load(Ordering::Relaxed) as u64,
        other.load(Ordering::Relaxed) as u64,
    ))
}

/// The registered scenario: one warm + measured serve run plus the
/// admission burst, translated into gate metrics.
pub fn daemon_serve(knobs: &BenchKnobs) -> ScenarioResult {
    let cfg = ServeBenchConfig::for_knobs(knobs);
    let f = InputScale::Test.factor();
    let workloads = vec![elfie::workloads::gcc_like(f), elfie::workloads::mcf_like(f)];
    let dir = std::env::temp_dir().join(format!("elfie-bench-serve-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let outcome = run_serve(&cfg, &workloads, &dir).expect("serve run");
    std::fs::remove_dir_all(&dir).ok();

    let burst_dir =
        std::env::temp_dir().join(format!("elfie-bench-serve-burst-{}", std::process::id()));
    std::fs::remove_dir_all(&burst_dir).ok();
    let (busy, burst_other) = busy_burst(&burst_dir, &workloads[0], 16).expect("burst run");
    std::fs::remove_dir_all(&burst_dir).ok();
    let shed_cleanly = busy > 0 && burst_other == 0;

    assert_eq!(outcome.completed, cfg.jobs, "every request must complete");
    let wall_s = outcome.wall.as_secs_f64();

    ScenarioResult {
        name: "daemon_serve".to_string(),
        runs: 1,
        notes: format!(
            "{} jobs from {} clients over {} shard(s), {} tenants x {} workloads; \
             {} store hits, {} warm puts, burst shed {} of 16, \
             {} in-phase metrics scrapes",
            cfg.jobs,
            cfg.clients,
            cfg.daemon.shards,
            cfg.tenants.len(),
            workloads.len(),
            outcome.store_hits,
            outcome.store_puts_warm,
            busy,
            outcome.scrape_ns.len(),
        ),
        metrics: vec![
            Metric::higher("requests_completed", outcome.completed as f64, "jobs", 0.0)
                .uncalibrated(),
            // Request latency on a loaded daemon is queueing-dominated
            // (shards × queue depth), not guest-MIPS-dominated, so the
            // machine probe does not predict it — fixed wide bands
            // instead of probe calibration.
            Metric::higher(
                "requests_per_sec",
                outcome.completed as f64 / wall_s,
                "req/s",
                0.50,
            )
            .uncalibrated(),
            Metric::lower(
                "p50_request_ms",
                ms(Duration::from_nanos(percentile_ns(
                    &outcome.request_ns,
                    50.0,
                ))),
                "ms",
                0.60,
            )
            .uncalibrated(),
            Metric::lower(
                "p95_request_ms",
                ms(Duration::from_nanos(percentile_ns(
                    &outcome.request_ns,
                    95.0,
                ))),
                "ms",
                0.75,
            )
            .uncalibrated(),
            Metric::lower(
                "store_puts_warm",
                outcome.store_puts_warm as f64,
                "count",
                0.0,
            )
            .uncalibrated(),
            Metric::higher(
                "deterministic_responses",
                f64::from(u8::from(outcome.deterministic)),
                "bool",
                0.0,
            )
            .uncalibrated(),
            Metric::higher("busy_shed", f64::from(u8::from(shed_cleanly)), "bool", 0.0)
                .uncalibrated(),
            // Scrape latency under full job load: an external poller
            // must never be starved by the serving path.
            Metric::lower(
                "metrics_scrape_p95",
                ms(Duration::from_nanos(percentile_ns(
                    &outcome.scrape_ns,
                    95.0,
                ))),
                "ms",
                0.75,
            )
            .uncalibrated(),
            Metric::lower(
                "peak_rss_bytes",
                outcome.peak_rss_bytes as f64,
                "bytes",
                0.25,
            )
            .uncalibrated(),
            // Residual privately-owned page bytes after every job tore
            // down — 0 unless a machine leaks frames, so this gates
            // leaks, not throughput.
            Metric::lower(
                "owned_rss_bytes",
                outcome.owned_rss_bytes as f64,
                "bytes",
                0.25,
            )
            .uncalibrated(),
        ],
    }
}
