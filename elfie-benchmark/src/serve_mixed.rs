//! `serve_mixed`: two client connections drive an in-process daemon in a
//! closed loop over two tenants.
//!
//! Why: only this workload exercises framing, admission, shard queues and
//! the per-tenant caches. It is closed-loop because the protocol allows
//! one outstanding job per connection and the benchmark uses at most two
//! connections. `simulate` jobs are left out: served pinball simulation
//! keeps the marker-gated region of interest, so it models nothing.

use crate::layers::Layers;
use crate::stats::{percentile, sorted, Rng};
use crate::{Ctx, Phase};
use elfie::parallel::BatchValidator;
use elfie::simpoint::PinPointsConfig;
use elfie::workloads::{find_workload, InputScale};
use elfie_serve::{Client, Daemon, JobKind, JobSpec, Response, ServeConfig, ServeStats};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const TENANTS: [&str; 2] = ["tenant-a", "tenant-b"];
const VALIDATE: [&str; 6] = [
    "mcf_like",
    "x264_like",
    "leela_like",
    "lbm_like",
    "nab_like",
    "xz_s_like",
];
const RECORD: [&str; 3] = ["gcc_like", "xz_like", "lbm_like"];
const SLICE: u64 = 5_000;
const WARMUP: u64 = 2_000;
const MAX_K: u64 = 3;
const FUEL: u64 = 2_000_000_000;
const JOB_SEED: u64 = 42;
const REGION: u64 = 20_000;
/// Regions recorded per tenant in set-up, for `replay` jobs to reuse.
const REPLAY_REGIONS: usize = 3;
/// Fresh `record` regions start at distinct points from here on, below
/// every set-up region.
const FRESH_BASE: u64 = 5_000;
const FRESH_STRIDE: u64 = 7;
const CLIENTS: usize = 2;

const REGION_STREAM: u64 = 1;
/// Client `c` draws its jobs from stream `CLIENT_STREAM + c`.
const CLIENT_STREAM: u64 = 2;

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Job {
    Validate { tenant: usize, workload: usize },
    Replay { tenant: usize, region: usize },
    Record { tenant: usize, workload: usize },
}

/// One block of 20 jobs: 70% warm validate, 15% replay of a set-up
/// region, 15% record of a fresh region, in seeded order.
pub fn block(rng: &mut Rng) -> Vec<Job> {
    let mut jobs = Vec::with_capacity(20);
    for i in 0..20 {
        let tenant = rng.below(TENANTS.len());
        jobs.push(match i {
            0..=13 => Job::Validate {
                tenant,
                workload: rng.below(VALIDATE.len()),
            },
            14..=16 => Job::Replay {
                tenant,
                region: rng.below(REPLAY_REGIONS),
            },
            _ => Job::Record {
                tenant,
                workload: rng.below(RECORD.len()),
            },
        });
    }
    rng.shuffle(&mut jobs);
    jobs
}

fn validate_spec(workload: &str) -> JobSpec {
    JobSpec {
        kind: JobKind::Validate,
        workload: workload.to_string(),
        scale: "test".to_string(),
        slice: SLICE,
        warmup: WARMUP,
        maxk: MAX_K,
        seed: JOB_SEED,
        fuel: FUEL,
        ..JobSpec::default()
    }
}

fn region_spec(kind: JobKind, workload: &str, start: u64) -> JobSpec {
    JobSpec {
        kind,
        workload: workload.to_string(),
        scale: "test".to_string(),
        start,
        length: REGION,
        ..JobSpec::default()
    }
}

/// The replay regions of each tenant: `(workload, start)`, seeded.
fn replay_regions(seed: u64) -> Vec<Vec<(&'static str, u64)>> {
    let mut rng = Rng::new(seed, REGION_STREAM);
    TENANTS
        .iter()
        .map(|_| {
            (0..REPLAY_REGIONS)
                .map(|_| (RECORD[rng.below(RECORD.len())], rng.range(70_000, 120_000)))
                .collect()
        })
        .collect()
}

/// The offline report of every validate workload, which served reports
/// must equal byte for byte.
fn offline_reports() -> Result<Vec<String>, String> {
    let cfg = PinPointsConfig {
        slice_size: SLICE,
        warmup: WARMUP,
        max_k: MAX_K as usize,
        ..PinPointsConfig::default()
    };
    VALIDATE
        .iter()
        .map(|name| {
            let w = find_workload(name, InputScale::Test)
                .ok_or_else(|| format!("no workload {name}"))?;
            let (report, _) = BatchValidator::serial()
                .validate(&w, &cfg, JOB_SEED, FUEL)
                .map_err(|e| format!("{name}: {e}"))?;
            Ok(elfie::render::validation_report(&w.name, &report))
        })
        .collect()
}

/// A running daemon; dropping it drains and joins it.
struct Served {
    addr: String,
    daemon: Option<JoinHandle<()>>,
}

impl Served {
    fn start(dir: &std::path::Path) -> Result<Served, String> {
        let _ = std::fs::remove_dir_all(dir);
        let cfg = ServeConfig {
            shards: 2,
            ..ServeConfig::default()
        };
        let daemon = Daemon::bind("127.0.0.1:0", dir, cfg, None).map_err(|e| e.to_string())?;
        let addr = daemon.local_addr().to_string();
        let handle = std::thread::spawn(move || {
            daemon.run();
        });
        Ok(Served {
            addr,
            daemon: Some(handle),
        })
    }

    fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.addr).map_err(|e| e.to_string())
    }

    fn stats(&self) -> Result<ServeStats, String> {
        self.connect()?.stats().map_err(|e| e.to_string())
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Some(handle) = self.daemon.take() {
            if let Ok(mut c) = self.connect() {
                let _ = c.shutdown();
            }
            let _ = handle.join();
        }
    }
}

/// What the client expects back from a job.
enum Expect<'a> {
    Report(&'a str),
    Region,
}

fn check(resp: &Response, expect: &Expect<'_>) -> Result<(u64, u64), String> {
    let Response::Done {
        queue_ns,
        run_ns,
        report,
        ..
    } = resp
    else {
        return Err(format!("answered {resp:?}"));
    };
    let ok = match expect {
        Expect::Report(want) => report == want,
        Expect::Region => {
            let replayed = report.contains("completed=true")
                && report.contains(&format!("instructions={REGION}\n"));
            let captured = report.starts_with("captured ")
                && report.contains(&format!(", {REGION} instructions)"));
            replayed || captured
        }
    };
    if ok {
        Ok((*queue_ns, *run_ns))
    } else {
        Err(format!("answered {report:?}"))
    }
}

struct SetUp {
    served: Served,
    reports: Vec<String>,
    regions: Vec<Vec<(&'static str, u64)>>,
}

fn set_up(ctx: &Ctx, rep: usize) -> Result<SetUp, String> {
    let reports = offline_reports()?;
    let regions = replay_regions(ctx.seed);
    let served = Served::start(&ctx.scratch.join(format!("serve-{rep}")))?;
    // Warm every (tenant, workload) cache and record the replay regions,
    // one connection per tenant.
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..TENANTS.len())
            .map(|t| {
                let (served, reports, regions) = (&served, &reports, &regions);
                s.spawn(move || -> Result<(), String> {
                    let mut c = served.connect()?;
                    for (w, want) in VALIDATE.iter().zip(reports) {
                        let resp = c
                            .submit(TENANTS[t], validate_spec(w))
                            .map_err(|e| e.to_string())?;
                        check(&resp, &Expect::Report(want))
                            .map_err(|e| format!("warm {w}: {e}"))?;
                    }
                    for &(w, start) in &regions[t] {
                        let resp = c
                            .submit(TENANTS[t], region_spec(JobKind::Record, w, start))
                            .map_err(|e| e.to_string())?;
                        check(&resp, &Expect::Region)
                            .map_err(|e| format!("record {w}@{start}: {e}"))?;
                    }
                    Ok(())
                })
            })
            .collect();
        handles.into_iter().try_for_each(|h| {
            h.join()
                .map_err(|_| "warm-up thread panicked".to_string())?
        })
    })?;
    Ok(SetUp {
        served,
        reports,
        regions,
    })
}

/// One request as the client saw it.
struct Sample {
    latency: Duration,
    queue_ms: f64,
    run_ms: f64,
}

/// One client's closed loop: blocks of jobs until the deadline.
fn client_loop(
    c: usize,
    s: &SetUp,
    rng: &mut Rng,
    deadline: &crate::Deadline<'_>,
    lay: &mut Layers,
    failures: &Mutex<Vec<String>>,
) -> Result<Vec<Sample>, String> {
    let mut client = s.served.connect()?;
    let mut samples = Vec::new();
    let mut fresh = 0u64;
    while deadline.more(CLIENTS * samples.len()) {
        if lay.enabled() {
            let ((pong, _), _) = lay.op("ping", |lay| lay.time("serve.ping_ms", || client.ping()));
            pong.map_err(|e| e.to_string())?;
        }
        for job in block(rng) {
            let (tenant, spec, expect) = match job {
                Job::Validate { tenant, workload } => (
                    tenant,
                    validate_spec(VALIDATE[workload]),
                    Expect::Report(&s.reports[workload]),
                ),
                Job::Replay { tenant, region } => {
                    let (w, start) = s.regions[tenant][region];
                    (
                        tenant,
                        region_spec(JobKind::Replay, w, start),
                        Expect::Region,
                    )
                }
                Job::Record { tenant, workload } => {
                    fresh += 1;
                    let start = FRESH_BASE + FRESH_STRIDE * (fresh * CLIENTS as u64 + c as u64);
                    (
                        tenant,
                        region_spec(JobKind::Record, RECORD[workload], start),
                        Expect::Region,
                    )
                }
            };
            let what = format!("{} {}@{}", spec.kind.name(), spec.workload, spec.start);
            let (resp, latency) = lay.op("request", |lay| {
                lay.span("serve", "submit", || client.submit(TENANTS[tenant], spec))
                    .0
            });
            let resp = resp.map_err(|e| format!("{what}: {e}"))?;
            let (queue_ns, run_ns) = check(&resp, &expect).unwrap_or_else(|e| {
                failures
                    .lock()
                    .expect("no panics while held")
                    .push(format!("{what}: {e}"));
                (0, 0)
            });
            samples.push(Sample {
                latency,
                queue_ms: queue_ns as f64 / 1e6,
                run_ms: run_ns as f64 / 1e6,
            });
        }
    }
    Ok(samples)
}

pub fn run(ctx: &Ctx) -> Result<(Phase, Vec<f64>), String> {
    ctx.measure(|rep| set_up(ctx, rep), |s| serve(ctx, s))
}

fn serve(ctx: &Ctx, s: &SetUp) -> Result<Phase, String> {
    let mut lay = Layers::new(ctx.tracer.clone());
    let before = if lay.enabled() {
        Some(s.served.stats()?)
    } else {
        None
    };
    let failures = Mutex::new(Vec::new());
    let deadline = ctx.deadline();
    let t0 = Instant::now();
    let per_client = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (deadline, failures) = (&deadline, &failures);
                let mut lay = lay.fork();
                scope.spawn(move || {
                    let mut rng = Rng::new(ctx.seed, CLIENT_STREAM + c as u64);
                    let samples = client_loop(c, s, &mut rng, deadline, &mut lay, failures);
                    samples.map(|v| (v, lay))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
            .collect::<Result<Vec<_>, String>>()
    })?;

    let mut phase = Phase {
        // The clients overlap, so throughput is over the phase's wall time.
        busy: t0.elapsed(),
        ..Phase::default()
    };
    let (mut queue, mut run, mut residual) = (Vec::new(), Vec::new(), Vec::new());
    for (samples, client_lay) in per_client {
        lay.merge(client_lay);
        for x in samples {
            let ms = crate::layers::ms(x.latency);
            phase.latencies_ms.push(ms);
            queue.push(x.queue_ms);
            run.push(x.run_ms);
            residual.push((ms - x.queue_ms - x.run_ms).max(0.0));
        }
    }
    for f in failures.into_inner().expect("clients joined") {
        phase.fail(format_args!("serve_mixed: {f}"));
    }
    if let Some(before) = before {
        let after = s.served.stats()?;
        let accepted = after.accepted - before.accepted;
        let busy = after.rejected_busy - before.rejected_busy;
        lay.set(
            "serve.busy_frac",
            busy as f64 / (accepted + busy).max(1) as f64,
        );
        lay.set(
            "serve.store_puts",
            (after.store_puts - before.store_puts) as f64,
        );
        for (v, p50, p95) in [
            (&queue, "serve.queue_ms_p50", "serve.queue_ms_p95"),
            (&run, "serve.run_ms_p50", "serve.run_ms_p95"),
            (&residual, "serve.residual_ms_p50", "serve.residual_ms_p95"),
        ] {
            let v = sorted(v);
            lay.set(p50, percentile(&v, 0.5));
            lay.set(p95, percentile(&v, 0.95));
        }
        // Client time the daemon's queue and run timers do not cover:
        // framing, admission, connection handling and reply.
        let total: f64 = phase.latencies_ms.iter().sum();
        lay.set(
            "unattributed_frac",
            residual.iter().sum::<f64>() / total.max(f64::MIN_POSITIVE),
        );
    }
    phase.layers = lay.finish(deadline.elapsed());
    Ok(phase)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocks(seed: u64) -> Vec<Vec<Job>> {
        let mut rng = Rng::new(seed, CLIENT_STREAM);
        (0..3).map(|_| block(&mut rng)).collect()
    }

    #[test]
    fn the_seed_fixes_the_job_sequence_and_the_mix_is_exact() {
        assert_eq!(blocks(1), blocks(1));
        assert_ne!(blocks(1), blocks(2));
        assert_eq!(replay_regions(1), replay_regions(1));
        assert_ne!(replay_regions(1), replay_regions(2));
        for b in blocks(9) {
            let validates = b
                .iter()
                .filter(|j| matches!(j, Job::Validate { .. }))
                .count();
            let replays = b.iter().filter(|j| matches!(j, Job::Replay { .. })).count();
            assert_eq!((b.len(), validates, replays), (20, 14, 3));
        }
    }
}
