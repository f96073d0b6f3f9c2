//! The long-running `elfie serve` daemon: a TCP front end over the
//! sharded [`Scheduler`].
//!
//! One thread per connection speaks the frame protocol; `submit`
//! requests block their connection (not the daemon) until the job
//! finishes or admission sheds it. A `shutdown` request answers `bye`,
//! then the daemon stops accepting, waits for every open connection to
//! finish its in-flight requests (idle connections notice the drain via
//! a short read-timeout poll), drains the shard queues, and joins the
//! workers — no job that was admitted is ever abandoned.
//!
//! Error discipline: every startup failure (unbindable address, store
//! path that is not a usable directory) is a typed [`ServeError`] the
//! CLI turns into a one-line diagnostic and a non-zero exit — never a
//! panic. Mid-connection protocol garbage gets a typed `error` response
//! and the connection survives when the frame boundary was intact
//! (malformed JSON), or is closed when the byte stream itself is
//! unusable (oversized prefix, truncation).

use crate::protocol::{
    frame_rid, read_frame, with_rid, write_frame, FrameError, JobPhase, JobSpec, Request, Response,
    ServeStats,
};
use crate::scheduler::{Enqueued, JobOutcome, Scheduler, ServeConfig};
use elfie::trace::{Counter, MetricsRegistry, Tracer};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often an idle connection wakes to check for daemon drain.
const IDLE_POLL: Duration = Duration::from_millis(100);

/// How often a follow/watch stream re-checks for phase changes when the
/// job table is quiet (the table's condvar wakes it sooner on change).
const PROGRESS_POLL: Duration = Duration::from_millis(25);

/// A daemon startup failure. One line, actionable, non-zero exit.
#[derive(Debug)]
pub enum ServeError {
    /// The listen address could not be bound (in use, malformed, …).
    Bind {
        /// The requested address.
        addr: String,
        /// The socket error.
        detail: String,
    },
    /// The store directory could not be opened or created.
    Store {
        /// The requested store root.
        dir: PathBuf,
        /// The store error.
        detail: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bind { addr, detail } => write!(f, "bind {addr}: {detail}"),
            ServeError::Store { dir, detail } => {
                write!(f, "open store {}: {detail}", dir.display())
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Pre-registered per-verb request counters, so the request hot path
/// (a ping flood, say) never touches the registry's name map.
struct VerbCounters {
    ping: Arc<Counter>,
    submit: Arc<Counter>,
    jobs: Arc<Counter>,
    stats: Arc<Counter>,
    metrics: Arc<Counter>,
    shutdown: Arc<Counter>,
}

impl VerbCounters {
    fn new(registry: &MetricsRegistry) -> VerbCounters {
        VerbCounters {
            ping: registry.counter("serve.requests.ping"),
            submit: registry.counter("serve.requests.submit"),
            jobs: registry.counter("serve.requests.jobs"),
            stats: registry.counter("serve.requests.stats"),
            metrics: registry.counter("serve.requests.metrics"),
            shutdown: registry.counter("serve.requests.shutdown"),
        }
    }

    fn count(&self, request: &Request) {
        match request {
            Request::Ping => self.ping.add(1),
            Request::Submit { .. } => self.submit.add(1),
            Request::Jobs { .. } => self.jobs.add(1),
            Request::Stats => self.stats.add(1),
            Request::Metrics => self.metrics.add(1),
            Request::Shutdown => self.shutdown.add(1),
        }
    }
}

/// A bound-but-not-yet-serving daemon. [`Daemon::run`] blocks until a
/// client asks for shutdown.
pub struct Daemon {
    listener: TcpListener,
    scheduler: Scheduler,
    tracer: Option<Arc<Tracer>>,
    started: Instant,
}

impl Daemon {
    /// Binds `addr`, verifies the store at `store_dir` is usable, and
    /// spawns the shard workers. Pass `127.0.0.1:0` to let the OS pick a
    /// port ([`Daemon::local_addr`] reports it).
    ///
    /// # Errors
    /// A typed [`ServeError`] for an unbindable address or unusable
    /// store path — the two startup failures the CLI must report with a
    /// one-line diagnostic and a non-zero exit.
    pub fn bind(
        addr: &str,
        store_dir: &Path,
        cfg: ServeConfig,
        tracer: Option<Arc<Tracer>>,
    ) -> Result<Daemon, ServeError> {
        // Open the store once up front: this creates the directory tree
        // on first use and rejects a path that exists but is not a
        // store-shaped directory before we start accepting work. Every
        // tenant cache shares this one handle.
        let store = elfie::store::Store::open(store_dir).map_err(|e| ServeError::Store {
            dir: store_dir.to_path_buf(),
            detail: e.to_string(),
        })?;
        let listener = TcpListener::bind(addr).map_err(|e| ServeError::Bind {
            addr: addr.to_string(),
            detail: e.to_string(),
        })?;
        let scheduler = Scheduler::start(store, cfg, tracer.clone());
        Ok(Daemon {
            listener,
            scheduler,
            tracer,
            started: Instant::now(),
        })
    }

    /// The bound address (resolves `:0` to the picked port).
    ///
    /// # Panics
    /// Never in practice: a bound listener always has a local address.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener has addr")
    }

    /// Serves until a client requests shutdown, then drains gracefully.
    /// Returns the lifetime counters (taken before the drain, as the
    /// last `stats` request would see them).
    pub fn run(mut self) -> ServeStats {
        let shutdown = AtomicBool::new(false);
        let local = self.local_addr();
        let verbs = VerbCounters::new(self.scheduler.metrics_registry());
        let ctx = ConnCtx {
            scheduler: &self.scheduler,
            tracer: &self.tracer,
            shutdown: &shutdown,
            verbs: &verbs,
            started: self.started,
        };
        std::thread::scope(|s| {
            loop {
                let (stream, _peer) = match self.listener.accept() {
                    Ok(pair) => pair,
                    Err(_) => continue,
                };
                if shutdown.load(Ordering::SeqCst) {
                    break; // the drain wake-up; nothing to serve
                }
                let conn = self.scheduler.count_connection();
                s.spawn(move || {
                    if let Some(tracer) = ctx.tracer {
                        tracer.set_thread_name(&format!("conn-{conn}"));
                    }
                    serve_connection(stream, &ctx);
                    if ctx.shutdown.load(Ordering::SeqCst) {
                        // First responder wakes the accept loop.
                        let _ = TcpStream::connect(local);
                    }
                });
            }
            // The scope joins every connection thread here: in-flight
            // requests finish, idle connections notice the drain flag.
        });
        let stats = self.scheduler.stats();
        self.scheduler.drain();
        stats
    }
}

/// Everything a connection thread needs, copied per connection.
#[derive(Clone, Copy)]
struct ConnCtx<'a> {
    scheduler: &'a Scheduler,
    tracer: &'a Option<Arc<Tracer>>,
    shutdown: &'a AtomicBool,
    verbs: &'a VerbCounters,
    started: Instant,
}

/// Writes one rid-stamped response frame; `false` means the connection
/// is gone and the caller should stop.
fn send(stream: &mut TcpStream, rid: u64, response: &Response) -> bool {
    write_frame(stream, &with_rid(response.to_json(), rid)).is_ok()
}

/// One connection's request loop.
fn serve_connection(mut stream: TcpStream, ctx: &ConnCtx<'_>) {
    // Idle connections poll so a drain is noticed without client help.
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    let _ = stream.set_nodelay(true);
    loop {
        let doc = match read_frame(&mut stream) {
            Ok(doc) => doc,
            Err(FrameError::Idle) => {
                if ctx.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Err(FrameError::Closed) => break,
            Err(FrameError::Malformed(m)) => {
                // The frame boundary was intact: answer with a typed
                // error and keep the connection alive.
                let resp = Response::Error {
                    message: format!("malformed frame: {m}"),
                };
                if write_frame(&mut stream, &resp.to_json()).is_err() {
                    break;
                }
                continue;
            }
            Err(e @ (FrameError::Oversized { .. } | FrameError::Truncated { .. })) => {
                // The byte stream is desynchronized: report and close.
                let resp = Response::Error {
                    message: e.to_string(),
                };
                let _ = write_frame(&mut stream, &resp.to_json());
                break;
            }
            Err(FrameError::Io(_)) => break,
        };
        let rid = frame_rid(&doc);
        let request = match Request::from_json(&doc) {
            Ok(request) => request,
            Err(m) => {
                let resp = Response::Error {
                    message: format!("bad request: {m}"),
                };
                if !send(&mut stream, rid, &resp) {
                    break;
                }
                continue;
            }
        };
        ctx.verbs.count(&request);
        let mut span = ctx
            .tracer
            .as_ref()
            .map(|t| t.span_labeled("serve", "request", kind_name(&request).to_string()));
        if let (Some(span), true) = (span.as_mut(), rid != 0) {
            span.arg("request_id", rid);
        }
        let keep = match request {
            Request::Submit {
                tenant,
                job,
                follow,
            } => serve_submit(&mut stream, ctx, rid, &tenant, job, follow),
            Request::Jobs { watch_ms } if watch_ms > 0 => {
                serve_watch(&mut stream, ctx, rid, watch_ms)
            }
            other => {
                let (response, last) = handle(&other, ctx);
                send(&mut stream, rid, &response) && !last
            }
        };
        drop(span);
        if !keep {
            break;
        }
    }
}

fn kind_name(request: &Request) -> &'static str {
    match request {
        Request::Ping => "ping",
        Request::Submit { .. } => "submit",
        Request::Jobs { .. } => "jobs",
        Request::Stats => "stats",
        Request::Metrics => "metrics",
        Request::Shutdown => "shutdown",
    }
}

/// Runs one submit, streaming [`Response::Progress`] frames first when
/// the client asked to follow. Returns `false` when the connection is
/// gone. A dead follower only stops the frame writes — the shard's
/// reply `try_send` never blocks on it, and the job runs to completion
/// either way.
fn serve_submit(
    stream: &mut TcpStream,
    ctx: &ConnCtx<'_>,
    rid: u64,
    tenant: &str,
    job: JobSpec,
    follow: bool,
) -> bool {
    if ctx.shutdown.load(Ordering::SeqCst) {
        return send(
            stream,
            rid,
            &Response::Error {
                message: "daemon is draining".to_string(),
            },
        );
    }
    let (id, reply) = match ctx.scheduler.enqueue(tenant, job, rid) {
        Enqueued::Queued { id, reply } => (id, reply),
        Enqueued::Busy { shard, capacity } => {
            return send(stream, rid, &Response::Busy { shard, capacity });
        }
        Enqueued::Rejected(message) => {
            return send(stream, rid, &Response::Error { message });
        }
    };
    if follow {
        // Replay the job's phase history from index `sent` on. The
        // history (not a latest-phase poll) is what guarantees a
        // follower sees *every* transition — queued, profile, each
        // slice, stitch, render — however fast the job ran.
        let table = ctx.scheduler.table();
        let mut sent = 0usize;
        let flush = |stream: &mut TcpStream, sent: &mut usize| -> bool {
            if let Some((shard, tail)) = table.phases_since(id, *sent) {
                for phase in tail {
                    *sent += 1;
                    if !send(stream, rid, &Response::Progress { id, shard, phase }) {
                        return false;
                    }
                }
            }
            true
        };
        let mut seen = table.version();
        loop {
            match reply.try_recv() {
                Ok(outcome) => {
                    // Flush the transitions that landed before the
                    // outcome, then end the stream with the result.
                    return flush(stream, &mut sent)
                        && send(stream, rid, &outcome_response(outcome));
                }
                Err(std::sync::mpsc::TryRecvError::Empty) => {}
                Err(std::sync::mpsc::TryRecvError::Disconnected) => {
                    // Shard died mid-job; `await_outcome` on the dead
                    // channel does the failed-state bookkeeping.
                    let _ = ctx.scheduler.await_outcome(id, &reply);
                    return send(
                        stream,
                        rid,
                        &Response::Error {
                            message: "daemon is draining".to_string(),
                        },
                    );
                }
            }
            if !flush(stream, &mut sent) {
                return false;
            }
            seen = table.wait_change(seen, PROGRESS_POLL);
        }
    }
    let response = match ctx.scheduler.await_outcome(id, &reply) {
        Ok(outcome) => outcome_response(outcome),
        Err(message) => Response::Error { message },
    };
    send(stream, rid, &response)
}

fn outcome_response(outcome: JobOutcome) -> Response {
    match outcome.result {
        Ok(report) => Response::Done {
            id: outcome.id,
            shard: outcome.shard,
            queue_ns: outcome.queue_ns,
            run_ns: outcome.run_ns,
            report,
        },
        Err(message) => Response::Error { message },
    }
}

/// Streams phase changes across all jobs for `watch_ms`, then the final
/// job listing. Returns `false` when the connection is gone.
fn serve_watch(stream: &mut TcpStream, ctx: &ConnCtx<'_>, rid: u64, watch_ms: u64) -> bool {
    let deadline = Instant::now() + Duration::from_millis(watch_ms);
    let table = ctx.scheduler.table();
    let mut last: BTreeMap<u64, JobPhase> = table
        .phases()
        .into_iter()
        .map(|(id, _, phase)| (id, phase))
        .collect();
    let mut seen = table.version();
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            break;
        }
        seen = table.wait_change(seen, left.min(PROGRESS_POLL));
        for (id, shard, phase) in table.phases() {
            if last.get(&id) != Some(&phase) {
                last.insert(id, phase);
                if !send(stream, rid, &Response::Progress { id, shard, phase }) {
                    return false;
                }
            }
        }
    }
    send(
        stream,
        rid,
        &Response::Jobs {
            jobs: table.snapshot(),
        },
    )
}

/// The `field` line (`VmRSS:`, `VmHWM:`) of a `/proc/self/status` text
/// in bytes: the process's real resident set, where
/// `serve.peak_rss_bytes` sums per-machine guest page peaks. 0 where the
/// line is missing or unreadable (no procfs).
fn status_bytes(status: &str, field: &str) -> i64 {
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse::<i64>().ok())
        .map_or(0, |kib| kib.saturating_mul(1024))
}

/// Maps a non-streaming request to its response; `true` means the
/// connection closes after answering (shutdown).
fn handle(request: &Request, ctx: &ConnCtx<'_>) -> (Response, bool) {
    match request {
        Request::Ping => (
            Response::Pong {
                version: env!("CARGO_PKG_VERSION").to_string(),
                protocol: crate::protocol::PROTOCOL_VERSION,
            },
            false,
        ),
        // Streaming verbs are handled in `serve_connection`; reaching
        // here means follow=false / watch_ms=0 fell through.
        Request::Submit { .. } | Request::Jobs { watch_ms: 1.. } => unreachable!(),
        Request::Jobs { watch_ms: 0 } => (
            Response::Jobs {
                jobs: ctx.scheduler.table().snapshot(),
            },
            false,
        ),
        Request::Stats => (
            Response::Stats {
                stats: ctx.scheduler.stats(),
            },
            false,
        ),
        Request::Metrics => {
            // Scrape-time gauges: refreshed at the moment of observation
            // rather than maintained on the hot path.
            let registry = ctx.scheduler.metrics_registry();
            registry
                .gauge("serve.uptime_s")
                .set(i64::try_from(ctx.started.elapsed().as_secs()).unwrap_or(i64::MAX));
            let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
            registry
                .gauge("serve.process_rss_bytes")
                .set(status_bytes(&status, "VmRSS:"));
            registry
                .gauge("serve.process_hwm_bytes")
                .set(status_bytes(&status, "VmHWM:"));
            (
                Response::Metrics {
                    metrics: ctx.scheduler.metrics_snapshot(),
                },
                false,
            )
        }
        Request::Shutdown => {
            ctx.shutdown.store(true, Ordering::SeqCst);
            (
                Response::Bye {
                    drained: ctx.scheduler.completed(),
                },
                true,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::status_bytes;

    #[test]
    fn status_lines_read_as_bytes_and_anything_else_as_zero() {
        let status = "Name:\telfie\nVmHWM:\t   95312 kB\nVmRSS:\t   90120 kB\n";
        assert_eq!(status_bytes(status, "VmRSS:"), 90_120 * 1024);
        assert_eq!(status_bytes(status, "VmHWM:"), 95_312 * 1024);
        assert_eq!(status_bytes("", "VmRSS:"), 0);
        assert_eq!(status_bytes("VmRSS:\t twelve kB\n", "VmRSS:"), 0);
    }
}
