//! The client side of the serve protocol: one blocking connection.

use crate::protocol::{
    read_frame, with_rid, write_frame, FrameError, JobPhase, JobSpec, JobSummary, Request,
    Response, ServeStats,
};
use elfie::trace::MetricsSnapshot;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Generates a process-unique request id: an FNV-1a mix of the process
/// id, a wall-clock sample, and a process-wide sequence number. Never
/// returns 0 (the protocol's "untagged" id).
fn generate_rid() -> u64 {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for word in [
        u64::from(std::process::id()),
        nanos,
        SEQ.fetch_add(1, Ordering::Relaxed),
    ] {
        for b in word.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h.max(1)
}

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Could not reach the daemon.
    Connect {
        /// The address dialed.
        addr: String,
        /// The socket error.
        detail: String,
    },
    /// The connection broke or produced garbage mid-exchange.
    Frame(FrameError),
    /// The daemon answered something the request cannot mean.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Connect { addr, detail } => write!(f, "connect {addr}: {detail}"),
            ClientError::Frame(e) => write!(f, "{e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// One connection to a daemon. Requests are strictly sequential
/// (request, then response) — open more clients for concurrency.
///
/// Every request is stamped with a generated correlation id; the daemon
/// threads it through its scheduler spans and echoes it on every
/// response frame. [`Client::last_rid`] exposes the most recent one so
/// callers can label their own spans (and later filter a merged trace
/// with `elfie trace summarize --request`).
pub struct Client {
    stream: TcpStream,
    last_rid: u64,
}

impl Client {
    /// Dials the daemon at `addr` (e.g. `127.0.0.1:4256`).
    ///
    /// # Errors
    /// [`ClientError::Connect`] with the socket error.
    pub fn connect(addr: &str) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr).map_err(|e| ClientError::Connect {
            addr: addr.to_string(),
            detail: e.to_string(),
        })?;
        let _ = stream.set_nodelay(true);
        Ok(Client {
            stream,
            last_rid: 0,
        })
    }

    /// Like [`Client::connect`] with a dial timeout, for readiness polls.
    ///
    /// # Errors
    /// [`ClientError::Connect`] on refusal or timeout.
    pub fn connect_timeout(addr: &str, timeout: Duration) -> Result<Client, ClientError> {
        use std::net::ToSocketAddrs;
        let resolved = addr
            .to_socket_addrs()
            .map_err(|e| ClientError::Connect {
                addr: addr.to_string(),
                detail: e.to_string(),
            })?
            .next()
            .ok_or_else(|| ClientError::Connect {
                addr: addr.to_string(),
                detail: "no addresses".to_string(),
            })?;
        let stream =
            TcpStream::connect_timeout(&resolved, timeout).map_err(|e| ClientError::Connect {
                addr: addr.to_string(),
                detail: e.to_string(),
            })?;
        let _ = stream.set_nodelay(true);
        Ok(Client {
            stream,
            last_rid: 0,
        })
    }

    /// The correlation id stamped on the most recent request (0 before
    /// the first one). Matches the `request_id` span argument on the
    /// daemon side of that request.
    pub fn last_rid(&self) -> u64 {
        self.last_rid
    }

    /// Sends one rid-stamped request frame without reading a response.
    fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        self.last_rid = generate_rid();
        write_frame(
            &mut self.stream,
            &with_rid(request.to_json(), self.last_rid),
        )
        .map_err(ClientError::Frame)
    }

    /// Reads one response frame.
    fn recv(&mut self) -> Result<Response, ClientError> {
        let doc = read_frame(&mut self.stream).map_err(ClientError::Frame)?;
        Response::from_json(&doc).map_err(|m| ClientError::Frame(FrameError::Malformed(m)))
    }

    /// Sends one request and reads its response.
    ///
    /// # Errors
    /// [`ClientError::Frame`] on transport/decoding failures.
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.send(request)?;
        self.recv()
    }

    /// Liveness probe; returns `(daemon version, protocol version)`.
    ///
    /// # Errors
    /// Transport failures, or a non-`pong` answer.
    pub fn ping(&mut self) -> Result<(String, u64), ClientError> {
        match self.request(&Request::Ping)? {
            Response::Pong { version, protocol } => Ok((version, protocol)),
            other => Err(unexpected("pong", &other)),
        }
    }

    /// Submits one job under `tenant` and blocks until the daemon
    /// answers. The caller matches on `Done`/`Busy`/`Error`.
    ///
    /// # Errors
    /// Transport failures only — `Busy` and `Error` are valid answers.
    pub fn submit(&mut self, tenant: &str, job: JobSpec) -> Result<Response, ClientError> {
        self.request(&Request::Submit {
            tenant: tenant.to_string(),
            job,
            follow: false,
        })
    }

    /// Submits one job with progress streaming: `on_progress` is called
    /// for every `progress` frame (job id, shard, phase) until the
    /// final result frame arrives, which is returned exactly like
    /// [`Client::submit`]'s.
    ///
    /// # Errors
    /// Transport failures only — `Busy` and `Error` are valid answers.
    pub fn submit_follow(
        &mut self,
        tenant: &str,
        job: JobSpec,
        mut on_progress: impl FnMut(u64, u64, JobPhase),
    ) -> Result<Response, ClientError> {
        self.send(&Request::Submit {
            tenant: tenant.to_string(),
            job,
            follow: true,
        })?;
        loop {
            match self.recv()? {
                Response::Progress { id, shard, phase } => on_progress(id, shard, phase),
                other => return Ok(other),
            }
        }
    }

    /// Lists the daemon's jobs.
    ///
    /// # Errors
    /// Transport failures, or a non-`jobs` answer.
    pub fn jobs(&mut self) -> Result<Vec<JobSummary>, ClientError> {
        match self.request(&Request::Jobs { watch_ms: 0 })? {
            Response::Jobs { jobs } => Ok(jobs),
            other => Err(unexpected("jobs", &other)),
        }
    }

    /// Watches the daemon's jobs for `watch_ms` milliseconds:
    /// `on_progress` receives every phase change streamed in the
    /// window, and the final job listing is returned.
    ///
    /// # Errors
    /// Transport failures, or a non-`jobs` final answer.
    pub fn jobs_watch(
        &mut self,
        watch_ms: u64,
        mut on_progress: impl FnMut(u64, u64, JobPhase),
    ) -> Result<Vec<JobSummary>, ClientError> {
        self.send(&Request::Jobs { watch_ms })?;
        loop {
            match self.recv()? {
                Response::Progress { id, shard, phase } => on_progress(id, shard, phase),
                Response::Jobs { jobs } => return Ok(jobs),
                other => return Err(unexpected("jobs", &other)),
            }
        }
    }

    /// Fetches a point-in-time snapshot of the daemon's metrics
    /// registry.
    ///
    /// # Errors
    /// Transport failures, or a non-`metrics` answer.
    pub fn metrics(&mut self) -> Result<MetricsSnapshot, ClientError> {
        match self.request(&Request::Metrics)? {
            Response::Metrics { metrics } => Ok(metrics),
            other => Err(unexpected("metrics", &other)),
        }
    }

    /// Fetches daemon-wide counters.
    ///
    /// # Errors
    /// Transport failures, or a non-`stats` answer.
    pub fn stats(&mut self) -> Result<ServeStats, ClientError> {
        match self.request(&Request::Stats)? {
            Response::Stats { stats } => Ok(stats),
            other => Err(unexpected("stats", &other)),
        }
    }

    /// Asks the daemon to drain and exit; returns its lifetime job count.
    ///
    /// # Errors
    /// Transport failures, or a non-`bye` answer.
    pub fn shutdown(&mut self) -> Result<u64, ClientError> {
        match self.request(&Request::Shutdown)? {
            Response::Bye { drained } => Ok(drained),
            other => Err(unexpected("bye", &other)),
        }
    }
}

fn unexpected(wanted: &str, got: &Response) -> ClientError {
    match got {
        Response::Error { message } => ClientError::Protocol(message.clone()),
        other => ClientError::Protocol(format!("expected `{wanted}`, got {other:?}")),
    }
}
