//! The `elfie serve` wire protocol: length-prefixed JSON frames.
//!
//! One frame is a 4-byte big-endian length followed by that many bytes
//! of UTF-8 JSON (rendered and parsed by the zero-dependency
//! [`Json`] machinery from `elfie-trace` — no new dependencies). The
//! length prefix is capped at [`MAX_FRAME`]: a peer announcing a larger
//! frame is rejected *before* any allocation, so a hostile or corrupt
//! length cannot balloon memory. Every decode failure is a typed
//! [`FrameError`], never a panic — `tests/serve_protocol.rs` proptests
//! arbitrary payloads, truncation at every offset, and oversized
//! prefixes against that contract.
//!
//! Both ends speak the same [`Request`]/[`Response`] enums; the JSON
//! envelope is `{"type": "...", ...fields}`. Parsing is strict about
//! types (a string where a count belongs is a [`FrameError::Malformed`],
//! not a silent default) but tolerant about *missing* optional fields,
//! which take the documented defaults — that is what lets old clients
//! talk to newer daemons.

use elfie_trace::json::Json;
use elfie_trace::MetricsSnapshot;
use std::io::{Read, Write};

/// Protocol revision spoken by this build. Bumped on breaking changes;
/// [`Response::Pong`] carries it so clients can detect a mismatch.
pub const PROTOCOL_VERSION: u64 = 1;

/// Hard cap on a frame's payload length. Reports and job specs are
/// hundreds of bytes; 1 MiB leaves two orders of magnitude of headroom
/// while keeping a hostile length prefix harmless.
pub const MAX_FRAME: u32 = 1 << 20;

/// Every way reading a frame can fail, plus the two non-failures a
/// server loop needs to distinguish (clean close, idle poll).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// A read timeout elapsed with no bytes consumed (the daemon polls
    /// idle connections so it can notice shutdown). Not an error.
    Idle,
    /// The stream ended mid-frame.
    Truncated {
        /// Bytes the frame (header + payload) still owed.
        expected: usize,
        /// Bytes actually read before EOF.
        got: usize,
    },
    /// The length prefix exceeds [`MAX_FRAME`]; nothing was allocated.
    Oversized {
        /// The announced payload length.
        len: u32,
    },
    /// The payload was not valid UTF-8 JSON of the expected shape.
    Malformed(String),
    /// An underlying socket error.
    Io(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Idle => write!(f, "idle"),
            FrameError::Truncated { expected, got } => {
                write!(f, "truncated frame: got {got} of {expected} bytes")
            }
            FrameError::Oversized { len } => {
                write!(f, "oversized frame: {len} bytes (max {MAX_FRAME})")
            }
            FrameError::Malformed(m) => write!(f, "malformed frame: {m}"),
            FrameError::Io(m) => write!(f, "io error: {m}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Reads exactly `buf.len()` bytes. `already` is how many bytes of this
/// frame were consumed before the call (for truncation accounting), and
/// distinguishes a clean close (EOF at a frame boundary with nothing
/// read) from a mid-frame truncation.
fn read_full(r: &mut impl Read, buf: &mut [u8], already: usize) -> Result<(), FrameError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                return if got == 0 && already == 0 {
                    Err(FrameError::Closed)
                } else {
                    Err(FrameError::Truncated {
                        expected: already + buf.len(),
                        got: already + got,
                    })
                };
            }
            Ok(n) => got += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return if got == 0 && already == 0 {
                    Err(FrameError::Idle)
                } else {
                    // A peer that stalls mid-frame past the read timeout
                    // is indistinguishable from a truncation.
                    Err(FrameError::Truncated {
                        expected: already + buf.len(),
                        got: already + got,
                    })
                };
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e.to_string())),
        }
    }
    Ok(())
}

/// Reads one frame and parses its JSON payload.
///
/// # Errors
/// [`FrameError::Closed`]/[`FrameError::Idle`] are flow signals; the
/// rest are real decode failures. Never panics on any input.
pub fn read_frame(r: &mut impl Read) -> Result<Json, FrameError> {
    let mut header = [0u8; 4];
    read_full(r, &mut header, 0)?;
    let len = u32::from_be_bytes(header);
    if len > MAX_FRAME {
        return Err(FrameError::Oversized { len });
    }
    let mut payload = vec![0u8; len as usize];
    read_full(r, &mut payload, 4)?;
    Json::parse_bytes(&payload).map_err(FrameError::Malformed)
}

/// Renders `doc` and writes it as one frame.
///
/// # Errors
/// [`FrameError::Oversized`] if the rendering exceeds [`MAX_FRAME`]
/// (nothing is written), else any socket error.
pub fn write_frame(w: &mut impl Write, doc: &Json) -> Result<(), FrameError> {
    let text = doc.render();
    let bytes = text.as_bytes();
    let Ok(len) = u32::try_from(bytes.len()) else {
        return Err(FrameError::Oversized { len: u32::MAX });
    };
    if len > MAX_FRAME {
        return Err(FrameError::Oversized { len });
    }
    let io = |e: std::io::Error| FrameError::Io(e.to_string());
    w.write_all(&len.to_be_bytes()).map_err(io)?;
    w.write_all(bytes).map_err(io)?;
    w.flush().map_err(io)
}

// ---------------------------------------------------------------------------
// Strict JSON field access
// ---------------------------------------------------------------------------

fn u64_field(doc: &Json, name: &str, default: u64) -> Result<u64, String> {
    match doc.get(name) {
        None | Some(Json::Null) => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| format!("field `{name}` must be a non-negative integer")),
    }
}

fn str_field<'a>(doc: &'a Json, name: &str, default: &'a str) -> Result<&'a str, String> {
    match doc.get(name) {
        None | Some(Json::Null) => Ok(default),
        Some(Json::Str(s)) => Ok(s),
        Some(_) => Err(format!("field `{name}` must be a string")),
    }
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn bool_field(doc: &Json, name: &str, default: bool) -> Result<bool, String> {
    match doc.get(name) {
        None | Some(Json::Null) => Ok(default),
        Some(Json::Bool(b)) => Ok(*b),
        Some(_) => Err(format!("field `{name}` must be a boolean")),
    }
}

fn s(text: &str) -> Json {
    Json::Str(text.to_string())
}

// ---------------------------------------------------------------------------
// Request-id correlation
// ---------------------------------------------------------------------------

/// Extracts the envelope-level `rid` correlation id from any frame
/// (request or response). Absent, null, or non-numeric ids read as 0,
/// the "untagged" id — correlation is observability metadata, so a
/// peer that does not stamp it must still be understood.
pub fn frame_rid(doc: &Json) -> u64 {
    doc.get("rid").and_then(Json::as_u64).unwrap_or(0)
}

/// Stamps the envelope-level `rid` correlation id onto a rendered
/// frame. A zero id means "untagged" and stamps nothing; non-object
/// documents pass through unchanged (they will fail decode anyway).
pub fn with_rid(doc: Json, rid: u64) -> Json {
    if rid == 0 {
        return doc;
    }
    match doc {
        Json::Obj(mut fields) => {
            fields.retain(|(k, _)| k != "rid");
            fields.push(("rid".to_string(), Json::U64(rid)));
            Json::Obj(fields)
        }
        other => other,
    }
}

// ---------------------------------------------------------------------------
// Job specification
// ---------------------------------------------------------------------------

/// What kind of pipeline work a job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobKind {
    /// Capture a region as a fat pinball into the tenant's namespace.
    Record,
    /// Full ELFie-based validation (the canonical report).
    Validate,
    /// Constrained replay of a captured region.
    Replay,
    /// Simulate a captured region on a named simulator.
    Simulate,
}

impl JobKind {
    /// The stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            JobKind::Record => "record",
            JobKind::Validate => "validate",
            JobKind::Replay => "replay",
            JobKind::Simulate => "simulate",
        }
    }

    /// Parses the stable wire name.
    ///
    /// # Errors
    /// Lists the valid kinds.
    pub fn parse(text: &str) -> Result<JobKind, String> {
        match text {
            "record" => Ok(JobKind::Record),
            "validate" => Ok(JobKind::Validate),
            "replay" => Ok(JobKind::Replay),
            "simulate" => Ok(JobKind::Simulate),
            other => Err(format!(
                "unknown job kind `{other}` (record|validate|replay|simulate)"
            )),
        }
    }
}

/// One job, fully specified. Field defaults mirror the offline CLI
/// (`elfie validate` / `elfie record`) so a daemon-side job with the
/// same knobs produces the same bytes as the offline command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// The pipeline stage to run.
    pub kind: JobKind,
    /// Workload name (`gcc_like`, …).
    pub workload: String,
    /// Input scale (`test`/`train`/`ref`).
    pub scale: String,
    /// Validate: slice (region) size in instructions.
    pub slice: u64,
    /// Validate: warm-up instructions per region.
    pub warmup: u64,
    /// Validate: maximum number of clusters.
    pub maxk: u64,
    /// Validate: clustering seed.
    pub seed: u64,
    /// Validate: per-run fuel.
    pub fuel: u64,
    /// Record/replay/simulate: region start (global icount; 0 = program
    /// start).
    pub start: u64,
    /// Record/replay/simulate: region length in instructions.
    pub length: u64,
    /// Simulate: simulator name (`coresim`, `sniper`, …).
    pub sim: String,
    /// Simulate: number of shards for intra-region sharded simulation
    /// (0 = unsharded single pass).
    pub shards: u64,
    /// Simulate: snapshot interval in instructions for sharded
    /// simulation (0 = one slice per shard, `length / shards`).
    pub interval: u64,
}

impl Default for JobSpec {
    fn default() -> JobSpec {
        JobSpec {
            kind: JobKind::Validate,
            workload: String::new(),
            scale: "train".to_string(),
            slice: 100_000,
            warmup: 200_000,
            maxk: 10,
            seed: 42,
            fuel: 2_000_000_000,
            start: 0,
            length: 100_000,
            sim: "coresim".to_string(),
            shards: 0,
            interval: 0,
        }
    }
}

impl JobSpec {
    /// The wire encoding (all fields, always).
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("kind", s(self.kind.name())),
            ("workload", s(&self.workload)),
            ("scale", s(&self.scale)),
            ("slice", Json::U64(self.slice)),
            ("warmup", Json::U64(self.warmup)),
            ("maxk", Json::U64(self.maxk)),
            ("seed", Json::U64(self.seed)),
            ("fuel", Json::U64(self.fuel)),
            ("start", Json::U64(self.start)),
            ("length", Json::U64(self.length)),
            ("sim", s(&self.sim)),
            ("shards", Json::U64(self.shards)),
            ("interval", Json::U64(self.interval)),
        ])
    }

    /// Decodes a job object; absent fields take [`JobSpec::default`]
    /// values, wrongly-typed fields are errors.
    ///
    /// # Errors
    /// Describes the first offending field.
    pub fn from_json(doc: &Json) -> Result<JobSpec, String> {
        let d = JobSpec::default();
        Ok(JobSpec {
            kind: JobKind::parse(str_field(doc, "kind", d.kind.name())?)?,
            workload: str_field(doc, "workload", &d.workload)?.to_string(),
            scale: str_field(doc, "scale", &d.scale)?.to_string(),
            slice: u64_field(doc, "slice", d.slice)?,
            warmup: u64_field(doc, "warmup", d.warmup)?,
            maxk: u64_field(doc, "maxk", d.maxk)?,
            seed: u64_field(doc, "seed", d.seed)?,
            fuel: u64_field(doc, "fuel", d.fuel)?,
            start: u64_field(doc, "start", d.start)?,
            length: u64_field(doc, "length", d.length)?,
            sim: str_field(doc, "sim", &d.sim)?.to_string(),
            shards: u64_field(doc, "shards", d.shards)?,
            interval: u64_field(doc, "interval", d.interval)?,
        })
    }
}

// ---------------------------------------------------------------------------
// Job phases
// ---------------------------------------------------------------------------

/// A job's position in its lifecycle. Shard workers publish these into
/// the job table as they run; `submit --follow` and `jobs --watch`
/// clients receive them as [`Response::Progress`] frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Admitted; waiting in a shard's bounded queue.
    Queued,
    /// Profiling the region (reference run / BBV scan).
    Profile,
    /// Sharded simulate: slice `done` of `total` finished.
    Slice {
        /// Slices completed so far.
        done: u64,
        /// Total slices in the job.
        total: u64,
    },
    /// Merging per-slice results back into one timeline.
    Stitch,
    /// Rendering the final report text.
    Render,
}

impl JobPhase {
    /// The stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Profile => "profile",
            JobPhase::Slice { .. } => "slice",
            JobPhase::Stitch => "stitch",
            JobPhase::Render => "render",
        }
    }

    /// Human-readable form (`slice 3/8`), used in `jobs` rows and
    /// `--follow` output.
    pub fn label(self) -> String {
        match self {
            JobPhase::Slice { done, total } => format!("slice {done}/{total}"),
            other => other.name().to_string(),
        }
    }

    /// Parses the wire name plus the slice progress fields.
    ///
    /// # Errors
    /// Unknown phase names are typed errors listing the valid set.
    pub fn parse(name: &str, done: u64, total: u64) -> Result<JobPhase, String> {
        match name {
            "queued" => Ok(JobPhase::Queued),
            "profile" => Ok(JobPhase::Profile),
            "slice" => Ok(JobPhase::Slice { done, total }),
            "stitch" => Ok(JobPhase::Stitch),
            "render" => Ok(JobPhase::Render),
            other => Err(format!(
                "unknown job phase `{other}` (queued|profile|slice|stitch|render)"
            )),
        }
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// Everything a client can ask a daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness + version probe.
    Ping,
    /// Run one job under `tenant`'s store namespace; blocks until the
    /// job finishes (or is shed with [`Response::Busy`]).
    Submit {
        /// Store namespace the job's artifacts live under.
        tenant: String,
        /// The job itself.
        job: JobSpec,
        /// Stream [`Response::Progress`] frames for phase changes
        /// before the final result frame.
        follow: bool,
    },
    /// List the jobs the daemon has seen. With `watch_ms > 0` the
    /// daemon streams a [`Response::Progress`] frame per phase change
    /// for up to that many milliseconds before the final job list.
    Jobs {
        /// 0 = one-shot; otherwise how long to watch, in milliseconds.
        watch_ms: u64,
    },
    /// Daemon-wide counters (admission, cache, store, memory).
    Stats,
    /// Snapshot of the daemon's metrics registry (per-shard queue
    /// depths, request counters, job-latency histograms, …).
    Metrics,
    /// Graceful drain: finish queued jobs, refuse new ones, exit.
    Shutdown,
}

impl Request {
    /// The wire encoding.
    pub fn to_json(&self) -> Json {
        match self {
            Request::Ping => obj(vec![("type", s("ping"))]),
            Request::Submit {
                tenant,
                job,
                follow,
            } => obj(vec![
                ("type", s("submit")),
                ("tenant", s(tenant)),
                ("job", job.to_json()),
                ("follow", Json::Bool(*follow)),
            ]),
            Request::Jobs { watch_ms } => obj(vec![
                ("type", s("jobs")),
                ("watch_ms", Json::U64(*watch_ms)),
            ]),
            Request::Stats => obj(vec![("type", s("stats"))]),
            Request::Metrics => obj(vec![("type", s("metrics"))]),
            Request::Shutdown => obj(vec![("type", s("shutdown"))]),
        }
    }

    /// Decodes a request envelope.
    ///
    /// # Errors
    /// Unknown `type`, missing envelope, or a wrongly-typed field.
    pub fn from_json(doc: &Json) -> Result<Request, String> {
        match str_field(doc, "type", "")? {
            "ping" => Ok(Request::Ping),
            "submit" => Ok(Request::Submit {
                tenant: str_field(doc, "tenant", "")?.to_string(),
                job: match doc.get("job") {
                    None | Some(Json::Null) => JobSpec::default(),
                    Some(j) => JobSpec::from_json(j)?,
                },
                follow: bool_field(doc, "follow", false)?,
            }),
            "jobs" => Ok(Request::Jobs {
                watch_ms: u64_field(doc, "watch_ms", 0)?,
            }),
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "shutdown" => Ok(Request::Shutdown),
            "" => Err("request has no `type`".to_string()),
            other => Err(format!("unknown request type `{other}`")),
        }
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// One row of `elfie jobs` output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSummary {
    /// Daemon-unique job id (monotonic).
    pub id: u64,
    /// Tenant the job ran under.
    pub tenant: String,
    /// Job kind.
    pub kind: JobKind,
    /// Workload name.
    pub workload: String,
    /// Shard the job was placed on.
    pub shard: u64,
    /// `queued`/`running`/`done`/`failed`.
    pub state: String,
    /// Latest published phase label (`slice 3/8`, …); empty when the
    /// job has not published one.
    pub phase: String,
}

impl JobSummary {
    fn to_json(&self) -> Json {
        obj(vec![
            ("id", Json::U64(self.id)),
            ("tenant", s(&self.tenant)),
            ("kind", s(self.kind.name())),
            ("workload", s(&self.workload)),
            ("shard", Json::U64(self.shard)),
            ("state", s(&self.state)),
            ("phase", s(&self.phase)),
        ])
    }

    fn from_json(doc: &Json) -> Result<JobSummary, String> {
        Ok(JobSummary {
            id: u64_field(doc, "id", 0)?,
            tenant: str_field(doc, "tenant", "")?.to_string(),
            kind: JobKind::parse(str_field(doc, "kind", "validate")?)?,
            workload: str_field(doc, "workload", "")?.to_string(),
            shard: u64_field(doc, "shard", 0)?,
            state: str_field(doc, "state", "")?.to_string(),
            phase: str_field(doc, "phase", "")?.to_string(),
        })
    }
}

/// Daemon-wide counters returned by [`Request::Stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Jobs admitted to a shard queue.
    pub accepted: u64,
    /// Jobs shed with [`Response::Busy`].
    pub rejected_busy: u64,
    /// Jobs that finished successfully.
    pub completed: u64,
    /// Jobs that finished with an error.
    pub failed: u64,
    /// Connections accepted over the daemon's lifetime.
    pub connections: u64,
    /// Cache hits summed over every tenant cache.
    pub cache_hits: u64,
    /// Cache misses summed over every tenant cache.
    pub cache_misses: u64,
    /// Persistent-store hits summed over every tenant cache.
    pub store_hits: u64,
    /// Persistent-store writes summed over every tenant cache (0 on a
    /// fully warm store — the `daemon_serve` bench gates on this).
    pub store_puts: u64,
    /// Summed per-machine peaks of privately-owned guest page bytes
    /// (`MaterializeStats::peak_owned_bytes`) over completed validate
    /// jobs — a guest-memory figure, not process RSS, which the
    /// `metrics` verb reports as `serve.process_rss_bytes` and
    /// `serve.process_hwm_bytes`.
    pub peak_rss_bytes: u64,
    /// Residual privately-owned page bytes (`MaterializeStats::
    /// owned_bytes`) after jobs tore down. Structurally 0: the pipeline
    /// does not carry per-run owned bytes, so the `daemon_serve` bench
    /// gate on it staying 0 cannot fail yet (ROADMAP item 1).
    pub owned_rss_bytes: u64,
}

impl ServeStats {
    fn to_json(self) -> Json {
        obj(vec![
            ("accepted", Json::U64(self.accepted)),
            ("rejected_busy", Json::U64(self.rejected_busy)),
            ("completed", Json::U64(self.completed)),
            ("failed", Json::U64(self.failed)),
            ("connections", Json::U64(self.connections)),
            ("cache_hits", Json::U64(self.cache_hits)),
            ("cache_misses", Json::U64(self.cache_misses)),
            ("store_hits", Json::U64(self.store_hits)),
            ("store_puts", Json::U64(self.store_puts)),
            ("peak_rss_bytes", Json::U64(self.peak_rss_bytes)),
            ("owned_rss_bytes", Json::U64(self.owned_rss_bytes)),
        ])
    }

    fn from_json(doc: &Json) -> Result<ServeStats, String> {
        Ok(ServeStats {
            accepted: u64_field(doc, "accepted", 0)?,
            rejected_busy: u64_field(doc, "rejected_busy", 0)?,
            completed: u64_field(doc, "completed", 0)?,
            failed: u64_field(doc, "failed", 0)?,
            connections: u64_field(doc, "connections", 0)?,
            cache_hits: u64_field(doc, "cache_hits", 0)?,
            cache_misses: u64_field(doc, "cache_misses", 0)?,
            store_hits: u64_field(doc, "store_hits", 0)?,
            store_puts: u64_field(doc, "store_puts", 0)?,
            peak_rss_bytes: u64_field(doc, "peak_rss_bytes", 0)?,
            owned_rss_bytes: u64_field(doc, "owned_rss_bytes", 0)?,
        })
    }
}

/// Everything a daemon can answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong {
        /// Daemon build version (`CARGO_PKG_VERSION`).
        version: String,
        /// [`PROTOCOL_VERSION`] spoken by the daemon.
        protocol: u64,
    },
    /// The job ran to completion; `report` is the canonical text (for
    /// validate jobs, bit-identical to offline `elfie validate`).
    Done {
        /// Daemon-unique job id.
        id: u64,
        /// Shard that ran the job.
        shard: u64,
        /// Nanoseconds the job waited in the shard queue.
        queue_ns: u64,
        /// Nanoseconds the job spent executing.
        run_ns: u64,
        /// The canonical report text.
        report: String,
    },
    /// Admission control shed the job: the target shard's bounded queue
    /// was full. The client may retry later; nothing was queued.
    Busy {
        /// The shard that was full.
        shard: u64,
        /// Its queue capacity (jobs).
        capacity: u64,
    },
    /// The request failed (bad tenant, unknown workload, job error, or
    /// a malformed frame). The connection stays usable.
    Error {
        /// One-line diagnostic.
        message: String,
    },
    /// Answer to [`Request::Jobs`].
    Jobs {
        /// Every job the daemon retains, id-ascending.
        jobs: Vec<JobSummary>,
    },
    /// Answer to [`Request::Stats`].
    Stats {
        /// Daemon-wide counters.
        stats: ServeStats,
    },
    /// Answer to [`Request::Metrics`]: a point-in-time snapshot of the
    /// daemon's metrics registry.
    Metrics {
        /// The registry snapshot (counters, gauges, histograms).
        metrics: MetricsSnapshot,
    },
    /// One streamed phase change for a followed or watched job. Never
    /// a final frame: the stream always ends with [`Response::Done`],
    /// [`Response::Error`], or [`Response::Jobs`].
    Progress {
        /// Daemon-unique job id.
        id: u64,
        /// Shard running the job.
        shard: u64,
        /// The phase the job just entered.
        phase: JobPhase,
    },
    /// Answer to [`Request::Shutdown`]: the daemon is draining.
    Bye {
        /// Jobs completed over the daemon's lifetime.
        drained: u64,
    },
}

impl Response {
    /// The wire encoding.
    pub fn to_json(&self) -> Json {
        match self {
            Response::Pong { version, protocol } => obj(vec![
                ("type", s("pong")),
                ("version", s(version)),
                ("protocol", Json::U64(*protocol)),
            ]),
            Response::Done {
                id,
                shard,
                queue_ns,
                run_ns,
                report,
            } => obj(vec![
                ("type", s("done")),
                ("id", Json::U64(*id)),
                ("shard", Json::U64(*shard)),
                ("queue_ns", Json::U64(*queue_ns)),
                ("run_ns", Json::U64(*run_ns)),
                ("report", s(report)),
            ]),
            Response::Busy { shard, capacity } => obj(vec![
                ("type", s("busy")),
                ("shard", Json::U64(*shard)),
                ("capacity", Json::U64(*capacity)),
            ]),
            Response::Error { message } => obj(vec![("type", s("error")), ("message", s(message))]),
            Response::Jobs { jobs } => obj(vec![
                ("type", s("jobs")),
                (
                    "jobs",
                    Json::Arr(jobs.iter().map(JobSummary::to_json).collect()),
                ),
            ]),
            Response::Stats { stats } => {
                obj(vec![("type", s("stats")), ("stats", stats.to_json())])
            }
            Response::Metrics { metrics } => {
                obj(vec![("type", s("metrics")), ("metrics", metrics.to_json())])
            }
            Response::Progress { id, shard, phase } => {
                let mut fields = vec![
                    ("type", s("progress")),
                    ("id", Json::U64(*id)),
                    ("shard", Json::U64(*shard)),
                    ("phase", s(phase.name())),
                ];
                if let JobPhase::Slice { done, total } = phase {
                    fields.push(("done", Json::U64(*done)));
                    fields.push(("total", Json::U64(*total)));
                }
                obj(fields)
            }
            Response::Bye { drained } => {
                obj(vec![("type", s("bye")), ("drained", Json::U64(*drained))])
            }
        }
    }

    /// Decodes a response envelope.
    ///
    /// # Errors
    /// Unknown `type` or a wrongly-typed field.
    pub fn from_json(doc: &Json) -> Result<Response, String> {
        match str_field(doc, "type", "")? {
            "pong" => Ok(Response::Pong {
                version: str_field(doc, "version", "")?.to_string(),
                protocol: u64_field(doc, "protocol", 0)?,
            }),
            "done" => Ok(Response::Done {
                id: u64_field(doc, "id", 0)?,
                shard: u64_field(doc, "shard", 0)?,
                queue_ns: u64_field(doc, "queue_ns", 0)?,
                run_ns: u64_field(doc, "run_ns", 0)?,
                report: str_field(doc, "report", "")?.to_string(),
            }),
            "busy" => Ok(Response::Busy {
                shard: u64_field(doc, "shard", 0)?,
                capacity: u64_field(doc, "capacity", 0)?,
            }),
            "error" => Ok(Response::Error {
                message: str_field(doc, "message", "")?.to_string(),
            }),
            "jobs" => {
                let rows = match doc.get("jobs") {
                    None | Some(Json::Null) => Vec::new(),
                    Some(Json::Arr(rows)) => rows
                        .iter()
                        .map(JobSummary::from_json)
                        .collect::<Result<Vec<_>, _>>()?,
                    Some(_) => return Err("field `jobs` must be an array".to_string()),
                };
                Ok(Response::Jobs { jobs: rows })
            }
            "stats" => Ok(Response::Stats {
                stats: match doc.get("stats") {
                    None | Some(Json::Null) => ServeStats::default(),
                    Some(v) => ServeStats::from_json(v)?,
                },
            }),
            "metrics" => Ok(Response::Metrics {
                metrics: match doc.get("metrics") {
                    None | Some(Json::Null) => MetricsSnapshot::default(),
                    Some(v) => MetricsSnapshot::from_json(v)?,
                },
            }),
            "progress" => Ok(Response::Progress {
                id: u64_field(doc, "id", 0)?,
                shard: u64_field(doc, "shard", 0)?,
                phase: JobPhase::parse(
                    str_field(doc, "phase", "")?,
                    u64_field(doc, "done", 0)?,
                    u64_field(doc, "total", 0)?,
                )?,
            }),
            "bye" => Ok(Response::Bye {
                drained: u64_field(doc, "drained", 0)?,
            }),
            "" => Err("response has no `type`".to_string()),
            other => Err(format!("unknown response type `{other}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_through_a_buffer() {
        let req = Request::Submit {
            tenant: "acme".to_string(),
            job: JobSpec {
                workload: "gcc_like".to_string(),
                ..JobSpec::default()
            },
            follow: true,
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &req.to_json()).unwrap();
        let doc = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(Request::from_json(&doc).unwrap(), req);
    }

    #[test]
    fn rid_stamps_and_reads_back() {
        let doc = with_rid(Request::Ping.to_json(), 0xfeed);
        assert_eq!(frame_rid(&doc), 0xfeed);
        // Still a decodable ping: rid rides the envelope, not the verb.
        assert_eq!(Request::from_json(&doc).unwrap(), Request::Ping);
        // Zero is "untagged" and stamps nothing.
        let doc = with_rid(Request::Ping.to_json(), 0);
        assert_eq!(doc.get("rid"), None);
        assert_eq!(frame_rid(&doc), 0);
        // Re-stamping replaces, never duplicates.
        let doc = with_rid(with_rid(Request::Ping.to_json(), 1), 2);
        assert_eq!(frame_rid(&doc), 2);
        let fields = doc.as_obj().unwrap();
        assert_eq!(fields.iter().filter(|(k, _)| k == "rid").count(), 1);
    }

    #[test]
    fn progress_frames_roundtrip_and_unknown_phases_are_typed_errors() {
        for phase in [
            JobPhase::Queued,
            JobPhase::Profile,
            JobPhase::Slice { done: 3, total: 8 },
            JobPhase::Stitch,
            JobPhase::Render,
        ] {
            let resp = Response::Progress {
                id: 7,
                shard: 2,
                phase,
            };
            assert_eq!(Response::from_json(&resp.to_json()).unwrap(), resp);
        }
        let doc = Json::parse(r#"{"type":"progress","id":1,"phase":"warp"}"#).unwrap();
        let err = Response::from_json(&doc).unwrap_err();
        assert!(err.contains("warp") && err.contains("job phase"), "{err}");
        assert_eq!(JobPhase::Slice { done: 3, total: 8 }.label(), "slice 3/8");
    }

    #[test]
    fn metrics_response_roundtrips() {
        let mut metrics = MetricsSnapshot::default();
        metrics.counters.insert("serve.busy_shed".to_string(), 4);
        metrics.gauges.insert("serve.uptime_s".to_string(), 90);
        let resp = Response::Metrics { metrics };
        assert_eq!(Response::from_json(&resp.to_json()).unwrap(), resp);
        // A bare metrics envelope decodes to the empty snapshot.
        let doc = Json::parse(r#"{"type":"metrics"}"#).unwrap();
        assert_eq!(
            Response::from_json(&doc).unwrap(),
            Response::Metrics {
                metrics: MetricsSnapshot::default()
            }
        );
    }

    #[test]
    fn oversized_prefix_is_rejected_before_allocation() {
        let mut frame = (MAX_FRAME + 1).to_be_bytes().to_vec();
        frame.extend_from_slice(b"{}");
        assert_eq!(
            read_frame(&mut frame.as_slice()),
            Err(FrameError::Oversized { len: MAX_FRAME + 1 })
        );
    }

    #[test]
    fn clean_eof_is_closed_and_midframe_eof_is_truncated() {
        assert_eq!(read_frame(&mut [].as_slice()), Err(FrameError::Closed));
        let mut buf = Vec::new();
        write_frame(&mut buf, &Request::Ping.to_json()).unwrap();
        for cut in 1..buf.len() {
            match read_frame(&mut &buf[..cut]) {
                Err(FrameError::Truncated { expected, got }) => {
                    assert_eq!(got, cut, "cut at {cut}");
                    assert!(expected > got, "cut at {cut}");
                }
                other => panic!("cut at {cut}: {other:?}"),
            }
        }
    }

    #[test]
    fn wrong_field_types_are_typed_errors() {
        let doc = Json::parse(r#"{"type":"submit","tenant":7}"#).unwrap();
        assert!(Request::from_json(&doc).unwrap_err().contains("tenant"));
        let doc = Json::parse(r#"{"type":"done","id":"x"}"#).unwrap();
        assert!(Response::from_json(&doc).unwrap_err().contains("id"));
        let doc = Json::parse(r#"{"type":"warp"}"#).unwrap();
        assert!(Request::from_json(&doc).unwrap_err().contains("warp"));
    }
}
