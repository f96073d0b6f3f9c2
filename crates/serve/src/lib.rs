//! # elfie-serve
//!
//! The checkpoint-serving daemon behind `elfie serve` — the deployment
//! shape the paper's fleet-scale PinPoints release implies: one shared
//! artifact store, many independent consumers, long-running service.
//!
//! Three layers:
//!
//! * [`protocol`] — length-prefixed JSON frames (the zero-dependency
//!   `Json` from `elfie-trace`) with typed [`Request`]/[`Response`]
//!   envelopes. Decoding never panics; truncation and oversized length
//!   prefixes are typed [`FrameError`]s.
//! * [`scheduler`] — N worker shards, each owning its own bounded
//!   queue. Every shard runs jobs against one shared `PipelineCache` per
//!   tenant, all over the store the daemon opened once. While a core is
//!   free a job goes to the shard with the fewest outstanding jobs, else
//!   to its `(tenant, workload)` home shard. Admission is a `try_send`
//!   onto that shard's queue; a full queue sheds the job with a typed
//!   `Busy` instead of queueing unboundedly. A panicking job fails with
//!   an `internal` error and its shard keeps serving.
//! * [`daemon`]/[`client`] — the TCP ends. The daemon drains gracefully
//!   on `shutdown` (every admitted job finishes first) and, with a
//!   tracer attached, leaves an `elfie-trace` span per request/job, so
//!   `elfie serve --trace` renders the whole fleet as a Chrome timeline.
//!
//! Determinism contract: a `validate` job's `report` bytes are exactly
//! what offline `elfie validate` prints for the same knobs (both ends
//! call `elfie::render::validation_report`); the serve-smoke CI job
//! diffs them bit-for-bit and the `daemon_serve` bench gates on it.

pub mod client;
pub mod daemon;
pub mod protocol;
pub mod scheduler;

pub use client::{Client, ClientError};
pub use daemon::{Daemon, ServeError};
pub use protocol::{
    frame_rid, with_rid, FrameError, JobKind, JobPhase, JobSpec, JobSummary, Request, Response,
    ServeStats, MAX_FRAME, PROTOCOL_VERSION,
};
pub use scheduler::{valid_tenant, Enqueued, Scheduler, ServeConfig};
