//! # goggles-serve
//!
//! Turns a fitted GOGGLES pipeline into a **servable artifact**. The paper's
//! system (Das et al., SIGMOD 2020) is batch-only: labeling even one more
//! image means re-embedding everything, rebuilding the `N × αN` affinity
//! matrix and refitting every mixture model. This crate adds the missing
//! inference path, in three layers:
//!
//! 1. **Snapshot** — [`FittedLabeler`] captures the frozen backbone recipe,
//!    the training corpus' prototype bank, the fitted per-function GMM and
//!    ensemble parameters, and the dev-set cluster→class mapping, with a
//!    hand-rolled dependency-free binary format
//!    ([`FittedLabeler::save`]/[`FittedLabeler::load`], checksummed).
//! 2. **Out-of-sample inference** — [`FittedLabeler::label_one`] /
//!    [`FittedLabeler::label_batch`] embed only the incoming image(s),
//!    compute their `1 × αN` affinity rows against the stored prototypes
//!    and fold them through the stored models (`predict_proba`, no refit).
//!    Per-request cost is `O(image)`, not `O(dataset)`.
//! 3. **Service front** — [`LabelService`] runs worker threads over a
//!    bounded request queue with micro-batching (configurable batch size
//!    and linger timeout). Throughput and latency are counted once, in the
//!    service's `goggles_obs` registry: [`LabelService::stats`] reads it
//!    back as a typed view, [`LabelService::render_metrics`] as Prometheus
//!    text.
//! 4. **Model lifecycle** — a [`SnapshotRegistry`] of versioned
//!    `Arc<FittedLabeler>`s behind every service: atomic
//!    `publish`/`rollback` under live traffic (workers resolve the current
//!    version per batch, no lock held across labeling),
//!    [`LabelService::reload_from`] for hot-reloading snapshot files, and
//!    per-version serve counters. Snapshots come in two formats
//!    ([`SnapshotFormat`]): v1 (lossless `f64`, byte-exact reloads) and v2
//!    (compact `f32` with optional u16-quantized prototype bank — under
//!    half the bytes, argmax-preserving) — both validated at load/publish
//!    time so corrupt artifacts are rejected before they can serve.
//! 5. **Transport-agnostic API + network front** — the [`Labeler`] trait
//!    (`submit`/`label`/`label_all`) is implemented by the in-process
//!    [`FittedLabeler`], the [`LabelService`], and the TCP client
//!    [`RemoteLabeler`], so callers are written once against the trait.
//!    Submission is **ticket-based** ([`Ticket`]: `poll`/`wait`/
//!    `wait_timeout`, drop-to-cancel, per-request deadlines answered with
//!    [`ServeError::Deadline`]); the blocking `label`/`label_all` calls are
//!    thin wrappers over tickets. [`wire`] defines the length-framed,
//!    checksummed binary protocol; [`WireServer`] (and the `goggles-served`
//!    binary) put a std-only `TcpListener` front on a running service.
//!
//! ## Quickstart: fit → snapshot → serve
//!
//! ```no_run
//! use goggles_core::GogglesConfig;
//! use goggles_datasets::{generate, TaskConfig, TaskKind};
//! use goggles_serve::{FittedLabeler, LabelService, ServeConfig};
//!
//! // Fit once (batch), freeze, and persist.
//! let ds = generate(&TaskConfig::new(TaskKind::Surface, 40, 25, 7));
//! let dev = ds.sample_dev_set(5, 7);
//! let (labeler, fit_result) = FittedLabeler::fit(&GogglesConfig::fast(), &ds, &dev).unwrap();
//! let bytes = labeler.save();
//!
//! // Later / elsewhere: reload and serve online traffic.
//! let reloaded = FittedLabeler::load(&bytes).unwrap();
//! let service = LabelService::spawn(reloaded, ServeConfig::default());
//! let response = service.label(&ds.images[ds.test_indices[0]]).unwrap();
//! println!("class {} with p = {:?}", response.label, response.probs);
//! ```

pub mod api;
pub mod client;
pub mod codec;
pub mod fault;
pub mod registry;
pub mod server;
pub mod service;
pub mod snapshot;
pub mod wire;

pub use api::{Labeler, Ticket};
pub use client::{RemoteLabeler, RetryPolicy};
pub use fault::FaultPlan;
pub use registry::{PublishedSnapshot, SnapshotRegistry, VersionInfo};
pub use server::{IngestSink, ServerOptions, WireServer};
pub use service::{LabelResponse, LabelService, ServeConfig, ServiceStats, StageStats};
pub use snapshot::{
    sweep_snapshot_dir, FittedLabeler, SnapshotFormat, SweepReport, TrainingBootstrap,
};

/// Errors surfaced by the serving layer.
///
/// `Clone` so a [`Ticket`] outcome can be observed more than once and a
/// wire reply can be both logged and returned.
#[derive(Debug, Clone)]
pub enum ServeError {
    /// Snapshot encoding/decoding failure (bad magic, checksum, truncation,
    /// implausible lengths…) — the byte stream itself is broken.
    Snapshot(String),
    /// The snapshot decoded cleanly but its *content* is inconsistent (a
    /// non-permutation mapping, mismatched model shapes…). A
    /// corrupted-but-checksummed or hand-built artifact fails here at
    /// load/publish time instead of panicking on the first request.
    Corrupt(String),
    /// Filesystem failure while persisting/loading a snapshot.
    Io(String),
    /// The underlying pipeline failed while fitting.
    Pipeline(goggles_core::GogglesError),
    /// Invalid registry operation (e.g. rolling back past the first
    /// published version).
    Registry(String),
    /// The service is shutting down (or already shut down), or the request
    /// was dropped because the labeler panicked on it.
    Closed,
    /// The request's deadline expired before a worker labeled it. The
    /// micro-batcher answers expired requests with this instead of letting
    /// them occupy a batch slot.
    Deadline,
    /// Wire-protocol damage (bad magic, checksum mismatch, truncated frame,
    /// implausible lengths, unknown opcode…) on the network path.
    Wire(String),
    /// The server shed this request under load: the global queue was at its
    /// shed watermark or the connection exceeded its inflight cap. Always
    /// retryable — back off and resubmit.
    Overloaded,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Snapshot(msg) => write!(f, "snapshot error: {msg}"),
            ServeError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
            ServeError::Io(msg) => write!(f, "io error: {msg}"),
            ServeError::Pipeline(e) => write!(f, "pipeline error: {e}"),
            ServeError::Registry(msg) => write!(f, "registry error: {msg}"),
            ServeError::Closed => write!(f, "label service is closed"),
            ServeError::Deadline => write!(f, "request deadline expired before labeling"),
            ServeError::Wire(msg) => write!(f, "wire protocol error: {msg}"),
            ServeError::Overloaded => write!(f, "server overloaded; request shed, retry later"),
        }
    }
}

impl ServeError {
    /// Whether a retry of the same request may succeed.
    ///
    /// `Overloaded` (transient load), `Io` (transient filesystem/socket
    /// trouble) and `Closed` (the connection died — a reconnect gets a fresh
    /// one) are retryable; everything else is a property of the request or
    /// the artifact and will fail identically on resubmission. This flag
    /// travels in the wire error reply so remote clients can decide without
    /// string-matching, and [`client::RetryPolicy`] keys off it.
    pub fn retryable(&self) -> bool {
        matches!(self, ServeError::Overloaded | ServeError::Io(_) | ServeError::Closed)
    }
}

impl std::error::Error for ServeError {}

impl From<goggles_core::GogglesError> for ServeError {
    fn from(e: goggles_core::GogglesError) -> Self {
        ServeError::Pipeline(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ServeError>;

/// Internal alias used by submodules (avoids clashing with `core::Result`).
pub(crate) type ServeResult<T> = Result<T>;
