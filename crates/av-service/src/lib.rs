//! # av-service — the long-running Auto-Validate service
//!
//! The paper deploys Auto-Validate as a production service: patterns are
//! mined offline from the data lake, and recurring pipeline feeds are
//! validated against cataloged rules on every run. This crate is that
//! deployment shape for the rest of the workspace:
//!
//! * **Shared live index** — readers take wait-free `Arc<PatternIndex>`
//!   **epoch** snapshots from an [`av_index::ShardedIndex`]; nothing
//!   blocks while rules are inferred or columns are validated, and a
//!   snapshot taken during an ingest is never torn — it is exactly the
//!   pre- or post-ingest index.
//! * **Incremental ingestion, O(touched shards)** — new corpus columns
//!   are profiled into an [`av_index::IndexDelta`] that splits into
//!   per-shard sub-deltas; the merge clones and republishes only the
//!   fingerprint shards the delta touches, so ingest cost tracks the
//!   delta, not the lake, and ingests on disjoint shards commit
//!   concurrently. Statistics stay bit-for-bit identical to a full
//!   rebuild (`av-index`'s fixed-point accumulators make the merge
//!   exact).
//! * **Persistent rule catalog** — rules are inferred once (FMDV and its
//!   fallbacks), named, written into every checkpoint, and reloaded on
//!   restart, so a service restart never re-infers or loses a rule.
//! * **Batch validation** — `validate_batch` checks many columns in one
//!   request with one reused matcher scratch; the serve loop's worker
//!   pool runs requests side by side, and reports are identical to
//!   sequential `validate` calls.
//! * **One dispatch path** — the engine validates exclusively through
//!   `dyn av_core::Validator` streaming sessions over borrowed `&str`
//!   values, so FMDV catalog rules and session-scoped baseline rules
//!   (`infer_baseline` op: TFDV, Grok, PWheel, …) serve identically and
//!   can be A/B-compared live (`compare` op).
//! * **One persistence path** — every data directory is a checkpoint
//!   directory: `persist` writes an **incremental checkpoint** (only
//!   index shards touched since the last one are rewritten; one manifest
//!   commit publishes index and catalog together) and
//!   [`ValidationService::open`] recovers the newest one, or a seed
//!   `index.avix` before the first. [`ServiceConfig::durable`] only adds
//!   a write-ahead log: every mutating op is CRC-framed, logged and
//!   fsynced before it is acknowledged, and recovery replays the tail in
//!   O(records since checkpoint) — a kill at any instant loses no
//!   acknowledged op. Corrupt shard files are quarantined, not fatal.
//!   See [`durable`] and the fault-injection matrices in
//!   `tests/crash_recovery.rs`.
//! * **JSONL protocol** — `av-serve` (in the root crate's `src/bin`)
//!   drives all of this over stdin/stdout or TCP; see [`protocol`].
//!
//! ## Quick start
//!
//! ```
//! use av_service::{ServiceConfig, ValidationService};
//! use av_corpus::{generate_lake, LakeProfile};
//!
//! let service = ValidationService::new(ServiceConfig::default());
//! // Ingest an initial corpus (here synthetic; in production, your lake).
//! let lake = generate_lake(&LakeProfile::tiny(), 42);
//! let columns: Vec<av_corpus::Column> = lake.columns().cloned().collect();
//! service.ingest(&columns).unwrap();
//!
//! // Infer and catalog a named rule, then validate a future feed.
//! let march: Vec<String> = (1..=28).map(|d| format!("2019-03-{d:02}")).collect();
//! service.infer_rule("feeds/date", &march, None).unwrap();
//! let april: Vec<String> = (1..=28).map(|d| format!("2019-04-{d:02}")).collect();
//! assert!(!service.validate("feeds/date", &april).unwrap().flagged);
//! let drifted: Vec<String> = (0..28).map(|i| format!("user-{i}")).collect();
//! assert!(service.validate("feeds/date", &drifted).unwrap().flagged);
//! ```

pub mod catalog;
pub mod durable;
pub mod engine;
pub mod json;
pub(crate) mod lockorder;
pub mod protocol;
pub mod server;
pub mod telemetry;

pub use catalog::{CatalogEntry, CatalogError, RuleCatalog};
pub use durable::{DurabilityConfig, DurabilitySnapshot};
pub use engine::{
    owned_column, BatchItem, ClassifyOutcome, ExplainOutcome, IngestReport, ServiceConfig,
    ServiceError, ServiceStats, ValidationService, CATALOG_FILE, INDEX_FILE,
};
pub use protocol::{handle_line, response_ok, Handled, LineOutcome, WatchParams};
pub use server::{
    serve_lines, serve_listener, serve_stdin, serve_tcp, std_listener, FaultKind, FaultListener,
    FaultSocket, NetFaultPlan, NetListener, NetSocket, FAULT_WINDOW_OPS,
};
pub use telemetry::{
    FailureExemplar, OpSnapshot, RuleTelemetrySnapshot, ServiceTelemetry, TelemetryConfig,
    WindowSnapshot,
};

/// The service is shared across threads by construction; keep it that way.
#[allow(dead_code)]
fn assert_service_is_send_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ValidationService>();
    assert_send_sync::<CatalogEntry>();
    assert_send_sync::<RuleCatalog>();
}
