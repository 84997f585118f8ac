//! # nlidb-serve
//!
//! A multi-tenant TCP serving layer over the deterministic batched
//! inference engine (`nlidb_core::ServeEngine`). The wire protocol is
//! specified in `docs/PROTOCOL.md`; the design rationale is DESIGN.md's
//! "Multi-tenant serving" section.
//!
//! The pieces:
//!
//! - [`protocol`] — typed wire messages with canonical JSON encodings
//!   (newline-delimited frames via `nlidb_json::frame`).
//! - [`catalog`] — registered tables keyed by content fingerprint, with
//!   tenant-scoped authorization.
//! - [`admission`] — per-tenant and global bounded queues; overload is
//!   shed deterministically with a structured error, never by blocking
//!   or unbounded buffering.
//! - [`server`] — the TCP front end: acceptor, per-connection threads,
//!   bounded frame reader, graceful shutdown. The inference engine runs
//!   on a single thread that owns model, catalog, and prediction cache,
//!   micro-batching concurrent questions into `ServeEngine::serve`
//!   calls and hot-swapping checkpoints between batches.
//! - [`client`] — a small blocking client for tests and operator tools.
//!
//! ## The determinism contract, in one paragraph
//!
//! For a fixed request log (registrations before the asks that use
//! them), the body of every `ask`/`batch` response is byte-identical
//! regardless of connection count, thread scheduling, micro-batch
//! boundaries, pipelining depth, or timeout settings. This holds because (a) all
//! answer-affecting state is owned by one engine thread, (b) the
//! batched engine is byte-identical to sequential prediction, and
//! (c) timeouts and admission only decide *whether/when* a request is
//! served, never *what* a served request answers. `stats` responses
//! report lifetime counters and are explicitly outside the contract.

#![warn(missing_docs)]

pub mod admission;
pub mod catalog;
pub mod client;
mod engine;
pub mod protocol;
pub mod server;

pub use admission::{Admission, AdmissionConfig, Permit, TenantCounters};
pub use catalog::{Catalog, CatalogEntry};
pub use client::Client;
pub use protocol::{
    fingerprint_from_hex, fingerprint_to_hex, Answer, AskItem, BatchItem, CacheCounts, ErrorCode,
    Op, Reply, Request, Response, ServerStats, TableStats, TenantStats, WireError,
    PROTOCOL_VERSION,
};
pub use server::{Server, ServerConfig, ServerHandle};
