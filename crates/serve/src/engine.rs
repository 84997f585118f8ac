//! The inference engine thread: single owner of the model, catalog,
//! and prediction cache, fed jobs over an mpsc channel.
//!
//! ## Why a single thread
//!
//! Connection handling is concurrent, but *all* state that could
//! influence response bytes — the model, the catalog, the cache — is
//! owned by exactly one thread and mutated only between batches. Every
//! request is therefore answered against one well-defined
//! (model, catalog) snapshot: the one current when the job was
//! dequeued. That is the heart of the wire-determinism argument
//! (`docs/PROTOCOL.md` §5): interleaving can change *which order* jobs
//! dequeue in, but each job's response bytes are a pure function of
//! (request, registered table, active model), all of which are
//! order-independent for a fixed request log with fixed registrations.
//!
//! ## Micro-batching
//!
//! Batches follow load, not a timer. The loop blocks for the first job;
//! when it is an `ask`/`batch`, it drains whatever serve jobs are
//! *already queued* — without waiting — up to `max_batch_questions`
//! questions, and dispatches them as one [`ServeEngine::serve`] call.
//! An idle engine therefore answers a lone request at once, and batches
//! grow only while a batch is in flight and requests pile up behind it.
//! The engine reads no clock. `ServeEngine` guarantees batched output is
//! byte-identical to serving each request alone, so batch boundaries
//! affect latency and throughput only — never bytes. Control jobs
//! (register / swap / stats / shutdown) act as batch barriers: one met
//! while draining ends the batch, which dispatches before the control
//! job runs, preserving queue order.
//!
//! ## Hot swap
//!
//! `swap_checkpoint` runs between batches like any control job: jobs
//! dequeued before it are answered by the old model, jobs after by the
//! new one, and nothing in flight is dropped. A successful swap resets
//! the prediction cache (entries are functions of the model). A failed
//! load leaves model *and* cache untouched and reports
//! `checkpoint_failed`.

use std::mem;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;

use nlidb_core::{CacheTableStats, Nlidb, PredictionCache, ServeEngine, ServeRequest};
use nlidb_storage::Table;

use crate::admission::{Admission, Permit};
use crate::catalog::Catalog;
use crate::protocol::{
    fingerprint_to_hex, Answer, AskItem, BatchItem, CacheCounts, ErrorCode, Reply, ServerStats,
    TableStats, TenantStats, WireError,
};

/// Reply channel for one job. The engine always sends exactly one
/// value; a closed receiver (client disconnected while queued) is not
/// an error — the result is dropped and counted.
pub(crate) type ReplyTx = Sender<Result<Reply, WireError>>;

/// An admitted `ask` or `batch`, queued for the next micro-batch.
pub(crate) struct ServeJob {
    /// Requesting tenant (catalog authorization).
    pub tenant: String,
    /// The questions; a plain `ask` is a one-item job.
    pub items: Vec<AskItem>,
    /// `true` → reply with [`Reply::Batch`]; `false` → the single
    /// item's answer/error becomes the whole response.
    pub wrap_batch: bool,
    /// Where to send the result.
    pub reply: ReplyTx,
    /// Admission capacity held until this job is fully answered.
    /// Dropped with the job, on every path.
    #[allow(dead_code)] // held for its Drop impl
    pub permit: Permit,
}

/// One unit of engine work, in strict queue order.
pub(crate) enum Job {
    /// Answer questions (batchable).
    Serve(ServeJob),
    /// Register a table.
    Register { tenant: String, table: Table, reply: ReplyTx },
    /// Hot-swap the model from a checkpoint directory.
    Swap { path: String, reply: ReplyTx },
    /// Report server statistics.
    Stats { reply: ReplyTx },
    /// Stop the engine (and with it, the server).
    Shutdown { reply: ReplyTx },
}

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EngineConfig {
    pub max_batch_questions: usize,
    pub cache_capacity: usize,
}

/// The engine state machine. Constructed on the server thread, moved
/// into the engine thread, runs until shutdown or until every sender
/// disappears.
pub(crate) struct Engine {
    nlidb: Nlidb,
    cache: PredictionCache,
    catalog: Catalog,
    admission: Arc<Admission>,
    /// Responses written, all ops and errors included; bumped by
    /// connection threads, read here for `stats`.
    requests: Arc<AtomicU64>,
    cfg: EngineConfig,
    questions: u64,
    batches: u64,
    swaps: u64,
}

impl Engine {
    pub(crate) fn new(
        nlidb: Nlidb,
        admission: Arc<Admission>,
        requests: Arc<AtomicU64>,
        cfg: EngineConfig,
    ) -> Engine {
        Engine {
            nlidb,
            cache: PredictionCache::new(cfg.cache_capacity),
            catalog: Catalog::new(),
            admission,
            requests,
            cfg,
            questions: 0,
            batches: 0,
            swaps: 0,
        }
    }

    /// The job loop. `on_shutdown` runs once when a `shutdown` job is
    /// processed (the server uses it to stop the acceptor). Returns when
    /// shut down or when all job senders are gone.
    pub(crate) fn run(mut self, rx: Receiver<Job>, on_shutdown: impl Fn()) {
        loop {
            let job = match rx.recv() {
                Ok(j) => j,
                Err(_) => break, // server handle and all connections gone
            };
            match job {
                Job::Serve(first) => {
                    let (batch, deferred) = self.collect_batch(first, &rx);
                    self.dispatch(batch);
                    if let Some(control) = deferred {
                        if self.handle_control(control) {
                            on_shutdown();
                            break;
                        }
                    }
                }
                control => {
                    if self.handle_control(control) {
                        on_shutdown();
                        break;
                    }
                }
            }
        }
        // Jobs still queued are dropped here with `rx`; their reply
        // channels close, and each connection answers `shutting_down`.
    }

    /// Drains the serve jobs already queued behind `first`, stopping at
    /// `max_batch_questions`, at an empty queue, or at a control job. A
    /// control job is returned for the caller to run *after* the batch —
    /// queue order is preserved.
    fn collect_batch(&self, first: ServeJob, rx: &Receiver<Job>) -> (Vec<ServeJob>, Option<Job>) {
        let mut queued = first.items.len();
        let mut pending = vec![first];
        while queued < self.cfg.max_batch_questions {
            match rx.try_recv() {
                Ok(Job::Serve(j)) => {
                    queued += j.items.len();
                    pending.push(j);
                }
                Ok(control) => return (pending, Some(control)),
                // Empty: nothing is waiting, so waiting longer would only
                // add latency. Disconnected: `run` sees it on its next recv.
                Err(_) => break,
            }
        }
        (pending, None)
    }

    /// Answers one micro-batch with a single `ServeEngine::serve` call.
    fn dispatch(&mut self, jobs: Vec<ServeJob>) {
        let _sp = nlidb_trace::span("server.batch");
        self.batches += 1;
        nlidb_trace::count("server.batches", 1);

        // Resolve every item against the catalog (tenant-scoped).
        let slots: Vec<Vec<Result<Arc<Table>, WireError>>> = jobs
            .iter()
            .map(|job| {
                job.items
                    .iter()
                    .map(|item| match self.catalog.get_for(&job.tenant, item.fingerprint) {
                        Some(e) => Ok(Arc::clone(&e.table)),
                        None => Err(WireError::new(
                            ErrorCode::UnknownTable,
                            format!(
                                "no table {} registered for tenant '{}'",
                                fingerprint_to_hex(item.fingerprint),
                                job.tenant
                            ),
                        )),
                    })
                    .collect()
            })
            .collect();

        // Flatten resolvable items into one engine batch.
        let mut origin: Vec<(usize, usize)> = Vec::new();
        let mut reqs: Vec<ServeRequest<'_>> = Vec::new();
        for (ji, job) in jobs.iter().enumerate() {
            for (ii, item) in job.items.iter().enumerate() {
                if let Ok(table) = &slots[ji][ii] {
                    reqs.push(ServeRequest { question: &item.question, table, guided: item.guided });
                    origin.push((ji, ii));
                }
            }
        }

        let preds = if reqs.is_empty() {
            Vec::new()
        } else {
            let mut eng = ServeEngine::with_cache(&self.nlidb, mem::take(&mut self.cache));
            let out = eng.serve(&reqs);
            self.cache = eng.into_cache();
            out
        };
        self.questions += reqs.len() as u64;
        nlidb_trace::count("server.questions", reqs.len() as u64);

        // Scatter predictions back to their jobs, render SQL, reply.
        // `origin` only indexes resolved slots, so the lookups below
        // cannot fail; if that invariant ever breaks, the affected item
        // answers `internal` instead of panicking the engine thread.
        let internal = |what: &str| {
            WireError::new(ErrorCode::Internal, format!("engine invariant violated: {what}"))
        };
        let mut answers: Vec<Vec<Option<BatchItem>>> =
            jobs.iter().map(|j| vec![None; j.items.len()]).collect();
        for ((ji, ii), pred) in origin.into_iter().zip(preds) {
            let item = match slots[ji][ii].as_ref() {
                Ok(table) => {
                    let cols = table.column_names();
                    BatchItem::Answer(Answer {
                        sql: pred.as_ref().map(|q| q.to_sql(&cols)),
                        query: pred,
                    })
                }
                Err(_) => BatchItem::Failed(internal("origin maps to an unresolved slot")),
            };
            answers[ji][ii] = Some(item);
        }
        for (ji, job) in jobs.into_iter().enumerate() {
            let results: Vec<BatchItem> = answers[ji]
                .drain(..)
                .enumerate()
                .map(|(ii, slot)| match (slot, &slots[ji][ii]) {
                    (Some(b), _) => b,
                    (None, Err(e)) => BatchItem::Failed(e.clone()),
                    (None, Ok(_)) => {
                        BatchItem::Failed(internal("resolved item received no prediction"))
                    }
                })
                .collect();
            let reply = if job.wrap_batch {
                Ok(Reply::Batch { results })
            } else {
                match results.into_iter().next() {
                    Some(BatchItem::Answer(a)) => Ok(Reply::Answer(a)),
                    Some(BatchItem::Failed(e)) => Err(e),
                    None => Err(internal("ask job carried no items")),
                }
            };
            if job.reply.send(reply).is_err() {
                nlidb_trace::count("server.dropped_replies", 1);
            }
            // `job.permit` drops here: capacity released only after the
            // answer is handed to the connection.
        }
    }

    /// Handles a control job. Returns `true` on shutdown.
    fn handle_control(&mut self, job: Job) -> bool {
        match job {
            // `run` routes serve jobs through `collect_batch`, so one
            // arriving here is a routing bug — answer it as a batch of
            // one rather than panicking the engine thread.
            Job::Serve(job) => {
                self.dispatch(vec![job]);
                false
            }
            Job::Register { tenant, table, reply } => {
                let _sp = nlidb_trace::span("server.register");
                let fingerprint = self.catalog.register(&tenant, table);
                nlidb_trace::count("server.registered", 1);
                let _ = reply.send(Ok(Reply::Registered { fingerprint }));
                false
            }
            Job::Swap { path, reply } => {
                let _sp = nlidb_trace::span("server.swap");
                let result = match Nlidb::load(&path) {
                    Ok(model) => {
                        self.nlidb = model;
                        // Cached predictions are functions of the old
                        // model; a stale hit would break determinism.
                        self.cache = PredictionCache::new(self.cfg.cache_capacity);
                        self.swaps += 1;
                        nlidb_trace::count("server.swaps", 1);
                        Ok(Reply::Swapped { checkpoint: path })
                    }
                    Err(e) => Err(WireError::new(
                        ErrorCode::CheckpointFailed,
                        format!("cannot load checkpoint '{path}': {e}"),
                    )),
                };
                let _ = reply.send(result);
                false
            }
            Job::Stats { reply } => {
                let _ = reply.send(Ok(Reply::Stats(self.stats())));
                false
            }
            Job::Shutdown { reply } => {
                let _ = reply.send(Ok(Reply::Bye));
                true
            }
        }
    }

    fn stats(&self) -> ServerStats {
        let counts = |s: CacheTableStats| CacheCounts {
            hits: s.hits,
            misses: s.misses,
            insertions: s.insertions,
            evictions: s.evictions,
        };
        ServerStats {
            // lint:allow(atomic-ordering): monotonic stats counter read; no other memory is published under it, and stats tolerate a stale value.
            requests: self.requests.load(Ordering::Relaxed),
            questions: self.questions,
            batches: self.batches,
            swaps: self.swaps,
            tenants: self
                .admission
                .snapshot()
                .into_iter()
                .map(|(tenant, c)| TenantStats {
                    tenant,
                    admitted: c.admitted,
                    shed: c.shed,
                    in_flight: c.in_flight,
                })
                .collect(),
            tables: self
                .catalog
                .iter()
                .map(|(fp, e)| TableStats {
                    fingerprint: fp,
                    name: e.table.name.clone(),
                    tenants: e.tenants.clone(),
                    rows: e.table.num_rows() as u64,
                    cache: counts(self.cache.table_stats(fp)),
                })
                .collect(),
            cache: CacheCounts {
                hits: self.cache.hits(),
                misses: self.cache.misses(),
                insertions: self.cache.insertions(),
                evictions: self.cache.evictions(),
            },
            cache_len: self.cache.len() as u64,
        }
    }
}
