//! Workloads: the traffic corpus and the seeded frame schedule.
//!
//! Everything here is a pure function of the workload, the workload seed
//! and the run length, so the same seed always yields the same frames in
//! the same order with the same questions.

use std::collections::BTreeSet;
use std::sync::Arc;

use nlidb_data::wikisql::{generate, WikiSqlConfig};
use nlidb_data::Example;
use nlidb_storage::Table;
use nlidb_tensor::Rng;

/// Salt that separates the traffic corpus seed from the training seed,
/// so traffic tables never coincide with training tables by seed.
const TRAFFIC_SALT: u64 = 0x7A3F_1C0D_E2B5_9A61;

/// Questions the generator writes per traffic table.
const QUESTIONS_PER_TABLE: usize = 12;

/// `cold_ask`: the client's mean pause between a reply and its next ask,
/// drawn uniformly from half to one and a half times the mean. With a
/// cold ask taking about 10 ms, this offers about 55 asks/s and keeps the
/// engine thread about half busy.
const COLD_THINK_S: f64 = 0.007;
/// `cold_ask`: asks per second of window the frame list is sized for. A
/// server fast enough to exceed it runs out of frames before the window
/// ends, which leaves every metric valid.
const COLD_MAX_RATE: f64 = 200.0;
/// `cold_ask`: distinct questions sent closed-loop before the window.
const COLD_WARMUP: usize = 16;

/// `warm_mixed`: frames each connection may send per second of the window.
/// Closed-loop clients send back to back, so this only sizes the frame
/// list; a server faster than this runs out of frames before the window
/// ends, which leaves every metric valid.
const WARM_MAX_RATE: f64 = 1000.0;
/// `warm_mixed`: size of the hot question pool.
const HOT_POOL: usize = 384;
/// `warm_mixed`: tables the hot pool and the spare questions are drawn from.
const HOT_TABLES: usize = 40;
/// `warm_mixed`: Zipf exponent of the draw from the hot pool.
const ZIPF_S: f64 = 1.0;
/// `warm_mixed`: share of frames that are 8-item batches.
const BATCH_SHARE: f64 = 0.1;
/// `warm_mixed`: items per batch frame.
const BATCH_ITEMS: usize = 8;
/// `warm_mixed`: share of ask/batch frames that request guided decoding.
const GUIDED_SHARE: f64 = 0.2;
/// `warm_mixed`: frames between fresh-table registrations on one
/// connection (a few seconds at this host's pace). The cold asks after them
/// stay far below 1% of the frames, so p99 measures the warm path.
const REGISTER_EVERY: usize = 2000;
/// `warm_mixed`: asks against a freshly registered table that follow it.
const FRESH_ASKS: usize = 2;

/// Cold questions kept aside for the traced run's wire-overhead probe.
const SPARE: usize = 24;

/// Connections (and tenants, one per connection) the load uses.
pub const CONNECTIONS: usize = 2;

/// A named traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One client's unguided asks with think time, each a distinct cold question.
    ColdAsk,
    /// Closed-loop mix of cached asks, batches, guided asks and catalog writes.
    WarmMixed,
}

impl Workload {
    /// Parses a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "cold_ask" => Some(Workload::ColdAsk),
            "warm_mixed" => Some(Workload::WarmMixed),
            _ => None,
        }
    }

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdAsk => "cold_ask",
            Workload::WarmMixed => "warm_mixed",
        }
    }
}

/// The tenant that owns connection `conn`.
pub fn tenant(conn: usize) -> String {
    format!("tenant-{conn}")
}

/// What one frame asks the server to do. Question and table fields index
/// [`Traffic::examples`] and [`Traffic::tables`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameKind {
    /// One question.
    Ask {
        /// The question.
        q: usize,
        /// Execution-guided decoding.
        guided: bool,
    },
    /// Several questions in one frame.
    Batch {
        /// The questions, in order.
        qs: Vec<usize>,
        /// Execution-guided decoding for every item.
        guided: bool,
    },
    /// A catalog write of a table not registered before.
    Register {
        /// The table.
        table: usize,
    },
}

impl FrameKind {
    /// The questions this frame asks, with their guided flag.
    pub fn questions(&self) -> Vec<(usize, bool)> {
        match self {
            FrameKind::Ask { q, guided } => vec![(*q, *guided)],
            FrameKind::Batch { qs, guided } => qs.iter().map(|&q| (q, *guided)).collect(),
            FrameKind::Register { .. } => Vec::new(),
        }
    }
}

/// One frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Seconds between the previous reply on the connection and this frame.
    pub think_s: f64,
    /// Connection index (also selects the tenant).
    pub conn: usize,
    /// The request.
    pub kind: FrameKind,
}

/// The traffic corpus: generated questions on tables the model never saw.
pub struct Traffic {
    /// Distinct `(table, question)` pairs, in a seeded random order.
    pub examples: Vec<Example>,
    /// Distinct tables.
    pub tables: Vec<Arc<Table>>,
    /// For each example, its index into `tables`.
    pub table_of: Vec<usize>,
}

impl Traffic {
    /// Generates at least `min_questions` distinct questions from the
    /// workload seed, dropping any table whose content matches a table in
    /// `train_fps` (the training tables).
    pub fn generate(seed: u64, min_questions: usize, train_fps: &BTreeSet<u64>) -> Traffic {
        let mut tables_wanted = min_questions.div_ceil(QUESTIONS_PER_TABLE - 2) + 4;
        loop {
            let cfg = WikiSqlConfig {
                seed: seed ^ TRAFFIC_SALT,
                train_tables: tables_wanted,
                dev_tables: 0,
                test_tables: 0,
                questions_per_table: QUESTIONS_PER_TABLE,
                ..WikiSqlConfig::default()
            };
            let t = Traffic::from_examples(generate(&cfg).train, seed, train_fps);
            if t.examples.len() >= min_questions {
                return t;
            }
            tables_wanted += tables_wanted / 2 + 1;
        }
    }

    pub(crate) fn from_examples(
        all: Vec<Example>,
        seed: u64,
        train_fps: &BTreeSet<u64>,
    ) -> Traffic {
        let mut seen = BTreeSet::new();
        let mut examples: Vec<Example> = all
            .into_iter()
            .filter(|e| {
                let fp = e.table.fingerprint();
                !train_fps.contains(&fp) && seen.insert((fp, e.question.clone()))
            })
            .collect();
        Rng::seed_from_u64(seed ^ TRAFFIC_SALT ^ 1).shuffle(&mut examples);
        let mut tables: Vec<Arc<Table>> = Vec::new();
        let mut index_of = std::collections::BTreeMap::new();
        let table_of = examples
            .iter()
            .map(|e| {
                *index_of.entry(e.table.fingerprint()).or_insert_with(|| {
                    tables.push(Arc::clone(&e.table));
                    tables.len() - 1
                })
            })
            .collect();
        Traffic {
            examples,
            tables,
            table_of,
        }
    }
}

/// A workload instantiated for one seed and run length.
pub struct Plan {
    /// The traffic corpus.
    pub traffic: Traffic,
    /// Tables every tenant registers during set-up.
    pub preregistered: Vec<usize>,
    /// Closed-loop frames sent before the window (cold_ask: warm-up asks;
    /// warm_mixed: every hot question, unguided and guided).
    pub warmup: Vec<Frame>,
    /// Frames of the timed window. The window sends a prefix of each
    /// connection's frames: as many as fit in it.
    pub timed: Vec<Frame>,
    /// Unasked questions on preregistered tables.
    pub spare: Vec<usize>,
}

impl Plan {
    /// Builds the plan. `train_fps` are the training tables' fingerprints.
    pub fn new(workload: Workload, seed: u64, seconds: u64, train_fps: &BTreeSet<u64>) -> Plan {
        match workload {
            Workload::ColdAsk => cold_ask(seed, seconds, train_fps),
            Workload::WarmMixed => warm_mixed(seed, seconds, train_fps),
        }
    }
}

/// Distinct `(question, guided)` pairs asked by `frames`, in first-send order.
pub fn distinct_questions<'a>(frames: impl IntoIterator<Item = &'a Frame>) -> Vec<(usize, bool)> {
    let mut seen = BTreeSet::new();
    frames
        .into_iter()
        .flat_map(|f| f.kind.questions())
        .filter(|qg| seen.insert(*qg))
        .collect()
}

fn distinct_tables(traffic: &Traffic, qs: &[usize]) -> Vec<usize> {
    let set: BTreeSet<usize> = qs.iter().map(|&q| traffic.table_of[q]).collect();
    set.into_iter().collect()
}

/// One client on connection 0: a second client would share the engine's
/// micro-batches, and two distinct-table questions in one batch are
/// answered one after the other, which makes latency bimodal.
fn cold_ask(seed: u64, seconds: u64, train_fps: &BTreeSet<u64>) -> Plan {
    let n = (seconds as f64 * COLD_MAX_RATE).ceil() as usize;
    let traffic = Traffic::generate(seed, COLD_WARMUP + n + SPARE, train_fps);
    let mut rng = Rng::seed_from_u64(seed ^ TRAFFIC_SALT ^ 3);
    let ask = |q: usize, think_s: f64| Frame {
        think_s,
        conn: 0,
        kind: FrameKind::Ask { q, guided: false },
    };
    let warmup = (0..COLD_WARMUP).map(|q| ask(q, 0.0)).collect();
    let timed = (COLD_WARMUP..COLD_WARMUP + n)
        .map(|q| ask(q, COLD_THINK_S * rng.gen_range(0.5..1.5)))
        .collect();
    let used: Vec<usize> = (0..COLD_WARMUP + n + SPARE).collect();
    Plan {
        preregistered: distinct_tables(&traffic, &used),
        spare: (COLD_WARMUP + n..COLD_WARMUP + n + SPARE).collect(),
        traffic,
        warmup,
        timed,
    }
}

/// Cumulative Zipf weights over `n` ranks.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (1..=n)
        .map(|k| {
            acc += 1.0 / (k as f64).powf(s);
            acc
        })
        .collect();
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

fn zipf_draw(cdf: &[f64], rng: &mut Rng) -> usize {
    let u: f64 = rng.gen();
    cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
}

fn warm_mixed(seed: u64, seconds: u64, train_fps: &BTreeSet<u64>) -> Plan {
    // The window sends a prefix of each connection's sequence.
    let per_conn = (seconds as f64 * WARM_MAX_RATE).ceil() as usize;
    let per_conn_regs = per_conn.div_ceil(REGISTER_EVERY);
    let fresh_needed = CONNECTIONS * per_conn_regs;
    // The hot pool and the spares live on the first HOT_TABLES tables; the
    // tables after them are registered fresh during the window.
    let min_q = (HOT_TABLES + fresh_needed + 4) * QUESTIONS_PER_TABLE;
    let traffic = Traffic::generate(seed, min_q, train_fps);
    let on_hot: Vec<usize> = (0..traffic.examples.len())
        .filter(|&q| traffic.table_of[q] < HOT_TABLES)
        .collect();
    assert!(
        on_hot.len() >= HOT_POOL + SPARE,
        "too few questions on the hot tables"
    );
    let hot = on_hot[..HOT_POOL].to_vec();
    let spare = on_hot[HOT_POOL..HOT_POOL + SPARE].to_vec();
    let mut fresh = (HOT_TABLES..traffic.tables.len())
        .map(|t| {
            (
                t,
                (0..traffic.examples.len())
                    .filter(|&q| traffic.table_of[q] == t)
                    .collect::<Vec<_>>(),
            )
        })
        .filter(|(_, qs)| qs.len() >= FRESH_ASKS);

    let warmup = [false, true]
        .into_iter()
        .flat_map(|guided| {
            hot.chunks(32).map(move |c| Frame {
                think_s: 0.0,
                conn: 0,
                kind: FrameKind::Batch {
                    qs: c.to_vec(),
                    guided,
                },
            })
        })
        .collect();

    let cdf = zipf_cdf(HOT_POOL, ZIPF_S);
    let mut rng = Rng::seed_from_u64(seed ^ TRAFFIC_SALT ^ 2);
    let mut timed = Vec::with_capacity(CONNECTIONS * per_conn);
    let mut follow_ups: [Vec<usize>; CONNECTIONS] = Default::default();
    for i in 0..per_conn {
        for (conn, follow_up) in follow_ups.iter_mut().enumerate() {
            // Registrations are staggered evenly across the connections.
            let offset = (conn + 1) * REGISTER_EVERY / (CONNECTIONS + 1);
            let kind = if i % REGISTER_EVERY == offset {
                let (table, qs) = fresh
                    .next()
                    .expect("traffic corpus too small for the catalog writes");
                *follow_up = qs[..FRESH_ASKS].iter().rev().copied().collect();
                FrameKind::Register { table }
            } else if let Some(q) = follow_up.pop() {
                FrameKind::Ask { q, guided: false }
            } else {
                let guided = rng.gen_bool(GUIDED_SHARE);
                if rng.gen_bool(BATCH_SHARE) {
                    let qs = (0..BATCH_ITEMS)
                        .map(|_| hot[zipf_draw(&cdf, &mut rng)])
                        .collect();
                    FrameKind::Batch { qs, guided }
                } else {
                    FrameKind::Ask {
                        q: hot[zipf_draw(&cdf, &mut rng)],
                        guided,
                    }
                }
            };
            timed.push(Frame {
                think_s: 0.0,
                conn,
                kind,
            });
        }
    }
    Plan {
        preregistered: (0..HOT_TABLES).collect(),
        traffic,
        warmup,
        timed,
        spare,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(w: Workload, seed: u64) -> Plan {
        Plan::new(w, seed, 20, &BTreeSet::new())
    }

    #[test]
    fn same_seed_same_schedule_and_questions() {
        for w in [Workload::ColdAsk, Workload::WarmMixed] {
            let a = plan(w, 7);
            let b = plan(w, 7);
            assert_eq!(a.timed, b.timed, "{}", w.name());
            assert_eq!(a.warmup, b.warmup);
            assert_eq!(a.preregistered, b.preregistered);
            let qa: Vec<_> = a
                .traffic
                .examples
                .iter()
                .map(|e| e.question.clone())
                .collect();
            let qb: Vec<_> = b
                .traffic
                .examples
                .iter()
                .map(|e| e.question.clone())
                .collect();
            assert_eq!(qa, qb);
            let c = plan(w, 8);
            let qc: Vec<_> = c
                .traffic
                .examples
                .iter()
                .map(|e| e.question.clone())
                .collect();
            assert_ne!(qa, qc, "another seed gives other questions");
        }
    }

    #[test]
    fn cold_ask_questions_are_all_distinct_and_spares_unused() {
        let p = plan(Workload::ColdAsk, 3);
        assert_eq!(p.timed.len(), (20.0 * COLD_MAX_RATE) as usize);
        let qs = distinct_questions(&p.timed);
        assert_eq!(qs.len(), p.timed.len());
        let used: BTreeSet<usize> = p
            .warmup
            .iter()
            .chain(&p.timed)
            .flat_map(|f| f.kind.questions())
            .map(|(q, _)| q)
            .collect();
        assert!(p.spare.iter().all(|q| !used.contains(q)));
        assert_eq!(p.spare.len(), SPARE);
    }

    #[test]
    fn warm_mixed_registers_before_it_asks_fresh_tables() {
        let p = plan(Workload::WarmMixed, 5);
        let pre: BTreeSet<usize> = p.preregistered.iter().copied().collect();
        let mut registered: Vec<BTreeSet<usize>> = vec![pre.clone(); CONNECTIONS];
        let mut regs = 0;
        for f in &p.timed {
            match &f.kind {
                FrameKind::Register { table } => {
                    assert!(!pre.contains(table));
                    registered[f.conn].insert(*table);
                    regs += 1;
                }
                k => {
                    for (q, _) in k.questions() {
                        assert!(registered[f.conn].contains(&p.traffic.table_of[q]));
                    }
                }
            }
        }
        // 20 s: 20000 frames per connection, 10 registrations each.
        assert_eq!(regs, 20);
        let guided = p
            .timed
            .iter()
            .filter(|f| f.kind.questions().iter().any(|q| q.1))
            .count();
        let share = guided as f64 / p.timed.len() as f64;
        assert!((0.15..0.25).contains(&share), "guided share {share}");
        assert!(p
            .timed
            .iter()
            .any(|f| matches!(f.kind, FrameKind::Batch { .. })));
    }

    #[test]
    fn traffic_tables_are_disjoint_from_training_tables() {
        let train = nlidb_bench::wikisql_corpus(nlidb_bench::Scale::Small, 42);
        let fps: BTreeSet<u64> = train.train.iter().map(|e| e.table.fingerprint()).collect();
        let t = Traffic::generate(11, 200, &fps);
        assert!(t.tables.iter().all(|tb| !fps.contains(&tb.fingerprint())));
        // Excluding a table really drops it.
        let first = t.tables[0].fingerprint();
        let t2 = Traffic::generate(11, 200, &BTreeSet::from([first]));
        assert!(t2.tables.iter().all(|tb| tb.fingerprint() != first));
    }
}
