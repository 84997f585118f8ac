//! Trace-level checks for execution-guided decoding.
//!
//! 1. **Trace families.** Guided traffic emits the `decode.guide.predict`
//!    and `decode.guide.check` spans and the `decode.guide.{checks,pass,
//!    repair.top}` counters, next to the `storage.queries` executor
//!    counter (judging a candidate *is* executing it).
//! 2. **Lazy judging.** When the unguided answer already executes, the
//!    repair walk judges only the top candidate: the `decode.guide.checks`
//!    counter equals the number of guided predictions. Candidates the
//!    search completed but the walk never reached are never executed.
//!
//! This is its own test binary because the trace registry is global:
//! the tests share one lock so counters from one cannot leak into the
//! other.

use std::sync::OnceLock;

use nlidb_core::{ModelConfig, Nlidb, NlidbOptions};
use nlidb_data::shard::{CorpusPlan, ShardedCorpusConfig, Split};
use nlidb_data::wikisql::{generate, WikiSqlConfig};
use nlidb_data::Dataset;
use nlidb_json::Json;
use nlidb_storage::execute;

/// Serializes tests that flip the global trace switch.
fn trace_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// One tiny trained system, shared by both tests (trained untraced).
fn system() -> &'static (Nlidb, Dataset) {
    static SYSTEM: OnceLock<(Nlidb, Dataset)> = OnceLock::new();
    SYSTEM.get_or_init(|| {
        let mut gen_cfg = WikiSqlConfig::tiny(81);
        gen_cfg.train_tables = 8;
        gen_cfg.questions_per_table = 6;
        let ds = generate(&gen_cfg);
        nlidb_trace::set_enabled(false);
        let opts = NlidbOptions { model: ModelConfig::tiny(), ..NlidbOptions::default() };
        (Nlidb::train(&ds, opts), ds)
    })
}

#[test]
fn guided_traffic_emits_the_guide_trace_families() {
    let _guard = trace_lock();
    let (nlidb, _) = system();
    nlidb_trace::reset();
    nlidb_trace::set_enabled(true);
    let plan = CorpusPlan::compile(ShardedCorpusConfig::tiny(8101));
    for split in [Split::Dev, Split::Test] {
        for spec in plan.shards_for(split) {
            for e in plan.gen_shard(spec.index) {
                let _ = nlidb.predict_guided(&e.question, &e.table);
            }
        }
    }
    let snap = nlidb_trace::snapshot("guided_trace");
    nlidb_trace::set_enabled(false);
    nlidb_trace::reset();

    let Some(Json::Obj(spans)) = snap.get("spans") else { panic!("spans must be an object") };
    for name in ["decode.guide.predict", "decode.guide.check"] {
        assert!(spans.iter().any(|(k, _)| k == name), "span {name} missing");
    }
    let counters = snap.get("counters").expect("counters section");
    for name in
        ["decode.guide.checks", "decode.guide.pass", "decode.guide.repair.top", "storage.queries"]
    {
        assert!(
            matches!(counters.get(name), Some(Json::Int(n)) if *n > 0),
            "counter {name} missing or zero"
        );
    }
}

#[test]
fn guided_predict_judges_only_the_top_when_the_unguided_answer_executes() {
    let _guard = trace_lock();
    let (nlidb, ds) = system();
    nlidb_trace::set_enabled(false);
    let executing: Vec<_> = ds
        .dev
        .iter()
        .filter(|e| {
            matches!(
                nlidb.predict(&e.question, &e.table).map(|q| execute(&e.table, &q)),
                Some(Ok(_))
            )
        })
        .collect();
    assert!(
        executing.len() >= 6,
        "too few executing dev answers ({}) for the check to mean anything",
        executing.len()
    );

    nlidb_trace::reset();
    nlidb_trace::set_enabled(true);
    for e in &executing {
        let _ = nlidb.predict_guided(&e.question, &e.table);
    }
    let checks = nlidb_trace::counter("decode.guide.checks");
    nlidb_trace::set_enabled(false);
    nlidb_trace::reset();

    assert_eq!(
        checks,
        executing.len() as u64,
        "guided predictions must judge exactly one candidate each when the top executes"
    );
}
