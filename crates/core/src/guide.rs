//! Execution-guided decoding (ROADMAP item 3): judge beam candidates by
//! actually running them.
//!
//! The pipeline owns the executor (`nlidb-storage`), so decode time can
//! use a signal no learned reranker provides for free: *does this
//! candidate run, and does it return anything?* [`ExecutionGuide`]
//! judges a finished beam candidate by decoding it to annotated SQL,
//! recovering it against the question's [`AnnotationMap`], and executing
//! it against the target table. The verdict ([`GuideVerdict`]) is
//! memoized per token sequence and drives the deterministic repair walk
//! in [`Nlidb::predict_guided`](crate::pipeline::Nlidb::predict_guided).
//!
//! Judging is **lazy**: the beam search runs exactly as unguided
//! decoding does, and the repair walk asks for a verdict only when it
//! reaches a candidate. The top candidate is judged first; the rest of
//! the beam is judged only if the top fails to execute. The guide never
//! reorders or prunes the beam — a verdict only decides which ranked
//! candidate the walk commits to.
//!
//! ## Pruning rules
//!
//! - [`GuideVerdict::Unrecoverable`] — `s^a` references a slot the
//!   detector did not produce; there is no query to run.
//! - [`GuideVerdict::Error`] — recovery succeeds but execution raises
//!   [`ExecError`](nlidb_storage::ExecError) (bad column, non-numeric aggregate, NaN input).
//! - [`GuideVerdict::Vacuous`] — execution succeeds but the result is
//!   *provably empty* ([`ResultSet::is_vacuous`](nlidb_storage::ResultSet::is_vacuous)): zero rows, or all
//!   NULLs (the numeric-aggregate-over-empty marker). `COUNT` answers
//!   are integers, so a zero count is [`GuideVerdict::Pass`], never
//!   pruned.
//! - [`GuideVerdict::Pass`] — executes to a non-vacuous result.
//!
//! ## Observability
//!
//! Every judgement runs under the `decode.guide.check` span and bumps
//! the `decode.guide.*` counters (`checks`, `memo_hits`, `pass`,
//! `vacuous`, `exec_errors`, `unrecoverable`). Because judging *is*
//! executing, guide activity also shows up in the existing `storage.*`
//! executor counters (`storage.queries`, `storage.rows_scanned`, …) —
//! the cost of guidance is visible end to end in one trace.

use std::collections::BTreeMap;

use nlidb_sqlir::{recover, AnnotationMap, Query};
use nlidb_storage::{execute, Table};

use crate::vocab::OutVocab;

/// The guide's classification of one completed beam candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuideVerdict {
    /// Recovers and executes to a non-vacuous result — committable.
    Pass,
    /// Recovers and executes, but the result is provably empty (see
    /// [`ResultSet::is_vacuous`](nlidb_storage::ResultSet::is_vacuous)). Preferable to an error, worse than
    /// any [`GuideVerdict::Pass`].
    Vacuous,
    /// Recovers into a [`Query`] whose execution raises [`ExecError`](nlidb_storage::ExecError).
    Error,
    /// The decoded annotated SQL does not recover into a query at all.
    Unrecoverable,
}

/// Judges candidates by recovering and executing them against the target
/// table, memoizing one verdict per token sequence (the repair walk's
/// `Pass` and `Vacuous` passes visit the same candidates).
pub struct ExecutionGuide<'a> {
    out_vocab: &'a OutVocab,
    map: &'a AnnotationMap,
    table: &'a Table,
    memo: BTreeMap<Vec<usize>, GuideVerdict>,
}

impl<'a> ExecutionGuide<'a> {
    /// Builds a guide for one question (its annotation map) against one
    /// target table.
    pub fn new(out_vocab: &'a OutVocab, map: &'a AnnotationMap, table: &'a Table) -> Self {
        ExecutionGuide { out_vocab, map, table, memo: BTreeMap::new() }
    }

    /// Judges a candidate token sequence, memoized. The verdict is a
    /// pure function of `(sequence, annotation map, table)`, so the
    /// memo can only change *when* work happens, never the verdict.
    pub fn verdict(&mut self, seq: &[usize]) -> GuideVerdict {
        if let Some(&v) = self.memo.get(seq) {
            nlidb_trace::count("decode.guide.memo_hits", 1);
            return v;
        }
        let v = {
            let _t = nlidb_trace::span("decode.guide.check");
            self.judge(seq)
        };
        if nlidb_trace::enabled() {
            nlidb_trace::count("decode.guide.checks", 1);
            let family = match v {
                GuideVerdict::Pass => "decode.guide.pass",
                GuideVerdict::Vacuous => "decode.guide.vacuous",
                GuideVerdict::Error => "decode.guide.exec_errors",
                GuideVerdict::Unrecoverable => "decode.guide.unrecoverable",
            };
            nlidb_trace::count(family, 1);
        }
        self.memo.insert(seq.to_vec(), v);
        v
    }

    /// The recovered query for a candidate (`None` exactly when its
    /// verdict is [`GuideVerdict::Unrecoverable`]).
    pub fn recovered(&self, seq: &[usize]) -> Option<Query> {
        recover(&self.out_vocab.decode(seq), self.map).ok()
    }

    fn judge(&self, seq: &[usize]) -> GuideVerdict {
        let sa = self.out_vocab.decode(seq);
        match recover(&sa, self.map) {
            Err(_) => GuideVerdict::Unrecoverable,
            Ok(q) => match execute(self.table, &q) {
                Err(_) => GuideVerdict::Error,
                Ok(rs) if rs.is_vacuous() => GuideVerdict::Vacuous,
                Ok(_) => GuideVerdict::Pass,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use nlidb_sqlir::{AnnTok, AnnotatedSql, CmpOp, Slot};
    use nlidb_storage::{Column, DataType, Schema, Value};

    fn table() -> Table {
        let schema = Schema::new(vec![
            Column::new("Name", DataType::Text),
            Column::new("Score", DataType::Int),
        ]);
        let mut t = Table::new("t", schema);
        t.push_row(vec![Value::Text("a".into()), Value::Int(1)]);
        t.push_row(vec![Value::Text("b".into()), Value::Int(3)]);
        t
    }

    fn map() -> AnnotationMap {
        AnnotationMap {
            slots: vec![
                Slot { column: Some(1), value: None },
                Slot { column: Some(0), value: Some("a".into()) },
            ],
            headers: vec![0, 1],
        }
    }

    /// Encodes an annotated SQL into out-vocab ids (no EOS — decode
    /// candidates carry none).
    fn ids(ov: &OutVocab, sa: &AnnotatedSql) -> Vec<usize> {
        let mut v = ov.encode(sa);
        v.pop(); // strip EOS
        v
    }

    #[test]
    fn verdicts_cover_all_four_outcomes() {
        let ov = OutVocab::new(&ModelConfig::tiny());
        let (t, m) = (table(), map());
        let mut guide = ExecutionGuide::new(&ov, &m, &t);

        // SELECT c0 WHERE c1 = v1 → the "a" row's score: Pass.
        let pass = ids(
            &ov,
            &AnnotatedSql(vec![
                AnnTok::Select,
                AnnTok::C(0),
                AnnTok::Where,
                AnnTok::C(1),
                AnnTok::Op(CmpOp::Eq),
                AnnTok::V(1),
            ]),
        );
        assert_eq!(guide.verdict(&pass), GuideVerdict::Pass);
        assert!(guide.recovered(&pass).is_some());

        // Condition value "a" never matches the Score column: Vacuous.
        let vac = ids(
            &ov,
            &AnnotatedSql(vec![
                AnnTok::Select,
                AnnTok::C(0),
                AnnTok::Where,
                AnnTok::C(0),
                AnnTok::Op(CmpOp::Eq),
                AnnTok::V(1),
            ]),
        );
        assert_eq!(guide.verdict(&vac), GuideVerdict::Vacuous);

        // SUM over the text Name column: recovers, then ExecError.
        let err = ids(
            &ov,
            &AnnotatedSql(vec![AnnTok::Select, AnnTok::Agg(nlidb_sqlir::Agg::Sum), AnnTok::G(0)]),
        );
        assert_eq!(guide.verdict(&err), GuideVerdict::Error);

        // References slot c5, which the map does not carry.
        let unrec = ids(&ov, &AnnotatedSql(vec![AnnTok::Select, AnnTok::C(5)]));
        assert_eq!(guide.verdict(&unrec), GuideVerdict::Unrecoverable);
        assert!(guide.recovered(&unrec).is_none());
    }

    #[test]
    fn verdicts_are_memoized_and_stable() {
        let ov = OutVocab::new(&ModelConfig::tiny());
        let (t, m) = (table(), map());
        let mut guide = ExecutionGuide::new(&ov, &m, &t);
        let seq = ids(&ov, &AnnotatedSql(vec![AnnTok::Select, AnnTok::C(0)]));
        let first = guide.verdict(&seq);
        for _ in 0..3 {
            assert_eq!(guide.verdict(&seq), first);
        }
        assert_eq!(guide.memo.len(), 1, "one memo entry per distinct sequence");
    }
}
