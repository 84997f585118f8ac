//! The traced replay: the workload's questions answered in-process, with
//! each layer's public functions timed from outside the program.
//!
//! The stages of one unguided prediction are table context, mention
//! detection, annotation, beam decoding and recovery; a guided prediction
//! replaces recovery with the execution guide's verdicts over the ranked
//! beam. `predict.ms` times the program's own `predict_in` /
//! `predict_guided_in` on the same question, and `predict.unattributed_ms`
//! is what the named stages on its path do not account for.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use nlidb_core::annotate::annotate;
use nlidb_core::pipeline::Translator;
use nlidb_core::{ExecutionGuide, GuideVerdict, Nlidb, ServeEngine, ServeOptions, ServeRequest};
use nlidb_sqlir::recover;
use nlidb_storage::execute;
use nlidb_tensor::{pool, Rng, Tensor};

use crate::stats::{mean, median};
use crate::workload::Traffic;

/// Questions per `ServeEngine::serve` call in the engine measurement.
const ENGINE_BATCH: usize = 32;

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Per-question stage times (ms) and counts.
#[derive(Default)]
struct Samples {
    stages: BTreeMap<&'static str, Vec<f64>>,
    tokens: Vec<f64>,
    verdicts: Vec<f64>,
    recover_fail: usize,
    executed: usize,
    exec_error: usize,
    repair: usize,
}

impl Samples {
    fn push(&mut self, stage: &'static str, v: f64) {
        self.stages.entry(stage).or_default().push(v);
    }
}

/// Replays `questions` (`(example, guided)` pairs) stage by stage and
/// stores the per-layer metrics in `out`. Fails if the staged replay does
/// not reproduce the program's own answer where it can be compared.
pub fn stages(
    nlidb: &Nlidb,
    traffic: &Traffic,
    questions: &[(usize, bool)],
    out: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let Translator::Gru(model) = nlidb.translator() else {
        return Err("the staged replay times the GRU decoder only".into());
    };
    let opts = nlidb.options();
    let (in_vocab, out_vocab) = (nlidb.in_vocab(), nlidb.out_vocab());
    let mut s = Samples::default();
    for &(q, guided) in questions {
        let e = &traffic.examples[q];
        let table = &*e.table;

        let t = Instant::now();
        let ctx = nlidb.table_context(table);
        s.push("context", ms(t));

        let t = Instant::now();
        let slots = nlidb.detector.detect_in(&e.question, &ctx.detect);
        let mention = ms(t);
        let t = Instant::now();
        black_box(nlidb.detector.detect_columns_in(&e.question, &ctx.detect));
        s.push("columns", ms(t));

        let t = Instant::now();
        let ann = annotate(
            &e.question,
            &slots,
            &ctx.detect.names,
            &opts.annotate,
            opts.model.max_headers,
        );
        let annotate_ms = ms(t);

        let t = Instant::now();
        let src: Vec<usize> = ann.tokens.iter().map(|w| in_vocab.id(w)).collect();
        let copy: Vec<Option<usize>> = ann
            .tokens
            .iter()
            .map(|w| out_vocab.copy_id_for_input_token(w))
            .collect();
        let ranked = if src.is_empty() {
            Vec::new()
        } else {
            model.decode_beam_ranked(&src, &copy, opts.model.beam_width)
        };
        let decode = ms(t);
        let top: &[usize] = ranked.first().map(Vec::as_slice).unwrap_or(&[]);
        s.tokens.push(top.len() as f64);

        let t = Instant::now();
        let recovered = recover(&out_vocab.decode(top), &ann.map);
        let recover_ms = ms(t);
        s.recover_fail += usize::from(recovered.is_err());

        if let Ok(query) = &recovered {
            let t = Instant::now();
            let ran = execute(table, query);
            s.push("execute", ms(t));
            s.executed += 1;
            s.exec_error += usize::from(ran.is_err());
        }

        let t = Instant::now();
        let mut guide = ExecutionGuide::new(out_vocab, &ann.map, table);
        let verdicts: Vec<GuideVerdict> = ranked.iter().map(|c| guide.verdict(c)).collect();
        let guide_ms = ms(t);
        s.verdicts.push(verdicts.len() as f64);
        let top_runs = matches!(
            verdicts.first(),
            Some(GuideVerdict::Pass | GuideVerdict::Vacuous)
        );
        s.repair += usize::from(!top_runs);

        let t = Instant::now();
        let predicted = match guided {
            true => nlidb.predict_guided_in(&e.question, &ctx, table),
            false => nlidb.predict_in(&e.question, &ctx),
        };
        let predict = ms(t);

        // Where the staged path determines the answer, it must be the
        // program's answer: otherwise the stages time something else.
        let staged = match (guided, &recovered) {
            (false, Ok(query)) => Some(Some(query.clone())),
            (true, _) if top_runs => Some(guide.recovered(top)),
            _ => None,
        };
        if let Some(staged) = staged {
            if staged != predicted {
                return Err(format!(
                    "staged replay of question {q} disagrees with predict"
                ));
            }
        }

        let last = if guided { guide_ms } else { recover_ms };
        s.push("mention", mention);
        s.push("annotate", annotate_ms);
        s.push("decode", decode);
        s.push("recover", recover_ms);
        s.push("guide", guide_ms);
        s.push("predict", predict);
        s.push("stage_sum", mention + annotate_ms + decode + last);
    }

    let n = questions.len().max(1) as f64;
    let stage = |name: &str| s.stages.get(name).map(Vec::as_slice).unwrap_or(&[]);
    println!("stage            questions    p50_ms   mean_ms   total_ms");
    for name in [
        "context",
        "mention",
        "columns",
        "annotate",
        "decode",
        "recover",
        "execute",
        "guide",
        "predict",
        "stage_sum",
    ] {
        let v = stage(name);
        println!(
            "{name:<16} {:>9} {:>9.3} {:>9.3} {:>10.1}",
            v.len(),
            median(v),
            mean(v),
            v.iter().sum::<f64>()
        );
    }
    out.insert("context.ms", mean(stage("context")));
    out.insert("mention.ms", mean(stage("mention")));
    out.insert("mention.columns_ms", mean(stage("columns")));
    out.insert("annotate.ms", mean(stage("annotate")));
    out.insert("decode.ms", mean(stage("decode")));
    out.insert("decode.tokens", mean(&s.tokens));
    let tokens: f64 = s.tokens.iter().sum();
    out.insert(
        "decode.us_per_token",
        stage("decode").iter().sum::<f64>() * 1e3 / tokens.max(1.0),
    );
    out.insert("recover.ms", mean(stage("recover")));
    out.insert("recover.fail_share", s.recover_fail as f64 / n);
    out.insert("execute.ms", mean(stage("execute")));
    out.insert(
        "execute.error_share",
        s.exec_error as f64 / s.executed.max(1) as f64,
    );
    out.insert("guide.verdicts_per_q", mean(&s.verdicts));
    out.insert("guide.ms", mean(stage("guide")));
    out.insert("guide.repair_share", s.repair as f64 / n);
    let predict = mean(stage("predict"));
    let stage_sum = mean(stage("stage_sum"));
    out.insert("predict.ms", predict);
    out.insert("predict.stage_sum_ms", stage_sum);
    out.insert("predict.unattributed_ms", predict - stage_sum);
    println!(
        "predict.ms {predict:.4} = stage sum {stage_sum:.4} + unattributed {:.4} \
         (stages on the path: mention, annotate, decode, then recover or guide)",
        predict - stage_sum
    );
    Ok(())
}

/// Wall time of answering `questions` one by one with the program's own
/// predict calls, and the answers.
fn predict_all(
    nlidb: &Nlidb,
    traffic: &Traffic,
    questions: &[(usize, bool)],
) -> (f64, Vec<Option<nlidb_sqlir::Query>>) {
    let t = Instant::now();
    let answers = questions
        .iter()
        .map(|&(q, guided)| {
            let e = &traffic.examples[q];
            let ctx = nlidb.table_context(&e.table);
            match guided {
                true => nlidb.predict_guided_in(&e.question, &ctx, &e.table),
                false => nlidb.predict_in(&e.question, &ctx),
            }
        })
        .collect();
    (ms(t), answers)
}

/// `trace.overhead_share`: the same predictions with the program's own
/// span tracing on, against off (the mean of an off pass before and one
/// after). Fails if tracing changes an answer.
pub fn trace_overhead(
    nlidb: &Nlidb,
    traffic: &Traffic,
    questions: &[(usize, bool)],
    out: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let (off1, answers_off) = predict_all(nlidb, traffic, questions);
    nlidb_trace::set_enabled(true);
    let (on, answers_on) = predict_all(nlidb, traffic, questions);
    nlidb_trace::set_enabled(false);
    nlidb_trace::reset();
    let (off2, _) = predict_all(nlidb, traffic, questions);
    if answers_on != answers_off {
        return Err("answers differ with tracing on".into());
    }
    let share = on / ((off1 + off2) / 2.0) - 1.0;
    println!("trace overhead: off {off1:.1} ms, on {on:.1} ms, off {off2:.1} ms");
    out.insert("trace.overhead_share", share);
    Ok(())
}

/// `engine.*`: the questions served by fresh engines in batches of
/// [`ENGINE_BATCH`], with their own guided flags and then all guided.
pub fn engine(
    nlidb: &Nlidb,
    traffic: &Traffic,
    questions: &[(usize, bool)],
    out: &mut BTreeMap<&'static str, f64>,
) {
    let serve = |force_guided: bool| {
        let reqs: Vec<ServeRequest<'_>> = questions
            .iter()
            .map(|&(q, guided)| ServeRequest {
                question: &traffic.examples[q].question,
                table: &traffic.examples[q].table,
                guided: guided || force_guided,
            })
            .collect();
        let mut eng = ServeEngine::new(nlidb, ServeOptions::default());
        let t = Instant::now();
        for chunk in reqs.chunks(ENGINE_BATCH) {
            black_box(eng.serve(chunk));
        }
        ms(t)
    };
    let n = questions.len().max(1) as f64;
    let own = serve(false);
    let guided = serve(true);
    out.insert("engine.serve_ms", own);
    out.insert("engine.us_per_question", own * 1e3 / n);
    out.insert("engine.guided_us_per_question", guided * 1e3 / n);
}

/// `tensor.*`: one row times the trained decoder's output projection,
/// on one thread and on the pool. Changes the pool width while it runs,
/// so nothing else may be computing.
pub fn matmul_1row(nlidb: &Nlidb, out: &mut BTreeMap<&'static str, f64>) -> Result<(), String> {
    let Translator::Gru(model) = nlidb.translator() else {
        return Err("no GRU decoder".into());
    };
    let id = model
        .store
        .id_of("s2s.u.w")
        .ok_or("decoder projection s2s.u.w not found")?;
    let w = model.store.get(id);
    let (k, n) = w.shape();
    let mut rng = Rng::seed_from_u64(0x1_0_1);
    let x = Tensor::from_vec(1, k, (0..k).map(|_| rng.gen_range(-1.0f32..1.0)).collect());
    let time = |threads: usize| {
        pool::set_threads(threads);
        for _ in 0..200 {
            black_box(black_box(&x).matmul(black_box(w)));
        }
        let rounds: Vec<f64> = (0..9)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..500 {
                    black_box(black_box(&x).matmul(black_box(w)));
                }
                t.elapsed().as_secs_f64() * 1e6 / 500.0
            })
            .collect();
        median(&rounds)
    };
    let serial = time(1);
    let parallel = time(pool::default_threads().max(2));
    pool::set_threads(pool::default_threads());
    println!("tensor: [1 x {k}] x [{k} x {n}] (flops = 2*{k}*{n}, computed from the shapes)");
    out.insert("tensor.matmul_1row_serial_us", serial);
    out.insert("tensor.matmul_1row_parallel_us", parallel);
    out.insert("tensor.matmul_1row_flops", (2 * k * n) as f64);
    Ok(())
}
