//! Wire frames and the answer check.
//!
//! Every reply the server sent is compared byte for byte against the
//! frame the protocol's canonical encoding gives for the answer that one
//! in-process `ServeEngine::serve` of the same questions produces.

use nlidb_core::{Nlidb, ServeEngine, ServeOptions, ServeRequest};
use nlidb_json::{encode_frame, FromJson, Json, ToJson};
use nlidb_serve::{Answer, AskItem, BatchItem, Op, Reply, Request, Response};
use nlidb_sqlir::Query;

use crate::workload::{tenant, Frame, FrameKind, Traffic};

/// The request a frame stands for.
pub fn request(id: i64, frame: &Frame, traffic: &Traffic) -> Request {
    let item = |q: usize, guided: bool| AskItem {
        fingerprint: traffic.examples[q].table.fingerprint(),
        question: traffic.examples[q].question.clone(),
        guided,
    };
    let op = match &frame.kind {
        FrameKind::Ask { q, guided } => Op::Ask(item(*q, *guided)),
        FrameKind::Batch { qs, guided } => Op::Batch {
            items: qs.iter().map(|&q| item(q, *guided)).collect(),
        },
        FrameKind::Register { table } => Op::RegisterTable {
            table: (*traffic.tables[*table]).clone(),
        },
    };
    Request::new(id, tenant(frame.conn), op)
}

/// The answer the server renders for a prediction on question `q`.
fn answer(traffic: &Traffic, q: usize, pred: Option<Query>) -> Answer {
    let cols = traffic.examples[q].table.column_names();
    Answer {
        sql: pred.as_ref().map(|p| p.to_sql(&cols)),
        query: pred,
    }
}

/// The reply line (terminator stripped) a correct server sends for
/// `frame`, given the predictions for its questions in order.
pub fn expected_line(
    id: i64,
    frame: &Frame,
    traffic: &Traffic,
    preds: &mut impl Iterator<Item = Option<Query>>,
) -> String {
    let mut next = |q: usize| answer(traffic, q, preds.next().flatten());
    let reply = match &frame.kind {
        FrameKind::Ask { q, .. } => Reply::Answer(next(*q)),
        FrameKind::Batch { qs, .. } => Reply::Batch {
            results: qs.iter().map(|&q| BatchItem::Answer(next(q))).collect(),
        },
        FrameKind::Register { table } => Reply::Registered {
            fingerprint: traffic.tables[*table].fingerprint(),
        },
    };
    let line = encode_frame(&Response::ok(Json::Int(id), reply).to_json());
    line.trim_end_matches('\n').to_string()
}

/// One frame as sent, with the reply line it got.
pub struct Exchange<'a> {
    /// Request id.
    pub id: i64,
    /// The frame.
    pub frame: &'a Frame,
    /// Reply line, if any.
    pub line: Option<&'a str>,
}

/// Predictions for every question of `exchanges`, in frame order, from
/// one in-process `ServeEngine::serve` call.
pub fn in_process_answers(
    nlidb: &Nlidb,
    traffic: &Traffic,
    exchanges: &[Exchange<'_>],
) -> Vec<Option<Query>> {
    let requests: Vec<ServeRequest<'_>> = exchanges
        .iter()
        .flat_map(|x| x.frame.kind.questions())
        .map(|(q, guided)| ServeRequest {
            question: &traffic.examples[q].question,
            table: &traffic.examples[q].table,
            guided,
        })
        .collect();
    ServeEngine::new(nlidb, ServeOptions::default()).serve(&requests)
}

/// Compares every reply against the expected line. `preds` holds the
/// in-process predictions in frame order (see [`in_process_answers`]).
/// Frames without a reply are skipped here: they count as failed, not as
/// wrong. Returns the number of replies compared, or a description of
/// the first mismatches.
pub fn check_answers(
    exchanges: &[Exchange<'_>],
    traffic: &Traffic,
    preds: Vec<Option<Query>>,
) -> Result<usize, String> {
    let mut preds = preds.into_iter();
    let mut compared = 0;
    let mut mismatches = Vec::new();
    for x in exchanges {
        let expected = expected_line(x.id, x.frame, traffic, &mut preds);
        let Some(got) = x.line else { continue };
        // An error reply is a failure, counted elsewhere.
        if is_error(got) {
            continue;
        }
        compared += 1;
        if got != expected {
            mismatches.push(format!("frame {}: got {got} expected {expected}", x.id));
        }
    }
    if mismatches.is_empty() {
        Ok(compared)
    } else {
        let shown: Vec<&String> = mismatches.iter().take(3).collect();
        Err(format!(
            "{} replies differ from in-process serving: {shown:?}",
            mismatches.len()
        ))
    }
}

/// Whether a reply line is an error reply, or not a reply at all.
pub fn is_error(line: &str) -> bool {
    match nlidb_json::decode_frame(line)
        .ok()
        .and_then(|j| Response::from_json(&j).ok())
    {
        Some(Response {
            result: Ok(Reply::Batch { results }),
            ..
        }) => results.iter().any(|r| matches!(r, BatchItem::Failed(_))),
        Some(Response { result: Ok(_), .. }) => false,
        _ => true,
    }
}

/// The answered queries in a reply line, one per question of the frame.
pub fn wire_answers(line: &str) -> Vec<Option<Query>> {
    let Some(resp) = nlidb_json::decode_frame(line)
        .ok()
        .and_then(|j| Response::from_json(&j).ok())
    else {
        return Vec::new();
    };
    match resp.result {
        Ok(Reply::Answer(a)) => vec![a.query],
        Ok(Reply::Batch { results }) => results
            .into_iter()
            .map(|r| match r {
                BatchItem::Answer(a) => a.query,
                BatchItem::Failed(_) => None,
            })
            .collect(),
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlidb_data::wikisql::{generate, WikiSqlConfig};

    /// A traffic corpus whose gold queries stand in for predictions.
    fn fixture() -> (Traffic, Vec<Frame>) {
        let ds = generate(&WikiSqlConfig::tiny(3));
        let traffic = Traffic::from_examples(ds.train, 0, &Default::default());
        let frames = vec![
            Frame {
                think_s: 0.0,
                conn: 0,
                kind: FrameKind::Register { table: 0 },
            },
            Frame {
                think_s: 0.0,
                conn: 0,
                kind: FrameKind::Ask {
                    q: 0,
                    guided: false,
                },
            },
            Frame {
                think_s: 0.0,
                conn: 1,
                kind: FrameKind::Batch {
                    qs: vec![1, 2],
                    guided: true,
                },
            },
        ];
        (traffic, frames)
    }

    fn golds(traffic: &Traffic, frames: &[Frame]) -> Vec<Option<Query>> {
        frames
            .iter()
            .flat_map(|f| f.kind.questions())
            .map(|(q, _)| Some(traffic.examples[q].query.clone()))
            .collect()
    }

    fn render(traffic: &Traffic, frames: &[Frame], preds: &[Option<Query>]) -> Vec<String> {
        let mut it = preds.iter().cloned();
        frames
            .iter()
            .enumerate()
            .map(|(i, f)| expected_line(i as i64, f, traffic, &mut it))
            .collect()
    }

    fn run(
        traffic: &Traffic,
        frames: &[Frame],
        lines: &[String],
        preds: &[Option<Query>],
    ) -> Result<usize, String> {
        let xs: Vec<Exchange<'_>> = lines
            .iter()
            .enumerate()
            .map(|(i, l)| Exchange {
                id: i as i64,
                frame: &frames[i],
                line: Some(l.as_str()),
            })
            .collect();
        check_answers(&xs, traffic, preds.to_vec())
    }

    #[test]
    fn faithful_replies_pass_and_an_altered_answer_fails() {
        let (traffic, frames) = fixture();
        let preds = golds(&traffic, &frames);
        let lines = render(&traffic, &frames, &preds);
        assert_eq!(run(&traffic, &frames, &lines, &preds), Ok(3));

        // The server answers the batch's second item with another column.
        let mut altered = preds.clone();
        let table = &traffic.examples[2].table;
        let q = altered[2].as_mut().expect("gold query");
        q.select_col = (q.select_col + 1) % table.num_cols();
        let wrong = render(&traffic, &frames, &altered);
        assert_ne!(wrong[2], lines[2]);
        assert!(run(&traffic, &frames, &wrong, &preds).is_err());

        // One extra byte in an answer fails too.
        let mut flipped = lines.clone();
        flipped[1] = flipped[1].replacen("\"sql\":\"", "\"sql\":\" ", 1);
        assert_ne!(flipped[1], lines[1]);
        assert!(run(&traffic, &frames, &flipped, &preds).is_err());

        // A missing reply is a failure, not a wrong answer.
        let xs = [Exchange {
            id: 1,
            frame: &frames[1],
            line: None,
        }];
        assert_eq!(check_answers(&xs, &traffic, preds[..1].to_vec()), Ok(0));
    }

    #[test]
    fn wire_answers_round_trip() {
        let (traffic, frames) = fixture();
        let preds = golds(&traffic, &frames);
        let lines = render(&traffic, &frames, &preds);
        assert!(wire_answers(&lines[0]).is_empty());
        assert_eq!(wire_answers(&lines[1]), preds[..1].to_vec());
        assert_eq!(wire_answers(&lines[2]), preds[1..].to_vec());
        assert!(!is_error(&lines[2]));
        assert!(is_error(
            "{\"v\":1,\"id\":1,\"ok\":false,\"error\":{\"code\":\"overloaded\",\"message\":\"x\"}}"
        ));
    }
}
