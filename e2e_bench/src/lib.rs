//! End-to-end serving benchmark for nlidb-rs.
//!
//! One process trains the model, starts `nlidb_serve::Server` in-process,
//! drives seeded traffic at it over loopback TCP and reports what a user
//! of the server sees (`--trace 0`), or replays the same questions
//! in-process and times each layer from outside (`--trace 1`). See
//! `README.md` in this directory for the workloads and metrics.

pub mod check;
pub mod loadgen;
pub mod replay;
pub mod report;
pub mod stats;
pub mod workload;

use std::collections::{BTreeMap, BTreeSet};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use nlidb_bench::Scale;
use nlidb_core::{evaluate, Nlidb, NlidbOptions};
use nlidb_json::{encode_frame, FromJson, ToJson};
use nlidb_serve::{Op, Reply, Request, Response, Server, ServerConfig, ServerHandle, ServerStats};
use nlidb_tensor::pool;

use check::Exchange;
use loadgen::{Outcome, Outgoing};
use stats::{median, percentile};
use workload::{Frame, FrameKind, Plan, Workload, CONNECTIONS};

/// Seed of the fixed training corpus and model.
const TRAIN_SEED: u64 = 42;
/// Complete set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 2;
/// Questions the traced run replays in-process.
const REPLAY_MAX: usize = 160;
/// Round trips in the warm-RTT probe.
const WARM_PROBES: usize = 64;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The workload.
    pub workload: Workload,
    /// Workload seed: the traffic corpus and schedule derive from it.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: u64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
}

/// Parses `--workload <name> --seed <n> --seconds <n> --trace <0|1>`.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 20u64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(1..=120).contains(&seconds) {
        return Err(format!("--seconds must be 1..=120, not {seconds}"));
    }
    let workload = workload.ok_or("--workload is required (cold_ask or warm_mixed)")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Wall times of one complete set-up.
#[derive(Debug, Clone, Copy)]
struct SetupTimes {
    gen_ms: f64,
    train_s: f64,
    start_ms: f64,
    register_ms: f64,
}

impl SetupTimes {
    fn total_s(&self) -> f64 {
        (self.gen_ms + self.start_ms + self.register_ms) / 1e3 + self.train_s
    }
}

/// One frame of a phase, with what happened to it.
struct Sent {
    id: i64,
    frame: Frame,
    outcome: Outcome,
    /// A successful reply arrived (an error reply, a failed batch item or
    /// no reply at all is a failure).
    ok: bool,
}

impl Sent {
    /// Latency from send to reply.
    fn latency_ms(&self) -> Option<f64> {
        let o = &self.outcome;
        Some(ms(o.recv?.saturating_duration_since(o.sent?)))
    }
}

/// The frames of one phase.
struct PhaseRun {
    name: &'static str,
    start: Instant,
    sent: Vec<Sent>,
}

impl PhaseRun {
    fn ok_count(&self) -> usize {
        self.sent.iter().filter(|s| s.ok).count()
    }

    /// Latencies of the frames that succeeded.
    fn latencies(&self) -> Vec<f64> {
        self.sent
            .iter()
            .filter(|s| s.ok)
            .filter_map(Sent::latency_ms)
            .collect()
    }

    fn print(&self) {
        let sent = self
            .sent
            .iter()
            .filter(|s| s.outcome.sent.is_some())
            .count();
        let ok = self.ok_count();
        println!(
            "phase {:<10} sent {sent:>6}  ok {ok:>6}  failed {:>4}",
            self.name,
            self.sent.len() - ok
        );
    }
}

/// The benchmark's side of a running server.
struct Live {
    server: ServerHandle,
    conns: Vec<TcpStream>,
    next_id: i64,
}

impl Live {
    fn run(
        &mut self,
        name: &'static str,
        frames: Vec<Frame>,
        plan: &Plan,
        limit: Option<Duration>,
    ) -> Result<PhaseRun, String> {
        let ids: Vec<i64> = (0..frames.len() as i64).map(|i| self.next_id + i).collect();
        self.next_id += frames.len() as i64;
        let encoded: Vec<String> = frames
            .iter()
            .zip(&ids)
            .map(|(f, &id)| encode_frame(&check::request(id, f, &plan.traffic).to_json()))
            .collect();
        let out: Vec<Outgoing<'_>> = frames
            .iter()
            .zip(&encoded)
            .map(|(f, bytes)| Outgoing {
                conn: f.conn,
                think: Duration::from_secs_f64(f.think_s),
                bytes,
            })
            .collect();
        let (start, outcomes) =
            loadgen::run_phase(&self.conns, &out, limit).map_err(|e| format!("{name}: {e}"))?;
        let mut sent: Vec<Sent> = frames
            .into_iter()
            .zip(ids)
            .zip(outcomes)
            .map(|((frame, id), outcome)| {
                let ok = outcome.line.as_deref().is_some_and(|l| !check::is_error(l));
                Sent {
                    id,
                    frame,
                    outcome,
                    ok,
                }
            })
            .collect();
        if limit.is_some() {
            // Frames left unsent when the window closed were never attempted.
            sent.retain(|s| s.outcome.sent.is_some());
        }
        Ok(PhaseRun { name, start, sent })
    }

    /// The server's lifetime counters (a `stats` round trip on connection 0).
    fn stats(&mut self) -> Result<ServerStats, String> {
        self.next_id += 1;
        let line =
            encode_frame(&Request::new(self.next_id, workload::tenant(0), Op::Stats).to_json());
        let (_, out) = loadgen::run_phase(
            &self.conns,
            &[Outgoing {
                conn: 0,
                think: Duration::ZERO,
                bytes: &line,
            }],
            None,
        )
        .map_err(|e| format!("stats: {e}"))?;
        let reply = out[0].line.as_deref().ok_or("no stats reply")?;
        let json = nlidb_json::decode_frame(reply).map_err(|e| e.to_string())?;
        match Response::from_json(&json)
            .map_err(|e| e.message().to_string())?
            .result
        {
            Ok(Reply::Stats(s)) => Ok(s),
            other => Err(format!("unexpected stats reply {other:?}")),
        }
    }
}

fn opts() -> NlidbOptions {
    NlidbOptions {
        model: Scale::Small.model_config(TRAIN_SEED),
        ..NlidbOptions::default()
    }
}

/// Generates the corpora and the plan, and trains.
fn prepare(args: &Args) -> (Plan, Nlidb, f64, f64) {
    let t = Instant::now();
    let train = nlidb_bench::wikisql_corpus(Scale::Small, TRAIN_SEED);
    let train_fps: BTreeSet<u64> = [&train.train, &train.dev, &train.test]
        .into_iter()
        .flatten()
        .map(|e| e.table.fingerprint())
        .collect();
    let plan = Plan::new(args.workload, args.seed, args.seconds, &train_fps);
    let gen_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let model = Nlidb::train(&train, opts());
    (plan, model, gen_ms, t.elapsed().as_secs_f64())
}

/// Starts a server on `model` and registers the plan's tables for every
/// tenant over the load connections.
fn start(model: Nlidb, plan: &Plan) -> Result<(Live, PhaseRun, f64, f64), String> {
    let t = Instant::now();
    let server =
        Server::start(model, ServerConfig::default()).map_err(|e| format!("server start: {e}"))?;
    let start_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let conns = (0..CONNECTIONS)
        .map(|_| {
            let c = TcpStream::connect(server.addr())?;
            c.set_nodelay(true)?;
            Ok(c)
        })
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("connect: {e}"))?;
    let mut live = Live {
        server,
        conns,
        next_id: 1,
    };
    let frames: Vec<Frame> = (0..CONNECTIONS)
        .flat_map(|conn| {
            plan.preregistered.iter().map(move |&table| Frame {
                think_s: 0.0,
                conn,
                kind: FrameKind::Register { table },
            })
        })
        .collect();
    let reg = live.run("register", frames, plan, None)?;
    let register_ms = t.elapsed().as_secs_f64() * 1e3;
    if reg.ok_count() != reg.sent.len() {
        return Err("table registration failed".into());
    }
    Ok((live, reg, start_ms, register_ms))
}

/// A set-up whose server is only timed: its model is kept for the
/// in-process side of the run, and the server gets an identical copy
/// restored from a checkpoint (restoring is not timed).
fn setup_for_model(args: &Args) -> Result<(Nlidb, SetupTimes), String> {
    let (plan, model, gen_ms, train_s) = prepare(args);
    let dir = std::path::PathBuf::from(format!(".e2e_bench_tmp/ckpt-{}", std::process::id()));
    model
        .save(&dir)
        .map_err(|e| format!("checkpoint save: {e:?}"))?;
    let copy = Nlidb::load(&dir).map_err(|e| format!("checkpoint load: {e:?}"));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".e2e_bench_tmp");
    let (live, _, start_ms, register_ms) = start(copy?, &plan)?;
    drop(live.conns);
    live.server.shutdown();
    Ok((
        model,
        SetupTimes {
            gen_ms,
            train_s,
            start_ms,
            register_ms,
        },
    ))
}

/// Reads a `/proc/self/status` field in kB.
fn proc_status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs the benchmark and returns the process exit code.
pub fn run(args: &Args) -> Result<i32, String> {
    // End-to-end numbers are measured with the program's tracing off,
    // whatever NLIDB_TRACE says.
    nlidb_trace::set_enabled(false);
    let w = args.workload;

    let mut setups = Vec::new();
    let mut check_model = None;
    for _ in 1..SETUP_REPS {
        let (model, times) = setup_for_model(args)?;
        check_model.get_or_insert(model);
        setups.push(times);
    }
    let (plan, model, gen_ms, train_s) = prepare(args);
    let (mut live, register, start_ms, register_ms) = start(model, &plan)?;
    setups.push(SetupTimes {
        gen_ms,
        train_s,
        start_ms,
        register_ms,
    });
    let check_model = check_model.ok_or("no in-process model")?;

    let cfg = &opts().model;
    println!(
        "run workload={} seed={} seconds={} trace={} nproc={} pool_threads={} matmul_kernel={:?}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        pool::default_threads(),
        nlidb_tensor::matmul_kernel(),
    );
    println!(
        "model hidden={} word_dim={} enc_layers={} beam_width={} out_vocab={} train_seed={TRAIN_SEED}",
        cfg.hidden,
        cfg.word_dim,
        cfg.enc_layers,
        cfg.beam_width,
        check_model.out_vocab().len(),
    );
    println!(
        "traffic questions={} tables={} preregistered={} warmup_frames={} timed_frames={}",
        plan.traffic.examples.len(),
        plan.traffic.tables.len(),
        plan.preregistered.len(),
        plan.warmup.len(),
        plan.timed.len(),
    );
    for (i, s) in setups.iter().enumerate() {
        println!(
            "setup {i}: gen {:.1} ms, train {:.3} s, server start {:.2} ms, register {:.1} ms, total {:.3} s",
            s.gen_ms, s.train_s, s.start_ms, s.register_ms, s.total_s()
        );
    }

    let warmup = live.run("warmup", plan.warmup.clone(), &plan, None)?;
    let before = if args.trace {
        Some(live.stats()?)
    } else {
        None
    };
    let window = Duration::from_secs(args.seconds);
    let timed = live.run("timed", plan.timed.clone(), &plan, Some(window))?;
    let mut phases = vec![register, warmup, timed];
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    if let Some(before) = before {
        let after = live.stats()?;
        server_counters(&before, &after, &mut values);
        let (warm_rtt, wire_cold) = probes(&mut live, &plan, &mut phases)?;
        values.insert("server.warm_rtt_ms", warm_rtt);
        let inproc: Vec<f64> = plan
            .spare
            .iter()
            .map(|&q| {
                let e = &plan.traffic.examples[q];
                let t = Instant::now();
                let ctx = check_model.table_context(&e.table);
                std::hint::black_box(check_model.predict_in(&e.question, &ctx));
                ms(t.elapsed())
            })
            .collect();
        values.insert("server.overhead_ms", median(&wire_cold) - median(&inproc));
    }
    drop(live.conns);
    live.server.shutdown();
    for p in &phases {
        p.print();
    }

    // The answer check over every reply of every phase.
    let exchanges: Vec<Exchange<'_>> = phases
        .iter()
        .flat_map(|p| &p.sent)
        .map(|s| Exchange {
            id: s.id,
            frame: &s.frame,
            line: s.outcome.line.as_deref(),
        })
        .collect();
    let preds = check::in_process_answers(&check_model, &plan.traffic, &exchanges);
    let mut correct = match check::check_answers(&exchanges, &plan.traffic, preds) {
        Ok(n) => {
            println!("answer check: {n} replies byte-identical to in-process ServeEngine::serve");
            true
        }
        Err(e) => {
            println!("answer check FAILED: {e}");
            false
        }
    };

    let timed = phases
        .iter()
        .find(|p| p.name == "timed")
        .ok_or("no timed phase")?;
    let attempted = timed.sent.len();
    let failed = attempted - timed.ok_count();
    if args.trace {
        let setup_med =
            |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
        values.insert("setup.gen_ms", setup_med(|s| s.gen_ms));
        values.insert("setup.train_s", setup_med(|s| s.train_s));
        values.insert("setup.server_start_ms", setup_med(|s| s.start_ms));
        values.insert("setup.register_ms", setup_med(|s| s.register_ms));
        loadgen_metrics(timed, &plan, &mut values)?;
        values.insert("loadgen.latency_p99_ms", latency_percentiles(timed)?[2]);
        let mut questions = workload::distinct_questions(timed.sent.iter().map(|s| &s.frame));
        questions.truncate(REPLAY_MAX);
        println!(
            "replay: {} distinct questions of the timed window, in-process",
            questions.len()
        );
        if let Err(e) = replay::stages(&check_model, &plan.traffic, &questions, &mut values)
            .and_then(|()| {
                replay::trace_overhead(&check_model, &plan.traffic, &questions, &mut values)
            })
        {
            println!("replay FAILED: {e}");
            correct = false;
        }
        replay::engine(&check_model, &plan.traffic, &questions, &mut values);
        replay::matmul_1row(&check_model, &mut values)?;
    } else {
        let warmup = phases
            .iter()
            .find(|p| p.name == "warmup")
            .ok_or("no warm-up phase")?;
        end_to_end_metrics(warmup, timed, &plan, &setups, &mut values)?;
    }
    let rss = proc_status_kb("VmHWM:").ok_or("VmHWM not readable")? / 1024.0;
    values.insert("peak_rss_mb", rss);

    let line = report::result_line(
        correct,
        attempted,
        failed,
        report::catalogue(args.trace),
        &values,
    )?;
    println!("{line}");
    Ok(if correct { 0 } else { 1 })
}

fn end_to_end_metrics(
    warmup: &PhaseRun,
    timed: &PhaseRun,
    plan: &Plan,
    setups: &[SetupTimes],
    values: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let mut last_reply = timed.start;
    let mut answered = 0usize;
    for s in timed.sent.iter().filter(|s| s.ok) {
        last_reply = last_reply.max(s.outcome.recv.ok_or("ok frame without a reply time")?);
        answered += s.frame.kind.questions().len();
    }
    let [p50, p90, _] = latency_percentiles(timed)?;

    // Accuracy over the run's distinct questions (warm-up and window),
    // from the answers received over the wire.
    let mut first: BTreeMap<(usize, bool), Option<nlidb_sqlir::Query>> = BTreeMap::new();
    for s in [warmup, timed]
        .into_iter()
        .flat_map(|p| &p.sent)
        .filter(|s| s.ok)
    {
        let line = s.outcome.line.as_deref().unwrap_or_default();
        for (qg, a) in s
            .frame
            .kind
            .questions()
            .into_iter()
            .zip(check::wire_answers(line))
        {
            first.entry(qg).or_insert(a);
        }
    }
    let pairs: Vec<(Option<nlidb_sqlir::Query>, &nlidb_data::Example)> = first
        .iter()
        .map(|(&(q, _), a)| (a.clone(), &plan.traffic.examples[q]))
        .collect();
    let executable = pairs
        .iter()
        .filter(|(a, e)| {
            a.as_ref()
                .is_some_and(|q| nlidb_storage::execute(&e.table, q).is_ok())
        })
        .count();
    println!("accuracy over {} distinct questions", pairs.len());

    values.insert(
        "setup_s",
        median(&setups.iter().map(SetupTimes::total_s).collect::<Vec<_>>()),
    );
    values.insert("latency_p50_ms", p50);
    values.insert("latency_p90_ms", p90);
    values.insert(
        "questions_per_s",
        answered as f64 / (last_reply - timed.start).as_secs_f64(),
    );
    values.insert("acc_ex", f64::from(evaluate(&pairs).acc_ex));
    values.insert(
        "executable_share",
        executable as f64 / pairs.len().max(1) as f64,
    );
    values.insert(
        "ok_share",
        timed.ok_count() as f64 / timed.sent.len().max(1) as f64,
    );
    Ok(())
}

/// p50, p90 and p99 of the window's latencies, printed with the sample
/// count. Fails when a percentile has fewer than ten samples beyond it.
fn latency_percentiles(timed: &PhaseRun) -> Result<[f64; 3], String> {
    let latencies = timed.latencies();
    let mut out = [0.0; 3];
    let mut line = format!("latency samples={}", latencies.len());
    for (slot, p) in out.iter_mut().zip([50.0, 90.0, 99.0]) {
        *slot = percentile(&latencies, p).map_err(|e| format!("latency p{p}: {e}"))?;
        let beyond = latencies.iter().filter(|&&l| l > *slot).count();
        line += &format!(" p{p}={slot:.3} ms ({beyond} above)");
    }
    println!("{line}");
    Ok(out)
}

/// `server.batch_questions`, `cache.hit_share` and `admission.shed` over
/// the timed window, from `stats` taken before and after it.
fn server_counters(
    before: &ServerStats,
    after: &ServerStats,
    values: &mut BTreeMap<&'static str, f64>,
) {
    let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
    let batches = d(after.batches, before.batches);
    values.insert(
        "server.batch_questions",
        d(after.questions, before.questions) / batches.max(1.0),
    );
    let cache = |s: &ServerStats| {
        s.tables
            .iter()
            .fold((0, 0), |(h, m), t| (h + t.cache.hits, m + t.cache.misses))
    };
    let ((h1, m1), (h0, m0)) = (cache(after), cache(before));
    values.insert(
        "cache.hit_share",
        d(h1, h0) / (d(h1, h0) + d(m1, m0)).max(1.0),
    );
    let shed = |s: &ServerStats| s.tenants.iter().map(|t| t.shed).sum::<u64>();
    values.insert("admission.shed", d(shed(after), shed(before)));
}

/// The traced run's wire probes, on connection 0 after the window: a
/// warm ask repeated closed-loop, and each spare cold question once.
/// Returns the warm round-trip median and the cold round trips (ms).
fn probes(
    live: &mut Live,
    plan: &Plan,
    phases: &mut Vec<PhaseRun>,
) -> Result<(f64, Vec<f64>), String> {
    let rtts = |p: &PhaseRun| p.latencies();
    let (q, _) = plan.warmup[0].kind.questions()[0];
    let ask = |q: usize| Frame {
        think_s: 0.0,
        conn: 0,
        kind: FrameKind::Ask { q, guided: false },
    };
    let warm = live.run("probe_warm", vec![ask(q); WARM_PROBES + 1], plan, None)?;
    let warm_rtt = rtts(&warm);
    let cold = live.run(
        "probe_cold",
        plan.spare.iter().map(|&q| ask(q)).collect(),
        plan,
        None,
    )?;
    let cold_rtt = rtts(&cold);
    if warm_rtt.len() != WARM_PROBES + 1 || cold_rtt.len() != plan.spare.len() {
        return Err("a probe frame got no reply".into());
    }
    phases.push(warm);
    phases.push(cold);
    Ok((median(&warm_rtt[1..]), cold_rtt))
}

/// `loadgen.*` and `protocol.*` for the timed window.
fn loadgen_metrics(
    timed: &PhaseRun,
    plan: &Plan,
    values: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let lags: Vec<f64> = timed
        .sent
        .iter()
        .filter_map(|s| {
            Some(ms(s
                .outcome
                .sent?
                .saturating_duration_since(s.outcome.due?)))
        })
        .collect();
    let lag_p99 = percentile(&lags, 99.0).map_err(|e| format!("send lag p99: {e}"))?;
    values.insert("loadgen.lag_p99_ms", lag_p99);
    values.insert("loadgen.sent", lags.len() as f64);
    values.insert("loadgen.ok", timed.ok_count() as f64);
    values.insert(
        "loadgen.failed",
        (timed.sent.len() - timed.ok_count()) as f64,
    );

    let n = timed.sent.len().max(1) as f64;
    let t = Instant::now();
    for s in &timed.sent {
        std::hint::black_box(encode_frame(
            &check::request(s.id, &s.frame, &plan.traffic).to_json(),
        ));
    }
    values.insert("protocol.encode_us", ms(t.elapsed()) * 1e3 / n);
    let lines: Vec<&str> = timed
        .sent
        .iter()
        .filter_map(|s| s.outcome.line.as_deref())
        .collect();
    let t = Instant::now();
    for line in &lines {
        let json = nlidb_json::decode_frame(line).map_err(|e| e.to_string())?;
        std::hint::black_box(Response::from_json(&json).map_err(|e| e.message().to_string())?);
    }
    values.insert(
        "protocol.decode_us",
        ms(t.elapsed()) * 1e3 / lines.len().max(1) as f64,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_command_line() {
        assert_eq!(
            args("--workload warm_mixed --seed 9 --seconds 10 --trace 1"),
            Ok(Args {
                workload: Workload::WarmMixed,
                seed: 9,
                seconds: 10,
                trace: true
            })
        );
        assert!(args("--workload guided --seed 1").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload cold_ask --trace 2").is_err());
        assert!(args("--workload cold_ask --seconds").is_err());
        assert!(args("--workload cold_ask --seconds 0").is_err());
    }
}
