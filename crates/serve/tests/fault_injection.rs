//! Fault injection at the connection layer (`docs/PROTOCOL.md` §5,
//! "failure containment"): malformed frames, oversized lines, invalid
//! UTF-8, mid-request disconnects, and admission shedding must each
//! produce their documented error code — and leave the engine's state
//! (catalog, cache, question/batch counters) byte-identical to a
//! history in which the faulty input never arrived. Pipelined faults
//! keep their place in the reply order, and a pipeline abandoned
//! unread releases every admission permit it took.

mod common;

use common::{pool_lock, system, RawClient};
use nlidb_core::Nlidb;
use nlidb_json::{encode_frame, FromJson, Json, ToJson, MAX_FRAME_BYTES};
use nlidb_serve::{
    AdmissionConfig, AskItem, Op, Reply, Request, Response, Server, ServerConfig, ServerStats,
};

fn start_default() -> nlidb_serve::ServerHandle {
    let nlidb = Nlidb::load(&system().ckpt).expect("load test checkpoint");
    Server::start(nlidb, ServerConfig::default()).expect("start test server")
}

fn fetch_stats(c: &mut RawClient, id: i64) -> ServerStats {
    let line = c.roundtrip(&Request::new(id, "ops", Op::Stats));
    let parsed = Json::parse(&line).expect("stats response parses");
    match Response::from_json(&parsed).expect("stats decodes").result {
        Ok(Reply::Stats(s)) => s,
        other => panic!("expected stats reply, got {other:?}"),
    }
}

/// The engine-state projection that connection-layer faults must never
/// disturb. (The `requests` counter legitimately moves — every error
/// response written counts — so it is excluded.)
fn engine_state(s: &ServerStats) -> (u64, u64, String, String, u64) {
    (
        s.questions,
        s.batches,
        s.tables.to_json().to_string(),
        s.cache.to_json().to_string(),
        s.cache_len,
    )
}

fn register_first_table(c: &mut RawClient) -> u64 {
    let sys = system();
    let reg = c.roundtrip(&Request::new(0, "acme", Op::RegisterTable {
        table: sys.tables[0].clone(),
    }));
    assert!(reg.contains("\"type\":\"registered\""), "{reg}");
    sys.tables[0].fingerprint()
}

fn ask_request(id: i64, fingerprint: u64) -> Request {
    Request::new(
        id,
        "acme",
        Op::Ask(AskItem { fingerprint, question: system().questions[0].1.clone(), guided: false }),
    )
}

#[test]
fn connection_faults_yield_documented_codes_and_leave_engine_state_untouched() {
    let _guard = pool_lock();
    let server = start_default();
    let mut c = RawClient::connect(server.addr());

    // Establish real state first: a registered table, one answered ask.
    let fp = register_first_table(&mut c);
    let ask = ask_request(1, fp);
    let answer = c.roundtrip(&ask);
    assert!(answer.contains("\"type\":\"answer\""), "{answer}");
    let before = engine_state(&fetch_stats(&mut c, 2));

    // Fault: not JSON at all.
    c.send_bytes(b"{oops\n");
    let line = c.recv_line();
    assert!(line.contains("\"code\":\"bad_frame\"") && line.contains("\"id\":null"), "{line}");

    // Fault: invalid UTF-8.
    c.send_bytes(&[0xff, 0xfe, 0xfd, b'\n']);
    let line = c.recv_line();
    assert!(line.contains("\"code\":\"bad_frame\""), "{line}");

    // Fault: two JSON values on one line.
    c.send_bytes(b"{} {}\n");
    let line = c.recv_line();
    assert!(line.contains("\"code\":\"bad_frame\""), "{line}");

    // Fault: a frame over the 1 MiB bound — answered, discarded, and the
    // connection resynchronized at the newline.
    let mut oversized = vec![b'x'; MAX_FRAME_BYTES + 64];
    oversized.push(b'\n');
    c.send_bytes(&oversized);
    let line = c.recv_line();
    assert!(line.contains("\"code\":\"frame_too_long\""), "{line}");

    // Faults: valid JSON, invalid requests — each with its documented
    // code, each echoing whatever id it could parse.
    for (frame, code) in [
        (r#"[1,2,3]"#, "bad_request"),
        (r#"{"id":42}"#, "bad_request"),
        (r#"{"id":42,"op":"dance"}"#, "unknown_op"),
        (r#"{"id":42,"v":99,"op":"stats"}"#, "unsupported_version"),
        (r#"{"id":42,"op":"batch","tenant":"acme","items":[]}"#, "bad_request"),
        (r#"{"id":42,"op":"ask","tenant":"acme","fingerprint":"zz","question":[]}"#, "bad_request"),
    ] {
        c.send_bytes(format!("{frame}\n").as_bytes());
        let line = c.recv_line();
        assert!(line.contains(&format!("\"code\":\"{code}\"")), "{frame} → {line}");
        if frame.contains("\"id\":42") {
            assert!(line.contains("\"id\":42"), "id not echoed on error: {line}");
        }
    }

    // Blank lines between frames are tolerated — no response at all.
    c.send_bytes(b"\n  \n");

    // Fault: a client that disconnects mid-frame (no newline ever sent).
    {
        let mut dropper = RawClient::connect(server.addr());
        dropper.send_bytes(b"{\"op\":\"ask\",\"tenant\":\"acme\"");
    } // dropped here; the partial frame is discarded silently

    // None of the faults reached the engine: its state is byte-identical
    // to a history in which they never arrived.
    let after = engine_state(&fetch_stats(&mut c, 3));
    assert_eq!(after, before, "a connection-layer fault leaked into engine state");

    // And the faulted connection still works end to end.
    assert_eq!(c.roundtrip(&ask), answer, "connection unusable after faults");
    server.shutdown();
}

#[test]
fn abandoned_connection_releases_its_permit_and_drops_its_reply() {
    let _guard = pool_lock();
    let server = start_default();
    let mut c = RawClient::connect(server.addr());
    let fp = register_first_table(&mut c);

    // A client sends a full ask and vanishes without reading the reply.
    {
        let mut ghost = RawClient::connect(server.addr());
        ghost.send_bytes(encode_frame(&ask_request(99, fp).to_json()).as_bytes());
    }

    // The ask was already in flight, so it is served; the reply send
    // fails harmlessly and the admission permit is released. Stats
    // roundtrips (each a full network round trip) poll until the engine
    // has processed it.
    let mut polls = 0;
    let stats = loop {
        let s = fetch_stats(&mut c, 100 + polls);
        if s.questions >= 1 {
            break s;
        }
        polls += 1;
        assert!(polls < 2000, "engine never served the abandoned request");
    };
    let acme = stats.tenants.iter().find(|t| t.tenant == "acme").expect("acme row");
    assert_eq!(acme.in_flight, 0, "abandoned request leaked its admission permit");
    assert_eq!(acme.admitted, 1);

    // The server is fully healthy afterwards.
    let line = c.roundtrip(&ask_request(5, fp));
    assert!(line.contains("\"type\":\"answer\""), "{line}");
    server.shutdown();
}

#[test]
fn zero_capacity_tenant_sheds_deterministically_and_statelessly() {
    let _guard = pool_lock();
    let sys = system();
    let nlidb = Nlidb::load(&sys.ckpt).expect("load test checkpoint");
    let cfg = ServerConfig {
        admission: AdmissionConfig { per_tenant: 0, total: 16 },
        ..ServerConfig::default()
    };
    let server = Server::start(nlidb, cfg).expect("start test server");
    let mut c = RawClient::connect(server.addr());

    // Control ops bypass admission: registration works on a full server.
    let fp = register_first_table(&mut c);

    // The shed response is deterministic down to the byte: a function of
    // the request's id and tenant only (PROTOCOL.md §5).
    let expected = concat!(
        "{\"v\":1,\"id\":7,\"ok\":false,\"error\":{\"code\":\"overloaded\",",
        "\"message\":\"admission queue full for tenant 'acme'; retry later\"}}"
    );
    for _ in 0..3 {
        assert_eq!(c.roundtrip(&ask_request(7, fp)), expected);
    }
    let line = c.roundtrip(&Request::new(7, "acme", Op::Batch {
        items: vec![AskItem { fingerprint: fp, question: sys.questions[0].1.clone(), guided: false }],
    }));
    assert_eq!(line, expected, "batches shed with the same bytes");

    // Shed requests had no effect on engine state; stats still served.
    let stats = fetch_stats(&mut c, 8);
    assert_eq!(stats.questions, 0);
    assert_eq!(stats.batches, 0);
    assert_eq!(stats.cache_len, 0);
    let acme = stats.tenants.iter().find(|t| t.tenant == "acme").expect("acme row");
    assert_eq!(acme.shed, 4, "three asks and one one-item batch");
    assert_eq!(acme.admitted, 0);
    server.shutdown();
}

#[test]
fn abandoned_pipelined_connection_releases_every_permit() {
    let _guard = pool_lock();
    let server = start_default();
    let mut c = RawClient::connect(server.addr());
    let fp = register_first_table(&mut c);

    // A client pipelines 16 asks in one write (about 4 KiB, well inside
    // one server read) and vanishes without reading a single reply.
    {
        let burst: String =
            (0..16).map(|i| encode_frame(&ask_request(300 + i, fp).to_json())).collect();
        let mut ghost = RawClient::connect(server.addr());
        ghost.send_bytes(burst.as_bytes());
    }

    // Every ask was submitted before the connection noticed the peer
    // was gone, so all 16 are served; the replies are dropped and every
    // admission permit comes back.
    let mut polls = 0;
    let stats = loop {
        let s = fetch_stats(&mut c, 400 + polls);
        if s.questions >= 16 {
            break s;
        }
        polls += 1;
        assert!(polls < 2000, "engine never served the abandoned pipeline");
    };
    let acme = stats.tenants.iter().find(|t| t.tenant == "acme").expect("acme row");
    assert_eq!(acme.in_flight, 0, "abandoned pipeline leaked admission permits");
    assert_eq!(acme.admitted, 16);

    let line = c.roundtrip(&ask_request(5, fp));
    assert!(line.contains("\"type\":\"answer\""), "{line}");
    server.shutdown();
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let _guard = pool_lock();
    let sys = system();
    let server = start_default();
    let mut c = RawClient::connect(server.addr());
    let fp = register_first_table(&mut c);

    // Write a burst of frames before reading anything; responses must
    // come back in request order with matching ids.
    let mut burst = String::new();
    for i in 0..16i64 {
        let req = Request::new(i + 100, "acme", Op::Ask(AskItem {
            fingerprint: fp,
            question: sys.questions[i as usize % sys.questions.len()].1.clone(),
            guided: false,
        }));
        burst.push_str(&encode_frame(&req.to_json()));
    }
    c.send_bytes(burst.as_bytes());
    for i in 0..16i64 {
        let line = c.recv_line();
        assert!(
            line.starts_with(&format!("{{\"v\":1,\"id\":{},", i + 100)),
            "response {i} out of order: {line}"
        );
    }

    // A mixed burst in one write: faults answered on the connection
    // thread interleave with engine work, and every reply still comes
    // back in request order.
    let mut mixed: Vec<u8> = encode_frame(&ask_request(200, fp).to_json()).into_bytes();
    mixed.extend_from_slice(b"{oops\n");
    mixed.resize(mixed.len() + MAX_FRAME_BYTES + 64, b'x');
    mixed.push(b'\n');
    mixed.extend_from_slice(encode_frame(&Request::new(201, "ops", Op::Stats).to_json()).as_bytes());
    let batch = Request::new(202, "acme", Op::Batch {
        items: (0..8)
            .map(|i| AskItem {
                fingerprint: fp,
                question: sys.questions[i % sys.questions.len()].1.clone(),
                guided: false,
            })
            .collect(),
    });
    mixed.extend_from_slice(encode_frame(&batch.to_json()).as_bytes());
    mixed.extend_from_slice(&[0xff, 0xfe, b'\n']);
    mixed.extend_from_slice(encode_frame(&ask_request(203, fp).to_json()).as_bytes());
    c.send_bytes(&mixed);

    let expected: [(&str, &str); 7] = [
        ("200", "\"type\":\"answer\""),
        ("null", "\"code\":\"bad_frame\""),
        ("null", "\"code\":\"frame_too_long\""),
        ("201", "\"type\":\"stats\""),
        ("202", "\"type\":\"batch\""),
        ("null", "\"code\":\"bad_frame\""),
        ("203", "\"type\":\"answer\""),
    ];
    for (k, (id, marker)) in expected.iter().enumerate() {
        let line = c.recv_line();
        assert!(
            line.starts_with(&format!("{{\"v\":1,\"id\":{id},")) && line.contains(marker),
            "mixed reply {k}: want id {id} with {marker}, got {line}"
        );
        if *id == "202" {
            let parsed = Json::parse(&line).expect("batch reply parses");
            match Response::from_json(&parsed).expect("batch reply decodes").result {
                Ok(Reply::Batch { results }) => assert_eq!(results.len(), 8),
                other => panic!("expected a batch reply, got {other:?}"),
            }
        }
    }
    server.shutdown();
}

#[test]
fn requests_after_protocol_shutdown_get_shutting_down_or_eof() {
    let _guard = pool_lock();
    let sys = system();
    let server = start_default();
    let mut a = RawClient::connect(server.addr());
    let mut b = RawClient::connect(server.addr());

    let bye = a.roundtrip(&Request::new(0, "ops", Op::Shutdown));
    assert!(bye.contains("\"type\":\"bye\""), "{bye}");

    // Connection B races the teardown: it either gets the structured
    // `shutting_down` error or a clean close — never a hang or garbage.
    let req = Request::new(1, "acme", Op::Ask(AskItem {
        fingerprint: sys.tables[0].fingerprint(),
        question: vec!["hello".into()],
        guided: false,
    }));
    b.send_bytes(encode_frame(&req.to_json()).as_bytes());
    if let Some(line) = b.try_recv_line() {
        assert!(
            line.contains("\"code\":\"shutting_down\"")
                || line.contains("\"code\":\"unknown_table\""),
            "unexpected post-shutdown response: {line}"
        );
    }
    server.shutdown();
}
