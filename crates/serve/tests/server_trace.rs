//! Trace families of the TCP server: one connection that registers, asks,
//! batches, hot-swaps, gets shed, and gets an error must emit every
//! `server.*` span and counter family (DESIGN.md "Observability").
//!
//! This is its own test binary because the trace registry is global:
//! counters from the other serve suites would leak into it.

mod common;

use common::{system, RawClient};
use nlidb_core::Nlidb;
use nlidb_json::Json;
use nlidb_serve::{AskItem, Op, Request, Server, ServerConfig};

#[test]
fn server_traffic_emits_every_server_trace_family() {
    // Train the fixture untraced; only server traffic is recorded.
    nlidb_trace::set_enabled(false);
    let sys = system();
    let nlidb = Nlidb::load(&sys.ckpt).expect("load test checkpoint");
    nlidb_trace::reset();
    nlidb_trace::set_enabled(true);

    let server = Server::start(nlidb, ServerConfig::default()).expect("start test server");
    let mut c = RawClient::connect(server.addr());
    let fp = sys.tables[0].fingerprint();
    let item = |fingerprint| AskItem {
        fingerprint,
        question: sys.questions[0].1.clone(),
        guided: false,
    };
    let exchanges = [
        (Request::new(0, "acme", Op::RegisterTable { table: sys.tables[0].clone() }), "registered"),
        (Request::new(1, "acme", Op::Ask(item(fp))), "answer"),
        (
            Request::new(2, "ops", Op::SwapCheckpoint { path: sys.ckpt.display().to_string() }),
            "swapped",
        ),
        (Request::new(3, "acme", Op::Batch { items: vec![item(fp), item(fp)] }), "batch"),
        // Over the per-tenant admission cap of 64: shed.
        (
            Request::new(4, "flood", Op::Batch { items: (0..65).map(|_| item(fp)).collect() }),
            "overloaded",
        ),
        // No such table: a plain error response.
        (Request::new(5, "acme", Op::Ask(item(1))), "unknown_table"),
    ];
    for (req, marker) in &exchanges {
        let line = c.roundtrip(req);
        assert!(line.contains(marker), "expected {marker}: {line}");
    }
    drop(c);
    server.shutdown();

    let snap = nlidb_trace::snapshot("server_trace");
    nlidb_trace::set_enabled(false);
    nlidb_trace::reset();

    let Some(Json::Obj(spans)) = snap.get("spans") else { panic!("spans must be an object") };
    for name in ["server.batch", "server.request", "server.register", "server.swap"] {
        assert!(spans.iter().any(|(k, _)| k == name), "span {name} missing");
    }
    let counters = snap.get("counters").expect("counters section");
    for name in [
        "server.connections",
        "server.requests",
        "server.questions",
        "server.batches",
        "server.shed",
        "server.errors",
        "server.registered",
        "server.swaps",
    ] {
        assert!(
            matches!(counters.get(name), Some(Json::Int(n)) if *n > 0),
            "counter {name} missing or zero"
        );
    }
}
