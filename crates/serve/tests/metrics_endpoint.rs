//! The `metrics` op, observed over the wire: a real workload populates
//! the per-op counters and latency histograms, the export carries the
//! engine catalog driven by that workload, and the table gauges show a
//! resident verify rebuilding zero skeletons.
//!
//! The catalog statics are process-global (tests in this binary share
//! them), so every assertion here is a delta or a lower bound, never an
//! exact count.

use lcp_graph::families::GraphFamily;
use lcp_schemes::registry::Polarity;
use lcp_serve::protocol::{read_frame, write_frame};
use lcp_serve::{CellCoord, Client, Server, ServerConfig, WireMutation};
use std::io::Write;
use std::net::TcpStream;

fn coord() -> CellCoord {
    CellCoord {
        scheme: "bipartite".into(),
        family: GraphFamily::Cycle,
        n: 200,
        seed: 7,
        polarity: Polarity::Yes,
    }
}

/// One sample value from the Prometheus text: `series` is the full key
/// (`name` or `name{labels}`).
fn value(text: &str, series: &str) -> i64 {
    text.lines()
        .find_map(|line| line.strip_prefix(series)?.strip_prefix(' '))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("series {series} missing from export:\n{text}"))
}

#[test]
fn a_workload_populates_the_per_op_series() {
    let handle = Server::bind(ServerConfig::default())
        .expect("bind")
        .spawn()
        .expect("spawn");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let coord = coord();

    client.prepare(&coord).expect("prepare");
    let before = client.metrics_text().expect("metrics");
    let misses_before = value(&before, "lcp_serve_skeleton_misses");

    client.verify(&coord, None).expect("verify");
    client.verify(&coord, None).expect("second verify");
    client.session_open(&coord).expect("session-open");
    client
        .mutate(&WireMutation::EdgeInsert(0, 2))
        .expect("mutate");
    client.session_close().expect("session-close");
    let text = client.metrics_text().expect("metrics");

    // Per-op counters: everything this workload touched is nonzero.
    for op in ["prepare", "verify", "session-open", "mutate", "metrics"] {
        let series = format!("lcp_serve_requests_total{{op=\"{op}\"}}");
        assert!(value(&text, &series) > 0, "{series} stayed zero");
    }
    // Latency histograms march with the counters: the verify histogram
    // holds at least the two samples this test just produced.
    assert!(value(&text, "lcp_serve_request_ns_count{op=\"verify\"}") >= 2);
    assert!(value(&text, "lcp_serve_request_ns_sum{op=\"verify\"}") > 0);

    // Residency, read from the export: both verifies reused the warm
    // skeletons, so the miss gauge did not move.
    assert_eq!(
        value(&text, "lcp_serve_skeleton_misses"),
        misses_before,
        "a resident verify must not rebuild skeletons"
    );
    assert!(value(&text, "lcp_serve_resident_cells") >= 1);

    // The export carries the engine catalog driven by the same work.
    assert!(value(&text, "lcp_engine_evaluate_sweeps_total") > 0);
    assert!(value(&text, "lcp_dynamic_reverifies_total") > 0);

    // The backpressure series exist even while idle (a scrape must
    // never have to guess whether zero means "fine" or "unregistered").
    assert_eq!(value(&text, "lcp_serve_queue_depth"), 0);
    assert!(value(&text, "lcp_serve_busy_rejections_total") >= 0);

    handle.stop().expect("clean drain");
}

#[test]
fn typed_errors_and_bad_frames_are_counted() {
    let handle = Server::bind(ServerConfig::default())
        .expect("bind")
        .spawn()
        .expect("spawn");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let base = client.metrics_text().expect("metrics");
    let errors = value(&base, "lcp_serve_error_responses_total");
    let bad = value(&base, "lcp_serve_bad_requests_total");

    let mut unknown = coord();
    unknown.scheme = "no-such-scheme".into();
    client.prepare(&unknown).expect_err("typed error");
    client.request("not json at all").expect_err("bad frame");

    // A well-framed payload that is not UTF-8 is a bad request too: it
    // gets a typed answer and the connection keeps serving.
    let mut raw = TcpStream::connect(handle.addr()).expect("connect raw");
    let payload = [0xff, 0xfe, b'{'];
    raw.write_all(&(payload.len() as u32).to_be_bytes())
        .and_then(|()| raw.write_all(&payload))
        .expect("send raw frame");
    let reply = read_frame(&mut raw, &|| false)
        .expect("read reply")
        .expect("a reply, not a closed connection");
    assert!(reply.contains("\"error\":\"bad-request\""), "{reply}");
    write_frame(&mut raw, "{\"op\":\"stats\"}").expect("send stats");
    let reply = read_frame(&mut raw, &|| false)
        .expect("read stats")
        .expect("the connection stays open after a bad frame");
    assert!(reply.contains("\"ok\":true"), "{reply}");

    let text = client.metrics_text().expect("metrics");
    assert_eq!(value(&text, "lcp_serve_error_responses_total"), errors + 1);
    assert_eq!(value(&text, "lcp_serve_bad_requests_total"), bad + 2);
    // A failed dispatch still counts as a request of its op...
    assert!(value(&text, "lcp_serve_requests_total{op=\"prepare\"}") > 0);
    // ...but an unparseable frame has no op to attribute.

    handle.stop().expect("clean drain");
}
