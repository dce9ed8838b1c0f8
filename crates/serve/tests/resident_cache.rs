//! The residency guarantee, observed over the wire: once a cell is
//! prepared, repeated `verify`/`tamper-probe` requests issue **zero**
//! skeleton rebuilds and zero cache lookups — the cell keeps the core it
//! took at `prepare`, so both the miss and the hit counter stay flat.

use lcp_core::json::Json;
use lcp_graph::families::GraphFamily;
use lcp_schemes::registry::Polarity;
use lcp_serve::{CellCoord, Client, Server, ServerConfig};

fn coord() -> CellCoord {
    CellCoord {
        scheme: "bipartite".into(),
        family: GraphFamily::Cycle,
        n: 600,
        seed: 7,
        polarity: Polarity::Yes,
    }
}

fn skeleton_counter(stats: &Json, key: &str) -> u64 {
    stats
        .get("skeletons")
        .and_then(|s| s.get(key))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats response lacks skeletons.{key}"))
}

#[test]
fn resident_verify_rebuilds_no_skeletons() {
    let handle = Server::bind(ServerConfig::default())
        .expect("bind")
        .spawn()
        .expect("spawn");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let coord = coord();

    let prepared = client.prepare(&coord).expect("prepare");
    assert_eq!(prepared.get("holds").and_then(Json::as_bool), Some(true));

    let s0 = client.stats().expect("stats");
    let misses = skeleton_counter(&s0, "misses");
    assert_eq!(misses, 1, "prepare builds the skeleton core exactly once");
    let hits0 = skeleton_counter(&s0, "hits");

    let verdict = client.verify(&coord, None).expect("verify");
    assert_eq!(
        verdict.get("check").and_then(Json::as_str),
        Some("completeness")
    );
    assert_eq!(verdict.get("accepted").and_then(Json::as_bool), Some(true));

    let s1 = client.stats().expect("stats");
    assert_eq!(
        skeleton_counter(&s1, "misses"),
        misses,
        "a resident verify must not rebuild skeletons"
    );
    assert_eq!(
        skeleton_counter(&s1, "hits"),
        hits0,
        "a resident verify runs on the kept core, without a lookup"
    );

    client.verify(&coord, None).expect("second verify");
    client.tamper_probe(&coord, 16, 3).expect("tamper-probe");
    client.session_open(&coord).expect("session-open");
    client.session_close().expect("session-close");
    let s2 = client.stats().expect("stats");
    assert_eq!(
        skeleton_counter(&s2, "misses"),
        misses,
        "repeated resident requests never miss"
    );
    assert_eq!(skeleton_counter(&s2, "hits"), hits0);
    assert_eq!(s2.get("loads").and_then(Json::as_u64), Some(1));

    handle.stop().expect("clean drain");
}

#[test]
fn unknown_cells_come_back_as_typed_errors() {
    let handle = Server::bind(ServerConfig::default())
        .expect("bind")
        .spawn()
        .expect("spawn");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let mut bad = coord();
    bad.scheme = "no-such-scheme".into();
    let err = client.prepare(&bad).expect_err("unknown scheme");
    assert_eq!(err.kind(), Some("unknown-scheme"));

    // The connection survives a typed error.
    client.prepare(&coord()).expect("prepare after error");
    handle.stop().expect("clean drain");
}
