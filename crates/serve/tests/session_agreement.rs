//! Verdict-for-verdict agreement between the socket session and the
//! in-process incremental engine: registry builders are deterministic,
//! so a server-side session over `(scheme, family, n, seed, polarity)`
//! and a local `DynamicInstance` over the same coordinates must produce
//! identical churn traces and identical per-mutation verdicts.

use lcp_core::json::Json;
use lcp_core::Deadline;
use lcp_dynamic::churn::{run_churn, ChurnConfig};
use lcp_dynamic::{DynamicInstance, Mutation};
use lcp_graph::families::GraphFamily;
use lcp_schemes::registry::{self, CellRequest, Polarity};
use lcp_serve::protocol::parse_bits;
use lcp_serve::{CellCoord, Client, Server, ServerConfig, WireLabel, WireMutation};

fn coord(n: usize, seed: u64) -> CellCoord {
    CellCoord {
        scheme: "bipartite".into(),
        family: GraphFamily::Cycle,
        n,
        seed,
        polarity: Polarity::Yes,
    }
}

/// Builds the same cell the server will, in this process.
fn local_twin(coord: &CellCoord) -> DynamicInstance {
    let entry = registry::find(&coord.scheme).expect("scheme in registry");
    let cell = entry
        .build(&CellRequest {
            family: coord.family,
            n: coord.n,
            seed: coord.seed,
            polarity: coord.polarity,
        })
        .expect("cell applies");
    DynamicInstance::from_cell(cell.dynamic_cell())
}

fn opt_usize(doc: &Json, key: &str) -> Option<usize> {
    match doc.get(key) {
        None | Some(Json::Null) => None,
        Some(v) => Some(
            v.as_usize()
                .unwrap_or_else(|| panic!("{key} not an integer")),
        ),
    }
}

fn num(doc: &Json, key: &str) -> usize {
    doc.get(key)
        .and_then(Json::as_usize)
        .unwrap_or_else(|| panic!("missing integer {key}"))
}

fn flag(doc: &Json, key: &str) -> bool {
    doc.get(key)
        .and_then(Json::as_bool)
        .unwrap_or_else(|| panic!("missing bool {key}"))
}

#[test]
fn socket_churn_agrees_with_in_process_run() {
    let (steps, check_every, churn_seed) = (48, 6, 21);
    let coord = coord(64, 7);

    let handle = Server::bind(ServerConfig::default())
        .expect("bind")
        .spawn()
        .expect("spawn");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let opened = client.session_open(&coord).expect("session-open");
    assert!(flag(&opened, "accepted"), "honest yes-cell starts accepted");

    let remote = client
        .churn(churn_seed, steps, check_every)
        .expect("server churn");
    client.session_close().expect("session-close");
    handle.stop().expect("clean drain");

    let mut twin = local_twin(&coord);
    let local = run_churn(
        &mut twin,
        &ChurnConfig::new(churn_seed),
        steps,
        check_every,
        &Deadline::none(),
    );

    assert_eq!(local.mismatches, 0, "incremental == full locally");
    assert_eq!(
        num(&remote, "mismatches"),
        0,
        "incremental == full remotely"
    );
    assert_eq!(num(&remote, "steps"), local.steps.len());
    assert_eq!(num(&remote, "checks"), local.checks);
    assert_eq!(num(&remote, "max_impact"), local.max_impact);
    assert_eq!(num(&remote, "total_reverified"), local.total_reverified);
    assert!(!flag(&remote, "timed_out"));

    let trace = remote
        .get("trace")
        .and_then(Json::as_array)
        .expect("churn trace");
    assert_eq!(trace.len(), local.steps.len());
    for (i, (entry, step)) in trace.iter().zip(&local.steps).enumerate() {
        assert_eq!(
            entry.get("kind").and_then(Json::as_str),
            Some(step.mutation.kind()),
            "step {i}: mutation kind"
        );
        assert_eq!(num(entry, "impact"), step.impact, "step {i}: impact");
        assert_eq!(
            num(entry, "reverified"),
            step.reverified,
            "step {i}: reverified"
        );
        assert_eq!(flag(entry, "accepted"), step.accepted, "step {i}: verdict");
        assert_eq!(
            opt_usize(entry, "witness"),
            step.witness,
            "step {i}: witness"
        );
        let matched = match entry.get("matched_full") {
            None | Some(Json::Null) => None,
            Some(v) => v.as_bool(),
        };
        assert_eq!(matched, step.matched_full, "step {i}: cross-check");
    }
}

#[test]
fn mutate_stream_tracks_a_local_twin() {
    let coord = coord(32, 11);
    let handle = Server::bind(ServerConfig::default())
        .expect("bind")
        .spawn()
        .expect("spawn");
    let mut client = Client::connect(handle.addr()).expect("connect");
    client.session_open(&coord).expect("session-open");

    let mut twin = local_twin(&coord);
    twin.reverify();

    let stream = [
        WireMutation::EdgeInsert(0, 2),
        WireMutation::ProofRewrite(5, parse_bits("1").unwrap()),
        WireMutation::NodeLabelChange(3, WireLabel::Unit),
        WireMutation::EdgeDelete(0, 2),
        WireMutation::ProofRewrite(5, parse_bits("0").unwrap()),
    ];
    for (i, wire) in stream.iter().enumerate() {
        let remote = client.mutate(wire).expect("mutate");
        let (mut impact, outcome) = match wire {
            WireMutation::EdgeInsert(u, v) => {
                let a = twin.apply_verified(&Mutation::EdgeInsert(*u, *v)).unwrap();
                (a.impact, a.outcome)
            }
            WireMutation::EdgeDelete(u, v) => {
                let a = twin.apply_verified(&Mutation::EdgeDelete(*u, *v)).unwrap();
                (a.impact, a.outcome)
            }
            WireMutation::ProofRewrite(v, bits) => {
                let a = twin
                    .apply_verified(&Mutation::ProofRewrite(*v, bits.clone()))
                    .unwrap();
                (a.impact, a.outcome)
            }
            WireMutation::NodeLabelChange(v, WireLabel::Unit) => {
                let impact = twin.set_node_label(*v, ()).unwrap();
                let outcome = twin.reverify();
                (impact, outcome)
            }
            WireMutation::NodeLabelChange(..) => unreachable!("bipartite nodes are unit-labeled"),
        };
        impact.sort_unstable();
        assert_eq!(
            remote.get("kind").and_then(Json::as_str),
            Some(wire.kind()),
            "mutation {i}: kind"
        );
        let remote_impact: Vec<usize> = remote
            .get("impact")
            .and_then(Json::as_array)
            .expect("impact array")
            .iter()
            .map(|v| v.as_usize().expect("impact node"))
            .collect();
        assert_eq!(remote_impact, impact, "mutation {i}: impact set");
        assert_eq!(
            flag(&remote, "accepted"),
            outcome.accepted,
            "mutation {i}: verdict"
        );
        assert_eq!(
            opt_usize(&remote, "witness"),
            outcome.witness,
            "mutation {i}: witness"
        );
        assert_eq!(
            num(&remote, "reverified"),
            outcome.reverified,
            "mutation {i}: work"
        );
    }

    // A refused mutation is a typed error on both sides, and the
    // session survives it.
    let refused = client
        .mutate(&WireMutation::EdgeDelete(0, 2))
        .expect_err("deleting an absent edge");
    assert_eq!(refused.kind(), Some("mutation"));
    assert!(twin.apply_verified(&Mutation::EdgeDelete(0, 2)).is_err());

    let closed = client.session_close().expect("session-close");
    assert_eq!(
        closed.get("mutations").and_then(Json::as_usize),
        Some(twin.log().len()),
        "server log length matches the twin's"
    );
    handle.stop().expect("clean drain");
}
