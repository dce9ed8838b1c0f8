//! The concurrency contract: two sessions on distinct cells progress
//! independently, a connection beyond the worker pool waits its turn in
//! the bounded room, and one past the room gets the typed busy error —
//! immediately, never a hang. A hostile request cannot take a worker
//! down with it, and a client that stalls mid-frame cannot pin one.

use lcp_core::json::Json;
use lcp_graph::families::GraphFamily;
use lcp_schemes::registry::Polarity;
use lcp_serve::protocol::{read_frame, write_frame, FRAME_STALL, MAX_FORGED_PROOF_WORDS};
use lcp_serve::{CellCoord, Client, ClientError, Server, ServerConfig, WireMutation};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

fn coord(n: usize) -> CellCoord {
    CellCoord {
        scheme: "bipartite".into(),
        family: GraphFamily::Cycle,
        n,
        seed: 7,
        polarity: Polarity::Yes,
    }
}

#[test]
fn sessions_progress_and_overload_is_a_typed_busy_error() {
    // Two workers, a one-slot waiting room: connections 1 and 2 get
    // workers, 3 waits, 4 is refused.
    let server = Server::bind(ServerConfig {
        workers: 2,
        queue: 1,
        capacity: 8,
        ..ServerConfig::default()
    })
    .expect("bind");
    let handle = server.spawn().expect("spawn");
    let addr = handle.addr();

    let mut c1 = Client::connect(addr).expect("connect c1");
    c1.session_open(&coord(24)).expect("c1 session");
    let mut c2 = Client::connect(addr).expect("connect c2");
    c2.session_open(&coord(32)).expect("c2 session");

    // Both sessions make interleaved progress on their private cells.
    c1.mutate(&WireMutation::EdgeInsert(0, 2))
        .expect("c1 mutate");
    c2.mutate(&WireMutation::EdgeInsert(1, 3))
        .expect("c2 mutate");
    c1.mutate(&WireMutation::EdgeDelete(0, 2))
        .expect("c1 mutate");
    c2.mutate(&WireMutation::EdgeDelete(1, 3))
        .expect("c2 mutate");

    // Both workers are pinned to c1/c2, so c3 lands in the waiting room
    // (kernel accept order is connection order) and c4 overflows it.
    let mut c3 = Client::connect(addr).expect("connect c3");
    let mut c4 = Client::connect(addr).expect("connect c4");
    let err = c4.read_response().expect_err("c4 must be refused");
    match err {
        ClientError::Protocol { ref kind, .. } => assert_eq!(kind, "busy"),
        other => panic!("expected the typed busy error, got {other}"),
    }

    // c3's request parks in its socket until a worker frees up...
    let waiter = std::thread::spawn(move || c3.stats());
    // ...which happens when c1 finishes.
    c1.session_close().expect("c1 close");
    drop(c1);
    waiter
        .join()
        .expect("waiter panicked")
        .expect("c3 is served after c1 departs");

    // c2 was never disturbed.
    c2.session_close().expect("c2 close");
    drop(c2);
    handle.stop().expect("clean drain");
}

#[test]
fn shutdown_request_drains_the_daemon() {
    let handle = Server::bind(ServerConfig::default())
        .expect("bind")
        .spawn()
        .expect("spawn");
    let mut client = Client::connect(handle.addr()).expect("connect");
    client.prepare(&coord(16)).expect("prepare");
    client.shutdown().expect("shutdown is acknowledged");

    // The drain closes the connection between requests; depending on
    // timing the next request observes the close on write or on read.
    match client.stats() {
        Err(ClientError::Closed | ClientError::Io(_)) => {}
        other => panic!("expected a drained connection, got {other:?}"),
    }
    handle.stop().expect("already-drained stop is clean");
}

#[test]
fn hostile_size_budget_is_a_bad_request_and_the_worker_survives() {
    // One worker: if the hostile request killed it, nothing would ever
    // answer the follow-up `stats`.
    let handle = Server::bind(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("bind")
    .spawn()
    .expect("spawn");
    let addr = handle.addr();

    // 2⁴⁰ bits per node on 65 nodes: 65 · 2³⁴ words, far past the
    // forged-proof ceiling.
    let hostile = CellCoord {
        polarity: Polarity::No,
        ..coord(65)
    };
    let size_budget: usize = 1 << 40;
    assert!(65 * size_budget.div_ceil(64) > MAX_FORGED_PROOF_WORDS);
    let mut client = Client::connect(addr).expect("connect");
    let err = client
        .request(&format!(
            "{{\"op\":\"verify\",{},\"size_budget\":{size_budget}}}",
            hostile.render_fields()
        ))
        .expect_err("a hostile size_budget must be refused");
    match err {
        ClientError::Protocol { ref kind, .. } => assert_eq!(kind, "bad-request"),
        other => panic!("expected the typed bad-request error, got {other}"),
    }
    drop(client);

    // A fresh connection is still served, within a bounded wait.
    let (tx, rx) = mpsc::channel();
    let waiter = std::thread::spawn(move || {
        let answered = Client::connect(addr).is_ok_and(|mut c| c.stats().is_ok());
        let _ = tx.send(answered);
    });
    let answered = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("stats must be answered after the hostile request");
    waiter.join().expect("stats thread panicked");
    assert!(answered, "stats failed after the hostile request");
    handle.stop().expect("clean drain");
}

/// Sends one raw request on a fresh connection and returns the parsed
/// reply. A reply that does not arrive within ten seconds fails the
/// test instead of hanging it.
fn request_within(addr: SocketAddr, payload: &str) -> Json {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set the read timeout");
    reply_within(&mut stream, payload)
}

/// [`request_within`] on an open connection, for session requests.
fn reply_within(stream: &mut TcpStream, payload: &str) -> Json {
    write_frame(stream, payload).expect("send");
    let reply = read_frame(stream, &|| true)
        .expect("read")
        .unwrap_or_else(|| panic!("no reply to {payload} within 10 s"));
    Json::parse(&reply).expect("the reply is JSON")
}

#[test]
fn hostile_cell_size_is_a_bad_request_and_the_worker_survives() {
    // One worker: a request that pinned it building a huge cell would
    // leave the follow-up `stats` unanswered.
    let handle = Server::bind(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("bind")
    .spawn()
    .expect("spawn");
    let addr = handle.addr();

    // 10¹¹ nodes would never finish building; u64::MAX would wrap the
    // bipartite builder's even rounding into a 3-node no-instance.
    for n in [u64::MAX, 100_000_000_000] {
        let reply = request_within(
            addr,
            &format!(
                "{{\"op\":\"prepare\",\"scheme\":\"bipartite\",\"family\":\"cycle\",\
                 \"n\":{n},\"seed\":1,\"polarity\":\"yes\"}}"
            ),
        );
        assert_eq!(
            reply.get("error").and_then(Json::as_str),
            Some("bad-request"),
            "n = {n}: {reply:?}"
        );
    }
    let stats = request_within(addr, "{\"op\":\"stats\"}");
    assert_eq!(
        stats.get("ok").and_then(Json::as_bool),
        Some(true),
        "{stats:?}"
    );
    handle.stop().expect("clean drain");
}

#[test]
fn hostile_work_counts_are_bad_requests_and_the_worker_survives() {
    // One worker: a request that pinned it for hours would leave every
    // later request unanswered.
    let handle = Server::bind(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("bind")
    .spawn()
    .expect("spawn");
    let addr = handle.addr();
    let huge: usize = 1 << 40;
    let yes = coord(16).render_fields();
    let no = CellCoord {
        polarity: Polarity::No,
        ..coord(17)
    }
    .render_fields();
    let refused = |reply: &Json, what: &str| {
        assert_eq!(
            reply.get("error").and_then(Json::as_str),
            Some("bad-request"),
            "{what}: {reply:?}"
        );
    };

    for (what, payload) in [
        (
            "verify iterations",
            format!("{{\"op\":\"verify\",{no},\"iterations\":{huge}}}"),
        ),
        (
            "tamper-probe trials",
            format!("{{\"op\":\"tamper-probe\",{yes},\"trials\":{huge}}}"),
        ),
    ] {
        refused(&request_within(addr, &payload), what);
    }

    let mut session = TcpStream::connect(addr).expect("connect");
    session
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set the read timeout");
    let opened = reply_within(&mut session, &format!("{{\"op\":\"session-open\",{yes}}}"));
    assert_eq!(
        opened.get("ok").and_then(Json::as_bool),
        Some(true),
        "{opened:?}"
    );
    let churn = reply_within(
        &mut session,
        &format!("{{\"op\":\"churn\",\"seed\":1,\"steps\":{huge}}}"),
    );
    refused(&churn, "churn steps");
    drop(session);

    let stats = request_within(addr, "{\"op\":\"stats\"}");
    assert_eq!(
        stats.get("ok").and_then(Json::as_bool),
        Some(true),
        "{stats:?}"
    );
    handle.stop().expect("clean drain");
}

/// Opens a connection that a worker is serving (a `stats` round-trip
/// proves it), then sends two of the four length-prefix bytes of the
/// next frame and goes silent.
fn stall_mid_frame(addr: SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set the read timeout");
    let stats = reply_within(&mut stream, "{\"op\":\"stats\"}");
    assert_eq!(
        stats.get("ok").and_then(Json::as_bool),
        Some(true),
        "{stats:?}"
    );
    stream.write_all(&[0, 0]).expect("send half a header");
    stream
}

#[test]
fn a_client_stalled_mid_frame_is_dropped_and_the_drain_finishes() {
    // One worker and a one-slot room: while the stalled client pins the
    // worker, the follow-up `stats` waits in the room.
    let handle = Server::bind(ServerConfig {
        workers: 1,
        queue: 1,
        ..ServerConfig::default()
    })
    .expect("bind")
    .spawn()
    .expect("spawn");
    let addr = handle.addr();
    let bound = FRAME_STALL + Duration::from_secs(10);

    let mut stalled = stall_mid_frame(addr);
    let (tx, rx) = mpsc::channel();
    let waiter = std::thread::spawn(move || {
        let _ = tx.send(Client::connect(addr).is_ok_and(|mut c| c.stats().is_ok()));
    });
    let answered = rx
        .recv_timeout(bound)
        .expect("stats must be answered once the stalled frame is given up");
    waiter.join().expect("stats thread panicked");
    assert!(answered, "stats failed behind the stalled client");

    // The stalled client was told why before the close.
    let reply = read_frame(&mut stalled, &|| true)
        .expect("read")
        .expect("a typed reply before the close");
    let reply = Json::parse(&reply).expect("the reply is JSON");
    assert_eq!(
        reply.get("error").and_then(Json::as_str),
        Some("bad-request"),
        "{reply:?}"
    );

    // A client that stalls mid-frame while the daemon drains cannot
    // hold the drain open. (The drain flag may also win the race with
    // the worker's read of the two bytes; the drain then closes the
    // connection between frames, and stop returns all the same.)
    let stalled = stall_mid_frame(addr);
    let (tx, rx) = mpsc::channel();
    let stopper = std::thread::spawn(move || {
        let _ = tx.send(handle.stop().is_ok());
    });
    let stopped = rx
        .recv_timeout(bound)
        .expect("stop must return while a client stalls mid-frame");
    stopper.join().expect("stop thread panicked");
    assert!(stopped, "the drain failed");
    drop(stalled);
}
