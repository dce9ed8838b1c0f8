//! Frame-level fuzzing of the connection loop: seeded byte streams —
//! random length-prefixed payloads, raw bytes, and valid requests with
//! edits applied — go through one worker, one connection each. After
//! every stream the worker must still serve: a `stats` request on a
//! fresh connection answers within a deadline, and the bad-request
//! counter never moves backwards. At the end the daemon drains.

use lcp_core::json::Json;
use lcp_graph::families::GraphFamily;
use lcp_schemes::registry::Polarity;
use lcp_serve::protocol::{read_frame, write_frame};
use lcp_serve::{CellCoord, Server, ServerConfig, WireMutation};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const STREAMS: usize = 400;
const ANSWER_WITHIN: Duration = Duration::from_secs(15);
/// Values a hostile client splices into a request's numbers.
const INSERTED: [&str; 4] = ["-1", "1e400", "18446744073709551615", "null"];

/// Valid request payloads over small cells, so any edit stays cheap.
fn templates() -> Vec<String> {
    let coord = |polarity| CellCoord {
        scheme: "bipartite".into(),
        family: GraphFamily::Cycle,
        n: 12,
        seed: 7,
        polarity,
    };
    let (yes, no) = (
        coord(Polarity::Yes).render_fields(),
        coord(Polarity::No).render_fields(),
    );
    vec![
        format!("{{\"op\":\"prepare\",{yes}}}"),
        format!("{{\"op\":\"verify\",{yes},\"budget_ms\":500}}"),
        format!(
            "{{\"op\":\"verify\",{no},\"budget_ms\":500,\"iterations\":32,\"size_budget\":4,\"seed\":3}}"
        ),
        format!("{{\"op\":\"tamper-probe\",{yes},\"trials\":8,\"seed\":3}}"),
        "{\"op\":\"stats\"}".into(),
        "{\"op\":\"metrics\"}".into(),
        format!("{{\"op\":\"session-open\",{yes}}}"),
        format!(
            "{{\"op\":\"mutate\",{}}}",
            WireMutation::EdgeInsert(0, 2).render_fields()
        ),
        format!(
            "{{\"op\":\"mutate\",{}}}",
            WireMutation::EdgeDelete(0, 1).render_fields()
        ),
        "{\"op\":\"churn\",\"seed\":5,\"steps\":8,\"check_every\":1}".into(),
        "{\"op\":\"session-close\"}".into(),
    ]
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = (payload.len() as u32).to_be_bytes().to_vec();
    out.extend_from_slice(payload);
    out
}

fn random_bytes(rng: &mut StdRng, max: usize) -> Vec<u8> {
    let len = rng.random_range(0..=max);
    (0..len).map(|_| rng.random_range(0..=255u8)).collect()
}

/// One random edit: a byte flip, a deletion, a truncation, a swap, or
/// an inserted value (spliced in, or replacing a run of digits).
fn edit(bytes: &mut Vec<u8>, rng: &mut StdRng) {
    if bytes.is_empty() {
        return;
    }
    let at = rng.random_range(0..bytes.len());
    match rng.random_range(0..5u32) {
        0 => bytes[at] ^= 1 << rng.random_range(0..8u32),
        1 => {
            let end = (at + rng.random_range(1..=4usize)).min(bytes.len());
            bytes.drain(at..end);
        }
        2 => bytes.truncate(at),
        3 => {
            let other = rng.random_range(0..bytes.len());
            bytes.swap(at, other);
        }
        _ => {
            let value = INSERTED[rng.random_range(0..INSERTED.len())].as_bytes();
            let digits: Vec<usize> = (0..bytes.len())
                .filter(|&i| bytes[i].is_ascii_digit())
                .collect();
            if digits.is_empty() || rng.random_bool(0.5) {
                bytes.splice(at..at, value.iter().copied());
            } else {
                let start = digits[rng.random_range(0..digits.len())];
                let end = (start..bytes.len())
                    .find(|&i| !bytes[i].is_ascii_digit())
                    .unwrap_or(bytes.len());
                bytes.splice(start..end, value.iter().copied());
            }
        }
    }
}

/// One seeded byte stream for one connection.
fn stream(rng: &mut StdRng, templates: &[String]) -> Vec<u8> {
    match rng.random_range(0..3u32) {
        // Random length-prefixed payloads.
        0 => (0..rng.random_range(1..=3usize))
            .flat_map(|_| frame(&random_bytes(rng, 64)))
            .collect(),
        // Raw bytes, length prefix included.
        1 => random_bytes(rng, 96),
        // Valid requests with edits, some also edited at the frame level.
        _ => {
            let mut out = Vec::new();
            for _ in 0..rng.random_range(1..=4usize) {
                let mut payload = templates[rng.random_range(0..templates.len())]
                    .as_bytes()
                    .to_vec();
                for _ in 0..rng.random_range(0..=3usize) {
                    edit(&mut payload, rng);
                }
                out.extend(frame(&payload));
            }
            if rng.random_bool(0.2) {
                edit(&mut out, rng);
            }
            out
        }
    }
}

/// Writes `bytes`, closes the write half and drains every reply. The
/// daemon may hang up early (an oversized or broken frame drops the
/// connection), so write and read errors just end the stream. When the
/// replies arrive whole, each is a response object, and each error
/// names its kind.
fn send(addr: SocketAddr, bytes: &[u8]) {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(ANSWER_WITHIN)).unwrap();
    let _ = conn.write_all(bytes);
    let _ = conn.shutdown(Shutdown::Write);
    let mut sink = Vec::new();
    if let Err(e) = conn.read_to_end(&mut sink) {
        assert!(
            !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
            "no end of replies within {ANSWER_WITHIN:?}"
        );
        return;
    }
    let mut replies = &sink[..];
    while let Some(reply) = read_frame(&mut replies, &|| false).expect("whole reply frames") {
        let doc = Json::parse(&reply).expect("reply is JSON");
        match doc.get("ok").and_then(Json::as_bool) {
            Some(true) => {}
            Some(false) => assert!(
                doc.get("error").and_then(Json::as_str).is_some(),
                "untyped error: {reply}"
            ),
            None => panic!("reply without \"ok\": {reply}"),
        }
    }
}

/// Sends one request on `conn` and returns its reply, failing the test
/// when none arrives within [`ANSWER_WITHIN`].
fn ask(conn: &mut TcpStream, payload: &str) -> Json {
    write_frame(conn, payload).expect("request written");
    let started = Instant::now();
    let reply = read_frame(conn, &|| started.elapsed() > ANSWER_WITHIN)
        .expect("reply read")
        .unwrap_or_else(|| panic!("no reply to {payload} within {ANSWER_WITHIN:?}"));
    Json::parse(&reply).expect("reply is JSON")
}

/// The worker still serves: `stats` answers on a fresh connection.
/// Returns the bad-request counter from the metrics export.
fn bad_requests(addr: SocketAddr) -> u64 {
    let mut conn = TcpStream::connect(addr).expect("connect");
    // Nagle off: a frame is written as prefix and payload.
    conn.set_nodelay(true).unwrap();
    conn.set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    let stats = ask(&mut conn, "{\"op\":\"stats\"}");
    assert_eq!(stats.get("ok").and_then(Json::as_bool), Some(true));
    let metrics = ask(&mut conn, "{\"op\":\"metrics\"}");
    let body = metrics.get("body").and_then(Json::as_str).expect("body");
    body.lines()
        .find_map(|line| line.strip_prefix("lcp_serve_bad_requests_total "))
        .and_then(|v| v.trim().parse().ok())
        .expect("lcp_serve_bad_requests_total exported")
}

#[test]
fn fuzzed_byte_streams_never_take_the_worker_down() {
    let handle = Server::bind(ServerConfig {
        workers: 1,
        capacity: 4,
        ..ServerConfig::default()
    })
    .expect("bind")
    .spawn()
    .expect("spawn");
    let addr = handle.addr();
    let templates = templates();
    let mut rng = StdRng::seed_from_u64(7);
    let first = bad_requests(addr);
    let (mut last, mut sent) = (first, 0);
    for i in 0..STREAMS {
        let bytes = stream(&mut rng, &templates);
        if bytes.windows(8).any(|w| w == b"shutdown") {
            continue;
        }
        send(addr, &bytes);
        sent += 1;
        let now = bad_requests(addr);
        assert!(
            now >= last,
            "stream {i}: bad requests fell from {last} to {now}"
        );
        last = now;
    }
    assert!(sent > STREAMS / 2, "only {sent} streams were sent");
    assert!(last > first, "no stream was answered as a bad request");
    handle.stop().expect("the daemon drains");
}
