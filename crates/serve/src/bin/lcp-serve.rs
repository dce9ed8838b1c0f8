//! The `lcp-serve` daemon binary.
//!
//! ```text
//! lcp-serve [--addr HOST:PORT] [--workers N] [--queue N] [--capacity N]
//!           [--preload DIR] [--port-file PATH]
//! lcp-serve --client-smoke ADDR
//! ```
//!
//! `--preload DIR` attaches a persistent artifact directory
//! (`docs/FORMAT.md`): skeleton cores are mapped back from disk across
//! daemon restarts instead of being rebuilt, and fresh builds are
//! persisted for the next process. The `stats` op reports how many
//! resident cells were served each way.
//!
//! The daemon serves the protocol of `docs/PROTOCOL.md` until it
//! receives SIGTERM/SIGINT or a `shutdown` request, then drains: the
//! request in flight on each connection is answered, every connection
//! is closed, and the process exits 0 after printing
//! `lcp-serve: drained and stopped`. `--port-file` writes the bound
//! address (e.g. `127.0.0.1:45123`) once listening, so scripts binding
//! port 0 can find the daemon.
//!
//! `--client-smoke ADDR` runs a tiny over-TCP exercise against an
//! already-running daemon instead (prepare → verify → session → two
//! mutations → close, with `metrics` scrapes asserting nonzero request
//! counters, zero skeleton rebuilds and at most one prover run across
//! two resident verifies) —
//! the CI serve-smoke job's client half.

use lcp_graph::families::GraphFamily;
use lcp_schemes::registry::Polarity;
use lcp_serve::protocol::CellCoord;
use lcp_serve::{Client, Server, ServerConfig, WireMutation};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

const USAGE: &str = "usage: lcp-serve [--addr HOST:PORT] [--workers N] [--queue N] \
[--capacity N] [--preload DIR] [--port-file PATH] | lcp-serve --client-smoke ADDR";

/// Process-wide signal flag: the handler may only do async-signal-safe
/// work, so it stores one atomic and the main thread polls it.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    SIGNALLED.store(true, Ordering::Relaxed);
}

fn install_signal_handlers() {
    // SIGTERM = 15, SIGINT = 2 on every platform this workspace
    // targets; `signal` comes from the libc std already links.
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    unsafe {
        signal(15, on_signal);
        signal(2, on_signal);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = ServerConfig::default();
    let mut port_file: Option<String> = None;
    let mut client_smoke: Option<String> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        let result: Result<(), String> = match arg.as_str() {
            "--addr" => value("--addr").map(|v| config.addr = v),
            "--workers" => parse_usize(&mut value, "--workers").map(|v| config.workers = v),
            "--queue" => parse_usize(&mut value, "--queue").map(|v| config.queue = v),
            "--capacity" => parse_usize(&mut value, "--capacity").map(|v| config.capacity = v),
            "--preload" => {
                value("--preload").map(|v| config.preload = Some(std::path::PathBuf::from(v)))
            }
            "--port-file" => value("--port-file").map(|v| port_file = Some(v)),
            "--client-smoke" => value("--client-smoke").map(|v| client_smoke = Some(v)),
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => Err(format!("unknown argument {other:?}")),
        };
        if let Err(msg) = result {
            eprintln!("lcp-serve: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    }

    if let Some(addr) = client_smoke {
        return run_client_smoke(&addr);
    }

    install_signal_handlers();
    let server = match Server::bind(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("lcp-serve: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = match server.local_addr() {
        Ok(addr) => addr,
        Err(e) => {
            eprintln!("lcp-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = port_file {
        if let Err(e) = std::fs::write(&path, addr.to_string()) {
            eprintln!("lcp-serve: cannot write port file {path:?}: {e}");
            return ExitCode::FAILURE;
        }
    }
    eprintln!("lcp-serve: listening on {addr}");

    let shutdown = server.shutdown_handle();
    let watcher = std::thread::spawn(move || {
        // Forward the signal flag to the server's drain flag; exit once
        // either side initiated shutdown (a `shutdown` request sets the
        // drain flag directly).
        loop {
            if SIGNALLED.load(Ordering::Relaxed) {
                shutdown.store(true, Ordering::Relaxed);
                return;
            }
            if shutdown.load(Ordering::Relaxed) {
                return;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    });

    let outcome = server.run();
    watcher.join().expect("signal watcher panicked");
    match outcome {
        Ok(()) => {
            eprintln!("lcp-serve: drained and stopped");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("lcp-serve: accept loop failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Reads one sample value out of a Prometheus-style text export:
/// `series` is the full key (`name` or `name{labels}`), the value the
/// integer after the space.
fn prom_value(text: &str, series: &str) -> Option<i64> {
    text.lines()
        .find_map(|line| line.strip_prefix(series)?.strip_prefix(' '))
        .and_then(|v| v.trim().parse().ok())
}

fn parse_usize(
    value: &mut impl FnMut(&str) -> Result<String, String>,
    name: &str,
) -> Result<usize, String> {
    value(name)?
        .parse()
        .map_err(|_| format!("{name} needs an unsigned integer"))
}

/// The CI client half: exercise the daemon over real TCP and leave a
/// session open long enough for the drain path to matter.
fn run_client_smoke(addr: &str) -> ExitCode {
    let coord = CellCoord {
        scheme: "bipartite".into(),
        family: GraphFamily::Cycle,
        n: 256,
        seed: 11,
        polarity: Polarity::Yes,
    };
    let run = || -> Result<(), Box<dyn std::error::Error>> {
        let mut client = Client::connect(addr)?;
        client.prepare(&coord)?;
        // Resident verifies must be pure reuse: the skeleton-miss count
        // (= skeleton builds) may not move across them, and the prover
        // runs at most once — the first verify fills the cell's proof.
        let scrape = |client: &mut Client, series: &str| -> Result<i64, String> {
            let text = client.metrics_text().map_err(|e| e.to_string())?;
            prom_value(&text, series).ok_or(format!("{series} missing from the metrics export"))
        };
        let misses_before = scrape(&mut client, "lcp_serve_skeleton_misses")?;
        let proves_before = scrape(&mut client, "lcp_engine_proves_total")?;
        client.verify(&coord, Some(5_000))?;
        client.verify(&coord, Some(5_000))?;
        let misses_after = scrape(&mut client, "lcp_serve_skeleton_misses")?;
        let proves_after = scrape(&mut client, "lcp_engine_proves_total")?;
        if misses_after != misses_before {
            return Err(format!(
                "resident verify rebuilt skeletons ({misses_before} -> {misses_after} misses)"
            )
            .into());
        }
        let proves = proves_after - proves_before;
        if proves > 1 {
            return Err(format!("two resident verifies ran the prover {proves} times").into());
        }
        client.session_open(&coord)?;
        client.mutate(&WireMutation::EdgeInsert(0, 2))?;
        client.mutate(&WireMutation::EdgeDelete(0, 2))?;
        let closed = client.session_close()?;
        let mutations = closed
            .get("mutations")
            .and_then(lcp_core::json::Json::as_u64)
            .unwrap_or(0);
        let text = client.metrics_text()?;
        for series in [
            "lcp_serve_requests_total{op=\"prepare\"}",
            "lcp_serve_requests_total{op=\"verify\"}",
            "lcp_serve_requests_total{op=\"mutate\"}",
            "lcp_serve_requests_total{op=\"metrics\"}",
        ] {
            if prom_value(&text, series).unwrap_or(0) == 0 {
                return Err(format!("{series} is zero after the smoke workload").into());
            }
        }
        println!("client-smoke: ok ({mutations} mutations applied)");
        println!(
            "client-smoke: metrics ok (skeleton rebuilds across resident verifies: 0, prover runs: {proves})"
        );
        Ok(())
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("lcp-serve: client smoke failed: {e}");
            ExitCode::FAILURE
        }
    }
}
