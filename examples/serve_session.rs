//! Drive the `lcp-serve` daemon end to end: spawn it on an ephemeral
//! port, warm a cell, open a churn session, stream mutations, and read
//! the incremental verdict after each one.
//!
//! ```sh
//! cargo run --example serve_session
//! ```

use lcp::graph::families::GraphFamily;
use lcp::schemes::registry::Polarity;
use lcp_serve::protocol::parse_bits;
use lcp_serve::{CellCoord, Client, Server, ServerConfig, WireLabel, WireMutation};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Spawn the daemon in-process on an ephemeral loopback port — the
    // same `Server` the `lcp-serve` binary wraps.
    let handle = Server::bind(ServerConfig::default())?.spawn()?;
    println!("daemon listening on {}", handle.addr());

    let mut client = Client::connect(handle.addr())?;
    let coord = CellCoord {
        scheme: "bipartite".into(),
        family: GraphFamily::Cycle,
        n: 100,
        seed: 7,
        polarity: Polarity::Yes,
    };

    // Warm the cell: registry build + skeleton BFS, paid once.
    let prepared = client.prepare(&coord)?;
    println!("prepared: {prepared:?}");

    // A resident verify runs on the skeleton core the cell kept at
    // prepare (stats proves it: the hit and miss counters stay put).
    let verdict = client.verify(&coord, Some(5_000))?;
    println!("verify:   {verdict:?}");
    println!("stats:    {:?}", client.stats()?);

    // Open a session — a private mutable copy of the resident cell —
    // and stream mutations; each answer is the incremental verdict.
    let opened = client.session_open(&coord)?;
    println!("session:  {opened:?}");
    let mutations = [
        // A chord between two same-colour nodes: both endpoints see a
        // monochromatic edge → rejected, having re-run only 2 nodes.
        WireMutation::EdgeInsert(0, 2),
        // Remove it again: accepted, and only the dirty ball re-ran.
        WireMutation::EdgeDelete(0, 2),
        // Scribble over one node's proof bits: its neighbourhood alarms.
        WireMutation::ProofRewrite(5, parse_bits("0")?),
        // Restore the 2-colouring bit (node 5 is odd → colour 1).
        WireMutation::ProofRewrite(5, parse_bits("1")?),
        // Touch a (unit) node label: dirties the ball, stays accepted.
        WireMutation::NodeLabelChange(8, WireLabel::Unit),
    ];
    for m in &mutations {
        let outcome = client.mutate(m)?;
        println!("mutate {:<17} -> {outcome:?}", m.kind());
    }

    // A seeded server-side churn burst, cross-checked against full
    // evaluation on the final step; `mismatches` must be 0.
    let churn = client.churn(21, 16, 4)?;
    println!(
        "churn:    steps={:?} mismatches={:?} max_impact={:?}",
        churn.get("steps"),
        churn.get("mismatches"),
        churn.get("max_impact"),
    );

    let closed = client.session_close()?;
    println!("closed:   {closed:?}");

    handle.stop()?;
    println!("daemon drained");
    Ok(())
}
