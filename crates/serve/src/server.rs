//! The daemon: a bounded worker pool serving framed requests over TCP.
//!
//! ## Concurrency model
//!
//! Connections are the unit of work: the acceptor pushes each accepted
//! socket into a bounded waiting room, and each of `workers` threads
//! serves one connection at a time, request by request, until the
//! client closes. This keeps sessions trivially race-free — a session's
//! `DynamicInstance` lives on the stack of the worker serving its
//! connection — at the cost of capping concurrent connections at the
//! worker count.
//!
//! **Backpressure is a response, never a hang**: when every worker is
//! occupied and the waiting room is full, the acceptor itself writes a
//! typed [`ERR_BUSY`] frame and closes the
//! socket, so a saturated daemon answers in microseconds instead of
//! queueing unboundedly.
//!
//! ## Shutdown
//!
//! A `shutdown` request (or the binary's SIGTERM handler) sets one
//! shared flag. The acceptor stops accepting; each worker finishes the
//! request it is currently serving — an in-flight frame is always read
//! to completion and answered — then closes its connection and exits.
//! Connections still in the waiting room are closed without a response.

use crate::metrics;
use crate::protocol::{
    read_frame, write_frame, ProtoError, Request, WireLabel, WireMutation, ERR_BUSY, ERR_DEADLINE,
    ERR_INAPPLICABLE, ERR_LABEL_TYPE, ERR_MUTATION, ERR_NO_SESSION, ERR_SESSION_ACTIVE,
};
use crate::table::InstanceTable;
use lcp_core::harness::CompletenessError;
use lcp_core::json::escape;
use lcp_core::{CellMutationError, Deadline};
use lcp_dynamic::churn::{run_churn_within, ChurnConfig};
use lcp_dynamic::{Applied, DynamicInstance, Mutation};
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Tuning knobs of a [`Server`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Address to bind (`"127.0.0.1:0"` picks an ephemeral port).
    pub addr: String,
    /// Worker threads — the number of concurrently served connections.
    pub workers: usize,
    /// Waiting-room size: accepted connections allowed to wait for a
    /// worker. One more connection than `workers + queue` gets the
    /// typed busy error.
    pub queue: usize,
    /// Instance-table capacity (resident cells before LRU eviction).
    pub capacity: usize,
    /// Artifact directory to preload skeleton cores from (and persist
    /// fresh builds into) — `--preload <dir>` on the binary. `None`
    /// keeps cores purely in-process.
    pub preload: Option<std::path::PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue: 16,
            capacity: 64,
            preload: None,
        }
    }
}

/// A bound, not-yet-running daemon. [`Server::run`] blocks the calling
/// thread; [`Server::spawn`] runs it on a background thread and hands
/// back a [`ServerHandle`].
pub struct Server {
    listener: TcpListener,
    table: Arc<InstanceTable>,
    shutdown: Arc<AtomicBool>,
    config: ServerConfig,
}

/// A running daemon on a background thread (see [`Server::spawn`]).
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: thread::JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// The bound address (with the real port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared shutdown flag; storing `true` drains the daemon.
    pub fn shutdown_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Requests shutdown and waits for the drain to finish.
    ///
    /// # Errors
    ///
    /// Propagates the run loop's I/O error, if any.
    pub fn stop(self) -> io::Result<()> {
        self.shutdown.store(true, Ordering::Relaxed);
        self.thread.join().expect("server thread panicked")
    }
}

/// The waiting room between the acceptor and the workers.
struct WorkQueue {
    conns: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
}

impl Server {
    /// Binds `config.addr` and prepares an empty instance table.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let table = match &config.preload {
            Some(dir) => {
                // An unusable preload dir is a startup error, not a
                // degraded mode: the operator asked for durable cores.
                let store = lcp_core::ArtifactStore::open(dir)
                    .map_err(|e| io::Error::other(format!("--preload {}: {e}", dir.display())))?;
                InstanceTable::with_source(
                    config.capacity,
                    lcp_core::ArtifactSource::MappedDir(Arc::new(store)),
                )
            }
            None => InstanceTable::new(config.capacity),
        };
        Ok(Server {
            listener,
            table: Arc::new(table),
            shutdown: Arc::new(AtomicBool::new(false)),
            config,
        })
    }

    /// The bound address.
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared shutdown flag (for signal handlers and tests).
    pub fn shutdown_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// The instance table (for white-box assertions in tests).
    pub fn table(&self) -> Arc<InstanceTable> {
        Arc::clone(&self.table)
    }

    /// Runs the accept loop until the shutdown flag is set, then drains:
    /// workers finish their in-flight request and exit.
    ///
    /// # Errors
    ///
    /// Propagates fatal listener errors (per-connection errors only end
    /// that connection).
    pub fn run(self) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let queue = Arc::new(WorkQueue {
            conns: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
        });
        let workers: Vec<_> = (0..self.config.workers.max(1))
            .map(|_| {
                let queue = Arc::clone(&queue);
                let table = Arc::clone(&self.table);
                let shutdown = Arc::clone(&self.shutdown);
                thread::spawn(move || worker_loop(&queue, &table, &shutdown))
            })
            .collect();

        while !self.shutdown.load(Ordering::Relaxed) {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let mut conns = queue.conns.lock().expect("queue lock");
                    if conns.len() >= self.config.queue.max(1) {
                        drop(conns);
                        // Backpressure: answer immediately, never hang.
                        metrics::BUSY_REJECTIONS.inc();
                        let mut stream = stream;
                        let busy = ProtoError::new(
                            ERR_BUSY,
                            "all workers occupied and the waiting room is full; retry later",
                        );
                        let _ = write_frame(&mut stream, &busy.render());
                    } else {
                        conns.push_back(stream);
                        metrics::QUEUE_DEPTH.set(conns.len() as i64);
                        drop(conns);
                        queue.ready.notify_one();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(5));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }

        let drain_started = Instant::now();
        queue.ready.notify_all();
        for worker in workers {
            worker.join().expect("worker thread panicked");
        }
        metrics::DRAIN_MS.set(drain_started.elapsed().as_millis().min(i64::MAX as u128) as i64);
        Ok(())
    }

    /// Runs the daemon on a background thread.
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let shutdown = self.shutdown_handle();
        let thread = thread::spawn(move || self.run());
        Ok(ServerHandle {
            addr,
            shutdown,
            thread,
        })
    }
}

/// Pops connections until shutdown is flagged and the room is empty.
fn worker_loop(queue: &WorkQueue, table: &InstanceTable, shutdown: &AtomicBool) {
    loop {
        let conn = {
            let mut conns = queue.conns.lock().expect("queue lock");
            loop {
                if let Some(conn) = conns.pop_front() {
                    metrics::QUEUE_DEPTH.set(conns.len() as i64);
                    break Some(conn);
                }
                if shutdown.load(Ordering::Relaxed) {
                    break None;
                }
                let (guard, _) = queue
                    .ready
                    .wait_timeout(conns, Duration::from_millis(50))
                    .expect("queue lock");
                conns = guard;
            }
        };
        match conn {
            Some(stream) => serve_connection(stream, table, shutdown),
            None => return,
        }
    }
}

/// The per-connection session state: a private mutable copy of one
/// resident cell under incremental verification.
struct Session {
    inst: DynamicInstance,
}

/// Serves one connection until the client closes, the stream fails, or
/// a drain closes it between requests.
fn serve_connection(mut stream: TcpStream, table: &InstanceTable, shutdown: &AtomicBool) {
    // Sub-millisecond mutate round-trips need Nagle off; the drain poll
    // needs a read timeout (WouldBlock re-polls the shutdown flag).
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(25)));
    metrics::CONNECTIONS.inc();
    let mut session: Option<Session> = None;
    let stop = || shutdown.load(Ordering::Relaxed);
    loop {
        // Checked between requests (not mid-frame): a drain answers the
        // in-flight request, then closes — even against a client that
        // keeps frames coming.
        if stop() {
            return;
        }
        let payload = match read_frame(&mut stream, &stop) {
            Ok(Some(payload)) => payload,
            Ok(None) | Err(_) => return,
        };
        // The latency window is parse + dispatch — the work the op name
        // describes — not socket I/O or the idle wait for the frame.
        let started = Instant::now();
        let response = match Request::parse(&payload) {
            Ok(request) => {
                let op = metrics::op_index(request.op());
                let result = dispatch(request, table, &mut session, shutdown);
                if result.is_err() {
                    metrics::ERROR_RESPONSES.inc();
                }
                if let Some(i) = op {
                    metrics::REQUESTS[i].inc();
                    metrics::REQUEST_NS[i]
                        .observe(started.elapsed().as_nanos().min(u64::MAX as u128) as u64);
                }
                result.unwrap_or_else(|e| e.render())
            }
            Err(e) => {
                metrics::BAD_REQUESTS.inc();
                e.render()
            }
        };
        if write_frame(&mut stream, &response).is_err() {
            return;
        }
    }
}

/// Executes one request against the table and the connection session.
fn dispatch(
    request: Request,
    table: &InstanceTable,
    session: &mut Option<Session>,
    shutdown: &AtomicBool,
) -> Result<String, ProtoError> {
    match request {
        Request::Prepare(coord) => {
            let cell = table.get_or_load(&coord)?;
            let stats = table.stats();
            Ok(format!(
                "{{\"ok\":true,\"op\":\"prepare\",\"scheme\":{},\"n\":{},\"radius\":{},\"holds\":{},\"resident\":{}}}",
                escape(cell.name()),
                cell.n(),
                cell.radius(),
                cell.holds(),
                stats.resident
            ))
        }
        Request::Verify {
            coord,
            budget_ms,
            iterations,
            size_budget,
            seed,
        } => {
            let cell = table.get_or_load(&coord)?;
            let deadline = to_deadline(budget_ms);
            if cell.holds() {
                match cell.check_completeness_within(&deadline) {
                    Ok(max_bits) => Ok(verify_response(
                        "completeness",
                        true,
                        &[],
                        &format!(",\"max_proof_bits\":{}", render_opt(max_bits)),
                    )),
                    Err(CompletenessError::Rejected(nodes)) => {
                        Ok(verify_response("completeness", false, &nodes, ""))
                    }
                    Err(CompletenessError::DeadlineExpired) => Err(ProtoError::new(
                        ERR_DEADLINE,
                        "budget expired before the completeness sweep finished",
                    )),
                    Err(e) => Ok(verify_response(
                        "completeness",
                        false,
                        &[],
                        &format!(",\"detail\":{}", escape(&e.to_string())),
                    )),
                }
            } else {
                let forged =
                    cell.adversarial_search_within(size_budget, iterations, seed, &deadline);
                if forged.is_none() && deadline.expired() {
                    return Err(ProtoError::new(
                        ERR_DEADLINE,
                        "budget expired before the soundness probe finished",
                    ));
                }
                Ok(verify_response(
                    "soundness-probe",
                    forged.is_none(),
                    &[],
                    &format!(",\"violation\":{}", forged.is_some()),
                ))
            }
        }
        Request::TamperProbe {
            coord,
            trials,
            seed,
        } => {
            let cell = table.get_or_load(&coord)?;
            match cell.tamper_probe(trials, seed) {
                Some(p) => Ok(format!(
                    "{{\"ok\":true,\"op\":\"tamper-probe\",\"trials\":{},\"detected\":{},\"undetected\":{},\"witness\":{}}}",
                    p.trials,
                    p.detected,
                    p.undetected,
                    render_opt(p.witness)
                )),
                None => Err(ProtoError::new(
                    ERR_INAPPLICABLE,
                    "nothing to probe: the prover refused or the honest proof is rejected",
                )),
            }
        }
        Request::Stats => {
            let s = table.stats();
            Ok(format!(
                "{{\"ok\":true,\"op\":\"stats\",\"resident\":{},\"capacity\":{},\"evictions\":{},\"loads\":{},\
                 \"skeletons\":{{\"len\":{},\"hits\":{},\"misses\":{}}},\
                 \"cores\":{{\"built\":{},\"cache_hit\":{},\"artifact_loaded\":{}}}}}",
                s.resident,
                s.capacity,
                s.evictions,
                s.loads,
                s.skeleton_len,
                s.skeleton_hits,
                s.skeleton_misses,
                s.cores_built,
                s.cores_cache_hits,
                s.cores_loaded
            ))
        }
        Request::Metrics => {
            // Table and skeleton counters live in the table, not in
            // statics; the scrape copies them into the export gauges.
            let text = metrics::scrape(&table.stats());
            Ok(format!(
                "{{\"ok\":true,\"op\":\"metrics\",\"format\":\"prometheus\",\"body\":{}}}",
                escape(&text)
            ))
        }
        Request::SessionOpen(coord) => {
            if session.is_some() {
                return Err(ProtoError::new(
                    ERR_SESSION_ACTIVE,
                    "this connection already has a session (close it first)",
                ));
            }
            let cell = table.get_or_load(&coord)?;
            let mut inst = DynamicInstance::from_cell(cell.dynamic_cell());
            let first = inst.reverify();
            let (n, m) = (inst.n(), inst.graph().m());
            *session = Some(Session { inst });
            Ok(format!(
                "{{\"ok\":true,\"op\":\"session-open\",\"n\":{},\"m\":{},\"holds\":{},\
                 \"accepted\":{},\"witness\":{},\"reverified\":{}}}",
                n,
                m,
                cell.holds(),
                first.accepted,
                render_opt(first.witness),
                first.reverified
            ))
        }
        Request::Mutate(wire) => {
            let sess = session
                .as_mut()
                .ok_or_else(|| ProtoError::new(ERR_NO_SESSION, "open a session first"))?;
            let kind = wire.kind();
            let applied = apply_wire(&mut sess.inst, wire).map_err(|e| match e {
                CellMutationError::LabelType => ProtoError::new(ERR_LABEL_TYPE, e.to_string()),
                other => ProtoError::new(ERR_MUTATION, other.to_string()),
            })?;
            Ok(format!(
                "{{\"ok\":true,\"op\":\"mutate\",\"kind\":{},\"impact\":{},\
                 \"accepted\":{},\"witness\":{},\"reverified\":{}}}",
                escape(kind),
                render_list(&applied.impact),
                applied.outcome.accepted,
                render_opt(applied.outcome.witness),
                applied.outcome.reverified
            ))
        }
        Request::Churn {
            seed,
            steps,
            check_every,
            budget_ms,
        } => {
            let sess = session
                .as_mut()
                .ok_or_else(|| ProtoError::new(ERR_NO_SESSION, "open a session first"))?;
            let config = ChurnConfig::new(seed);
            let run = run_churn_within(
                &mut sess.inst,
                &config,
                steps,
                check_every,
                &to_deadline(budget_ms),
            );
            let mut rendered = String::from("[");
            for (i, step) in run.steps.iter().enumerate() {
                if i > 0 {
                    rendered.push(',');
                }
                rendered.push_str(&format!(
                    "{{\"kind\":{},\"impact\":{},\"reverified\":{},\"accepted\":{},\"witness\":{},\"matched_full\":{}}}",
                    escape(step.mutation.kind()),
                    step.impact,
                    step.reverified,
                    step.accepted,
                    render_opt(step.witness),
                    match step.matched_full {
                        None => "null".to_string(),
                        Some(b) => b.to_string(),
                    }
                ));
            }
            rendered.push(']');
            Ok(format!(
                "{{\"ok\":true,\"op\":\"churn\",\"steps\":{},\"checks\":{},\"mismatches\":{},\
                 \"max_impact\":{},\"total_reverified\":{},\"timed_out\":{},\"trace\":{}}}",
                run.steps.len(),
                run.checks,
                run.mismatches,
                run.max_impact,
                run.total_reverified,
                run.timed_out,
                rendered
            ))
        }
        Request::SessionClose => {
            let sess = session
                .take()
                .ok_or_else(|| ProtoError::new(ERR_NO_SESSION, "no session to close"))?;
            Ok(format!(
                "{{\"ok\":true,\"op\":\"session-close\",\"mutations\":{}}}",
                sess.inst.log().len()
            ))
        }
        Request::Shutdown => {
            shutdown.store(true, Ordering::Relaxed);
            Ok("{\"ok\":true,\"op\":\"shutdown\"}".to_string())
        }
    }
}

/// Applies one wire mutation to the session instance, re-verifying
/// incrementally — label changes go through the typed setter, the other
/// kinds through `apply_verified`.
fn apply_wire(
    inst: &mut DynamicInstance,
    wire: WireMutation,
) -> Result<Applied, CellMutationError> {
    match wire {
        WireMutation::EdgeInsert(u, v) => inst.apply_verified(&Mutation::EdgeInsert(u, v)),
        WireMutation::EdgeDelete(u, v) => inst.apply_verified(&Mutation::EdgeDelete(u, v)),
        WireMutation::ProofRewrite(v, bits) => {
            inst.apply_verified(&Mutation::ProofRewrite(v, bits))
        }
        WireMutation::NodeLabelChange(v, label) => {
            let mut impact = match label {
                WireLabel::Unit => inst.set_node_label(v, ())?,
                WireLabel::Bool(b) => inst.set_node_label(v, b)?,
                WireLabel::U8(x) => inst.set_node_label(v, x)?,
                WireLabel::U64(x) => inst.set_node_label(v, x)?,
            };
            impact.sort_unstable();
            let outcome = inst.reverify();
            Ok(Applied { impact, outcome })
        }
    }
}

fn to_deadline(budget_ms: Option<u64>) -> Deadline {
    match budget_ms {
        Some(ms) => Deadline::after(Duration::from_millis(ms)),
        None => Deadline::none(),
    }
}

fn verify_response(check: &str, accepted: bool, witness: &[usize], extra: &str) -> String {
    format!(
        "{{\"ok\":true,\"op\":\"verify\",\"check\":{},\"accepted\":{},\"witness\":{}{}}}",
        escape(check),
        accepted,
        render_list(witness),
        extra
    )
}

fn render_opt(v: Option<usize>) -> String {
    match v {
        Some(x) => x.to_string(),
        None => "null".to_string(),
    }
}

fn render_list(xs: &[usize]) -> String {
    let mut s = String::from("[");
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&x.to_string());
    }
    s.push(']');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::CellCoord;
    use lcp_core::ArtifactSource;
    use lcp_graph::families::GraphFamily;
    use lcp_schemes::registry::Polarity;

    /// The serve benchmark's three schemes on two families, kept small.
    fn cells() -> Vec<CellCoord> {
        let mut out = Vec::new();
        for scheme in ["bipartite", "spanning-tree", "leader-election"] {
            for family in [GraphFamily::Cycle, GraphFamily::Grid] {
                out.push(CellCoord {
                    scheme: scheme.into(),
                    family,
                    n: 24,
                    seed: 7,
                    polarity: Polarity::Yes,
                });
            }
        }
        out
    }

    /// Dispatches one request payload on a fresh connection state and
    /// returns the response bytes, error frames included.
    fn ask(table: &InstanceTable, payload: &str) -> String {
        let shutdown = AtomicBool::new(false);
        let request = Request::parse(payload).expect("well-formed request");
        dispatch(request, table, &mut None, &shutdown).unwrap_or_else(|e| e.render())
    }

    #[test]
    fn resident_answers_match_freshly_sealed_cells() {
        let resident = InstanceTable::new(8);
        for cell in cells() {
            let fields = cell.render_fields();
            let requests = [
                format!("{{\"op\":\"verify\",{fields}}}"),
                format!("{{\"op\":\"tamper-probe\",{fields},\"trials\":16,\"seed\":3}}"),
                format!("{{\"op\":\"session-open\",{fields}}}"),
            ];
            // Each request's first answer from a freshly sealed cell
            // that shares nothing.
            let fresh: Vec<String> = requests
                .iter()
                .map(|r| {
                    ask(
                        &InstanceTable::with_source(1, ArtifactSource::BuildFresh),
                        r,
                    )
                })
                .collect();
            assert!(fresh[0].contains("\"accepted\":true"), "{}", fresh[0]);
            // The resident cell answers byte-identically on every round:
            // its kept proof and core never drift, and the tamper probes
            // of earlier rounds never leak into later verifies (the last
            // round's verify follows two probes and still accepts).
            for round in 0..3 {
                for (request, want) in requests.iter().zip(&fresh) {
                    assert_eq!(
                        &ask(&resident, request),
                        want,
                        "{} on {:?}, round {round}",
                        cell.scheme,
                        cell.family
                    );
                }
            }
            // A zero budget on the warm cell still expires.
            let zero = ask(
                &resident,
                &format!("{{\"op\":\"verify\",{fields},\"budget_ms\":0}}"),
            );
            assert!(zero.contains("\"error\":\"deadline\""), "{zero}");
        }
    }
}
