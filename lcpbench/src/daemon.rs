//! The daemon under test, run as a child process.
//!
//! The benchmark binary re-executes itself as `lcpbench daemon ...`,
//! which serves `lcp_serve::Server` exactly as the `lcp-serve` binary
//! does. A separate process keeps the daemon's memory, metric registry
//! and thread pool apart from the load generator's.

use crate::util::peak_rss_mb;
use lcp_serve::{Client, Server, ServerConfig};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Daemon options as passed on the child's command line.
#[derive(Clone, Debug)]
pub struct DaemonOpts {
    pub workers: usize,
    pub capacity: usize,
    pub preload: Option<PathBuf>,
}

/// The `daemon` subcommand: serve until a `shutdown` request.
pub fn serve_main(args: &[String]) -> ExitCode {
    let mut config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    };
    let mut port_file = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            eprintln!("lcpbench daemon: {flag} needs a value");
            return ExitCode::from(2);
        };
        let parsed = value.parse::<usize>();
        match (flag.as_str(), parsed) {
            ("--workers", Ok(v)) => config.workers = v,
            ("--capacity", Ok(v)) => config.capacity = v,
            ("--preload", _) => config.preload = Some(PathBuf::from(value)),
            ("--port-file", _) => port_file = Some(PathBuf::from(value)),
            _ => {
                eprintln!("lcpbench daemon: bad argument {flag} {value}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(port_file) = port_file else {
        eprintln!("lcpbench daemon: --port-file is required");
        return ExitCode::from(2);
    };
    let server = match Server::bind(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("lcpbench daemon: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Written to a temporary name and renamed, so the parent never
    // reads a half-written address.
    let announced = server.local_addr().and_then(|addr| {
        let tmp = port_file.with_extension("tmp");
        std::fs::write(&tmp, addr.to_string())?;
        std::fs::rename(&tmp, &port_file)
    });
    if let Err(e) = announced {
        eprintln!("lcpbench daemon: cannot announce the address: {e}");
        return ExitCode::FAILURE;
    }
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("lcpbench daemon: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A running daemon child. Dropping it kills and reaps the process;
/// [`Daemon::stop`] asks it to drain first.
pub struct Daemon {
    child: Option<Child>,
    addr: String,
}

impl Daemon {
    /// Starts a daemon and waits until it listens. `dir` holds the port
    /// file.
    pub fn start(dir: &Path, opts: &DaemonOpts) -> Result<Daemon, String> {
        let port_file = dir.join(format!("port-{}", next_id()));
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.arg("daemon")
            .args(["--workers", &opts.workers.to_string()])
            .args(["--capacity", &opts.capacity.to_string()])
            .arg("--port-file")
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null());
        if let Some(dir) = &opts.preload {
            cmd.arg("--preload").arg(dir);
        }
        let child = cmd.spawn().map_err(|e| format!("spawn daemon: {e}"))?;
        let mut daemon = Daemon {
            child: Some(child),
            addr: String::new(),
        };
        let started = Instant::now();
        loop {
            if let Ok(addr) = std::fs::read_to_string(&port_file) {
                daemon.addr = addr;
                let _ = std::fs::remove_file(&port_file);
                return Ok(daemon);
            }
            let child = daemon.child.as_mut().expect("child present until stop");
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!("daemon exited before listening: {status}"));
            }
            if started.elapsed() > Duration::from_secs(30) {
                return Err("daemon did not listen within 30 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }

    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(self.addr.as_str()).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// Peak resident set size of the daemon process so far, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.child
            .as_ref()
            .map_or(f64::NAN, |c| peak_rss_mb(c.id()))
    }

    /// Sends `shutdown` and waits for the process to exit.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = self
            .connect()
            .and_then(|mut c| c.shutdown().map_err(|e| format!("shutdown: {e}")));
        let mut child = self.child.take().expect("child present until stop");
        if let Err(e) = asked {
            let _ = child.kill();
            let _ = child.wait();
            return Err(e);
        }
        let status = child.wait().map_err(|e| format!("wait daemon: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn next_id() -> usize {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}
