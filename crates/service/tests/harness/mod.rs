//! A reusable multi-process cluster harness for live `cc-service`
//! tests: spawn real server binaries (primary, followers, router) as
//! child processes, capture their stderr to per-node log files, kill
//! them without warning, restart them on the same WAL directory, and
//! poll for replication catch-up.
//!
//! Design points the tests rely on:
//!
//! * **No ad-hoc ports.** Every node binds `127.0.0.1:0` and the
//!   harness reads the kernel-assigned address back from the node's
//!   own `listening on <addr>` stderr line — tests never race over a
//!   hard-coded port, and any number of clusters can run in parallel.
//! * **Logs are artifacts.** Each spawn tees the child's stderr to
//!   `<root>/logs/<name>-<attempt>.log`. On success the root is
//!   removed; on panic it is kept, and because the root lives under
//!   `CC_FAULT_DIR` (when set) the CI job uploads it for post-mortem.
//! * **Kill means SIGKILL.** [`Node::kill`] gives the process no
//!   chance to flush or drain — exactly the crash the WAL's
//!   group-commit acks are supposed to survive.
//! * **Respawn is a first-class operation.** [`ClusterHarness::restart`]
//!   relaunches the same spec (same WAL directory, same flags) and
//!   re-reads the new address, which models a crashed node rejoining
//!   the cluster.

#![allow(dead_code)] // shared by several test binaries; each uses a subset

use cc_service::Client;
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Abort the whole test process if `f` does not finish in time — a
/// hung drain, a wedged child process or a leaked handler thread must
/// fail CI, not stall it.
pub fn with_watchdog(label: &'static str, limit: Duration, f: impl FnOnce()) {
    let (done_tx, done_rx) = mpsc::channel::<()>();
    std::thread::spawn(move || {
        if done_rx.recv_timeout(limit).is_err() {
            eprintln!("[{label}] did not finish within {limit:?} — leaked threads or hung drain");
            std::process::abort();
        }
    });
    f();
    let _ = done_tx.send(());
}

/// How to launch one node: a name (labels its WAL dir and log files)
/// plus the `cc-service` flags beyond the harness-owned `--addr`.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    name: String,
    args: Vec<String>,
    envs: Vec<(String, String)>,
}

impl NodeSpec {
    /// A spec named `name` with no flags yet.
    pub fn new(name: impl Into<String>) -> Self {
        NodeSpec { name: name.into(), args: Vec::new(), envs: Vec::new() }
    }

    /// Append one flag (or flag value).
    pub fn arg(mut self, a: impl Into<String>) -> Self {
        self.args.push(a.into());
        self
    }

    /// Append several flags at once.
    pub fn args(mut self, list: &[&str]) -> Self {
        self.args.extend(list.iter().map(|s| s.to_string()));
        self
    }

    /// Set an environment variable on the child (failpoints live here).
    pub fn env(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.envs.push((key.into(), value.into()));
        self
    }
}

/// One live child process plus everything needed to talk to it, kill
/// it, and respawn it.
pub struct Node {
    /// The spec this node was launched from (reused by restart).
    spec: NodeSpec,
    /// The kernel-assigned serving address.
    pub addr: SocketAddr,
    child: Child,
    /// Where this attempt's stderr is teed.
    pub log_path: PathBuf,
}

impl Node {
    /// The node's name (from its spec).
    pub fn name(&self) -> &str {
        &self.spec.name
    }

    /// Connect a fresh protocol client to this node.
    pub fn client(&self) -> Client {
        Client::connect(self.addr)
            .unwrap_or_else(|e| panic!("connect to {} at {}: {e}", self.spec.name, self.addr))
    }

    /// SIGKILL the process and reap it — no drain, no flush, no
    /// goodbye. Anything not already durable is gone.
    pub fn kill(&mut self) {
        self.child.kill().expect("kill node");
        self.child.wait().expect("reap killed node");
    }

    /// Ask the node to drain gracefully (protocol `Shutdown`) and wait
    /// for the process to exit.
    pub fn shutdown(&mut self) {
        self.client().shutdown().expect("shutdown ack");
        let status = self.child.wait().expect("node exits after drain");
        assert!(status.success(), "{} exited with {status}", self.spec.name);
    }

    /// Wait for the process to exit on its own.
    pub fn wait(&mut self) {
        self.child.wait().expect("node exits");
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        // Never leak a child past the test: if it still runs, kill it.
        if self.child.try_wait().ok().flatten().is_none() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The harness: a scratch root holding every node's WAL directory and
/// log file, plus the spawn/restart machinery.
pub struct ClusterHarness {
    root: PathBuf,
    attempts: AtomicUsize,
}

impl ClusterHarness {
    /// A fresh harness rooted in a scratch directory labeled `label`
    /// (under `CC_FAULT_DIR` when set, so CI uploads it on failure).
    pub fn new(label: &str) -> Self {
        let root = cc_storage::wal::scratch_dir(&format!("cluster-{label}"));
        std::fs::create_dir_all(root.join("logs")).expect("create harness root");
        ClusterHarness { root, attempts: AtomicUsize::new(0) }
    }

    /// A per-node WAL directory under the harness root (created).
    pub fn wal_dir(&self, name: &str) -> PathBuf {
        let dir = self.root.join(format!("{name}-wal"));
        std::fs::create_dir_all(&dir).expect("create wal dir");
        dir
    }

    /// Launch one node: bind `127.0.0.1:0`, read the bound address
    /// back from its announcement line, tee stderr to a log file.
    /// Panics (with the log so far) if the process exits first.
    pub fn spawn(&self, spec: NodeSpec) -> Node {
        self.spawn_at(&spec, "127.0.0.1:0", true).expect("spawn_at(must) returned")
    }

    fn spawn_at(&self, spec: &NodeSpec, addr: &str, must: bool) -> Option<Node> {
        let attempt = self.attempts.fetch_add(1, Ordering::Relaxed);
        let log_path = self.root.join("logs").join(format!("{}-{attempt}.log", spec.name));
        let mut log = std::fs::File::create(&log_path).expect("create node log");
        let mut child = Command::new(env!("CARGO_BIN_EXE_cc-service"))
            .args(["--addr", addr])
            .args(&spec.args)
            .envs(spec.envs.iter().map(|(k, v)| (k.as_str(), v.as_str())))
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn cc-service");
        let stderr = child.stderr.take().unwrap();
        let mut lines = BufReader::new(stderr).lines();
        let addr = loop {
            let Some(line) = lines.next() else {
                let _ = child.wait();
                if must {
                    panic!(
                        "node {} exited before announcing its address; log at {}",
                        spec.name,
                        log_path.display()
                    );
                }
                return None; // e.g. the requested port is still held
            };
            let line = line.expect("read node stderr");
            writeln!(log, "{line}").ok();
            if let Some(rest) = line.split("listening on ").nth(1) {
                let addr = rest.split_whitespace().next().unwrap();
                break addr.parse().expect("parse announced address");
            }
        };
        // Keep draining stderr into the log so the child never blocks
        // on a full pipe; the thread dies with the pipe.
        std::thread::spawn(move || {
            for line in lines.map_while(Result::ok) {
                writeln!(log, "{line}").ok();
            }
        });
        Some(Node { spec: spec.clone(), addr, child, log_path })
    }

    /// Relaunch a (killed) node from its own spec: same WAL directory,
    /// same flags — and preferably the **same port**, so fleet configs
    /// pointing at the node keep working across the restart. Lingering
    /// TIME_WAIT peers can briefly hold the old port; retry for a few
    /// seconds, then fall back to a fresh kernel-assigned one.
    pub fn restart(&self, mut node: Node) -> Node {
        if node.child.try_wait().ok().flatten().is_none() {
            node.kill();
        }
        let spec = node.spec.clone();
        let old = node.addr;
        drop(node);
        for _ in 0..25 {
            if let Some(node) = self.spawn_at(&spec, &old.to_string(), false) {
                return node;
            }
            std::thread::sleep(Duration::from_millis(200));
        }
        self.spawn(spec)
    }

    /// The harness scratch root (for direct filesystem assertions).
    pub fn root(&self) -> &Path {
        &self.root
    }
}

impl Drop for ClusterHarness {
    fn drop(&mut self) {
        // Keep the logs and WALs of a failing test for post-mortem;
        // clean up after a passing one.
        if !std::thread::panicking() {
            std::fs::remove_dir_all(&self.root).ok();
        }
    }
}

/// Poll a node's `cc_applied_seq` (over its `Metrics` frame) until it
/// reaches `min_seq`, panicking after `limit`. The replication catch-up
/// assertions all funnel through this.
pub fn wait_for_seq(addr: SocketAddr, min_seq: u64, limit: Duration) {
    let deadline = Instant::now() + limit;
    let mut last = 0;
    loop {
        // Reconnect per probe: the node may be mid-restart.
        if let Ok(mut client) = Client::connect(addr) {
            if let Ok(text) = client.metrics_text() {
                last = cc_obs::sample(&text, "cc_applied_seq").unwrap_or(0.0) as u64;
                if last >= min_seq {
                    return;
                }
            }
        }
        assert!(
            Instant::now() < deadline,
            "node at {addr} stuck at seq {last}, wanted {min_seq} within {limit:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}
