//! A minimal HTTP/1.0 scrape listener.
//!
//! Just enough HTTP for `curl` and a Prometheus scraper: one thread,
//! non-blocking accept polled every 25 ms against a stop flag,
//! `Connection: close` on every response, request line parsed and the
//! rest of the headers discarded. Three routes:
//!
//! * `GET /metrics`  → the source's exposition document
//! * `GET /healthz`  → `ok` (200) or `draining` (503)
//! * `GET /slowlog`  → the slow-query ring, plain text
//!
//! Anything else is 404. The listener owns no metrics itself — it
//! renders on demand through the [`MetricsSource`] the caller hands in.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What the listener serves: implemented by the service over its
/// live metric registry.
pub trait MetricsSource: Send + Sync + 'static {
    /// The `/metrics` document (Prometheus text format).
    fn render_metrics(&self) -> String;
    /// The `/slowlog` document (plain text). Default: empty.
    fn render_slowlog(&self) -> String {
        String::new()
    }
    /// `/healthz` state; `false` answers 503 (e.g. while draining).
    fn healthy(&self) -> bool {
        true
    }
}

/// Handle to a running scrape listener; stops (and joins its thread)
/// on [`MetricsServer::stop`] or drop.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and start serving `source`.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        source: Arc<dyn MetricsSource>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new().name("cc-metrics".into()).spawn(move || {
            while !stop_flag.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => handle_conn(stream, &*source),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(25));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(25)),
                }
            }
        })?;
        Ok(MetricsServer { addr, stop, handle: Some(handle) })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the listener thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Most bytes of a request's line and headers read: past it, a request is cut off (a 404 for its
/// garbled path) and closed, so no client can grow the listener or hold its one thread.
const MAX_HEAD_BYTES: u64 = 8 * 1024;

/// Longest a request head may take to arrive: past it the connection closes without a reply.
const HEAD_DEADLINE: Duration = Duration::from_secs(2);

/// A connection whose reads (or writes) share one deadline, each waiting at most the time left:
/// past it, the zero timeout left is refused and so is every read or write. The timeout stays set
/// afterwards.
pub struct Deadline<'a>(pub &'a TcpStream, pub Instant);

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.0.set_read_timeout(Some(self.1.saturating_duration_since(Instant::now())))?;
        self.0.read(buf)
    }
}

impl Write for Deadline<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.set_write_timeout(Some(self.1.saturating_duration_since(Instant::now())))?;
        self.0.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn handle_conn(stream: TcpStream, source: &dyn MetricsSource) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let at = Instant::now() + HEAD_DEADLINE;
    let mut reader = BufReader::new(Deadline(&stream, at).take(MAX_HEAD_BYTES));
    let mut request_line = String::new();
    if reader.read_line(&mut request_line).is_err() {
        return;
    }
    // Drain the headers (the byte cap bounds them) for a clean close.
    let mut line = String::new();
    while reader.read_line(&mut line).is_ok_and(|n| n > 0 && !line.trim_end().is_empty()) {
        line.clear();
    }
    if Instant::now() >= at {
        return;
    }
    let path = request_line.split_whitespace().nth(1).unwrap_or("");
    let (status, content_type, body) = match path {
        "/metrics" => {
            ("200 OK", "text/plain; version=0.0.4; charset=utf-8", source.render_metrics())
        }
        "/healthz" => {
            if source.healthy() {
                ("200 OK", "text/plain; charset=utf-8", "ok\n".to_string())
            } else {
                ("503 Service Unavailable", "text/plain; charset=utf-8", "draining\n".to_string())
            }
        }
        "/slowlog" => ("200 OK", "text/plain; charset=utf-8", source.render_slowlog()),
        _ => ("404 Not Found", "text/plain; charset=utf-8", "not found\n".to_string()),
    };
    let mut stream = &stream;
    let _ = write!(
        stream,
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len(),
    );
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

/// Fetch `path` from an HTTP server with a plain `TcpStream` — the
/// client-side twin of this listener, used by the CI lint to scrape
/// `/metrics` without an HTTP dependency. Returns the body iff the
/// status is 200.
pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    write!(stream, "GET {path} HTTP/1.0\r\nHost: scrape\r\nConnection: close\r\n\r\n")?;
    stream.flush()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, body) = raw.split_once("\r\n\r\n").ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "no header/body split")
    })?;
    let status = head.lines().next().unwrap_or("");
    if !status.contains("200") {
        return Err(std::io::Error::other(format!("GET {path}: {status}")));
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed;
    impl MetricsSource for Fixed {
        fn render_metrics(&self) -> String {
            "# HELP cc_up Up.\n# TYPE cc_up gauge\ncc_up 1\n".into()
        }
        fn render_slowlog(&self) -> String {
            "# slow queries: 0 retained (cap 4)\n".into()
        }
    }

    #[test]
    fn serves_metrics_healthz_slowlog_and_404() {
        let server = MetricsServer::bind("127.0.0.1:0", Arc::new(Fixed)).unwrap();
        let addr = server.local_addr();

        let metrics = http_get(addr, "/metrics").unwrap();
        assert!(metrics.contains("cc_up 1"), "{metrics}");
        let health = http_get(addr, "/healthz").unwrap();
        assert_eq!(health, "ok\n");
        let slow = http_get(addr, "/slowlog").unwrap();
        assert!(slow.starts_with("# slow queries"), "{slow}");
        let err = http_get(addr, "/nope").unwrap_err();
        assert!(err.to_string().contains("404"), "{err}");

        server.stop();
    }

    struct Unhealthy;
    impl MetricsSource for Unhealthy {
        fn render_metrics(&self) -> String {
            String::new()
        }
        fn healthy(&self) -> bool {
            false
        }
    }

    #[test]
    fn unhealthy_source_answers_503() {
        let server = MetricsServer::bind("127.0.0.1:0", Arc::new(Unhealthy)).unwrap();
        let err = http_get(server.local_addr(), "/healthz").unwrap_err();
        assert!(err.to_string().contains("503"), "{err}");
    }

    /// A client that streams a request line with no end must not keep
    /// the listener's one thread from answering the next scrape.
    #[test]
    fn an_endless_request_line_does_not_starve_the_scrape() {
        use std::time::Instant;
        let server = MetricsServer::bind("127.0.0.1:0", Arc::new(Fixed)).unwrap();
        let addr = server.local_addr();
        let done = Arc::new(AtomicBool::new(false));
        let streamer = {
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                stream.set_write_timeout(Some(Duration::from_secs(1))).unwrap();
                let chunk = vec![b'A'; 64 * 1024];
                // Paced well inside the listener's 2 s read timeout; a
                // refused write means the listener closed the connection.
                while !done.load(Ordering::Relaxed) && stream.write_all(&chunk).is_ok() {
                    std::thread::sleep(Duration::from_millis(5));
                }
            })
        };
        std::thread::sleep(Duration::from_millis(200));
        let started = Instant::now();
        let scraped = http_get(addr, "/metrics");
        let took = started.elapsed();
        done.store(true, Ordering::Relaxed);
        streamer.join().unwrap();
        assert!(scraped.unwrap().contains("cc_up 1"));
        assert!(took < Duration::from_secs(3), "the scrape waited {took:?}");
        server.stop();
    }

    /// A client that trickles a request head one byte every 300 ms is
    /// cut off at the head's deadline, so a scrape sent behind it is
    /// answered within the deadline and a second.
    #[test]
    fn a_trickled_request_head_does_not_stall_the_scrape() {
        let server = MetricsServer::bind("127.0.0.1:0", Arc::new(Fixed)).unwrap();
        let addr = server.local_addr();
        let trickler = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            for byte in b"GET /metrics HTTP/1.0\r\n" {
                // A refused write means the listener closed the connection.
                if stream.write_all(&[*byte]).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(300));
            }
        });
        std::thread::sleep(Duration::from_millis(100));
        let started = Instant::now();
        let scraped = http_get(addr, "/metrics");
        let took = started.elapsed();
        trickler.join().unwrap();
        assert!(scraped.unwrap().contains("cc_up 1"));
        assert!(took < HEAD_DEADLINE + Duration::from_secs(1), "the scrape waited {took:?}");
        server.stop();
    }
}
