//! Std-only HTTP/1.0 `GET /metrics` and `GET /healthz`, served from a
//! reactor the caller already runs.
//!
//! A scrape is one more connection on its owner's event loop. The
//! request's lines arrive as frames, and the blank line that ends the
//! request is answered in the same callback: the registry rendered to a
//! string, one outbox push, a graceful close. A scraper that stops
//! mid-request holds one idle connection and nothing else; no thread
//! waits on it, and the loop's other connections never notice.

use crate::metrics::Registry;
use jets_reactor::{CloseReason, ConnHandler, Flow, Outbox, Reactor};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Per-request socket timeout of [`scrape`].
const REQUEST_TIMEOUT: Duration = Duration::from_secs(2);

/// Bind `addr` (port 0 picks an ephemeral port) and serve `registry` on
/// `reactor`'s event loop until the reactor shuts down; returns the
/// bound address. `GET /metrics` answers with Prometheus text exposition
/// format, `GET /healthz` with `ok`; anything else is 404.
pub fn serve_metrics(
    reactor: &Reactor,
    addr: &str,
    registry: Arc<Registry>,
) -> io::Result<SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    reactor.listen(
        listener,
        Arc::new(move |_: &TcpStream, _: SocketAddr| {
            Some(Box::new(Scrape {
                registry: Arc::clone(&registry),
                outbox: None,
                request: None,
            }) as Box<dyn ConnHandler>)
        }),
    )?;
    Ok(local)
}

/// One scrape connection.
struct Scrape {
    registry: Arc<Registry>,
    outbox: Option<Arc<Outbox>>,
    /// The request line, once it has arrived.
    request: Option<String>,
}

impl ConnHandler for Scrape {
    fn on_open(&mut self, outbox: &Arc<Outbox>) {
        self.outbox = Some(Arc::clone(outbox));
    }

    fn on_frame(&mut self, line: &[u8]) -> Flow {
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        // Lines after the answer (a pipelined second request) are ignored.
        let Some(outbox) = self.outbox.as_ref().filter(|o| !o.is_closed()) else {
            return Flow::Continue;
        };
        match &self.request {
            None => self.request = Some(String::from_utf8_lossy(line).into_owned()),
            Some(request) if line.is_empty() => {
                outbox.send(&handle_request(&self.registry, request));
                outbox.close();
            }
            Some(_) => {} // a header
        }
        Flow::Continue
    }

    fn on_close(&mut self, _reason: CloseReason) {}
}

/// The whole HTTP response to `request_line` (`GET /metrics HTTP/1.0`).
fn handle_request(registry: &Registry, request_line: &str) -> Vec<u8> {
    let path = request_line.split_whitespace().nth(1).unwrap_or("");
    let (status, content_type, body) = match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            registry.render(),
        ),
        "/healthz" => ("200 OK", "text/plain; charset=utf-8", "ok\n".to_string()),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found\n".to_string(),
        ),
    };
    format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Fetch `path` from a metrics responder at `addr` and return the body.
/// This is the client half used by `jets top` and the scrape tests; it
/// speaks just enough HTTP to talk to [`serve_metrics`].
pub fn scrape(addr: &str, path: &str) -> std::io::Result<String> {
    let mut sock = TcpStream::connect(addr)?;
    sock.set_read_timeout(Some(REQUEST_TIMEOUT))?;
    sock.set_write_timeout(Some(REQUEST_TIMEOUT))?;
    let req = format!("GET {path} HTTP/1.0\r\nHost: jets\r\nConnection: close\r\n\r\n");
    sock.write_all(req.as_bytes())?;
    let mut reader = BufReader::new(sock);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    if !status_line.contains("200") {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("scrape {path}: {}", status_line.trim()),
        ));
    }
    // Skip the remaining headers, then read the body to EOF.
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 || line == "\r\n" || line == "\n" {
            break;
        }
    }
    let mut body = String::new();
    let mut buf = Vec::new();
    std::io::Read::read_to_end(&mut reader, &mut buf)?;
    body.push_str(&String::from_utf8_lossy(&buf));
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jets_reactor::ReactorConfig;
    use std::io::Read;

    fn one_loop() -> Reactor {
        Reactor::start(ReactorConfig::default()).expect("start a reactor")
    }

    #[test]
    fn serves_metrics_healthz_and_404() {
        let reactor = one_loop();
        let registry = Arc::new(Registry::new());
        let c = registry.counter("jets_test_total", "A test counter", &[]);
        c.add(9);
        let addr = serve_metrics(&reactor, "127.0.0.1:0", registry).expect("bind");
        let addr = addr.to_string();

        let body = scrape(&addr, "/metrics").expect("scrape metrics");
        assert!(body.contains("# TYPE jets_test_total counter"));
        assert!(body.contains("jets_test_total 9"));

        let health = scrape(&addr, "/healthz").expect("scrape healthz");
        assert_eq!(health, "ok\n");

        let err = scrape(&addr, "/nope").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    /// The answer waits for the blank line that ends the request, however
    /// the request is cut, and carries the exposition content type.
    #[test]
    fn a_request_cut_anywhere_is_answered_at_its_end() {
        let reactor = one_loop();
        let addr = serve_metrics(&reactor, "127.0.0.1:0", Arc::new(Registry::new())).unwrap();
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.set_read_timeout(Some(REQUEST_TIMEOUT)).unwrap();
        for part in ["GET /met", "rics HTTP/1.1\r\nHost: x\r", "\n", "\r\n"] {
            sock.write_all(part.as_bytes()).unwrap();
            std::thread::sleep(Duration::from_millis(20));
        }
        let mut reply = String::new();
        sock.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.0 200 OK\r\n"), "{reply}");
        assert!(reply.contains("Content-Type: text/plain; version=0.0.4"));
    }

    #[test]
    fn shutdown_releases_the_port() {
        let reactor = one_loop();
        let addr = serve_metrics(&reactor, "127.0.0.1:0", Arc::new(Registry::new())).expect("bind");
        reactor.shutdown();
        // After shutdown the port is free to rebind.
        let rebind = TcpListener::bind(addr);
        assert!(rebind.is_ok(), "port still held after shutdown: {rebind:?}");
    }
}
