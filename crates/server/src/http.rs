//! The observability sidecar: a minimal std-only HTTP/1.1 listener.
//!
//! Serves exactly three read-only endpoints on
//! [`ServerConfig::metrics_addr`](crate::ServerConfig::metrics_addr):
//!
//! * `GET /metrics` — Prometheus text exposition of the metrics store
//!   ([`ServerMetrics::render_prometheus`](crate::metrics::ServerMetrics::render_prometheus)):
//!   server counters, gauges and histograms, per-key sweep counters,
//!   result-cache and flight-recorder rows, and the Table 30 registry.
//! * `GET /healthz` — `200 ok` while accepting, `503 draining` once a
//!   drain has begun.
//! * `GET /varz` — the framed `metrics` response body as JSON, for
//!   humans and scripts that already speak the frame format.
//!
//! This is deliberately not a web server: requests are read with a small
//! bounded buffer, only `GET` is answered, every response closes the
//! connection. A scraper, a load balancer check, and `curl` are the
//! entire intended client population.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use crate::server::{metrics_frame_json, Shared};

/// Largest accepted request head; enough for any sane GET line + headers.
const MAX_HEAD: usize = 8192;

/// Accept-loop for the sidecar listener; returns when the server drains.
pub(crate) fn serve(shared: &Arc<Shared>, listener: &TcpListener) {
    while !shared.drained.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => handle_conn(shared, stream),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    }
}

/// Reads one request head and answers it. Any parse trouble is a `400`;
/// an unknown path is a `404`; a non-GET method is a `405`.
fn handle_conn(shared: &Arc<Shared>, mut stream: TcpStream) {
    // The listener is nonblocking for the poll loop; the accepted socket
    // must not be (inheritance is platform-dependent).
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let _ = stream.set_nodelay(true);
    let Some(head) = read_head(&mut stream) else {
        respond(&mut stream, 400, "text/plain; charset=utf-8", "bad request\n");
        return;
    };
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if method != "GET" {
        respond(&mut stream, 405, "text/plain; charset=utf-8", "method not allowed\n");
        return;
    }
    // Ignore any query string — /metrics?foo=bar is still /metrics.
    let path = path.split('?').next().unwrap_or(path);
    match path {
        "/metrics" => {
            let gauges = shared.gauges();
            let page = shared.metrics.lock().expect("metrics lock").render_prometheus(&gauges);
            respond(&mut stream, 200, "text/plain; version=0.0.4; charset=utf-8", &page);
        }
        "/healthz" => {
            if shared.shutdown.load(Ordering::SeqCst) {
                respond(&mut stream, 503, "text/plain; charset=utf-8", "draining\n");
            } else {
                respond(&mut stream, 200, "text/plain; charset=utf-8", "ok\n");
            }
        }
        "/varz" => {
            let body = metrics_frame_json(shared, 0);
            respond(&mut stream, 200, "application/json", &body);
        }
        _ => respond(&mut stream, 404, "text/plain; charset=utf-8", "not found\n"),
    }
}

/// Reads until the blank line ending the request head, or gives up at
/// [`MAX_HEAD`] bytes / timeout / EOF.
fn read_head(stream: &mut TcpStream) -> Option<String> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return None,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.windows(2).any(|w| w == b"\n\n")
                {
                    return String::from_utf8(buf).ok();
                }
                if buf.len() > MAX_HEAD {
                    return None;
                }
            }
            Err(_) => return None,
        }
    }
}

fn respond(stream: &mut TcpStream, code: u16, content_type: &str, body: &str) {
    let reason = match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}
