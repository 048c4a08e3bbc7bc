//! A blocking client for the daemon protocol, used by `qosrm_load`, the
//! protocol tests, and the serving benchmark.

use crate::http::{WireError, PROTO_VERSION, PROTO_VERSION_HEADER};
use crate::server::{RunStatus, StatsReport};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Why a client call failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientError {
    /// The daemon answered with a typed error (`kind` dispatchable:
    /// `QueueFull`, `InvalidSpec`, `PayloadTooLarge`, `RunNotFound`,
    /// `RunNotComplete`, ...).
    Rejected {
        /// HTTP status code.
        status: u16,
        /// Machine-readable error kind.
        kind: String,
        /// Human-readable detail.
        message: String,
    },
    /// The connection could not be established or died mid-exchange (the
    /// daemon may have been killed; retrying is reasonable).
    Transport(String),
    /// The daemon answered with bytes the client could not interpret.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Rejected {
                status,
                kind,
                message,
            } => write!(f, "rejected ({status} {kind}): {message}"),
            ClientError::Transport(detail) => write!(f, "transport error: {detail}"),
            ClientError::Protocol(detail) => write!(f, "protocol error: {detail}"),
        }
    }
}

/// A parsed response.
#[derive(Debug, Clone)]
struct Response {
    status: u16,
    body: Vec<u8>,
}

/// Blocking daemon client. One TCP connection per call (the protocol is
/// one request per connection).
#[derive(Debug, Clone)]
pub struct Client {
    addr: SocketAddr,
    timeout: Duration,
}

impl Client {
    /// Creates a client for a daemon address.
    pub fn new(addr: SocketAddr) -> Self {
        Client {
            addr,
            timeout: Duration::from_secs(120),
        }
    }

    /// Overrides the per-call socket timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Submits a spec. Returns the run status plus whether this submission
    /// *created* the run (HTTP 202) or deduplicated to an existing one
    /// (HTTP 200).
    pub fn submit(
        &self,
        spec_json: &str,
        client_name: &str,
        quick: bool,
        shard_size: usize,
    ) -> Result<(bool, RunStatus), ClientError> {
        let path = format!("/runs?quick={quick}&shard_size={shard_size}");
        let response = self.request(
            "POST",
            &path,
            &[
                ("x-client", client_name),
                ("content-type", "application/json"),
            ],
            spec_json.as_bytes(),
        )?;
        let created = response.status == 202;
        let status = self.parse_json(&self.ok(response)?)?;
        Ok((created, status))
    }

    /// Fetches a run's status.
    pub fn status(&self, run_id: &str) -> Result<RunStatus, ClientError> {
        let response = self.request("GET", &format!("/runs/{run_id}"), &[], b"")?;
        self.parse_json(&self.ok(response)?)
    }

    /// Lists all runs.
    pub fn list(&self) -> Result<Vec<RunStatus>, ClientError> {
        let response = self.request("GET", "/runs", &[], b"")?;
        self.parse_json(&self.ok(response)?)
    }

    /// Cancels a run, returning its status after the cancel.
    pub fn cancel(&self, run_id: &str) -> Result<RunStatus, ClientError> {
        let response = self.request("POST", &format!("/runs/{run_id}/cancel"), &[], b"")?;
        self.parse_json(&self.ok(response)?)
    }

    /// Fetches the merged result bytes of a complete run — the exact bytes
    /// the offline `sweep merge --result` path writes.
    pub fn result(&self, run_id: &str) -> Result<Vec<u8>, ClientError> {
        let response = self.request("GET", &format!("/runs/{run_id}/result"), &[], b"")?;
        self.ok(response)
    }

    /// Fetches the `/stats` report.
    pub fn stats(&self) -> Result<StatsReport, ClientError> {
        let response = self.request("GET", "/stats", &[], b"")?;
        self.parse_json(&self.ok(response)?)
    }

    /// Streams outcome lines starting at `from`, feeding each complete
    /// JSONL line to `sink` as soon as its bytes arrive, until the daemon
    /// closes the tail (the run reached a terminal state). Returns the
    /// number of lines received.
    pub fn stream(
        &self,
        run_id: &str,
        from: usize,
        mut sink: impl FnMut(&str),
    ) -> Result<usize, ClientError> {
        let path = format!("/runs/{run_id}/stream?from={from}");
        let mut stream = self.connect()?;
        self.write_request(&mut stream, "GET", &path, &[], b"")?;
        let transport = |e: std::io::Error| ClientError::Transport(e.to_string());
        let mut reader = BufReader::new(stream);
        let mut line = Vec::new();
        if reader.read_until(b'\n', &mut line).map_err(transport)? == 0 {
            return Err(no_separator());
        }
        let status = parse_status(&line)?;
        // Skip the header lines up to the blank line that ends the head.
        while line != b"\r\n" {
            line.clear();
            if reader.read_until(b'\n', &mut line).map_err(transport)? == 0 {
                return Err(no_separator());
            }
        }
        if status != 200 {
            let mut body = Vec::new();
            reader.read_to_end(&mut body).map_err(transport)?;
            return Err(self.rejection(status, &body));
        }
        // `read_until` returns as soon as a newline arrives, so each line
        // reaches the sink while the daemon is still streaming.
        let mut count = 0;
        loop {
            line.clear();
            if reader.read_until(b'\n', &mut line).map_err(transport)? == 0 {
                break;
            }
            let text = String::from_utf8_lossy(&line);
            let text = text.trim_end_matches(['\n', '\r']);
            if !text.trim().is_empty() {
                sink(text);
                count += 1;
            }
        }
        Ok(count)
    }

    fn connect(&self) -> Result<TcpStream, ClientError> {
        let stream = TcpStream::connect_timeout(&self.addr, self.timeout)
            .map_err(|e| ClientError::Transport(e.to_string()))?;
        let _ = stream.set_read_timeout(Some(self.timeout));
        let _ = stream.set_write_timeout(Some(self.timeout));
        Ok(stream)
    }

    fn write_request(
        &self,
        stream: &mut TcpStream,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> Result<(), ClientError> {
        let mut head = format!("{method} {path} HTTP/1.0\r\n");
        // Every request declares the protocol revision it speaks, so a
        // mixed-version client/daemon pair fails fast with a typed
        // `ProtocolMismatch` instead of misparsing each other.
        head.push_str(&format!("{PROTO_VERSION_HEADER}: {PROTO_VERSION}\r\n"));
        for (name, value) in headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
        stream
            .write_all(head.as_bytes())
            .and_then(|()| stream.write_all(body))
            .and_then(|()| stream.flush())
            .map_err(|e| ClientError::Transport(e.to_string()))?;
        // Half-close: the request is complete, so a server that rejects it
        // without reading the body sees EOF instead of blocking on a drain.
        let _ = stream.shutdown(std::net::Shutdown::Write);
        Ok(())
    }

    fn request(
        &self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> Result<Response, ClientError> {
        let mut stream = self.connect()?;
        self.write_request(&mut stream, method, path, headers, body)?;
        let mut raw = Vec::new();
        stream
            .read_to_end(&mut raw)
            .map_err(|e| ClientError::Transport(e.to_string()))?;
        let (status, body) = split_response(&raw)?;
        Ok(Response { status, body })
    }

    /// Maps a non-2xx response to [`ClientError::Rejected`].
    fn ok(&self, response: Response) -> Result<Vec<u8>, ClientError> {
        if (200..300).contains(&response.status) {
            Ok(response.body)
        } else {
            Err(self.rejection(response.status, &response.body))
        }
    }

    fn rejection(&self, status: u16, body: &[u8]) -> ClientError {
        let text = String::from_utf8_lossy(body);
        match serde_json::from_str::<WireError>(&text) {
            Ok(wire) => ClientError::Rejected {
                status,
                kind: wire.error.kind,
                message: wire.error.message,
            },
            Err(_) => ClientError::Rejected {
                status,
                kind: "Unknown".to_string(),
                message: text.into_owned(),
            },
        }
    }

    fn parse_json<T: serde::Deserialize>(&self, body: &[u8]) -> Result<T, ClientError> {
        let text = String::from_utf8_lossy(body);
        serde_json::from_str(&text).map_err(|e| {
            ClientError::Protocol(format!("unparsable response body: {e} in {text:.120}"))
        })
    }
}

fn no_separator() -> ClientError {
    ClientError::Protocol("response has no head/body separator".to_string())
}

/// The status code of a response head (its first line).
fn parse_status(head: &[u8]) -> Result<u16, ClientError> {
    let head = String::from_utf8_lossy(head);
    let status_line = head.lines().next().unwrap_or("");
    status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| ClientError::Protocol(format!("bad status line {status_line:?}")))
}

/// Splits raw response bytes into (status, body).
fn split_response(raw: &[u8]) -> Result<(u16, Vec<u8>), ClientError> {
    let end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(no_separator)?;
    Ok((parse_status(&raw[..end])?, raw[end + 4..].to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::mpsc;

    #[test]
    fn stream_feeds_each_line_as_it_arrives() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (first_seen, seen) = mpsc::channel::<()>();
        let server = std::thread::spawn(move || {
            let (mut socket, _) = listener.accept().unwrap();
            let mut request = Vec::new();
            socket.read_to_end(&mut request).unwrap();
            socket
                .write_all(b"HTTP/1.0 200 OK\r\ncontent-type: application/x-ndjson\r\n\r\n")
                .unwrap();
            socket.write_all(b"{\"line\":1}\n").unwrap();
            socket.flush().unwrap();
            // The rest is held back until the client has handed the first
            // line to its sink; a buffering client never gets there.
            let incremental = seen.recv_timeout(Duration::from_secs(10)).is_ok();
            socket.write_all(b"{\"line\":2}\r\n\n{\"line\":3}").unwrap();
            incremental
        });
        let mut lines = Vec::new();
        let count = Client::new(addr)
            .with_timeout(Duration::from_secs(30))
            .stream("r", 0, |line| {
                if lines.is_empty() {
                    first_seen.send(()).unwrap();
                }
                lines.push(line.to_string());
            })
            .unwrap();
        assert!(
            server.join().unwrap(),
            "the first line reached the sink only after the whole body"
        );
        assert_eq!(count, 3);
        assert_eq!(lines, ["{\"line\":1}", "{\"line\":2}", "{\"line\":3}"]);
    }

    #[test]
    fn stream_rejection_carries_the_wire_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut socket, _) = listener.accept().unwrap();
            let mut request = Vec::new();
            socket.read_to_end(&mut request).unwrap();
            let body = serde_json::to_string(&WireError::new("RunNotFound", "no run r")).unwrap();
            socket
                .write_all(format!("HTTP/1.0 404 Not Found\r\n\r\n{body}").as_bytes())
                .unwrap();
        });
        let error = Client::new(addr).stream("r", 0, |_| {}).unwrap_err();
        server.join().unwrap();
        assert!(matches!(
            error,
            ClientError::Rejected { status: 404, ref kind, .. } if kind == "RunNotFound"
        ));
    }
}
