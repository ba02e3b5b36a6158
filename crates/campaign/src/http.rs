//! A minimal HTTP/1.1 layer over [`std::net::TcpStream`] — just enough
//! protocol for the campaign service and its tests, with hard limits on
//! header and body sizes and hard *deadlines* on both directions. One
//! request per connection (`Connection: close` semantics); no chunked
//! encoding, no keep-alive, no TLS.
//!
//! Deadlines are overall, not per-read: a client dribbling one header
//! byte per socket-timeout window must not hold the service's single
//! accept thread (the "slowloris" failure PR 3 fixed), so
//! [`read_request_deadline`] re-arms the socket timeout with the
//! *remaining* budget before every read and fails with
//! [`RequestError::Timeout`] — which the service answers with `408`.
//! Symmetrically, [`request_timeout`] bounds connect, send, and receive
//! on the client side so a wedged server cannot hang a caller (the CLI
//! and `Server::shutdown` both go through it).

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Maximum accepted request-line + header bytes.
pub const MAX_HEAD: usize = 16 * 1024;
/// Maximum accepted request body bytes (campaign specs are small).
pub const MAX_BODY: usize = 1024 * 1024;
/// Overall server-side deadline [`read_request`] applies across the
/// whole head + body read.
pub const DEFAULT_READ_DEADLINE: Duration = Duration::from_secs(30);
/// Overall client-side deadline [`request`] applies across connect,
/// send, and the whole response read.
pub const DEFAULT_CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// Header name/value pairs, names lowercased.
pub type Headers = Vec<(String, String)>;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, ...).
    pub method: String,
    /// Path with the query string split off (`/campaigns/3`).
    pub path: String,
    /// Raw query string after `?`, or empty.
    pub query: String,
    /// Header name/value pairs; names lowercased.
    pub headers: Headers,
    /// Request body (empty unless `Content-Length` was given).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a (lowercase) header name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read — the split decides the status code:
/// timeouts get `408`, everything else `400`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// The overall read deadline elapsed before a full request arrived.
    Timeout(String),
    /// The bytes that did arrive are not an acceptable request.
    Malformed(String),
}

impl RequestError {
    /// The human-readable description (what goes in the error body).
    pub fn message(&self) -> &str {
        match self {
            RequestError::Timeout(m) | RequestError::Malformed(m) => m,
        }
    }
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.message())
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Sets the socket read timeout to the time left until `deadline`, or
/// fails with [`RequestError::Timeout`] when none is left. Re-arming
/// before every read is what turns the per-read socket timeout into an
/// overall deadline.
fn arm_read(stream: &TcpStream, deadline: Instant, what: &str) -> Result<(), RequestError> {
    let remaining = deadline
        .checked_duration_since(Instant::now())
        .filter(|d| !d.is_zero())
        .ok_or_else(|| RequestError::Timeout(format!("timed out reading the request {what}")))?;
    stream
        .set_read_timeout(Some(remaining))
        .map_err(|e| RequestError::Malformed(format!("arming read timeout: {e}")))
}

/// Reads one request from `stream` with the default
/// [`DEFAULT_READ_DEADLINE`]. See [`read_request_deadline`].
///
/// # Errors
///
/// Same conditions as [`read_request_deadline`].
pub fn read_request(stream: &mut TcpStream) -> Result<Request, RequestError> {
    read_request_deadline(stream, DEFAULT_READ_DEADLINE)
}

/// Reads one request from `stream`, enforcing `limit` as an overall
/// deadline across the head *and* body reads.
///
/// # Errors
///
/// [`RequestError::Timeout`] when the deadline elapses first (a 408);
/// [`RequestError::Malformed`] for a bad request line, over-limit head
/// or body, or an unreadable socket (a 400).
pub fn read_request_deadline(
    stream: &mut TcpStream,
    limit: Duration,
) -> Result<Request, RequestError> {
    let deadline = Instant::now() + limit;
    let mut reader = BufReader::new(stream);
    let mut head = Vec::new();
    // Read byte-wise up to the blank line; BufReader keeps this cheap.
    while !head.ends_with(b"\r\n\r\n") {
        arm_read(reader.get_ref(), deadline, "head")?;
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => return Err(RequestError::Malformed("connection closed mid-header".into())),
            Ok(_) => head.push(byte[0]),
            Err(e) if is_timeout(&e) => {
                return Err(RequestError::Timeout("timed out reading the request head".into()));
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(RequestError::Malformed(format!("reading request head: {e}"))),
        }
        if head.len() > MAX_HEAD {
            return Err(RequestError::Malformed("request head exceeds limit".into()));
        }
    }
    let head = String::from_utf8(head)
        .map_err(|_| RequestError::Malformed("request head is not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| RequestError::Malformed("empty request line".into()))?
        .to_uppercase();
    let target =
        parts.next().ok_or_else(|| RequestError::Malformed("request line lacks a path".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| RequestError::Malformed("request line lacks a version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(RequestError::Malformed(format!("unsupported protocol {version}")));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), q.to_owned()),
        None => (target.to_owned(), String::new()),
    };
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| RequestError::Malformed("malformed header line".into()))?;
        headers.push((name.trim().to_lowercase(), value.trim().to_owned()));
    }
    let mut request = Request { method, path, query, headers, body: Vec::new() };
    if let Some(len) = request.header("content-length") {
        let len: usize =
            len.parse().map_err(|_| RequestError::Malformed("bad Content-Length".into()))?;
        if len > MAX_BODY {
            return Err(RequestError::Malformed("request body exceeds limit".into()));
        }
        // A dribbled body must hit the same overall deadline as the
        // head, so no single read_exact: loop with the remaining budget.
        let mut body = vec![0u8; len];
        let mut filled = 0;
        while filled < len {
            arm_read(reader.get_ref(), deadline, "body")?;
            match reader.read(&mut body[filled..]) {
                Ok(0) => {
                    return Err(RequestError::Malformed("connection closed mid-body".into()));
                }
                Ok(n) => filled += n,
                Err(e) if is_timeout(&e) => {
                    return Err(RequestError::Timeout("timed out reading the request body".into()));
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(RequestError::Malformed(format!("reading body: {e}"))),
            }
        }
        request.body = body;
    }
    Ok(request)
}

/// Writes a complete response and flushes. Errors are returned for the
/// caller to log; the connection is closed either way.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    write_response_with(stream, status, content_type, &[], body)
}

/// [`write_response`] with additional response headers (e.g.
/// `Retry-After` on a `429`). Names and values are written verbatim.
pub fn write_response_with(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        429 => "Too Many Requests",
        _ => "Internal Server Error",
    };
    write!(stream, "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n")?;
    for (name, value) in extra_headers {
        write!(stream, "{name}: {value}\r\n")?;
    }
    write!(stream, "Content-Length: {}\r\nConnection: close\r\n\r\n", body.len())?;
    stream.write_all(body)?;
    stream.flush()
}

/// Time left until `deadline` on the client side, as an error message
/// containing "timed out" when the budget is spent.
fn client_remaining(deadline: Instant, what: &str) -> Result<Duration, String> {
    deadline
        .checked_duration_since(Instant::now())
        .filter(|d| !d.is_zero())
        .ok_or_else(|| format!("request timed out {what}"))
}

fn client_read_err(e: &std::io::Error, what: &str) -> String {
    if is_timeout(e) {
        format!("request timed out reading the {what}")
    } else {
        format!("reading {what}: {e}")
    }
}

/// A one-shot client request with the default
/// [`DEFAULT_CLIENT_TIMEOUT`]. See [`request_timeout`].
///
/// # Errors
///
/// Same conditions as [`request_timeout`].
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, String), String> {
    request_timeout(addr, method, path, body, DEFAULT_CLIENT_TIMEOUT)
}

/// A one-shot client request (the test harness, the CLI, and
/// `Server::shutdown` use this; no external HTTP client exists in the
/// workspace). `timeout` is an overall deadline covering connect, send,
/// and the response read — a wedged or silent server fails the call
/// instead of blocking it forever.
///
/// # Errors
///
/// Returns a message on connection failure, deadline expiry (the
/// message contains "timed out"), or a malformed response.
pub fn request_timeout(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> Result<(u16, String), String> {
    let (status, _, body) = request_timeout_full(addr, method, path, body, timeout)?;
    Ok((status, body))
}

/// [`request_timeout`], additionally returning the response headers
/// (names lowercased), such as `Retry-After` on a `429`.
///
/// # Errors
///
/// Same conditions as [`request_timeout`].
pub fn request_timeout_full(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> Result<(u16, Headers, String), String> {
    let deadline = Instant::now() + timeout;
    let sock_addr = addr
        .to_socket_addrs()
        .map_err(|e| format!("resolving {addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("resolving {addr}: no usable address"))?;
    let mut stream = TcpStream::connect_timeout(&sock_addr, timeout)
        .map_err(|e| format!("connecting to {addr}: {e}"))?;
    let remaining = client_remaining(deadline, "connecting")?;
    stream.set_write_timeout(Some(remaining)).map_err(|e| e.to_string())?;
    stream.set_read_timeout(Some(remaining)).map_err(|e| e.to_string())?;
    let body = body.unwrap_or("");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    )
    .map_err(|e| format!("sending request: {e}"))?;
    stream.flush().map_err(|e| e.to_string())?;

    let arm = |stream: &TcpStream, what: &str| -> Result<(), String> {
        let remaining = client_remaining(deadline, what)?;
        stream.set_read_timeout(Some(remaining)).map_err(|e| e.to_string())
    };
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    arm(reader.get_ref(), "awaiting the status line")?;
    reader.read_line(&mut status_line).map_err(|e| client_read_err(&e, "status line"))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line {status_line:?}"))?;
    let mut content_length: Option<usize> = None;
    let mut headers = Headers::new();
    loop {
        let mut line = String::new();
        arm(reader.get_ref(), "awaiting headers")?;
        reader.read_line(&mut line).map_err(|e| client_read_err(&e, "headers"))?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim().to_lowercase();
            let value = value.trim().to_owned();
            if name == "content-length" {
                content_length = value.parse().ok();
            }
            headers.push((name, value));
        }
    }
    arm(reader.get_ref(), "awaiting the body")?;
    let body = match content_length {
        Some(len) => {
            let mut buf = vec![0u8; len];
            reader.read_exact(&mut buf).map_err(|e| client_read_err(&e, "body"))?;
            buf
        }
        None => {
            let mut buf = Vec::new();
            reader.read_to_end(&mut buf).map_err(|e| client_read_err(&e, "body"))?;
            buf
        }
    };
    Ok((status, headers, String::from_utf8_lossy(&body).into_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Round-trips a request through a real socket pair: the client side
    /// uses [`request`], the server side [`read_request`] +
    /// [`write_response`].
    #[test]
    fn request_response_round_trip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let req = read_request(&mut stream).unwrap();
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/campaigns");
            assert_eq!(req.query, "format=text");
            assert_eq!(req.body, b"{\"x\":1}");
            write_response(&mut stream, 202, "application/json", b"{\"id\":7}").unwrap();
        });
        let (status, body) =
            request(&addr, "POST", "/campaigns?format=text", Some("{\"x\":1}")).unwrap();
        server.join().unwrap();
        assert_eq!((status, body.as_str()), (202, "{\"id\":7}"));
    }

    #[test]
    fn malformed_requests_are_errors_not_panics() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        for raw in
            ["\r\n\r\n", "GET\r\n\r\n", "GET / SPDY/3\r\n\r\n", "GET / HTTP/1.1\r\nbad\r\n\r\n"]
        {
            let mut client = TcpStream::connect(addr).unwrap();
            client.write_all(raw.as_bytes()).unwrap();
            let (mut stream, _) = listener.accept().unwrap();
            let err = read_request(&mut stream).expect_err(raw);
            assert!(
                matches!(err, RequestError::Malformed(_)),
                "{raw:?} is malformed, not a timeout: {err:?}"
            );
        }
    }

    #[test]
    fn oversized_bodies_are_rejected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        write!(client, "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY + 1).unwrap();
        let (mut stream, _) = listener.accept().unwrap();
        let err = read_request(&mut stream).unwrap_err();
        assert!(err.message().contains("exceeds"), "{err}");
    }

    /// The slowloris regression: pre-fix, only a *per-read* timeout
    /// existed, so a client feeding one byte per window could hold the
    /// accept thread for hours. With the overall deadline the read must
    /// fail as a Timeout in roughly the deadline, not the dribble total.
    #[test]
    fn dribbled_header_bytes_hit_the_overall_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let dribbler = std::thread::spawn(move || {
            let mut client = TcpStream::connect(addr).unwrap();
            // ~2 s of one byte per 50 ms — each write easily inside any
            // per-read window, the total far beyond the 300 ms deadline.
            for byte in b"GET / HTTP/1.1\r\nx-slow: 1\r\n".iter().cycle().take(40) {
                if client.write_all(&[*byte]).is_err() {
                    break; // server gave up on us, as it should
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        });
        let (mut stream, _) = listener.accept().unwrap();
        let started = Instant::now();
        let err = read_request_deadline(&mut stream, Duration::from_millis(300)).unwrap_err();
        let elapsed = started.elapsed();
        assert!(matches!(err, RequestError::Timeout(_)), "a dribble is a timeout: {err:?}");
        assert!(
            elapsed < Duration::from_secs(1),
            "the deadline bounds the read (took {elapsed:?}, dribble runs ~2 s)"
        );
        drop(stream);
        dribbler.join().unwrap();
    }

    /// Same deadline, dribbled through the *body* phase: a well-formed
    /// head followed by a Content-Length the client never delivers.
    #[test]
    fn dribbled_body_bytes_hit_the_overall_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let dribbler = std::thread::spawn(move || {
            let mut client = TcpStream::connect(addr).unwrap();
            client.write_all(b"POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\n").unwrap();
            for _ in 0..40 {
                if client.write_all(b"x").is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        });
        let (mut stream, _) = listener.accept().unwrap();
        let started = Instant::now();
        let err = read_request_deadline(&mut stream, Duration::from_millis(300)).unwrap_err();
        assert!(matches!(err, RequestError::Timeout(_)), "{err:?}");
        assert!(started.elapsed() < Duration::from_secs(1));
        drop(stream);
        dribbler.join().unwrap();
    }

    /// The hung-shutdown regression: pre-fix, the client set no
    /// timeouts, so a server that accepts and then never responds hung
    /// the caller (and `Server::shutdown`) forever.
    #[test]
    fn client_times_out_against_a_server_that_never_responds() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        // Accept and hold the connection open, never writing a byte.
        let silent = std::thread::spawn(move || listener.accept().map(|(s, _)| s));
        let started = Instant::now();
        let err = request_timeout(&addr, "POST", "/shutdown", None, Duration::from_millis(300))
            .unwrap_err();
        assert!(err.contains("timed out"), "{err}");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "the deadline bounds the call: {:?}",
            started.elapsed()
        );
        drop(silent.join().unwrap());
    }
}
