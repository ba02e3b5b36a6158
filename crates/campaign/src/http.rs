//! A minimal HTTP/1.1 layer over [`std::net::TcpStream`] — just enough
//! protocol for the campaign service and its tests, with hard limits on
//! header and body sizes and hard *deadlines* on both directions. One
//! request per connection (`Connection: close` semantics); no chunked
//! encoding, no keep-alive, no TLS.
//!
//! Deadlines are overall, not per-read: a client dribbling one header
//! byte per socket-timeout window must not hold the service's single
//! accept thread (the "slowloris" failure), so [`read_request_deadline`]
//! re-arms the socket timeout with the *remaining* budget before every
//! read that reaches the socket and fails with [`RequestError::Timeout`]
//! — which the service answers with `408`. Symmetrically,
//! [`request_timeout`] bounds connect, send, and receive on the client
//! side so a wedged server cannot hang a caller (the CLI and
//! `Server::shutdown` both go through it).
//!
//! Each message costs one socket write and, when it arrives in one
//! segment, one socket read: a request or response is formatted into one
//! buffer and written once, and reads go through a [`BufReader`] that
//! arms the timeout only when its buffer is empty.

use std::io::{BufRead, BufReader, ErrorKind, Write};
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

/// Why an HTTP head or body could not be read off the socket.
#[derive(Debug)]
enum ReadError {
    /// The overall deadline elapsed first.
    Timeout,
    /// The peer closed the connection.
    Closed,
    /// The head grew past [`MAX_HEAD`] without ending.
    HeadTooLong,
    /// The socket failed otherwise.
    Io(std::io::Error),
}

/// Fills `reader`'s buffer and returns it (never empty). Only a read
/// that reaches the socket — the buffer is empty — arms the socket read
/// timeout with the time left until `deadline`, which turns the per-read
/// socket timeout into an overall deadline without a `setsockopt` per
/// buffered byte.
fn fill<'r>(
    reader: &'r mut BufReader<&TcpStream>,
    deadline: Instant,
) -> Result<&'r [u8], ReadError> {
    while reader.buffer().is_empty() {
        let remaining = deadline
            .checked_duration_since(Instant::now())
            .filter(|d| !d.is_zero())
            .ok_or(ReadError::Timeout)?;
        reader.get_ref().set_read_timeout(Some(remaining)).map_err(ReadError::Io)?;
        match reader.fill_buf() {
            Ok([]) => return Err(ReadError::Closed),
            Ok(_) => {}
            Err(e) if is_timeout(&e) => return Err(ReadError::Timeout),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(ReadError::Io(e)),
        }
    }
    Ok(reader.buffer())
}

/// Reads a message head up to and including the blank line that ends
/// it, leaving any body bytes behind it in `reader`.
fn read_head(reader: &mut BufReader<&TcpStream>, deadline: Instant) -> Result<Vec<u8>, ReadError> {
    let mut head = Vec::new();
    loop {
        let buf = fill(reader, deadline)?;
        let mut used = 0;
        for &byte in buf {
            used += 1;
            head.push(byte);
            if head.len() > MAX_HEAD {
                return Err(ReadError::HeadTooLong);
            }
            if head.ends_with(b"\r\n\r\n") {
                reader.consume(used);
                return Ok(head);
            }
        }
        reader.consume(used);
    }
}

/// Reads a message body of `len` bytes, or up to the peer's close when
/// `len` is `None`.
fn read_body(
    reader: &mut BufReader<&TcpStream>,
    len: Option<usize>,
    deadline: Instant,
) -> Result<Vec<u8>, ReadError> {
    let mut body = Vec::with_capacity(len.unwrap_or(0));
    while len.is_none_or(|len| body.len() < len) {
        let buf = match fill(reader, deadline) {
            Err(ReadError::Closed) if len.is_none() => break,
            read => read?,
        };
        let n = len.map_or(buf.len(), |len| buf.len().min(len - body.len()));
        body.extend_from_slice(&buf[..n]);
        reader.consume(n);
    }
    Ok(body)
}

/// A server-side read failure of the request `part` (`head` or `body`):
/// a timeout is a 408, anything else a 400.
fn request_err(e: ReadError, part: &str) -> RequestError {
    match e {
        ReadError::Timeout => {
            RequestError::Timeout(format!("timed out reading the request {part}"))
        }
        ReadError::Closed => RequestError::Malformed(format!("connection closed mid-{part}")),
        ReadError::HeadTooLong => RequestError::Malformed("request head exceeds limit".into()),
        ReadError::Io(e) => RequestError::Malformed(format!("reading request {part}: {e}")),
    }
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
    let mut reader = BufReader::new(&*stream);
    let head = read_head(&mut reader, deadline).map_err(|e| request_err(e, "head"))?;
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
        // A dribbled body hits the same overall deadline as the head.
        request.body =
            read_body(&mut reader, Some(len), deadline).map_err(|e| request_err(e, "body"))?;
    }
    Ok(request)
}

/// Writes a complete response. Errors are returned for the caller to
/// log; the connection is closed either way.
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
/// Head and body go out in one write, so the peer wakes once.
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
    let mut message = Vec::with_capacity(128 + body.len());
    write!(message, "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n")?;
    for (name, value) in extra_headers {
        write!(message, "{name}: {value}\r\n")?;
    }
    write!(message, "Content-Length: {}\r\nConnection: close\r\n\r\n", body.len())?;
    message.extend_from_slice(body);
    stream.write_all(&message)
}

/// A client-side read failure as an error message; a timeout's contains
/// "timed out".
fn client_read_err(e: ReadError, what: &str) -> String {
    match e {
        ReadError::Timeout => format!("request timed out reading the {what}"),
        ReadError::Closed => format!("reading {what}: connection closed"),
        ReadError::HeadTooLong => format!("reading {what}: longer than {MAX_HEAD} bytes"),
        ReadError::Io(e) => format!("reading {what}: {e}"),
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
    let remaining = deadline
        .checked_duration_since(Instant::now())
        .filter(|d| !d.is_zero())
        .ok_or("request timed out connecting")?;
    stream.set_write_timeout(Some(remaining)).map_err(|e| e.to_string())?;
    let body = body.unwrap_or("");
    let message = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(message.as_bytes()).map_err(|e| format!("sending request: {e}"))?;

    let mut reader = BufReader::new(&stream);
    let head = read_head(&mut reader, deadline).map_err(|e| client_read_err(e, "response head"))?;
    let head = String::from_utf8_lossy(&head);
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line {status_line:?}"))?;
    let mut headers = Headers::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_lowercase(), value.trim().to_owned()));
        }
    }
    let content_length = headers
        .iter()
        .find(|(name, _)| name == "content-length")
        .and_then(|(_, value)| value.parse().ok());
    let body =
        read_body(&mut reader, content_length, deadline).map_err(|e| client_read_err(e, "body"))?;
    Ok((status, headers, String::from_utf8_lossy(&body).into_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
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

    /// Reads the request `pieces` make up, each written on its own with
    /// a pause between, so that each arrives in its own segment.
    fn read_pieces(pieces: &[&[u8]]) -> Request {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let pieces: Vec<Vec<u8>> = pieces.iter().map(|p| p.to_vec()).collect();
        let writer = std::thread::spawn(move || {
            let mut client = TcpStream::connect(addr).unwrap();
            client.set_nodelay(true).unwrap();
            for piece in pieces {
                client.write_all(&piece).unwrap();
                std::thread::sleep(Duration::from_millis(20));
            }
            client
        });
        let (mut stream, _) = listener.accept().unwrap();
        let request = read_request(&mut stream).unwrap();
        drop(writer.join().unwrap());
        request
    }

    /// Whether the head and body come in one segment (one socket read
    /// serves the whole request) or dribble in over several, the request
    /// parses the same.
    #[test]
    fn one_segment_and_a_dribbled_body_parse_the_same() {
        let head = b"POST /campaigns?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 26\r\n\r\n";
        let body = b"abcdefghijklmnopqrstuvwxyz";
        let whole = [&head[..], &body[..]].concat();
        let one = read_pieces(&[&whole]);
        let split_head = read_pieces(&[&head[..9], &head[9..], &body[..]]);
        let dribbled = read_pieces(&[&whole[..head.len() + 3], &body[3..10], &body[10..]]);
        for other in [&split_head, &dribbled] {
            assert_eq!(
                (&other.method, &other.path, &other.query, &other.headers, &other.body),
                (&one.method, &one.path, &one.query, &one.headers, &one.body)
            );
        }
        assert_eq!(one.body, body);
        assert_eq!(one.header("content-length"), Some("26"));
    }

    /// The response bytes on the wire: status line, then Content-Type,
    /// the extra headers in order, Content-Length and Connection, a blank
    /// line and the body.
    #[test]
    fn response_bytes_are_exact() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let extra = [("Retry-After", "1"), ("X-Two", "b")];
            write_response_with(&mut stream, 429, "application/json", &extra, b"{\"e\":1}")
                .unwrap();
        });
        let mut client = TcpStream::connect(addr).unwrap();
        let mut raw = String::new();
        client.read_to_string(&mut raw).unwrap();
        server.join().unwrap();
        assert_eq!(
            raw,
            "HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\n\
             Retry-After: 1\r\nX-Two: b\r\nContent-Length: 7\r\nConnection: close\r\n\r\n\
             {\"e\":1}"
        );
    }

    /// The request bytes the client sends, and the headers it hands back.
    #[test]
    fn client_request_bytes_are_exact() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut raw = vec![0u8; 256];
            let mut len = 0;
            while !raw[..len].ends_with(b"{}") {
                len += stream.read(&mut raw[len..]).unwrap();
            }
            write_response_with(&mut stream, 200, "text/plain", &[("Retry-After", "3")], b"ok")
                .unwrap();
            String::from_utf8(raw[..len].to_vec()).unwrap()
        });
        let (status, headers, body) =
            request_timeout_full(&addr, "PUT", "/p?q", Some("{}"), Duration::from_secs(5)).unwrap();
        let raw = server.join().unwrap();
        assert_eq!(
            raw,
            format!(
                "PUT /p?q HTTP/1.1\r\nHost: {addr}\r\nContent-Length: 2\r\n\
                 Connection: close\r\n\r\n{{}}"
            )
        );
        assert_eq!((status, body.as_str()), (200, "ok"));
        assert_eq!(headers[1], ("retry-after".to_owned(), "3".to_owned()));
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
