//! Hand-rolled HTTP/1.1 request parsing and response writing.
//!
//! The build environment has no crates.io access, so — in the same spirit
//! as `aod-exec` hand-rolling its thread pool — this module implements the
//! small slice of HTTP/1.1 the discovery service needs on raw
//! `std::net::TcpStream`s:
//!
//! * request line + headers + `Content-Length` bodies (with size limits),
//! * fixed-length responses with `Connection: close` semantics,
//! * `Transfer-Encoding: chunked` responses for streaming NDJSON events.
//!
//! Sockets run with `TCP_NODELAY`, so every `write` leaves as its own
//! segment: a response and each chunk are assembled in one buffer and sent
//! with a single `write_all`.
//!
//! Every connection carries exactly one request/response exchange; clients
//! that want another request open another connection. That keeps the
//! server loop trivially robust (no pipelining, no keep-alive state
//! machine) at the price of a TCP handshake per call — fine for a
//! profiling service whose unit of work is a discovery job, not a byte.

use std::io::{Read, Write};
use std::net::TcpStream;

/// Upper bound on the request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on request bodies (configs and registrations are small).
const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, `DELETE`, ...).
    pub method: String,
    /// The request target's path component (query string stripped).
    pub path: String,
    /// Header `(name, value)` pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First header value with the given (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8, or an error message for the 400 response.
    pub fn body_str(&self) -> Result<&str, String> {
        std::str::from_utf8(&self.body).map_err(|_| "request body is not valid UTF-8".to_string())
    }
}

/// Why a request could not be parsed; maps to a response status.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request (response: 400).
    Bad(String),
    /// Head or body exceeded its size limit (response: 413).
    TooLarge,
    /// The peer closed or the socket failed mid-request — nothing sensible
    /// can be written back.
    Io(std::io::Error),
}

impl HttpError {
    fn bad(msg: &str) -> HttpError {
        HttpError::Bad(msg.to_string())
    }
}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> HttpError {
        HttpError::Io(e)
    }
}

/// Reads and parses one request from the stream.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, HttpError> {
    // Read until the blank line terminating the head, byte-buffered; any
    // body prefix read along the way is kept.
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::TooLarge);
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(HttpError::bad("connection closed mid-request"));
        }
        // aod-lint: allow(P1) -- n <= chunk.len() per Read's contract
        buf.extend_from_slice(&chunk[..n]);
    };

    // aod-lint: allow(P1) -- head_end came from find_head_end over buf
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::bad("request head is not valid UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::bad("missing method"))?
        .to_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::bad("missing request target"))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::bad("missing HTTP version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::bad("unsupported HTTP version"));
    }
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::bad("malformed header line"))?;
        headers.push((name.trim().to_lowercase(), value.trim().to_string()));
    }

    let request = Request {
        method,
        path,
        headers,
        body: Vec::new(),
    };
    if request.header("transfer-encoding").is_some() {
        return Err(HttpError::bad("chunked request bodies are not supported"));
    }
    let content_length = match request.header("content-length") {
        None => 0,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| HttpError::bad("invalid Content-Length"))?,
    };
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge);
    }

    // aod-lint: allow(P1) -- head_end + 4 is where find_head_end's CRLFCRLF ends, <= buf.len()
    let mut body: Vec<u8> = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(HttpError::bad("connection closed mid-body"));
        }
        // aod-lint: allow(P1) -- n <= chunk.len() per Read's contract
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);

    Ok(Request { body, ..request })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// The reason phrase for the status codes this server emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Writes a complete fixed-length response, head and body in one write.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let mut response = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        status,
        status_text(status),
        content_type,
        body.len()
    );
    response.push_str(body);
    stream.write_all(response.as_bytes())
}

/// Writes a JSON response body.
pub fn write_json(stream: &mut TcpStream, status: u16, body: &str) -> std::io::Result<()> {
    write_response(stream, status, "application/json", body)
}

/// A `Transfer-Encoding: chunked` response in progress. Each
/// [`chunk`](ChunkedWriter::chunk) goes out at once, as one write of size
/// line, data and CRLF, so clients observe events as they happen; callers
/// batch whatever is ready into one chunk rather than send many small ones.
pub struct ChunkedWriter<'a> {
    stream: &'a mut TcpStream,
    /// The framed chunk being sent, reused across chunks.
    buf: Vec<u8>,
}

impl<'a> ChunkedWriter<'a> {
    /// Writes the response head and returns the chunk writer.
    pub fn begin(
        stream: &'a mut TcpStream,
        status: u16,
        content_type: &str,
    ) -> std::io::Result<ChunkedWriter<'a>> {
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
            status,
            status_text(status),
            content_type
        );
        stream.write_all(head.as_bytes())?;
        Ok(ChunkedWriter {
            stream,
            buf: Vec::new(),
        })
    }

    /// Writes one chunk (empty data is skipped — an empty chunk would
    /// terminate the stream).
    pub fn chunk(&mut self, data: &str) -> std::io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        self.buf.clear();
        write!(self.buf, "{:x}\r\n", data.len())?;
        self.buf.extend_from_slice(data.as_bytes());
        self.buf.extend_from_slice(b"\r\n");
        self.stream.write_all(&self.buf)
    }

    /// Terminates the stream with the zero-length chunk.
    pub fn finish(self) -> std::io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Round-trips one raw request through a real socket pair.
    fn parse_raw(raw: &[u8]) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
        });
        let (mut conn, _) = listener.accept().unwrap();
        let req = read_request(&mut conn);
        writer.join().unwrap();
        req
    }

    #[test]
    fn parses_request_with_body() {
        let req = parse_raw(
            b"POST /jobs?x=1 HTTP/1.1\r\nHost: x\r\nContent-Length: 9\r\n\r\n{\"a\":  1}",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body_str().unwrap(), "{\"a\":  1}");
    }

    #[test]
    fn parses_bodyless_request() {
        let req = parse_raw(b"GET /health HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/health");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            parse_raw(b"NOT A REQUEST\r\n\r\n"),
            Err(HttpError::Bad(_))
        ));
        assert!(matches!(
            parse_raw(b"GET / HTTP/1.1\r\nContent-Length: abc\r\n\r\n"),
            Err(HttpError::Bad(_))
        ));
        assert!(matches!(
            parse_raw(b"GET / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n"),
            Err(HttpError::TooLarge)
        ));
    }

    #[test]
    fn status_texts_cover_emitted_codes() {
        for code in [200, 201, 202, 400, 404, 405, 409, 413, 429, 500] {
            assert_ne!(status_text(code), "Unknown");
        }
    }
}
