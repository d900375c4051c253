//! Minimal HTTP/1.1 over [`std::net::TcpStream`]: exactly what the
//! campaign API needs — request line + headers + `Content-Length` body in,
//! `Connection: close` response out — and a matching blocking client for
//! tests, benches and CI probes. No keep-alive, no chunked encoding, no
//! TLS; every connection carries one request.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Headers are rejected past this many bytes (per request).
const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Bodies are rejected past this many bytes (a campaign spec is KBs).
const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// One parsed request.
pub struct Request {
    /// Uppercase method (`GET`, `POST`, ...).
    pub method: String,
    /// Request path, query string included verbatim.
    pub path: String,
    /// Decoded body (empty when there was none).
    pub body: String,
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Read one line of the header block, charging it to `budget` (the header
/// bytes still allowed). The read stops one byte past the budget, so an
/// endless line fails as `headers too large` instead of growing a buffer.
fn read_header_line(reader: &mut impl BufRead, budget: &mut usize) -> io::Result<String> {
    let mut line = Vec::new();
    let n = reader
        .take(*budget as u64 + 1)
        .read_until(b'\n', &mut line)?;
    if n > *budget {
        return Err(bad("headers too large"));
    }
    *budget -= n;
    String::from_utf8(line).map_err(|_| bad("headers are not utf-8"))
}

/// Read and parse one request from the stream.
pub fn read_request(stream: &mut TcpStream) -> io::Result<Request> {
    let mut reader = BufReader::new(stream);
    let mut budget = MAX_HEADER_BYTES;
    let line = read_header_line(&mut reader, &mut budget)?;
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or_else(|| bad("empty request line"))?;
    let path = parts
        .next()
        .ok_or_else(|| bad("request line without path"))?;
    let (method, path) = (method.to_string(), path.to_string());

    let mut content_length = 0usize;
    loop {
        let h = read_header_line(&mut reader, &mut budget)?;
        if h.is_empty() {
            return Err(bad("connection closed mid-headers"));
        }
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some((name, value)) = h.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad("bad content-length"))?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(bad("body too large"));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body).map_err(|_| bad("body is not utf-8"))?;
    Ok(Request { method, path, body })
}

/// Write a full response and close the connection (via `Connection:
/// close`; the caller drops the stream).
pub fn respond(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

/// Blocking one-shot client request; returns `(status, body)`.
pub fn request(addr: &str, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(std::time::Duration::from_secs(30)))?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(format!("bad status line `{}`", status_line.trim())))?;
    loop {
        let mut h = String::new();
        if reader.read_line(&mut h)? == 0 {
            return Err(bad("connection closed mid-headers"));
        }
        if h.trim_end().is_empty() {
            break;
        }
    }
    // `Connection: close` means the body is everything up to EOF.
    let mut body = String::new();
    reader.read_to_string(&mut body)?;
    Ok((status, body))
}

/// `GET path` against `addr`; returns `(status, body)`.
pub fn get(addr: &str, path: &str) -> io::Result<(u16, String)> {
    request(addr, "GET", path, "")
}

/// `POST body` to `path` on `addr`; returns `(status, body)`.
pub fn post(addr: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
    request(addr, "POST", path, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{Shutdown, TcpListener};

    /// Send `head` over loopback, half-close, and parse it server-side.
    fn parse_sent(head: Vec<u8>) -> io::Result<Request> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(&head).unwrap();
            stream.shutdown(Shutdown::Write).unwrap();
            stream
        });
        let (mut server, _) = listener.accept().unwrap();
        let parsed = read_request(&mut server);
        // Keep both ends open until the client has written everything.
        drop(client.join().unwrap());
        parsed
    }

    #[test]
    fn oversized_header_lines_fail_at_the_budget() {
        // A request line that never ends.
        let mut head = b"GET /".to_vec();
        head.resize(20_000, b'a');
        let err = parse_sent(head).err().expect("oversized request line");
        assert_eq!(err.to_string(), "headers too large");
        // A well-formed request line followed by one huge header.
        let mut head = b"GET / HTTP/1.1\r\nX-Big: ".to_vec();
        head.resize(20_000, b'a');
        head.extend_from_slice(b"\r\n\r\n");
        let err = parse_sent(head).err().expect("oversized header line");
        assert_eq!(err.to_string(), "headers too large");
        // The budget leaves ordinary requests alone.
        let req = parse_sent(b"POST /x HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi".to_vec()).unwrap();
        assert_eq!((req.method.as_str(), req.path.as_str()), ("POST", "/x"));
        assert_eq!(req.body, "hi");
    }
}
