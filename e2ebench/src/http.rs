//! A blocking HTTP/1.1 client for one request per connection, which is
//! what `wodex serve` speaks (every response carries `Connection: close`).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A complete response: chunked bodies are reassembled and their
/// trailers kept.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub headers: Fields,
    pub body: Vec<u8>,
    pub trailers: Fields,
}

impl Response {
    pub fn header(&self, name: &str) -> Option<&str> {
        find(&self.headers, name)
    }

    pub fn trailer(&self, name: &str) -> Option<&str> {
        find(&self.trailers, name)
    }

    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Header or trailer fields, in order.
type Fields = Vec<(String, String)>;

fn find<'a>(fields: &'a [(String, String)], name: &str) -> Option<&'a str> {
    fields
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

/// Sends one request on a fresh connection and reads the whole response.
/// `Err` means the exchange failed: refused, reset, timed out, or a
/// response that does not parse.
pub fn request(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: &[u8],
    timeout: Duration,
) -> Result<Response, String> {
    let mut s = TcpStream::connect_timeout(&addr, timeout).map_err(|e| e.to_string())?;
    s.set_read_timeout(Some(timeout))
        .map_err(|e| e.to_string())?;
    s.set_write_timeout(Some(timeout))
        .map_err(|e| e.to_string())?;
    let _ = s.set_nodelay(true);
    let head = format!(
        "{method} {target} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    let mut msg = head.into_bytes();
    msg.extend_from_slice(body);
    s.write_all(&msg).map_err(|e| e.to_string())?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).map_err(|e| e.to_string())?;
    parse_response(&raw)
}

pub fn get(addr: SocketAddr, target: &str, timeout: Duration) -> Result<Response, String> {
    request(addr, "GET", target, &[], timeout)
}

pub fn post(
    addr: SocketAddr,
    target: &str,
    body: &[u8],
    timeout: Duration,
) -> Result<Response, String> {
    request(addr, "POST", target, body, timeout)
}

fn parse_response(raw: &[u8]) -> Result<Response, String> {
    let end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("truncated response head")?;
    let head = std::str::from_utf8(&raw[..end]).map_err(|e| e.to_string())?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or("empty response")?;
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let headers = fields(lines);
    let rest = &raw[end + 4..];
    let chunked =
        find(&headers, "transfer-encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked"));
    let (body, trailers) = if chunked {
        dechunk(rest)?
    } else {
        let body = match find(&headers, "content-length") {
            Some(n) => {
                let n: usize = n.trim().parse().map_err(|_| "bad content-length")?;
                if rest.len() < n {
                    return Err(format!("body truncated: {} of {n} bytes", rest.len()));
                }
                rest[..n].to_vec()
            }
            None => rest.to_vec(),
        };
        (body, Vec::new())
    };
    Ok(Response {
        status,
        headers,
        body,
        trailers,
    })
}

fn fields<'a>(lines: impl Iterator<Item = &'a str>) -> Fields {
    lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect()
}

/// Reassembles a chunked body; the terminal chunk must be present.
fn dechunk(mut rest: &[u8]) -> Result<(Vec<u8>, Fields), String> {
    let mut body = Vec::new();
    loop {
        let eol = rest
            .windows(2)
            .position(|w| w == b"\r\n")
            .ok_or("truncated chunk size")?;
        let size_text = std::str::from_utf8(&rest[..eol]).map_err(|e| e.to_string())?;
        let size_text = size_text.split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size_text, 16)
            .map_err(|_| format!("bad chunk size {size_text:?}"))?;
        rest = &rest[eol + 2..];
        if size == 0 {
            let text = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
            if !text.ends_with("\r\n") {
                return Err("truncated trailer section".to_string());
            }
            let trailers = fields(text.split("\r\n").filter(|l| !l.is_empty()));
            return Ok((body, trailers));
        }
        if rest.len() < size + 2 {
            return Err("truncated chunk".to_string());
        }
        body.extend_from_slice(&rest[..size]);
        rest = &rest[size + 2..];
    }
}

/// Percent-encodes a query-parameter value.
pub fn enc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() * 3);
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_fixed_and_chunked_responses() {
        let r = parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi").unwrap();
        assert_eq!((r.status, r.body.as_slice()), (200, &b"hi"[..]));
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nTrailer: X-Rows\r\n\r\n3\r\nabc\r\n2\r\nde\r\n0\r\nX-Rows: 5\r\n\r\n";
        let r = parse_response(raw).unwrap();
        assert_eq!(r.text(), "abcde");
        assert_eq!(r.trailer("x-rows"), Some("5"));
        // A stream cut before its terminal chunk is an error, not a body.
        assert!(parse_response(
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n"
        )
        .is_err());
    }

    #[test]
    fn encodes_iris() {
        assert_eq!(enc("http://a.b/c d"), "http%3A%2F%2Fa.b%2Fc%20d");
    }
}
