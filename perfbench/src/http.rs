//! A minimal blocking HTTP/1.1 client for the embedded daemon: one
//! request per connection (the daemon closes after each response),
//! with chunked bodies decoded.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

pub struct Response {
    pub status: u16,
    pub body: String,
    /// When the first bytes of a result row (a `"point"` key) arrived;
    /// `None` when the body holds no row.
    pub first_row_at: Option<Instant>,
}

const ROW_MARKER: &[u8] = b"\"point\"";

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Send one request and read the whole response.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.set_nodelay(true)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;

    let mut raw = Vec::with_capacity(4096);
    let mut buf = [0u8; 16 * 1024];
    let mut first_row_at = None;
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        // Look for the marker in the new bytes plus a marker-length
        // overlap, so one split across two reads is still seen.
        let from = raw.len().saturating_sub(ROW_MARKER.len());
        raw.extend_from_slice(&buf[..n]);
        if first_row_at.is_none()
            && raw[from..]
                .windows(ROW_MARKER.len())
                .any(|w| w == ROW_MARKER)
        {
            first_row_at = Some(Instant::now());
        }
    }
    let text = String::from_utf8(raw).map_err(|_| bad("response is not UTF-8"))?;
    let (head, payload) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| bad("response has no header terminator"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(format!("bad status line in `{head}`")))?;
    let chunked = head.lines().any(|l| {
        let l = l.to_ascii_lowercase();
        l.starts_with("transfer-encoding:") && l.contains("chunked")
    });
    let body = if chunked {
        dechunk(payload)?
    } else {
        payload.to_string()
    };
    Ok(Response {
        status,
        body,
        first_row_at,
    })
}

fn dechunk(mut rest: &str) -> io::Result<String> {
    let mut out = String::new();
    loop {
        let (size_line, after) = rest
            .split_once("\r\n")
            .ok_or_else(|| bad("truncated chunk header"))?;
        let size = usize::from_str_radix(size_line.trim(), 16)
            .map_err(|_| bad(format!("bad chunk size `{size_line}`")))?;
        if size == 0 {
            return Ok(out);
        }
        let chunk = after
            .get(..size)
            .ok_or_else(|| bad("truncated chunk body"))?;
        out.push_str(chunk);
        rest = after
            .get(size + 2..)
            .ok_or_else(|| bad("truncated chunk trailer"))?;
    }
}

/// The value of string field `key` in a flat JSON object.
pub fn json_str_field(body: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\":\"");
    let start = body.find(&tag)? + tag.len();
    let end = body[start..].find('"')? + start;
    Some(body[start..end].to_string())
}

/// The value of numeric field `key` in a flat JSON object.
pub fn json_num_field(body: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\":");
    let start = body.find(&tag)? + tag.len();
    let end = body[start..]
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | 'E' | '+')))
        .map_or(body.len(), |e| e + start);
    body[start..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dechunk_joins_chunks() {
        assert_eq!(
            dechunk("3\r\nabc\r\n2\r\nde\r\n0\r\n\r\n").unwrap(),
            "abcde"
        );
        assert!(dechunk("5\r\nab").is_err());
    }

    #[test]
    fn json_fields() {
        let body = r#"{"job":"j7","points":18,"sum_us":1234,"x":-2.5e1}"#;
        assert_eq!(json_str_field(body, "job").as_deref(), Some("j7"));
        assert_eq!(json_num_field(body, "points"), Some(18.0));
        assert_eq!(json_num_field(body, "x"), Some(-25.0));
        assert_eq!(json_num_field(body, "nope"), None);
    }
}
