//! A minimal HTTP/1.1 wire layer for the nonblocking server.
//!
//! The server is dependency-free by workspace policy, so this module
//! implements exactly the slice of HTTP the data server needs: request
//! line + headers + optional `Content-Length` body, percent-decoded
//! query strings, and keep-alive. The parser is *incremental* — it is
//! handed whatever bytes have accumulated on a connection and either
//! yields a complete request plus the number of bytes it consumed, or
//! reports that more bytes are needed — which is what a readiness loop
//! requires: a request split across any number of TCP segments parses
//! identically to one that arrived whole. Request size is bounded
//! (8 KiB of head, 1 MiB of body) so a slow or hostile client cannot
//! balloon memory.
//!
//! Responses are not formatted here per request: [`write_head`] appends
//! a response head to a caller-provided scratch buffer (reused across
//! requests by the connection that owns it), and precomputed wire
//! responses bypass formatting entirely (see [`crate::state`]).

use std::fmt::Write as _;

/// Upper bound on the request line + headers.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;
/// Upper bound on a request body (`POST /detect` carries a keyfile plus
/// an original-weights listing; 1 MiB is orders of magnitude above any
/// key the schemes produce).
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// Why a request could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// Head or body exceeded the configured bounds.
    TooLarge,
    /// The bytes did not parse as HTTP/1.x.
    Malformed(&'static str),
}

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, ...).
    pub method: String,
    /// Decoded path, without the query string.
    pub path: String,
    /// Decoded `key=value` pairs from the query string, in order.
    pub query: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// True when the client asked for `Connection: close`.
    pub close: bool,
}

impl Request {
    /// First query value under `name`, if present.
    pub fn query_value(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// All query values under `name`, in order (e.g. repeated `claim`
    /// parameters on `POST /detect`).
    pub fn query_values(&self, name: &str) -> Vec<&str> {
        self.query
            .iter()
            .filter(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
            .collect()
    }
}

/// Incremental request parse over a connection's accumulated bytes.
///
/// Returns `Ok(Some((request, consumed)))` when `buf` starts with a
/// complete request (`consumed` bytes of it, including any tolerated
/// leading blank lines), `Ok(None)` when more bytes are needed, and
/// `Err` when the prefix can never become a valid request.
pub fn parse_request(buf: &[u8]) -> Result<Option<(Request, usize)>, RequestError> {
    // tolerate stray blank lines between keep-alive requests
    let mut start = 0;
    while start < buf.len() && (buf[start] == b'\r' || buf[start] == b'\n') {
        start += 1;
    }
    let rest = &buf[start..];
    let Some(head_len) = find_head_end(rest) else {
        if rest.len() > MAX_HEAD_BYTES {
            return Err(RequestError::TooLarge);
        }
        return Ok(None);
    };
    if head_len > MAX_HEAD_BYTES {
        return Err(RequestError::TooLarge);
    }
    let head = std::str::from_utf8(&rest[..head_len])
        .map_err(|_| RequestError::Malformed("head is not UTF-8"))?;

    let mut lines = head.lines();
    let request_line = lines.next().ok_or(RequestError::Malformed("empty head"))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or(RequestError::Malformed("missing method"))?
        .to_ascii_uppercase();
    let target = parts.next().ok_or(RequestError::Malformed("missing target"))?;
    let version = parts.next().ok_or(RequestError::Malformed("missing version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(RequestError::Malformed("not HTTP/1.x"));
    }

    let mut content_length: usize = 0;
    let mut close = false;
    for header in lines {
        if header.is_empty() {
            continue;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(RequestError::Malformed("bad header line"));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        if name == "content-length" {
            content_length = value
                .parse()
                .map_err(|_| RequestError::Malformed("bad content-length"))?;
        } else if name == "connection" && value.eq_ignore_ascii_case("close") {
            close = true;
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(RequestError::TooLarge);
    }
    if rest.len() < head_len + content_length {
        return Ok(None);
    }
    let body = rest[head_len..head_len + content_length].to_vec();

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, parse_query(q)),
        None => (target, Vec::new()),
    };
    Ok(Some((
        Request {
            method,
            path: percent_decode(path),
            query,
            body,
            close,
        },
        start + head_len + content_length,
    )))
}

/// Index one past the blank line terminating the head, accepting both
/// `\r\n\r\n` and bare `\n\n` line endings.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while i < buf.len() {
        if buf[i] == b'\n' {
            match buf.get(i + 1) {
                Some(b'\n') => return Some(i + 2),
                Some(b'\r') if buf.get(i + 2) == Some(&b'\n') => return Some(i + 3),
                _ => {}
            }
        }
        i += 1;
    }
    None
}

/// The standard reason phrase for the statuses the server produces.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Appends a response head to `out` — the scratch-buffer replacement
/// for per-request `format!` assembly. The caller owns (and reuses)
/// `out`; the body follows separately, typically as a shared segment of
/// a precomputed wire response.
pub fn write_head(
    out: &mut Vec<u8>,
    status: u16,
    content_type: &str,
    content_length: usize,
    keep_alive: bool,
) {
    out.extend_from_slice(b"HTTP/1.1 ");
    push_uint(out, status as usize);
    out.push(b' ');
    out.extend_from_slice(reason(status).as_bytes());
    out.extend_from_slice(b"\r\nContent-Type: ");
    out.extend_from_slice(content_type.as_bytes());
    out.extend_from_slice(b"\r\nContent-Length: ");
    push_uint(out, content_length);
    if status == 503 {
        out.extend_from_slice(b"\r\nRetry-After: 1");
    }
    out.extend_from_slice(if keep_alive {
        b"\r\nConnection: keep-alive\r\n\r\n"
    } else {
        b"\r\nConnection: close\r\n\r\n"
    });
}

/// [`write_head`] plus one extra response header, inserted between
/// `Content-Length` and `Connection`. Used by the fingerprint path to
/// attach `X-Fingerprint-Recipient` without disturbing the pinned
/// [`write_head`] wire shape.
pub fn write_head_with(
    out: &mut Vec<u8>,
    status: u16,
    content_type: &str,
    content_length: usize,
    keep_alive: bool,
    header: (&str, &str),
) {
    out.extend_from_slice(b"HTTP/1.1 ");
    push_uint(out, status as usize);
    out.push(b' ');
    out.extend_from_slice(reason(status).as_bytes());
    out.extend_from_slice(b"\r\nContent-Type: ");
    out.extend_from_slice(content_type.as_bytes());
    out.extend_from_slice(b"\r\nContent-Length: ");
    push_uint(out, content_length);
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(header.0.as_bytes());
    out.extend_from_slice(b": ");
    out.extend_from_slice(header.1.as_bytes());
    if status == 503 {
        out.extend_from_slice(b"\r\nRetry-After: 1");
    }
    out.extend_from_slice(if keep_alive {
        b"\r\nConnection: keep-alive\r\n\r\n"
    } else {
        b"\r\nConnection: close\r\n\r\n"
    });
}

/// Appends a decimal integer without going through `format!`.
fn push_uint(out: &mut Vec<u8>, mut value: usize) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

/// Decodes `%XX` escapes and `+`-as-space.
pub fn percent_decode(input: &str) -> String {
    let bytes = input.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                let hex = bytes.get(i + 1..i + 3);
                match hex.and_then(|h| u8::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok()) {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Splits a raw query string into decoded pairs.
pub fn parse_query(raw: &str) -> Vec<(String, String)> {
    raw.split('&')
        .filter(|part| !part.is_empty())
        .map(|part| match part.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(part), String::new()),
        })
        .collect()
}

/// Percent-encodes a string for use inside a query value.
pub fn percent_encode(input: &str) -> String {
    let mut out = String::with_capacity(input.len());
    for b in input.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            other => out.push_str(&format!("%{other:02X}")),
        }
    }
    out
}

/// Escapes a string for embedding in a JSON literal.
pub fn json_escape(input: &str) -> String {
    let mut out = String::with_capacity(input.len() + 2);
    json_escape_into(&mut out, input);
    out
}

/// [`json_escape`], appended to `out` instead of returned.
pub fn json_escape_into(out: &mut String, input: &str) {
    for c in input.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("a%20b+c"), "a b c");
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%2Fpath%3f"), "/path?");
        assert_eq!(percent_decode("plain"), "plain");
    }

    #[test]
    fn query_parsing() {
        let q = parse_query("param=Paris%2C%20TX&i=3&flag");
        assert_eq!(
            q,
            vec![
                ("param".into(), "Paris, TX".into()),
                ("i".into(), "3".into()),
                ("flag".into(), String::new()),
            ]
        );
    }

    #[test]
    fn encode_decode_roundtrip() {
        for s in ["Paris", "a b/c?d&e=f", "100% pure", "naïve"] {
            assert_eq!(percent_decode(&percent_encode(s)), s);
        }
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("plain"), "plain");
    }

    #[test]
    fn parses_a_complete_request_and_reports_consumed() {
        let wire = b"GET /answer?i=3&param=x HTTP/1.1\r\nHost: h\r\n\r\nGET /next";
        let (req, consumed) = parse_request(wire).expect("parses").expect("complete");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/answer");
        assert_eq!(req.query_value("i"), Some("3"));
        assert!(!req.close);
        assert_eq!(&wire[consumed..], b"GET /next", "trailing bytes untouched");
    }

    #[test]
    fn incremental_prefixes_ask_for_more_bytes() {
        let wire = b"POST /detect?claim=1 HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        for cut in 0..wire.len() {
            let parsed = parse_request(&wire[..cut]).expect("no error on any prefix");
            assert!(parsed.is_none(), "cut at {cut} must ask for more bytes");
        }
        assert!(parse_request(wire).expect("parses").is_some());
    }

    #[test]
    fn body_and_repeated_query_values() {
        let wire = b"POST /detect?claim=10&claim=01 HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
        let (req, consumed) = parse_request(wire).expect("parses").expect("complete");
        assert_eq!(req.body, b"body");
        assert_eq!(req.query_values("claim"), vec!["10", "01"]);
        assert_eq!(consumed, wire.len());
    }

    #[test]
    fn tolerates_leading_blank_lines_and_bare_lf() {
        let wire = b"\r\n\nGET /healthz HTTP/1.1\nHost: h\n\n";
        let (req, consumed) = parse_request(wire).expect("parses").expect("complete");
        assert_eq!(req.path, "/healthz");
        assert_eq!(consumed, wire.len());
    }

    #[test]
    fn rejects_oversized_and_malformed_requests() {
        let huge = vec![b'x'; MAX_HEAD_BYTES + 2];
        assert!(matches!(parse_request(&huge), Err(RequestError::TooLarge)));
        let bad = b"GET /x SPDY/3\r\n\r\n";
        assert!(matches!(parse_request(bad), Err(RequestError::Malformed(_))));
        let big_body = b"POST /x HTTP/1.1\r\nContent-Length: 9999999\r\n\r\n";
        assert!(matches!(parse_request(big_body), Err(RequestError::TooLarge)));
    }

    #[test]
    fn connection_close_is_detected() {
        let wire = b"GET /x HTTP/1.1\r\nConnection: close\r\n\r\n";
        let (req, _) = parse_request(wire).expect("parses").expect("complete");
        assert!(req.close);
    }

    #[test]
    fn head_writer_with_extra_header_carries_it_before_connection() {
        let mut out = Vec::new();
        write_head_with(
            &mut out,
            200,
            "application/json",
            7,
            true,
            ("X-Fingerprint-Recipient", "alice"),
        );
        let text = String::from_utf8(out).expect("utf8");
        assert!(
            text.contains("Content-Length: 7\r\nX-Fingerprint-Recipient: alice\r\nConnection: keep-alive\r\n\r\n"),
            "{text}"
        );
        // with the header removed, the shape matches write_head exactly
        let stripped = text.replace("X-Fingerprint-Recipient: alice\r\n", "");
        let mut plain = Vec::new();
        write_head(&mut plain, 200, "application/json", 7, true);
        assert_eq!(stripped.as_bytes(), plain.as_slice());
    }

    #[test]
    fn head_writer_matches_expected_wire_shape() {
        let mut out = Vec::new();
        write_head(&mut out, 200, "application/json", 42, true);
        assert_eq!(
            out,
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 42\r\nConnection: keep-alive\r\n\r\n"
        );
        out.clear();
        write_head(&mut out, 503, "application/json", 0, false);
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.contains("Retry-After: 1"), "{text}");
        assert!(text.ends_with("Connection: close\r\n\r\n"), "{text}");
    }
}
