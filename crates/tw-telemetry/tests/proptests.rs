//! Property tests for the HTTP/1.1 request-head reader
//! (`tw_telemetry::http`): arbitrary bytes never panic, every reply that
//! is written is a well-formed status line, and a head over the size bound
//! gets a 431 instead of a hang.

use proptest::prelude::*;
use std::io::{Cursor, Read, Write};
use tw_telemetry::http::{read_request, respond, Response, MAX_HEAD};

/// One side of a connection: reads come from `input`, writes land in
/// `output`.
struct Peer {
    input: Cursor<Vec<u8>>,
    output: Vec<u8>,
}

impl Peer {
    fn new(input: Vec<u8>) -> Self {
        Peer {
            input: Cursor::new(input),
            output: Vec::new(),
        }
    }
}

impl Read for Peer {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.input.read(buf)
    }
}

impl Write for Peer {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.output.write(buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Bytes drawn mostly from the characters HTTP framing cares about, so
/// heads, header lines and `Content-Length` values actually occur.
fn http_ish() -> impl Strategy<Value = Vec<u8>> {
    const ALPHABET: &[u8] = b"\r\n\r\n :GET/0129Content-Length\xff\x00";
    prop::collection::vec(0usize..ALPHABET.len(), 0..600)
        .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
}

fn serve(input: Vec<u8>) -> Vec<u8> {
    let mut peer = Peer::new(input);
    let _ = respond(&mut peer, |req| {
        Response::text("200 OK", format!("{} {}", req.method, req.path))
    });
    peer.output
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..600)) {
        let _ = read_request(&mut bytes.as_slice());
        let reply = serve(bytes);
        prop_assert!(reply.is_empty() || reply.starts_with(b"HTTP/1.1 "));
    }

    #[test]
    fn http_shaped_bytes_never_panic(bytes in http_ish()) {
        let parsed = read_request(&mut bytes.as_slice());
        let reply = serve(bytes);
        match parsed {
            Ok(req) => {
                prop_assert!(reply.starts_with(b"HTTP/1.1 200 OK\r\n"));
                let echo = format!("{} {}", req.method, req.path);
                prop_assert!(reply.ends_with(echo.as_bytes()));
            }
            Err(_) => prop_assert!(reply.is_empty() || reply.starts_with(b"HTTP/1.1 4")),
        }
    }

    #[test]
    fn a_head_over_the_bound_gets_431(extra in 1usize..5_000, terminated in any::<bool>()) {
        let mut input = b"GET /metrics HTTP/1.1\r\nX-Fill: ".to_vec();
        input.resize(MAX_HEAD + extra, b'a');
        if terminated {
            input.extend_from_slice(b"\r\n\r\n");
        }
        let reply = serve(input);
        prop_assert!(reply.starts_with(b"HTTP/1.1 431 "), "{}", String::from_utf8_lossy(&reply));
    }
}
