//! Property tests for the JSONL wire codec the gateway and the remote
//! load generator share: requests survive encode→frame→decode across
//! arbitrary read-chunk boundaries, pipelined lines never bleed into each
//! other, truncation and oversizing surface as typed errors, an
//! oversized line is rejected *without* being buffered wholesale, and
//! hostile JSON (deep nesting, broken surrogate pairs) fails typed.

mod common;

use common::{traced_wire_request, wire_request};
use proptest::prelude::*;
use sam_serve::wire::{
    decode_line, FrameError, FrameReader, WireError, WireLine, WireRequest, WireResponse,
};
use std::io::Read;

/// A reader that hands out its bytes in a caller-chosen chunk pattern,
/// exercising every partial-line path in [`FrameReader`].
struct Chunked {
    data: Vec<u8>,
    pos: usize,
    sizes: Vec<usize>,
    next_size: usize,
}

impl Chunked {
    fn new(data: Vec<u8>, sizes: Vec<usize>) -> Self {
        Chunked {
            data,
            pos: 0,
            sizes,
            next_size: 0,
        }
    }
}

impl Read for Chunked {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.data.len() {
            return Ok(0);
        }
        let wanted = self.sizes[self.next_size % self.sizes.len()].max(1);
        self.next_size += 1;
        let n = wanted.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Frame a reader with a tiny BufReader so chunk boundaries actually
/// reach the framing layer instead of being smoothed over.
fn frame(
    data: Vec<u8>,
    sizes: Vec<usize>,
    max_line: usize,
) -> FrameReader<std::io::BufReader<Chunked>> {
    FrameReader::new(
        std::io::BufReader::with_capacity(7, Chunked::new(data, sizes)),
        max_line,
    )
}

proptest! {
    #[test]
    fn pipelined_requests_round_trip_across_any_chunking(
        ids in proptest::collection::vec(0..1_000_000u64, 1..=12),
        sizes in proptest::collection::vec(1..9usize, 1..=6),
        traces in proptest::collection::vec((any::<bool>(), any::<u64>(), any::<u64>()), 1..=12),
    ) {
        // Some slots carry client-stamped 128-bit trace ids (rendered as
        // 32 hex digits, the wire form) so the codec proves it round
        // trips them byte-exact alongside everything else.
        let requests: Vec<WireRequest> = ids.iter().zip(traces.iter().cycle()).map(|(&id, t)| match t {
            (true, hi, lo) => traced_wire_request(id, &format!("{hi:016x}{lo:016x}")),
            (false, ..) => wire_request(id),
        }).collect();
        let mut stream = Vec::new();
        for req in &requests {
            stream.extend_from_slice(req.encode().as_bytes());
            stream.push(b'\n');
        }
        let mut reader = frame(stream, sizes, 1 << 20);
        for req in &requests {
            let line = reader.next_frame().expect("frame").expect("line present");
            match decode_line(&line).expect("decode") {
                WireLine::Request(decoded) => prop_assert_eq!(&*decoded, req),
                WireLine::Command(c) => panic!("request decoded as command {c:?}"),
            }
        }
        prop_assert!(reader.next_frame().expect("clean EOF").is_none());
        prop_assert_eq!(reader.partial_len(), 0);
    }

    #[test]
    fn truncated_tail_is_a_typed_error_not_a_hang(
        id in 0..1_000_000u64,
        cut in 1..40usize,
        sizes in proptest::collection::vec(1..9usize, 1..=6),
    ) {
        let full = wire_request(id).encode();
        // Keep a complete first line, then a second line cut mid-JSON
        // with no terminator.
        let mut stream = Vec::new();
        stream.extend_from_slice(full.as_bytes());
        stream.push(b'\n');
        let keep = cut.min(full.len() - 1).max(1);
        stream.extend_from_slice(&full.as_bytes()[..keep]);

        let mut reader = frame(stream, sizes, 1 << 20);
        prop_assert!(reader.next_frame().expect("first line").is_some());
        match reader.next_frame() {
            Err(FrameError::Truncated { partial }) => prop_assert_eq!(partial, keep),
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn oversized_line_is_rejected_without_unbounded_buffering(
        limit in 32..256usize,
        excess in 1..64usize,
        sizes in proptest::collection::vec(1..9usize, 1..=6),
    ) {
        // A line strictly longer than the limit, never newline-terminated
        // until the very end.
        let line_len = limit + excess;
        let mut stream = vec![b'x'; line_len];
        stream.push(b'\n');
        let mut reader = frame(stream, sizes, limit);
        match reader.next_frame() {
            Err(FrameError::TooLong { limit: l }) => prop_assert_eq!(l, limit),
            other => panic!("expected TooLong, got {other:?}"),
        }
        // The guard fired *before* the oversized remainder was buffered:
        // the codec never holds more than the limit.
        prop_assert!(
            reader.partial_len() <= limit,
            "buffered {} bytes past a {limit}-byte limit",
            reader.partial_len()
        );
    }

    #[test]
    fn arbitrary_garbage_never_panics_the_decoder(
        bytes in proptest::collection::vec(0..=255u8, 0..=64),
        depth in 0..=20_000usize,
        hi in 0xD800..0xDC00u32,
        lo in 0..=0xFFFFu32,
    ) {
        // decode_line must fail typed (or succeed) on anything — panics
        // here would let one bad client kill a connection worker.
        let _ = decode_line(&bytes);
        // Deep nesting must not overflow the decoding thread's stack:
        // past 128 levels it is a typed error, whatever the shape.
        let open = "[".repeat(depth);
        let balanced = format!("{open}{}", "]".repeat(depth));
        let request = format!(r#"{{"id":1,"topology":"t","protocol":"p","routes":{balanced}}}"#);
        for line in [open, balanced, request] {
            let decoded = decode_line(line.as_bytes());
            if depth > 128 {
                prop_assert!(matches!(decoded, Err(WireError::Json(_))), "depth {depth}");
            }
        }
        // A high surrogate decodes only when a low one follows it;
        // anything else is a typed error, not an arithmetic overflow.
        let line = format!(r#"{{"cmd":"ping","x":"\u{hi:04x}\u{lo:04x}"}}"#);
        let paired = (0xDC00..0xE000).contains(&lo);
        prop_assert_eq!(decode_line(line.as_bytes()).is_ok(), paired, "{}", line);
    }

    #[test]
    fn detector_named_requests_round_trip_and_old_lines_decode_without_one(
        id in 0..1_000_000u64,
        pick in 0..=4usize,
        sizes in proptest::collection::vec(1..9usize, 1..=6),
    ) {
        // pick 0..4 selects a registry name; pick 4 leaves the choice
        // implicit, the pre-redesign request shape.
        let mut req = wire_request(id);
        req.detector = sam::DETECTOR_NAMES.get(pick).map(|n| n.to_string());
        let mut stream = req.encode().into_bytes();
        stream.push(b'\n');
        let mut reader = frame(stream, sizes, 1 << 20);
        let line = reader.next_frame().expect("frame").expect("line present");
        match decode_line(&line).expect("decode") {
            WireLine::Request(decoded) => prop_assert_eq!(&*decoded, &req),
            WireLine::Command(c) => panic!("request decoded as command {c:?}"),
        }
        // A line from a client built before detector selection existed —
        // no `detector` key at all — must decode to the implicit choice.
        let old = format!(
            "{{\"id\":{id},\"topology\":\"synthetic-a\",\"protocol\":\"mr\",\
             \"routes\":[[0,1,6,11]]}}"
        );
        match decode_line(old.as_bytes()).expect("old line decodes") {
            WireLine::Request(decoded) => prop_assert_eq!(decoded.detector, None),
            WireLine::Command(c) => panic!("request decoded as command {c:?}"),
        }
    }

    #[test]
    fn response_detector_and_score_round_trip_and_old_lines_decode(
        id in 0..1_000_000u64,
        score in 0.0..10.0f64,
        pick in 0..=4usize,
    ) {
        let mut resp = WireResponse::error(id, "x");
        resp.detector = sam::DETECTOR_NAMES.get(pick).map(|n| n.to_string());
        resp.score = (pick < 4).then_some(score);
        let back = WireResponse::decode(resp.encode().as_bytes()).expect("decode");
        prop_assert_eq!(back.id, resp.id);
        prop_assert_eq!(&back.status, &resp.status);
        prop_assert_eq!(&back.detector, &resp.detector);
        prop_assert_eq!(back.score, resp.score);
        // A pre-redesign gateway's line carries neither field; a new
        // client must read it as "no detector echoed".
        let old = format!("{{\"id\":{id},\"status\":\"ok\"}}");
        let back = WireResponse::decode(old.as_bytes()).expect("old line decodes");
        prop_assert_eq!(back.detector, None);
        prop_assert_eq!(back.score, None);
    }

    #[test]
    fn invalid_routes_are_rejected_on_validation(
        id in 0..1_000_000u64,
        bad_node in 0..30u32,
    ) {
        // A route with a repeated node violates the Route invariant; the
        // wire layer must catch it at into_request, not panic later.
        let mut req = wire_request(id);
        req.routes.push(vec![bad_node, bad_node + 1, bad_node]);
        let line = req.encode();
        match decode_line(line.as_bytes()).expect("parses as JSON") {
            WireLine::Request(decoded) => {
                prop_assert!(decoded.into_request().is_err(), "looped route accepted");
            }
            WireLine::Command(c) => panic!("request decoded as command {c:?}"),
        }
    }
}
