//! The gateway wire protocol: newline-delimited JSON with length-guarded
//! framing and typed decode errors.
//!
//! The codec is transport-free — it works over any [`BufRead`] — so the
//! same code serves `sam-gateway`'s connection handlers, `loadgen
//! --remote`'s client threads, and pure in-memory property tests. One TCP
//! helper sits on top: [`round_trip`], the client side of a command.
//!
//! ## Protocol
//!
//! One JSON object per line, `\n`-terminated (a trailing `\r` is
//! tolerated; blank lines are skipped). Three line shapes:
//!
//! **Request** — a detection request:
//!
//! ```json
//! {"id":7,"topology":"uniform6x6","protocol":"mr","routes":[[0,3,9,11],[0,4,8,11]],"probe_ack_ratio":null}
//! ```
//!
//! **Command** — a control message (`{"cmd":"ping"}`, `{"cmd":"drain"}`,
//! `{"cmd":"stats"}`). `stats` takes optional arguments:
//! `{"cmd":"stats","window":10,"format":"prometheus"}` narrows the
//! windows to the one requested and adds a Prometheus-style text
//! exposition in `stats_text`.
//!
//! **Response** — the server's answer, one line per request, in request
//! order per connection:
//!
//! ```json
//! {"id":7,"status":"ok","verdict":{...},"profile_cache_hit":true,"explanation":null,"queue_depth":null,"error":null}
//! {"id":8,"status":"shed","verdict":null,"profile_cache_hit":null,"explanation":null,"queue_depth":256,"error":null}
//! ```
//!
//! `status` is `"ok"`, `"shed"` (the 503-style overload signal, carrying
//! the queue depth the request collided with), `"draining"` (drain
//! acknowledged; the socket will close), `"unknown_detector"` (the
//! request's optional `"detector"` field named a detector outside the
//! registry; `error` lists the known names and the connection stays
//! open), or `"error"` (malformed input; `error` holds the reason, `id`
//! is 0 when the line never parsed far enough to have one).
//!
//! ## Framing guarantees
//!
//! [`FrameReader`] never buffers more than `max_line` bytes of an
//! unterminated line: an oversized frame is rejected with
//! [`FrameError::TooLong`] *before* the rest of it is read, and EOF in
//! the middle of a line is a typed [`FrameError::Truncated`], not a
//! silent partial decode. Reads interrupted by socket timeouts surface
//! the [`io::Error`] and preserve the partial line, so a later call
//! resumes exactly where the stream stopped.

use crate::request::{DetectionRequest, DetectionResponse, ProfileKey, StageTiming, Verdict};
use crate::stats::StatsReport;
use crate::trace::TraceExemplar;
use manet_routing::Route;
use manet_sim::NodeId;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Default cap on one encoded line, request or response (1 MiB).
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// `status` of a successfully served request.
pub const STATUS_OK: &str = "ok";
/// `status` of a request shed by overload (503-equivalent).
pub const STATUS_SHED: &str = "shed";
/// `status` of a request naming a detector the gateway's registry does
/// not hold. Typed like the stats-window errors: the connection stays
/// open, `error` names the known detectors.
pub const STATUS_UNKNOWN_DETECTOR: &str = "unknown_detector";
/// `status` acknowledging a `drain` command.
pub const STATUS_DRAINING: &str = "draining";
/// `status` of a line the server could not serve.
pub const STATUS_ERROR: &str = "error";

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Why a frame could not be produced.
#[derive(Debug)]
pub enum FrameError {
    /// A line exceeded the length cap. The reader stopped consuming the
    /// moment the cap was crossed — the remainder of the oversized line
    /// was never buffered. The connection cannot resynchronize and must
    /// be closed.
    TooLong {
        /// The configured cap that was exceeded.
        limit: usize,
    },
    /// The stream ended mid-line: `partial` bytes arrived with no
    /// terminating newline.
    Truncated {
        /// Bytes of the unterminated line.
        partial: usize,
    },
    /// The underlying read failed. `WouldBlock`/`TimedOut` are the benign
    /// socket-timeout cases: the partial line is preserved and the next
    /// call resumes.
    Io(io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::TooLong { limit } => write!(f, "frame exceeds {limit} bytes"),
            FrameError::Truncated { partial } => {
                write!(f, "stream ended mid-line ({partial} bytes unterminated)")
            }
            FrameError::Io(e) => write!(f, "read error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl FrameError {
    /// Whether this is a socket-timeout interruption the caller should
    /// retry rather than a real failure.
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            FrameError::Io(e) if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            )
        )
    }
}

/// A length-guarded line framer over any [`BufRead`].
///
/// Partial-line state lives in the reader, so a socket read timeout in
/// the middle of a line loses nothing: the error is surfaced, and the
/// next [`next_frame`](FrameReader::next_frame) call continues from the
/// bytes already consumed.
pub struct FrameReader<R> {
    inner: R,
    partial: Vec<u8>,
    max_line: usize,
}

impl<R: BufRead> FrameReader<R> {
    /// Frame `inner` with lines capped at `max_line` bytes.
    pub fn new(inner: R, max_line: usize) -> Self {
        FrameReader {
            inner,
            partial: Vec::new(),
            max_line,
        }
    }

    /// The next complete line (without its terminator), `Ok(None)` at a
    /// clean EOF.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        loop {
            let buf = match self.inner.fill_buf() {
                Ok(b) => b,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(FrameError::Io(e)),
            };
            if buf.is_empty() {
                if self.partial.is_empty() {
                    return Ok(None);
                }
                return Err(FrameError::Truncated {
                    partial: self.partial.len(),
                });
            }
            match buf.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    if self.partial.len() + pos > self.max_line {
                        return Err(FrameError::TooLong {
                            limit: self.max_line,
                        });
                    }
                    let mut line = std::mem::take(&mut self.partial);
                    line.extend_from_slice(&buf[..pos]);
                    self.inner.consume(pos + 1);
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    if line.is_empty() {
                        continue; // tolerate keepalive blank lines
                    }
                    return Ok(Some(line));
                }
                None => {
                    let n = buf.len();
                    if self.partial.len() + n > self.max_line {
                        // Reject before buffering the oversized remainder.
                        return Err(FrameError::TooLong {
                            limit: self.max_line,
                        });
                    }
                    self.partial.extend_from_slice(buf);
                    self.inner.consume(n);
                }
            }
        }
    }

    /// Bytes of unterminated line currently held (diagnostics/tests).
    pub fn partial_len(&self) -> usize {
        self.partial.len()
    }
}

// ---------------------------------------------------------------------------
// Line decoding
// ---------------------------------------------------------------------------

/// Why a framed line could not be decoded into a request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The line is not UTF-8.
    Utf8,
    /// The line is not valid JSON, or not the expected object shape.
    Json(String),
    /// A route failed validation (too short, or a repeated node).
    Route {
        /// Index of the offending route within `routes`.
        index: usize,
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Utf8 => write!(f, "line is not UTF-8"),
            WireError::Json(e) => write!(f, "bad JSON: {e}"),
            WireError::Route { index, reason } => {
                write!(f, "invalid route at index {index}: {reason}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// One detection request as it crosses the wire. Flat key fields keep the
/// protocol self-describing; routes are plain node-id arrays, validated
/// into [`Route`]s (no short or looped paths) on decode.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WireRequest {
    /// Caller-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Deployment topology family (profile-cache key part).
    pub topology: String,
    /// Routing protocol identifier (profile-cache key part).
    pub protocol: String,
    /// Node-id sequences of the discovered routes.
    pub routes: Vec<Vec<u32>>,
    /// Observed probe ACK ratio, if the requester probed (see
    /// [`DetectionRequest::probe_ack_ratio`]).
    pub probe_ack_ratio: Option<f64>,
    /// Which registered detector should judge the routes (`"sam"`,
    /// `"zscore"`, `"geometric"`, `"ensemble"`). Absent → `"sam"`, the
    /// pre-registry behaviour; unknown names get a typed
    /// [`STATUS_UNKNOWN_DETECTOR`] response, not a disconnect.
    pub detector: Option<String>,
    /// When `true`, the gateway returns the per-stage latency breakdown
    /// (`queue_wait_us`/`compute_us`/`serialize_us`) in the response's
    /// `timings` field. Absent → `false`.
    #[serde(default)]
    pub timings: bool,
    /// Client-stamped trace id (32 hex digits). The gateway adopts it for
    /// the request's spans and echoes it on the response; absent or
    /// unparseable → the gateway mints its own.
    pub trace: Option<String>,
}

impl WireRequest {
    /// Validate into a service request. Every route must satisfy the
    /// [`Route`] invariants — wire input never bypasses them. The routes
    /// are converted in place: each route keeps its id list's allocation
    /// and the route set its list's.
    pub fn into_request(self) -> Result<DetectionRequest, WireError> {
        let routes = self
            .routes
            .into_iter()
            .enumerate()
            .map(|(index, ids)| {
                Route::new(ids.into_iter().map(NodeId).collect()).map_err(|e| WireError::Route {
                    index,
                    reason: e.to_string(),
                })
            })
            .collect::<Result<Vec<Route>, _>>()?;
        Ok(DetectionRequest {
            id: self.id,
            key: ProfileKey::new(self.topology, self.protocol),
            routes,
            probe_ack_ratio: self.probe_ack_ratio,
            detector: self.detector,
        })
    }

    /// Encode as one protocol line (no terminator).
    pub fn encode(&self) -> String {
        serde_json::to_string(self).expect("wire request serializes")
    }
}

/// A control message: the command name plus its optional arguments
/// (today only `stats` takes any).
#[derive(Clone, Debug, PartialEq)]
pub struct WireCommand {
    /// The command name: `"ping"`, `"drain"`, `"stats"`, ….
    pub cmd: String,
    /// For `stats`: answer only the window covering this many seconds
    /// (`{"window":10}`). Absent → the server's default window set.
    pub window_s: Option<u64>,
    /// For `stats`: `"prometheus"` adds the text exposition to the
    /// response's `stats_text` field. Absent or `"json"` → JSON only.
    pub format: Option<String>,
    /// For `trace`: return at most this many exemplars, newest last.
    /// Absent → every exemplar currently in the sampler ring.
    pub limit: Option<u64>,
}

impl WireCommand {
    /// A bare command with no arguments.
    pub fn bare(cmd: impl Into<String>) -> Self {
        WireCommand {
            cmd: cmd.into(),
            window_s: None,
            format: None,
            limit: None,
        }
    }

    /// Encode as one protocol line (no terminator).
    pub fn encode(&self) -> String {
        let mut fields = vec![("cmd".to_string(), serde::Value::Str(self.cmd.clone()))];
        if let Some(w) = self.window_s {
            fields.push(("window".to_string(), serde::Value::UInt(w)));
        }
        if let Some(f) = &self.format {
            fields.push(("format".to_string(), serde::Value::Str(f.clone())));
        }
        if let Some(n) = self.limit {
            fields.push(("limit".to_string(), serde::Value::UInt(n)));
        }
        serde_json::to_string(&serde::Value::Object(fields)).expect("wire command serializes")
    }
}

/// A successfully decoded protocol line.
#[derive(Clone, Debug, PartialEq)]
pub enum WireLine {
    /// A detection request (unvalidated routes — call
    /// [`WireRequest::into_request`]).
    Request(Box<WireRequest>),
    /// A control command (`"ping"`, `"drain"`, `"stats"`, …).
    Command(WireCommand),
}

/// Decode one framed line into a request or command.
///
/// The line is parsed once, straight into a [`WireRequest`]. A top-level
/// `cmd` key, which no request declares, makes the line a command
/// instead, whatever else it carries: its arguments are read from the
/// keys the request skipped.
pub fn decode_line(bytes: &[u8]) -> Result<WireLine, WireError> {
    let text = std::str::from_utf8(bytes).map_err(|_| WireError::Utf8)?;
    let (request, unknown) = serde_json::from_str_with_unknown::<WireRequest>(text)
        .map_err(|e| WireError::Json(e.to_string()))?;
    let Some(cmd) = command_arg(&unknown, "cmd", "\"cmd\" must be a string")? else {
        return request
            .map(|req| WireLine::Request(Box::new(req)))
            .map_err(|e| WireError::Json(e.to_string()));
    };
    Ok(WireLine::Command(WireCommand {
        cmd,
        window_s: command_arg(&unknown, "window", "\"window\" must be seconds")?.flatten(),
        format: command_arg(&unknown, "format", "\"format\" must be a string")?.flatten(),
        limit: command_arg(&unknown, "limit", "\"limit\" must be a count")?.flatten(),
    }))
}

/// The first `name` among a line's undeclared keys, read as a `T`;
/// `None` when absent, and the error `err` when not a `T`.
fn command_arg<T: Deserialize>(
    unknown: &serde_json::Unknown<'_>,
    name: &str,
    err: &str,
) -> Result<Option<T>, WireError> {
    unknown
        .iter()
        .find(|(key, _)| key == name)
        .map(|(_, raw)| serde_json::from_str(raw).map_err(|_| WireError::Json(err.to_string())))
        .transpose()
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// One response line. A flat struct (rather than an enum) keeps every
/// field addressable by `jq` without knowing the variant encoding; the
/// `status` constants above discriminate.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WireResponse {
    /// Correlation id from the request (0 when the line had none).
    pub id: u64,
    /// `"ok"`, `"shed"`, `"draining"`, `"unknown_detector"`, or
    /// `"error"`.
    pub status: String,
    /// Name of the detector that judged the routes, on `"ok"` (echoed
    /// even when the request left the choice implicit).
    pub detector: Option<String>,
    /// The detector's normalized anomaly score (1.0 = the decision
    /// boundary), on `"ok"`.
    pub score: Option<f64>,
    /// The verdict, on `"ok"`.
    pub verdict: Option<Verdict>,
    /// Whether the profile came from the shard's cache, on `"ok"`.
    pub profile_cache_hit: Option<bool>,
    /// The verdict explanation, when the gateway runs with explanations
    /// enabled.
    pub explanation: Option<sam::Explanation>,
    /// Queue depth observed at shed time, on `"shed"`.
    pub queue_depth: Option<u64>,
    /// Per-stage latency breakdown, when the request set `"timings":
    /// true`. The gateway fills `serialize_us` after encoding the
    /// response body.
    pub timings: Option<StageTiming>,
    /// The windowed stats report, answering `{"cmd":"stats"}`.
    pub stats: Option<StatsReport>,
    /// Prometheus-style text exposition of `stats`, when the command
    /// asked for `"format":"prometheus"`.
    pub stats_text: Option<String>,
    /// The request's trace id (32 hex digits), echoed when the gateway
    /// runs with `--trace`.
    pub trace: Option<String>,
    /// Recent tail-sampled exemplars, answering `{"cmd":"trace"}`.
    pub exemplars: Option<Vec<TraceExemplar>>,
    /// Failure reason, on `"error"`.
    pub error: Option<String>,
}

impl WireResponse {
    /// A served verdict.
    pub fn ok(resp: DetectionResponse) -> Self {
        WireResponse {
            id: resp.id,
            detector: Some(resp.detector),
            score: Some(resp.score),
            verdict: Some(resp.verdict),
            profile_cache_hit: Some(resp.profile_cache_hit),
            explanation: resp.explanation,
            ..WireResponse::ok_empty()
        }
    }

    /// Attach the per-stage breakdown (requests with `"timings": true`).
    pub fn with_timings(mut self, timings: StageTiming) -> Self {
        self.timings = Some(timings);
        self
    }

    /// Echo the request's trace id (gateways running with `--trace`).
    pub fn with_trace(mut self, trace: impl Into<String>) -> Self {
        self.trace = Some(trace.into());
        self
    }

    /// The answer to `{"cmd":"trace"}`: recent tail-sampled exemplars,
    /// newest last.
    pub fn trace_exemplars(exemplars: Vec<TraceExemplar>) -> Self {
        let mut resp = WireResponse::ok_empty();
        resp.exemplars = Some(exemplars);
        resp
    }

    /// The answer to `{"cmd":"stats"}`: a windowed report, plus the
    /// Prometheus text exposition when the command asked for it.
    pub fn stats(report: StatsReport, text: Option<String>) -> Self {
        WireResponse {
            stats: Some(report),
            stats_text: text,
            ..WireResponse::ok_empty()
        }
    }

    /// A verdict-free `"ok"` — the `ping` reply, and the one place every
    /// field is listed: the other constructors override what they carry.
    pub fn ok_empty() -> Self {
        WireResponse {
            id: 0,
            status: STATUS_OK.to_string(),
            detector: None,
            score: None,
            verdict: None,
            profile_cache_hit: None,
            explanation: None,
            queue_depth: None,
            timings: None,
            stats: None,
            stats_text: None,
            trace: None,
            exemplars: None,
            error: None,
        }
    }

    /// The overload signal: request `id` was shed at `queue_depth`.
    pub fn shed(id: u64, queue_depth: usize) -> Self {
        WireResponse {
            id,
            status: STATUS_SHED.to_string(),
            queue_depth: Some(queue_depth as u64),
            ..WireResponse::ok_empty()
        }
    }

    /// Drain acknowledged.
    pub fn draining(id: u64) -> Self {
        WireResponse {
            id,
            status: STATUS_DRAINING.to_string(),
            ..WireResponse::ok_empty()
        }
    }

    /// The typed rejection of a request naming an unregistered
    /// detector: `status` is [`STATUS_UNKNOWN_DETECTOR`], `detector`
    /// echoes the bad name, and `error` lists the known ones. The
    /// connection stays open — mirroring the typed stats-window errors.
    pub fn unknown_detector(id: u64, name: &str) -> Self {
        let mut resp = WireResponse::error(
            id,
            format!(
                "unknown detector `{name}` (known: {})",
                sam::DETECTOR_NAMES.join(", ")
            ),
        );
        resp.status = STATUS_UNKNOWN_DETECTOR.to_string();
        resp.detector = Some(name.to_string());
        resp
    }

    /// A typed failure for line `id` (0 when unknown).
    pub fn error(id: u64, reason: impl Into<String>) -> Self {
        WireResponse {
            id,
            status: STATUS_ERROR.to_string(),
            error: Some(reason.into()),
            ..WireResponse::ok_empty()
        }
    }

    /// Encode as one protocol line (no terminator).
    pub fn encode(&self) -> String {
        serde_json::to_string(self).expect("wire response serializes")
    }

    /// Decode a response line (the client side of the protocol).
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let text = std::str::from_utf8(bytes).map_err(|_| WireError::Utf8)?;
        serde_json::from_str(text).map_err(|e| WireError::Json(e.to_string()))
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// One command round trip: connect to `addr`, write `cmd`, and read and
/// decode the one response line. Callers check the status themselves.
pub fn round_trip(
    addr: &str,
    cmd: &WireCommand,
    timeout: Duration,
) -> Result<WireResponse, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_read_timeout(Some(timeout)).ok();
    stream.set_write_timeout(Some(timeout)).ok();
    stream.set_nodelay(true).ok();
    let mut reader = FrameReader::new(
        BufReader::new(stream.try_clone().map_err(|e| e.to_string())?),
        MAX_LINE_BYTES,
    );
    (&stream)
        .write_all((cmd.encode() + "\n").as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let line = reader
        .next_frame()
        .map_err(|e| format!("read: {e}"))?
        .ok_or_else(|| format!("connection closed before answering {}", cmd.cmd))?;
    WireResponse::decode(&line).map_err(|e| format!("decode: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn req(id: u64) -> WireRequest {
        WireRequest {
            id,
            topology: "uniform6x6".to_string(),
            protocol: "mr".to_string(),
            routes: vec![vec![0, 3, 9, 11], vec![0, 4, 8, 11]],
            probe_ack_ratio: if id.is_multiple_of(2) {
                None
            } else {
                Some(0.25)
            },
            detector: if id.is_multiple_of(5) {
                Some("ensemble".to_string())
            } else {
                None
            },
            timings: id.is_multiple_of(3),
            trace: if id.is_multiple_of(2) {
                None
            } else {
                Some(format!("{:032x}", id))
            },
        }
    }

    #[test]
    fn request_lines_round_trip_through_framer_and_decoder() {
        let wire: String = (0..5).map(|i| req(i).encode() + "\n").collect();
        let mut reader = FrameReader::new(Cursor::new(wire.into_bytes()), MAX_LINE_BYTES);
        for i in 0..5 {
            let line = reader.next_frame().unwrap().expect("frame present");
            match decode_line(&line).unwrap() {
                WireLine::Request(r) => assert_eq!(*r, req(i)),
                other => panic!("expected request, got {other:?}"),
            }
        }
        assert!(reader.next_frame().unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn validation_rejects_looped_and_short_routes() {
        let mut bad = req(1);
        bad.routes.push(vec![7]);
        match bad.clone().into_request() {
            Err(WireError::Route { index: 2, .. }) => {}
            other => panic!("expected short-route error, got {other:?}"),
        }
        bad.routes[2] = vec![0, 5, 5, 9];
        match bad.into_request() {
            Err(WireError::Route { index: 2, reason }) => {
                assert!(reason.contains("twice"), "{reason}")
            }
            other => panic!("expected loop error, got {other:?}"),
        }
    }

    #[test]
    fn detection_requests_decode_only_valid_routes() {
        let line = |routes: &str| {
            format!(
                r#"{{"id":1,"key":{{"topology":"t","protocol":"mr"}},"routes":[[0,1,2],{routes}],"probe_ack_ratio":null,"detector":null}}"#
            )
        };
        let ok: DetectionRequest = serde_json::from_str(&line("[2,3]")).unwrap();
        assert_eq!(ok.routes.len(), 2);
        assert_eq!(ok.routes[1].nodes(), &[NodeId(2), NodeId(3)]);
        for (refused, why) in [
            ("[1,2,1]", "twice"),
            ("[1]", "fewer than two"),
            ("[]", "fewer than two"),
        ] {
            let err = serde_json::from_str::<DetectionRequest>(&line(refused)).expect_err(refused);
            assert!(err.to_string().contains(why), "{refused}: {err}");
        }
    }

    #[test]
    fn commands_and_garbage_decode_as_typed_results() {
        match decode_line(b"{\"cmd\":\"drain\"}").unwrap() {
            WireLine::Command(c) => assert_eq!(c, WireCommand::bare("drain")),
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            decode_line(b"{\"cmd\":7}"),
            Err(WireError::Json(_))
        ));
        assert!(matches!(decode_line(b"not json"), Err(WireError::Json(_))));
        assert!(matches!(decode_line(&[0xFF, 0xFE]), Err(WireError::Utf8)));
    }

    #[test]
    fn null_timings_and_a_missing_id_are_typed_errors() {
        // An absent `timings` key reads as `false`, but `null` is a value,
        // and not a bool.
        let line = br#"{"id":1,"topology":"t","protocol":"p","routes":[[0,1,2]],"timings":null}"#;
        assert!(matches!(decode_line(line), Err(WireError::Json(_))));
        match decode_line(br#"{"topology":"t","protocol":"p","routes":[]}"#) {
            Err(WireError::Json(e)) => assert!(e.ends_with("missing field `id`"), "{e}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stats_command_arguments_round_trip() {
        let cmd = WireCommand {
            cmd: "stats".to_string(),
            window_s: Some(10),
            format: Some("prometheus".to_string()),
            limit: None,
        };
        match decode_line(cmd.encode().as_bytes()).unwrap() {
            WireLine::Command(c) => assert_eq!(c, cmd),
            other => panic!("{other:?}"),
        }
        // Explicit nulls read as absent arguments.
        match decode_line(b"{\"cmd\":\"stats\",\"window\":null,\"format\":null}").unwrap() {
            WireLine::Command(c) => assert_eq!(c, WireCommand::bare("stats")),
            other => panic!("{other:?}"),
        }
        // Typed argument errors, not silent drops.
        assert!(matches!(
            decode_line(b"{\"cmd\":\"stats\",\"window\":\"ten\"}"),
            Err(WireError::Json(_))
        ));
        assert!(matches!(
            decode_line(b"{\"cmd\":\"stats\",\"format\":7}"),
            Err(WireError::Json(_))
        ));
    }

    #[test]
    fn unknown_future_fields_are_ignored_and_trace_rides_along() {
        // A client from the future sends keys this build has never heard
        // of: the decoder must take what it knows and drop the rest —
        // that leniency is exactly what let `trace` itself ship.
        let line = br#"{"id":4,"topology":"t","protocol":"p","routes":[[0,1,2]],"deadline_us":500,"priority":"high","trace":"000000000000002a000000000000007b"}"#;
        match decode_line(line).unwrap() {
            WireLine::Request(r) => {
                assert_eq!(r.id, 4);
                assert_eq!(r.trace.as_deref(), Some("000000000000002a000000000000007b"));
            }
            other => panic!("{other:?}"),
        }
        // Commands tolerate unknown keys the same way.
        match decode_line(b"{\"cmd\":\"trace\",\"limit\":5,\"verbosity\":2}").unwrap() {
            WireLine::Command(c) => {
                assert_eq!(c.cmd, "trace");
                assert_eq!(c.limit, Some(5));
            }
            other => panic!("{other:?}"),
        }
        // Explicit null trace reads as absent; a stamped one round-trips
        // through encode.
        let mut stamped = req(2);
        stamped.trace = Some("ffffffffffffffff0000000000000001".to_string());
        match decode_line(stamped.encode().as_bytes()).unwrap() {
            WireLine::Request(r) => assert_eq!(*r, stamped),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn trace_rides_the_response_when_attached() {
        let resp = WireResponse::ok_empty().with_trace("000000000000002a000000000000007b");
        let back = WireResponse::decode(resp.encode().as_bytes()).unwrap();
        assert_eq!(
            back.trace.as_deref(),
            Some("000000000000002a000000000000007b")
        );
    }

    #[test]
    fn oversized_line_is_rejected_without_buffering_the_rest() {
        // 64 KiB of 'a' with no newline, capped at 1 KiB: the reader must
        // give up within one fill_buf of the cap, not swallow the lot.
        let blob = vec![b'a'; 64 * 1024];
        let mut reader = FrameReader::new(Cursor::new(blob), 1024);
        match reader.next_frame() {
            Err(FrameError::TooLong { limit: 1024 }) => {}
            other => panic!("expected TooLong, got {other:?}"),
        }
        assert!(
            reader.partial_len() <= 1024,
            "buffered {} bytes past the cap",
            reader.partial_len()
        );
    }

    #[test]
    fn truncated_stream_is_a_typed_error() {
        let mut reader = FrameReader::new(Cursor::new(b"{\"id\":1".to_vec()), MAX_LINE_BYTES);
        match reader.next_frame() {
            Err(FrameError::Truncated { partial: 7 }) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn responses_round_trip_and_carry_shed_depth() {
        let shed = WireResponse::shed(9, 256);
        let back = WireResponse::decode(shed.encode().as_bytes()).unwrap();
        assert_eq!(back.status, STATUS_SHED);
        assert_eq!(back.id, 9);
        assert_eq!(back.queue_depth, Some(256));
        let err = WireResponse::error(0, "bad JSON: trailing characters");
        let back = WireResponse::decode(err.encode().as_bytes()).unwrap();
        assert_eq!(back.status, STATUS_ERROR);
        assert!(back.error.unwrap().contains("trailing"));
    }

    #[test]
    fn timings_ride_the_response_when_attached() {
        let timing = StageTiming {
            queue_wait_us: 120,
            compute_us: 950,
            serialize_us: 8,
        };
        let resp = WireResponse::ok_empty().with_timings(timing);
        let back = WireResponse::decode(resp.encode().as_bytes()).unwrap();
        assert_eq!(back.timings, Some(timing));
        assert!(back.stats.is_none());
        // And absent by default.
        let plain = WireResponse::ok_empty();
        let back = WireResponse::decode(plain.encode().as_bytes()).unwrap();
        assert_eq!(back.timings, None);
    }
}
