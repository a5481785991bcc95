//! Open-loop load over loopback TCP.
//!
//! One paced sender thread writes pre-encoded request lines on a fixed
//! schedule, round-robin over the connections, whatever the responses
//! are doing; one reader thread multiplexes the connections with
//! `poll(2)`, decodes each response line, and checks it. Pacing uses
//! sleeps that end a little before the due time plus a short yielding
//! spin — never socket read timeouts, whose coarse wake-ups make the
//! generator run milliseconds late.

use crate::trace::SpanLog;
use sam_serve::prelude::*;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How a request ended.
#[derive(Clone, Debug, PartialEq)]
pub enum Status {
    /// `ok`, and the verdict and score equal the in-process expectation.
    Ok,
    /// `ok`, but the verdict or score differ from the expectation.
    Mismatch(String),
    /// `shed` at the gateway.
    Shed,
    /// Any other status, a protocol violation, or an undecodable line.
    Error(String),
    /// The write failed or the connection closed first.
    Transport,
    /// No response before the phase ended.
    Unanswered,
}

/// One request of a phase.
#[derive(Clone, Debug)]
pub struct Record {
    /// Index of the request line sent.
    pub line: usize,
    /// Scheduled send time, ms since the phase origin.
    pub due_ms: f64,
    /// Actual send time (write start), ms since the phase origin.
    pub sent_ms: f64,
    /// Response read and decoded, ms since the phase origin.
    pub done_ms: Option<f64>,
    /// How it ended.
    pub status: Status,
    /// The server's stage clock, when the request asked for it.
    pub timing: Option<StageTiming>,
    /// Whether the shard's profile cache held the key.
    pub cache_hit: Option<bool>,
    /// Response line length, bytes.
    pub response_bytes: usize,
    /// `WireResponse::decode` time, µs.
    pub decode_us: f64,
}

impl Record {
    /// Scheduled send → response decoded, ms.
    pub fn latency_ms(&self) -> Option<f64> {
        self.done_ms.map(|d| d - self.due_ms)
    }

    /// Actual send − scheduled send, ms.
    pub fn lateness_ms(&self) -> f64 {
        (self.sent_ms - self.due_ms).max(0.0)
    }
}

/// Checks one decoded response against the request line it answers.
pub type Validate<'a> = &'a (dyn Fn(usize, &WireResponse) -> Status + Sync);

/// What one open-loop phase produced.
pub struct Load {
    /// Offered rate, requests/s.
    pub rate: f64,
    /// Scheduled sending window, s.
    pub window_s: f64,
    /// One record per scheduled request, in schedule order.
    pub records: Vec<Record>,
    /// The sender's and the reader's span logs.
    pub logs: Vec<SpanLog>,
    /// CPU seconds the gateway's threads ran during the phase (the load
    /// generator's own threads excluded).
    pub server_cpu_s: f64,
    /// CPU seconds the load generator's two threads ran.
    pub client_cpu_s: f64,
    /// Share of all CPU time the host stole during the phase.
    pub steal_share: f64,
}

impl Load {
    /// Requests that did not end `Ok`.
    pub fn failed(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| r.status != Status::Ok)
            .count() as u64
    }

    /// Concatenate two phases run with the same settings (A-B-B-A
    /// interleaving halves).
    pub fn merge(mut self, other: Load) -> Load {
        self.window_s += other.window_s;
        self.records.extend(other.records);
        self.logs.extend(other.logs);
        self.server_cpu_s += other.server_cpu_s;
        self.client_cpu_s += other.client_cpu_s;
        self.steal_share = (self.steal_share + other.steal_share) / 2.0;
        self
    }

    /// Generator lateness per request, ms.
    pub fn lateness_ms(&self) -> Vec<f64> {
        self.records.iter().map(Record::lateness_ms).collect()
    }
}

/// Sleep until `t`: a kernel sleep to shortly before it, then a yielding
/// spin for the remainder.
pub fn sleep_until(t: Instant) {
    const SPIN: Duration = Duration::from_micros(100);
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let rem = t - now;
        if rem > SPIN {
            std::thread::sleep(rem - SPIN);
        } else {
            std::thread::yield_now();
        }
    }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: std::os::raw::c_ulong, timeout: i32) -> i32;
}

const POLLIN: i16 = 0x1;

/// Which of `streams` have bytes (or EOF/error) to read, waiting at most
/// `timeout`.
fn readable(streams: &[TcpStream], timeout: Duration) -> std::io::Result<Vec<bool>> {
    let mut fds: Vec<PollFd> = streams
        .iter()
        .map(|s| PollFd {
            fd: s.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
    // SAFETY: `fds` is a live, exclusively borrowed array of
    // `fds.len()` pollfd structs laid out as the C struct (`repr(C)`,
    // int + short + short); poll(2) only writes their `revents` fields
    // and keeps no pointer after returning. Every fd belongs to a
    // `TcpStream` borrowed for the whole call.
    let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as std::os::raw::c_ulong, ms) };
    if n < 0 {
        let e = std::io::Error::last_os_error();
        if e.kind() == std::io::ErrorKind::Interrupted {
            return Ok(vec![false; streams.len()]);
        }
        return Err(e);
    }
    Ok(fds.iter().map(|f| f.revents != 0).collect())
}

/// Open `n` connections to `addr`.
pub fn connect(addr: SocketAddr, n: usize) -> std::io::Result<Vec<TcpStream>> {
    (0..n)
        .map(|_| {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            Ok(s)
        })
        .collect()
}

/// Run one open-loop phase over `conns`: `schedule[j]` is the line sent
/// as request `j`, due at `j / rate` seconds after the start, on
/// connection `j % conns.len()`. Responses still missing `drain` after
/// the last due time count as unanswered (the connections are then
/// unusable). With `abort_backlog`, the sender stops offering load once
/// the unanswered backlog exceeds that much time at `rate` (a ladder
/// step already far past its latency limit); requests never sent are
/// left out of the records.
#[allow(clippy::too_many_arguments)]
pub fn run(
    conns: &[TcpStream],
    lines: &[Vec<u8>],
    schedule: &[usize],
    rate: f64,
    drain: Duration,
    abort_backlog: Option<Duration>,
    validate: Validate<'_>,
    traced: bool,
) -> std::io::Result<Load> {
    let streams: Vec<TcpStream> = conns
        .iter()
        .map(TcpStream::try_clone)
        .collect::<std::io::Result<_>>()?;
    let writers: Vec<TcpStream> = conns
        .iter()
        .map(TcpStream::try_clone)
        .collect::<std::io::Result<_>>()?;
    let conns = conns.len();
    let n = schedule.len();
    let steal0 = crate::sys::steal();
    // No load thread exists yet: every live thread here is the gateway's
    // (plus this one, blocked in the join below).
    let server0 = crate::sys::threads_cpu_ns(&[]);
    let origin = Instant::now();
    // A short lead so both threads are running before the first send.
    let start = origin + Duration::from_millis(5);
    let due = |j: usize| start + Duration::from_secs_f64(j as f64 / rate);
    let ms = |t: Instant| t.duration_since(origin).as_secs_f64() * 1e3;
    let window_s = n as f64 / rate;
    let deadline = start + Duration::from_secs_f64(window_s) + drain;
    let answered_count = AtomicUsize::new(0);
    let issued_count = AtomicUsize::new(n);
    let sender_done = AtomicBool::new(false);

    let (txs, rxs): (Vec<_>, Vec<_>) = (0..conns).map(|_| mpsc::channel::<usize>()).unzip();
    let (sent, send_log, (mut records, read_log, load_cpu)) = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let me = (crate::sys::thread_id(), crate::sys::thread_cpu_ns());
            let mut log = SpanLog::new(origin, traced);
            let mut writers = writers;
            let mut sent_ms = vec![f64::NAN; n];
            let mut broken = vec![false; conns];
            for (j, &line) in schedule.iter().enumerate() {
                sleep_until(due(j));
                if let Some(limit) = abort_backlog {
                    let behind = j - answered_count.load(Ordering::Relaxed).min(j);
                    if behind as f64 / rate > limit.as_secs_f64() {
                        issued_count.store(j, Ordering::Release);
                        break;
                    }
                }
                let c = j % conns;
                if broken[c] {
                    continue;
                }
                let now = Instant::now();
                // Announce before writing, so the reader always knows
                // which request a response answers.
                if txs[c].send(j).is_err() {
                    broken[c] = true;
                    continue;
                }
                let w = &mut writers[c];
                let ok = log.scope("sam-serve.client_write", j as u64, |_| {
                    w.write_all(&lines[line]).is_ok()
                });
                if ok {
                    sent_ms[j] = ms(now);
                } else {
                    broken[c] = true;
                }
            }
            sender_done.store(true, Ordering::Release);
            drop(txs);
            let cpu = (me.0, crate::sys::thread_cpu_ns() - me.1);
            (sent_ms, log, cpu)
        });
        let reader = s.spawn(|| {
            let me = (crate::sys::thread_id(), crate::sys::thread_cpu_ns());
            let rxs = rxs;
            let mut log = SpanLog::new(origin, traced);
            let mut streams = streams;
            let mut records: Vec<Option<Record>> = vec![None; n];
            let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); conns];
            let mut open = vec![true; conns];
            let mut answered = 0usize;
            let mut chunk = vec![0u8; 1 << 16];
            while open.iter().any(|o| *o) {
                let done_sending = sender_done.load(Ordering::Acquire);
                if answered >= issued_count.load(Ordering::Acquire)
                    && (done_sending || answered >= n)
                {
                    break;
                }
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let wait = (deadline - now).min(Duration::from_millis(20));
                let Ok(ready) = readable(&streams, wait) else {
                    break;
                };
                for c in 0..conns {
                    if !ready[c] || !open[c] {
                        continue;
                    }
                    let got = log.scope("sam-serve.client_read", u64::MAX, |_| {
                        streams[c].read(&mut chunk)
                    });
                    match got {
                        Ok(0) | Err(_) => open[c] = false,
                        Ok(k) => bufs[c].extend_from_slice(&chunk[..k]),
                    }
                    let mut consumed = 0;
                    while let Some(pos) = bufs[c][consumed..].iter().position(|&b| b == b'\n') {
                        let line_bytes = &bufs[c][consumed..consumed + pos];
                        consumed += pos + 1;
                        let Ok(j) = rxs[c].try_recv() else {
                            // A response nobody asked for: protocol error.
                            open[c] = false;
                            break;
                        };
                        let t0 = Instant::now();
                        let decoded = log.scope("sam-serve.response_decode", j as u64, |_| {
                            WireResponse::decode(line_bytes)
                        });
                        let done = Instant::now();
                        let (status, timing, cache_hit) = match &decoded {
                            Ok(resp) => (
                                validate(schedule[j], resp),
                                resp.timings,
                                resp.profile_cache_hit,
                            ),
                            Err(e) => (
                                Status::Error(format!("undecodable response: {e}")),
                                None,
                                None,
                            ),
                        };
                        records[j] = Some(Record {
                            line: schedule[j],
                            due_ms: ms(due(j)),
                            sent_ms: f64::NAN,
                            done_ms: Some(ms(done)),
                            status,
                            timing,
                            cache_hit,
                            response_bytes: line_bytes.len(),
                            decode_us: (done - t0).as_secs_f64() * 1e6,
                        });
                        answered += 1;
                        answered_count.store(answered, Ordering::Relaxed);
                    }
                    bufs[c].drain(..consumed);
                }
            }
            let cpu = (me.0, crate::sys::thread_cpu_ns() - me.1);
            (records, log, cpu)
        });
        let (sent, send_log, send_cpu) = sender.join().expect("sender thread panicked");
        let (records, read_log, read_cpu) = reader.join().expect("reader thread panicked");
        (sent, send_log, (records, read_log, [send_cpu, read_cpu]))
    });
    let load_tids: Vec<u32> = load_cpu.iter().filter_map(|c| c.0).collect();
    let server_ns = crate::sys::threads_cpu_ns(&load_tids).saturating_sub(server0);
    let server_cpu_s = server_ns as f64 / 1e9;
    let client_cpu_s = load_cpu.iter().map(|c| c.1).sum::<u64>() as f64 / 1e9;
    let steal_share = steal0.share_until(&crate::sys::steal());
    let issued = issued_count.load(Ordering::Acquire);
    let records = records
        .iter_mut()
        .take(issued)
        .enumerate()
        .map(|(j, r)| {
            let mut rec = r.take().unwrap_or_else(|| Record {
                line: schedule[j],
                due_ms: ms(due(j)),
                sent_ms: f64::NAN,
                done_ms: None,
                status: if sent[j].is_nan() {
                    Status::Transport
                } else {
                    Status::Unanswered
                },
                timing: None,
                cache_hit: None,
                response_bytes: 0,
                decode_us: 0.0,
            });
            rec.sent_ms = if sent[j].is_nan() {
                rec.due_ms
            } else {
                sent[j]
            };
            rec
        })
        .collect();
    Ok(Load {
        rate,
        window_s,
        records,
        logs: vec![send_log, read_log],
        server_cpu_s,
        client_cpu_s,
        steal_share,
    })
}
