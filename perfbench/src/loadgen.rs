//! Open-loop load generator: Poisson arrivals over a few connections from
//! one process, each request timed from when it was due to be sent.
//!
//! Every connection has its own Poisson schedule (rate / connections) and
//! one request in flight. A request due while its connection is still busy
//! waits; that wait counts in its latency and shows as send backlog. Send
//! delay that accrues while a connection is idle is the generator's own
//! lateness and is reported separately.

use crate::programs::OVal;
use crate::rng::Rng;
use crate::trace::Recorder;
use dmml::serve::protocol::{decode_response, encode_request, read_frame, write_frame};
use dmml::serve::{Request, Response};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Spin instead of sleeping for the last stretch before a due time:
/// `thread::sleep` overshoots by tens of microseconds.
const SPIN_NS: u64 = 150_000;

#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// Offered rate over all connections, requests per second.
    pub rate: f64,
    pub seconds: f64,
    /// Stream id: distinct phases draw distinct inputs from one seed.
    pub stream: u64,
    /// Stop a connection once this many of its requests are overdue
    /// (a ladder probe that is already lost).
    pub abort_backlog: Option<usize>,
}

#[derive(Debug, Clone, Default)]
pub struct Sample {
    pub conn: usize,
    pub idx: u64,
    pub due_ns: u64,
    /// Due time to decoded response.
    pub lat_ns: u64,
    /// Send delay accrued while the connection was idle.
    pub late_ns: u64,
    /// Requests of this connection already due when this one was sent.
    pub backlog: usize,
    pub ok: bool,
    pub batched: bool,
    pub cache_hit: bool,
    pub req_bytes: usize,
    pub resp_bytes: usize,
}

pub struct PhaseResult {
    pub samples: Vec<Sample>,
    /// Requests that failed: error response, protocol error, timeout, or
    /// a result the oracle rejected.
    pub failed: u64,
    pub aborted: bool,
    pub first_error: Option<String>,
    pub spans: Vec<Recorder>,
}

impl PhaseResult {
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.lat_ns as f64 / 1e6).collect()
    }

    pub fn attempted(&self) -> u64 {
        self.samples.len() as u64
    }

    /// One result from several runs of the same kind of phase.
    pub fn merge(parts: Vec<PhaseResult>) -> PhaseResult {
        let mut res = PhaseResult {
            samples: Vec::new(),
            failed: 0,
            aborted: false,
            first_error: None,
            spans: Vec::new(),
        };
        for part in parts {
            res.samples.extend(part.samples);
            res.failed += part.failed;
            res.aborted |= part.aborted;
            res.first_error = res.first_error.or(part.first_error);
            res.spans.extend(part.spans);
        }
        res
    }
}

/// Due offsets (ns from phase start) of one connection's Poisson arrivals.
pub fn schedule(seed: u64, phase: &Phase, conn: usize, conns: usize) -> Vec<u64> {
    let mut rng = Rng::derive(seed, &[phase.stream, conn as u64, 0x5c4ed]);
    let rate = phase.rate / conns as f64;
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += rng.exp_gap_s(rate);
        if t >= phase.seconds {
            return out;
        }
        out.push((t * 1e9) as u64);
    }
}

fn wait_until(t0: Instant, due_ns: u64) {
    loop {
        let now = t0.elapsed().as_nanos() as u64;
        if now >= due_ns {
            return;
        }
        let left = due_ns - now;
        if left > SPIN_NS {
            std::thread::sleep(Duration::from_nanos(left - SPIN_NS));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// A request factory: `(connection, index) -> (request, oracle answer)`.
pub type Make<'a> = &'a (dyn Fn(usize, u64) -> (Request, OVal) + Sync);

/// Send one request and check its answer. `Err` is a failure.
pub fn exchange(
    stream: &mut TcpStream,
    req: &Request,
    want: &OVal,
    rec: &mut Recorder,
    id: u64,
) -> Result<(Response, usize, usize), String> {
    let raw = rec.time("client.encode_request", id, || encode_request(req));
    let open = rec.begin("client.rtt", id);
    let resp = write_frame(stream, &raw).map_err(|e| format!("send: {e}")).and_then(|()| {
        read_frame(stream)
            .map_err(|e| format!("recv: {e}"))?
            .ok_or_else(|| "server closed the connection".to_owned())
    });
    rec.end(open);
    let resp = resp?;
    let decoded = rec.time("client.decode_response", id, || decode_response(&resp))?;
    match &decoded {
        Response::Score { result, .. } => want.check(result)?,
        Response::Error { error } => return Err(format!("server error: {error}")),
        Response::Pong => return Err("unexpected pong".to_owned()),
    }
    Ok((decoded, raw.len(), resp.len()))
}

/// Run one open-loop phase over `conns` (one thread per connection).
pub fn run(
    conns: &mut [TcpStream],
    seed: u64,
    phase: Phase,
    make: Make<'_>,
    epoch: Instant,
    traced: bool,
) -> PhaseResult {
    let n = conns.len();
    // A common start a little in the future, so every thread is waiting
    // before the first arrival.
    let t0 = Instant::now() + Duration::from_millis(5);
    let outs: Vec<PhaseResult> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, stream)| {
                s.spawn(move || {
                    let due = schedule(seed, &phase, c, n);
                    let mut rec = Recorder::new(epoch, c as u32 + 1, traced);
                    let mut out = PhaseResult {
                        samples: Vec::with_capacity(due.len()),
                        failed: 0,
                        aborted: false,
                        first_error: None,
                        spans: Vec::new(),
                    };
                    let mut free_ns = 0u64;
                    for (i, &d) in due.iter().enumerate() {
                        let (req, want) = make(c, i as u64);
                        wait_until(t0, d);
                        let sent = t0.elapsed().as_nanos() as u64;
                        let backlog = due[i..].partition_point(|&x| x <= sent);
                        if phase.abort_backlog.is_some_and(|cap| backlog > cap) {
                            out.aborted = true;
                            break;
                        }
                        let id = ((phase.stream & 0xffff) << 40) | ((c as u64) << 32) | i as u64;
                        let open = rec.begin("client.request", id);
                        let res = exchange(stream, &req, &want, &mut rec, id);
                        rec.end(open);
                        let done = t0.elapsed().as_nanos() as u64;
                        let mut broken = false;
                        let mut sample = Sample {
                            conn: c,
                            idx: i as u64,
                            due_ns: d,
                            lat_ns: done - d,
                            late_ns: sent - d.max(free_ns),
                            backlog,
                            ..Sample::default()
                        };
                        match res {
                            Ok((resp, req_bytes, resp_bytes)) => {
                                if let Response::Score { batched, cache_hit, .. } = resp {
                                    sample.batched = batched;
                                    sample.cache_hit = cache_hit;
                                }
                                sample.ok = true;
                                sample.req_bytes = req_bytes;
                                sample.resp_bytes = resp_bytes;
                            }
                            Err(e) => {
                                out.failed += 1;
                                broken = e.starts_with("send:")
                                    || e.starts_with("recv:")
                                    || e.starts_with("server closed");
                                out.first_error.get_or_insert(e);
                            }
                        }
                        out.samples.push(sample);
                        if broken {
                            // The stream's framing is unknown after an I/O
                            // failure: stop this connection.
                            break;
                        }
                        free_ns = t0.elapsed().as_nanos() as u64;
                    }
                    out.spans.push(rec);
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("generator thread panicked")).collect()
    });
    PhaseResult::merge(outs)
}

/// The byte stream a phase would send (encoded requests in send order per
/// connection), for checking that a seed fixes the inputs.
#[cfg(test)]
pub fn request_stream(seed: u64, phase: &Phase, conns: usize, make: Make<'_>) -> Vec<u8> {
    let mut out = Vec::new();
    for c in 0..conns {
        for (i, d) in schedule(seed, phase, c, conns).into_iter().enumerate() {
            out.extend_from_slice(&d.to_le_bytes());
            out.extend_from_slice(encode_request(&make(c, i as u64).0).as_bytes());
        }
    }
    out
}
