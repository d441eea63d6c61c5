//! The two serving workloads: a real `scoring_server` process driven over
//! loopback by the open-loop generator.

use crate::loadgen::{self, exchange, Phase, PhaseResult};
use crate::programs::{churn_catalog, churn_popularity, model_program, OVal, Program};
use crate::replay::Replayer;
use crate::report::Report;
use crate::rng::{Rng, Zipf};
use crate::server_proc::ServerProc;
use crate::stats::{backlog_growing, mean, median, quantile, Bisection, Ladder};
use crate::trace::Recorder;
use dmml::serve::protocol::{decode_response, encode_request, read_frame, write_frame};
use dmml::serve::{Request, Response};
use std::collections::HashMap;
use std::net::TcpStream;
use std::path::Path;
use std::time::Instant;

/// Connections (and generator threads): one per tenant, at most `nproc`.
pub const CONNS: usize = 2;
/// Slices per run, each on a freshly set-up server; `setup_s` is the
/// median of their set-ups and `peak_rss_mb` of their servers' peaks.
const SLICES: usize = 16;
/// Requests replayed in-process in a traced run.
const REPLAY_MAX: usize = 300;
/// Plan-cache capacity of a server started with production defaults.
const PLAN_CACHE: usize = 64;
/// A ladder probe stops once a connection has this many requests overdue.
const PROBE_ABORT_BACKLOG: usize = 20;

const TENANTS: [&str; CONNS] = ["tenant-a", "tenant-b"];

/// Shares of a run's seconds at the low rate (the gated `p50_ms`) and at
/// the high rate; ladder probes take the rest.
const LO_SHARE: f64 = 0.7;
const HI_SHARE: f64 = 0.15;

pub struct Spec {
    pub name: &'static str,
    pub lo_rate: f64,
    pub hi_rate: f64,
    /// p99 latency limit for `max_rps`.
    pub limit_ms: f64,
    pub ladder: Ladder,
}

pub enum Gen {
    /// `W %*% x` with one shared model W and a fresh x per request.
    Model { prog: Program, w: Vec<f64> },
    /// Zipf(1) draws from a catalog of distinct programs.
    Churn { catalog: Vec<Program>, zipf: Zipf },
}

pub const MODEL_ROWS: usize = 64;
pub const MODEL_COLS: usize = 128;
pub const CATALOG: usize = 512;

impl Gen {
    pub fn model(seed: u64) -> Self {
        let w = Rng::derive(seed, &[0x30de1]).vec(MODEL_ROWS * MODEL_COLS);
        Gen::Model { prog: model_program(MODEL_ROWS, MODEL_COLS), w }
    }

    pub fn churn(seed: u64) -> Self {
        Gen::Churn { catalog: churn_catalog(seed, CATALOG), zipf: churn_popularity(CATALOG) }
    }

    /// Request `idx` of connection `conn` in phase `stream`, its oracle
    /// answer, and the program it runs.
    pub fn make(&self, seed: u64, stream: u64, conn: usize, idx: u64) -> (Request, OVal, &Program) {
        let mut rng = Rng::derive(seed, &[stream, conn as u64, idx]);
        let tenant = TENANTS[conn % CONNS];
        match self {
            Gen::Model { prog, w } => {
                let x = rng.vec(MODEL_COLS);
                let (req, want) = prog.request(tenant, vec![w.clone(), x]);
                (req.batched(), want, prog)
            }
            Gen::Churn { catalog, zipf } => {
                let p = &catalog[zipf.sample(&mut rng)];
                let values = p.draw_inputs(&mut rng);
                let (req, want) = p.request(tenant, values);
                (req, want, p)
            }
        }
    }

    /// Warm-up requests: the model once per connection, or the 64 most
    /// popular catalog programs once each.
    pub fn warmup(&self, seed: u64) -> Vec<(Request, OVal)> {
        match self {
            Gen::Model { .. } => {
                (0..CONNS).map(|c| self.make(seed, 1, c, 0)).map(|(r, o, _)| (r, o)).collect()
            }
            Gen::Churn { catalog, .. } => catalog[..PLAN_CACHE]
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    let mut rng = Rng::derive(seed, &[1, i as u64]);
                    p.request(TENANTS[i % CONNS], p.draw_inputs(&mut rng))
                })
                .collect(),
        }
    }
}

fn ping(s: &mut TcpStream, tenant: &str) -> Result<(), String> {
    write_frame(s, &encode_request(&Request::ping(tenant))).map_err(|e| format!("ping: {e}"))?;
    let raw = read_frame(s).map_err(|e| format!("ping: {e}"))?.ok_or("ping: closed")?;
    match decode_response(&raw)? {
        Response::Pong => Ok(()),
        other => Err(format!("ping answered {other:?}")),
    }
}

struct Live {
    server: ServerProc,
    conns: Vec<TcpStream>,
}

impl Live {
    /// Close every client connection, then stop the server.
    fn stop(self) {
        drop(self.conns);
        self.server.stop();
    }
}

/// Spawn → first pong → warm-up. Returns the live server and the set-up
/// time; warm-up answers are oracle-checked too.
fn setup(bin: &Path, warm: &[(Request, OVal)], rep: &mut Report) -> Result<(Live, f64), String> {
    let t = Instant::now();
    let server = ServerProc::spawn(bin)?;
    let mut conns = (0..CONNS).map(|_| server.connect()).collect::<Result<Vec<_>, _>>()?;
    for (c, s) in conns.iter_mut().enumerate() {
        ping(s, TENANTS[c])?;
    }
    let mut off = Recorder::new(t, 0, false);
    for (i, (req, want)) in warm.iter().enumerate() {
        rep.attempted += 1;
        if let Err(e) = exchange(&mut conns[i % CONNS], req, want, &mut off, 0) {
            rep.fail(format!("warm-up: {e}"));
        }
    }
    Ok((Live { server, conns }, t.elapsed().as_secs_f64()))
}

fn p(res: &PhaseResult, q: f64) -> f64 {
    quantile(&res.latencies_ms(), q).unwrap_or(f64::NAN)
}

fn run_phase(
    live: &mut Live,
    gen: &Gen,
    seed: u64,
    phase: Phase,
    traced: bool,
    epoch: Instant,
    rep: &mut Report,
) -> PhaseResult {
    let make = |c: usize, i: u64| {
        let (r, o, _) = gen.make(seed, phase.stream, c, i);
        (r, o)
    };
    let res = loadgen::run(&mut live.conns, seed, phase, &make, epoch, traced);
    rep.attempted += res.attempted();
    rep.failed += res.failed;
    if let Some(e) = &res.first_error {
        rep.errors.push(format!("phase {}: {e}", phase.stream));
    }
    res
}

/// How the generator kept its schedule over `phases`.
struct GeneratorHealth {
    /// Median and p99 of the send delay that accrued while a connection
    /// was idle (the generator's own lateness), ms.
    late_p50_ms: f64,
    late_p99_ms: f64,
    /// Most requests of one connection already due at a send.
    backlog_max: usize,
}

impl GeneratorHealth {
    fn of(phases: &[&PhaseResult]) -> Self {
        let late: Vec<f64> =
            phases.iter().flat_map(|r| r.samples.iter().map(|s| s.late_ns as f64 / 1e6)).collect();
        let backlog = phases.iter().flat_map(|r| r.samples.iter().map(|s| s.backlog)).max();
        GeneratorHealth {
            late_p50_ms: quantile(&late, 0.5).unwrap_or(0.0),
            late_p99_ms: quantile(&late, 0.99).unwrap_or(0.0),
            backlog_max: backlog.unwrap_or(0),
        }
    }

    /// The generator fell behind when its typical (median) lateness reaches
    /// a tenth of the workload's latency limit: the offered load is then
    /// no longer the nominal one. Its p99 is reported, not judged: a stall
    /// of the shared host delays the generator and the server alike, and
    /// those requests' latencies already include the delay.
    fn check(&self, spec: &Spec) -> Result<(), String> {
        let limit = 0.1 * spec.limit_ms;
        if self.late_p50_ms > limit {
            return Err(format!(
                "invalid run: the generator fell behind (median lateness {:.3} ms > {limit} ms)",
                self.late_p50_ms
            ));
        }
        Ok(())
    }
}

/// A probe passes when nothing failed, the p99 limit held, and no
/// connection's send backlog grew.
fn probe_passes(res: &PhaseResult, limit_ms: f64) -> bool {
    if res.aborted || res.failed > 0 || res.samples.is_empty() {
        return false;
    }
    let growing = (0..CONNS).any(|c| {
        let b: Vec<usize> = res.samples.iter().filter(|s| s.conn == c).map(|s| s.backlog).collect();
        backlog_growing(&b, 3)
    });
    !growing && p(res, 0.99) <= limit_ms
}

/// One run's settings: the seed, the measured seconds and the server binary.
#[derive(Clone, Copy)]
pub struct Run<'a> {
    pub seed: u64,
    pub seconds: f64,
    pub bin: &'a Path,
}

pub fn run(
    spec: &Spec,
    gen: &Gen,
    run: Run<'_>,
    traced: bool,
    rep: &mut Report,
) -> Result<(), String> {
    if traced {
        return run_traced(spec, gen, run, rep);
    }
    let Run { seed, seconds, bin } = run;
    let warm = gen.warmup(seed);
    let epoch = Instant::now();
    // Every slice sets up a fresh server, runs a low-rate and a high-rate
    // phase and, on some slices, a ladder probe on it, and stops it. Set-ups
    // and phases are spread over the whole run, so a slow spell of a shared
    // host weighs on each of them alike.
    let probes = spec.ladder.max_probes().clamp(1, SLICES);
    let lo_s = seconds * LO_SHARE / SLICES as f64;
    let hi_s = seconds * HI_SHARE / SLICES as f64;
    let probe_s = seconds * (1.0 - LO_SHARE - HI_SHARE) / probes as f64;
    let (mut lo, mut hi, mut setups, mut rss) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut search = Bisection::new(&spec.ladder);
    let mut probe_log = Vec::new();
    for i in 0..SLICES {
        let (mut live, setup_s) = setup(bin, &warm, rep)?;
        setups.push(setup_s);
        let ph = Phase {
            rate: spec.lo_rate,
            seconds: lo_s,
            stream: 1000 + i as u64,
            abort_backlog: None,
        };
        lo.push(run_phase(&mut live, gen, seed, ph, false, epoch, rep));
        let ph = Phase {
            rate: spec.hi_rate,
            seconds: hi_s,
            stream: 2000 + i as u64,
            abort_backlog: None,
        };
        hi.push(run_phase(&mut live, gen, seed, ph, false, epoch, rep));
        // `probes` of the slices, evenly spaced, carry a probe.
        let probe_here = (i + 1) * probes / SLICES > i * probes / SLICES;
        if let Some(k) = search.next().filter(|_| probe_here) {
            let ph = Phase {
                rate: spec.ladder.rate(k),
                seconds: probe_s,
                stream: 3000 + k as u64,
                abort_backlog: Some(PROBE_ABORT_BACKLOG),
            };
            let res = run_phase(&mut live, gen, seed, ph, false, epoch, rep);
            let pass = probe_passes(&res, spec.limit_ms);
            probe_log.push(format!("{:.0}rps:{}", ph.rate, if pass { "ok" } else { "fail" }));
            search.record(k, pass);
        }
        rss.push(live.server.peak_rss_mb().unwrap_or(f64::NAN));
        live.stop();
    }
    let slice_p50: Vec<String> = lo.iter().map(|r| format!("{:.3}", p(r, 0.5))).collect();
    let (lo, hi) = (PhaseResult::merge(lo), PhaseResult::merge(hi));
    let health = GeneratorHealth::of(&[&lo, &hi]);
    health.check(spec)?;
    // The ladder starts from the low rate; when that already misses the
    // limit, so does every rung.
    let max_rps =
        if probe_passes(&lo, spec.limit_ms) { spec.ladder.rate(search.best()) } else { 0.0 };

    let n = |r: &PhaseResult| r.samples.len() as f64;
    rep.info(format!("probes {}", probe_log.join(" ")));
    rep.info(format!("lo.p50_ms per slice {}", slice_p50.join(" ")));
    rep.info(format!(
        "samples lo={} hi={}; generator lateness p50 {:.4} ms, p99 {:.4} ms; backlog_max={}",
        n(&lo),
        n(&hi),
        health.late_p50_ms,
        health.late_p99_ms,
        health.backlog_max
    ));
    rep.e2e("setup_s", median(&setups), "s");
    rep.e2e("p50_ms", p(&lo, 0.5), "ms");
    rep.e2e("peak_rss_mb", median(&rss), "MB");
    rep.extra("lo.p50_ms", p(&lo, 0.5), "ms");
    rep.extra("lo.p99_ms", p(&lo, 0.99), "ms");
    rep.extra("hi.p50_ms", p(&hi, 0.5), "ms");
    rep.extra("hi.p99_ms", p(&hi, 0.99), "ms");
    rep.extra("max_rps", max_rps, "req/s");
    rep.extra("loadgen.late_p99_ms", health.late_p99_ms, "ms");
    Ok(())
}

/// Mean per request (µs) of a span name's self time over `requests`.
fn per_request_us(totals: &HashMap<&str, (u64, u64)>, name: &str, requests: f64) -> f64 {
    totals.get(name).map_or(0.0, |t| t.1 as f64 / 1e3 / requests)
}

/// Mean per call (µs) of a span name's self time.
fn per_call_us(totals: &HashMap<&str, (u64, u64)>, name: &str) -> f64 {
    totals.get(name).map_or(0.0, |t| t.1 as f64 / 1e3 / t.0.max(1) as f64)
}

fn run_traced(spec: &Spec, gen: &Gen, run: Run<'_>, rep: &mut Report) -> Result<(), String> {
    let Run { seed, seconds, bin } = run;
    let warm = gen.warmup(seed);
    let (mut live, _) = setup(bin, &warm, rep)?;
    let epoch = Instant::now();
    let lo_s = seconds * 0.25;
    let plain = Phase { rate: spec.lo_rate, seconds: lo_s, stream: 10, abort_backlog: None };
    let plain = run_phase(&mut live, gen, seed, plain, false, epoch, rep);
    let lo = Phase { rate: spec.lo_rate, seconds: lo_s, stream: 11, abort_backlog: None };
    let mut lo_res = run_phase(&mut live, gen, seed, lo, true, epoch, rep);
    let before = live.server.scrape()?;
    let hi = Phase { rate: spec.hi_rate, seconds: seconds * 0.2, stream: 20, abort_backlog: None };
    let hi_res = run_phase(&mut live, gen, seed, hi, true, epoch, rep);
    let after = live.server.scrape()?;
    let rss = live.server.peak_rss_mb().unwrap_or(f64::NAN);
    live.stop();
    let health = GeneratorHealth::of(&[&plain, &lo_res, &hi_res]);
    health.check(spec)?;

    // Client-side layers, from the traced low-rate phase.
    let mut client = Recorder::new(epoch, 0, true);
    for r in std::mem::take(&mut lo_res.spans) {
        client.absorb(r);
    }
    let ctot: HashMap<&str, (u64, u64)> = client.self_totals().into_iter().collect();
    let nreq = lo_res.samples.len().max(1) as f64;
    let enc = per_request_us(&ctot, "client.encode_request", nreq);
    let rtt = per_request_us(&ctot, "client.rtt", nreq);
    let dec = per_request_us(&ctot, "client.decode_response", nreq);
    let lat_mean_us = mean(&lo_res.latencies_ms()) * 1e3;

    // Server-side layers, replayed in-process on a sample of the same requests.
    let mut replayer = Replayer::new(PLAN_CACHE);
    let warm: Vec<Request> = warm.into_iter().map(|(r, _)| r).collect();
    replayer.warm(&warm);
    let mut srec = Recorder::new(epoch, 10, true);
    let mut order: Vec<&loadgen::Sample> = lo_res.samples.iter().collect();
    order.sort_by_key(|s| s.due_ns);
    let t_replay = Instant::now();
    for s in order.iter().take(REPLAY_MAX) {
        let (req, want, program) = gen.make(seed, lo.stream, s.conn, s.idx);
        let raw = encode_request(&req);
        let id = ((lo.stream & 0xffff) << 40) | ((s.conn as u64) << 32) | s.idx;
        rep.attempted += 1;
        match replayer.request(&raw, &mut srec, id) {
            Some((resp, prog)) => {
                let checked = decode_response(&resp).and_then(|r| match r {
                    Response::Score { result, .. } => want.check(&result),
                    other => Err(format!("replay answered {other:?}")),
                });
                if let Err(e) = checked {
                    rep.fail(format!("replay: {e}"));
                }
                replayer.alternates(&req, &prog, program, &mut srec, id);
            }
            None => rep.fail(format!("replay failed: {}", req.program)),
        }
        replayer.staged_compile(&raw, &mut srec, id);
    }
    let replay_wall_s = t_replay.elapsed().as_secs_f64();
    for m in std::mem::take(&mut replayer.mismatches) {
        rep.fail(m);
    }
    let stot: HashMap<&str, (u64, u64)> = srec.self_totals().into_iter().collect();
    let nrep = replayer.requests.max(1) as f64;
    let miss = replayer.misses as f64 / nrep;
    // Compiles on the request path happen on misses only; count them per
    // request.
    let path_compile_us = srec
        .spans()
        .iter()
        .zip(srec.self_ns())
        .filter(|(s, _)| {
            s.name == "cache.compile"
                && s.parent.is_some_and(|p| srec.spans()[p].name == "server.request")
        })
        .fold(0.0, |acc, (_, ns)| acc + ns as f64 / 1e3)
        / nrep;
    let per_req = |span: &str| per_request_us(&stot, span, nrep);
    // The replayed request path, in the server's order, per request.
    let path: [(&str, f64); 8] = [
        ("protocol.decode_request", per_req("protocol.decode_request")),
        ("parser.parse", per_req("parser.parse")),
        ("cache.hash", per_req("cache.hash")),
        ("cache.probe", per_req("cache.probe")),
        ("cache.compile", path_compile_us),
        ("exec.eval", per_req("exec.eval")),
        ("protocol.encode_response", per_req("protocol.encode_response")),
        ("server.request", per_req("server.request")),
    ];
    for (span, us) in path {
        if !matches!(span, "cache.compile" | "server.request") {
            rep.layer(&format!("{span}_us"), us, "us");
        }
    }
    let unattributed = rtt - path.iter().map(|r| r.1).sum::<f64>();

    let plain_us = per_req("exec.eval_plain");
    let direct_us = per_req("exec.direct_kernel");
    rep.layer("exec.eval_plain_us", plain_us, "us");
    rep.layer("exec.direct_kernel_us", direct_us, "us");
    rep.layer("exec.dispatch_us", plain_us - direct_us, "us");
    rep.layer("exec.instrumentation_us", per_req("exec.eval") - plain_us, "us");
    for (span, metric) in [
        ("cache.compile", "cache.compile_us"),
        ("rewrite.optimize", "rewrite.optimize_us"),
        ("size.propagate", "size.propagate_us"),
        ("physical.plan", "physical.plan_us"),
        ("liveness.certify", "liveness.certify_us"),
        ("cost.price", "cost.price_us"),
    ] {
        rep.layer(metric, per_call_us(&stot, span), "us");
    }

    let kb = |f: fn(&loadgen::Sample) -> usize| {
        mean(&lo_res.samples.iter().map(|s| f(s) as f64 / 1024.0).collect::<Vec<_>>())
    };
    rep.layer("client.encode_request_us", enc, "us");
    rep.layer("client.decode_response_us", dec, "us");
    rep.layer("client.rtt_us", rtt, "us");
    rep.layer("protocol.request_kb", kb(|s| s.req_bytes), "KB");
    rep.layer("protocol.response_kb", kb(|s| s.resp_bytes), "KB");
    let share = |r: &PhaseResult, f: fn(&loadgen::Sample) -> bool| {
        r.samples.iter().filter(|s| f(s)).count() as f64 / r.samples.len().max(1) as f64
    };
    rep.layer("batch.coalesced_share", share(&hi_res, |s| s.batched), "ratio");
    let flushes = after.get("dmml_serve_batch_flushes").copied().unwrap_or(0.0)
        - before.get("dmml_serve_batch_flushes").copied().unwrap_or(0.0);
    let requests_per_flush =
        if flushes > 0.0 { hi_res.samples.len() as f64 / flushes } else { 0.0 };
    rep.layer("batch.requests_per_flush", requests_per_flush, "count");
    rep.layer("server.unattributed_us", unattributed, "us");
    rep.layer(
        "server.admission_queued",
        after.get("dmml_serve_admission_queued").copied().unwrap_or(0.0),
        "count",
    );
    for ph in ["decode", "cache_lookup", "compile", "admission", "batch_wait", "execute", "encode"]
    {
        let v = after.get(&format!("dmml_serve_phase_{ph}{{0.5}}")).copied().unwrap_or(0.0);
        rep.layer(&format!("server.phase.{ph}_us"), v / 1e3, "us");
    }
    rep.layer("cache.hit_ratio", share(&lo_res, |s| s.cache_hit), "ratio");
    rep.layer(
        "cache.evictions",
        after.get("dmml_serve_plan_cache_evictions").copied().unwrap_or(0.0),
        "count",
    );
    rep.layer("loadgen.late_p99_ms", health.late_p99_ms, "ms");
    rep.layer("loadgen.backlog_max", health.backlog_max as f64, "count");
    let traced_p50 = p(&lo_res, 0.5);
    rep.layer("bench.trace_overhead", traced_p50 / p(&plain, 0.5) - 1.0, "ratio");

    rep.info(format!(
        "traced lo: {} requests, p50 {traced_p50:.4} ms (untraced {:.4} ms), mean {:.1} us; \
         replayed {} requests in {replay_wall_s:.2} s, miss ratio {miss:.3}; server peak RSS {rss:.1} MB",
        lo_res.samples.len(),
        p(&plain, 0.5),
        lat_mean_us,
        replayer.requests
    ));
    let mut rows: Vec<(String, f64)> = vec![
        ("client: wait to send (due -> send)".into(), lat_mean_us - enc - rtt - dec),
        ("client: encode_request".into(), enc),
    ];
    rows.extend(path.iter().map(|(span, us)| {
        let label = match *span {
            "cache.compile" => format!("server: cache.compile (miss ratio {miss:.2})"),
            "server.request" => "server: replay bookkeeping".to_owned(),
            _ => format!("server: {span}"),
        };
        (label, *us)
    }));
    rows.push((
        "server: unattributed (wire, batch wait, admission, recorder)".into(),
        unattributed,
    ));
    rows.push(("client: decode_response".into(), dec));
    rep.amdahl(spec.name, "lo.p50_ms", traced_p50 * 1e3, lat_mean_us, rows);
    rep.trace(srec);
    rep.trace(client);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(gen: &Gen, seed: u64) -> Vec<u8> {
        let phase = Phase { rate: 200.0, seconds: 0.5, stream: 10, abort_backlog: None };
        let make = |c: usize, i: u64| {
            let (r, o, _) = gen.make(seed, phase.stream, c, i);
            (r, o)
        };
        loadgen::request_stream(seed, &phase, CONNS, &make)
    }

    #[test]
    fn same_seed_gives_a_byte_identical_request_stream() {
        for (a, b, c) in [
            (Gen::model(7), Gen::model(7), Gen::model(8)),
            (Gen::churn(7), Gen::churn(7), Gen::churn(8)),
        ] {
            let (sa, sb) = (stream(&a, 7), stream(&b, 7));
            assert!(!sa.is_empty());
            assert_eq!(sa, sb);
            assert_ne!(sa, stream(&c, 8));
        }
    }
}
