//! What a run prints: human-readable lines first, then one JSON object as
//! the last line of standard output.

use crate::trace::Recorder;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, gated on every workload (`--trace 0`).
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("p50_ms", "ms"), ("peak_rss_mb", "MB")];

/// Per-layer metrics (`--trace 1`). A layer a workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("client.encode_request_us", "us"),
    ("client.decode_response_us", "us"),
    ("client.rtt_us", "us"),
    ("protocol.decode_request_us", "us"),
    ("protocol.encode_response_us", "us"),
    ("protocol.request_kb", "KB"),
    ("protocol.response_kb", "KB"),
    ("batch.coalesced_share", "ratio"),
    ("batch.requests_per_flush", "count"),
    ("server.unattributed_us", "us"),
    ("server.admission_queued", "count"),
    ("server.phase.decode_us", "us"),
    ("server.phase.cache_lookup_us", "us"),
    ("server.phase.compile_us", "us"),
    ("server.phase.admission_us", "us"),
    ("server.phase.batch_wait_us", "us"),
    ("server.phase.execute_us", "us"),
    ("server.phase.encode_us", "us"),
    ("parser.parse_us", "us"),
    ("cache.hash_us", "us"),
    ("cache.probe_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("cache.compile_us", "us"),
    ("rewrite.optimize_us", "us"),
    ("size.propagate_us", "us"),
    ("physical.plan_us", "us"),
    ("liveness.certify_us", "us"),
    ("cost.price_us", "us"),
    ("exec.eval_us", "us"),
    ("exec.eval_plain_us", "us"),
    ("exec.direct_kernel_us", "us"),
    ("exec.dispatch_us", "us"),
    ("exec.instrumentation_us", "us"),
    ("matrix.crossprod_ms", "ms"),
    ("matrix.crossprod_gflops", "GFLOP/s"),
    ("matrix.gemv_ms", "ms"),
    ("matrix.tmv_ms", "ms"),
    ("matrix.gemv_gbps", "GB/s"),
    ("par.crossprod_speedup", "ratio"),
    ("solve.cholesky_ms", "ms"),
    ("buffer.spilled_mb", "MB"),
    ("buffer.faulted_mb", "MB"),
    ("buffer.evictions", "count"),
    ("buffer.hit_ratio", "ratio"),
    ("buffer.peak_mb", "MB"),
    ("buffer.ooc_overhead_ms", "ms"),
    ("compress.compress_ms", "ms"),
    ("compress.ratio", "ratio"),
    ("compress.gemv_us", "us"),
    ("compress.vecmat_us", "us"),
    ("compress.cg_ms", "ms"),
    ("compress.speedup_vs_dense", "ratio"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.backlog_max", "count"),
    ("bench.trace_overhead", "ratio"),
];

#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    e2e: BTreeMap<String, (f64, String)>,
    layers: BTreeMap<String, (f64, String)>,
    lines: Vec<String>,
    traces: Vec<Recorder>,
}

impl Report {
    /// Count a failed check (the caller has counted the attempt).
    pub fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(e);
        }
    }

    pub fn e2e(&mut self, name: &str, value: f64, unit: &str) {
        self.e2e.insert(name.to_owned(), (value, unit.to_owned()));
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &str) {
        self.layers.insert(name.to_owned(), (value, unit.to_owned()));
    }

    /// A workload-specific end-to-end figure printed by name, not gated.
    pub fn extra(&mut self, name: &str, value: f64, unit: &str) {
        self.lines.push(format!("metric {name} = {value} {unit}"));
    }

    pub fn info(&mut self, line: String) {
        self.lines.push(line);
    }

    /// An Amdahl table: each row's time per unit of work and its share of
    /// the headline figure `total` (e.g. `lo.p50_ms` in µs).
    pub fn amdahl(
        &mut self,
        workload: &str,
        headline: &str,
        total: f64,
        mean_total: f64,
        rows: Vec<(String, f64)>,
    ) {
        let mut t = format!(
            "amdahl {workload}: share of {headline} = {total:.1} us (rows are means per unit of work; their sum is {:.1} us against a mean of {mean_total:.1} us)\n",
            rows.iter().map(|r| r.1).sum::<f64>()
        );
        for (name, us) in rows {
            let _ = writeln!(t, "  {name:<60} {us:>12.1} us {:>7.1}%", 100.0 * us / total);
        }
        self.lines.push(t.trim_end().to_owned());
    }

    pub fn trace(&mut self, rec: Recorder) {
        self.traces.push(rec);
    }

    /// The Chrome trace of every span recorded in the run.
    pub fn chrome_trace(self) -> Option<String> {
        let mut all: Option<Recorder> = None;
        for r in self.traces {
            match &mut all {
                Some(a) => a.absorb(r),
                None => all = Some(r),
            }
        }
        all.map(|a| a.chrome_json())
    }

    pub fn print(&self, traced: bool) -> String {
        for l in &self.lines {
            for line in l.lines() {
                println!("# {line}");
            }
        }
        for e in &self.errors {
            println!("# error: {e}");
        }
        let (list, got): (&[(&str, &str)], _) =
            if traced { (&PER_LAYER, &self.layers) } else { (&END_TO_END, &self.e2e) };
        let mut metrics = String::new();
        for (i, (name, unit)) in list.iter().enumerate() {
            let v = got.get(*name).map_or(0.0, |m| m.0);
            println!("# {name:<32} {v:>16.6} {unit}");
            let v = if v.is_finite() { format!("{v}") } else { "null".to_owned() };
            let _ = write!(
                metrics,
                "{}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}",
                if i > 0 { ", " } else { "" }
            );
        }
        let correct = self.failed == 0 && self.attempted > 0;
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(1),
            self.failed
        )
    }
}
