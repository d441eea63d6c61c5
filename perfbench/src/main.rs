//! The dmml benchmark: client-observed serving latency and training-job
//! time, with per-layer attribution in a separate traced run.
//!
//! ```text
//! perfbench --workload score_model|score_churn|train_batch --seed N \
//!     --seconds S --trace 0|1 --server-bin PATH [--trace-out FILE] \
//!     [--stamp JSON]
//! ```
//!
//! `perfbench/run.py` builds this binary and the `scoring_server` example,
//! supplies the paths, and runs it with every `DMML_*` variable cleared and
//! `TMPDIR` pointing at a private directory (the server inherits both). The
//! last line of standard output is one JSON object: `correct`, `attempted`,
//! `failed`, and the metrics.

mod loadgen;
mod programs;
mod replay;
mod report;
mod rng;
mod server_proc;
mod serving;
mod stats;
mod trace;
mod train;

use report::Report;
use stats::Ladder;
use std::path::PathBuf;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    stamp: String,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        server_bin: None,
        trace_out: None,
        stamp: "{}".to_owned(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = val()? == "1",
            "--server-bin" => a.server_bin = Some(PathBuf::from(val()?)),
            "--trace-out" => a.trace_out = Some(PathBuf::from(val()?)),
            "--stamp" => a.stamp = val()?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(a)
}

/// Target features this binary was compiled with.
fn target_features() -> String {
    let mut f: Vec<&str> = Vec::new();
    macro_rules! feat {
        ($($name:tt),*) => { $( if cfg!(target_feature = $name) { f.push($name); } )* };
    }
    feat!("sse2", "sse4.1", "sse4.2", "avx", "avx2", "fma", "avx512f", "neon");
    f.join(",")
}

/// Features the host CPU offers (the build may use fewer).
fn cpu_features() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut f: Vec<&str> = Vec::new();
        macro_rules! detect {
            ($($name:tt),*) => { $( if is_x86_feature_detected!($name) { f.push($name); } )* };
        }
        detect!("sse4.2", "avx", "avx2", "fma", "avx512f");
        f.join(",")
    }
    #[cfg(not(target_arch = "x86_64"))]
    String::new()
}

fn run(a: &Args, rep: &mut Report) -> Result<(), String> {
    let bin = || a.server_bin.clone().ok_or("--server-bin is required for serving workloads");
    let ctx = |bin| serving::Run { seed: a.seed, seconds: a.seconds, bin };
    match a.workload.as_str() {
        "score_model" => {
            let spec = serving::Spec {
                name: "score_model",
                lo_rate: 20.0,
                hi_rate: 100.0,
                limit_ms: 25.0,
                ladder: Ladder::spanning(20.0, 4.0 * 380.0, 0.08),
            };
            let gen = serving::Gen::model(a.seed);
            serving::run(&spec, &gen, ctx(&bin()?), a.trace, rep)
        }
        "score_churn" => {
            let spec = serving::Spec {
                name: "score_churn",
                lo_rate: 200.0,
                hi_rate: 2000.0,
                limit_ms: 2.0,
                ladder: Ladder::spanning(200.0, 4.0 * 6200.0, 0.08),
            };
            let gen = serving::Gen::churn(a.seed);
            serving::run(&spec, &gen, ctx(&bin()?), a.trace, rep)
        }
        "train_batch" => train::run(a.seed, a.seconds, a.trace, rep),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "# stamp {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \"target_features\": \"{}\", \"cpu_features\": \"{}\", \"build\": {}}}",
        a.workload,
        a.seed,
        a.seconds,
        a.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        target_features(),
        cpu_features(),
        a.stamp
    );
    let mut rep = Report::default();
    if let Err(e) = run(&a, &mut rep) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    rep.extra("error_rate", rep.failed as f64 / rep.attempted.max(1) as f64, "ratio");
    let last = rep.print(a.trace);
    if let Some(path) = &a.trace_out {
        if let Some(json) = rep.chrome_trace() {
            if let Err(e) = std::fs::write(path, json) {
                eprintln!("perfbench: writing {}: {e}", path.display());
            } else {
                println!("# chrome trace written to {}", path.display());
            }
        }
    }
    println!("{last}");
}
