//! The `train_batch` workload: an in-process training job over seeded data.
//!
//! One job runs three parts on the library's public API:
//! 1. the normal equations `t(X) %*% X`, `t(X) %*% y`, compiled with a
//!    memory budget of a quarter of X's bytes at degree `nproc`, then a
//!    Cholesky solve;
//! 2. gradient steps evaluating `t(X) %*% (X %*% w - y)` on the same budget;
//! 3. a ridge path on the CLA-compressed Z: for each regularisation weight,
//!    a fixed number of conjugate-gradient iterations whose matrix products
//!    run on the compressed representation.
//!
//! Every result is checked against the oracle: naive loops over the same
//! data, and for part 3 the same CG over the decompressed Z.

use crate::replay::staged_compile;
use crate::report::Report;
use crate::rng::Rng;
use crate::server_proc::vm_hwm_mb;
use crate::stats::{mean, median};
use crate::trace::Recorder;
use dmml::compress::planner::CompressionConfig;
use dmml::compress::CompressedMatrix;
use dmml::lang::cache::{compile, CompiledProgram};
use dmml::lang::cost::CostModel;
use dmml::lang::exec::{Env, Executor, Val};
use dmml::lang::memory::MemoryBudget;
use dmml::lang::size::InputSizes;
use dmml::matrix::{ops, solve, Dense, Matrix};
use dmml::obs::profile::ProfileStore;
use std::collections::HashMap;
use std::time::Instant;

pub const ROWS: usize = 60_000;
pub const COLS: usize = 64;
pub const Z_ROWS: usize = 200_000;
pub const Z_COLS: usize = 6;
pub const GRAD_STEPS: usize = 2;
pub const RIDGE_PATH: usize = 14;
pub const CG_ITERS: usize = 8;
pub const LEARNING_RATE: f64 = 1.5 / ROWS as f64;

/// Error allowed relative to the absolute-value bound: the sums here run
/// over 60,000 (or 200,000) rows, whose rounding bound is about
/// `n * 2^-53 < 3e-11` of it; blocked and parallel kernels sum in other
/// orders than the oracle.
pub const REL_TOL: f64 = 1e-9;
/// Allowed difference of solved weights, relative to the largest weight:
/// the solves amplify the tolerance above by the systems' condition
/// numbers, which are small for these well-scaled features.
pub const SOLVE_TOL: f64 = 1e-7;

pub struct Data {
    pub x: Dense,
    pub y: Vec<f64>,
    pub z: Dense,
    pub yz: Vec<f64>,
}

/// Seeded inputs: dense X with `y = X w* + noise`, and a low-cardinality Z
/// (categorical codes, clustered runs, one noise column) with its labels.
pub fn generate(seed: u64) -> Data {
    let mut rng = Rng::derive(seed, &[0x7a1]);
    let x = Dense::from_vec(ROWS, COLS, rng.vec(ROWS * COLS)).expect("shape");
    let w_star: Vec<f64> = (0..COLS).map(|_| rng.normal()).collect();
    let y: Vec<f64> = (0..ROWS)
        .map(|i| {
            x.row(i).iter().zip(&w_star).map(|(a, b)| a * b).sum::<f64>() + 0.01 * rng.normal()
        })
        .collect();
    let runs: Vec<Vec<f64>> =
        (0..2).map(|_| (0..Z_ROWS / 512 + 1).map(|_| rng.range(0, 5) as f64).collect()).collect();
    let mut zd = Vec::with_capacity(Z_ROWS * Z_COLS);
    for r in 0..Z_ROWS {
        for c in 0..3 {
            zd.push(rng.range(0, 7) as f64 / (c + 1) as f64);
        }
        zd.push(runs[0][r / 512]);
        zd.push(runs[1][r / 512]);
        zd.push(rng.uniform(-1.0, 1.0));
    }
    let z = Dense::from_vec(Z_ROWS, Z_COLS, zd).expect("shape");
    let v_star = [0.5, -1.0, 2.0, 1.5, -0.5, 3.0];
    let yz: Vec<f64> = (0..Z_ROWS)
        .map(|i| z.row(i).iter().zip(&v_star).map(|(a, b)| a * b).sum::<f64>() + 0.1 * rng.normal())
        .collect();
    Data { x, y, z, yz }
}

pub struct Prepared {
    pub cm: CompressedMatrix,
    pub xtx: CompiledProgram,
    pub xty: CompiledProgram,
    pub grad: CompiledProgram,
}

pub const XTX: &str = "t(X) %*% X";
pub const XTY: &str = "t(X) %*% y";
pub const GRAD: &str = "t(X) %*% (X %*% w - y)";

pub fn sizes() -> InputSizes {
    let mut s = InputSizes::new();
    s.declare("X", ROWS, COLS, 1.0).declare("y", ROWS, 1, 1.0).declare("w", COLS, 1, 1.0);
    s
}

pub fn budget() -> MemoryBudget {
    MemoryBudget::bytes(ROWS * COLS * 8 / 4)
}

/// Set-up: compress Z and compile the job's programs.
pub fn prepare(z: &Dense, rec: &mut Recorder) -> Prepared {
    let cm = rec.time("compress.compress", 0, || {
        CompressedMatrix::compress(z, &CompressionConfig::default())
    });
    let (s, b, degree) = (sizes(), budget(), dmml::par::default_degree());
    let model = CostModel::new(ProfileStore::new());
    let mut c = |src| {
        rec.time("cache.compile", 0, || compile(src, &s, degree, b, &model))
            .expect("training programs compile")
    };
    Prepared { xtx: c(XTX), xty: c(XTY), grad: c(GRAD), cm }
}

/// Compile the job's programs stage by stage (traced runs only).
pub fn staged(rec: &mut Recorder) -> Result<(), String> {
    let model = CostModel::new(ProfileStore::new());
    for src in [XTX, XTY, GRAD] {
        staged_compile(src, &sizes(), dmml::par::default_degree(), budget(), &model, rec, 0)?;
    }
    Ok(())
}

fn dense_val(v: Val) -> Dense {
    match v {
        Val::Matrix(m) => m.to_dense(),
        Val::Scalar(s) => Dense::filled(1, 1, s),
    }
}

fn eval(p: &CompiledProgram, env: &Env) -> Result<Dense, String> {
    let mut ex = Executor::with_plan(&p.graph, p.plan.clone());
    ex.eval(p.root, env).map(dense_val).map_err(|e| e.to_string())
}

pub struct Oracle {
    xtx: Vec<f64>,
    xtx_mag: Vec<f64>,
    xty: Vec<f64>,
    xty_mag: Vec<f64>,
    w_ne: Vec<f64>,
    /// Gradient and bound at each step of the oracle's own descent.
    grads: Vec<(Vec<f64>, Vec<f64>)>,
    ridge: Vec<Vec<f64>>,
}

fn close(got: &[f64], want: &[f64], mag: &[f64], what: &str) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{what}: {} values, oracle {}", got.len(), want.len()));
    }
    for (i, ((g, w), m)) in got.iter().zip(want).zip(mag).enumerate() {
        let within = (g - w).abs() <= REL_TOL * m + f64::MIN_POSITIVE;
        if !within {
            return Err(format!("{what}[{i}]: got {g:e}, oracle {w:e} (bound {m:e})"));
        }
    }
    Ok(())
}

fn close_solution(got: &[f64], want: &[f64], what: &str) -> Result<(), String> {
    let scale = want.iter().fold(1.0f64, |m, v| m.max(v.abs()));
    match got.iter().zip(want).position(|(g, w)| {
        let within = (g - w).abs() <= SOLVE_TOL * scale;
        !within
    }) {
        Some(i) => Err(format!("{what}[{i}]: got {:e}, oracle {:e}", got[i], want[i])),
        None if got.len() == want.len() => Ok(()),
        None => Err(format!("{what}: {} values, oracle {}", got.len(), want.len())),
    }
}

/// Naive Cholesky solve of a small SPD system (row-major `n x n`).
fn naive_spd_solve(a: &[f64], b: &[f64]) -> Vec<f64> {
    let n = b.len();
    let mut l = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..=i {
            let s: f64 = a[i * n + j] - (0..j).map(|k| l[i * n + k] * l[j * n + k]).sum::<f64>();
            l[i * n + j] = if i == j { s.sqrt() } else { s / l[j * n + j] };
        }
    }
    let mut y = vec![0.0; n];
    for i in 0..n {
        y[i] = (b[i] - (0..i).map(|k| l[i * n + k] * y[k]).sum::<f64>()) / l[i * n + i];
    }
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        x[i] = (y[i] - (i + 1..n).map(|k| l[k * n + i] * x[k]).sum::<f64>()) / l[i * n + i];
    }
    x
}

impl Oracle {
    /// Naive-loop reference values for the parts whose inputs are fixed.
    pub fn new(data: &Data, cm: &CompressedMatrix) -> Self {
        let (n, d) = (ROWS, COLS);
        let (mut xtx, mut xtx_mag) = (vec![0.0; d * d], vec![0.0; d * d]);
        let (mut xty, mut xty_mag) = (vec![0.0; d], vec![0.0; d]);
        for r in 0..n {
            let row = data.x.row(r);
            for i in 0..d {
                for j in 0..d {
                    xtx[i * d + j] += row[i] * row[j];
                    xtx_mag[i * d + j] += (row[i] * row[j]).abs();
                }
                xty[i] += row[i] * data.y[r];
                xty_mag[i] += (row[i] * data.y[r]).abs();
            }
        }
        let w_ne = naive_spd_solve(&xtx, &xty);
        let mut w = vec![0.0; COLS];
        let grads = (0..GRAD_STEPS)
            .map(|_| {
                let (g, mag) = Self::gradient(data, &w);
                for (wi, gi) in w.iter_mut().zip(&g) {
                    *wi -= LEARNING_RATE * gi;
                }
                (g, mag)
            })
            .collect();
        let z = cm.decompress();
        let bz = Self::zty(&z, &data.yz);
        let ridge = (0..RIDGE_PATH).map(|j| Self::ridge(&z, &bz, ridge_lambda(j))).collect();
        Oracle { xtx, xtx_mag, xty, xty_mag, w_ne, grads, ridge }
    }

    /// `t(X) (X w - y)` and its absolute-value bound.
    fn gradient(data: &Data, w: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let (mut g, mut mag) = (vec![0.0; COLS], vec![0.0; COLS]);
        for r in 0..ROWS {
            let row = data.x.row(r);
            let (mut e, mut em) = (-data.y[r], data.y[r].abs());
            for (a, b) in row.iter().zip(w) {
                e += a * b;
                em += (a * b).abs();
            }
            for i in 0..COLS {
                g[i] += row[i] * e;
                mag[i] += row[i].abs() * em;
            }
        }
        (g, mag)
    }

    /// The ridge CG over the decompressed Z with naive loops.
    fn ridge(z: &Dense, b: &[f64], lambda: f64) -> Vec<f64> {
        cg(
            |v| {
                let mut out = [0.0; Z_COLS];
                for r in 0..z.rows() {
                    let row = z.row(r);
                    let zv: f64 = row.iter().zip(v).map(|(a, b)| a * b).sum();
                    for (o, a) in out.iter_mut().zip(row) {
                        *o += a * zv;
                    }
                }
                out.iter().zip(v).map(|(o, vi)| o + lambda * vi).collect()
            },
            b,
            CG_ITERS,
        )
    }

    fn zty(z: &Dense, yz: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; Z_COLS];
        for (r, y) in yz.iter().enumerate() {
            for (o, a) in out.iter_mut().zip(z.row(r)) {
                *o += a * y;
            }
        }
        out
    }
}

/// Conjugate gradient for a fixed number of iterations (stops early only
/// on an exactly zero residual).
pub fn cg(mut matvec: impl FnMut(&[f64]) -> Vec<f64>, b: &[f64], iters: usize) -> Vec<f64> {
    let mut x = vec![0.0; b.len()];
    let mut r = b.to_vec();
    let mut p = r.clone();
    let mut rs: f64 = r.iter().map(|v| v * v).sum();
    for _ in 0..iters {
        if rs == 0.0 {
            break;
        }
        let ap = matvec(&p);
        let alpha = rs / p.iter().zip(&ap).map(|(a, b)| a * b).sum::<f64>();
        for i in 0..x.len() {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        let rs_new: f64 = r.iter().map(|v| v * v).sum();
        for i in 0..p.len() {
            p[i] = r[i] + (rs_new / rs) * p[i];
        }
        rs = rs_new;
    }
    x
}

pub fn ridge_lambda(j: usize) -> f64 {
    1e-3 * Z_ROWS as f64 * (j + 1) as f64
}

/// One job's wall time per part (normal equations, gradient, ridge path).
#[derive(Debug, Clone, Copy, Default)]
pub struct JobTimes {
    pub parts_ns: [u64; 3],
}

impl JobTimes {
    pub fn total_s(&self) -> f64 {
        self.parts_ns.iter().sum::<u64>() as f64 / 1e9
    }
}

/// Run one job; the oracle checks run between the timed parts. Returns the
/// part times and the number of results checked; failures go to `errors`.
pub fn job(
    yz: &[f64],
    env: &mut Env,
    prep: &Prepared,
    oracle: &Oracle,
    rec: &mut Recorder,
    id: u64,
    errors: &mut Vec<String>,
) -> (JobTimes, u64) {
    let mut times = JobTimes::default();
    let mut checks = 0u64;
    let mut check = |r: Result<(), String>, errors: &mut Vec<String>| {
        checks += 1;
        if let Err(e) = r {
            errors.push(e);
        }
    };

    // Part 1: normal equations and a Cholesky solve.
    let t = Instant::now();
    let root = rec.begin("part.normal_equations", id);
    let xtx = rec.time("exec.eval", id, || eval(&prep.xtx, env));
    let xty = rec.time("exec.eval", id, || eval(&prep.xty, env));
    let w_ne = match (&xtx, &xty) {
        (Ok(a), Ok(b)) => rec.time("solve.cholesky", id, || solve::solve_spd(a, b.data()).ok()),
        _ => None,
    };
    rec.end(root);
    times.parts_ns[0] = t.elapsed().as_nanos() as u64;
    check(xtx.and_then(|a| close(a.data(), &oracle.xtx, &oracle.xtx_mag, "t(X)X")), errors);
    check(xty.and_then(|b| close(b.data(), &oracle.xty, &oracle.xty_mag, "t(X)y")), errors);
    check(
        w_ne.ok_or_else(|| "normal equations did not solve".to_owned())
            .and_then(|w| close_solution(&w, &oracle.w_ne, "w_ne")),
        errors,
    );

    // Part 2: gradient steps.
    let mut w = vec![0.0; COLS];
    for step in 0..GRAD_STEPS {
        env.bind("w", Matrix::Dense(Dense::column(&w)));
        let t = Instant::now();
        let open = rec.begin("part.gradient", id);
        let g = rec.time("exec.eval", id, || eval(&prep.grad, env));
        if let Ok(g) = &g {
            rec.time("matrix.axpy", id, || ops::axpy(-LEARNING_RATE, g.data(), &mut w));
        }
        rec.end(open);
        times.parts_ns[1] += t.elapsed().as_nanos() as u64;
        let (want, mag) = &oracle.grads[step];
        check(g.and_then(|g| close(g.data(), want, mag, &format!("gradient step {step}"))), errors);
    }

    // Part 3: ridge path by CG on the compressed Z.
    let cm = &prep.cm;
    let t = Instant::now();
    let root = rec.begin("part.ridge_cg", id);
    let b = rec.time("compress.vecmat", id, || cm.vecmat(yz));
    let mut sols = Vec::with_capacity(RIDGE_PATH);
    for j in 0..RIDGE_PATH {
        let lambda = ridge_lambda(j);
        sols.push(cg(
            |v| {
                let zv = rec.time("compress.gemv", id, || cm.gemv(v));
                let mut g = rec.time("compress.vecmat", id, || cm.vecmat(&zv));
                for (gi, vi) in g.iter_mut().zip(v) {
                    *gi += lambda * vi;
                }
                g
            },
            &b,
            CG_ITERS,
        ));
    }
    rec.end(root);
    times.parts_ns[2] = t.elapsed().as_nanos() as u64;
    for (j, (sol, want)) in sols.iter().zip(&oracle.ridge).enumerate() {
        check(close_solution(sol, want, &format!("ridge {j}")), errors);
    }
    (times, checks)
}

fn median_time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&v)
}

/// Reset the process's `VmHWM` to its current resident set, so that the
/// peak read at the end covers only what runs after this call.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("resetting VmHWM: {e}"))
}

pub fn run(seed: u64, seconds: f64, traced: bool, rep: &mut Report) -> Result<(), String> {
    let data = generate(seed);
    let epoch = Instant::now();
    let mut off = Recorder::new(epoch, 0, false);
    let mut rec = Recorder::new(epoch, 0, traced);
    // Set-ups are spread over the run, one after every job; `setup_s` is
    // their median. The first one's result serves every job.
    let mut setups = Vec::new();
    let mut timed_prepare = |rec: &mut Recorder, z: &Dense| {
        let t = Instant::now();
        let p = prepare(z, rec);
        setups.push(t.elapsed().as_secs_f64());
        p
    };
    let prep = timed_prepare(if traced { &mut rec } else { &mut off }, &data.z);
    if traced {
        rep.attempted += 1;
        if let Err(e) = staged(&mut rec) {
            rep.fail(e);
        }
    }
    let oracle = Oracle::new(&data, &prep.cm);
    let Data { x, y, z, yz } = data;
    // The traced run's layer probes need X after it has moved into the Env.
    let x_probe = traced.then(|| x.clone());
    let mut env = Env::new();
    env.bind("X", Matrix::Dense(x));
    env.bind("y", Matrix::Dense(Dense::column(&y)));
    // `peak_rss_mb` covers the job's inputs, set-ups and jobs, not the
    // generator's and the oracle's temporaries.
    reset_peak_rss()?;
    let mut errors = Vec::new();
    let mut run_job = |rec: &mut Recorder, id: u64, rep: &mut Report| {
        let (t, checks) = job(&yz, &mut env, &prep, &oracle, rec, id, &mut errors);
        rep.attempted += checks;
        t
    };
    // One job first, so allocations and lazily created state settle.
    run_job(&mut off, 0, rep);
    let start = Instant::now();
    let mut jobs = Vec::new();
    let mut parts: [Vec<f64>; 3] = Default::default();
    let mut traced_jobs = Vec::new();
    let mut id = 1;
    while start.elapsed().as_secs_f64() < seconds || jobs.len() < 3 {
        // A traced run alternates plain and traced jobs for the overhead.
        if traced && id % 2 == 0 {
            traced_jobs.push(run_job(&mut rec, id, rep).total_s());
        } else {
            let t = run_job(&mut off, id, rep);
            jobs.push(t.total_s());
            for (v, ns) in parts.iter_mut().zip(t.parts_ns) {
                v.push(ns as f64 / 1e9);
            }
        }
        timed_prepare(if traced { &mut rec } else { &mut off }, &z);
        id += 1;
        if traced
            && jobs.len() >= 2
            && traced_jobs.len() >= 2
            && start.elapsed().as_secs_f64() > seconds * 0.5
        {
            break;
        }
    }
    for e in errors {
        rep.fail(e);
    }
    let job_s = median(&jobs);
    let rss = vm_hwm_mb("/proc/self/status").unwrap_or(f64::NAN);
    rep.info(format!(
        "{} jobs timed, {} set-ups; job_s median {job_s:.4} s; part medians (s): normal \
         equations {:.4}, gradient x{GRAD_STEPS} {:.4}, ridge CG x{RIDGE_PATH} {:.4}",
        jobs.len(),
        setups.len(),
        median(&parts[0]),
        median(&parts[1]),
        median(&parts[2])
    ));
    if !traced {
        rep.e2e("setup_s", median(&setups), "s");
        rep.e2e("p50_ms", job_s * 1e3, "ms");
        rep.e2e("peak_rss_mb", rss, "MB");
        rep.extra("job_s", job_s, "s");
        return Ok(());
    }
    let x = x_probe.expect("kept for traced runs");
    layers(&x, &y, &yz, &prep, &rec, rep);
    let traced_job_s = median(&traced_jobs);
    rep.layer("bench.trace_overhead", traced_job_s / job_s - 1.0, "ratio");
    // Self time per (span, enclosing span), over the traced jobs only.
    let njobs = traced_jobs.len().max(1) as f64;
    let by_parent = rec.self_by_parent(|s| s.id > 0);
    let per_job_us = |name: &str, parent: &str| {
        by_parent.get(&(name, Some(parent))).map_or(0.0, |t| t.1 as f64 / 1e3 / njobs)
    };
    let rows: Vec<(String, f64)> = [
        ("exec.eval", "part.normal_equations"),
        ("solve.cholesky", "part.normal_equations"),
        ("exec.eval", "part.gradient"),
        ("matrix.axpy", "part.gradient"),
        ("compress.vecmat", "part.ridge_cg"),
        ("compress.gemv", "part.ridge_cg"),
    ]
    .iter()
    .map(|(n, p)| (format!("{p}: {n}"), per_job_us(n, p)))
    .chain(["part.normal_equations", "part.gradient", "part.ridge_cg"].iter().map(|p| {
        let own = by_parent.get(&(*p, None)).map_or(0.0, |t| t.1 as f64 / 1e3 / njobs);
        (format!("{p}: own code outside the calls above"), own)
    }))
    .collect();
    let mean_job_us = mean(&traced_jobs) * 1e6;
    rep.amdahl("train_batch", "job_s", traced_job_s * 1e6, mean_job_us, rows);
    rep.trace(rec);
    Ok(())
}

/// Per-layer measurements around direct calls into each layer.
fn layers(x: &Dense, y: &[f64], yz: &[f64], prep: &Prepared, rec: &Recorder, rep: &mut Report) {
    let degree = dmml::par::default_degree();
    let (n, d) = (x.rows() as f64, x.cols() as f64);
    let par_ms = median_time_ms(3, || {
        std::hint::black_box(dmml::matrix::par::crossprod(x, degree));
    });
    let serial_ms = median_time_ms(3, || {
        std::hint::black_box(dmml::matrix::par::crossprod(x, 1));
    });
    rep.layer("matrix.crossprod_ms", par_ms, "ms");
    // Nominal 2 n d^2 flops for t(X) %*% X.
    rep.layer("matrix.crossprod_gflops", 2.0 * n * d * d / (par_ms * 1e6), "GFLOP/s");
    rep.layer("par.crossprod_speedup", serial_ms / par_ms, "ratio");
    let w: Vec<f64> = (0..COLS).map(|i| i as f64 / COLS as f64).collect();
    let gemv_ms = median_time_ms(9, || {
        std::hint::black_box(ops::gemv(x, &w));
    });
    rep.layer("matrix.gemv_ms", gemv_ms, "ms");
    rep.layer("matrix.gemv_gbps", 8.0 * n * d / (gemv_ms * 1e6), "GB/s");
    rep.layer(
        "matrix.tmv_ms",
        median_time_ms(9, || {
            std::hint::black_box(ops::tmv(x, y));
        }),
        "ms",
    );
    let xtx = ops::crossprod(x);
    rep.layer(
        "solve.cholesky_ms",
        median_time_ms(9, || {
            std::hint::black_box(solve::cholesky(&xtx).ok());
        }),
        "ms",
    );

    // The executor: instrumented as the server runs it, plain as the job
    // runs it, and the same math through direct kernel calls.
    let mut env = Env::new();
    env.bind("X", Matrix::Dense(x.clone()));
    env.bind("y", Matrix::Dense(Dense::column(y)));
    env.bind("w", Matrix::Dense(Dense::column(&w)));
    let g = &prep.grad;
    let instrumented = median_time_ms(3, || {
        let mut ex = Executor::with_plan(&g.graph, g.plan.clone()).profiled().traced();
        std::hint::black_box(ex.eval(g.root, &env).ok());
        dmml::obs::trace::clear();
    });
    let mut stats = None;
    let plain = median_time_ms(3, || {
        let mut ex = Executor::with_plan(&g.graph, g.plan.clone());
        std::hint::black_box(ex.eval(g.root, &env).ok());
        stats = ex.ooc_pool_stats();
    });
    let in_memory = median_time_ms(3, || {
        let mut ex = Executor::with_plan(&g.graph, g.plan.clone())
            .with_memory_budget(MemoryBudget::unbounded());
        std::hint::black_box(ex.eval(g.root, &env).ok());
    });
    let direct = median_time_ms(3, || {
        let mut r = ops::gemv(x, &w);
        for (ri, yi) in r.iter_mut().zip(y) {
            *ri -= yi;
        }
        std::hint::black_box(ops::tmv(x, &r));
    });
    rep.layer("exec.eval_us", instrumented * 1e3, "us");
    rep.layer("exec.eval_plain_us", plain * 1e3, "us");
    rep.layer("exec.direct_kernel_us", direct * 1e3, "us");
    rep.layer("exec.dispatch_us", (in_memory - direct) * 1e3, "us");
    rep.layer("exec.instrumentation_us", (instrumented - plain) * 1e3, "us");
    rep.layer("buffer.ooc_overhead_ms", plain - in_memory, "ms");
    if let Some(s) = stats {
        rep.layer("buffer.spilled_mb", s.spilled_bytes as f64 / 1e6, "MB");
        rep.layer("buffer.faulted_mb", s.faulted_bytes as f64 / 1e6, "MB");
        rep.layer("buffer.evictions", s.evictions as f64, "count");
        rep.layer("buffer.hit_ratio", s.hit_rate(), "ratio");
        rep.layer("buffer.peak_mb", s.peak_used as f64 / 1e6, "MB");
    }

    // Compressed linear algebra.
    let cm = &prep.cm;
    let compress_ms: Vec<f64> =
        rec.durations("compress.compress").iter().map(|ns| ns / 1e6).collect();
    rep.layer("compress.compress_ms", median(&compress_ms), "ms");
    rep.layer("compress.ratio", cm.compression_ratio(), "ratio");
    let totals: HashMap<&str, (u64, u64)> = rec.self_totals().into_iter().collect();
    let per_call_us =
        |span: &str| totals.get(span).map_or(0.0, |t| t.1 as f64 / 1e3 / t.0.max(1) as f64);
    rep.layer("compress.gemv_us", per_call_us("compress.gemv"), "us");
    rep.layer("compress.vecmat_us", per_call_us("compress.vecmat"), "us");
    let cg_ms: Vec<f64> = rec.durations("part.ridge_cg").iter().map(|ns| ns / 1e6).collect();
    rep.layer("compress.cg_ms", median(&cg_ms), "ms");
    let zd = cm.decompress();
    let b = ops::tmv(&zd, yz);
    let dense_cg = median_time_ms(3, || {
        for j in 0..RIDGE_PATH {
            let lambda = ridge_lambda(j);
            std::hint::black_box(cg(
                |v| {
                    let mut g = ops::tmv(&zd, &ops::gemv(&zd, v));
                    for (gi, vi) in g.iter_mut().zip(v) {
                        *gi += lambda * vi;
                    }
                    g
                },
                &b,
                CG_ITERS,
            ));
        }
    });
    rep.layer("compress.speedup_vs_dense", dense_cg / median(&cg_ms), "ratio");
    let compile_us: Vec<f64> = rec.durations("cache.compile").iter().map(|ns| ns / 1e3).collect();
    rep.layer("cache.compile_us", mean(&compile_us), "us");
    for (span, metric) in [
        ("compile.parse", "parser.parse_us"),
        ("rewrite.optimize", "rewrite.optimize_us"),
        ("size.propagate", "size.propagate_us"),
        ("physical.plan", "physical.plan_us"),
        ("liveness.certify", "liveness.certify_us"),
        ("cost.price", "cost.price_us"),
    ] {
        rep.layer(metric, per_call_us(span), "us");
    }
}
