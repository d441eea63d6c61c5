//! In-process replay of the scoring server's request path, one public call
//! per span, in the server's order:
//!
//! `decode_request` → `parser::parse` → `program_hash` + key → `PlanCache::get`
//! → on a miss `compile` → `Executor` eval (`.profiled().traced()`, stats
//! and kernel profiles recorded, as the server runs it) → `encode_response`.
//!
//! Beside the path it times the same evaluation without instrumentation,
//! the same math through direct `dm-matrix` calls, and each distinct
//! program's compile stage by stage (checked against one whole `compile`).

use crate::programs::{Expr, Program};
use crate::trace::Recorder;
use dmml::lang::cache::{compile, program_hash, CompiledProgram, InputClass, PlanCache, PlanKey};
use dmml::lang::cost::{calibrated_cost, CostModel};
use dmml::lang::exec::{Env, Executor, Val};
use dmml::lang::liveness::certify_plan;
use dmml::lang::memory::MemoryBudget;
use dmml::lang::parser;
use dmml::lang::physical::{plan_with_memory_profile, Kernel};
use dmml::lang::rewrite::optimize;
use dmml::lang::size::{propagate, InputSizes};
use dmml::matrix::{ops, Dense, Matrix};
use dmml::obs::profile::ProfileStore;
use dmml::obs::StatsRegistry;
use dmml::serve::protocol::{decode_request, encode_request, encode_response_with_rid};
use dmml::serve::{InputValue, Request, Response, ScoreResult};
use std::collections::HashSet;
use std::sync::Arc;

/// The server's shared state, configured as `ServeConfig::from_env` with a
/// clean environment configures it.
pub struct Replayer {
    cache: PlanCache,
    model: CostModel,
    registry: StatsRegistry,
    profiles: ProfileStore,
    budget: MemoryBudget,
    degree: usize,
    compiled_staged: HashSet<String>,
    pub requests: u64,
    pub misses: u64,
    pub mismatches: Vec<String>,
}

fn sizes_and_classes(req: &Request) -> (InputSizes, Vec<InputClass>) {
    let mut sizes = InputSizes::new();
    let mut classes = Vec::new();
    for (name, v) in &req.inputs {
        if let InputValue::Matrix { rows, cols, data } = v {
            let sp = data.iter().filter(|x| **x != 0.0).count() as f64 / data.len().max(1) as f64;
            sizes.declare(name, *rows, *cols, sp);
            classes.push(InputClass::new(name, *rows, *cols, sp));
        }
    }
    (sizes, classes)
}

fn env_of(req: &Request) -> Env {
    let mut env = Env::new();
    for (name, v) in &req.inputs {
        match v {
            InputValue::Matrix { rows, cols, data } => {
                let d = Dense::from_vec(*rows, *cols, data.clone()).expect("shape checked");
                env.bind(name, Matrix::Dense(d));
            }
            InputValue::Scalar(x) => {
                env.bind_scalar(name, *x);
            }
        }
    }
    env
}

fn to_result(v: Val) -> ScoreResult {
    match v {
        Val::Scalar(s) => ScoreResult::Scalar(s),
        Val::Matrix(m) => {
            let d = m.to_dense();
            ScoreResult::Matrix { rows: d.rows(), cols: d.cols(), data: d.data().to_vec() }
        }
    }
}

/// The program's math through direct `dm-matrix` calls, in source order.
fn direct(e: &Expr, inputs: &[Dense]) -> Dense {
    match e {
        Expr::Input(i) => inputs[*i].clone(),
        Expr::MatMul(a, b) => {
            let (a, b) = (direct(a, inputs), direct(b, inputs));
            if b.cols() == 1 {
                Dense::column(&ops::gemv(&a, b.data()))
            } else {
                ops::gemm(&a, &b)
            }
        }
        Expr::T(a) => direct(a, inputs).transpose(),
        Expr::Sum(a) => Dense::filled(1, 1, ops::sum(&direct(a, inputs))),
        Expr::ColSums(a) => {
            let s = ops::col_sums(&direct(a, inputs));
            Dense::from_vec(1, s.len(), s).expect("row vector")
        }
        Expr::Add(a, b) => ops::add(&direct(a, inputs), &direct(b, inputs)),
        Expr::Sub(a, b) => ops::sub(&direct(a, inputs), &direct(b, inputs)),
        Expr::Mul(a, b) => ops::mul(&direct(a, inputs), &direct(b, inputs)),
    }
}

impl Replayer {
    /// A replayer whose plan cache holds `capacity` plans, like the server's.
    pub fn new(capacity: usize) -> Self {
        Replayer {
            cache: PlanCache::new(capacity),
            model: CostModel::new(ProfileStore::new()),
            registry: StatsRegistry::new(),
            profiles: ProfileStore::new(),
            budget: MemoryBudget::from_env(),
            degree: dmml::par::default_degree(),
            compiled_staged: HashSet::new(),
            requests: 0,
            misses: 0,
            mismatches: Vec::new(),
        }
    }

    /// Bring the cache to the state warm-up leaves in the server.
    pub fn warm(&mut self, reqs: &[Request]) {
        let mut off = Recorder::new(std::time::Instant::now(), 0, false);
        for r in reqs {
            self.request(&encode_request(r), &mut off, 0);
        }
        self.requests = 0;
        self.misses = 0;
    }

    /// Replay one encoded request along the server's path.
    pub fn request(
        &mut self,
        raw: &str,
        rec: &mut Recorder,
        id: u64,
    ) -> Option<(String, Arc<CompiledProgram>)> {
        self.requests += 1;
        let root = rec.begin("server.request", id);
        let out = self.path(raw, rec, id);
        rec.end(root);
        out
    }

    fn path(
        &mut self,
        raw: &str,
        rec: &mut Recorder,
        id: u64,
    ) -> Option<(String, Arc<CompiledProgram>)> {
        let req = rec.time("protocol.decode_request", id, || decode_request(raw)).ok()?;
        let (raw_graph, raw_root) =
            rec.time("parser.parse", id, || parser::parse(&req.program)).ok()?;
        let (sizes, key) = rec.time("cache.hash", id, || {
            let (sizes, classes) = sizes_and_classes(&req);
            (sizes, PlanKey::new(program_hash(&raw_graph, raw_root), classes))
        });
        let mut hit = true;
        let prog = match rec.time("cache.probe", id, || self.cache.get(&key)) {
            Some(p) => p,
            None => {
                self.misses += 1;
                let budget = self.budget;
                let (degree, model) = (self.degree, &self.model);
                let p = rec
                    .time("cache.compile", id, || {
                        compile(&req.program, &sizes, degree, budget, model)
                    })
                    .ok()?;
                let p = Arc::new(p);
                self.cache.insert(key, Arc::clone(&p));
                hit = false;
                p
            }
        };
        let val = {
            let open = rec.begin("exec.eval", id);
            let mut ex = Executor::with_plan(&prog.graph, prog.plan.clone())
                .without_env_sinks()
                .profiled()
                .traced();
            let env = env_of(&req);
            let v = ex.eval(prog.root, &env);
            ex.record_stats(&self.registry);
            ex.record_kernel_profiles(&mut self.profiles);
            rec.end(open);
            // The server drains each request's events out of the global
            // trace ring when it completes; do the same.
            dmml::obs::trace::clear();
            v.ok()?
        };
        let resp = rec.time("protocol.encode_response", id, || {
            let resp = Response::Score {
                result: to_result(val),
                cache_hit: hit,
                batched: false,
                blocked_nodes: prog.blocked_nodes,
            };
            encode_response_with_rid(&resp, id)
        });
        Some((resp, prog))
    }

    /// Time the same evaluation without instrumentation, and the same math
    /// through direct kernel calls (both outside the request path). Each
    /// span includes binding the request's inputs, as `exec.eval` does.
    pub fn alternates(
        &self,
        req: &Request,
        prog: &CompiledProgram,
        program: &Program,
        rec: &mut Recorder,
        id: u64,
    ) {
        rec.time("exec.eval_plain", id, || {
            let env = env_of(req);
            let mut ex = Executor::with_plan(&prog.graph, prog.plan.clone()).without_env_sinks();
            std::hint::black_box(ex.eval(prog.root, &env).ok());
        });
        rec.time("exec.direct_kernel", id, || {
            let dense: Vec<Dense> = program
                .inputs
                .iter()
                .map(|s| match &req.inputs.iter().find(|(n, _)| *n == s.name).expect("bound").1 {
                    InputValue::Matrix { rows, cols, data } => {
                        Dense::from_vec(*rows, *cols, data.clone()).expect("shape checked")
                    }
                    InputValue::Scalar(x) => Dense::filled(1, 1, *x),
                })
                .collect();
            std::hint::black_box(direct(&program.expr, &dense));
        });
    }

    /// Compile each distinct program once stage by stage (outside the
    /// request path), checked against one whole `compile`.
    pub fn staged_compile(&mut self, raw: &str, rec: &mut Recorder, id: u64) {
        let Ok(req) = decode_request(raw) else { return };
        if !self.compiled_staged.insert(req.program.clone()) {
            return;
        }
        let (sizes, _) = sizes_and_classes(&req);
        if let Err(e) =
            staged_compile(&req.program, &sizes, self.degree, self.budget, &self.model, rec, id)
        {
            self.mismatches.push(e);
        }
    }
}

/// Run `compile`'s stages one public call at a time, then one whole
/// `compile`, and check that both produce the same plan.
pub fn staged_compile(
    src: &str,
    sizes: &InputSizes,
    degree: usize,
    budget: MemoryBudget,
    model: &CostModel,
    rec: &mut Recorder,
    id: u64,
) -> Result<(), String> {
    let root = rec.begin("compile.staged", id);
    let staged: Option<CompiledProgram> = (|| {
        let (g0, r0) = rec.time("compile.parse", id, || parser::parse(src)).ok()?;
        let (graph, root, rewrites) =
            rec.time("rewrite.optimize", id, || optimize(&g0, r0, sizes)).ok()?;
        let infos = rec.time("size.propagate", id, || propagate(&graph, root, sizes)).ok()?;
        let plan = rec.time("physical.plan", id, || {
            plan_with_memory_profile(&graph, root, &infos, degree, budget, model)
        });
        let certificate =
            Some(rec.time("liveness.certify", id, || {
                certify_plan(&graph, root, &plan, &infos, budget)
            }));
        let est = rec
            .time("cost.price", id, || calibrated_cost(&graph, root, sizes, &plan, model))
            .ok()?;
        let blocked_nodes = plan.nodes_with(Kernel::Blocked).len();
        Some(CompiledProgram {
            graph,
            root,
            plan,
            rewrites,
            certificate,
            blocked_nodes,
            est_cost_ns: u64::try_from(est).unwrap_or(u64::MAX),
        })
    })();
    rec.end(root);
    let whole = rec.time("cache.compile", id, || compile(src, sizes, degree, budget, model));
    match (&staged, &whole) {
        (Some(s), Ok(w))
            if program_hash(&s.graph, s.root) == program_hash(&w.graph, w.root)
                && s.kernel_summary() == w.kernel_summary()
                && s.blocked_nodes == w.blocked_nodes
                && s.est_cost_ns == w.est_cost_ns
                && s.certified_peak() == w.certified_peak() =>
        {
            Ok(())
        }
        _ => Err(format!("staged compile differs from compile(): {src}")),
    }
}
