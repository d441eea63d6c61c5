//! Certification acceptance: the static liveness certificate is a sound
//! upper bound on the executor's observed spill-pool peak, across random
//! DAGs and budget fractions, with bit-identical results and clean pool
//! audits; and the certifier-driven planner fixes the composite-peak blind
//! spot of the per-node check end to end.

use dm_lang::exec::{Env, Executor, Val};
use dm_lang::expr::{AggOp, EwiseOp, Graph, NodeId, Op};
use dm_lang::memory::MemoryBudget;
use dm_lang::physical::{
    plan_with_memory_profile, plan_with_memory_reordered, Kernel, PhysicalPlan,
};
use dm_lang::size::{InputSizes, SizeInfo};
use dm_lang::{certify_plan, CostModel};
use dm_matrix::{Dense, Matrix};
use proptest::prelude::*;
use std::collections::HashMap;

fn dense_input(rows: usize, cols: usize, salt: u64) -> Dense {
    Dense::from_fn(rows, cols, |r, c| {
        let h = (r as u64)
            .wrapping_mul(6364136223846793005)
            .wrapping_add(c as u64)
            .wrapping_add(salt)
            .wrapping_mul(1442695040888963407);
        ((h >> 33) % 100) as f64 * 0.017 - 0.85
    })
}

/// A random same-shape DAG over two inputs, closed off by every blocked
/// kernel family: crossprod, a gemm-shaped matmul, colSums, and scalar
/// aggregation at the root.
fn random_dag(codes: &[(u8, u8, u8)]) -> (Graph, NodeId) {
    let mut g = Graph::new();
    let x = g.input("X");
    let y = g.input("Y");
    let mut pool = vec![x, y];
    for &(op, ia, ib) in codes {
        let a = pool[ia as usize % pool.len()];
        let b = pool[ib as usize % pool.len()];
        let n = match op % 3 {
            0 => g.ewise(EwiseOp::Add, a, b),
            1 => g.ewise(EwiseOp::Mul, a, b),
            _ => g.ewise(EwiseOp::Sub, a, b),
        };
        pool.push(n);
    }
    let last = *pool.last().unwrap();
    let cp = g.push(Op::CrossProd(last)); // cols x cols
    let mm = g.matmul(last, cp); // rows x cols gemm
    let cs = g.agg(AggOp::ColSums, mm);
    let s_cs = g.agg(AggOp::Sum, cs);
    let s_mm = g.agg(AggOp::Sum, mm);
    let root = g.ewise(EwiseOp::Add, s_cs, s_mm);
    (g, root)
}

fn scalar_bits(v: &Val) -> u64 {
    match v {
        Val::Scalar(s) => s.to_bits(),
        _ => panic!("scalar root expected"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// For random DAGs at 100% / 50% / 25% of the unbounded certified peak:
    /// the static peak bounds the observed pool peak, blocked execution is
    /// bit-identical to in-memory, and the pool audits clean.
    #[test]
    fn static_peak_bounds_observed_pool_peak(
        rows in 64usize..200,
        cols in 4usize..16,
        codes in proptest::collection::vec((0u8..3, 0u8..8, 0u8..8), 1..6),
        salt in 0u64..1000,
    ) {
        let (g, root) = random_dag(&codes);
        let mut sizes = InputSizes::new();
        sizes.declare("X", rows, cols, 1.0);
        sizes.declare("Y", rows, cols, 1.0);
        let infos = dm_lang::size::propagate(&g, root, &sizes).unwrap();
        let mut env = Env::new();
        env.bind("X", Matrix::Dense(dense_input(rows, cols, salt)));
        env.bind("Y", Matrix::Dense(dense_input(rows, cols, salt.wrapping_add(31))));

        let mut plain = Executor::new(&g);
        let expect = scalar_bits(&plain.eval(root, &env).unwrap());

        // The unbounded plan's certified peak calibrates the budgets.
        let base = static_plan(&g, root, &infos, 1, MemoryBudget::unbounded());
        let unbounded = certify_plan(&g, root, &base, &infos, MemoryBudget::unbounded());
        prop_assert!(unbounded.peak_bytes > 0);

        for denom in [1usize, 2, 4] {
            let budget = MemoryBudget::bytes((unbounded.peak_bytes / denom).max(1));
            let plan = static_plan(&g, root, &infos, 1, budget);
            let cert = certify_plan(&g, root, &plan, &infos, budget);
            if denom == 1 {
                // The full-peak budget needs no blocking at all.
                prop_assert!(cert.fits(), "{}", cert.render(&g));
                prop_assert_eq!(plan.nodes_with(Kernel::Blocked), Vec::<NodeId>::new());
            }
            let mut ex = Executor::with_plan(&g, plan);
            let got = scalar_bits(&ex.eval(root, &env).unwrap());
            prop_assert_eq!(got, expect, "budgeted run must be bit-identical (denom {})", denom);

            if let Some(stats) = ex.ooc_pool_stats() {
                prop_assert!(
                    cert.peak_bytes >= stats.peak_used,
                    "static peak {} B must bound the observed pool peak {} B (denom {})",
                    cert.peak_bytes,
                    stats.peak_used,
                    denom,
                );
                let pool = ex.ooc_pool().unwrap();
                let report = pool.audit_quiescent().expect("pool audit clean");
                prop_assert!(report.pinned.is_empty(), "no pins survive the run");
                prop_assert_eq!(pool.used(), 0, "all stores discarded");
            }
        }
    }
}

/// A model over every parallelizable op's serial and parallel families at
/// every size class from 2^4 to 2^44 flops, with the serial families at
/// `serial_gflops` and parallel at `parallel_gflops`.
fn uniform_model(serial_gflops: f64, parallel_gflops: f64) -> CostModel {
    let mut store = dm_obs::ProfileStore::new();
    for op in ["matmul", "crossprod", "tmv", "sumSq", "colSums"] {
        for (family, gflops) in
            [("dense", serial_gflops), ("fused", serial_gflops), ("parallel", parallel_gflops)]
        {
            for k in 4..=44u32 {
                let flops = 1u64 << k;
                let ns = ((flops as f64 / gflops) as u64).max(1);
                for _ in 0..dm_obs::profile::MIN_SAMPLES {
                    store.record(op, family, flops, ns);
                }
            }
        }
    }
    CostModel::new(store)
}

/// The static plan: [`plan_with_memory_profile`] with an empty cost model.
fn static_plan(
    g: &Graph,
    root: NodeId,
    infos: &HashMap<NodeId, SizeInfo>,
    degree: usize,
    budget: MemoryBudget,
) -> PhysicalPlan {
    plan_with_memory_profile(g, root, infos, degree, budget, &CostModel::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Invariants of the planner over random DAGs x degrees {1, 2, 4} x
    /// budgets {unbounded, peak, peak/2, peak/4} x models {empty, serial
    /// wins, parallel wins}, with complete sizes and with one node's size
    /// missing (the per-node fallback): degree 1 plans nothing parallel; an
    /// unbounded budget blocks nothing and records no budget; sparse and
    /// scalar choices never move; a budget equal to the unbounded certified
    /// peak blocks nothing; and the reordered planner returns a topological
    /// order of the reachable nodes.
    #[test]
    fn planner_invariants_hold_across_degrees_budgets_and_models(
        rows_log in 6u32..18,
        cols in 4usize..48,
        sp_x in prop_oneof![Just(0.05), Just(0.5), Just(1.0)],
        sp_y in prop_oneof![Just(0.05), Just(0.5), Just(1.0)],
        codes in proptest::collection::vec((0u8..3, 0u8..8, 0u8..8), 1..6),
        drop in 0usize..24,
    ) {
        let (g, root) = random_dag(&codes);
        let reachable = g.reachable(root);
        let mut inputs = InputSizes::new();
        inputs.declare("X", 1usize << rows_log, cols, sp_x);
        inputs.declare("Y", 1usize << rows_log, cols, sp_y);
        let mut infos = dm_lang::size::propagate(&g, root, &inputs).unwrap();
        // A third of the cases plan with one node's size missing.
        let complete = drop >= 8;
        if !complete {
            infos.remove(&reachable[drop % reachable.len()]);
        }
        let models = [CostModel::default(), uniform_model(4.0, 2.0), uniform_model(2.0, 6.0)];
        let serial = static_plan(&g, root, &infos, 1, MemoryBudget::unbounded());
        let fixed = |p: &PhysicalPlan| (p.nodes_with(Kernel::Sparse), p.nodes_with(Kernel::Scalar));
        for degree in [1usize, 2, 4] {
            for model in &models {
                let unbounded = MemoryBudget::unbounded();
                let free = plan_with_memory_profile(&g, root, &infos, degree, unbounded, model);
                prop_assert!(free.nodes_with(Kernel::Blocked).is_empty());
                prop_assert_eq!(free.mem_budget(), None);
                let peak = certify_plan(&g, root, &free, &infos, unbounded).peak_bytes;
                let budgets = [
                    unbounded,
                    MemoryBudget::bytes(peak.max(1)),
                    MemoryBudget::bytes((peak / 2).max(1)),
                    MemoryBudget::bytes((peak / 4).max(1)),
                ];
                for (i, budget) in budgets.into_iter().enumerate() {
                    let p = plan_with_memory_profile(&g, root, &infos, degree, budget, model);
                    prop_assert_eq!(p.degree(), degree);
                    prop_assert_eq!(p.mem_budget(), budget.get());
                    if degree == 1 {
                        prop_assert!(p.nodes_with(Kernel::Parallel).is_empty());
                    }
                    prop_assert_eq!(fixed(&p), fixed(&serial));
                    if i == 1 && complete {
                        prop_assert!(
                            p.nodes_with(Kernel::Blocked).is_empty(),
                            "the unbounded peak fits its own budget"
                        );
                    }
                    let (re, order) =
                        plan_with_memory_reordered(&g, root, &infos, degree, budget, model);
                    prop_assert_eq!(fixed(&re), fixed(&serial));
                    let mut sorted = order.clone();
                    sorted.sort_unstable();
                    let mut want = reachable.clone();
                    want.sort_unstable();
                    prop_assert_eq!(sorted, want);
                    for (step, &n) in order.iter().enumerate() {
                        for c in g.op(n).children() {
                            prop_assert!(order[..step].contains(&c), "child %{} after %{}", c, n);
                        }
                    }
                }
            }
        }
    }
}

/// The composite-peak scenario end to end: every node individually fits
/// the budget but the composite peak exceeds it; the certifier-driven planner produces a plan
/// certified to fit, and that plan executes identically to the in-memory
/// run while honoring the pool bound.
#[test]
fn composite_peak_is_caught_and_fixed_end_to_end() {
    let mut sizes = InputSizes::new();
    sizes.declare("X", 256, 256, 1.0); // 512 KB each
    sizes.declare("Y", 256, 256, 1.0);
    let mut g = Graph::new();
    let x = g.input("X");
    let y = g.input("Y");
    let z = g.ewise(EwiseOp::Add, x, y);
    let root = g.agg(AggOp::Sum, z);
    let infos = dm_lang::size::propagate(&g, root, &sizes).unwrap();
    let budget = MemoryBudget::bytes(1_300_000);

    // Unblocked, the plan overflows at the add, where three 512 KB values
    // coexist (the per-node rule misses this; see its unit test in
    // `physical`).
    let unblocked = static_plan(&g, root, &infos, 1, MemoryBudget::unbounded());
    assert!(!certify_plan(&g, root, &unblocked, &infos, budget).fits());

    // Certifier-driven planner: blocks the add, certifies the fit.
    let new = static_plan(&g, root, &infos, 1, budget);
    assert_eq!(new.kernel(z), Kernel::Blocked);
    let cert = certify_plan(&g, root, &new, &infos, budget);
    assert!(cert.fits(), "{}", cert.render(&g));

    let mut env = Env::new();
    env.bind("X", Matrix::Dense(dense_input(256, 256, 1)));
    env.bind("Y", Matrix::Dense(dense_input(256, 256, 2)));
    let mut plain = Executor::new(&g);
    let expect = scalar_bits(&plain.eval(root, &env).unwrap());
    let mut ex = Executor::with_plan(&g, new);
    let got = scalar_bits(&ex.eval(root, &env).unwrap());
    assert_eq!(got, expect, "blocked add is bit-identical");
    let stats = ex.ooc_pool_stats().expect("blocked dispatch created the pool");
    assert!(cert.peak_bytes >= stats.peak_used);
}

/// A reordered schedule from `plan_with_memory_reordered` runs through
/// `eval_schedule` and matches the default-order result, while avoiding the
/// spill the DFS order required.
#[test]
fn reordered_schedule_executes_without_spilling() {
    let mut sizes = InputSizes::new();
    sizes.declare("X", 256, 256, 1.0);
    sizes.declare("A", 256, 1024, 1.0);
    sizes.declare("B", 1024, 256, 1.0);
    let mut g = Graph::new();
    let x = g.input("X");
    let a = g.input("A");
    let b = g.input("B");
    let r = g.matmul(a, b);
    let add = g.ewise(EwiseOp::Add, x, r);
    let root = g.agg(AggOp::Sum, add);
    let infos = dm_lang::size::propagate(&g, root, &sizes).unwrap();
    let budget = MemoryBudget::bytes(5_100_000);

    let dfs = static_plan(&g, root, &infos, 1, budget);
    assert!(!dfs.nodes_with(Kernel::Blocked).is_empty(), "DFS order must spill");
    let (re, order) =
        plan_with_memory_reordered(&g, root, &infos, 1, budget, &CostModel::default());
    assert!(re.nodes_with(Kernel::Blocked).is_empty(), "reordered plan fits in memory");

    let mut env = Env::new();
    env.bind("X", Matrix::Dense(dense_input(256, 256, 5)));
    env.bind("A", Matrix::Dense(dense_input(256, 1024, 6)));
    env.bind("B", Matrix::Dense(dense_input(1024, 256, 7)));
    let mut plain = Executor::new(&g);
    let expect = scalar_bits(&plain.eval(root, &env).unwrap());
    let mut ex = Executor::with_plan(&g, re);
    let got = scalar_bits(&ex.eval_schedule(&order, &env).unwrap());
    assert_eq!(got, expect);
    assert!(ex.ooc_pool_stats().is_none(), "no blocked kernel, no spill pool");
}
