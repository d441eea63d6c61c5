//! Physical operator selection: dense vs. sparse kernels per logical op,
//! upgraded to parallel or blocked out-of-core kernels where the degree and
//! the memory budget call for it.
//!
//! The selection mirrors the surveyed compilers' LOP assignment: propagated
//! sparsity estimates pick the kernel family, with a crossover threshold
//! calibrated by experiment E6. One planner, [`plan_with_memory_profile`],
//! does every step; [`plan_with_memory_reordered`] is the same planner
//! fitted to a peak-minimizing schedule instead of the depth-first one.

use crate::cost::CostModel;
use crate::expr::{Graph, NodeId, Op};
use crate::liveness::Schedule;
use crate::memory::MemoryBudget;
use crate::size::SizeInfo;
use std::collections::HashMap;
use std::fmt;

/// Kernel family chosen for one operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Dense row-major kernel.
    Dense,
    /// CSR sparse kernel.
    Sparse,
    /// Scalar computation (constants, folded aggregates).
    Scalar,
    /// Multi-threaded dense kernel (`dm_matrix::par`), chosen by
    /// [`plan_with_memory_profile`] at a degree above one when the cost
    /// model prices parallel below serial, or — where it cannot price both
    /// — when the estimated flop count clears [`PAR_FLOP_THRESHOLD`].
    Parallel,
    /// Blocked out-of-core kernel (`dm_buffer::ooc`), chosen by
    /// [`plan_with_memory_profile`] under a bounded memory budget when the
    /// certified live set would otherwise exceed it: tiles stream through a
    /// buffer pool instead of being held resident at once.
    Blocked,
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Kernel::Dense => "dense",
            Kernel::Sparse => "sparse",
            Kernel::Scalar => "scalar",
            Kernel::Parallel => "parallel",
            Kernel::Blocked => "blocked",
        })
    }
}

/// The per-node physical plan.
#[derive(Debug, Clone, Default)]
pub struct PhysicalPlan {
    kernels: HashMap<NodeId, Kernel>,
    degree: usize,
    mem_budget: Option<usize>,
}

impl PhysicalPlan {
    /// The kernel chosen for a node (defaults to dense for nodes the planner
    /// never saw — e.g. when sizes were unavailable).
    pub fn kernel(&self, id: NodeId) -> Kernel {
        self.kernels.get(&id).copied().unwrap_or(Kernel::Dense)
    }

    /// Degree of parallelism the plan was built for (at least 1):
    /// [`plan_with_memory_profile`] records its degree here so the executor
    /// dispatches [`Kernel::Parallel`] nodes accordingly.
    pub fn degree(&self) -> usize {
        self.degree.max(1)
    }

    /// The memory budget (bytes) [`plan_with_memory_profile`] planned
    /// under; `None` for unbounded plans. The executor sizes its spill pool
    /// from this.
    pub fn mem_budget(&self) -> Option<usize> {
        self.mem_budget
    }

    /// Number of planned nodes.
    pub fn len(&self) -> usize {
        self.kernels.len()
    }

    /// True when no nodes were planned.
    pub fn is_empty(&self) -> bool {
        self.kernels.is_empty()
    }

    /// The planned nodes assigned kernel `k`, in ascending node order.
    pub fn nodes_with(&self, k: Kernel) -> Vec<NodeId> {
        let mut v: Vec<NodeId> =
            self.kernels.iter().filter(|&(_, &kk)| kk == k).map(|(&n, _)| n).collect();
        v.sort_unstable();
        v
    }
}

/// Sparsity below which sparse kernels win for multiply-like ops.
///
/// CSR row iteration costs roughly `2·nnz` flops plus index traffic versus the
/// dense kernel's `2·n·d`; the index overhead and lost vectorization put the
/// measured crossover near 0.15–0.3 on this code base (see E6). We use a
/// conservative 0.2.
pub const SPARSE_THRESHOLD: f64 = 0.2;

/// Estimated flops below which serial dense kernels beat the multi-threaded
/// ones: at ~1 Gflop/s-per-core effective throughput, 16M flops is in the
/// tens of milliseconds — comfortably above the scoped-pool spawn + partition
/// overhead — while everything the small-input benchmarks (E5) execute stays
/// far below it.
pub const PAR_FLOP_THRESHOLD: u128 = 16_000_000;

/// Assign a kernel to every node reachable from `root`, given propagated
/// sizes — the planner every compile runs.
///
/// 1. **Representation.** Propagated sparsity below [`SPARSE_THRESHOLD`]
///    picks the sparse kernel (multiply-like ops and aggregates follow their
///    input's representation); constants and scalar shapes are
///    [`Kernel::Scalar`]; everything else starts dense.
/// 2. **Parallelism.** At a `degree` above one, dense nodes with a
///    multi-threaded kernel upgrade to [`Kernel::Parallel`] where `model`
///    holds enough samples for both the serial family (dense/fused) and the
///    parallel family at the node's size class and parallel is measured
///    faster; nodes it cannot price on both sides keep the static rule,
///    parallel iff the estimated flops clear [`PAR_FLOP_THRESHOLD`]. An
///    empty model therefore gives the static plan, and a degree of one the
///    serial plan. Sparse and scalar choices are never upgraded.
/// 3. **Memory.** Under a bounded `budget` the liveness certifier
///    ([`certify_schedule`](crate::liveness::certify_schedule)) drives a
///    greedy fixed point over the depth-first schedule: each round it
///    trial-blocks the blockable dense/parallel nodes implicated at the
///    certified peak step and keeps the [`Kernel::Blocked`] upgrade that
///    shrinks the peak most, until the plan fits. This catches *composite*
///    peaks — several individually fitting values live at the same step.
///    When no upgrade helps, a per-node rule finishes the job (a blockable
///    node streams when its output or any operand alone exceeds the budget)
///    and the certificate honestly reports `Exceeds`. When any reachable
///    node is missing from `sizes`, the certifier has nothing sound to add
///    and the per-node rule runs alone. An unbounded budget skips this step
///    and leaves [`PhysicalPlan::mem_budget`] `None`.
pub fn plan_with_memory_profile(
    graph: &Graph,
    root: NodeId,
    sizes: &HashMap<NodeId, SizeInfo>,
    degree: usize,
    budget: MemoryBudget,
    model: &CostModel,
) -> PhysicalPlan {
    plan_impl(graph, root, sizes, degree, budget, model, false).0
}

/// [`plan_with_memory_profile`] fitted to a peak-minimizing schedule
/// ([`min_peak_order`](crate::liveness::min_peak_order)) instead of the
/// default depth-first order; returns the plan and the order it was fitted
/// to (the depth-first order when the budget is unbounded or sizes are
/// incomplete). Run the result with
/// [`Executor::eval_schedule`](crate::exec::Executor::eval_schedule) — the
/// reordered schedule often fits a budget in memory that the default order
/// could only meet by spilling.
pub fn plan_with_memory_reordered(
    graph: &Graph,
    root: NodeId,
    sizes: &HashMap<NodeId, SizeInfo>,
    degree: usize,
    budget: MemoryBudget,
    model: &CostModel,
) -> (PhysicalPlan, Vec<NodeId>) {
    plan_impl(graph, root, sizes, degree, budget, model, true)
}

/// The body of both planners; `min_peak` picks the schedule the memory
/// step fits the plan to.
fn plan_impl(
    graph: &Graph,
    root: NodeId,
    sizes: &HashMap<NodeId, SizeInfo>,
    degree: usize,
    budget: MemoryBudget,
    model: &CostModel,
    min_peak: bool,
) -> (PhysicalPlan, Vec<NodeId>) {
    let reachable = graph.reachable(root);
    let kernels = reachable.iter().map(|&id| (id, sparsity_choice(graph, id, sizes))).collect();
    let mut p = PhysicalPlan { kernels, degree: degree.max(1), mem_budget: None };
    if p.degree > 1 {
        for &id in &reachable {
            if p.kernel(id) != Kernel::Dense || !parallelizable(graph.op(id)) {
                continue;
            }
            let flops = node_flops(graph, id, sizes);
            let op = crate::explain::op_label(graph, id);
            // The serial price is what dispatch would classify this node as
            // without the upgrade (fused for crossprod/tmv/sumSq, dense else).
            let serial_family = crate::cost::node_family(graph, id, &p);
            let serial = model.calibrated_ns(&op, serial_family, flops);
            let parallel = model.calibrated_ns(&op, "parallel", flops);
            let upgrade = match (serial, parallel) {
                // Both families measured at this size: trust the observations.
                (Some(s), Some(par)) => par < s,
                // Not enough evidence: the static threshold stands.
                _ => flops >= PAR_FLOP_THRESHOLD,
            };
            if upgrade {
                p.kernels.insert(id, Kernel::Parallel);
            }
        }
    }
    let Some(limit) = budget.get() else {
        return (p, reachable);
    };
    p.mem_budget = Some(limit);
    if reachable.iter().any(|id| !sizes.contains_key(id)) {
        plan_with_memory_per_node(graph, &reachable, sizes, limit, &mut p);
        return (p, reachable);
    }
    let order =
        if min_peak { crate::liveness::min_peak_order(graph, root, sizes, &p) } else { reachable };
    let sched = Schedule::from_order(graph, order);
    fit_plan_to_schedule(graph, &sched, sizes, limit, &mut p);
    (p, sched.into_order())
}

/// The sparsity-driven kernel for one node, before any parallel or
/// out-of-core upgrade.
fn sparsity_choice(graph: &Graph, id: NodeId, sizes: &HashMap<NodeId, SizeInfo>) -> Kernel {
    match graph.op(id) {
        Op::Const(_) => Kernel::Scalar,
        // Aggregates produce small outputs; the kernel choice follows the
        // *input* representation, as it does for multiply-like ops.
        Op::Agg(_, a) | Op::SumSq(a) | Op::MatMul(a, _) | Op::Tmv(a, _) | Op::CrossProd(a) => {
            sparsity_kernel(sizes.get(a))
        }
        Op::Input(_) | Op::Transpose(_) | Op::Ewise(_, _, _) | Op::Unary(_, _) => {
            sparsity_kernel(sizes.get(&id))
        }
    }
}

fn sparsity_kernel(info: Option<&SizeInfo>) -> Kernel {
    match info {
        Some(i) if matches!(i.shape, crate::size::Shape::Scalar) => Kernel::Scalar,
        Some(i) if i.sparsity < SPARSE_THRESHOLD => Kernel::Sparse,
        _ => Kernel::Dense,
    }
}

/// Estimated flops executed by a single node given propagated sizes — the
/// per-node term of [`estimated_cost`](crate::rewrite::estimated_cost), also
/// used by [`plan_with_memory_profile`] to decide serial vs. parallel
/// dispatch. Nodes with no size information estimate 0.
pub fn node_flops(graph: &Graph, id: NodeId, infos: &HashMap<NodeId, SizeInfo>) -> u128 {
    use crate::size::Shape;
    let nnz = |id: NodeId| -> u128 {
        match infos.get(&id) {
            Some(info) => match info.shape {
                Shape::Scalar => 1,
                Shape::Matrix { rows, cols } => {
                    ((rows as f64) * (cols as f64) * info.sparsity).ceil() as u128
                }
            },
            None => 0,
        }
    };
    let cells = |id: NodeId| -> u128 {
        match infos.get(&id) {
            Some(info) => match info.shape {
                Shape::Scalar => 1,
                Shape::Matrix { rows, cols } => (rows as u128) * (cols as u128),
            },
            None => 0,
        }
    };
    match graph.op(id) {
        Op::Input(_) | Op::Const(_) => 0,
        Op::Transpose(a) => nnz(*a),
        Op::MatMul(a, b) => {
            let b_cols = infos.get(b).map_or(0, |i| i.shape.cols()) as u128;
            2 * nnz(*a) * b_cols
        }
        Op::Ewise(_, _, _) => cells(id),
        Op::Unary(_, a) | Op::Agg(_, a) => nnz(*a),
        Op::CrossProd(a) => {
            let a_cols = infos.get(a).map_or(0, |i| i.shape.cols()) as u128;
            2 * nnz(*a) * a_cols
        }
        Op::Tmv(a, _) | Op::SumSq(a) => 2 * nnz(*a),
    }
}

/// True for ops with a multi-threaded dense kernel in `dm_matrix::par`.
fn parallelizable(op: &Op) -> bool {
    matches!(
        op,
        Op::MatMul(..)
            | Op::CrossProd(_)
            | Op::Tmv(..)
            | Op::SumSq(_)
            | Op::Agg(crate::expr::AggOp::ColSums, _)
    )
}

/// True for ops with a blocked out-of-core kernel in `dm_buffer::ooc`.
fn blockable(op: &Op) -> bool {
    matches!(
        op,
        Op::MatMul(..) | Op::CrossProd(_) | Op::Ewise(..) | Op::Agg(crate::expr::AggOp::ColSums, _)
    )
}

/// Dense in-memory footprint of a node's value in bytes, per propagated
/// shape. Sparsity is deliberately ignored: the blocked kernels stream dense
/// row panels, and sparse-planned nodes are never upgraded anyway.
fn dense_bytes(info: Option<&SizeInfo>) -> usize {
    use crate::size::Shape;
    match info {
        Some(i) => match i.shape {
            Shape::Scalar => 8,
            Shape::Matrix { rows, cols } => rows.saturating_mul(cols).saturating_mul(8),
        },
        None => 0,
    }
}

/// The pre-certifier blocking rule: a blockable dense/parallel node goes
/// [`Kernel::Blocked`] when its own output or any operand alone exceeds the
/// budget. The fallback for incomplete size information (where the liveness
/// certifier cannot run) and for a fit the certifier cannot reach; it
/// misses composite peaks — see
/// `composite_peak_blocks_what_the_per_node_check_misses` below.
fn plan_with_memory_per_node(
    graph: &Graph,
    reachable: &[NodeId],
    sizes: &HashMap<NodeId, SizeInfo>,
    limit: usize,
    p: &mut PhysicalPlan,
) {
    for &id in reachable {
        if !matches!(p.kernel(id), Kernel::Dense | Kernel::Parallel) || !blockable(graph.op(id)) {
            continue;
        }
        let oversized = std::iter::once(id)
            .chain(graph.op(id).children().iter().copied())
            .any(|n| dense_bytes(sizes.get(&n)) > limit);
        if oversized {
            p.kernels.insert(id, Kernel::Blocked);
        }
    }
}

/// Certifier-driven fixed point: upgrade blockable nodes to
/// [`Kernel::Blocked`] one at a time — greedily, by largest certified-peak
/// reduction — until the plan fits `budget` over `sched` or no candidate
/// improves the peak. Candidates each round are the blockable dense/parallel
/// nodes implicated at the peak step: the node executing there, or any
/// consumer of a value live there (blocking a consumer turns its operands
/// into streamed, pool-resident values).
fn fit_plan_to_schedule(
    graph: &Graph,
    sched: &Schedule,
    sizes: &HashMap<NodeId, SizeInfo>,
    limit: usize,
    p: &mut PhysicalPlan,
) {
    use crate::liveness::{certify_schedule, Verdict};
    let budget = MemoryBudget::bytes(limit);
    loop {
        let cert = certify_schedule(graph, sched, p, sizes, budget);
        let Verdict::Exceeds { .. } = cert.verdict else {
            return;
        };
        let peak = &cert.timeline[cert.peak_step];
        let live_at_peak: std::collections::HashSet<NodeId> =
            peak.live.iter().map(|&(v, _)| v).collect();
        let exec_at_peak = peak.node;
        let mut best: Option<(usize, NodeId)> = None;
        for &c in sched.order() {
            if !matches!(p.kernel(c), Kernel::Dense | Kernel::Parallel) || !blockable(graph.op(c)) {
                continue;
            }
            let relevant = c == exec_at_peak
                || graph.op(c).children().iter().any(|ch| live_at_peak.contains(ch));
            if !relevant {
                continue;
            }
            let mut trial = p.clone();
            trial.kernels.insert(c, Kernel::Blocked);
            let tc = certify_schedule(graph, sched, &trial, sizes, budget);
            if best.is_none_or(|(bp, _)| tc.peak_bytes < bp) {
                best = Some((tc.peak_bytes, c));
            }
        }
        match best {
            Some((new_peak, c)) if new_peak < cert.peak_bytes => {
                p.kernels.insert(c, Kernel::Blocked);
            }
            // No single upgrade shrinks the peak any further: a certified
            // fit is out of reach (the certificate will report Exceeds). So
            // oversized operands still stream rather than being held whole,
            // finish with the per-node rule — the pre-certifier behavior.
            _ => {
                plan_with_memory_per_node(graph, sched.order(), sizes, limit, p);
                return;
            }
        }
    }
}

/// Propagate `inputs`, then [`plan_with_memory_profile`] with an empty cost
/// model: the static plan the unit tests across the crate pin down.
#[cfg(test)]
pub(crate) fn test_plan(
    graph: &Graph,
    root: NodeId,
    inputs: &crate::size::InputSizes,
    degree: usize,
    budget: MemoryBudget,
) -> PhysicalPlan {
    let sizes = crate::size::propagate(graph, root, inputs).unwrap();
    plan_with_memory_profile(graph, root, &sizes, degree, budget, &CostModel::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::AggOp;
    use crate::size::{propagate, InputSizes};

    fn inputs() -> InputSizes {
        let mut s = InputSizes::new();
        s.declare("D", 100, 50, 0.9); // dense
        s.declare("S", 100, 50, 0.01); // sparse
        s.declare("v", 50, 1, 1.0);
        s
    }

    /// The serial, unbounded plan.
    fn serial(g: &Graph, root: NodeId, inputs: &InputSizes) -> PhysicalPlan {
        test_plan(g, root, inputs, 1, MemoryBudget::unbounded())
    }

    #[test]
    fn dense_input_gets_dense_kernels() {
        let mut g = Graph::new();
        let d = g.input("D");
        let v = g.input("v");
        let mm = g.matmul(d, v);
        let p = serial(&g, mm, &inputs());
        assert_eq!(p.kernel(mm), Kernel::Dense);
        assert_eq!(p.kernel(d), Kernel::Dense);
    }

    #[test]
    fn sparse_input_gets_sparse_kernels() {
        let mut g = Graph::new();
        let s = g.input("S");
        let v = g.input("v");
        let mm = g.matmul(s, v);
        let p = serial(&g, mm, &inputs());
        assert_eq!(p.kernel(mm), Kernel::Sparse);
        assert_eq!(p.kernel(s), Kernel::Sparse);
    }

    #[test]
    fn aggregate_follows_input_representation() {
        let mut g = Graph::new();
        let s = g.input("S");
        let sum = g.agg(AggOp::Sum, s);
        let p = serial(&g, sum, &inputs());
        assert_eq!(p.kernel(sum), Kernel::Sparse);

        let mut g = Graph::new();
        let d = g.input("D");
        let sum = g.agg(AggOp::Sum, d);
        let p = serial(&g, sum, &inputs());
        assert_eq!(p.kernel(sum), Kernel::Dense);
    }

    #[test]
    fn scalar_nodes_marked() {
        let mut g = Graph::new();
        let c = g.constant(2.0);
        let p = serial(&g, c, &inputs());
        assert_eq!(p.kernel(c), Kernel::Scalar);
    }

    #[test]
    fn elementwise_product_of_sparse_goes_sparse() {
        // S * S has sparsity 0.0001 -> sparse kernel.
        let mut g = Graph::new();
        let s = g.input("S");
        let had = g.ewise(crate::expr::EwiseOp::Mul, s, s);
        let p = serial(&g, had, &inputs());
        assert_eq!(p.kernel(had), Kernel::Sparse);
    }

    #[test]
    fn unknown_nodes_default_dense() {
        let p = PhysicalPlan::default();
        assert_eq!(p.kernel(42), Kernel::Dense);
        assert!(p.is_empty());
        assert_eq!(p.degree(), 1);
    }

    #[test]
    fn large_dense_ops_upgrade_to_parallel() {
        // crossprod on 100_000 x 200 dense: 2 * 2e7 * 200 = 8e9 flops, far
        // above the threshold.
        let mut s = InputSizes::new();
        s.declare("X", 100_000, 200, 1.0);
        let mut g = Graph::new();
        let x = g.input("X");
        let cp = g.push(crate::expr::Op::CrossProd(x));
        let p = test_plan(&g, cp, &s, 4, MemoryBudget::unbounded());
        assert_eq!(p.kernel(cp), Kernel::Parallel);
        assert_eq!(p.degree(), 4);
        // Inputs are not compute nodes; they stay dense.
        assert_eq!(p.kernel(x), Kernel::Dense);
    }

    #[test]
    fn small_dense_ops_stay_serial_at_any_degree() {
        // The E5 shape: 1000 x 20 crossprod is 8e5 flops, below threshold.
        let mut s = InputSizes::new();
        s.declare("X", 1000, 20, 1.0);
        let mut g = Graph::new();
        let x = g.input("X");
        let cp = g.push(crate::expr::Op::CrossProd(x));
        let p = test_plan(&g, cp, &s, 8, MemoryBudget::unbounded());
        assert_eq!(p.kernel(cp), Kernel::Dense);
    }

    #[test]
    fn sparse_choices_never_upgrade() {
        let mut s = InputSizes::new();
        s.declare("S", 1_000_000, 500, 0.01); // sparse but huge
        let mut g = Graph::new();
        let x = g.input("S");
        let cp = g.push(crate::expr::Op::CrossProd(x));
        let p = test_plan(&g, cp, &s, 8, MemoryBudget::unbounded());
        assert_eq!(p.kernel(cp), Kernel::Sparse);
    }

    #[test]
    fn degree_one_plan_is_the_serial_plan() {
        let mut s = InputSizes::new();
        s.declare("X", 100_000, 200, 1.0);
        let mut g = Graph::new();
        let x = g.input("X");
        let cp = g.push(crate::expr::Op::CrossProd(x));
        let p = serial(&g, cp, &s);
        assert_eq!(p.kernel(cp), Kernel::Dense);
        assert_eq!(p.degree(), 1);
    }

    #[test]
    fn oversized_dense_ops_go_blocked() {
        // 100_000 x 200 dense X is 160 MB; a 1 MB budget forces the
        // crossprod out-of-core even though it also cleared the parallel
        // flop threshold.
        let mut s = InputSizes::new();
        s.declare("X", 100_000, 200, 1.0);
        let mut g = Graph::new();
        let x = g.input("X");
        let cp = g.push(crate::expr::Op::CrossProd(x));
        let p = test_plan(&g, cp, &s, 4, MemoryBudget::bytes(1 << 20));
        assert_eq!(p.kernel(cp), Kernel::Blocked);
        assert_eq!(p.mem_budget(), Some(1 << 20));
        // Inputs are not compute nodes; they are never blocked.
        assert_eq!(p.kernel(x), Kernel::Dense);
    }

    #[test]
    fn unbounded_budget_leaves_the_degree_plan_unchanged() {
        let mut s = InputSizes::new();
        s.declare("X", 100_000, 200, 1.0);
        let mut g = Graph::new();
        let x = g.input("X");
        let cp = g.push(crate::expr::Op::CrossProd(x));
        let p = test_plan(&g, cp, &s, 4, MemoryBudget::unbounded());
        assert_eq!(p.kernel(cp), Kernel::Parallel);
        assert_eq!(p.mem_budget(), None);
    }

    #[test]
    fn sparse_and_small_nodes_never_go_blocked() {
        let mut s = InputSizes::new();
        s.declare("S", 1_000_000, 500, 0.01); // huge but sparse-planned
        s.declare("D", 100, 50, 0.9); // dense but tiny
        let mut g = Graph::new();
        let sp = g.input("S");
        let cp = g.push(crate::expr::Op::CrossProd(sp));
        let p = test_plan(&g, cp, &s, 4, MemoryBudget::bytes(1 << 20));
        assert_eq!(p.kernel(cp), Kernel::Sparse, "sparse kernels already stream non-zeros");

        let mut g = Graph::new();
        let d = g.input("D");
        let dd = g.ewise(crate::expr::EwiseOp::Add, d, d);
        let p = test_plan(&g, dd, &s, 4, MemoryBudget::bytes(1 << 20));
        assert_eq!(p.kernel(dd), Kernel::Dense, "fits the budget, stays in memory");
    }

    #[test]
    fn oversized_operand_blocks_the_consumer_not_the_producer_of_small_outputs() {
        // colSums over an oversized dense matrix produces a tiny 1 x d row,
        // but reading the operand is what must stream.
        let mut s = InputSizes::new();
        s.declare("X", 100_000, 200, 1.0);
        let mut g = Graph::new();
        let x = g.input("X");
        let cs = g.agg(AggOp::ColSums, x);
        let p = test_plan(&g, cs, &s, 1, MemoryBudget::bytes(1 << 20));
        assert_eq!(p.kernel(cs), Kernel::Blocked);
        assert_eq!(p.degree(), 1, "blocked selection is independent of degree");
    }

    #[test]
    fn composite_peak_blocks_what_the_per_node_check_misses() {
        // Z = X + Y with X, Y 256x256 dense (512 KB each) under a 1.3 MB
        // budget: every node individually fits, so the per-node rule blocks
        // nothing and execution would hold 1.5 MB live at the add. The
        // certifier sees the composite peak and blocks the add, whose
        // streamed form fits.
        let mut s = InputSizes::new();
        s.declare("X", 256, 256, 1.0);
        s.declare("Y", 256, 256, 1.0);
        let mut g = Graph::new();
        let x = g.input("X");
        let y = g.input("Y");
        let z = g.ewise(crate::expr::EwiseOp::Add, x, y);
        let root = g.agg(AggOp::Sum, z);
        let sizes = propagate(&g, root, &s).unwrap();
        let budget = MemoryBudget::bytes(1_300_000);

        let mut old = test_plan(&g, root, &s, 1, MemoryBudget::unbounded());
        plan_with_memory_per_node(&g, &g.reachable(root), &sizes, 1_300_000, &mut old);
        assert_eq!(
            old.nodes_with(Kernel::Blocked),
            Vec::<NodeId>::new(),
            "per-node check is blind"
        );
        let old_cert = crate::liveness::certify_plan(&g, root, &old, &sizes, budget);
        let crate::liveness::Verdict::Exceeds { step, node, live_bytes } = old_cert.verdict else {
            panic!("per-node plan must not certify: 3 x 512 KB live at the add > 1.3 MB");
        };
        assert_eq!(node, z, "the add is where three 512 KB values coexist");
        assert_eq!(step, 2);
        assert_eq!(live_bytes, 3 * 256 * 256 * 8);

        let new = test_plan(&g, root, &s, 1, budget);
        assert_eq!(new.kernel(z), Kernel::Blocked, "the add streams its operands");
        let cert = crate::liveness::certify_plan(&g, root, &new, &sizes, budget);
        assert!(cert.fits(), "{}", cert.render(&g));
    }

    #[test]
    fn planner_stops_when_no_upgrade_helps() {
        // sum(X) has no blockable node; the plan is returned unchanged and
        // the certificate honestly reports Exceeds.
        let mut s = InputSizes::new();
        s.declare("X", 256, 256, 1.0);
        let mut g = Graph::new();
        let x = g.input("X");
        let root = g.agg(AggOp::Sum, x);
        let sizes = propagate(&g, root, &s).unwrap();
        let budget = MemoryBudget::bytes(100_000);
        let p = test_plan(&g, root, &s, 1, budget);
        assert_eq!(p.nodes_with(Kernel::Blocked), Vec::<NodeId>::new());
        let cert = crate::liveness::certify_plan(&g, root, &p, &sizes, budget);
        assert!(!cert.fits());
    }

    #[test]
    fn reordered_planner_avoids_blocking_where_the_schedule_suffices() {
        // root = X + (A %*% B): the default DFS order holds X under the
        // matmul's transient and exceeds a 5 MB budget, so the DFS plan
        // must spill; the peak-minimizing order drains the matmul first and
        // fits without a single blocked node.
        let mut s = InputSizes::new();
        s.declare("X", 256, 256, 1.0);
        s.declare("A", 256, 1024, 1.0);
        s.declare("B", 1024, 256, 1.0);
        let mut g = Graph::new();
        let x = g.input("X");
        let a = g.input("A");
        let b = g.input("B");
        let r = g.matmul(a, b);
        let root = g.ewise(crate::expr::EwiseOp::Add, x, r);
        let sizes = propagate(&g, root, &s).unwrap();
        let budget = MemoryBudget::bytes(5_000_000);

        let dfs = test_plan(&g, root, &s, 1, budget);
        assert!(!dfs.nodes_with(Kernel::Blocked).is_empty(), "DFS order must spill");

        let model = CostModel::default();
        let (re, order) = plan_with_memory_reordered(&g, root, &sizes, 1, budget, &model);
        assert_eq!(order, vec![a, b, r, x, root]);
        assert_eq!(re.nodes_with(Kernel::Blocked), Vec::<NodeId>::new(), "reorder fits in memory");
        let sched = Schedule::from_order(&g, order);
        let cert = crate::liveness::certify_schedule(&g, &sched, &re, &sizes, budget);
        assert!(cert.fits(), "{}", cert.render(&g));

        // Unbounded, there is nothing to fit: the DFS order comes back.
        let (_, order) =
            plan_with_memory_reordered(&g, root, &sizes, 1, MemoryBudget::unbounded(), &model);
        assert_eq!(order, g.reachable(root));
    }

    /// A model with `n` samples of the given GFLOP/s for (op, family) at
    /// `flops`' size class.
    fn model_with(entries: &[(&str, &str, u64, f64)]) -> CostModel {
        let mut s = dm_obs::ProfileStore::new();
        for &(op, family, flops, gflops) in entries {
            let ns = ((flops as f64 / gflops) as u64).max(1);
            for _ in 0..5 {
                s.record(op, family, flops, ns);
            }
        }
        CostModel::new(s)
    }

    #[test]
    fn empty_profile_reproduces_the_static_threshold_plan() {
        // With nothing measured, a dense parallelizable node goes parallel
        // exactly when the degree is above one and its flops clear
        // PAR_FLOP_THRESHOLD — on both sides of the threshold.
        for rows in [1000, 100_000] {
            let mut s = InputSizes::new();
            s.declare("X", rows, 200, 1.0);
            let mut g = Graph::new();
            let x = g.input("X");
            let cp = g.push(crate::expr::Op::CrossProd(x));
            let cs = g.agg(AggOp::ColSums, cp);
            let sizes = propagate(&g, cs, &s).unwrap();
            for degree in [1, 4] {
                let p = test_plan(&g, cs, &s, degree, MemoryBudget::unbounded());
                for id in g.reachable(cs) {
                    let parallel = degree > 1
                        && parallelizable(g.op(id))
                        && node_flops(&g, id, &sizes) >= PAR_FLOP_THRESHOLD;
                    let want = if parallel { Kernel::Parallel } else { Kernel::Dense };
                    assert_eq!(p.kernel(id), want, "rows {rows}, degree {degree}, node %{id}");
                }
                assert_eq!(p.degree(), degree);
            }
        }
    }

    #[test]
    fn calibrated_crossover_overrides_the_flop_threshold() {
        // crossprod on 100_000 x 200: 8e9 flops, far above the static
        // threshold — but measurements say serial (fused) is faster than
        // parallel at this size, so the calibrated plan stays serial.
        let mut s = InputSizes::new();
        s.declare("X", 100_000, 200, 1.0);
        let mut g = Graph::new();
        let x = g.input("X");
        let cp = g.push(crate::expr::Op::CrossProd(x));
        let sizes = propagate(&g, cp, &s).unwrap();
        let flops = node_flops(&g, cp, &sizes) as u64;
        let plan = |m: &CostModel| {
            plan_with_memory_profile(&g, cp, &sizes, 4, MemoryBudget::unbounded(), m)
        };

        let serial_wins = model_with(&[
            ("crossprod", "fused", flops, 4.0),
            ("crossprod", "parallel", flops, 2.0),
        ]);
        assert_eq!(plan(&serial_wins).kernel(cp), Kernel::Dense, "measured serial beats parallel");

        let parallel_wins = model_with(&[
            ("crossprod", "fused", flops, 2.0),
            ("crossprod", "parallel", flops, 6.0),
        ]);
        assert_eq!(
            plan(&parallel_wins).kernel(cp),
            Kernel::Parallel,
            "measured parallel beats serial"
        );

        // One-sided evidence keeps the static threshold decision (upgrade,
        // since 8e9 >= PAR_FLOP_THRESHOLD).
        let one_sided = model_with(&[("crossprod", "fused", flops, 4.0)]);
        assert_eq!(plan(&one_sided).kernel(cp), Kernel::Parallel);
    }

    #[test]
    fn calibrated_crossover_can_parallelize_below_the_threshold() {
        // 1000 x 20 crossprod is 8e5 flops — statically serial — but if the
        // profile proves parallel faster at that size, the plan upgrades.
        let mut s = InputSizes::new();
        s.declare("X", 1000, 20, 1.0);
        let mut g = Graph::new();
        let x = g.input("X");
        let cp = g.push(crate::expr::Op::CrossProd(x));
        let sizes = propagate(&g, cp, &s).unwrap();
        let flops = node_flops(&g, cp, &sizes) as u64;
        let m = model_with(&[
            ("crossprod", "fused", flops, 1.0),
            ("crossprod", "parallel", flops, 3.0),
        ]);
        let p = plan_with_memory_profile(&g, cp, &sizes, 4, MemoryBudget::unbounded(), &m);
        assert_eq!(p.kernel(cp), Kernel::Parallel);
    }

    #[test]
    fn memory_profile_plan_composes_crossover_and_blocking() {
        // crossprod far above the flop threshold, measurements saying serial
        // wins, and an input too big for the budget: the planner must keep
        // the node off Kernel::Parallel *and* still block it.
        let mut s = InputSizes::new();
        s.declare("X", 100_000, 200, 1.0); // 160 MB input
        let mut g = Graph::new();
        let x = g.input("X");
        let cp = g.push(crate::expr::Op::CrossProd(x));
        let sizes = propagate(&g, cp, &s).unwrap();
        let flops = node_flops(&g, cp, &sizes) as u64;
        let serial_wins = model_with(&[
            ("crossprod", "fused", flops, 4.0),
            ("crossprod", "parallel", flops, 2.0),
        ]);

        let unbounded =
            plan_with_memory_profile(&g, cp, &sizes, 4, MemoryBudget::unbounded(), &serial_wins);
        assert_eq!(unbounded.kernel(cp), Kernel::Dense, "measured serial beats parallel");

        let tight =
            plan_with_memory_profile(&g, cp, &sizes, 4, MemoryBudget::bytes(1 << 20), &serial_wins);
        assert_eq!(tight.kernel(cp), Kernel::Blocked, "oversized operand still streams");
    }

    #[test]
    fn missing_sizes_fall_back_to_the_per_node_rule() {
        // The certifier needs every reachable node's size; with the input's
        // entry gone, the per-node rule runs alone and blocks the crossprod
        // on its oversized output (the unknown operand counts as zero).
        let mut s = InputSizes::new();
        s.declare("X", 100_000, 2_000, 1.0);
        let mut g = Graph::new();
        let x = g.input("X");
        let cp = g.push(crate::expr::Op::CrossProd(x));
        let mut sizes = propagate(&g, cp, &s).unwrap();
        sizes.remove(&x);
        let budget = MemoryBudget::bytes(1 << 20);
        let p = plan_with_memory_profile(&g, cp, &sizes, 1, budget, &CostModel::default());
        assert_eq!(p.kernel(cp), Kernel::Blocked, "2000 x 2000 output alone is 32 MB");
        assert_eq!(p.mem_budget(), Some(1 << 20));
    }

    #[test]
    fn node_flops_matches_estimated_cost_total() {
        let mut s = InputSizes::new();
        s.declare("X", 500, 40, 0.8);
        s.declare("v", 40, 1, 1.0);
        let mut g = Graph::new();
        let x = g.input("X");
        let v = g.input("v");
        let mm = g.matmul(x, v);
        let sum = g.agg(crate::expr::AggOp::Sum, mm);
        let infos = propagate(&g, sum, &s).unwrap();
        let per_node: u128 =
            g.reachable(sum).into_iter().map(|id| node_flops(&g, id, &infos)).sum();
        assert_eq!(per_node, crate::rewrite::estimated_cost(&g, sum, &s).unwrap());
    }
}
