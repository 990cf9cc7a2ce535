//! Branch-and-bound MILP solver.
//!
//! Explores a best-bound search tree over the LP relaxation from
//! [`crate::simplex`]. Each node stores its bound-change diffs from the
//! root and the final basis of its parent's LP, which the two children
//! share. A child differs from its parent only in one bound of a basic
//! variable, so its LP starts from that basis with the dual simplex
//! ([`crate::simplex::solve_lp_from`]) instead of from scratch. Memory
//! stays proportional to the open-node frontier — each open node is
//! charged its diffs and half of the basis it shares — and the configured
//! memory budget turns frontier blow-up into the same out-of-memory
//! failure the paper observes for CPLEX (§3.2, §5.2.1).

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;

use crate::config::SolverConfig;
use crate::model::Model;
use crate::presolve::{presolve_opts, Presolved, StandardForm, VarBounds};
use crate::simplex::{solve_lp_from, Basis, LpOptions, LpStatus};
use crate::solution::{LimitKind, Solution, SolveOutcome, SolveResult, SolveStats};
use crate::telemetry::Telemetry;
use crate::INT_EPS;

/// A bound change relative to the root relaxation: variable, which side,
/// new value.
#[derive(Debug, Clone, Copy)]
struct BoundDiff {
    var: u32,
    upper: bool,
    value: f64,
}

/// An open node: parent LP bound (internal minimization form), the diff
/// chain from the root, and the parent's final basis (shared with the
/// sibling) to warm-start from.
struct Node {
    bound: f64,
    depth: u32,
    diffs: Vec<BoundDiff>,
    warm: Option<Arc<Basis>>,
}

impl Node {
    /// Bytes this open node pins: the node, its diff chain, and half of
    /// the parent basis it shares with its sibling. The basis is what
    /// makes frontier blow-up hit the memory budget the way it hits
    /// CPLEX's working memory in the paper's experiments.
    fn memory_estimate(&self) -> usize {
        std::mem::size_of::<Node>()
            + self.diffs.len() * std::mem::size_of::<BoundDiff>()
            + self.warm.as_ref().map_or(0, |b| b.bytes() / 2)
    }
}

// Min-heap on `bound` (best-bound-first for minimization).
impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse order: smallest bound (best for minimization) first;
        // tie-break on depth so deeper nodes (closer to integrality)
        // surface earlier.
        other
            .bound
            .partial_cmp(&self.bound)
            .unwrap_or(Ordering::Equal)
            .then(self.depth.cmp(&other.depth))
    }
}

/// The MILP solver: a [`SolverConfig`] plus optional shared
/// [`Telemetry`].
#[derive(Debug, Clone, Default)]
pub struct MilpSolver {
    config: SolverConfig,
    telemetry: Option<Arc<Telemetry>>,
}

impl MilpSolver {
    /// A solver with the given budgets.
    pub fn new(config: SolverConfig) -> Self {
        MilpSolver {
            config,
            telemetry: None,
        }
    }

    /// Attach a shared telemetry sink; every solve reports its counters
    /// there (used by the evaluation engine to count black-box calls).
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// Solve `model` to proven optimality (within the configured gap) or
    /// until a resource budget expires.
    pub fn solve(&self, model: &Model) -> SolveResult {
        let started = Instant::now();
        let mut stats = SolveStats::default();
        let result = self.solve_inner(model, started, &mut stats);
        stats.wall_time = started.elapsed();
        if let Some(t) = &self.telemetry {
            t.record(&stats, &result);
        }
        SolveResult {
            outcome: result,
            stats,
        }
    }

    fn solve_inner(&self, model: &Model, started: Instant, stats: &mut SolveStats) -> SolveOutcome {
        let (form, root_bounds) = match presolve_opts(model, self.config.fold_singletons) {
            Presolved::Infeasible => return SolveOutcome::Infeasible,
            Presolved::Ready(form, bounds) => (form, bounds),
        };

        let mut search = Search {
            cfg: &self.config,
            form: &form,
            model,
            working: root_bounds.clone(),
            pristine: root_bounds,
            touched: Vec::new(),
            incumbent: None,
            started,
            stats,
        };
        search.run()
    }
}

/// Incumbent: internal-minimization objective plus structural values.
struct Incumbent {
    internal: f64,
    values: Vec<f64>,
}

struct Search<'a> {
    cfg: &'a SolverConfig,
    form: &'a StandardForm,
    model: &'a Model,
    working: VarBounds,
    pristine: VarBounds,
    /// Variables whose working bounds differ from pristine.
    touched: Vec<u32>,
    incumbent: Option<Incumbent>,
    started: Instant,
    stats: &'a mut SolveStats,
}

impl Search<'_> {
    fn run(&mut self) -> SolveOutcome {
        let mut heap: BinaryHeap<Node> = BinaryHeap::new();
        heap.push(Node {
            bound: f64::NEG_INFINITY,
            depth: 0,
            diffs: Vec::new(),
            warm: None,
        });
        let mut open_bytes = 0usize;
        let base_bytes = self.model.memory_estimate() + self.form.n * 32;

        while let Some(node) = heap.pop() {
            open_bytes = open_bytes.saturating_sub(node.memory_estimate());

            // --- budget checks -------------------------------------------------
            if self.started.elapsed() > self.cfg.time_limit {
                return self.abort(LimitKind::Time, &heap, &node);
            }
            if self.stats.nodes >= self.cfg.node_limit {
                return self.abort(LimitKind::Nodes, &heap, &node);
            }
            if self.stats.simplex_iterations >= self.cfg.iteration_limit {
                return self.abort(LimitKind::Iterations, &heap, &node);
            }
            let mem = base_bytes + open_bytes + node.memory_estimate();
            self.stats.peak_memory_estimate = self.stats.peak_memory_estimate.max(mem);
            if mem > self.cfg.memory_limit {
                return self.abort(LimitKind::Memory, &heap, &node);
            }

            // --- global-bound pruning / gap termination ------------------------
            if let Some(inc) = &self.incumbent {
                if self.gap(inc.internal, node.bound) <= self.cfg.relative_gap {
                    // Best-bound order ⇒ every remaining node is within
                    // the gap too: the incumbent is (gap-)optimal.
                    return SolveOutcome::Optimal(self.to_solution(inc));
                }
            }

            // --- solve the node LP ---------------------------------------------
            self.stats.nodes += 1;
            self.load_node(&node);
            let remaining_iters = self
                .cfg
                .iteration_limit
                .saturating_sub(self.stats.simplex_iterations);
            let lp = solve_lp_from(
                self.form,
                &self.working,
                &LpOptions {
                    max_iterations: remaining_iters,
                    refactor_interval: self.cfg.refactor_interval,
                    flip_batching: self.cfg.flip_batching,
                },
                node.warm.as_deref(),
            );
            self.stats.simplex_iterations += lp.iterations;
            self.stats.lp_solves += 1;

            let (x, model_obj) = match lp.status {
                LpStatus::Infeasible => {
                    // Surface the infeasibility diagnostic (the §4.4
                    // strategy-3 input): union of violated rows across
                    // every infeasible node relaxation. Even when the
                    // root is feasible, the rows that keep failing down
                    // the tree identify the conflicting constraints.
                    for row in lp.violated_rows {
                        if !self.stats.root_infeasible_rows.contains(&row) {
                            self.stats.root_infeasible_rows.push(row);
                        }
                    }
                    continue;
                }
                LpStatus::Unbounded => {
                    // A child region is a subset of the root region, so
                    // unboundedness is a root property.
                    return SolveOutcome::Unbounded;
                }
                LpStatus::IterationLimit => return self.abort(LimitKind::Iterations, &heap, &node),
                LpStatus::Optimal { x, objective } => (x, objective),
            };
            let internal = model_obj * self.form.obj_factor;

            // Bound-based pruning against the incumbent.
            if let Some(inc) = &self.incumbent {
                if internal >= inc.internal - 1e-9 {
                    continue;
                }
            }

            // --- integrality ----------------------------------------------------
            match self.most_fractional(&x) {
                None => {
                    // Integral: new incumbent.
                    let snapped = self.snap(&x);
                    let sn_internal: f64 = self
                        .form
                        .obj_min
                        .iter()
                        .zip(&snapped)
                        .map(|(c, xi)| c * xi)
                        .sum();
                    if self
                        .incumbent
                        .as_ref()
                        .is_none_or(|inc| sn_internal < inc.internal)
                    {
                        self.incumbent = Some(Incumbent {
                            internal: sn_internal,
                            values: snapped,
                        });
                    }
                }
                Some((j, xj)) => {
                    // Rounding heuristic: nearest-integer snap, accepted
                    // only if model-feasible.
                    self.try_rounding(&x);

                    // Branch.
                    let mut down = node.diffs.clone();
                    down.push(BoundDiff {
                        var: j as u32,
                        upper: true,
                        value: xj.floor(),
                    });
                    let mut up = node.diffs.clone();
                    up.push(BoundDiff {
                        var: j as u32,
                        upper: false,
                        value: xj.ceil(),
                    });
                    let warm = lp.basis.map(Arc::new);
                    for diffs in [down, up] {
                        let child = Node {
                            bound: internal,
                            depth: node.depth + 1,
                            diffs,
                            warm: warm.clone(),
                        };
                        open_bytes += child.memory_estimate();
                        heap.push(child);
                    }
                }
            }
        }

        match self.incumbent.take() {
            Some(inc) => SolveOutcome::Optimal(self.to_solution(&inc)),
            None => SolveOutcome::Infeasible,
        }
    }

    /// Relative optimality gap between incumbent and a bound (internal
    /// minimization form).
    fn gap(&self, incumbent: f64, bound: f64) -> f64 {
        if bound == f64::NEG_INFINITY {
            return f64::INFINITY;
        }
        (incumbent - bound).max(0.0) / 1.0_f64.max(incumbent.abs())
    }

    fn abort(&mut self, limit: LimitKind, heap: &BinaryHeap<Node>, current: &Node) -> SolveOutcome {
        if limit == LimitKind::Memory {
            // Memory exhaustion kills the solver process in the paper's
            // setup ("the operating system would kill the solver
            // whenever it uses the entire available main memory",
            // §5.1) — no incumbent survives, unlike a time limit.
            return SolveOutcome::ResourceExhausted(limit);
        }
        match self.incumbent.take() {
            Some(inc) => {
                let best_bound = heap
                    .peek()
                    .map(|n| n.bound)
                    .unwrap_or(current.bound)
                    .min(current.bound);
                SolveOutcome::Feasible {
                    gap: self.gap(inc.internal, best_bound),
                    best: self.to_solution(&inc),
                    limit,
                }
            }
            None => SolveOutcome::ResourceExhausted(limit),
        }
    }

    fn to_solution(&self, inc: &Incumbent) -> Solution {
        Solution {
            objective: self.form.model_objective(inc.internal),
            values: inc.values.clone(),
        }
    }

    /// Restore pristine bounds for previously-touched variables, then
    /// apply the node's diff chain.
    fn load_node(&mut self, node: &Node) {
        for &v in &self.touched {
            let j = v as usize;
            self.working.lb[j] = self.pristine.lb[j];
            self.working.ub[j] = self.pristine.ub[j];
        }
        self.touched.clear();
        for d in &node.diffs {
            let j = d.var as usize;
            if d.upper {
                self.working.ub[j] = self.working.ub[j].min(d.value);
            } else {
                self.working.lb[j] = self.working.lb[j].max(d.value);
            }
            self.touched.push(d.var);
        }
    }

    /// The integer variable whose LP value is most fractional, if any.
    fn most_fractional(&self, x: &[f64]) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64, f64)> = None;
        for (j, &flag) in self.form.integer.iter().enumerate() {
            if !flag {
                continue;
            }
            let frac = (x[j] - x[j].round()).abs();
            if frac <= INT_EPS {
                continue;
            }
            let score = 0.5 - (x[j].fract().abs() - 0.5).abs();
            if best.is_none_or(|(_, s, _)| score > s) {
                best = Some((j, score, x[j]));
            }
        }
        best.map(|(j, _, xj)| (j, xj))
    }

    /// Round integer variables of an assignment to the nearest integer.
    fn snap(&self, x: &[f64]) -> Vec<f64> {
        x.iter()
            .zip(&self.form.integer)
            .map(|(v, &int)| if int { v.round() } else { *v })
            .collect()
    }

    /// Nearest-integer rounding heuristic: accept as incumbent when the
    /// rounded point is genuinely feasible for the *model*.
    fn try_rounding(&mut self, x: &[f64]) {
        let snapped = self.snap(x);
        if self.model.check_feasible(&snapped, 1e-6).is_some() {
            return;
        }
        let internal: f64 = self
            .form
            .obj_min
            .iter()
            .zip(&snapped)
            .map(|(c, xi)| c * xi)
            .sum();
        if self
            .incumbent
            .as_ref()
            .is_none_or(|inc| internal < inc.internal)
        {
            self.incumbent = Some(Incumbent {
                internal,
                values: snapped,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Sense, VarId};
    use std::time::Duration;

    fn solve(model: &Model) -> SolveOutcome {
        MilpSolver::new(SolverConfig::default())
            .solve(model)
            .outcome
    }

    fn assert_optimal(outcome: &SolveOutcome, expect: f64) -> Vec<f64> {
        match outcome {
            SolveOutcome::Optimal(s) => {
                assert!(
                    (s.objective - expect).abs() < 1e-6,
                    "objective {} != {expect}",
                    s.objective
                );
                s.values.clone()
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn integer_knapsack() {
        // 0/1 knapsack: values (60,100,120), weights (10,20,30), cap 50.
        // Integer optimum picks items 2+3 → 220 (LP bound is 240).
        let mut m = Model::new();
        let a = m.add_int_var(0.0, 1.0, 60.0);
        let b = m.add_int_var(0.0, 1.0, 100.0);
        let c = m.add_int_var(0.0, 1.0, 120.0);
        m.add_le(vec![(a, 10.0), (b, 20.0), (c, 30.0)], 50.0);
        m.set_sense(Sense::Maximize);
        let x = assert_optimal(&solve(&m), 220.0);
        assert_eq!(
            x.iter().map(|v| v.round() as i64).collect::<Vec<_>>(),
            vec![0, 1, 1]
        );
    }

    #[test]
    fn pure_lp_passes_through() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 10.0, 1.0);
        m.add_le(vec![(x, 2.0)], 9.0);
        m.set_sense(Sense::Maximize);
        assert_optimal(&solve(&m), 4.5);
    }

    #[test]
    fn integrality_changes_the_answer() {
        // max x with 2x ≤ 9: LP says 4.5, ILP says 4.
        let mut m = Model::new();
        let x = m.add_int_var(0.0, 10.0, 1.0);
        m.add_le(vec![(x, 2.0)], 9.0);
        m.set_sense(Sense::Maximize);
        assert_optimal(&solve(&m), 4.0);
    }

    #[test]
    fn equality_cardinality_like_package_query() {
        // The paper's running-example shape: pick exactly 3 tuples,
        // sum(kcal) in [2.0, 2.5], minimize sum(fat).
        let kcal = [0.8, 0.9, 0.5, 1.1, 0.7, 0.6];
        let fat = [1.0, 2.0, 0.2, 5.0, 0.4, 3.0];
        let mut m = Model::new();
        let vars: Vec<VarId> = fat.iter().map(|&f| m.add_int_var(0.0, 1.0, f)).collect();
        m.add_eq(vars.iter().map(|&v| (v, 1.0)).collect(), 3.0);
        m.add_range(
            vars.iter().zip(kcal).map(|(&v, k)| (v, k)).collect(),
            2.0,
            2.5,
        );
        m.set_sense(Sense::Minimize);
        // Best: tuples {0, 2, 4} → kcal 2.0, fat 1.6.
        let x = assert_optimal(&solve(&m), 1.6);
        let picked: Vec<usize> = x
            .iter()
            .enumerate()
            .filter(|(_, v)| v.round() as i64 == 1)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(picked, vec![0, 2, 4]);
    }

    #[test]
    fn repeat_constraint_allows_multiplicity() {
        // REPEAT 1 ⇒ x_i ∈ {0, 1, 2}: maximize value with one cheap item.
        let mut m = Model::new();
        let x = m.add_int_var(0.0, 2.0, 5.0);
        let y = m.add_int_var(0.0, 2.0, 4.0);
        m.add_le(vec![(x, 3.0), (y, 2.0)], 7.0);
        m.set_sense(Sense::Maximize);
        // Options: x=2 (obj 10, w 6) + y=0; x=1,y=2 (obj 13, w 7). → 13.
        let x = assert_optimal(&solve(&m), 13.0);
        assert_eq!(x[0].round() as i64, 1);
        assert_eq!(x[1].round() as i64, 2);
    }

    #[test]
    fn infeasible_integrality() {
        // 0.4 ≤ x ≤ 0.6 with x integer: LP feasible, ILP not.
        let mut m = Model::new();
        let x = m.add_int_var(0.0, 1.0, 1.0);
        m.add_range(vec![(x, 1.0)], 0.4, 0.6);
        m.set_sense(Sense::Maximize);
        assert_eq!(solve(&m), SolveOutcome::Infeasible);
    }

    #[test]
    fn unbounded_reported() {
        let mut m = Model::new();
        let x = m.add_int_var(0.0, f64::INFINITY, 1.0);
        let y = m.add_var(0.0, 1.0, 0.0);
        m.add_le(vec![(x, -1.0), (y, 1.0)], 3.0);
        m.set_sense(Sense::Maximize);
        assert_eq!(solve(&m), SolveOutcome::Unbounded);
    }

    #[test]
    fn node_limit_failure_without_incumbent() {
        // Two-variable row so presolve cannot fold it away; fractional
        // target so no trivial incumbent exists at node 0.
        let mut m = Model::new();
        let x = m.add_int_var(0.0, 1.0, 1.0);
        let y = m.add_int_var(0.0, 1.0, 1.0);
        m.add_range(vec![(x, 1.0), (y, 1.0)], 0.4, 0.6);
        let solver = MilpSolver::new(SolverConfig::default().with_node_limit(0));
        match solver.solve(&m).outcome {
            SolveOutcome::ResourceExhausted(LimitKind::Nodes) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn memory_limit_emulates_cplex_oom() {
        let mut m = Model::new();
        let vars: Vec<VarId> = (0..100)
            .map(|i| m.add_int_var(0.0, 1.0, (i % 7) as f64))
            .collect();
        m.add_le(vars.iter().map(|&v| (v, 1.0)).collect(), 50.0);
        m.set_sense(Sense::Maximize);
        let solver = MilpSolver::new(SolverConfig::default().with_memory_limit(16));
        let out = solver.solve(&m).outcome;
        assert!(
            matches!(out, SolveOutcome::ResourceExhausted(LimitKind::Memory)),
            "unexpected {out:?}"
        );
    }

    #[test]
    fn time_limit_with_incumbent_reports_feasible_or_optimal() {
        // Large-ish correlated knapsack; a tiny time limit may interrupt
        // the proof, but any found incumbent must be feasible.
        let mut m = Model::new();
        let n = 200;
        let vars: Vec<VarId> = (0..n)
            .map(|i| m.add_int_var(0.0, 1.0, 10.0 + ((i * 13) % 7) as f64))
            .collect();
        m.add_le(
            vars.iter()
                .enumerate()
                .map(|(i, &v)| (v, 10.0 + ((i * 13) % 7) as f64 + 1.0))
                .collect(),
            (n as f64) * 2.0,
        );
        m.set_sense(Sense::Maximize);
        let solver =
            MilpSolver::new(SolverConfig::default().with_time_limit(Duration::from_millis(200)));
        let result = solver.solve(&m);
        if let Some(sol) = result.solution() {
            assert!(m.check_feasible(&sol.values, 1e-5).is_none());
        }
    }

    #[test]
    fn stats_are_populated() {
        let mut m = Model::new();
        let x = m.add_int_var(0.0, 10.0, 1.0);
        m.add_le(vec![(x, 2.0), (x, 1.0)], 9.5);
        m.set_sense(Sense::Maximize);
        let r = MilpSolver::new(SolverConfig::default()).solve(&m);
        assert!(r.stats.nodes >= 1);
        assert!(r.stats.wall_time > Duration::ZERO);
    }

    #[test]
    fn relative_gap_accepts_near_optimal() {
        let mut m = Model::new();
        let a = m.add_int_var(0.0, 1.0, 60.0);
        let b = m.add_int_var(0.0, 1.0, 100.0);
        let c = m.add_int_var(0.0, 1.0, 120.0);
        m.add_le(vec![(a, 10.0), (b, 20.0), (c, 30.0)], 50.0);
        m.set_sense(Sense::Maximize);
        // A huge gap setting must still return *some* optimal-tagged
        // feasible answer.
        let solver = MilpSolver::new(SolverConfig::default().with_relative_gap(0.5));
        match solver.solve(&m).outcome {
            SolveOutcome::Optimal(s) => {
                assert!(m.check_feasible(&s.values, 1e-6).is_none());
                assert!(s.objective >= 120.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn warm_started_node_lps_match_cold_solves() {
        // Walk the branch-and-bound tree of seeded multi-row 0/1 models
        // depth-first, branching on the most fractional variable (the
        // search's rule). Every child LP is solved warm from its parent's
        // basis and cold from scratch: same status, same objective.
        use crate::presolve::presolve;
        use crate::simplex::{solve_lp, LpResult};
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |k: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % k) as f64
        };
        let mut children = 0;
        for _ in 0..4 {
            let n = 24;
            let mut m = Model::new();
            let vars: Vec<VarId> = (0..n)
                .map(|_| m.add_int_var(0.0, 1.0, next(40) - 10.0))
                .collect();
            for cap in [40.0, 55.0] {
                let terms = vars.iter().map(|&v| (v, 1.0 + next(12))).collect();
                m.add_le(terms, cap);
            }
            m.add_range(vars.iter().map(|&v| (v, 1.0)).collect(), 4.0, 9.0);
            m.set_sense(Sense::Maximize);
            let Presolved::Ready(form, root) = presolve(&m) else {
                panic!("feasible model");
            };
            let opts = LpOptions::default();
            let objective = |r: &LpResult| match &r.status {
                LpStatus::Optimal { objective, .. } => Some(*objective),
                _ => None,
            };
            let mut stack = vec![(root, None::<Arc<Basis>>)];
            let mut nodes = 0;
            while let Some((bounds, warm)) = stack.pop() {
                nodes += 1;
                if nodes > 300 {
                    break;
                }
                let lp = solve_lp_from(&form, &bounds, &opts, warm.as_deref());
                if warm.is_some() {
                    let cold = solve_lp(&form, &bounds, &opts);
                    assert_eq!(
                        std::mem::discriminant(&lp.status),
                        std::mem::discriminant(&cold.status)
                    );
                    if let (Some(a), Some(b)) = (objective(&lp), objective(&cold)) {
                        assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0), "{a} vs {b}");
                    }
                    children += 1;
                }
                let LpStatus::Optimal { x, .. } = &lp.status else {
                    continue;
                };
                let Some(j) = (0..n).max_by(|&a, &b| {
                    let frac = |v: f64| 0.5 - (v - v.floor() - 0.5).abs();
                    frac(x[a]).total_cmp(&frac(x[b])).then(b.cmp(&a))
                }) else {
                    continue;
                };
                if (x[j] - x[j].round()).abs() <= INT_EPS {
                    continue;
                }
                let basis = lp.basis.map(Arc::new);
                let mut down = bounds.clone();
                down.ub[j] = x[j].floor();
                let mut up = bounds;
                up.lb[j] = x[j].ceil();
                stack.push((down, basis.clone()));
                stack.push((up, basis));
            }
        }
        assert!(children >= 200, "only {children} warm-started nodes");
    }

    /// Exhaustive reference solver for tiny integer models.
    fn brute_force(model: &Model, max_val: i64) -> Option<f64> {
        let n = model.num_vars();
        let mut best: Option<f64> = None;
        let mut assignment = vec![0.0; n];
        fn rec(
            model: &Model,
            j: usize,
            max_val: i64,
            assignment: &mut Vec<f64>,
            best: &mut Option<f64>,
        ) {
            if j == model.num_vars() {
                if model.check_feasible(assignment, 1e-9).is_none() {
                    let obj = model.objective_value(assignment);
                    let better = match (model.sense(), *best) {
                        (_, None) => true,
                        (Sense::Maximize, Some(b)) => obj > b,
                        (Sense::Minimize, Some(b)) => obj < b,
                    };
                    if better {
                        *best = Some(obj);
                    }
                }
                return;
            }
            let lo = model.var(crate::VarId(j as u32)).lb.max(0.0) as i64;
            let hi = model.var(crate::VarId(j as u32)).ub.min(max_val as f64) as i64;
            for v in lo..=hi {
                assignment[j] = v as f64;
                rec(model, j + 1, max_val, assignment, best);
            }
            assignment[j] = 0.0;
        }
        rec(model, 0, max_val, &mut assignment, &mut best);
        best
    }

    #[test]
    fn matches_brute_force_on_grid_of_small_models() {
        // Deterministic pseudo-random small models, cross-checked
        // against exhaustive enumeration.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..60 {
            let n = 2 + (next() % 4) as usize; // 2..=5 vars
            let rows = 1 + (next() % 3) as usize; // 1..=3 rows
            let mut m = Model::new();
            let vars: Vec<VarId> = (0..n)
                .map(|_| {
                    let ub = 1 + (next() % 3) as i64;
                    let obj = (next() % 21) as f64 - 10.0;
                    m.add_int_var(0.0, ub as f64, obj)
                })
                .collect();
            for _ in 0..rows {
                let terms: Vec<(VarId, f64)> = vars
                    .iter()
                    .map(|&v| (v, (next() % 11) as f64 - 5.0))
                    .collect();
                let a = (next() % 21) as f64 - 10.0;
                let b = a + (next() % 15) as f64;
                m.add_range(terms, a, b);
            }
            m.set_sense(if next() % 2 == 0 {
                Sense::Maximize
            } else {
                Sense::Minimize
            });

            let reference = brute_force(&m, 3);
            let outcome = solve(&m);
            match (reference, &outcome) {
                (None, SolveOutcome::Infeasible) => {}
                (Some(obj), SolveOutcome::Optimal(s)) => {
                    assert!(
                        (obj - s.objective).abs() < 1e-6,
                        "trial {trial}: brute force {obj} vs solver {} ({m})",
                        s.objective
                    );
                }
                (r, o) => panic!("trial {trial}: brute force {r:?} vs solver {o:?} ({m})"),
            }
        }
    }
}
