//! Bounded-variable revised simplex.
//!
//! Solves `min c·x` subject to `L ≤ Ax ≤ U` (range rows) and `l ≤ x ≤ u`
//! (variable bounds). Internally each row `i` gets a *logical* variable
//! `s_i` with bounds `[L_i, U_i]` and the system becomes `Ax − s = 0`,
//! so the basis is always `m × m` where `m` is the number of rows —
//! tiny for package-query ILPs — while pricing streams over all `n`
//! structural columns.
//!
//! Implementation notes:
//! * dense `m × m` basis inverse, eta-updated each pivot and fully
//!   refactorized every [`crate::SolverConfig::refactor_interval`]
//!   pivots;
//! * composite phase-1 (minimize total bound violation of basic
//!   variables) with breakpoint-limited ratio steps;
//! * Dantzig pricing **per dual vector, not per move**. A *move* is a
//!   pivot or a bound flip. A pivot changes the basis and so the duals
//!   `y`; a bound flip changes neither. One pricing pass ranks the best
//!   eight eligible candidates into a buffer and returns the Dantzig
//!   pick (highest score, lowest index on ties). When that pick flips
//!   instead of pivoting, the next move is the best remaining candidate
//!   of the same pass: from the ranked eight, then — for a run of more
//!   flips, as in the phase 1 of a large cardinality query — from a
//!   max-heap that one more scan against the same duals fills. This is
//!   exactly the candidate a fresh scan would pick, so the pivot path is
//!   the one a re-scan after every move would take, at the price of one
//!   scan per dual vector (two for a long run of flips) instead of one
//!   per move;
//! * phase 1 batches flips too. Its costs (−1, 0 or +1 per basic
//!   variable) follow each basic variable's feasibility class, so a flip
//!   keeps them, and `y`, valid unless some basic variable crossed a
//!   bound tolerance. An O(m) check after each phase-1 flip decides
//!   whether to keep serving the pass or to price again;
//! * a Bland-rule fallback when the objective stalls (anti-cycling).
//!   Under Bland's rule a pass walks the candidates in index order. The
//!   stall counter advances once per phase-1 move and once per phase-2
//!   pivot (or run of flips), so Bland's rule switches on at the same
//!   move whether or not flips are batched;
//! * every solve ends with a full refactorization + primal recompute, so
//!   reported solutions are numerically fresh.

// Dense numeric kernels: indexed loops mirror the textbook algebra and
// often touch several parallel arrays at once.
#![allow(clippy::needless_range_loop)]

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::presolve::{StandardForm, VarBounds};
use crate::EPS;

/// Terminal status of an LP solve.
#[derive(Debug, Clone, PartialEq)]
pub enum LpStatus {
    /// Proved optimal; payload is the structural solution and the
    /// objective *in the model's sense*.
    Optimal {
        /// Structural variable values (length `n`).
        x: Vec<f64>,
        /// Objective value in the model's original sense.
        objective: f64,
    },
    /// No feasible point exists.
    Infeasible,
    /// Objective unbounded in the optimization direction.
    Unbounded,
    /// The iteration budget expired.
    IterationLimit,
}

/// LP solve result with work counters.
#[derive(Debug, Clone)]
pub struct LpResult {
    /// Terminal status.
    pub status: LpStatus,
    /// Simplex iterations consumed (pivots + bound flips).
    pub iterations: u64,
    /// On [`LpStatus::Infeasible`]: the rows whose activity lies outside
    /// their bounds at the phase-1 optimum — a lightweight stand-in for
    /// a CPLEX irreducible-infeasible-set report (the paper's §4.4
    /// strategy 3 uses exactly this kind of diagnostic to decide which
    /// partitioning attributes to drop). Empty otherwise.
    pub violated_rows: Vec<u32>,
}

/// Knobs for one LP solve.
#[derive(Debug, Clone)]
pub struct LpOptions {
    /// Iteration budget (pivots + flips).
    pub max_iterations: u64,
    /// Pivots between full basis refactorizations.
    pub refactor_interval: u32,
    /// Serve consecutive bound flips from one pricing pass, in phase 1
    /// as well as phase 2. `false` prices again after every flip
    /// (ablation switch; see [`crate::SolverConfig::flip_batching`]).
    pub flip_batching: bool,
}

impl Default for LpOptions {
    fn default() -> Self {
        LpOptions {
            max_iterations: u64::MAX,
            refactor_interval: 64,
            flip_batching: true,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Status {
    AtLower,
    AtUpper,
    /// Free nonbasic variable, parked at 0.
    Free,
    /// Basic in the given row slot.
    Basic(u32),
}

/// Number of stalled (non-improving) iterations before switching to
/// Bland's anti-cycling rule.
const STALL_LIMIT: u32 = 300;

/// Candidates a pass ranks as it scans. Most runs of flips are short —
/// one flip per pass on the bulk DIRECT models, about two on Galaxy
/// DIRECT Q1 — and are served from these alone.
const PASS_TOP: usize = 8;

/// The entering candidates of one pricing pass, all priced against one
/// dual vector. Owned by [`Simplex`] and reused across passes.
#[derive(Default)]
struct Pass {
    /// The pass's best [`PASS_TOP`] candidates with their reduced costs,
    /// in Dantzig order: highest `|d_j|`, then lowest index.
    top: Vec<(u32, f64)>,
    /// How many picks the pass has served.
    served: usize,
    /// The rest of the pass in Dantzig order — score bits (monotone for
    /// positive scores), then lowest index — with the direction `+1` as
    /// `true`. Filled by a second scan against the same duals once a run
    /// of flips outlasts `top`.
    order: BinaryHeap<(u64, Reverse<u32>, bool)>,
    /// Under Bland's rule: the next index to price.
    cursor: usize,
}

struct Simplex<'a> {
    form: &'a StandardForm,
    /// Bounds over all `n + m` variables (structural then logical).
    lb: Vec<f64>,
    ub: Vec<f64>,
    /// Minimization costs over all variables (logical costs are 0).
    cost: Vec<f64>,
    status: Vec<Status>,
    /// Values of nonbasic variables (basic entries are stale).
    xn: Vec<f64>,
    /// Basis: variable index per row slot.
    basis: Vec<usize>,
    /// Dense row-major basis inverse.
    binv: Vec<f64>,
    /// Basic variable values per row slot.
    xb: Vec<f64>,
    m: usize,
    n_total: usize,
    iterations: u64,
    pivots_since_refactor: u32,
    stall: u32,
    /// Objective (phase 2) or total violation (phase 1) at the last
    /// stall check.
    last_obj: f64,
    refactor_interval: u32,
    flip_batching: bool,
    pass: Pass,
}

impl<'a> Simplex<'a> {
    fn new(form: &'a StandardForm, bounds: &VarBounds, opts: &LpOptions) -> Self {
        let n = form.n;
        let m = form.m;
        let n_total = n + m;
        let mut lb = Vec::with_capacity(n_total);
        let mut ub = Vec::with_capacity(n_total);
        lb.extend_from_slice(&bounds.lb);
        ub.extend_from_slice(&bounds.ub);
        lb.extend_from_slice(&form.row_lo);
        ub.extend_from_slice(&form.row_hi);
        let mut cost = Vec::with_capacity(n_total);
        cost.extend_from_slice(&form.obj_min);
        cost.extend(std::iter::repeat_n(0.0, m));

        // Nonbasic structurals start at their "cheapest finite" bound;
        // logicals start basic (basis matrix = −I).
        let mut status = Vec::with_capacity(n_total);
        let mut xn = vec![0.0; n_total];
        for j in 0..n {
            if lb[j].is_finite() {
                status.push(Status::AtLower);
                xn[j] = lb[j];
            } else if ub[j].is_finite() {
                status.push(Status::AtUpper);
                xn[j] = ub[j];
            } else {
                status.push(Status::Free);
                xn[j] = 0.0;
            }
        }
        let mut basis = Vec::with_capacity(m);
        for i in 0..m {
            status.push(Status::Basic(i as u32));
            basis.push(n + i);
        }
        // B = −I ⇒ B⁻¹ = −I.
        let mut binv = vec![0.0; m * m];
        for i in 0..m {
            binv[i * m + i] = -1.0;
        }

        let mut s = Simplex {
            form,
            lb,
            ub,
            cost,
            status,
            xn,
            basis,
            binv,
            xb: vec![0.0; m],
            m,
            n_total,
            iterations: 0,
            pivots_since_refactor: 0,
            stall: 0,
            last_obj: f64::INFINITY,
            refactor_interval: opts.refactor_interval.max(1),
            flip_batching: opts.flip_batching,
            pass: Pass::default(),
        };
        s.recompute_xb();
        s
    }

    /// Sparse column of variable `j` as (row, coefficient) pairs.
    #[inline]
    fn col(&self, j: usize) -> ColIter<'_> {
        if j < self.form.n {
            ColIter::Structural(self.form.cols[j].iter())
        } else {
            ColIter::Logical(Some((j - self.form.n) as u32))
        }
    }

    /// Recompute basic values from scratch: solve `B x_B = −A_N x_N`.
    fn recompute_xb(&mut self) {
        let m = self.m;
        let mut rhs = vec![0.0; m];
        for j in 0..self.n_total {
            if matches!(self.status[j], Status::Basic(_)) {
                continue;
            }
            let xj = self.xn[j];
            if xj == 0.0 {
                continue;
            }
            for (row, coef) in self.col(j) {
                rhs[row as usize] -= coef * xj;
            }
        }
        for i in 0..m {
            let mut v = 0.0;
            for k in 0..m {
                v += self.binv[i * m + k] * rhs[k];
            }
            self.xb[i] = v;
        }
    }

    /// Rebuild the basis inverse by Gauss–Jordan elimination. Returns
    /// `false` when the basis matrix is numerically singular.
    fn refactor(&mut self) -> bool {
        let m = self.m;
        // Assemble B column-by-column: column slot i holds a_{basis[i]}.
        let mut a = vec![0.0; m * m]; // row-major augmented [B]
        for (slot, &var) in self.basis.iter().enumerate() {
            for (row, coef) in self.col(var) {
                a[row as usize * m + slot] = coef;
            }
        }
        let mut inv = vec![0.0; m * m];
        for i in 0..m {
            inv[i * m + i] = 1.0;
        }
        for col in 0..m {
            // Partial pivoting.
            let mut best = col;
            let mut best_abs = a[col * m + col].abs();
            for r in col + 1..m {
                let v = a[r * m + col].abs();
                if v > best_abs {
                    best = r;
                    best_abs = v;
                }
            }
            if best_abs < 1e-12 {
                return false;
            }
            if best != col {
                for k in 0..m {
                    a.swap(col * m + k, best * m + k);
                    inv.swap(col * m + k, best * m + k);
                }
            }
            let piv = a[col * m + col];
            for k in 0..m {
                a[col * m + k] /= piv;
                inv[col * m + k] /= piv;
            }
            for r in 0..m {
                if r == col {
                    continue;
                }
                let f = a[r * m + col];
                if f == 0.0 {
                    continue;
                }
                for k in 0..m {
                    a[r * m + k] -= f * a[col * m + k];
                    inv[r * m + k] -= f * inv[col * m + k];
                }
            }
        }
        self.binv = inv;
        self.pivots_since_refactor = 0;
        true
    }

    /// Feasibility tolerance, lightly scaled by (finite) bound magnitude.
    #[inline]
    fn ftol(&self, j: usize) -> f64 {
        let l = if self.lb[j].is_finite() {
            self.lb[j].abs()
        } else {
            0.0
        };
        let u = if self.ub[j].is_finite() {
            self.ub[j].abs()
        } else {
            0.0
        };
        EPS * 1.0_f64.max(l.max(u))
    }

    /// Phase-1 cost of basic slot `slot` — −1 below its lower bound, +1
    /// above its upper bound, 0 within tolerance — and its violation.
    #[inline]
    fn slot_violation(&self, slot: usize) -> (f64, f64) {
        let var = self.basis[slot];
        let x = self.xb[slot];
        let tol = self.ftol(var);
        if x < self.lb[var] - tol {
            (-1.0, self.lb[var] - x)
        } else if x > self.ub[var] + tol {
            (1.0, x - self.ub[var])
        } else {
            (0.0, 0.0)
        }
    }

    /// Phase-1 costs: ±1 on out-of-bounds basic variables. Returns the
    /// total violation (0 ⇒ primal feasible).
    fn infeasibility(&self) -> (f64, Vec<f64>) {
        let mut c = vec![0.0; self.m];
        let mut total = 0.0;
        for (slot, cost) in c.iter_mut().enumerate() {
            let (k, v) = self.slot_violation(slot);
            *cost = k;
            total += v;
        }
        (total, c)
    }

    /// After a phase-1 flip: the total violation, and whether every
    /// basic variable kept the class `costs` records, which is when the
    /// phase-1 costs and the duals priced from them still hold. O(m).
    fn phase1_recheck(&self, costs: &[f64]) -> (f64, bool) {
        let mut total = 0.0;
        let mut same = true;
        for (slot, &cost) in costs.iter().enumerate() {
            let (k, v) = self.slot_violation(slot);
            same &= k == cost;
            total += v;
        }
        (total, same)
    }

    /// Duals `y = c_B B⁻¹` for an arbitrary basic-cost vector.
    fn duals(&self, cb: &[f64]) -> Vec<f64> {
        let m = self.m;
        let mut y = vec![0.0; m];
        for (slot, &cbi) in cb.iter().enumerate() {
            if cbi == 0.0 {
                continue;
            }
            for k in 0..m {
                y[k] += cbi * self.binv[slot * m + k];
            }
        }
        y
    }

    /// Reduced cost of nonbasic variable `j` given duals `y`.
    #[inline]
    fn reduced_cost(&self, j: usize, y: &[f64], phase2: bool) -> f64 {
        let mut d = if phase2 { self.cost[j] } else { 0.0 };
        for (row, coef) in self.col(j) {
            d -= y[row as usize] * coef;
        }
        d
    }

    /// `w = B⁻¹ a_q`.
    fn ftran(&self, q: usize) -> Vec<f64> {
        let m = self.m;
        let mut w = vec![0.0; m];
        for (row, coef) in self.col(q) {
            let r = row as usize;
            for i in 0..m {
                w[i] += self.binv[i * m + r] * coef;
            }
        }
        w
    }

    /// Reduced cost of nonbasic `j` when `j` may enter: decreasing the
    /// objective by increasing from lower / free (`d < 0`) or decreasing
    /// from upper / free (`d > 0`).
    #[inline(always)]
    fn eligible(&self, j: usize, y: &[f64], phase2: bool) -> Option<f64> {
        let tol = EPS * 10.0;
        let (can_up, can_down) = match self.status[j] {
            Status::Basic(_) => return None,
            Status::AtLower => (true, false),
            Status::AtUpper => (false, true),
            Status::Free => (true, true),
        };
        // Fixed variables can never move.
        if self.ub[j] - self.lb[j] < EPS && self.lb[j].is_finite() {
            return None;
        }
        let d = self.reduced_cost(j, y, phase2);
        ((can_up && d < -tol) || (can_down && d > tol)).then_some(d)
    }

    /// One pricing pass against duals `y`. Returns `(j, dir)` with
    /// `dir = +1` (increase from lower / free) or `−1` (decrease from
    /// upper / free): the Dantzig pick (highest `|d_j|`, lowest index on
    /// ties), or the first eligible index under Bland's rule.
    /// [`Simplex::next_candidate`] serves the rest of the pass.
    fn price(&mut self, y: &[f64], phase2: bool, bland: bool) -> Option<(usize, f64)> {
        let pass = &mut self.pass;
        pass.top.clear();
        pass.served = 0;
        pass.order.clear();
        pass.cursor = 0;
        if !bland {
            // The score a candidate must beat to enter `top` once it is
            // full; indices rise, so a tie ranks after those it ties.
            let mut bar = f64::NEG_INFINITY;
            for j in 0..self.n_total {
                let Some(d) = self.eligible(j, y, phase2) else {
                    continue;
                };
                let score = d.abs();
                if score > bar {
                    let top = &mut self.pass.top;
                    let at = top.partition_point(|&(_, e)| e.abs() >= score);
                    top.insert(at, (j as u32, d));
                    if top.len() > PASS_TOP {
                        top.pop();
                    }
                    if top.len() == PASS_TOP {
                        bar = top[PASS_TOP - 1].1.abs();
                    }
                }
            }
        }
        self.next_candidate(y, phase2, bland)
    }

    /// The next candidate of the current pass: its first pick, then one
    /// after each flip. A flip moves only that variable, to the bound
    /// where it is no longer eligible, so this is the pick a fresh pass
    /// would make.
    fn next_candidate(&mut self, y: &[f64], phase2: bool, bland: bool) -> Option<(usize, f64)> {
        if bland {
            // Every index below the cursor was ineligible and still is.
            while self.pass.cursor < self.n_total {
                let j = self.pass.cursor;
                self.pass.cursor += 1;
                if let Some(d) = self.eligible(j, y, phase2) {
                    return Some((j, direction(d)));
                }
            }
            return None;
        }
        self.pass.served += 1;
        if let Some(&(j, d)) = self.pass.top.get(self.pass.served - 1) {
            return Some((j as usize, direction(d)));
        }
        if self.pass.top.len() < PASS_TOP {
            // `top` held every eligible candidate.
            return None;
        }
        if self.pass.served == PASS_TOP + 1 {
            // Every candidate in `top` has been flipped and is no longer
            // eligible, so this scan finds exactly the rest of the pass.
            let mut order = std::mem::take(&mut self.pass.order);
            order.extend((0..self.n_total).filter_map(|j| {
                let d = self.eligible(j, y, phase2)?;
                Some((d.abs().to_bits(), Reverse(j as u32), d < 0.0))
            }));
            self.pass.order = order;
        }
        self.pass
            .order
            .pop()
            .map(|(_, Reverse(j), up)| (j as usize, if up { 1.0 } else { -1.0 }))
    }

    /// Ratio test for entering variable `q` moving in direction `dir`.
    ///
    /// Returns the step length, and either a blocking basic slot (plus
    /// the bound it hits) or `None` when the entering variable's own
    /// opposite bound is the limit (a bound flip). `f64::INFINITY` step
    /// ⇒ unbounded direction.
    fn ratio_test(
        &self,
        q: usize,
        dir: f64,
        w: &[f64],
        bland: bool,
    ) -> (f64, Option<(usize, bool)>) {
        // Flip length of the entering variable itself.
        let mut t_best = if self.lb[q].is_finite() && self.ub[q].is_finite() {
            self.ub[q] - self.lb[q]
        } else {
            f64::INFINITY
        };
        let mut blocker: Option<(usize, bool)> = None; // (slot, hits_upper)
        let mut blocker_rate = 0.0_f64;

        for slot in 0..self.m {
            let var = self.basis[slot];
            let rate = -dir * w[slot]; // d x_B[slot] / d t
            if rate.abs() <= EPS {
                continue;
            }
            let x = self.xb[slot];
            let tol = self.ftol(var);
            let below = x < self.lb[var] - tol;
            let above = x > self.ub[var] + tol;
            let (limit, hits_upper) = if below {
                // Infeasible below: only a *rising* value hits a
                // breakpoint (its lower bound). Falling values are
                // penalized by phase-1 costs, not blocked.
                if rate > 0.0 {
                    ((self.lb[var] - x) / rate, false)
                } else {
                    continue;
                }
            } else if above {
                if rate < 0.0 {
                    ((x - self.ub[var]) / -rate, true)
                } else {
                    continue;
                }
            } else if rate < 0.0 {
                if self.lb[var].is_finite() {
                    ((x - self.lb[var]) / -rate, false)
                } else {
                    continue;
                }
            } else {
                if self.ub[var].is_finite() {
                    ((self.ub[var] - x) / rate, true)
                } else {
                    continue;
                }
            };
            let limit = limit.max(0.0);
            let better = if bland {
                limit < t_best - EPS
                    || (limit < t_best + EPS
                        && blocker.is_none_or(|(s, _)| self.basis[slot] < self.basis[s]))
            } else {
                limit < t_best - EPS
                    || (limit < t_best + EPS && blocker.is_some() && rate.abs() > blocker_rate)
                    || (limit < t_best + EPS && blocker.is_none() && limit < t_best)
            };
            if better {
                t_best = limit;
                blocker = Some((slot, hits_upper));
                blocker_rate = rate.abs();
            }
        }
        (t_best, blocker)
    }

    /// Apply a bound flip of entering variable `q` over step `t`.
    fn apply_flip(&mut self, q: usize, dir: f64, t: f64, w: &[f64]) {
        for slot in 0..self.m {
            self.xb[slot] += -dir * w[slot] * t;
        }
        if dir > 0.0 {
            self.status[q] = Status::AtUpper;
            self.xn[q] = self.ub[q];
        } else {
            self.status[q] = Status::AtLower;
            self.xn[q] = self.lb[q];
        }
    }

    /// Pivot `q` into the basis at `slot`, sending the leaving variable
    /// to the bound indicated by `leaves_upper`.
    fn apply_pivot(
        &mut self,
        q: usize,
        dir: f64,
        t: f64,
        w: &[f64],
        slot: usize,
        leaves_upper: bool,
    ) -> bool {
        let entering_start = match self.status[q] {
            Status::AtLower => self.lb[q],
            Status::AtUpper => self.ub[q],
            Status::Free => 0.0,
            Status::Basic(_) => unreachable!("entering variable is nonbasic"),
        };
        // Update basic values.
        for s in 0..self.m {
            self.xb[s] += -dir * w[s] * t;
        }
        let leaving = self.basis[slot];
        self.status[leaving] = if leaves_upper {
            Status::AtUpper
        } else {
            Status::AtLower
        };
        self.xn[leaving] = if leaves_upper {
            self.ub[leaving]
        } else {
            self.lb[leaving]
        };

        self.basis[slot] = q;
        self.status[q] = Status::Basic(slot as u32);
        self.xb[slot] = entering_start + dir * t;

        // Eta update of B⁻¹, or a full refactorization on schedule /
        // tiny pivot element.
        let piv = w[slot];
        self.pivots_since_refactor += 1;
        if piv.abs() < 1e-9 || self.pivots_since_refactor >= self.refactor_interval {
            if !self.refactor() {
                return false;
            }
            self.recompute_xb();
        } else {
            let m = self.m;
            let inv_piv = 1.0 / piv;
            for k in 0..m {
                self.binv[slot * m + k] *= inv_piv;
            }
            for i in 0..m {
                if i == slot {
                    continue;
                }
                let f = w[i];
                if f == 0.0 {
                    continue;
                }
                for k in 0..m {
                    self.binv[i * m + k] -= f * self.binv[slot * m + k];
                }
            }
        }
        true
    }

    fn current_objective(&self) -> f64 {
        let mut obj = 0.0;
        for j in 0..self.n_total {
            match self.status[j] {
                Status::Basic(slot) => obj += self.cost[j] * self.xb[slot as usize],
                _ => obj += self.cost[j] * self.xn[j],
            }
        }
        obj
    }

    /// Rows whose activity lies outside their bounds at the current
    /// (phase-1-optimal) point — the infeasibility diagnostic.
    fn violated_rows(&self) -> Vec<u32> {
        let x = self.extract_solution();
        let mut activity = vec![0.0; self.m];
        for (j, &xj) in x.iter().enumerate() {
            if xj == 0.0 {
                continue;
            }
            for &(row, coef) in &self.form.cols[j] {
                activity[row as usize] += coef * xj;
            }
        }
        let mut out = Vec::new();
        for (i, act) in activity.iter().enumerate() {
            let scale = 1.0_f64.max(act.abs());
            if *act < self.form.row_lo[i] - EPS * scale || *act > self.form.row_hi[i] + EPS * scale
            {
                out.push(i as u32);
            }
        }
        out
    }

    fn extract_solution(&self) -> Vec<f64> {
        let mut x = vec![0.0; self.form.n];
        for (j, item) in x.iter_mut().enumerate() {
            *item = match self.status[j] {
                Status::Basic(slot) => self.xb[slot as usize],
                _ => self.xn[j],
            };
        }
        x
    }

    /// Stall bookkeeping for the Bland fallback, once per move (or per
    /// run of phase-2 flips) on the post-move objective or violation.
    fn record_progress(&mut self, obj: f64) {
        if obj < self.last_obj - 1e-10 {
            self.stall = 0;
        } else {
            self.stall += 1;
        }
        self.last_obj = obj;
    }

    fn solve(&mut self, max_iterations: u64) -> LpStatus {
        loop {
            if self.iterations >= max_iterations {
                return LpStatus::IterationLimit;
            }
            let (violation, phase1_costs) = self.infeasibility();
            let phase2 = violation <= 0.0;
            let bland = self.stall >= STALL_LIMIT;

            let cb: Vec<f64> = if phase2 {
                self.basis.iter().map(|&v| self.cost[v]).collect()
            } else {
                phase1_costs
            };
            let y = self.duals(&cb);

            let Some(mut entering) = self.price(&y, phase2, bland) else {
                // No entering candidate: optimal or (still) infeasible.
                // Confirm with fresh numbers before declaring.
                if self.pivots_since_refactor > 0 {
                    if !self.refactor() {
                        return LpStatus::IterationLimit;
                    }
                    self.recompute_xb();
                }
                let (violation, _) = self.infeasibility();
                if violation > 0.0 {
                    if phase2 {
                        // We were in phase 2 on stale numbers; loop again
                        // to run phase 1 on fresh ones.
                        continue;
                    }
                    return LpStatus::Infeasible;
                }
                if !phase2 {
                    // Phase 1 finished; run phase 2.
                    continue;
                }
                let x = self.extract_solution();
                let internal: f64 = self.form.obj_min.iter().zip(&x).map(|(c, xi)| c * xi).sum();
                return LpStatus::Optimal {
                    x,
                    objective: self.form.model_objective(internal),
                };
            };

            // Moves priced against this `y`: any number of bound flips,
            // then a pivot or a reason to price again.
            loop {
                let (q, dir) = entering;
                let w = self.ftran(q);
                let (t, blocker) = self.ratio_test(q, dir, &w, bland);
                self.iterations += 1;
                if t.is_infinite() {
                    return if phase2 {
                        LpStatus::Unbounded
                    } else {
                        LpStatus::Infeasible
                    };
                }
                if let Some((slot, leaves_upper)) = blocker {
                    if !self.apply_pivot(q, dir, t, &w, slot, leaves_upper) {
                        // Singular basis after pivot: refactor failed.
                        return LpStatus::IterationLimit;
                    }
                    let obj = if phase2 {
                        self.current_objective()
                    } else {
                        self.infeasibility().0
                    };
                    self.record_progress(obj);
                    break;
                }
                // Bound flip: basis and `y` unchanged.
                self.apply_flip(q, dir, t, &w);
                if self.iterations >= max_iterations {
                    return LpStatus::IterationLimit;
                }
                let next = if phase2 {
                    // A run of phase-2 flips, with the pivot that may end
                    // it, is one stall step.
                    let next = if self.flip_batching {
                        self.next_candidate(&y, true, bland)
                    } else {
                        None
                    };
                    if next.is_none() {
                        let obj = self.current_objective();
                        self.record_progress(obj);
                    }
                    next
                } else {
                    // The phase-1 costs follow the basic variables'
                    // feasibility classes; price again once one changes,
                    // or once the stall counter toggles Bland's rule.
                    let (violation, same_costs) = self.phase1_recheck(&cb);
                    self.record_progress(violation);
                    if self.flip_batching && same_costs && (self.stall >= STALL_LIMIT) == bland {
                        self.next_candidate(&y, false, bland)
                    } else {
                        None
                    }
                };
                match next {
                    Some(e) => entering = e,
                    None => break,
                }
            }
        }
    }
}

/// Entering direction for an eligible reduced cost: `+1` (increase)
/// when `d < 0`, `−1` (decrease) when `d > 0`.
#[inline]
fn direction(d: f64) -> f64 {
    if d < 0.0 {
        1.0
    } else {
        -1.0
    }
}

/// Iterator over the sparse column of a variable.
enum ColIter<'a> {
    Structural(std::slice::Iter<'a, (u32, f64)>),
    Logical(Option<u32>),
}

impl Iterator for ColIter<'_> {
    type Item = (u32, f64);

    fn next(&mut self) -> Option<(u32, f64)> {
        match self {
            ColIter::Structural(it) => it.next().copied(),
            ColIter::Logical(row) => row.take().map(|r| (r, -1.0)),
        }
    }
}

/// Solve the LP relaxation of `form` under `bounds`.
pub fn solve_lp(form: &StandardForm, bounds: &VarBounds, opts: &LpOptions) -> LpResult {
    // Degenerate case: no rows at all — every variable sits at its
    // objective-preferred bound.
    if form.m == 0 {
        let mut x = vec![0.0; form.n];
        for j in 0..form.n {
            let c = form.obj_min[j];
            let (l, u) = (bounds.lb[j], bounds.ub[j]);
            x[j] = if c > 0.0 {
                if l.is_finite() {
                    l
                } else {
                    return LpResult {
                        status: LpStatus::Unbounded,
                        iterations: 0,
                        violated_rows: vec![],
                    };
                }
            } else if c < 0.0 {
                if u.is_finite() {
                    u
                } else {
                    return LpResult {
                        status: LpStatus::Unbounded,
                        iterations: 0,
                        violated_rows: vec![],
                    };
                }
            } else if l.is_finite() {
                l
            } else if u.is_finite() {
                u
            } else {
                0.0
            };
        }
        let internal: f64 = form.obj_min.iter().zip(&x).map(|(c, xi)| c * xi).sum();
        return LpResult {
            status: LpStatus::Optimal {
                x,
                objective: form.model_objective(internal),
            },
            iterations: 0,
            violated_rows: vec![],
        };
    }

    let mut s = Simplex::new(form, bounds, opts);
    let status = s.solve(opts.max_iterations);
    let violated_rows = if status == LpStatus::Infeasible {
        s.violated_rows()
    } else {
        vec![]
    };
    LpResult {
        status,
        iterations: s.iterations,
        violated_rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Sense};
    use crate::presolve::{presolve, Presolved};

    fn lp(model: &Model) -> LpStatus {
        match presolve(model) {
            Presolved::Infeasible => LpStatus::Infeasible,
            Presolved::Ready(form, bounds) => {
                solve_lp(
                    &form,
                    &bounds,
                    &LpOptions {
                        max_iterations: 100_000,
                        ..LpOptions::default()
                    },
                )
                .status
            }
        }
    }

    fn assert_optimal(status: &LpStatus, expect_obj: f64) -> Vec<f64> {
        match status {
            LpStatus::Optimal { x, objective } => {
                assert!(
                    (objective - expect_obj).abs() < 1e-6,
                    "objective {objective} != expected {expect_obj}"
                );
                x.clone()
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn textbook_two_variable_max() {
        // max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 → (2, 6), obj 36.
        let mut m = Model::new();
        let x = m.add_var(0.0, f64::INFINITY, 3.0);
        let y = m.add_var(0.0, f64::INFINITY, 5.0);
        m.add_le(vec![(x, 1.0)], 4.0);
        m.add_le(vec![(y, 2.0)], 12.0);
        m.add_le(vec![(x, 3.0), (y, 2.0)], 18.0);
        m.set_sense(Sense::Maximize);
        let sol = assert_optimal(&lp(&m), 36.0);
        assert!((sol[0] - 2.0).abs() < 1e-6);
        assert!((sol[1] - 6.0).abs() < 1e-6);
    }

    #[test]
    fn minimization_with_ge_rows_needs_phase1() {
        // min 2x + 3y s.t. x + y ≥ 10, x ≥ 2, y ≥ 3 → x=7, y=3, obj 23.
        let mut m = Model::new();
        let x = m.add_var(2.0, f64::INFINITY, 2.0);
        let y = m.add_var(3.0, f64::INFINITY, 3.0);
        m.add_ge(vec![(x, 1.0), (y, 1.0)], 10.0);
        m.set_sense(Sense::Minimize);
        let sol = assert_optimal(&lp(&m), 23.0);
        assert!((sol[0] - 7.0).abs() < 1e-6);
    }

    #[test]
    fn range_row_binds_on_both_sides() {
        // max x + y s.t. 4 ≤ x + 2y ≤ 6, 0 ≤ x,y ≤ 3 → x=3, y=1.5, obj 4.5.
        let mut m = Model::new();
        let x = m.add_var(0.0, 3.0, 1.0);
        let y = m.add_var(0.0, 3.0, 1.0);
        m.add_range(vec![(x, 1.0), (y, 2.0)], 4.0, 6.0);
        m.set_sense(Sense::Maximize);
        assert_optimal(&lp(&m), 4.5);

        // min x + y over the same region → x=0, y=2, obj 2.
        let mut m2 = Model::new();
        let x = m2.add_var(0.0, 3.0, 1.0);
        let y = m2.add_var(0.0, 3.0, 1.0);
        m2.add_range(vec![(x, 1.0), (y, 2.0)], 4.0, 6.0);
        m2.set_sense(Sense::Minimize);
        assert_optimal(&lp(&m2), 2.0);
    }

    #[test]
    fn equality_constraint() {
        // min x − y s.t. x + y = 5, 0 ≤ x,y ≤ 4 → x=1, y=4, obj −3.
        let mut m = Model::new();
        let x = m.add_var(0.0, 4.0, 1.0);
        let y = m.add_var(0.0, 4.0, -1.0);
        m.add_eq(vec![(x, 1.0), (y, 1.0)], 5.0);
        m.set_sense(Sense::Minimize);
        let sol = assert_optimal(&lp(&m), -3.0);
        assert!((sol[1] - 4.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_system_detected() {
        // x + y ≤ 1 and x + y ≥ 3 with x,y ≥ 0.
        let mut m = Model::new();
        let x = m.add_var(0.0, f64::INFINITY, 0.0);
        let y = m.add_var(0.0, f64::INFINITY, 0.0);
        m.add_le(vec![(x, 1.0), (y, 1.0)], 1.0);
        m.add_ge(vec![(x, 1.0), (y, 1.0)], 3.0);
        assert_eq!(lp(&m), LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        // max x s.t. x ≥ 0 with a vacuous row keeping m ≥ 1.
        let mut m = Model::new();
        let x = m.add_var(0.0, f64::INFINITY, 1.0);
        let y = m.add_var(0.0, 1.0, 0.0);
        m.add_le(vec![(x, -1.0), (y, 1.0)], 5.0);
        m.set_sense(Sense::Maximize);
        assert_eq!(lp(&m), LpStatus::Unbounded);
    }

    #[test]
    fn no_rows_fast_path() {
        let mut m = Model::new();
        let _x = m.add_var(1.0, 2.0, 5.0);
        let _y = m.add_var(-1.0, 3.0, -2.0);
        m.set_sense(Sense::Maximize);
        // max 5x − 2y → x=2, y=−1 → 12.
        let sol = assert_optimal(&lp(&m), 12.0);
        assert_eq!(sol, vec![2.0, -1.0]);
    }

    #[test]
    fn no_rows_unbounded() {
        let mut m = Model::new();
        m.add_var(0.0, f64::INFINITY, 1.0);
        m.set_sense(Sense::Maximize);
        assert_eq!(lp(&m), LpStatus::Unbounded);
    }

    #[test]
    fn free_variable_enters_in_both_directions() {
        // min x s.t. x + y = 2, y ∈ [0, 1], x free → x = 1 at y = 1.
        let mut m = Model::new();
        let x = m.add_var(f64::NEG_INFINITY, f64::INFINITY, 1.0);
        let y = m.add_var(0.0, 1.0, 0.0);
        m.add_eq(vec![(x, 1.0), (y, 1.0)], 2.0);
        m.set_sense(Sense::Minimize);
        assert_optimal(&lp(&m), 1.0);

        // max x over the same region → x = 2 at y = 0.
        let mut m2 = Model::new();
        let x = m2.add_var(f64::NEG_INFINITY, f64::INFINITY, 1.0);
        let y = m2.add_var(0.0, 1.0, 0.0);
        m2.add_eq(vec![(x, 1.0), (y, 1.0)], 2.0);
        m2.set_sense(Sense::Maximize);
        assert_optimal(&lp(&m2), 2.0);
    }

    #[test]
    fn fractional_knapsack_relaxation() {
        // Classic fractional knapsack: items (value, weight):
        // (60, 10), (100, 20), (120, 30); capacity 50.
        // LP optimum takes items 1, 2 fully and 2/3 of item 3 → 240.
        let mut m = Model::new();
        let a = m.add_var(0.0, 1.0, 60.0);
        let b = m.add_var(0.0, 1.0, 100.0);
        let c = m.add_var(0.0, 1.0, 120.0);
        m.add_le(vec![(a, 10.0), (b, 20.0), (c, 30.0)], 50.0);
        m.set_sense(Sense::Maximize);
        let sol = assert_optimal(&lp(&m), 240.0);
        assert!((sol[2] - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn many_variables_few_rows_stress() {
        // max Σ v_i x_i s.t. Σ w_i x_i ≤ W, Σ x_i ≤ K, x ∈ [0,1]:
        // verify against a greedy-by-density fractional solution on a
        // deterministic instance.
        let n = 2000;
        let mut m = Model::new();
        let mut vars = Vec::new();
        for i in 0..n {
            let v = ((i * 37) % 101) as f64 + 1.0;
            vars.push((m.add_var(0.0, 1.0, v), v, ((i * 53) % 29) as f64 + 1.0));
        }
        let wrow: Vec<(crate::VarId, f64)> = vars.iter().map(|(id, _, w)| (*id, *w)).collect();
        let crow: Vec<(crate::VarId, f64)> = vars.iter().map(|(id, _, _)| (*id, 1.0)).collect();
        m.add_le(wrow, 400.0);
        m.add_le(crow, 60.0);
        m.set_sense(Sense::Maximize);
        match lp(&m) {
            LpStatus::Optimal { x, objective } => {
                assert!(objective > 0.0);
                // Primal feasibility of the reported solution.
                let w: f64 = x.iter().zip(&vars).map(|(xi, (_, _, wi))| xi * wi).sum();
                let c: f64 = x.iter().sum();
                assert!(w <= 400.0 + 1e-5, "weight {w}");
                assert!(c <= 60.0 + 1e-5, "count {c}");
                // At most 2 fractional values (m = 2 rows).
                let frac = x.iter().filter(|v| (*v - v.round()).abs() > 1e-6).count();
                assert!(frac <= 2, "{frac} fractional values");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn negative_costs_flip_to_upper_bounds() {
        // min −x − 2y with x,y ∈ [0,5] and x + y ≤ 7 → (2,5) or (5,2)?
        // −x − 2y minimized: prefer y=5 then x=2 → −12.
        let mut m = Model::new();
        let x = m.add_var(0.0, 5.0, -1.0);
        let y = m.add_var(0.0, 5.0, -2.0);
        m.add_le(vec![(x, 1.0), (y, 1.0)], 7.0);
        m.set_sense(Sense::Minimize);
        let sol = assert_optimal(&lp(&m), -12.0);
        assert!((sol[1] - 5.0).abs() < 1e-6);
    }

    #[test]
    fn iteration_limit_reported() {
        let mut m = Model::new();
        let x = m.add_var(0.0, f64::INFINITY, 2.0);
        let y = m.add_var(3.0, f64::INFINITY, 3.0);
        m.add_ge(vec![(x, 1.0), (y, 1.0)], 10.0);
        m.set_sense(Sense::Minimize);
        match presolve(&m) {
            Presolved::Ready(form, bounds) => {
                let r = solve_lp(
                    &form,
                    &bounds,
                    &LpOptions {
                        max_iterations: 0,
                        ..LpOptions::default()
                    },
                );
                assert_eq!(r.status, LpStatus::IterationLimit);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Solve `model` with and without flip batching; both runs must
    /// agree on the status and the iteration count.
    fn solve_both_ways(model: &Model) -> LpResult {
        let Presolved::Ready(form, bounds) = presolve(model) else {
            panic!("presolve proved the model infeasible");
        };
        let run = |flip_batching| {
            let opts = LpOptions {
                max_iterations: 100_000,
                flip_batching,
                ..LpOptions::default()
            };
            solve_lp(&form, &bounds, &opts)
        };
        let (batched, unbatched) = (run(true), run(false));
        assert_eq!(batched.status, unbatched.status);
        assert_eq!(batched.iterations, unbatched.iterations);
        batched
    }

    #[test]
    fn phase1_flip_into_tolerance_prices_again() {
        // min −x1 − x2 + x3 s.t. x1 + x2 + x3 ≥ 2 + 5e-8, x ∈ [0, 1].
        // Phase 1 flips x1 (the row stays below its bound), then x2,
        // which leaves the row 5e-8 short: within tolerance, so the
        // phase-1 costs change and the solver must price again — now in
        // phase 2, where nothing is profitable. Serving the stale pass
        // would flip x3 as well and then flip it back: 4 moves, not 2.
        let mut m = Model::new();
        let x1 = m.add_var(0.0, 1.0, -1.0);
        let x2 = m.add_var(0.0, 1.0, -1.0);
        let x3 = m.add_var(0.0, 1.0, 1.0);
        m.add_ge(vec![(x1, 1.0), (x2, 1.0), (x3, 1.0)], 2.0 + 5e-8);
        m.set_sense(Sense::Minimize);
        let r = solve_both_ways(&m);
        assert_eq!(r.iterations, 2);
        assert_eq!(assert_optimal(&r.status, -2.0), vec![1.0, 1.0, 0.0]);
    }

    /// The variables at their upper bound after `moves` moves.
    fn flipped_after(
        form: &StandardForm,
        bounds: &VarBounds,
        batching: bool,
        moves: u64,
    ) -> Vec<usize> {
        let opts = LpOptions {
            flip_batching: batching,
            ..LpOptions::default()
        };
        let mut s = Simplex::new(form, bounds, &opts);
        assert_eq!(s.solve(moves), LpStatus::IterationLimit);
        (0..form.n)
            .filter(|&j| s.status[j] == Status::AtUpper)
            .collect()
    }

    #[test]
    fn stall_limit_mid_batch_switches_to_bland_on_the_same_move() {
        // One row Σ a_j x_j ≥ 1 with x_j ∈ [0, 1e-6] and a_j rising with
        // j. Every move is a phase-1 flip that cuts the violation by
        // a_j · 1e-6 ≈ 1e-11, below the stall threshold, and no flip
        // changes the row's class, so one pass could serve them all.
        // Dantzig flips the highest index first; the first move sets the
        // baseline and the next STALL_LIMIT moves stall, after which
        // Bland's rule must take over and flip index 0.
        let n = 400;
        let form = StandardForm {
            n,
            m: 1,
            cols: (0..n)
                .map(|j| vec![(0, 1e-5 * (1.0 + j as f64 / 1000.0))])
                .collect(),
            obj_min: vec![0.0; n],
            row_lo: vec![1.0],
            row_hi: vec![f64::INFINITY],
            obj_factor: 1.0,
            integer: vec![false; n],
        };
        let bounds = VarBounds {
            lb: vec![0.0; n],
            ub: vec![1e-6; n],
        };
        let switch = u64::from(STALL_LIMIT) + 2;
        for moves in switch - 2..=switch + 1 {
            assert_eq!(
                flipped_after(&form, &bounds, true, moves),
                flipped_after(&form, &bounds, false, moves),
                "after {moves} moves"
            );
        }
        let dantzig_only = flipped_after(&form, &bounds, true, switch - 1);
        assert_eq!(
            dantzig_only,
            (n + 1 - switch as usize..n).collect::<Vec<_>>()
        );
        let with_bland = flipped_after(&form, &bounds, true, switch);
        assert_eq!(with_bland[0], 0, "move {switch} follows Bland's rule");
        assert_eq!(with_bland.len(), switch as usize);
    }
}
