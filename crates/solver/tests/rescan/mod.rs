//! The simplex pricing loop as it was before pricing moved to per
//! dual vector: a full pricing scan after every move, and in phase 1 a
//! fresh set of phase-1 costs and duals after every bound flip.
//!
//! Kept only as the reference the property tests compare the solver
//! against: its status, solution bits and iteration counts where the
//! solver runs its primal loop alone, its status and objective where the
//! solver starts with the dual simplex. The rest of this file (ratio
//! test, pivot, refactorization) is the same arithmetic as the solver's
//! primal loop, so any difference on the primal path comes from the
//! pricing.

// Dense numeric kernels: indexed loops mirror the textbook algebra and
// often touch several parallel arrays at once.
#![allow(clippy::needless_range_loop)]
#![allow(clippy::while_let_loop)]

use paq_solver::presolve::{StandardForm, VarBounds};
use paq_solver::simplex::{LpOptions, LpStatus};
use paq_solver::EPS;

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
    refactor_interval: u32,
    flip_batching: bool,
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
            refactor_interval: opts.refactor_interval.max(1),
            flip_batching: opts.flip_batching,
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

    /// Phase-1 costs: ±1 on out-of-bounds basic variables. Returns the
    /// total violation (0 ⇒ primal feasible).
    fn infeasibility(&self) -> (f64, Vec<f64>) {
        let mut c = vec![0.0; self.m];
        let mut total = 0.0;
        for (slot, &var) in self.basis.iter().enumerate() {
            let x = self.xb[slot];
            let tol = self.ftol(var);
            if x < self.lb[var] - tol {
                c[slot] = -1.0;
                total += self.lb[var] - x;
            } else if x > self.ub[var] + tol {
                c[slot] = 1.0;
                total += x - self.ub[var];
            }
        }
        (total, c)
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

    /// Entering-candidate scan. Returns `(j, dir)` with `dir = +1`
    /// (increase from lower / free) or `−1` (decrease from upper / free).
    fn price(&self, y: &[f64], phase2: bool, bland: bool) -> Option<(usize, f64)> {
        let tol = EPS * 10.0;
        let mut best: Option<(usize, f64, f64)> = None; // (j, score, dir)
        for j in 0..self.n_total {
            let (can_up, can_down) = match self.status[j] {
                Status::Basic(_) => continue,
                Status::AtLower => (true, false),
                Status::AtUpper => (false, true),
                Status::Free => (true, true),
            };
            // Fixed variables can never move.
            if self.ub[j] - self.lb[j] < EPS && self.lb[j].is_finite() {
                continue;
            }
            let d = self.reduced_cost(j, y, phase2);
            let (score, dir) = if can_up && d < -tol {
                (-d, 1.0)
            } else if can_down && d > tol {
                (d, -1.0)
            } else {
                continue;
            };
            if bland {
                // Bland's rule: first (smallest-index) eligible variable.
                return Some((j, dir));
            }
            if best.is_none_or(|(_, s, _)| score > s) {
                best = Some((j, score, dir));
            }
        }
        best.map(|(j, _, dir)| (j, dir))
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

    fn solve(&mut self, max_iterations: u64) -> LpStatus {
        let mut last_obj = f64::INFINITY;
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

            // --- pricing (with flip batching: reuse `y` across flips) ---
            let mut progressed = false;
            loop {
                let Some((q, dir)) = self.price(&y, phase2, bland) else {
                    break;
                };
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
                match blocker {
                    None => {
                        // Bound flip: basis (and duals) unchanged — keep
                        // using the same y for the next candidate.
                        self.apply_flip(q, dir, t, &w);
                        progressed = true;
                        if self.iterations >= max_iterations {
                            return LpStatus::IterationLimit;
                        }
                        if !phase2 || !self.flip_batching {
                            // Phase 1: violations may have changed sign
                            // structure — recompute costs. Ablation:
                            // without batching, re-price from scratch
                            // after every flip.
                            break;
                        }
                        continue;
                    }
                    Some((slot, leaves_upper)) => {
                        if !self.apply_pivot(q, dir, t, &w, slot, leaves_upper) {
                            // Singular basis after pivot: refactor failed.
                            return LpStatus::IterationLimit;
                        }
                        progressed = true;
                        break;
                    }
                }
            }

            if !progressed {
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
                    return if phase2 {
                        // We were in phase 2 on stale numbers; loop again
                        // to run phase 1 on fresh ones.
                        continue;
                    } else {
                        LpStatus::Infeasible
                    };
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
            }

            // Stall detection for Bland fallback.
            let obj = if phase2 {
                self.current_objective()
            } else {
                self.infeasibility().0
            };
            if obj < last_obj - 1e-10 {
                self.stall = 0;
            } else {
                self.stall += 1;
            }
            last_obj = obj;
        }
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

/// Solve with the re-scan loop; `form` must have at least one row.
/// Returns the status and the iteration count.
pub fn solve(form: &StandardForm, bounds: &VarBounds, opts: &LpOptions) -> (LpStatus, u64) {
    assert!(form.m > 0, "the reference covers the simplex path only");
    let mut s = Simplex::new(form, bounds, opts);
    let status = s.solve(opts.max_iterations);
    (status, s.iterations)
}
