//! Bounded-variable revised simplex: a dual simplex with a
//! bound-flipping ratio test in front of a primal simplex.
//!
//! Solves `min c·x` subject to `L ≤ Ax ≤ U` (range rows) and `l ≤ x ≤ u`
//! (variable bounds). Internally each row `i` gets a *logical* variable
//! `s_i` with bounds `[L_i, U_i]` and the system becomes `Ax − s = 0`,
//! so the basis is always `m × m` where `m` is the number of rows —
//! tiny for package-query ILPs — while pricing streams over all `n`
//! structural columns.
//!
//! **Which loop runs is decided by the input.**
//! * *Dual start.* When every structural's cost-preferred bound is
//!   finite (lower if `c_j ≥ 0`, upper otherwise), the solve starts from
//!   the slack basis with every structural at that bound. The basis is
//!   then dual feasible, and the dual simplex runs. Every package query
//!   with a `REPEAT` limit is of this kind: its variables are boxed.
//! * *Warm start.* [`solve_lp_from`] loads the final [`Basis`] of an
//!   earlier solve of the same form under looser bounds. That basis is
//!   optimal there, so it is dual feasible here and the dual simplex runs
//!   from it. This is how branch-and-bound solves a child node: only a
//!   bound of one basic variable changed.
//! * Otherwise — some cost-preferred bound is infinite — the primal
//!   simplex runs from the slack basis on its own.
//!
//! **Dual iteration.** The leaving row is the basic variable with the
//! largest bound violation (lowest slot on ties). The pivot row
//! `α = ρA` with `ρ = e_r B⁻¹` and the reduced costs `d = c − yA` come
//! from one pass each over the row-major matrix
//! ([`StandardForm::row_combination`]). The *bound-flipping ratio test*
//! (Fourer 1994; Koberstein 2005) then keeps the breakpoints
//! `|d_j| / |α_j|` in a heap — ties to the larger `|α_j|`, then the
//! lower index — and pops them while the dual objective's slope (the
//! remaining violation of the leaving row) stays positive. Each popped
//! breakpoint but the last flips its variable to the opposite bound;
//! the flips are applied as one combined update, and the last breakpoint
//! pivots in. One such iteration moves every profitable variable at
//! once: a one-row cardinality LP ("take the best k of n") takes one.
//! When no breakpoint is left while the slope is still positive, the
//! leaving row cannot reach its bound and the LP is infeasible; the rows
//! with `ρ_k ≠ 0` — the support of that dual ray — are the diagnostic.
//!
//! **Iteration accounting.** [`LpResult::iterations`] counts one per
//! primal move (a pivot or a bound flip) and one per dual iteration,
//! whatever number of bound flips that iteration carries.
//!
//! **The primal loop** certifies every dual result: after a fresh
//! refactorization it runs one pricing pass, which finds nothing to do
//! unless rounding left the dual point slightly off. It also takes over
//! when the dual stalls or meets a pivot too small to trust, and it is
//! the only loop for LPs whose cost-preferred bound is infinite.
//!
//! Primal loop implementation notes:
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
    /// Simplex iterations consumed: one per primal move (a pivot or a
    /// bound flip) and one per dual iteration, however many bound flips
    /// its ratio test passes. The certifying pricing pass that finds
    /// nothing to do counts none.
    pub iterations: u64,
    /// On [`LpStatus::Infeasible`]: the rows that prove it — a
    /// lightweight stand-in for a CPLEX irreducible-infeasible-set
    /// report (the paper's §4.4 strategy 3 uses exactly this kind of
    /// diagnostic to decide which partitioning attributes to drop). When
    /// the dual simplex proves infeasibility these are the rows of its
    /// dual ray (`ρ_k ≠ 0`); when the primal phase 1 does, the rows
    /// whose activity lies outside their bounds at the phase-1 optimum.
    /// Empty otherwise.
    pub violated_rows: Vec<u32>,
    /// On [`LpStatus::Optimal`] with at least one row: the final basis,
    /// to warm-start a solve under tighter bounds ([`solve_lp_from`]).
    pub basis: Option<Basis>,
}

/// A final simplex basis in compact form: one position byte per
/// variable (structural then logical) and the basic variable of each row
/// slot. Branch-and-bound keeps an optimal node's basis and starts both
/// of its children from it.
#[derive(Debug, Clone, PartialEq)]
pub struct Basis {
    /// Per variable: `AT_LOWER`, `AT_UPPER`, `FREE` or `BASIC`.
    at: Vec<u8>,
    /// Per row slot: the basic variable.
    basic: Vec<u32>,
}

const AT_LOWER: u8 = 0;
const AT_UPPER: u8 = 1;
const FREE: u8 = 2;
const BASIC: u8 = 3;

impl Basis {
    /// Bytes the basis holds: one per variable and four per row.
    pub fn bytes(&self) -> usize {
        self.at.len() + 4 * self.basic.len()
    }
}

/// Knobs for one LP solve.
#[derive(Debug, Clone)]
pub struct LpOptions {
    /// Iteration budget (pivots + flips).
    pub max_iterations: u64,
    /// Pivots between full basis refactorizations.
    pub refactor_interval: u32,
    /// Serve consecutive bound flips of the primal loop from one pricing
    /// pass, in phase 1 as well as phase 2. `false` prices again after
    /// every flip (ablation switch; see
    /// [`crate::SolverConfig::flip_batching`]).
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

/// Smallest `|α_j|` the dual ratio test pivots on. Smaller entries of
/// the pivot row are left out of the breakpoints; the infeasibility
/// proof accounts for them.
const PIVOT_TOL: f64 = 1e-9;

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
    /// Set when the dual simplex proves infeasibility: the rows of its
    /// dual ray.
    ray_rows: Option<Vec<u32>>,
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
            ray_rows: None,
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

    /// The current basis in compact form.
    fn basis(&self) -> Basis {
        let at = self
            .status
            .iter()
            .map(|st| match st {
                Status::AtLower => AT_LOWER,
                Status::AtUpper => AT_UPPER,
                Status::Free => FREE,
                Status::Basic(_) => BASIC,
            })
            .collect();
        let basic = self.basis.iter().map(|&v| v as u32).collect();
        Basis { at, basic }
    }

    /// Load `warm` under this solve's bounds and refactorize. Returns
    /// `false` when the basis does not fit the form, places a variable
    /// at an infinite bound, or is singular; `self` is then unusable and
    /// the caller starts again from the slack basis.
    fn load(&mut self, warm: &Basis) -> bool {
        let basic_count = warm.at.iter().filter(|&&at| at == BASIC).count();
        if warm.at.len() != self.n_total || warm.basic.len() != self.m || basic_count != self.m {
            return false;
        }
        for j in 0..self.n_total {
            let (l, u) = (self.lb[j], self.ub[j]);
            let (status, x) = match warm.at[j] {
                AT_LOWER if l.is_finite() => (Status::AtLower, l),
                AT_UPPER if u.is_finite() => (Status::AtUpper, u),
                FREE if !l.is_finite() && !u.is_finite() => (Status::Free, 0.0),
                // A placeholder until the slot loop below claims it.
                BASIC => (Status::Free, 0.0),
                _ => return false,
            };
            self.status[j] = status;
            self.xn[j] = x;
        }
        for (slot, &var) in warm.basic.iter().enumerate() {
            let var = var as usize;
            if warm.at.get(var) != Some(&BASIC) || matches!(self.status[var], Status::Basic(_)) {
                return false;
            }
            self.status[var] = Status::Basic(slot as u32);
            self.basis[slot] = var;
        }
        if !self.refactor() {
            return false;
        }
        self.recompute_xb();
        true
    }

    /// The dual start of a cold solve: every structural at the bound its
    /// cost prefers (lower if `c_j ≥ 0`, upper otherwise), which makes
    /// the slack basis dual feasible. Returns `false`, changing nothing,
    /// when one of those bounds is infinite.
    fn cost_preferred_start(&mut self) -> bool {
        let n = self.form.n;
        let bound = |s: &Self, j: usize| {
            if s.cost[j] >= 0.0 {
                (Status::AtLower, s.lb[j])
            } else {
                (Status::AtUpper, s.ub[j])
            }
        };
        if (0..n).any(|j| !bound(self, j).1.is_finite()) {
            return false;
        }
        for j in 0..n {
            (self.status[j], self.xn[j]) = bound(self, j);
        }
        self.recompute_xb();
        true
    }

    /// The dual simplex's leaving row: the basic variable with the
    /// largest bound violation, lowest slot on ties. Returns its slot,
    /// whether it leaves to its upper bound, and the violation.
    fn leaving_row(&self) -> Option<(usize, bool, f64)> {
        let mut best: Option<(usize, bool, f64)> = None;
        for slot in 0..self.m {
            let (side, violation) = self.slot_violation(slot);
            if side != 0.0 && best.is_none_or(|(_, _, v)| violation > v) {
                best = Some((slot, side > 0.0, violation));
            }
        }
        best
    }

    /// Dual simplex with the bound-flipping ratio test, from a dual
    /// feasible basis. Returns the status when it settles the LP
    /// (infeasible, or out of iterations), or `None` to hand over to
    /// [`Simplex::primal`]: after reaching primal feasibility on fresh
    /// numbers, or when the dual stalls or meets a pivot too small to
    /// trust.
    fn dual(&mut self, max_iterations: u64) -> Option<LpStatus> {
        let (n, m) = (self.form.n, self.m);
        let mut d = Vec::with_capacity(n);
        let mut alpha = Vec::with_capacity(n);
        let mut breakpoints = Vec::new();
        let mut flips: Vec<usize> = Vec::new();
        let mut fresh = true;
        let mut best_obj = f64::NEG_INFINITY;
        let mut stall = 0u32;
        loop {
            let Some((r, leaves_upper, violation)) = self.leaving_row() else {
                if fresh {
                    return None;
                }
                // Confirm primal feasibility on fresh numbers.
                if !self.refactor() {
                    return Some(LpStatus::IterationLimit);
                }
                self.recompute_xb();
                fresh = true;
                continue;
            };
            if self.iterations >= max_iterations {
                return Some(LpStatus::IterationLimit);
            }
            if stall >= STALL_LIMIT {
                return None;
            }

            // Reduced costs d = c − yA and pivot row α = ρA; a logical
            // column is −e_i, so its entries are y_i and −ρ_i.
            let cb: Vec<f64> = self.basis.iter().map(|&v| self.cost[v]).collect();
            let y = self.duals(&cb);
            self.form.row_combination(&y, &mut d);
            for (dj, cj) in d.iter_mut().zip(&self.cost) {
                *dj = cj - *dj;
            }
            d.extend_from_slice(&y);
            let rho = self.binv[r * m..(r + 1) * m].to_vec();
            self.form.row_combination(&rho, &mut alpha);
            alpha.extend(rho.iter().map(|v| -v));

            // Breakpoints: nonbasic variables whose move toward their
            // other bound pushes the leaving row toward its bound. The
            // row's value changes by −α_j per unit of x_j.
            let toward = if leaves_upper { 1.0 } else { -1.0 };
            breakpoints.clear();
            let mut unpivoted = 0.0;
            for j in 0..self.n_total {
                let a = alpha[j];
                let at_lower = match self.status[j] {
                    Status::AtLower => true,
                    Status::AtUpper => false,
                    Status::Free | Status::Basic(_) => continue,
                };
                let range = self.ub[j] - self.lb[j];
                if a == 0.0 || range < EPS || (toward * a > 0.0) != at_lower {
                    continue;
                }
                if a.abs() < PIVOT_TOL {
                    unpivoted += a.abs() * range;
                    continue;
                }
                // A reduced cost of the wrong sign (within tolerance)
                // breaks at once.
                let ratio = if (d[j] >= 0.0) == at_lower {
                    d[j].abs() / a.abs()
                } else {
                    0.0
                };
                breakpoints.push((
                    Reverse(ratio.to_bits()),
                    a.abs().to_bits(),
                    Reverse(j as u32),
                ));
            }
            let mut heap = BinaryHeap::from(std::mem::take(&mut breakpoints));

            // Pass breakpoints while the slope stays positive.
            let mut slope = violation;
            let mut entering = None;
            flips.clear();
            while let Some((_, _, Reverse(j))) = heap.pop() {
                let j = j as usize;
                let after = slope - alpha[j].abs() * (self.ub[j] - self.lb[j]);
                if after > 0.0 {
                    flips.push(j);
                    slope = after;
                } else {
                    entering = Some(j);
                    break;
                }
            }
            breakpoints = heap.into_vec();
            self.iterations += 1;

            let Some(q) = entering else {
                if slope - unpivoted > self.ftol(self.basis[r]) {
                    // Even with every breakpoint flipped the leaving row
                    // stays off its bound: ρ is a dual ray.
                    let scale = rho.iter().fold(0.0_f64, |a, v| a.max(v.abs()));
                    let rows = (0..m as u32).filter(|&k| rho[k as usize].abs() > 1e-12 * scale);
                    self.ray_rows = Some(rows.collect());
                    return Some(LpStatus::Infeasible);
                }
                return None;
            };
            let w = self.ftran(q);
            if w[r].abs() < PIVOT_TOL {
                return None;
            }

            // The passed breakpoints flip as one update of x_B.
            if !flips.is_empty() {
                let mut moved = vec![0.0; m];
                for &j in &flips {
                    let (status, x) = match self.status[j] {
                        Status::AtLower => (Status::AtUpper, self.ub[j]),
                        _ => (Status::AtLower, self.lb[j]),
                    };
                    let step = x - self.xn[j];
                    for (row, coef) in self.col(j) {
                        moved[row as usize] += coef * step;
                    }
                    self.status[j] = status;
                    self.xn[j] = x;
                }
                for i in 0..m {
                    let mut v = 0.0;
                    for k in 0..m {
                        v += self.binv[i * m + k] * moved[k];
                    }
                    self.xb[i] -= v;
                }
            }

            // The entering variable moves the leaving row onto its bound.
            let leaving = self.basis[r];
            let target = if leaves_upper {
                self.ub[leaving]
            } else {
                self.lb[leaving]
            };
            let step = (self.xb[r] - target) / w[r];
            let dir = if step >= 0.0 { 1.0 } else { -1.0 };
            if (dir > 0.0) != (self.status[q] == Status::AtLower) && step.abs() > EPS {
                // Rounding turned the step against the entering
                // variable's bound; let the primal loop sort it out.
                return None;
            }
            if !self.apply_pivot(q, dir, step.abs(), &w, r, leaves_upper) {
                return Some(LpStatus::IterationLimit);
            }
            fresh = self.pivots_since_refactor == 0;

            let obj = self.current_objective();
            if obj > best_obj + 1e-10 * 1.0_f64.max(obj.abs()) {
                best_obj = obj;
                stall = 0;
            } else {
                stall += 1;
            }
        }
    }

    /// The primal simplex, phase 1 then phase 2, from the current basis.
    fn primal(&mut self, max_iterations: u64) -> LpStatus {
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
    solve_lp_from(form, bounds, opts, None)
}

/// [`solve_lp`], warm-started from `warm`: the final basis of an earlier
/// solve of `form` under bounds that contain `bounds`. The basis is
/// loaded under `bounds`, refactorized and handed to the dual simplex;
/// a basis that does not load (singular, or a variable at a bound that
/// is now infinite) falls back to the cold start.
pub fn solve_lp_from(
    form: &StandardForm,
    bounds: &VarBounds,
    opts: &LpOptions,
    warm: Option<&Basis>,
) -> LpResult {
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
                        basis: None,
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
                        basis: None,
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
            basis: None,
        };
    }

    let mut s = Simplex::new(form, bounds, opts);
    let dual = match warm {
        Some(basis) if s.load(basis) => !s.status.contains(&Status::Free),
        _ => {
            if warm.is_some() {
                s = Simplex::new(form, bounds, opts);
            }
            s.cost_preferred_start()
        }
    };
    let settled = if dual {
        s.dual(opts.max_iterations)
    } else {
        None
    };
    let status = settled.unwrap_or_else(|| s.primal(opts.max_iterations));
    let violated_rows = if status == LpStatus::Infeasible {
        s.ray_rows.take().unwrap_or_else(|| s.violated_rows())
    } else {
        vec![]
    };
    let basis = matches!(status, LpStatus::Optimal { .. }).then(|| s.basis());
    LpResult {
        status,
        iterations: s.iterations,
        violated_rows,
        basis,
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

    #[test]
    fn dual_ray_names_only_the_contradicting_rows() {
        // Row 0 is violated at the start but feasible; rows 1 and 2
        // contradict each other. The dual fixes row 0 (its violation is
        // the largest), then row 1, and then finds no breakpoint for
        // row 2: its ray combines rows 1 and 2 only.
        let mut m = Model::new();
        let v: Vec<_> = (0..4).map(|_| m.add_var(0.0, 1.0, 0.0)).collect();
        m.add_ge(vec![(v[2], 1.0), (v[3], 1.0)], 1.8);
        m.add_ge(vec![(v[0], 1.0), (v[1], 1.0)], 1.5);
        m.add_le(vec![(v[0], 1.0), (v[1], 1.0)], 1.0);
        let Presolved::Ready(form, bounds) = presolve(&m) else {
            panic!("presolve cannot see the contradiction");
        };
        let r = solve_lp(&form, &bounds, &LpOptions::default());
        assert_eq!(r.status, LpStatus::Infeasible);
        assert_eq!(r.violated_rows, vec![1, 2]);
        assert_eq!(r.iterations, 3);
    }

    #[test]
    fn warm_basis_reaches_the_cold_optimum_under_tighter_bounds() {
        // max Σ v_j x_j, Σ x_j ≤ 2.5, x ∈ [0, 1]: the LP takes the two
        // best and half of the third. Tightening that one's upper bound
        // to 0 is a branch-and-bound child; its warm solve must match a
        // cold one.
        let mut m = Model::new();
        let v: Vec<_> = [5.0, 4.0, 3.0, 2.0]
            .iter()
            .map(|&c| m.add_var(0.0, 1.0, c))
            .collect();
        m.add_le(v.iter().map(|&x| (x, 1.0)).collect(), 2.5);
        m.add_le(vec![(v[0], 1.0), (v[3], 1.0)], 5.0);
        m.set_sense(Sense::Maximize);
        let Presolved::Ready(form, mut bounds) = presolve(&m) else {
            panic!("feasible model");
        };
        let opts = LpOptions::default();
        let parent = solve_lp(&form, &bounds, &opts);
        assert_eq!(assert_optimal(&parent.status, 10.5)[2], 0.5);
        let basis = parent.basis.expect("an optimum keeps its basis");
        assert_eq!(basis.bytes(), (4 + 2) + 4 * 2);
        bounds.ub[2] = 0.0;
        let warm = solve_lp_from(&form, &bounds, &opts, Some(&basis));
        let cold = solve_lp(&form, &bounds, &opts);
        assert_eq!(assert_optimal(&warm.status, 10.0), vec![1.0, 1.0, 0.0, 0.5]);
        assert_eq!(warm.status, cold.status);
        assert_eq!(warm.iterations, 1);
    }

    /// Run the primal loop alone on `model` from the slack basis, with
    /// and without flip batching; both runs must agree on the status and
    /// the iteration count. Returns the status and the count.
    fn primal_both_ways(model: &Model) -> (LpStatus, u64) {
        let Presolved::Ready(form, bounds) = presolve(model) else {
            panic!("presolve proved the model infeasible");
        };
        let run = |flip_batching| {
            let opts = LpOptions {
                flip_batching,
                ..LpOptions::default()
            };
            let mut s = Simplex::new(&form, &bounds, &opts);
            (s.primal(100_000), s.iterations)
        };
        let (batched, unbatched) = (run(true), run(false));
        assert_eq!(batched, unbatched);
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
        let (status, iterations) = primal_both_ways(&m);
        assert_eq!(iterations, 2);
        assert_eq!(assert_optimal(&status, -2.0), vec![1.0, 1.0, 0.0]);
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
        assert_eq!(s.primal(moves), LpStatus::IterationLimit);
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
        let coef = |j: usize| 1e-5 * (1.0 + j as f64 / 1000.0);
        let form = StandardForm {
            n,
            m: 1,
            cols: (0..n).map(|j| vec![(0, coef(j))]).collect(),
            rows: vec![(0..n).map(|j| (j as u32, coef(j))).collect()],
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
