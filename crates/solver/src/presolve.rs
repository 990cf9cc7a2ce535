//! Model standardization and lightweight presolve.
//!
//! Converts a [`Model`] into the internal standard form used by the
//! simplex core: structural columns over *range rows* `L ≤ a·x ≤ U`,
//! with all single-variable rows folded into variable bounds. That fold
//! matters for package queries: the SKETCH query of §4.2.1 adds one
//! group-cardinality constraint *per group* (`COUNT(p_S WHERE gid=j) ≤
//! |G_j|`), but each such row touches exactly one representative
//! variable, so presolve turns them all into variable bounds and the
//! simplex basis stays as small as the number of true global predicates.

use crate::model::Model;

/// The standardized LP data shared by the simplex and branch-and-bound.
#[derive(Debug, Clone)]
pub struct StandardForm {
    /// Number of structural variables (== model variables).
    pub n: usize,
    /// Number of retained (multi-variable) rows.
    pub m: usize,
    /// Sparse structural columns: `cols[j]` lists `(row, coefficient)`.
    pub cols: Vec<Vec<(u32, f64)>>,
    /// The same matrix row-major: `rows[i]` lists `(variable,
    /// coefficient)` by variable. Feeds [`StandardForm::row_combination`].
    pub rows: Vec<Vec<(u32, f64)>>,
    /// Objective in *minimization* form (model objective × sense factor).
    pub obj_min: Vec<f64>,
    /// Row lower bounds.
    pub row_lo: Vec<f64>,
    /// Row upper bounds.
    pub row_hi: Vec<f64>,
    /// `Sense::min_factor()` of the original model: internal objective
    /// = factor × model objective.
    pub obj_factor: f64,
    /// Per-variable integrality flags (used by branch-and-bound).
    pub integer: Vec<bool>,
}

impl StandardForm {
    /// Convert an internal minimization objective value back to the
    /// model's sense.
    pub fn model_objective(&self, internal: f64) -> f64 {
        internal * self.obj_factor
    }

    /// `out = vA` over the structural columns: `out[j] = Σ_i v_i a_ij`,
    /// one pass over the rows whose `v_i` is nonzero. The dual simplex
    /// prices its reduced costs (`v = y`) and its pivot row (`v = ρ`)
    /// through this one kernel.
    pub fn row_combination(&self, v: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.n, 0.0);
        for (row, &vi) in self.rows.iter().zip(v) {
            if vi == 0.0 {
                continue;
            }
            for &(j, a) in row {
                out[j as usize] += vi * a;
            }
        }
    }
}

/// Variable bounds, mutable during branch-and-bound.
#[derive(Debug, Clone)]
pub struct VarBounds {
    /// Lower bounds, one per structural variable.
    pub lb: Vec<f64>,
    /// Upper bounds, one per structural variable.
    pub ub: Vec<f64>,
}

/// Result of presolving a model.
#[derive(Debug)]
pub enum Presolved {
    /// The model is trivially infeasible (contradictory bounds or an
    /// unsatisfiable constant row).
    Infeasible,
    /// Standardized form plus initial bounds.
    Ready(Box<StandardForm>, VarBounds),
}

/// Standardize `model`: merge duplicate terms, fold singleton rows into
/// bounds, round integer bounds inward, drop constant rows.
pub fn presolve(model: &Model) -> Presolved {
    presolve_opts(model, true)
}

/// [`presolve`] with the singleton-folding ablation switch
/// ([`crate::SolverConfig::fold_singletons`]): with `fold_singletons =
/// false` single-variable rows stay in the row set and enlarge the
/// simplex basis — the configuration the ablation benchmark measures.
pub fn presolve_opts(model: &Model, fold_singletons: bool) -> Presolved {
    let n = model.num_vars();
    let mut lb: Vec<f64> = model.vars().iter().map(|v| v.lb).collect();
    let mut ub: Vec<f64> = model.vars().iter().map(|v| v.ub).collect();
    let integer: Vec<bool> = model.vars().iter().map(|v| v.integer).collect();

    #[allow(clippy::type_complexity)] // sparse range row: (terms, lo, hi)
    let mut rows: Vec<(Vec<(u32, f64)>, f64, f64)> = Vec::new();
    for c in model.constraints() {
        // Stable sort by variable, then fold each run of duplicates in
        // input order: the same sums, added in the same order, as
        // accumulating per variable.
        let mut terms: Vec<(u32, f64)> = c
            .terms
            .iter()
            .filter(|(_, coef)| *coef != 0.0)
            .map(|(v, coef)| (v.0, *coef))
            .collect();
        terms.sort_by_key(|&(v, _)| v);
        terms.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.1 += next.1;
            }
            same
        });
        terms.retain(|&(_, coef)| coef != 0.0);
        match terms.len() {
            0 => {
                // Constant row: 0 must lie within [lo, hi].
                if c.lo > 0.0 || c.hi < 0.0 {
                    return Presolved::Infeasible;
                }
            }
            1 if fold_singletons => {
                let (v, a) = terms[0];
                let (vlo, vhi) = if a > 0.0 {
                    (c.lo / a, c.hi / a)
                } else {
                    (c.hi / a, c.lo / a)
                };
                let j = v as usize;
                lb[j] = lb[j].max(vlo);
                ub[j] = ub[j].min(vhi);
            }
            _ => rows.push((terms, c.lo, c.hi)),
        }
    }

    // Round integer bounds inward (a fractional bound can never bind an
    // integer variable), with a tolerance so e.g. ub = 2.9999999 stays 3.
    for j in 0..n {
        if integer[j] {
            if lb[j].is_finite() {
                lb[j] = (lb[j] - crate::INT_EPS).ceil();
            }
            if ub[j].is_finite() {
                ub[j] = (ub[j] + crate::INT_EPS).floor();
            }
        }
        if lb[j] > ub[j] + crate::EPS {
            return Presolved::Infeasible;
        }
        // Snap near-equal bounds exactly together to avoid tolerance
        // churn inside the simplex.
        if lb[j] > ub[j] {
            ub[j] = lb[j];
        }
    }

    let m = rows.len();
    let mut cols: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
    let mut row_terms = Vec::with_capacity(m);
    let mut row_lo = Vec::with_capacity(m);
    let mut row_hi = Vec::with_capacity(m);
    for (i, (terms, lo, hi)) in rows.into_iter().enumerate() {
        for &(v, coef) in &terms {
            cols[v as usize].push((i as u32, coef));
        }
        row_terms.push(terms);
        row_lo.push(lo);
        row_hi.push(hi);
    }

    let factor = model.sense().min_factor();
    let obj_min: Vec<f64> = model.vars().iter().map(|v| v.obj * factor).collect();

    Presolved::Ready(
        Box::new(StandardForm {
            n,
            m,
            cols,
            rows: row_terms,
            obj_min,
            row_lo,
            row_hi,
            obj_factor: factor,
            integer,
        }),
        VarBounds { lb, ub },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Sense};

    #[test]
    fn singleton_rows_become_bounds() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 100.0, 1.0);
        let y = m.add_var(0.0, 100.0, 1.0);
        m.add_range(vec![(x, 2.0)], 4.0, 10.0); // → x ∈ [2, 5]
        m.add_le(vec![(x, 1.0), (y, 1.0)], 50.0); // kept
        match presolve(&m) {
            Presolved::Ready(form, bounds) => {
                assert_eq!(form.m, 1, "only the two-variable row remains");
                assert_eq!(bounds.lb[0], 2.0);
                assert_eq!(bounds.ub[0], 5.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn negative_coefficient_singleton_swaps_bounds() {
        let mut m = Model::new();
        let x = m.add_var(-100.0, 100.0, 0.0);
        m.add_range(vec![(x, -1.0)], -5.0, 3.0); // −5 ≤ −x ≤ 3 → x ∈ [−3, 5]
        match presolve(&m) {
            Presolved::Ready(_, b) => {
                assert_eq!(b.lb[0], -3.0);
                assert_eq!(b.ub[0], 5.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn contradictory_singleton_is_infeasible() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0, 0.0);
        m.add_ge(vec![(x, 1.0)], 5.0);
        assert!(matches!(presolve(&m), Presolved::Infeasible));
    }

    #[test]
    fn constant_row_checked() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0, 0.0);
        m.add_range(vec![(x, 0.0)], 1.0, 2.0); // 0 ∉ [1,2]
        assert!(matches!(presolve(&m), Presolved::Infeasible));

        let mut ok = Model::new();
        let y = ok.add_var(0.0, 1.0, 0.0);
        ok.add_range(vec![(y, 0.0)], -1.0, 2.0); // 0 ∈ [−1,2] → dropped
        assert!(matches!(presolve(&ok), Presolved::Ready(f, _) if f.m == 0));
    }

    #[test]
    fn duplicate_terms_are_merged() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 10.0, 0.0);
        let y = m.add_var(0.0, 10.0, 0.0);
        // x + x + y ≤ 6 → 2x + y ≤ 6
        m.add_le(vec![(x, 1.0), (x, 1.0), (y, 1.0)], 6.0);
        match presolve(&m) {
            Presolved::Ready(form, _) => {
                assert_eq!(form.cols[0], vec![(0, 2.0)]);
                assert_eq!(form.cols[1], vec![(0, 1.0)]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn merging_sorts_folds_duplicates_in_input_order_and_drops_zeros() {
        let mut m = Model::new();
        let v: Vec<_> = (0..4).map(|_| m.add_var(0.0, 10.0, 0.0)).collect();
        // Unsorted, with a zero coefficient (v1), a duplicate that
        // cancels (v2) and a three-way duplicate (v3) whose sum depends
        // on the order of addition.
        let (a, b, c) = (0.1, 0.2, 0.3);
        m.add_le(
            vec![
                (v[3], a),
                (v[2], 1.5),
                (v[1], 0.0),
                (v[0], 2.0),
                (v[3], b),
                (v[2], -1.5),
                (v[3], c),
            ],
            6.0,
        );
        let Presolved::Ready(form, _) = presolve(&m) else {
            panic!("feasible model");
        };
        let v3 = (0.0 + a + b) + c;
        assert_ne!(v3.to_bits(), (a + (b + c)).to_bits(), "order matters");
        assert_eq!(form.rows, vec![vec![(0, 2.0), (3, v3)]]);
        assert_eq!(form.cols[0], vec![(0, 2.0)]);
        assert!(form.cols[1].is_empty() && form.cols[2].is_empty());
        assert_eq!(form.cols[3][0].1.to_bits(), v3.to_bits());

        let mut out = Vec::new();
        form.row_combination(&[2.0], &mut out);
        assert_eq!(out, vec![4.0, 0.0, 0.0, 2.0 * v3]);
    }

    #[test]
    fn cancelling_terms_vanish() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 10.0, 0.0);
        m.add_range(vec![(x, 1.0), (x, -1.0)], 5.0, 6.0); // 0 ∉ [5,6]
        assert!(matches!(presolve(&m), Presolved::Infeasible));
    }

    #[test]
    fn integer_bounds_round_inward() {
        let mut m = Model::new();
        let x = m.add_int_var(0.0, 10.0, 0.0);
        m.add_range(vec![(x, 2.0)], 1.0, 7.0); // x ∈ [0.5, 3.5] → [1, 3]
        match presolve(&m) {
            Presolved::Ready(_, b) => {
                assert_eq!(b.lb[0], 1.0);
                assert_eq!(b.ub[0], 3.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn objective_sign_follows_sense() {
        let mut m = Model::new();
        m.add_var(0.0, 1.0, 2.0);
        m.set_sense(Sense::Maximize);
        match presolve(&m) {
            Presolved::Ready(form, _) => {
                assert_eq!(form.obj_min[0], -2.0);
                assert_eq!(form.model_objective(-2.0), 2.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
