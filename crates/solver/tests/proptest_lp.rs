//! Property-based tests for the solver: random LPs and MILPs checked
//! against first principles (feasibility of reported solutions, weak
//! duality via the relaxation, agreement with exhaustive search), and
//! random LPs checked against the primal simplex with a re-scan after
//! every move: move for move where the solver runs its primal loop
//! alone, and on status, objective and feasibility where it runs the
//! dual simplex first.

mod rescan;

use paq_solver::presolve::{presolve, Presolved};
use paq_solver::simplex::{solve_lp, LpOptions, LpStatus};
use paq_solver::{MilpSolver, Model, Sense, SolveOutcome, SolverConfig, VarId};
use proptest::prelude::*;

/// Build a random bounded model from generated data.
fn build_model(
    objs: &[f64],
    rows: &[(Vec<f64>, f64, f64)],
    ub: f64,
    integer: bool,
    maximize: bool,
) -> Model {
    let mut m = Model::new();
    let vars: Vec<VarId> = objs
        .iter()
        .map(|&c| {
            if integer {
                m.add_int_var(0.0, ub, c)
            } else {
                m.add_var(0.0, ub, c)
            }
        })
        .collect();
    for (coefs, lo, hi) in rows {
        let (lo, hi) = if lo <= hi { (*lo, *hi) } else { (*hi, *lo) };
        m.add_range(
            vars.iter().copied().zip(coefs.iter().copied()).collect(),
            lo,
            hi,
        );
    }
    m.set_sense(if maximize {
        Sense::Maximize
    } else {
        Sense::Minimize
    });
    m
}

/// xorshift64*: the seeded LPs below need only a cheap, stable stream.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A small integer in `lo..=hi`; small integers make pricing ties,
    /// which the lowest-index rule must break the same way.
    fn int(&mut self, lo: i64, hi: i64) -> f64 {
        (lo + self.below((hi - lo + 1) as u64) as i64) as f64
    }
}

/// A seeded LP with the shapes the pricing has to get right: mostly
/// boxed variables (which flip), some free and some half-bounded ones,
/// range and equality rows around a random interior point so that the
/// all-at-lower start violates several rows at once (multi-row phase
/// 1), and now and then a row placed at random, which may make the LP
/// infeasible. With `all_boxed` every variable is boxed, so every
/// cost-preferred bound is finite and the solve starts with the dual
/// simplex; the random stream is the same either way.
fn seeded_lp(seed: u64, all_boxed: bool) -> Model {
    let mut r = Stream(seed | 1);
    let n = 3 + r.below(48) as usize;
    let rows = 1 + r.below(5) as usize;
    let mut m = Model::new();
    let mut point = Vec::with_capacity(n);
    let vars: Vec<VarId> = (0..n)
        .map(|_| {
            let c = r.int(-5, 5);
            let (lb, ub) = match r.below(25) {
                0 if !all_boxed => (f64::NEG_INFINITY, f64::INFINITY),
                1 if !all_boxed => (r.int(-2, 0), f64::INFINITY),
                _ => {
                    let lb = r.int(-2, 1);
                    (lb, lb + r.int(1, 3))
                }
            };
            let lo = if lb.is_finite() { lb } else { -2.0 };
            let hi = if ub.is_finite() { ub } else { lo + 3.0 };
            point.push(lo + (hi - lo) * r.below(5) as f64 / 4.0);
            m.add_var(lb, ub, c)
        })
        .collect();
    for _ in 0..rows {
        let mut terms = Vec::new();
        let mut activity = 0.0;
        for (j, &v) in vars.iter().enumerate() {
            if r.below(10) < 6 {
                let a = match r.int(-3, 2) {
                    0.0 => 3.0,
                    a => a,
                };
                terms.push((v, a));
                activity += a * point[j];
            }
        }
        if terms.is_empty() {
            terms.push((vars[0], 1.0));
            activity = point[0];
        }
        let (lo, hi) = match r.below(10) {
            0 => (activity, activity),
            1 => (r.int(-10, 20), f64::INFINITY),
            2 => (f64::NEG_INFINITY, r.int(-20, 0)),
            3 => (activity + 1.0, f64::INFINITY),
            _ => (activity - r.int(0, 3), activity + r.int(0, 3)),
        };
        m.add_range(terms, lo, hi);
    }
    m.set_sense(if r.below(2) == 0 {
        Sense::Maximize
    } else {
        Sense::Minimize
    });
    m
}

/// `LpStatus` with every float as its bits, so equality is bitwise.
fn status_bits(status: &LpStatus) -> (u8, Vec<u64>) {
    match status {
        LpStatus::Optimal { x, objective } => (
            0,
            std::iter::once(objective)
                .chain(x)
                .map(|v| v.to_bits())
                .collect(),
        ),
        LpStatus::Infeasible => (1, vec![]),
        LpStatus::Unbounded => (2, vec![]),
        LpStatus::IterationLimit => (3, vec![]),
    }
}

/// Solve `model` with and without flip batching and compare with the
/// re-scan reference. When some structural's cost-preferred bound
/// (lower if `c_j ≥ 0`, upper otherwise) is infinite the solver runs its
/// primal loop alone, which must take the reference's exact path: same
/// status, solution bits and iteration count. Otherwise it runs the dual
/// simplex first and must reach the same status and, on an optimum, the
/// same objective within 1e-9 relative at a feasible point.
fn agrees_with_rescan(model: &Model) -> Result<(), TestCaseError> {
    let Presolved::Ready(form, bounds) = presolve(model) else {
        return Ok(());
    };
    if form.m == 0 {
        return Ok(());
    }
    let primal_only = (0..form.n).any(|j| {
        let preferred = if form.obj_min[j] >= 0.0 {
            bounds.lb[j]
        } else {
            bounds.ub[j]
        };
        !preferred.is_finite()
    });
    for flip_batching in [true, false] {
        let opts = LpOptions {
            max_iterations: 100_000,
            flip_batching,
            ..LpOptions::default()
        };
        let got = solve_lp(&form, &bounds, &opts);
        let (want, want_iterations) = rescan::solve(&form, &bounds, &opts);
        if primal_only {
            prop_assert_eq!(status_bits(&got.status), status_bits(&want));
            prop_assert_eq!(got.iterations, want_iterations);
            continue;
        }
        prop_assert_eq!(status_bits(&got.status).0, status_bits(&want).0);
        if let (
            LpStatus::Optimal { x, objective },
            LpStatus::Optimal {
                objective: reference,
                ..
            },
        ) = (&got.status, &want)
        {
            prop_assert!(
                (objective - reference).abs() <= 1e-9 * reference.abs().max(1.0),
                "objective {} against the reference {}",
                objective,
                reference
            );
            let violation = model.check_feasible(x, 1e-6);
            prop_assert!(violation.is_none(), "{:?}", violation);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The solver agrees with the re-scan reference on seeded LPs, most
    /// of which have a free or half-bounded variable and so run the
    /// primal loop alone.
    #[test]
    fn one_pass_pricing_keeps_the_rescan_path(seed in 0u64..u64::MAX) {
        agrees_with_rescan(&seeded_lp(seed, false))?;
    }

    /// The same on all-boxed LPs, every one of which runs the dual
    /// simplex first.
    #[test]
    fn dual_start_agrees_with_the_rescan_path(seed in 0u64..u64::MAX) {
        agrees_with_rescan(&seeded_lp(seed, true))?;
    }

    /// Any reported LP/MILP solution must actually satisfy the model,
    /// and the MILP optimum can never beat the LP relaxation.
    #[test]
    fn solutions_are_feasible_and_bounded_by_relaxation(
        objs in prop::collection::vec(-10.0f64..10.0, 2..7),
        raw_rows in prop::collection::vec(
            (prop::collection::vec(-5.0f64..5.0, 7), -20.0f64..20.0, -20.0f64..20.0),
            1..4,
        ),
        ub in 1.0f64..6.0,
        maximize in any::<bool>(),
    ) {
        let n = objs.len();
        let rows: Vec<(Vec<f64>, f64, f64)> = raw_rows
            .into_iter()
            .map(|(c, lo, hi)| (c[..n].to_vec(), lo, hi))
            .collect();
        let solver = MilpSolver::new(SolverConfig::default());

        let milp = build_model(&objs, &rows, ub.floor(), true, maximize);
        let lp = build_model(&objs, &rows, ub.floor(), false, maximize);
        let milp_out = solver.solve(&milp).outcome;
        let lp_out = solver.solve(&lp).outcome;

        if let SolveOutcome::Optimal(sol) = &milp_out {
            prop_assert!(milp.check_feasible(&sol.values, 1e-6).is_none(),
                "infeasible 'optimal' solution: {:?}", sol.values);
            // Weak duality against the relaxation.
            if let SolveOutcome::Optimal(rel) = &lp_out {
                if maximize {
                    prop_assert!(sol.objective <= rel.objective + 1e-6);
                } else {
                    prop_assert!(sol.objective >= rel.objective - 1e-6);
                }
            }
        }
        // An infeasible MILP with a feasible LP is possible; the
        // reverse is not (integer points are LP points).
        if matches!(lp_out, SolveOutcome::Infeasible) {
            prop_assert!(
                matches!(milp_out, SolveOutcome::Infeasible),
                "LP infeasible but MILP {milp_out:?}"
            );
        }
    }

    /// On tiny domains the MILP optimum matches exhaustive enumeration.
    #[test]
    fn milp_matches_exhaustive_enumeration(
        objs in prop::collection::vec(-6.0f64..6.0, 2..5),
        raw_rows in prop::collection::vec(
            (prop::collection::vec(-4.0f64..4.0, 5), -12.0f64..12.0, 0.0f64..14.0),
            1..3,
        ),
        maximize in any::<bool>(),
    ) {
        let n = objs.len();
        let rows: Vec<(Vec<f64>, f64, f64)> = raw_rows
            .into_iter()
            .map(|(c, lo, hi)| (c[..n].to_vec(), lo, lo.max(hi)))
            .collect();
        let model = build_model(&objs, &rows, 2.0, true, maximize);

        // Exhaustive search over {0,1,2}^n.
        let mut best: Option<f64> = None;
        let mut assignment = vec![0.0; n];
        let total = 3usize.pow(n as u32);
        for code in 0..total {
            let mut c = code;
            for slot in assignment.iter_mut() {
                *slot = (c % 3) as f64;
                c /= 3;
            }
            if model.check_feasible(&assignment, 1e-9).is_none() {
                let obj = model.objective_value(&assignment);
                let better = match best {
                    None => true,
                    Some(b) => if maximize { obj > b } else { obj < b },
                };
                if better {
                    best = Some(obj);
                }
            }
        }

        let out = MilpSolver::new(SolverConfig::default()).solve(&model).outcome;
        match (best, out) {
            (None, SolveOutcome::Infeasible) => {}
            (Some(b), SolveOutcome::Optimal(sol)) => {
                prop_assert!((b - sol.objective).abs() < 1e-6,
                    "exhaustive {b} vs solver {}", sol.objective);
            }
            (b, o) => prop_assert!(false, "mismatch: exhaustive {b:?} vs solver {o:?}"),
        }
    }

    /// Ablation switches never change the reported optimum.
    #[test]
    fn ablations_preserve_answers(
        objs in prop::collection::vec(0.0f64..8.0, 2..6),
        weights in prop::collection::vec(1.0f64..5.0, 6),
        budget in 2.0f64..15.0,
    ) {
        let n = objs.len();
        let mut configs = vec![SolverConfig::default()];
        configs.push(SolverConfig::default().with_fold_singletons(false));
        configs.push(SolverConfig::default().with_flip_batching(false));

        let mut objective = None;
        for cfg in configs {
            let mut m = Model::new();
            let vars: Vec<VarId> =
                objs.iter().map(|&c| m.add_int_var(0.0, 1.0, c)).collect();
            m.add_le(
                vars.iter().copied().zip(weights[..n].iter().copied()).collect(),
                budget,
            );
            for &v in &vars {
                m.add_le(vec![(v, 1.0)], 1.0); // singleton rows to fold
            }
            m.set_sense(Sense::Maximize);
            let out = MilpSolver::new(cfg).solve(&m).outcome;
            let obj = out.solution().expect("always feasible: empty set").objective;
            match objective {
                None => objective = Some(obj),
                Some(prev) => prop_assert!((prev - obj).abs() < 1e-9),
            }
        }
    }
}
