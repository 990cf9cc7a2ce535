#![warn(missing_docs)]

//! # paq-solver — LP/MILP solver substrate
//!
//! The paper evaluates package queries by translating them to integer
//! linear programs and handing those to IBM CPLEX as a *black box*
//! (§3.2). This crate is that black box, built from scratch:
//!
//! * [`Model`] — an LP/MILP model builder: variables with bounds and
//!   integrality, range constraints `L ≤ a·x ≤ U`, and a linear
//!   objective with a [`Sense`].
//! * [`simplex`] — a **bounded-variable revised simplex** LP solver.
//!   Package-query ILPs have very few constraints (one per global
//!   predicate) over very many variables (one per tuple), so the basis
//!   stays tiny while pricing streams over all columns; this is the
//!   shape the implementation is optimized for. When every variable's
//!   cost-preferred bound is finite — every query with a `REPEAT`
//!   limit — a **dual simplex with a bound-flipping ratio test** runs
//!   first and moves every profitable variable to its bound in one
//!   iteration; a primal simplex certifies its result and handles the
//!   remaining LPs.
//! * [`branch`] — a **branch-and-bound** MILP solver on top of the LP
//!   core: best-bound node selection, most-fractional branching, a
//!   rounding primal heuristic, and integrality-gap accounting. Each
//!   child node's LP starts from its parent's final basis with the
//!   dual simplex.
//! * [`SolverConfig`] — resource budgets (wall-clock time, node count,
//!   simplex iterations, memory estimate). Exceeding a budget produces
//!   the same observable failures the paper reports for CPLEX on large
//!   or hard instances (Fig. 5: DIRECT failing on Galaxy Q2/Q6), which
//!   is how the experiments emulate solver breakdown.
//!
//! The solver is exact on the LP level (within floating-point
//! tolerances) and exhaustive on the MILP level when budgets permit, so
//! `Optimal` outcomes are true optima of the given model.

pub mod branch;
pub mod config;
pub mod model;
pub mod presolve;
pub mod simplex;
pub mod solution;
pub mod telemetry;

pub use branch::MilpSolver;
pub use config::SolverConfig;
pub use model::{ConstraintId, Model, Sense, VarId};
pub use solution::{LimitKind, Solution, SolveOutcome, SolveResult, SolveStats};
pub use telemetry::Telemetry;

/// Numerical tolerance used throughout the solver for feasibility and
/// reduced-cost tests.
pub const EPS: f64 = 1e-7;

/// Tolerance within which a value is considered integral.
pub const INT_EPS: f64 = 1e-6;
