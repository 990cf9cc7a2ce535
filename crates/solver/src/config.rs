//! Solver resource budgets.
//!
//! The paper configures CPLEX with a working-memory cap, a one-hour time
//! limit, and lets the OS kill runaway solves (§5.1). [`SolverConfig`]
//! exposes the equivalent knobs; exceeding any budget aborts the solve
//! with a resource-limit outcome rather than an answer, which is exactly
//! the DIRECT failure mode studied in the experiments.

use std::time::Duration;

/// Resource budgets and tolerances for a MILP solve.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Wall-clock limit for one `solve` call.
    pub time_limit: Duration,
    /// Maximum number of branch-and-bound nodes explored.
    pub node_limit: u64,
    /// Maximum total simplex iterations across all LP solves.
    pub iteration_limit: u64,
    /// Memory budget in bytes for the model plus the open-node store;
    /// emulates CPLEX's working-memory limit.
    pub memory_limit: usize,
    /// Relative MILP gap at which the search stops declaring optimality
    /// (`0.0` = prove true optimality).
    pub relative_gap: f64,
    /// How many simplex pivots between full basis refactorizations.
    pub refactor_interval: u32,
    /// Presolve ablation: fold single-variable rows into variable
    /// bounds. On real workloads this keeps the sketch query's
    /// per-group cardinality caps out of the simplex basis; disable
    /// only to measure that design choice.
    pub fold_singletons: bool,
    /// Simplex ablation: serve consecutive bound flips from one pricing
    /// pass, so the simplex prices per dual vector rather than per move.
    /// In phase 2 a flip never changes the duals; in phase 1 it changes
    /// them only when a basic variable crosses a bound tolerance, which
    /// is when the pass ends. Either way the pivot path is the same as
    /// with a fresh scan after every move. `false` prices again after
    /// every flip; disable only to measure that design choice. Applies
    /// to the primal loop only: the dual simplex's ratio test applies
    /// all of an iteration's flips as one update either way.
    pub flip_batching: bool,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            time_limit: Duration::from_secs(3600),
            node_limit: 2_000_000,
            iteration_limit: u64::MAX,
            memory_limit: 512 * 1024 * 1024,
            relative_gap: 0.0,
            refactor_interval: 64,
            fold_singletons: true,
            flip_batching: true,
        }
    }
}

impl SolverConfig {
    /// The paper's CPLEX setup: 512 MB working memory, one hour limit,
    /// optimality emphasis (zero gap).
    pub fn paper_defaults() -> Self {
        SolverConfig::default()
    }

    /// A deliberately small budget used by experiments to reproduce
    /// solver failures on oversized DIRECT instances.
    pub fn constrained(time: Duration, memory: usize) -> Self {
        SolverConfig {
            time_limit: time,
            memory_limit: memory,
            ..SolverConfig::default()
        }
    }

    /// Builder-style time limit.
    pub fn with_time_limit(mut self, d: Duration) -> Self {
        self.time_limit = d;
        self
    }

    /// Builder-style node limit.
    pub fn with_node_limit(mut self, n: u64) -> Self {
        self.node_limit = n;
        self
    }

    /// Builder-style memory limit.
    pub fn with_memory_limit(mut self, bytes: usize) -> Self {
        self.memory_limit = bytes;
        self
    }

    /// Builder-style relative gap.
    pub fn with_relative_gap(mut self, gap: f64) -> Self {
        self.relative_gap = gap;
        self
    }

    /// Builder-style presolve-folding ablation switch.
    pub fn with_fold_singletons(mut self, on: bool) -> Self {
        self.fold_singletons = on;
        self
    }

    /// Builder-style flip-batching ablation switch.
    pub fn with_flip_batching(mut self, on: bool) -> Self {
        self.flip_batching = on;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let c = SolverConfig::paper_defaults();
        assert_eq!(c.time_limit, Duration::from_secs(3600));
        assert_eq!(c.memory_limit, 512 * 1024 * 1024);
        assert_eq!(c.relative_gap, 0.0);
    }

    #[test]
    fn builders_compose() {
        let c = SolverConfig::default()
            .with_time_limit(Duration::from_millis(10))
            .with_node_limit(5)
            .with_memory_limit(1024)
            .with_relative_gap(0.01);
        assert_eq!(c.time_limit, Duration::from_millis(10));
        assert_eq!(c.node_limit, 5);
        assert_eq!(c.memory_limit, 1024);
        assert_eq!(c.relative_gap, 0.01);
    }
}
