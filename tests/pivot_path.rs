//! Pivot-path regression on the three bulk DIRECT models.
//!
//! Each model is built through the public translate path over the
//! 1,600-row Galaxy table generated from data seed 1. For each one the
//! test pins the simplex iteration count, the branch-and-bound node
//! count, the objective's exact bits and the member list. A pricing or
//! ratio-test change that picks a different entering variable anywhere
//! along the way moves at least one of them.
//!
//! All three are one-row "take the best k" LPs over boxed variables, so
//! the solve starts with the dual simplex, and its bound-flipping ratio
//! test settles each in one iteration: it flips every tuple that loses
//! to the k-th best and pivots that one in. The primal loop with a
//! re-scan after every move took 1,591, 1,230 and 30 iterations to the
//! same objective bits and the same members.

use package_queries::datagen::galaxy_table;
use package_queries::paql::{parse_paql, translate};
use package_queries::solver::{MilpSolver, SolveOutcome, SolverConfig};

/// What one DIRECT solve must reproduce.
struct Pinned {
    name: &'static str,
    count: usize,
    sense: &'static str,
    attr: &'static str,
    iterations: u64,
    nodes: u64,
    objective_bits: u64,
    members: usize,
    /// FNV-1a over every `(row, multiplicity)` pair, in order.
    members_fnv: u64,
}

fn fnv1a(pairs: &[(usize, u64)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &(row, mult) in pairs {
        for b in (row as u64)
            .to_le_bytes()
            .into_iter()
            .chain(mult.to_le_bytes())
        {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

const PINNED: [Pinned; 3] = [
    Pinned {
        name: "D1",
        count: 800,
        sense: "MAXIMIZE",
        attr: "r",
        iterations: 1,
        nodes: 1,
        objective_bits: 0x40cf_c260_f2c7_9394,
        members: 800,
        members_fnv: 0x840e_63ab_1d5d_d853,
    },
    Pinned {
        name: "D2",
        count: 533,
        sense: "MINIMIZE",
        attr: "extinction_r",
        iterations: 1,
        nodes: 1,
        objective_bits: 0x402b_6ba4_3d70_e6f2,
        members: 533,
        members_fnv: 0x3ce6_b27f_ce3c_1eac,
    },
    Pinned {
        name: "D3",
        count: 10,
        sense: "MINIMIZE",
        attr: "extinction_r",
        iterations: 1,
        nodes: 1,
        objective_bits: 0x3fc9_999d_f6c0_b16b,
        members: 10,
        members_fnv: 0xea41_681d_9f31_401f,
    },
];

#[test]
fn bulk_direct_models_keep_the_parent_pivot_path() {
    let table = galaxy_table(1_600, 1);
    for p in &PINNED {
        let text = format!(
            "SELECT PACKAGE(G) AS P FROM GalaxyS G REPEAT 0 \
             SUCH THAT COUNT(P.*) = {} {} SUM(P.{})",
            p.count, p.sense, p.attr
        );
        let query = parse_paql(&text).expect("parses");
        let translation = translate(&query, &table).expect("translates");
        let result = MilpSolver::new(SolverConfig::default()).solve(&translation.model);
        let SolveOutcome::Optimal(sol) = &result.outcome else {
            panic!("{}: expected an optimum, got {:?}", p.name, result.outcome);
        };
        let members = translation.decode(&sol.values);
        assert_eq!(result.stats.simplex_iterations, p.iterations, "{}", p.name);
        assert_eq!(result.stats.nodes, p.nodes, "{}", p.name);
        assert_eq!(sol.objective.to_bits(), p.objective_bits, "{}", p.name);
        assert_eq!(members.len(), p.members, "{}", p.name);
        assert_eq!(fnv1a(&members), p.members_fnv, "{}", p.name);
    }
}
