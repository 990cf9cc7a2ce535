//! The workloads: their tables, their PaQL mixes and pinned
//! routes, and the answer checks every response goes through.

use paq_core::Package;
use paq_datagen::workload::{galaxy_workload, tpch_workload};
use paq_datagen::{galaxy_table, tpch_table};
use paq_db::Route;
use paq_lang::{parse_paql, ObjectiveSense, PackageQuery};
use paq_relational::{Table, Value};
use paq_server::{ExecOptions, Request, RouteChoice};

use crate::stats::Rng;

/// Every table and every appended row is generated from this one seed;
/// `--seed` drives the order of the requests instead. Solve
/// times swing by more than 10x between Galaxy instances of the same
/// size (Q7 on 12,800 rows takes 1.4 ms on one and 87 ms on another;
/// TPC-H TQ4 60 ms against 1.1 s), so tables drawn per seed would bury
/// any change in the program under the spread between instances.
pub const DATA_SEED: u64 = 1;

/// Tolerance for `Package::satisfies` on aggregate bounds.
pub const CHECK_TOL: f64 = 1e-6;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Bulk,
    Ingest,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "bulk" => Some(Kind::Bulk),
            "ingest" => Some(Kind::Ingest),
            _ => None,
        }
    }

    /// Connections the workload holds open at once.
    pub fn connections(self) -> usize {
        match self {
            Kind::Bulk => 1,
            Kind::Ingest => 2,
        }
    }
}

#[derive(Clone)]
pub struct Query {
    pub name: String,
    pub relation: String,
    pub text: String,
    pub query: PackageQuery,
    pub route: RouteChoice,
    pub threads: Option<u64>,
}

impl Query {
    fn new(
        name: &str,
        relation: &str,
        text: String,
        route: RouteChoice,
        threads: Option<u64>,
    ) -> Query {
        let query = parse_paql(&text).unwrap_or_else(|e| panic!("{name} does not parse: {e}"));
        Query {
            name: name.to_owned(),
            relation: relation.to_owned(),
            text,
            query,
            route,
            threads,
        }
    }

    pub fn request(&self) -> Request {
        Request::Execute {
            relation: self.relation.clone(),
            paql: self.text.clone(),
            options: ExecOptions {
                route: self.route,
                threads: self.threads,
                ..ExecOptions::default()
            },
        }
    }

    pub fn route(&self) -> Route {
        self.route.into()
    }

    pub fn is_direct(&self) -> bool {
        self.route == RouteChoice::ForceDirect
    }
}

pub struct Workload {
    pub tables: Vec<(String, Table)>,
    /// Executed in this order at set-up (building every partitioning the
    /// run uses); the first `mix` are the measured request mix, the rest
    /// are DIRECT reference queries.
    pub queries: Vec<Query>,
    pub mix: usize,
    /// `(SKETCHREFINE query, DIRECT query)` pairs for `approx_ratio`.
    pub approx: Vec<(usize, usize)>,
    /// Where appends go (the writer on `ingest`, the append probe on
    /// `bulk`, and the appends after the checkpoint on both).
    pub append_table: String,
}

impl Workload {
    pub fn table(&self, name: &str) -> &Table {
        &self
            .tables
            .iter()
            .find(|(n, _)| n == name)
            .expect("known table")
            .1
    }
}

const GALAXY_MIX: [&str; 4] = ["Q1", "Q4", "Q5", "Q7"];

/// Galaxy Q1/Q4/Q5/Q7 over `relation` (Q2/Q6 take 157–195 s each under
/// SKETCHREFINE at 12,800 rows and are left out).
fn galaxy_mix(
    table: &Table,
    relation: &str,
    route: RouteChoice,
    threads: Option<u64>,
    suffix: &str,
) -> Vec<Query> {
    galaxy_workload(table)
        .expect("galaxy workload")
        .into_iter()
        .filter(|q| GALAXY_MIX.contains(&q.name.as_str()))
        .map(|q| {
            let text = q.text.replace("FROM Galaxy ", &format!("FROM {relation} "));
            Query::new(
                &format!("{}{suffix}", q.name),
                relation,
                text,
                route,
                threads,
            )
        })
        .collect()
}

fn bulk_text(relation: &str, count: usize, sense: &str, attr: &str) -> String {
    format!(
        "SELECT PACKAGE(G) AS P FROM {relation} G REPEAT 0 \
         SUCH THAT COUNT(P.*) = {count} {sense} SUM(P.{attr})"
    )
}

pub fn build(kind: Kind) -> Workload {
    const SR: RouteChoice = RouteChoice::ForceSketchRefine;
    const DIRECT: RouteChoice = RouteChoice::ForceDirect;
    match kind {
        Kind::Ingest => {
            let galaxy = galaxy_table(12_800, DATA_SEED);
            let mut queries = galaxy_mix(&galaxy, "Galaxy", SR, None, "");
            queries.extend(galaxy_mix(&galaxy, "Galaxy", DIRECT, None, "-direct"));
            Workload {
                tables: vec![("Galaxy".into(), galaxy)],
                mix: 4,
                approx: (0..4).map(|i| (i, i + 4)).collect(),
                queries,
                append_table: "Galaxy".into(),
            }
        }
        Kind::Bulk => {
            let threads = Some(2);
            let galaxy = galaxy_table(12_800, DATA_SEED);
            let small = galaxy_table(1_600, DATA_SEED);
            let large = galaxy_table(100_000, DATA_SEED);
            let tpch = tpch_table(12_800, DATA_SEED);
            let n = galaxy.num_rows();
            let mut queries = vec![
                Query::new(
                    "R1",
                    "Galaxy",
                    bulk_text("Galaxy", n / 2, "MAXIMIZE", "r"),
                    SR,
                    threads,
                ),
                Query::new(
                    "R2",
                    "Galaxy",
                    bulk_text("Galaxy", n / 3, "MINIMIZE", "extinction_r"),
                    SR,
                    threads,
                ),
                Query::new(
                    "R3",
                    "Galaxy",
                    bulk_text("Galaxy", 2 * n / 5, "MAXIMIZE", "redshift"),
                    SR,
                    threads,
                ),
            ];
            let m = small.num_rows();
            let d_texts = [
                bulk_text("GalaxyS", m / 2, "MAXIMIZE", "r"),
                bulk_text("GalaxyS", m / 3, "MINIMIZE", "extinction_r"),
                bulk_text("GalaxyS", 10, "MINIMIZE", "extinction_r"),
            ];
            for (i, text) in d_texts.iter().enumerate() {
                queries.push(Query::new(
                    &format!("D{}-direct", i + 1),
                    "GalaxyS",
                    text.clone(),
                    DIRECT,
                    threads,
                ));
            }
            for (i, text) in d_texts.iter().enumerate() {
                queries.push(Query::new(
                    &format!("D{}", i + 1),
                    "GalaxyS",
                    text.clone(),
                    SR,
                    threads,
                ));
            }
            for q in tpch_workload(&tpch).expect("tpch workload") {
                if q.name == "Q3" || q.name == "Q4" {
                    let q = q.with_non_null_guards();
                    queries.push(Query::new(
                        &format!("T{}", q.name),
                        "Tpch",
                        q.text,
                        SR,
                        threads,
                    ));
                }
            }
            queries.extend(galaxy_mix(&large, "GalaxyL", SR, threads, "-100k"));
            Workload {
                mix: queries.len(),
                approx: vec![(6, 3), (7, 4), (8, 5)],
                queries,
                tables: vec![
                    ("Galaxy".into(), galaxy),
                    ("GalaxyS".into(), small),
                    ("Tpch".into(), tpch),
                    ("GalaxyL".into(), large),
                ],
                append_table: "Galaxy".into(),
            }
        }
    }
}

/// Rows to append: `n` rows of `table` drawn with replacement from
/// [`DATA_SEED`], so every run appends the same sequence and reaches the
/// same table versions. Solve times follow the data chaotically: with
/// rows drawn per run, REFINE time differed 3.4x between two runs.
/// Copies keep every version inside the base table's value range.
pub fn append_rows(table: &Table, n: usize) -> Vec<Vec<Value>> {
    let mut rng = Rng::new(DATA_SEED, 0xA99E);
    (0..n)
        .map(|_| table.row(rng.below(table.num_rows())))
        .collect()
}

/// The bytes of a table's rows as a user wrote them: 8 per number, the
/// length of a string, 1 per boolean, 0 for NULL.
pub fn table_bytes(t: &Table) -> u64 {
    (0..t.num_rows())
        .flat_map(|i| t.row(i))
        .map(|v| match v {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 8,
            Value::Str(s) => s.len() as u64,
        })
        .sum()
}

/// Check a served package against the table version it names: every
/// member row exists and the package satisfies the query.
pub fn satisfies(pairs: &[(u64, u64)], query: &PackageQuery, table: &Table) -> bool {
    if pairs
        .iter()
        .any(|&(row, _)| row as usize >= table.num_rows())
    {
        return false;
    }
    let package = Package::from_pairs(pairs.iter().map(|&(r, m)| (r as usize, m)));
    package.satisfies(query, table, CHECK_TOL).unwrap_or(false)
}

/// SKETCHREFINE objective against the DIRECT optimum, oriented so that
/// 1.0 is optimal and higher is worse.
pub fn approx_ratio(
    query: &PackageQuery,
    table: &Table,
    sr: &[(u64, u64)],
    direct: &[(u64, u64)],
) -> f64 {
    let value = |pairs: &[(u64, u64)]| {
        Package::from_pairs(pairs.iter().map(|&(r, m)| (r as usize, m)))
            .objective_value(query, table)
            .expect("objective")
    };
    let (s, d) = (value(sr), value(direct));
    let maximize = query
        .objective
        .as_ref()
        .is_some_and(|o| o.sense == ObjectiveSense::Maximize);
    if s == d {
        1.0
    } else if maximize {
        d / s
    } else {
        s / d
    }
}
