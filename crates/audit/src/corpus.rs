//! The built-in audit corpus: catalogs and queries every `sysr-audit`
//! run checks.
//!
//! Three catalog families cover the optimizer's surface:
//!
//! * the paper's **Fig. 1** catalog (EMP / DEPT / JOB with the section-8
//!   statistics) and a spread of queries over it — the three-way join
//!   itself, single-table sargable predicates, ranges, interesting orders
//!   (ORDER BY / GROUP BY), IN-lists, and §6 subqueries;
//! * a **chain** catalog `R0 — R1 — ... — R{n-1}` linked by equijoins,
//!   used to generate seeded random join queries for the differential
//!   oracle (every query stays ≤ 4 relations so exhaustive re-enumeration
//!   is feasible);
//! * degenerate statistics (empty relations, `ICARD = 0`) exercised from
//!   the unit tests of `sysr-core` rather than here — the corpus only
//!   contains queries the optimizer must plan *successfully*.
//!
//! Everything is deterministic: random cases derive from an explicit
//! [`SplitMix64`] seed so CI failures reproduce exactly.

use system_r::catalog::{Catalog, ColumnMeta, IndexStats, RelStats};
use system_r::rss::{ColType, SplitMix64, Value};
use system_r::sql::{parse_statement, SelectStmt, Statement};

/// One corpus entry: a catalog to plan against and the SQL to plan.
pub struct CorpusCase {
    /// Stable label used in violation locations, e.g. `fig1/order-by`.
    pub label: String,
    pub catalog: Catalog,
    pub sql: String,
}

/// The EMP / DEPT / JOB catalog of the paper's Figure 1, with synthetic
/// statistics in the spirit of §8's example (10 000 employees, 100
/// departments, 15 job titles; indexes on the join and predicate columns).
pub fn fig1_catalog() -> Catalog {
    let mut cat = Catalog::new();
    let emp = must(
        cat.create_relation(
            "EMP",
            0,
            vec![
                ColumnMeta::new("NAME", ColType::Str),
                ColumnMeta::new("DNO", ColType::Int),
                ColumnMeta::new("JOB", ColType::Int),
                ColumnMeta::new("SAL", ColType::Float),
            ],
        ),
        "fig1 EMP",
    );
    let dept = must(
        cat.create_relation(
            "DEPT",
            1,
            vec![
                ColumnMeta::new("DNO", ColType::Int),
                ColumnMeta::new("DNAME", ColType::Str),
                ColumnMeta::new("LOC", ColType::Str),
            ],
        ),
        "fig1 DEPT",
    );
    let job = must(
        cat.create_relation(
            "JOB",
            2,
            vec![ColumnMeta::new("JOB", ColType::Int), ColumnMeta::new("TITLE", ColType::Str)],
        ),
        "fig1 JOB",
    );
    cat.set_relation_stats(
        emp,
        RelStats { ncard: 10_000, tcard: 400, pfrac: 1.0, avg_width: 40.0, valid: true },
    );
    cat.set_relation_stats(
        dept,
        RelStats { ncard: 100, tcard: 5, pfrac: 1.0, avg_width: 40.0, valid: true },
    );
    cat.set_relation_stats(
        job,
        RelStats { ncard: 15, tcard: 1, pfrac: 1.0, avg_width: 24.0, valid: true },
    );
    must(cat.register_index(0, "EMP_DNO", emp, vec![1], false, false), "fig1 EMP_DNO");
    must(cat.register_index(1, "EMP_JOB", emp, vec![2], false, false), "fig1 EMP_JOB");
    must(cat.register_index(2, "DEPT_DNO", dept, vec![0], true, false), "fig1 DEPT_DNO");
    must(cat.register_index(3, "JOB_JOB", job, vec![0], true, false), "fig1 JOB_JOB");
    for (id, icard, nindx) in [(0u32, 1000u64, 30u64), (1, 15, 28), (2, 100, 2), (3, 15, 1)] {
        cat.set_index_stats(
            id,
            IndexStats {
                icard,
                nindx,
                leaf_pages: nindx.max(2) - 1,
                low_key: Some(Value::Int(0)),
                high_key: Some(Value::Int(icard as i64 - 1)),
                valid: true,
            },
        );
    }
    cat
}

/// A chain of `n` relations `R0..R{n-1}`, each with columns `(A, B, V)`:
/// `A` is a unique-indexed key, `B` (non-unique index) holds foreign keys
/// into the next relation's `A`, and `V` is an unindexed value column.
/// Cardinalities alternate so join-order choice matters.
pub fn chain_catalog(n: usize) -> Catalog {
    let mut cat = Catalog::new();
    for i in 0..n {
        let ncard = [2_000u64, 50, 800, 10, 5_000][i % 5];
        let rel = must(
            cat.create_relation(
                &format!("R{i}"),
                i as u32,
                vec![
                    ColumnMeta::new("A", ColType::Int),
                    ColumnMeta::new("B", ColType::Int),
                    ColumnMeta::new("V", ColType::Int),
                ],
            ),
            "chain relation",
        );
        cat.set_relation_stats(
            rel,
            RelStats {
                ncard,
                tcard: (ncard / 50).max(1),
                pfrac: 1.0,
                avg_width: 24.0,
                valid: true,
            },
        );
        let ia = (2 * i) as u32;
        let ib = ia + 1;
        must(cat.register_index(ia, &format!("R{i}_A"), rel, vec![0], true, false), "chain idx A");
        must(cat.register_index(ib, &format!("R{i}_B"), rel, vec![1], false, false), "chain idx B");
        cat.set_index_stats(
            ia,
            IndexStats {
                icard: ncard,
                nindx: (ncard / 200).max(2),
                leaf_pages: (ncard / 200).max(1),
                low_key: Some(Value::Int(0)),
                high_key: Some(Value::Int(ncard as i64 - 1)),
                valid: true,
            },
        );
        cat.set_index_stats(
            ib,
            IndexStats {
                icard: (ncard / 10).max(1),
                nindx: (ncard / 250).max(1),
                leaf_pages: (ncard / 250).max(1),
                low_key: Some(Value::Int(0)),
                high_key: Some(Value::Int((ncard / 10).max(1) as i64 - 1)),
                valid: true,
            },
        );
    }
    cat
}

/// Parse SQL that must be a single SELECT. Corpus SQL is fixed at build
/// time, so a parse failure is reported as data, not a panic.
pub fn parse_select(sql: &str) -> Result<SelectStmt, String> {
    match parse_statement(sql) {
        Ok(Statement::Select(s)) => Ok(s),
        Ok(_) => Err("not a SELECT statement".into()),
        Err(e) => Err(e.to_string()),
    }
}

/// The fixed (non-random) corpus: Fig. 1 plus a spread of query shapes
/// that hit every optimizer feature the auditor checks.
pub fn builtin_cases() -> Vec<CorpusCase> {
    let fig1: &[(&str, &str)] = &[
        ("fig1/join3", crate::workloads::FIG1_SQL),
        (
            "fig1/join3-order-by",
            "SELECT NAME, DNAME FROM EMP, DEPT, JOB \
             WHERE EMP.DNO = DEPT.DNO AND EMP.JOB = JOB.JOB AND TITLE = 'CLERK' \
             ORDER BY EMP.DNO",
        ),
        ("fig1/single-eq", "SELECT NAME FROM EMP WHERE JOB = 4"),
        ("fig1/single-range", "SELECT NAME FROM EMP WHERE DNO BETWEEN 10 AND 50"),
        ("fig1/single-order", "SELECT NAME, SAL FROM EMP WHERE SAL > 10000 ORDER BY DNO"),
        ("fig1/group-by", "SELECT DNO, COUNT(*) FROM EMP GROUP BY DNO"),
        ("fig1/in-list", "SELECT NAME FROM EMP WHERE JOB IN (1, 2, 3)"),
        (
            "fig1/join2-merge",
            "SELECT NAME, DNAME FROM EMP, DEPT WHERE EMP.DNO = DEPT.DNO ORDER BY DEPT.DNO",
        ),
        (
            "fig1/in-subquery",
            "SELECT NAME FROM EMP WHERE DNO IN (SELECT DNO FROM DEPT WHERE LOC = 'DENVER')",
        ),
        ("fig1/scalar-subquery", "SELECT NAME FROM EMP WHERE SAL > (SELECT AVG(SAL) FROM EMP)"),
        (
            "fig1/correlated",
            "SELECT NAME FROM EMP X WHERE SAL > \
             (SELECT AVG(SAL) FROM EMP WHERE DNO = X.DNO)",
        ),
    ];
    let mut cases: Vec<CorpusCase> = fig1
        .iter()
        .map(|(label, sql)| CorpusCase {
            label: (*label).into(),
            catalog: fig1_catalog(),
            sql: (*sql).into(),
        })
        .collect();
    cases.push(CorpusCase {
        label: "chain/full4".into(),
        catalog: chain_catalog(4),
        sql: "SELECT R0.V, R3.V FROM R0, R1, R2, R3 \
              WHERE R0.B = R1.A AND R1.B = R2.A AND R2.B = R3.A AND R0.V = 7"
            .into(),
    });
    // ORDER BY led by R0's clustered index key: the index delivers the
    // (A) prefix cheaply, so the optimizer should plan a partial sort
    // (`sorted_prefix = 1`) over the index scan — the case every engine
    // uses to exercise prefix-aware order enforcement.
    cases.push(CorpusCase {
        label: "chain/order-prefix".into(),
        catalog: chain_catalog(4),
        sql: "SELECT A, V FROM R0 ORDER BY R0.A, R0.V".into(),
    });
    cases
}

/// The corpus's default seed and number of random cases (`sysr-audit
/// --seed`, `--random`).
pub const DEFAULT_SEED: u64 = 0xA0D17;
pub const DEFAULT_RANDOM: usize = 12;

/// The whole corpus: [`builtin_cases`] plus `random` seeded
/// [`random_chain_cases`].
pub fn cases(seed: u64, random: usize) -> Vec<CorpusCase> {
    let mut cases = builtin_cases();
    cases.extend(random_chain_cases(seed, random));
    cases
}

/// `n` seeded random chain-join queries over [`chain_catalog`], each
/// joining a contiguous window of 2–4 relations with optional local
/// predicates and an optional ORDER BY — small enough for the
/// differential oracle to re-enumerate exhaustively.
pub fn random_chain_cases(seed: u64, n: usize) -> Vec<CorpusCase> {
    const CHAIN: usize = 5;
    let mut rng = SplitMix64::new(seed);
    let mut cases = Vec::with_capacity(n);
    for case in 0..n {
        let k = rng.range_usize(2, 5);
        let start = rng.range_usize(0, CHAIN - k + 1);
        let tables: Vec<usize> = (start..start + k).collect();
        let from = tables.iter().map(|i| format!("R{i}")).collect::<Vec<_>>().join(", ");
        let mut preds: Vec<String> =
            tables.windows(2).map(|w| format!("R{}.B = R{}.A", w[0], w[1])).collect();
        // Sprinkle local predicates: equality or a range on a random table.
        for &t in &tables {
            if rng.chance(0.5) {
                if rng.bool() {
                    preds.push(format!("R{t}.V = {}", rng.range_i64(0, 100)));
                } else {
                    let lo = rng.range_i64(0, 500);
                    preds.push(format!("R{t}.A BETWEEN {lo} AND {}", lo + rng.range_i64(1, 500)));
                }
            }
        }
        let mut sql = format!("SELECT R{start}.V FROM {from} WHERE {}", preds.join(" AND "));
        if rng.chance(0.3) {
            let t = tables[rng.range_usize(0, tables.len())];
            sql.push_str(&format!(" ORDER BY R{t}.A"));
        }
        cases.push(CorpusCase {
            label: format!("chain/seed{seed}-{case}"),
            catalog: chain_catalog(CHAIN),
            sql,
        });
    }
    cases
}

/// Unwrap a catalog-construction result for corpus fixtures whose inputs
/// are compile-time constants; failure means the corpus itself is broken.
///
/// Deliberately kept as the audit crate's one panic site: the inputs are
/// compile-time constants, so the only way to get here is a corpus edit
/// that broke a fixture — and an auditor running on a broken corpus must
/// abort loudly, not return a thinned report that under-checks the
/// optimizer. Returning `Result` would push exactly that decision onto
/// ~30 construction call sites.
#[expect(clippy::unreachable, reason = "a broken corpus must abort the audit loudly")]
fn must<T, E: std::fmt::Display>(r: Result<T, E>, what: &str) -> T {
    match r {
        Ok(v) => v,
        Err(e) => unreachable!("corpus fixture {what}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_cases_all_parse() {
        for case in builtin_cases() {
            parse_select(&case.sql)
                .unwrap_or_else(|e| panic!("case {} failed to parse: {e}", case.label));
        }
    }

    #[test]
    fn random_cases_are_deterministic() {
        let a = random_chain_cases(42, 8);
        let b = random_chain_cases(42, 8);
        assert_eq!(a.len(), 8);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.sql, y.sql);
            parse_select(&x.sql).unwrap_or_else(|e| panic!("{}: {e}", x.label));
        }
    }

    #[test]
    fn order_prefix_case_plans_a_partial_sort() {
        // The case exists to exercise prefix-aware enforcement end to
        // end; if a stats or cost change ever stops the partial sort
        // from being chosen, the corpus coverage silently evaporates —
        // fail loudly instead.
        let case = builtin_cases()
            .into_iter()
            .find(|c| c.label == "chain/order-prefix")
            .expect("chain/order-prefix case present");
        let stmt = parse_select(&case.sql).expect("case parses");
        let plan = system_r::core::Optimizer::with_config(
            &case.catalog,
            system_r::core::OptimizerConfig::default(),
        )
        .optimize(&stmt)
        .expect("case plans");
        let system_r::core::PlanNode::Sort { input, sorted_prefix, .. } = &plan.root.node else {
            panic!("expected a root sort, got {:?}", plan.root.node);
        };
        assert_eq!(*sorted_prefix, 1, "index-delivered (A) prefix should be claimed");
        assert!(
            matches!(input.node, system_r::core::PlanNode::Scan(_)) && !input.order.is_empty(),
            "partial sort should sit on an order-producing index scan"
        );
    }

    #[test]
    fn chain_catalog_has_two_indexes_per_relation() {
        let cat = chain_catalog(5);
        assert_eq!(cat.relations().len(), 5);
        for rel in cat.relations() {
            assert_eq!(cat.indexes_on(rel.id).count(), 2);
            assert!(rel.stats.valid);
        }
    }
}
