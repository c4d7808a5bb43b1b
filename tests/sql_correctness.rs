//! End-to-end SQL semantics: parse → bind → optimize → execute, checked
//! against hand-computed expectations over deterministic data.

mod common;

use common::*;
use sysr_audit::workloads::employee_db;
use system_r::rss::Value;
use system_r::{tuple, Database};

fn small_db() -> Database {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE EMP (NAME VARCHAR(20), DNO INTEGER, JOB INTEGER, SAL FLOAT);
         CREATE TABLE DEPT (DNO INTEGER, DNAME VARCHAR(20), LOC VARCHAR(20));
         INSERT INTO EMP VALUES
           ('SMITH', 50, 5, 8000.0),
           ('JONES', 50, 6, 12000.0),
           ('BLAKE', 51, 5, 9000.0),
           ('CLARK', 52, 9, 15000.0),
           ('ADAMS', 52, 5, 7000.0);
         INSERT INTO DEPT VALUES
           (50, 'MFG', 'DENVER'),
           (51, 'SALES', 'TUCSON'),
           (52, 'ADMIN', 'DENVER');
         UPDATE STATISTICS;",
    )
    .unwrap();
    db
}

#[test]
fn simple_filters() {
    let db = small_db();
    let r = db.query("SELECT NAME FROM EMP WHERE SAL > 9000 ORDER BY NAME").unwrap();
    assert_eq!(str_column(&r.rows, 0), vec!["CLARK", "JONES"]);
    let r = db.query("SELECT NAME FROM EMP WHERE SAL BETWEEN 8000 AND 9000 ORDER BY NAME").unwrap();
    assert_eq!(str_column(&r.rows, 0), vec!["BLAKE", "SMITH"]);
    let r =
        db.query("SELECT NAME FROM EMP WHERE DNO IN (51, 52) AND JOB = 5 ORDER BY NAME").unwrap();
    assert_eq!(str_column(&r.rows, 0), vec!["ADAMS", "BLAKE"]);
    let r = db.query("SELECT NAME FROM EMP WHERE NOT (SAL >= 9000 OR DNO = 52)").unwrap();
    assert_eq!(str_column(&r.rows, 0), vec!["SMITH"]);
}

#[test]
fn projection_and_arithmetic() {
    let db = small_db();
    let r = db.query("SELECT NAME, SAL * 2 + 1 AS DOUBLED FROM EMP WHERE NAME = 'SMITH'").unwrap();
    assert_eq!(r.columns, vec!["NAME", "DOUBLED"]);
    assert_eq!(r.rows[0][1], Value::Float(16001.0));
}

#[test]
fn two_way_join_matches_hand_result() {
    let db = small_db();
    let r = db
        .query(
            "SELECT NAME, DNAME FROM EMP, DEPT
             WHERE EMP.DNO = DEPT.DNO AND LOC = 'DENVER' ORDER BY NAME",
        )
        .unwrap();
    assert_eq!(str_column(&r.rows, 0), vec!["ADAMS", "CLARK", "JONES", "SMITH"]);
    assert_eq!(str_column(&r.rows, 1), vec!["ADMIN", "ADMIN", "MFG", "MFG"]);
}

#[test]
fn join_order_in_from_list_is_irrelevant() {
    let db = small_db();
    let a = db
        .query("SELECT NAME FROM EMP, DEPT WHERE EMP.DNO = DEPT.DNO AND LOC='DENVER' ORDER BY NAME")
        .unwrap();
    let b = db
        .query("SELECT NAME FROM DEPT, EMP WHERE EMP.DNO = DEPT.DNO AND LOC='DENVER' ORDER BY NAME")
        .unwrap();
    assert_eq!(a.rows, b.rows);
}

#[test]
fn self_join_with_aliases() {
    let db = small_db();
    // Colleagues in the same department, alphabetically ordered pairs.
    let r = db
        .query(
            "SELECT A.NAME, B.NAME FROM EMP A, EMP B
             WHERE A.DNO = B.DNO AND A.NAME < B.NAME ORDER BY A.NAME",
        )
        .unwrap();
    let pairs: Vec<(String, String)> = r
        .rows
        .iter()
        .map(|t| (t[0].as_str().unwrap().into(), t[1].as_str().unwrap().into()))
        .collect();
    assert_eq!(
        pairs,
        vec![
            ("ADAMS".to_string(), "CLARK".to_string()),
            ("JONES".to_string(), "SMITH".to_string()),
        ]
    );
}

#[test]
fn aggregates_without_group_by() {
    let db = small_db();
    let r = db.query("SELECT COUNT(*), SUM(SAL), MIN(SAL), MAX(SAL), AVG(SAL) FROM EMP").unwrap();
    let row = &r.rows[0];
    assert_eq!(row[0], Value::Int(5));
    assert_eq!(row[1], Value::Float(51_000.0));
    assert_eq!(row[2], Value::Float(7000.0));
    assert_eq!(row[3], Value::Float(15_000.0));
    assert_eq!(row[4], Value::Float(10_200.0));
}

#[test]
fn aggregates_on_empty_input() {
    let db = small_db();
    let r = db.query("SELECT COUNT(*), SUM(SAL) FROM EMP WHERE SAL > 1000000").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(0));
    assert_eq!(r.rows[0][1], Value::Null);
    // With GROUP BY: zero groups.
    let r = db.query("SELECT DNO, COUNT(*) FROM EMP WHERE SAL > 1000000 GROUP BY DNO").unwrap();
    assert!(r.rows.is_empty());
}

#[test]
fn group_by_with_order() {
    let db = small_db();
    let r = db.query("SELECT DNO, COUNT(*), AVG(SAL) FROM EMP GROUP BY DNO ORDER BY DNO").unwrap();
    assert_eq!(int_column(&r.rows, 0), vec![50, 51, 52]);
    assert_eq!(int_column(&r.rows, 1), vec![2, 1, 2]);
    assert_eq!(float_column(&r.rows, 2), vec![10_000.0, 9000.0, 11_000.0]);
}

#[test]
fn group_by_on_join_result() {
    let db = small_db();
    let r = db
        .query(
            "SELECT LOC, COUNT(*) FROM EMP, DEPT WHERE EMP.DNO = DEPT.DNO
             GROUP BY LOC ORDER BY LOC",
        )
        .unwrap();
    assert_eq!(str_column(&r.rows, 0), vec!["DENVER", "TUCSON"]);
    assert_eq!(int_column(&r.rows, 1), vec![4, 1]);
}

#[test]
fn distinct_dedups() {
    let db = small_db();
    let r = db.query("SELECT DISTINCT JOB FROM EMP ORDER BY JOB").unwrap();
    assert_eq!(int_column(&r.rows, 0), vec![5, 6, 9]);
}

#[test]
fn order_by_desc_and_multi_key() {
    let db = small_db();
    let r = db.query("SELECT NAME, DNO FROM EMP ORDER BY DNO DESC, NAME ASC").unwrap();
    assert_eq!(str_column(&r.rows, 0), vec!["ADAMS", "CLARK", "BLAKE", "JONES", "SMITH"]);
}

#[test]
fn nulls_filtered_by_comparisons() {
    let mut db = Database::new();
    db.execute("CREATE TABLE T (A INTEGER, B INTEGER)").unwrap();
    db.insert_rows("T", vec![tuple![1, 10], Value::Null.into_tuple_with(2), tuple![3, 30]])
        .unwrap();
    db.execute("UPDATE STATISTICS").unwrap();
    // Comparisons with NULL are never satisfied, in either polarity.
    let r = db.query("SELECT A FROM T WHERE B > 0").unwrap();
    assert_eq!(r.len(), 2);
    let r = db.query("SELECT A FROM T WHERE NOT B > 0").unwrap();
    assert_eq!(r.len(), 0);
    // Aggregates skip NULLs; COUNT(*) does not.
    let r = db.query("SELECT COUNT(*), COUNT(B), SUM(B) FROM T").unwrap();
    assert_eq!(r.rows[0].values(), &[Value::Int(3), Value::Int(2), Value::Int(40)]);
}

trait IntoTupleWith {
    fn into_tuple_with(self, a: i64) -> system_r::rss::Tuple;
}
impl IntoTupleWith for Value {
    fn into_tuple_with(self, a: i64) -> system_r::rss::Tuple {
        system_r::rss::Tuple::new(vec![Value::Int(a), self])
    }
}

#[test]
fn update_with_self_referencing_assignment() {
    let mut db = small_db();
    // 10% raise for Denver employees; assignments read the OLD row.
    let r = db
        .execute(
            "UPDATE EMP SET SAL = SAL * 2, JOB = JOB + 1
             WHERE DNO IN (SELECT DNO FROM DEPT WHERE LOC = 'DENVER')",
        )
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(4));
    let r = db.query("SELECT NAME, SAL, JOB FROM EMP ORDER BY NAME").unwrap();
    let by_name: Vec<(String, f64, i64)> = r
        .rows
        .iter()
        .map(|t| {
            (
                t[0].as_str().unwrap().to_string(),
                float_column(std::slice::from_ref(t), 1)[0],
                t[2].as_int().unwrap(),
            )
        })
        .collect();
    assert_eq!(by_name[0], ("ADAMS".into(), 14_000.0, 6)); // Denver: doubled
    assert_eq!(by_name[1], ("BLAKE".into(), 9_000.0, 5)); // Tucson: unchanged
    assert_eq!(by_name[4], ("SMITH".into(), 16_000.0, 6)); // Denver: doubled
}

#[test]
fn update_without_where_touches_all_rows() {
    let mut db = Database::new();
    db.execute("CREATE TABLE T (A INTEGER)").unwrap();
    db.execute("INSERT INTO T VALUES (1), (2), (3)").unwrap();
    let r = db.execute("UPDATE T SET A = A + 100").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(3));
    let r = db.query("SELECT A FROM T ORDER BY A").unwrap();
    assert_eq!(int_column(&r.rows, 0), vec![101, 102, 103]);
}

#[test]
fn update_maintains_indexes() {
    let mut db = Database::new();
    db.execute("CREATE TABLE T (A INTEGER, B INTEGER)").unwrap();
    db.insert_rows("T", (0..200).map(|i| tuple![i, i % 10])).unwrap();
    db.execute("CREATE UNIQUE INDEX T_A ON T (A)").unwrap();
    db.execute("UPDATE STATISTICS").unwrap();
    db.execute("UPDATE T SET A = A + 1000 WHERE B = 3").unwrap();
    // Index probes must see the new keys and miss the old ones.
    let r = db.query("SELECT B FROM T WHERE A = 1003").unwrap();
    assert_eq!(r.len(), 1);
    let r = db.query("SELECT B FROM T WHERE A = 3").unwrap();
    assert_eq!(r.len(), 0);
    // Unique index still intact overall.
    let r = db.query("SELECT COUNT(*) FROM T").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(200));
}

#[test]
fn update_unknown_column_errors() {
    let mut db = Database::new();
    db.execute("CREATE TABLE T (A INTEGER)").unwrap();
    assert!(db.execute("UPDATE T SET NOPE = 1").is_err());
}

#[test]
fn scalar_subquery_from_paper() {
    let db = employee_db(100, 10).unwrap();
    // Everyone above the average salary.
    let r = db
        .query(
            "SELECT NAME FROM EMPLOYEE
             WHERE SALARY > (SELECT AVG(SALARY) FROM EMPLOYEE)",
        )
        .unwrap();
    let all = db.query("SELECT SALARY FROM EMPLOYEE").unwrap();
    let sals = float_column(&all.rows, 0);
    let avg = sals.iter().sum::<f64>() / sals.len() as f64;
    let expect = sals.iter().filter(|&&s| s > avg).count();
    assert_eq!(r.len(), expect);
    assert!(!r.is_empty() && r.len() < 100);
}

#[test]
fn in_subquery_from_paper() {
    let db = employee_db(100, 10).unwrap();
    let r = db
        .query(
            "SELECT NAME FROM EMPLOYEE WHERE DEPARTMENT_NUMBER IN
               (SELECT DEPARTMENT_NUMBER FROM DEPARTMENT WHERE LOCATION = 'DENVER')",
        )
        .unwrap();
    // Departments 0..3 are in Denver; employees are spread i % 10.
    assert_eq!(r.len(), 30);
    let r = db
        .query(
            "SELECT NAME FROM EMPLOYEE WHERE DEPARTMENT_NUMBER NOT IN
               (SELECT DEPARTMENT_NUMBER FROM DEPARTMENT WHERE LOCATION = 'DENVER')",
        )
        .unwrap();
    assert_eq!(r.len(), 70);
}

#[test]
fn correlated_subquery_earn_more_than_manager() {
    let db = employee_db(50, 5).unwrap();
    let r = db
        .query(
            "SELECT NAME FROM EMPLOYEE X WHERE SALARY >
               (SELECT SALARY FROM EMPLOYEE WHERE EMPLOYEE_NUMBER = X.MANAGER)",
        )
        .unwrap();
    // Verify against direct computation.
    let all = db
        .query(
            "SELECT NAME, SALARY, EMPLOYEE_NUMBER, MANAGER FROM EMPLOYEE ORDER BY EMPLOYEE_NUMBER",
        )
        .unwrap();
    let sal_of: Vec<f64> = float_column(&all.rows, 1);
    let expect: Vec<String> = all
        .rows
        .iter()
        .filter(|t| {
            let sal = match &t[1] {
                Value::Float(x) => *x,
                _ => unreachable!(),
            };
            let mgr = t[3].as_int().unwrap() as usize;
            sal > sal_of[mgr]
        })
        .map(|t| t[0].as_str().unwrap().to_string())
        .collect();
    let mut got = str_column(&r.rows, 0);
    let mut expect_sorted = expect.clone();
    got.sort();
    expect_sorted.sort();
    assert_eq!(got, expect_sorted);
    assert!(!got.is_empty());
}

#[test]
fn three_level_nesting_from_paper() {
    let db = employee_db(60, 4).unwrap();
    // Earn more than their manager's manager.
    let r = db
        .query(
            "SELECT NAME FROM EMPLOYEE X WHERE SALARY >
               (SELECT SALARY FROM EMPLOYEE WHERE EMPLOYEE_NUMBER =
                 (SELECT MANAGER FROM EMPLOYEE WHERE EMPLOYEE_NUMBER = X.MANAGER))",
        )
        .unwrap();
    let all = db.query("SELECT SALARY, MANAGER FROM EMPLOYEE ORDER BY EMPLOYEE_NUMBER").unwrap();
    let sal: Vec<f64> = float_column(&all.rows, 0);
    let mgr: Vec<i64> = int_column(&all.rows, 1);
    let expect =
        (0..60).filter(|&i| sal[i as usize] > sal[mgr[mgr[i as usize] as usize] as usize]).count();
    assert_eq!(r.len(), expect);
}

#[test]
fn subquery_as_probe_value_uses_index() {
    let db = employee_db(500, 10).unwrap();
    // The scalar subquery's value probes the unique EMPLOYEE_NUMBER index.
    let r = db
        .query(
            "SELECT NAME FROM EMPLOYEE WHERE EMPLOYEE_NUMBER =
               (SELECT MAX(DEPARTMENT_NUMBER) FROM DEPARTMENT)",
        )
        .unwrap();
    assert_eq!(str_column(&r.rows, 0), vec!["E00009"]);
    let plan = db
        .plan(
            "SELECT NAME FROM EMPLOYEE WHERE EMPLOYEE_NUMBER =
               (SELECT MAX(DEPARTMENT_NUMBER) FROM DEPARTMENT)",
        )
        .unwrap();
    let text = plan.explain(db.catalog());
    assert!(text.contains("INDEX SCAN"), "{text}");
    assert!(text.contains("subquery#0"), "{text}");
}

#[test]
fn scalar_subquery_multiple_rows_errors() {
    let db = employee_db(20, 5).unwrap();
    let err = db
        .query("SELECT NAME FROM EMPLOYEE WHERE SALARY = (SELECT SALARY FROM EMPLOYEE)")
        .unwrap_err();
    assert!(format!("{err}").contains("single value"), "{err}");
}

#[test]
fn fig1_query_full_pipeline() {
    let db = fig1_db(2000, 40, 10);
    let r = db
        .query(
            "SELECT NAME, TITLE, SAL, DNAME FROM EMP, DEPT, JOB
             WHERE TITLE = 'CLERK' AND LOC = 'DENVER'
               AND EMP.DNO = DEPT.DNO AND EMP.JOB = JOB.JOB",
        )
        .unwrap();
    // Independent verification via three separate queries.
    let clerks = db.query("SELECT JOB FROM JOB WHERE TITLE = 'CLERK'").unwrap();
    let clerk_jobs: Vec<i64> = int_column(&clerks.rows, 0);
    let denver = db.query("SELECT DNO FROM DEPT WHERE LOC = 'DENVER'").unwrap();
    let denver_dnos: Vec<i64> = int_column(&denver.rows, 0);
    let emps = db.query("SELECT DNO, JOB FROM EMP").unwrap();
    let expect = emps
        .rows
        .iter()
        .filter(|t| {
            denver_dnos.contains(&t[0].as_int().unwrap())
                && clerk_jobs.contains(&t[1].as_int().unwrap())
        })
        .count();
    assert_eq!(r.len(), expect);
    assert!(!r.is_empty(), "workload must produce clerk rows in Denver");
}

#[test]
fn all_enumerated_plans_agree_on_fig1(/* plan-independence of results */) {
    let db = fig1_db(600, 20, 10);
    let sql = "SELECT NAME, TITLE, SAL, DNAME FROM EMP, DEPT, JOB
               WHERE TITLE = 'CLERK' AND LOC = 'DENVER'
                 AND EMP.DNO = DEPT.DNO AND EMP.JOB = JOB.JOB";
    let (plans, _) = sysr_audit::harness::all_plans(&db, sql, 500).unwrap();
    assert!(plans.len() >= 10, "expected many alternative plans, got {}", plans.len());

    let mut reference_rows = db.query(sql).unwrap().rows;
    reference_rows.sort();
    for plan in plans {
        let mut rows = db.execute_plan(&plan).unwrap().rows;
        rows.sort();
        assert_eq!(rows, reference_rows, "every plan must produce the same result");
    }
}
