//! Shared test helpers. The databases themselves come from
//! `sysr_bench::workloads`, the fixtures the experiments use.
//!
//! Compiled into several test binaries, each using a different subset.
#![allow(dead_code)]

use sysr_bench::workloads::{self, Fig1Params};
use system_r::rss::{Tuple, Value};
use system_r::{Config, Database};

/// `workloads::fig1_db` at the given sizes on the default 64-page pool.
pub fn fig1_db(n_emp: i64, n_dept: i64, n_job: i64) -> Database {
    on_default_pool(Fig1Params { n_emp, n_dept, n_job, ..Fig1Params::default() })
}

/// `fig1_db` with EMP clustered on DNO: an order-producing DNO index scan
/// costs NINDX + TCARD pages, so a partial sort has a real alternative.
pub fn fig1_clustered_db(n_emp: i64, n_dept: i64, n_job: i64) -> Database {
    on_default_pool(Fig1Params {
        n_emp,
        n_dept,
        n_job,
        cluster_emp_dno: true,
        ..Fig1Params::default()
    })
}

fn on_default_pool(p: Fig1Params) -> Database {
    let buffer_pages = Config::default().buffer_pages;
    workloads::fig1_db(Fig1Params { buffer_pages, ..p }).expect("Fig. 1 database")
}

/// Extract a single integer column from a result set.
pub fn int_column(rows: &[Tuple], col: usize) -> Vec<i64> {
    rows.iter().map(|t| t[col].as_int().expect("integer column")).collect()
}

/// Extract a single string column.
pub fn str_column(rows: &[Tuple], col: usize) -> Vec<String> {
    rows.iter().map(|t| t[col].as_str().expect("string column").to_string()).collect()
}

/// Extract floats.
pub fn float_column(rows: &[Tuple], col: usize) -> Vec<f64> {
    rows.iter()
        .map(|t| match &t[col] {
            Value::Int(i) => *i as f64,
            Value::Float(x) => *x,
            other => panic!("not numeric: {other}"),
        })
        .collect()
}
