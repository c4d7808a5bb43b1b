//! # system-r — a reproduction of the System R access path selector
//!
//! This crate is the user-facing facade over the reproduction of
//! *Selinger et al., "Access Path Selection in a Relational Database
//! Management System", SIGMOD 1979*: a [`Database`] that runs SQL through
//! the paper's four phases — parsing (`sysr-sql`), optimization
//! (`sysr-core`, the paper's contribution), and execution
//! (`sysr-executor`) against a from-scratch storage system (`sysr-rss`)
//! with System R's catalogs and statistics (`sysr-catalog`).
//!
//! ```
//! use system_r::Database;
//!
//! let mut db = Database::new();
//! db.execute("CREATE TABLE EMP (NAME VARCHAR(20), DNO INTEGER, SAL FLOAT)").unwrap();
//! db.execute("INSERT INTO EMP VALUES ('SMITH', 50, 10000.0), ('JONES', 50, 20000.0)").unwrap();
//! db.execute("CREATE INDEX EMP_DNO ON EMP (DNO)").unwrap();
//! db.execute("UPDATE STATISTICS").unwrap();
//! let result = db.execute("SELECT NAME FROM EMP WHERE DNO = 50 ORDER BY NAME").unwrap();
//! assert_eq!(result.len(), 2);
//! println!("{}", db.explain("SELECT NAME FROM EMP WHERE DNO = 50").unwrap());
//! ```
//!
//! The cost model's knobs are exposed: the CPU weighting factor `W`, the
//! buffer pool size, and the two search heuristics (interesting orders,
//! Cartesian deferral) — the experiment harness sweeps all of them.
//!
//! ## Concurrent serving
//!
//! [`Database`] is `Send + Sync`: the read/plan/execute path takes
//! `&self` end to end, backed by the sharded buffer pool and latched
//! page backend in `sysr-rss` and the striped [`VersionedCache`] of
//! statement plans here (DESIGN.md §11 documents the latch order). Hand
//! each thread a [`Session`] via [`Database::session`] for per-session
//! cache accounting:
//!
//! ```
//! use system_r::Database;
//!
//! let mut db = Database::new();
//! db.execute("CREATE TABLE T (A INTEGER)").unwrap();
//! db.execute("INSERT INTO T VALUES (1), (2), (3)").unwrap();
//! std::thread::scope(|s| {
//!     for _ in 0..4 {
//!         let session = db.session();
//!         s.spawn(move || {
//!             let r = session.query("SELECT A FROM T WHERE A >= 2").unwrap();
//!             assert_eq!(r.len(), 2);
//!         });
//!     }
//! });
//! ```
//!
//! Mutations (`execute`, `insert_rows`, DDL, …) take `&mut self` and are
//! therefore serialized by the borrow checker — this reproduction has no
//! lock manager; concurrency control above the latch level is the
//! paper's companion work (Gray et al.), not Selinger et al.
//! [`Database::save`] and [`Database::sync`] are `&self` and safe to run
//! against concurrent readers: the buffer pool's write-back gate
//! guarantees every page that was dirty when the flush began has reached
//! the page backend before the snapshot is copied or the files are
//! fsynced (see the `sysr-rss` sharded-pool docs).

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::sync::Arc;
use sysr_catalog::{Catalog, CatalogError, ColumnMeta};
use sysr_core::{bind_select, BindError, NodeMeasurement, Optimizer, OptimizerConfig, QueryPlan};
use sysr_executor::{execute, execute_victims, ExecEnv, ExecError, ResultSet};
use sysr_rss::{IoStats, Rid, RssError, Storage, Tuple, Value};
use sysr_sql::{
    parse_one, parse_statements, ColumnRef, DeleteStmt, Expr, InsertStmt, ParseError, SelectItem,
    SelectList, SelectStmt, Statement, TableRef, UpdateStmt,
};

pub use sysr_catalog as catalog;
pub use sysr_core as core;
pub use sysr_executor as executor;
pub use sysr_rss as rss;
pub use sysr_sql as sql;

pub use sysr_core::OptimizerConfig as Config;
pub use sysr_rss::{tuple, ColType, VersionedCache, PLAN_CACHE_CAP};

/// Any error a statement can raise, across all phases.
#[derive(Debug, Clone, PartialEq)]
pub enum DbError {
    Parse(ParseError),
    Bind(BindError),
    Catalog(CatalogError),
    Storage(RssError),
    Exec(ExecError),
    Unsupported(String),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Parse(e) => write!(f, "{e}"),
            DbError::Bind(e) => write!(f, "{e}"),
            DbError::Catalog(e) => write!(f, "{e}"),
            DbError::Storage(e) => write!(f, "{e}"),
            DbError::Exec(e) => write!(f, "{e}"),
            DbError::Unsupported(m) => write!(f, "unsupported: {m}"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<ParseError> for DbError {
    fn from(e: ParseError) -> Self {
        DbError::Parse(e)
    }
}
impl From<BindError> for DbError {
    fn from(e: BindError) -> Self {
        DbError::Bind(e)
    }
}
impl From<CatalogError> for DbError {
    fn from(e: CatalogError) -> Self {
        DbError::Catalog(e)
    }
}
impl From<RssError> for DbError {
    fn from(e: RssError) -> Self {
        DbError::Storage(e)
    }
}
impl From<ExecError> for DbError {
    fn from(e: ExecError) -> Self {
        DbError::Exec(e)
    }
}

pub type DbResult<T> = Result<T, DbError>;

/// Statement plan cache, keyed by the exact SQL text of a SELECT: a
/// repeated statement skips the parser, and a hit hands out the shared
/// plan for one refcount. Only texts that parse to a bare SELECT are ever
/// keys — an EXPLAIN is cached under the body text of the SELECT it wraps
/// (see `sysr_sql::parse_statements`) — so a hit is a SELECT whatever entry
/// point asked. Whitespace or case variants of one statement are separate
/// entries, as they were separate statements to System R. Entries carry
/// the catalog version they were planned under and are discarded lazily
/// when DDL or `UPDATE STATISTICS` bumps it. Config changes clear the
/// cache eagerly (see [`Database::set_config`]), and `\open` builds a
/// fresh `Database`, so reopened databases always re-optimize.
type PlanCache = VersionedCache<Arc<QueryPlan>>;

/// An embedded System R-style database: storage, catalogs, optimizer,
/// executor.
pub struct Database {
    storage: Storage,
    catalog: Catalog,
    config: OptimizerConfig,
    /// Plans for previously optimized statements; concurrent, so
    /// planning stays `&self` and sessions share warmed plans.
    plan_cache: PlanCache,
}

/// `Database` is shared across session threads by reference; this
/// assertion keeps every field honest about it.
#[expect(dead_code, reason = "a compile-time check: it only has to type-check, never run")]
fn assert_database_is_shareable() {
    fn check<T: Send + Sync>() {}
    check::<Database>();
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Database {
    /// A database with the default buffer pool (matching the optimizer's
    /// default buffer assumption) and default cost-model parameters.
    pub fn new() -> Self {
        let config = OptimizerConfig::default();
        Database {
            storage: Storage::new(config.buffer_pages),
            catalog: Catalog::new(),
            config,
            plan_cache: PlanCache::new(),
        }
    }

    /// A database with explicit optimizer configuration; the buffer pool is
    /// sized to `config.buffer_pages` so predictions and measurements see
    /// the same buffer.
    pub fn with_config(config: OptimizerConfig) -> Self {
        Database {
            storage: Storage::new(config.buffer_pages),
            catalog: Catalog::new(),
            config,
            plan_cache: PlanCache::new(),
        }
    }

    pub fn config(&self) -> OptimizerConfig {
        self.config
    }

    /// Change the optimizer configuration, resizing the buffer pool to
    /// match. Shrinking writes dirty frames back before evicting, so this
    /// can fail on a storage error.
    pub fn set_config(&mut self, config: OptimizerConfig) -> DbResult<()> {
        self.config = config;
        // Every cached plan was chosen under the old knobs; drop them all
        // (counters survive — they describe the session, not the cache).
        self.plan_cache.clear_entries();
        self.storage.set_buffer_capacity(config.buffer_pages)?;
        Ok(())
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    pub fn storage(&self) -> &Storage {
        &self.storage
    }

    /// Execution-time I/O counters since the last reset.
    pub fn io_stats(&self) -> IoStats {
        self.storage.io_stats()
    }

    pub fn reset_io_stats(&self) {
        self.storage.reset_io_stats();
    }

    /// Evict the buffer pool (without clearing counters), so the next
    /// measured query starts cold. Dirty frames are written back to the
    /// page backend first.
    pub fn evict_buffers(&self) -> DbResult<()> {
        self.storage.evict_all()?;
        Ok(())
    }

    // ---- persistence -------------------------------------------------------

    /// Save the database into a directory: page files for every segment and
    /// index (written through the buffer pool's checksum/LSN stamping) plus
    /// `storage.meta` and `catalog.meta` descriptors. The saved snapshot
    /// reopens with [`Database::open`] with identical query results and
    /// catalog statistics. Safe to call while other threads read: the
    /// pre-copy flush drains in-flight dirty write-backs, so the
    /// snapshot always contains every committed mutation.
    pub fn save(&self, dir: impl AsRef<Path>) -> DbResult<()> {
        let dir = dir.as_ref();
        self.storage.save_to(dir)?;
        self.write_catalog_meta(dir)
    }

    /// Replace `catalog.meta` in `dir` atomically (see
    /// [`sysr_rss::write_file_atomic`]).
    fn write_catalog_meta(&self, dir: &Path) -> DbResult<()> {
        let path = dir.join(sysr_catalog::persist::CATALOG_META);
        sysr_rss::write_file_atomic(
            &path,
            sysr_catalog::persist::render(&self.catalog).as_bytes(),
        )?;
        Ok(())
    }

    /// Reopen a database saved with [`Database::save`], with default
    /// configuration. Page reads verify each page's checksum; a torn or
    /// corrupted file surfaces as a clean [`DbError::Storage`] error.
    pub fn open(dir: impl AsRef<Path>) -> DbResult<Database> {
        Self::open_with_config(dir, OptimizerConfig::default())
    }

    /// Reopen a saved database with explicit optimizer configuration. The
    /// reopened database reads and writes the page files in `dir` directly
    /// (new tables get their own segments regardless of how the saved
    /// database interleaved them).
    pub fn open_with_config(dir: impl AsRef<Path>, config: OptimizerConfig) -> DbResult<Database> {
        let dir = dir.as_ref();
        let storage = Storage::open(dir, config.buffer_pages)?;
        let path = dir.join(sysr_catalog::persist::CATALOG_META);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| DbError::Storage(RssError::Io(format!("read {}: {e}", path.display()))))?;
        let catalog = sysr_catalog::persist::parse(&text)?;
        Ok(Database { storage, catalog, config, plan_cache: PlanCache::new() })
    }

    /// Make every statement that has returned durable: flush dirty buffer
    /// frames, fsync the page files, then replace `storage.meta` and
    /// `catalog.meta` atomically (no-op for an in-memory database). A
    /// database reopened after a clean `sync` holds exactly what this one
    /// held; DESIGN.md §9 states what a crash leaves. Safe to call while
    /// other threads read: the flush drains in-flight dirty write-backs
    /// before the fsync, so no committed page image can be skipped.
    pub fn sync(&self) -> DbResult<()> {
        self.storage.sync()?;
        match self.storage.dir() {
            Some(dir) => self.write_catalog_meta(&dir),
            None => Ok(()),
        }
    }

    /// The directory backing this database, if it was opened from disk.
    pub fn dir(&self) -> Option<std::path::PathBuf> {
        self.storage.dir()
    }

    // ---- statements --------------------------------------------------------

    /// Execute one SQL statement.
    pub fn execute(&mut self, sql_text: &str) -> DbResult<ResultSet> {
        let (body, stmt) = parse_one(sql_text)?;
        self.execute_statement(body, stmt)
    }

    /// Execute a semicolon-separated script, returning the last statement's
    /// result. Each SELECT's plan is cached under its own text.
    pub fn execute_script(&mut self, script: &str) -> DbResult<ResultSet> {
        let mut last = ResultSet::empty();
        for (body, stmt) in parse_statements(script)? {
            last = self.execute_statement(body, stmt)?;
        }
        Ok(last)
    }

    /// Run one parsed statement; `body` is its body text, the cache key of
    /// the SELECT it runs or explains.
    fn execute_statement(&mut self, body: &str, stmt: Statement) -> DbResult<ResultSet> {
        match stmt {
            Statement::Select(sel) => {
                let (plan, _) = self.plan_select(body, &sel)?;
                self.execute_plan(&plan)
            }
            Statement::CreateTable(ct) => {
                let segment = self.storage.create_segment();
                let columns =
                    ct.columns.iter().map(|(n, t)| ColumnMeta::new(n.as_str(), *t)).collect();
                self.catalog.create_relation(&ct.name, segment, columns)?;
                Ok(ResultSet::empty())
            }
            Statement::CreateIndex(ci) => {
                let (rel_id, segment, key_cols) = {
                    let rel = self.catalog.relation_by_name(&ci.table)?;
                    let key_cols: Vec<usize> = ci
                        .columns
                        .iter()
                        .map(|c| column_position(rel, c))
                        .collect::<DbResult<_>>()?;
                    (rel.id, rel.segment, key_cols)
                };
                if ci.clustered {
                    // Physically reorganize so the index really is
                    // clustered, as a System R reorganization utility would.
                    self.storage.cluster_relation(segment, rel_id, &key_cols)?;
                }
                let idx =
                    self.storage.create_index(segment, rel_id, key_cols.clone(), ci.unique)?;
                self.catalog.register_index(
                    idx,
                    &ci.name,
                    rel_id,
                    key_cols,
                    ci.unique,
                    ci.clustered,
                )?;
                // "Initial relation loading and index creation initialize
                // these statistics."
                self.catalog.update_statistics(&self.storage);
                Ok(ResultSet::empty())
            }
            Statement::Insert(ins) => self.run_insert(&ins),
            Statement::Delete(del) => self.run_delete(&del),
            Statement::Update(upd) => self.run_update(&upd),
            Statement::UpdateStatistics => {
                self.catalog.update_statistics(&self.storage);
                Ok(ResultSet::empty())
            }
            Statement::Explain(inner) => {
                // UPDATE and DELETE explain the access path that finds
                // their victims; nothing is executed or mutated.
                let plan = match *inner {
                    Statement::Select(sel) => self.plan_select(body, &sel)?.0,
                    Statement::Delete(del) => {
                        Arc::new(self.plan_victims(&del.table, &[], &del.where_clause)?)
                    }
                    Statement::Update(upd) => Arc::new(self.plan_victims(
                        &upd.table,
                        &upd.assignments,
                        &upd.where_clause,
                    )?),
                    _ => {
                        return Err(DbError::Unsupported(
                            "EXPLAIN requires a SELECT, UPDATE or DELETE".into(),
                        ))
                    }
                };
                let text = self.render_explain(&plan);
                Ok(ResultSet::new(vec!["PLAN".into()], vec![Tuple::new(vec![Value::Str(text)])]))
            }
            Statement::ExplainAnalyze(inner) => {
                let Statement::Select(sel) = *inner else {
                    return Err(DbError::Unsupported(
                        "EXPLAIN ANALYZE requires a SELECT (it executes the statement; \
                         use plain EXPLAIN for UPDATE and DELETE)"
                            .into(),
                    ));
                };
                let (plan, _) = self.plan_select(body, &sel)?;
                let (_, measurements, _) = self.execute_plan_traced(&plan)?;
                let mut text = plan.explain_analyze(&self.catalog, &measurements, self.config.w);
                let (hits, misses) = self.plan_cache_stats();
                text.push_str(&format!("plan cache: {hits} hits, {misses} misses\n"));
                Ok(ResultSet::new(vec!["PLAN".into()], vec![Tuple::new(vec![Value::Str(text)])]))
            }
        }
    }

    /// Plan a SELECT without executing it. The plan is the cached one,
    /// shared with every other holder.
    pub fn plan(&self, sql_text: &str) -> DbResult<Arc<QueryPlan>> {
        Ok(self.plan_text(sql_text, true)?.0)
    }

    /// EXPLAIN: render the chosen plan.
    pub fn explain(&self, sql_text: &str) -> DbResult<String> {
        let plan = self.plan(sql_text)?;
        Ok(self.render_explain(&plan))
    }

    /// The EXPLAIN text of a plan: the tree, then the predicted cost and
    /// cardinality of the whole statement.
    fn render_explain(&self, plan: &QueryPlan) -> String {
        format!(
            "{}predicted: {} (W={}); QCARD≈{:.1}\n",
            plan.explain(&self.catalog),
            plan.predicted,
            self.config.w,
            plan.qcard
        )
    }

    /// Run a read-only SELECT.
    pub fn query(&self, sql_text: &str) -> DbResult<ResultSet> {
        let (plan, _) = self.plan_text(sql_text, false)?;
        self.execute_plan(&plan)
    }

    /// Execute an already-planned SELECT (the §7 experiments execute every
    /// enumerated plan this way).
    pub fn execute_plan(&self, plan: &QueryPlan) -> DbResult<ResultSet> {
        let env = ExecEnv::new(&self.storage, &self.catalog);
        Ok(execute(&env, plan)?)
    }

    /// Execute a plan with per-node measurement: returns the result set,
    /// the measurements keyed by pre-order node id (see
    /// `sysr_core::analyze`), and the whole-query [`IoStats`] delta. The
    /// per-node I/O sums to the delta exactly.
    pub fn execute_plan_traced(
        &self,
        plan: &QueryPlan,
    ) -> DbResult<(ResultSet, HashMap<usize, NodeMeasurement>, IoStats)> {
        let mut env = ExecEnv::with_tracer(&self.storage, &self.catalog);
        let start = self.storage.io_stats();
        let result = execute(&env, plan)?;
        let delta = self.storage.io_stats().since(&start);
        let measurements = env.take_measurements();
        Ok((result, measurements, delta))
    }

    /// `EXPLAIN ANALYZE`: run the query and render the per-node
    /// predicted-vs-measured report.
    pub fn explain_analyze(&self, sql_text: &str) -> DbResult<String> {
        let plan = self.plan(sql_text)?;
        let (_, measurements, _) = self.execute_plan_traced(&plan)?;
        let mut text = plan.explain_analyze(&self.catalog, &measurements, self.config.w);
        let (hits, misses) = self.plan_cache_stats();
        text.push_str(&format!("plan cache: {hits} hits, {misses} misses\n"));
        Ok(text)
    }

    /// Render the optimizer's join-order search trace for a SELECT: per
    /// subset level and interesting-order class, the candidates generated,
    /// plans pruned, and surviving cheapest costs — for every query block.
    pub fn search_trace(&self, sql_text: &str) -> DbResult<String> {
        let (_, sel) = select_of(sql_text, true)?;
        let optimizer = Optimizer::with_config(&self.catalog, self.config);
        let (_, traces) = optimizer.optimize_traced(&sel)?;
        let mut out = String::new();
        for (label, trace) in &traces {
            out.push_str(&format!("== block {label} ==\n{}", trace.render()));
        }
        Ok(out)
    }

    /// Plan the SELECT `sql_text` names — where `explain_ok`, also the one
    /// inside an `EXPLAIN [ANALYZE]` — through the cache; the flag reports
    /// whether the plan was a cache hit (sessions fold it into their own
    /// accounting). A repeated text is one cache lookup: no parse, no key
    /// to build, no plan to copy. Every key is a bare SELECT's text, so a
    /// hit needs no `explain_ok` check.
    fn plan_text(&self, sql_text: &str, explain_ok: bool) -> DbResult<(Arc<QueryPlan>, bool)> {
        if let Some(plan) = self.plan_cache.lookup(sql_text, self.catalog.version()) {
            return Ok((plan, true));
        }
        let (body, sel) = select_of(sql_text, explain_ok)?;
        self.plan_select(body, &sel)
    }

    /// Plan the parsed SELECT `sel`, whose body text is `body`, through the
    /// cache; the flag reports whether the plan was a cache hit.
    fn plan_select(&self, body: &str, sel: &SelectStmt) -> DbResult<(Arc<QueryPlan>, bool)> {
        let version = self.catalog.version();
        if let Some(plan) = self.plan_cache.lookup(body, version) {
            return Ok((plan, true));
        }
        let optimizer = Optimizer::with_config(&self.catalog, self.config);
        let plan = Arc::new(optimizer.optimize(sel)?);
        self.plan_cache.insert(body.to_string(), version, Arc::clone(&plan));
        Ok((plan, false))
    }

    /// Cumulative statement-plan-cache counters `(hits, misses)` for this
    /// database handle. A hit means the statement was answered with a
    /// cached plan; a miss means the optimizer ran. Counting is exact
    /// under concurrency: `hits + misses` equals the number of successful
    /// plan requests across all sessions.
    pub fn plan_cache_stats(&self) -> (u64, u64) {
        self.plan_cache.stats()
    }

    /// Number of plans currently cached (tests and the shell's `\cache`).
    pub fn plan_cache_len(&self) -> usize {
        self.plan_cache.len()
    }

    /// Open a [`Session`]: a lightweight per-thread handle for the
    /// read-only plan/execute path with session-local cache accounting.
    pub fn session(&self) -> Session<'_> {
        Session { db: self, hits: Cell::new(0), misses: Cell::new(0) }
    }

    // ---- INSERT -------------------------------------------------------------

    /// `INSERT INTO t [(cols)] VALUES (...), (...)`: the statement is
    /// atomic — every row is evaluated and type-checked, and the whole
    /// batch validated against the unique indexes, before the first tuple
    /// is stored; on any error no row of the statement is inserted.
    fn run_insert(&mut self, ins: &InsertStmt) -> DbResult<ResultSet> {
        let (rel_id, segment, arity, positions, types) = {
            let rel = self.catalog.relation_by_name(&ins.table)?;
            let positions: Vec<usize> = match &ins.columns {
                None => (0..rel.arity()).collect(),
                Some(cols) => {
                    cols.iter().map(|c| column_position(rel, c)).collect::<DbResult<_>>()?
                }
            };
            let types: Vec<ColType> = rel.columns.iter().map(|c| c.ty).collect();
            (rel.id, rel.segment, rel.arity(), positions, types)
        };
        let mut tuples = Vec::with_capacity(ins.rows.len());
        for row in &ins.rows {
            if row.len() != positions.len() {
                return Err(DbError::Unsupported(format!(
                    "INSERT row has {} values for {} columns",
                    row.len(),
                    positions.len()
                )));
            }
            let mut values = vec![Value::Null; arity];
            for (expr, &pos) in row.iter().zip(&positions) {
                let v = const_eval(expr)?;
                let v = coerce(v, types[pos])?;
                values[pos] = v;
            }
            tuples.push(Tuple::new(values));
        }
        let inserted = self.storage.insert_many(segment, rel_id, tuples)?.len();
        Ok(count_result("INSERTED", inserted))
    }

    /// Bulk-load pre-built tuples (examples and benches use this instead of
    /// millions of INSERT statements). One statement, like a multi-row
    /// `INSERT`: all rows are checked first, and either all are loaded —
    /// with one page flush for the lot — or none.
    pub fn insert_rows(
        &mut self,
        table: &str,
        rows: impl IntoIterator<Item = Tuple>,
    ) -> DbResult<usize> {
        let (rel_id, segment, types) = {
            let rel = self.catalog.relation_by_name(table)?;
            let types: Vec<ColType> = rel.columns.iter().map(|c| c.ty).collect();
            (rel.id, rel.segment, types)
        };
        // Every value goes through the conversion INSERT applies, so a row
        // loaded here holds what the same row inserted by SQL holds.
        let rows = rows
            .into_iter()
            .map(|row| {
                if row.arity() != types.len() {
                    return Err(DbError::Unsupported(format!(
                        "row arity {} != table arity {}",
                        row.arity(),
                        types.len()
                    )));
                }
                let mut values = row.into_values();
                for (v, &ty) in values.iter_mut().zip(&types) {
                    *v = coerce(std::mem::replace(v, Value::Null), ty)?;
                }
                Ok(Tuple::new(values))
            })
            .collect::<DbResult<Vec<Tuple>>>()?;
        Ok(self.storage.insert_many(segment, rel_id, rows)?.len())
    }

    // ---- DELETE / UPDATE ------------------------------------------------------

    /// Plan the retrieval half of an UPDATE or DELETE. "Retrieval for data
    /// manipulation is treated similarly" (§1): the victims are the rows of
    /// `SELECT <all columns>, <assignment exprs> FROM t WHERE ...`, found by
    /// whatever access path the optimizer picks for that single-table
    /// block (DELETE has no assignments).
    fn plan_victims(
        &self,
        table: &str,
        assignments: &[(String, Expr)],
        where_clause: &Option<Expr>,
    ) -> DbResult<QueryPlan> {
        let rel = self.catalog.relation_by_name(table)?;
        let old_row = rel.columns.iter().map(|c| Expr::Column(ColumnRef::unqualified(&c.name)));
        let new_values = assignments.iter().map(|(_, e)| e.clone());
        let sel = SelectStmt {
            distinct: false,
            select: SelectList::Items(
                old_row.chain(new_values).map(|expr| SelectItem { expr, alias: None }).collect(),
            ),
            from: vec![TableRef { table: table.to_string(), alias: None }],
            where_clause: where_clause.clone(),
            group_by: vec![],
            order_by: vec![],
        };
        let bound = bind_select(&self.catalog, &sel)?;
        Ok(Optimizer::with_config(&self.catalog, self.config).optimize_bound(&bound))
    }

    /// Run a DML statement's victim scan to completion: every victim's RID
    /// and projected row, collected before anything is mutated — a
    /// subquery over the target table, or an UPDATE that moves rows along
    /// the index being scanned, sees the pre-statement state throughout.
    fn victims(&self, plan: &QueryPlan) -> DbResult<Vec<(Rid, Tuple)>> {
        let env = ExecEnv::new(&self.storage, &self.catalog);
        Ok(execute_victims(&env, plan)?)
    }

    fn run_delete(&mut self, del: &DeleteStmt) -> DbResult<ResultSet> {
        let plan = self.plan_victims(&del.table, &[], &del.where_clause)?;
        let rids: Vec<Rid> = self.victims(&plan)?.into_iter().map(|(rid, _)| rid).collect();
        let rel = self.catalog.relation_by_name(&del.table)?;
        self.storage.delete_many(rel.segment, rel.id, &rids)?;
        Ok(count_result("DELETED", rids.len()))
    }

    /// `UPDATE t SET c = expr, ... [WHERE ...]`: every assignment is
    /// evaluated against the *old* row by the victim scan itself; the
    /// victims are then replaced by RID. Atomic for the errors a statement
    /// can cause (type mismatch, unique-key collision, oversized tuple):
    /// all are detected before the first tuple is touched.
    fn run_update(&mut self, upd: &UpdateStmt) -> DbResult<ResultSet> {
        let plan = self.plan_victims(&upd.table, &upd.assignments, &upd.where_clause)?;
        let rel = self.catalog.relation_by_name(&upd.table)?;
        let targets: Vec<(usize, ColType)> = upd
            .assignments
            .iter()
            .map(|(c, _)| column_position(rel, c).map(|pos| (pos, rel.columns[pos].ty)))
            .collect::<DbResult<_>>()?;
        let mut changes = Vec::new();
        for (rid, row) in self.victims(&plan)? {
            // The victim row is the old tuple followed by one value per
            // assignment.
            let mut values = row.into_values();
            let assigned = values.split_off(rel.arity());
            for (v, &(pos, ty)) in assigned.into_iter().zip(&targets) {
                values[pos] = coerce(v, ty)?;
            }
            changes.push((rid, Tuple::new(values)));
        }
        self.storage.update_many(rel.segment, rel.id, &changes)?;
        Ok(count_result("UPDATED", changes.len()))
    }
}

/// A per-thread handle on a shared [`Database`] for the read-only
/// plan/execute path.
///
/// Sessions borrow the database immutably, so any number may run
/// concurrently (`std::thread::scope` pairs naturally with the borrow).
/// Mutable session state — the per-session view of plan-cache traffic,
/// and the `EXPLAIN ANALYZE` tracer allocated per call — lives here, not
/// in the shared `Database`, which is why `Session` is deliberately
/// `!Sync`: each thread opens its own.
pub struct Session<'db> {
    db: &'db Database,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

impl<'db> Session<'db> {
    /// The shared database this session serves from.
    pub fn database(&self) -> &'db Database {
        self.db
    }

    fn plan_counted(&self, sql_text: &str, explain_ok: bool) -> DbResult<Arc<QueryPlan>> {
        let (plan, hit) = self.db.plan_text(sql_text, explain_ok)?;
        let counter = if hit { &self.hits } else { &self.misses };
        counter.set(counter.get() + 1);
        Ok(plan)
    }

    /// Plan a SELECT without executing it (through the shared cache).
    pub fn plan(&self, sql_text: &str) -> DbResult<Arc<QueryPlan>> {
        self.plan_counted(sql_text, true)
    }

    /// Run a read-only SELECT.
    pub fn query(&self, sql_text: &str) -> DbResult<ResultSet> {
        let plan = self.plan_counted(sql_text, false)?;
        self.db.execute_plan(&plan)
    }

    /// EXPLAIN: render the chosen plan.
    pub fn explain(&self, sql_text: &str) -> DbResult<String> {
        let plan = self.plan_counted(sql_text, true)?;
        Ok(self.db.render_explain(&plan))
    }

    /// `EXPLAIN ANALYZE`: run the query and render the per-node
    /// predicted-vs-measured report, with this session's cache traffic.
    pub fn explain_analyze(&self, sql_text: &str) -> DbResult<String> {
        let plan = self.plan_counted(sql_text, true)?;
        let (_, measurements, _) = self.db.execute_plan_traced(&plan)?;
        let mut text = plan.explain_analyze(&self.db.catalog, &measurements, self.db.config.w);
        let (hits, misses) = self.cache_stats();
        text.push_str(&format!("session plan cache: {hits} hits, {misses} misses\n"));
        Ok(text)
    }

    /// Execute an already-planned SELECT.
    pub fn execute_plan(&self, plan: &QueryPlan) -> DbResult<ResultSet> {
        self.db.execute_plan(plan)
    }

    /// This session's own view of plan-cache traffic `(hits, misses)` —
    /// only statements planned through this handle, unlike the
    /// database-wide [`Database::plan_cache_stats`].
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.hits.get(), self.misses.get())
    }
}

/// Parse `sql_text` down to the SELECT it names and that SELECT's body
/// text: the statement itself, or — where `explain_ok` — the SELECT inside
/// an `EXPLAIN [ANALYZE]` wrapper. The entry points that *run* a statement
/// pass `false`, so `EXPLAIN SELECT …` is rejected instead of silently
/// executed.
fn select_of(sql_text: &str, explain_ok: bool) -> DbResult<(&str, SelectStmt)> {
    match parse_one(sql_text)? {
        (body, Statement::Select(sel)) => Ok((body, sel)),
        (body, Statement::Explain(inner) | Statement::ExplainAnalyze(inner)) if explain_ok => {
            match *inner {
                Statement::Select(sel) => Ok((body, sel)),
                _ => Err(DbError::Unsupported("EXPLAIN requires a SELECT".into())),
            }
        }
        _ => Err(DbError::Unsupported("expected a plain SELECT statement".into())),
    }
}

/// Position of a named column in `rel`, or the catalog's unknown-column
/// error.
fn column_position(rel: &sysr_catalog::RelationMeta, column: &str) -> DbResult<usize> {
    rel.column_position(column).ok_or_else(|| {
        DbError::Catalog(CatalogError::UnknownColumn {
            relation: rel.name.clone(),
            column: column.to_string(),
        })
    })
}

/// The one-row result of a DML statement: how many tuples it affected.
fn count_result(label: &str, n: usize) -> ResultSet {
    ResultSet::new(vec![label.into()], vec![Tuple::new(vec![Value::Int(n as i64)])])
}

/// Evaluate a constant expression from an INSERT VALUES list.
fn const_eval(expr: &Expr) -> DbResult<Value> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Neg(inner) => match const_eval(inner)? {
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Float(x) => Ok(Value::Float(-x)),
            other => Err(DbError::Unsupported(format!("cannot negate {other}"))),
        },
        Expr::Arith { op, left, right } => {
            let l = const_eval(left)?;
            let r = const_eval(right)?;
            let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) else {
                return Err(DbError::Unsupported("non-numeric arithmetic in VALUES".into()));
            };
            use sysr_sql::ArithOp;
            let x = match op {
                ArithOp::Add => a + b,
                ArithOp::Sub => a - b,
                ArithOp::Mul => a * b,
                ArithOp::Div => {
                    if b == 0.0 {
                        return Err(DbError::Unsupported("division by zero in VALUES".into()));
                    }
                    a / b
                }
            };
            match (l, r) {
                (Value::Int(_), Value::Int(_)) => Ok(Value::Int(x as i64)),
                _ => Ok(Value::Float(x)),
            }
        }
        other => {
            Err(DbError::Unsupported(format!("VALUES entries must be constants, got {other:?}")))
        }
    }
}

/// Coerce an inserted value to the column type (Int → Float only).
fn coerce(v: Value, ty: ColType) -> DbResult<Value> {
    match (&v, ty) {
        (Value::Int(i), ColType::Float) => Ok(Value::Float(*i as f64)),
        _ if v.fits(ty) => Ok(v),
        _ => Err(DbError::Unsupported(format!("value {v} does not fit column type {ty}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quickstart_roundtrip() {
        let mut db = Database::new();
        db.execute("CREATE TABLE T (A INTEGER, B VARCHAR(10))").unwrap();
        db.execute("INSERT INTO T VALUES (1, 'x'), (2, 'y'), (3, 'z')").unwrap();
        let r = db.execute("SELECT B FROM T WHERE A >= 2 ORDER BY A DESC").unwrap();
        assert_eq!(r.rows, vec![tuple!["z"], tuple!["y"]]);
    }

    #[test]
    fn insert_rows_stores_what_insert_stores() {
        // An Int loaded into a FLOAT column is converted as INSERT converts
        // it, so both rows hold the same value bit for bit: `Value`'s `Eq`
        // alone would call Int(2^53 + 1) and Float(2^53) equal.
        let mut db = Database::new();
        db.execute("CREATE TABLE T (A INTEGER, C FLOAT)").unwrap();
        db.execute("INSERT INTO T VALUES (1, 9007199254740993)").unwrap();
        db.insert_rows("T", vec![tuple![2i64, 9_007_199_254_740_993i64]]).unwrap();
        let r = db.execute("SELECT A, C FROM T ORDER BY A").unwrap();
        let stored: Vec<String> = r.rows.iter().map(|t| format!("{:?}", t[1])).collect();
        assert_eq!(stored, vec![format!("{:?}", Value::Float(9_007_199_254_740_992.0)); 2]);
    }

    #[test]
    fn insert_column_list_and_defaults() {
        let mut db = Database::new();
        db.execute("CREATE TABLE T (A INTEGER, B VARCHAR(10), C FLOAT)").unwrap();
        db.execute("INSERT INTO T (C, A) VALUES (5, 1)").unwrap();
        let r = db.execute("SELECT A, B, C FROM T").unwrap();
        assert_eq!(r.rows, vec![tuple![1i64, Value::Null, 5.0]]);
    }

    #[test]
    fn delete_with_predicate() {
        let mut db = Database::new();
        db.execute("CREATE TABLE T (A INTEGER)").unwrap();
        db.execute("INSERT INTO T VALUES (1), (2), (3), (2)").unwrap();
        let r = db.execute("DELETE FROM T WHERE A = 2").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(2));
        let r = db.execute("SELECT A FROM T ORDER BY A").unwrap();
        assert_eq!(r.rows, vec![tuple![1], tuple![3]]);
    }

    #[test]
    fn explain_mentions_plan_shape() {
        let mut db = Database::new();
        db.execute("CREATE TABLE T (A INTEGER)").unwrap();
        db.insert_rows("T", (0..2000).map(|i| tuple![i])).unwrap();
        db.execute("CREATE UNIQUE INDEX T_A ON T (A)").unwrap();
        let text = db.explain("SELECT A FROM T WHERE A = 1").unwrap();
        assert!(text.contains("INDEX SCAN"), "{text}");
        assert!(text.contains("predicted"), "{text}");
        // A tiny table goes the other way: the whole relation is one page,
        // cheaper than the 1+1+W unique probe.
        let mut tiny = Database::new();
        tiny.execute("CREATE TABLE S (A INTEGER)").unwrap();
        tiny.execute("INSERT INTO S VALUES (1)").unwrap();
        tiny.execute("CREATE UNIQUE INDEX S_A ON S (A)").unwrap();
        let text = tiny.explain("SELECT A FROM S WHERE A = 1").unwrap();
        assert!(text.contains("SEGMENT SCAN"), "{text}");
    }

    #[test]
    fn errors_surface_by_phase() {
        let mut db = Database::new();
        assert!(matches!(db.execute("SELEC"), Err(DbError::Parse(_))));
        assert!(matches!(db.execute("SELECT X FROM NOPE"), Err(DbError::Bind(_))));
        db.execute("CREATE TABLE T (A INTEGER)").unwrap();
        assert!(matches!(db.execute("CREATE TABLE T (A INTEGER)"), Err(DbError::Catalog(_))));
        assert!(matches!(
            db.execute("INSERT INTO T VALUES ('nope')"),
            Err(DbError::Unsupported(_))
        ));
    }

    #[test]
    fn save_and_open_roundtrip_via_sql() {
        let dir = std::env::temp_dir().join(format!("sysr-facade-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut db = Database::new();
        db.execute("CREATE TABLE T (A INTEGER, B VARCHAR(10))").unwrap();
        db.insert_rows("T", (0..500).map(|i| tuple![i, format!("v{i}")])).unwrap();
        db.execute("CREATE UNIQUE INDEX T_A ON T (A)").unwrap();
        db.execute("UPDATE STATISTICS").unwrap();
        let q = "SELECT B FROM T WHERE A >= 490 ORDER BY A";
        let before = db.execute(q).unwrap();
        db.save(&dir).unwrap();
        drop(db);

        let mut back = Database::open(&dir).unwrap();
        assert_eq!(back.execute(q).unwrap().rows, before.rows);
        let rel = back.catalog().relation_by_name("T").unwrap();
        assert!(rel.stats.valid, "statistics survive reopen");
        assert_eq!(rel.stats.ncard, 500);
        // The reopened database accepts new writes and enforces the index.
        back.execute("INSERT INTO T VALUES (1000, 'new')").unwrap();
        assert!(back.execute("INSERT INTO T VALUES (1000, 'dup')").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unique_index_enforced_through_sql() {
        let mut db = Database::new();
        db.execute("CREATE TABLE T (A INTEGER)").unwrap();
        db.execute("CREATE UNIQUE INDEX T_A ON T (A)").unwrap();
        db.execute("INSERT INTO T VALUES (1)").unwrap();
        assert!(matches!(db.execute("INSERT INTO T VALUES (1)"), Err(DbError::Storage(_))));
    }
}
