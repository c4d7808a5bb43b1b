//! Seeded data generators: plain-Rust rows first, database second.
//!
//! Every generator produces ordinary Rust structs from a seed and only
//! then loads them into a [`Database`]. The oracle (`oracle.rs`) computes
//! expected results from the structs, never from the database, and
//! nothing here imports `sysr_bench::workloads`: a later change to the
//! system under test (or to its other benches) cannot move this
//! benchmark's inputs. Same seed ⇒ same rows ⇒ same [`Shop::checksum`].

use crate::oracle::{row_hash, V};
use system_r::{tuple, Database, DbResult};

/// SplitMix64, restated here so the benchmark's inputs do not depend on
/// `sysr_rss::SplitMix64` staying bit-compatible.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `[0, n)`; `n` of 0 yields 0.
    pub fn below(&mut self, n: u64) -> u64 {
        let wide = u128::from(self.next_u64()) * u128::from(n);
        u64::try_from(wide >> 64).unwrap_or(0)
    }

    /// Uniform `i64` from `[lo, hi)`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        let span = u64::try_from(hi.saturating_sub(lo)).unwrap_or(0);
        lo.saturating_add(i64::try_from(self.below(span)).unwrap_or(0))
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = usize::try_from(self.below(i as u64 + 1)).unwrap_or(0);
            items.swap(i, j);
        }
    }
}

// ---- shop ---------------------------------------------------------------

pub const SHOP_ORDERS: i64 = 200_000;
/// Orders per customer: ORDERS is always 20× CUSTOMER.
pub const ORDERS_PER_CUSTOMER: i64 = 20;
/// STATUS is uniform over this many values, so `STATUS = s` keeps ≈ 10k
/// of the 200k orders.
pub const SHOP_STATUSES: i64 = 20;
/// AMOUNT is a whole number below this, stored as FLOAT (whole numbers
/// keep float SUMs exact regardless of summation order).
pub const SHOP_MAX_AMOUNT: i64 = 100_000;
/// Pad width that puts ≈ 48 orders on a 4 KB page (≈ 4.2k pages).
const ORDER_PAD: usize = 36;

#[derive(Debug, Clone, PartialEq)]
pub struct Order {
    pub oid: i64,
    pub cust: i64,
    pub amount: f64,
    pub status: i64,
    pub pad: String,
}

impl Order {
    pub fn generate(oid: i64, customers: i64, rng: &mut Rng) -> Order {
        Order {
            oid,
            cust: rng.range(0, customers),
            amount: rng.range(0, SHOP_MAX_AMOUNT) as f64,
            status: rng.range(0, SHOP_STATUSES),
            pad: format!("order-{oid:0width$}", width = ORDER_PAD - 6),
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Customer {
    pub cust: i64,
    pub name: String,
    pub region: i64,
}

/// The `shop` data set: ORDERS (200k rows, OID ascending in storage
/// order, CUST scattered so the `O_CUST` index is truly non-clustered)
/// and CUSTOMER (10k rows). `--smoke` generates a tenth of it.
#[derive(Debug, Clone, PartialEq)]
pub struct Shop {
    pub orders: Vec<Order>,
    pub customers: Vec<Customer>,
}

impl Shop {
    pub fn n_orders(&self) -> i64 {
        i64::try_from(self.orders.len()).unwrap_or(i64::MAX)
    }

    pub fn n_customers(&self) -> i64 {
        i64::try_from(self.customers.len()).unwrap_or(i64::MAX)
    }

    pub fn generate(seed: u64, n_orders: i64) -> Shop {
        let mut rng = Rng::new(seed ^ 0x5409);
        let n_customers = n_orders / ORDERS_PER_CUSTOMER;
        let orders = (0..n_orders).map(|oid| Order::generate(oid, n_customers, &mut rng)).collect();
        let customers = (0..n_customers)
            .map(|cust| Customer { cust, name: format!("cust-{cust:05}"), region: rng.range(0, 8) })
            .collect();
        Shop { orders, customers }
    }

    /// Order-insensitive checksum of every generated row.
    pub fn checksum(&self) -> u64 {
        let orders = self.orders.iter().map(|o| {
            row_hash(&[V::I(o.oid), V::I(o.cust), V::F(o.amount), V::I(o.status), V::S(&o.pad)])
        });
        let customers =
            self.customers.iter().map(|c| row_hash(&[V::I(c.cust), V::S(&c.name), V::I(c.region)]));
        orders.chain(customers).fold(0u64, u64::wrapping_add)
    }

    /// Load into a fresh in-memory database with `buffer_pages` of pool:
    /// unique `O_OID`, non-clustered `O_CUST`, unique `C_CUST`, then
    /// `UPDATE STATISTICS`.
    pub fn load(&self, buffer_pages: usize) -> DbResult<Database> {
        let mut db =
            Database::with_config(system_r::Config { buffer_pages, ..system_r::Config::default() });
        db.execute(
            "CREATE TABLE ORDERS (OID INTEGER, CUST INTEGER, AMOUNT FLOAT, STATUS INTEGER, \
             PAD VARCHAR(40))",
        )?;
        db.execute("CREATE TABLE CUSTOMER (CUST INTEGER, NAME VARCHAR(16), REGION INTEGER)")?;
        db.insert_rows(
            "ORDERS",
            self.orders.iter().map(|o| tuple![o.oid, o.cust, o.amount, o.status, o.pad.as_str()]),
        )?;
        db.insert_rows(
            "CUSTOMER",
            self.customers.iter().map(|c| tuple![c.cust, c.name.as_str(), c.region]),
        )?;
        db.execute("CREATE UNIQUE INDEX O_OID ON ORDERS (OID)")?;
        db.execute("CREATE INDEX O_CUST ON ORDERS (CUST)")?;
        db.execute("CREATE UNIQUE INDEX C_CUST ON CUSTOMER (CUST)")?;
        db.execute("UPDATE STATISTICS")?;
        Ok(db)
    }
}

// ---- Fig. 1 + chain-4 -----------------------------------------------------

pub const FIG1_EMPS: i64 = 4000;
pub const FIG1_DEPTS: i64 = 40;
pub const FIG1_JOBS: i64 = 10;
pub const CITIES: [&str; 5] = ["DENVER", "SAN JOSE", "TUCSON", "BOSTON", "AUSTIN"];
pub const TITLES: [&str; 5] = ["CLERK", "TYPIST", "SALES", "MECHANIC", "ENGINEER"];
/// JOB codes start here, as in the paper's Fig. 1.
pub const JOB_BASE: i64 = 5;

#[derive(Debug, Clone, PartialEq)]
pub struct Emp {
    pub name: String,
    pub dno: i64,
    pub job: i64,
    pub sal: f64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Dept {
    pub dno: i64,
    pub dname: String,
    pub loc: &'static str,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    pub job: i64,
    pub title: &'static str,
}

/// One table of a chain join: row `k` references row `fk` of the next.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainRow {
    pub k: i64,
    pub fk: i64,
}

/// The paper's Fig. 1 database with its index inventory, plus a
/// four-table chain `C0 → C1 → C2 → C3` in the same database.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig1 {
    pub emps: Vec<Emp>,
    pub depts: Vec<Dept>,
    pub jobs: Vec<Job>,
    pub chain: Vec<Vec<ChainRow>>,
}

/// Rows per chain-4 table and their PAD width. A probed table must span
/// more than twice as many pages as it is probed (≈ 350 times), or the
/// cost model — which charges a buffer-resident inner its pages once and
/// CPU only per returned tuple — rescans the segment instead of probing
/// the unique index.
pub const CHAIN4_ROWS: i64 = 20_000;
const CHAIN4_PAD: usize = 200;
/// PAD width of the 50-row chain tables.
const SMALL_PAD: usize = 16;

fn pick<T: Copy>(items: &[T], i: i64, fallback: T) -> T {
    let n = i64::try_from(items.len()).unwrap_or(1).max(1);
    usize::try_from(i.rem_euclid(n)).ok().and_then(|i| items.get(i).copied()).unwrap_or(fallback)
}

fn chain_tables(n: usize, rows: i64, rng: &mut Rng) -> Vec<Vec<ChainRow>> {
    (0..n).map(|_| (0..rows).map(|k| ChainRow { k, fk: rng.range(0, rows) }).collect()).collect()
}

fn load_chain(
    db: &mut Database,
    prefix: &str,
    tables: &[Vec<ChainRow>],
    pad: usize,
) -> DbResult<()> {
    for (i, rows) in tables.iter().enumerate() {
        db.execute(&format!(
            "CREATE TABLE {prefix}{i} (K INTEGER, FK INTEGER, PAD VARCHAR({}))",
            pad + 1
        ))?;
        db.insert_rows(
            &format!("{prefix}{i}"),
            rows.iter().map(|r| tuple![r.k, r.fk, format!("p{:0pad$}", r.k)]),
        )?;
        db.execute(&format!("CREATE UNIQUE INDEX {prefix}{i}_K ON {prefix}{i} (K)"))?;
    }
    Ok(())
}

impl Fig1 {
    pub fn generate(seed: u64) -> Fig1 {
        let mut rng = Rng::new(seed ^ 0xF161);
        let emps = (0..FIG1_EMPS)
            .map(|i| Emp {
                name: format!("EMP-{i:06}"),
                dno: rng.range(0, FIG1_DEPTS),
                job: JOB_BASE + rng.range(0, FIG1_JOBS),
                sal: (1000 + rng.range(0, 50_000)) as f64,
            })
            .collect();
        let depts = (0..FIG1_DEPTS)
            .map(|d| Dept {
                dno: d,
                dname: format!("DEPT-{d:03}"),
                loc: pick(&CITIES, d, "DENVER"),
            })
            .collect();
        let jobs = (0..FIG1_JOBS)
            .map(|j| Job { job: JOB_BASE + j, title: pick(&TITLES, j, "CLERK") })
            .collect();
        Fig1 { emps, depts, jobs, chain: chain_tables(4, CHAIN4_ROWS, &mut rng) }
    }

    pub fn checksum(&self) -> u64 {
        let emps = self
            .emps
            .iter()
            .map(|e| row_hash(&[V::S(&e.name), V::I(e.dno), V::I(e.job), V::F(e.sal)]));
        let chain = self.chain.iter().flatten().map(|r| row_hash(&[V::I(r.k), V::I(r.fk)]));
        emps.chain(chain).fold(0u64, u64::wrapping_add)
    }

    /// Load with the worked example's indexes: `EMP_DNO`, `EMP_JOB`
    /// (non-clustered), unique `DEPT_DNO` and `JOB_JOB`. The pool is far
    /// larger than the data, so the workload is resident.
    pub fn load(&self) -> DbResult<Database> {
        let mut db = Database::with_config(system_r::Config {
            buffer_pages: 8192,
            ..system_r::Config::default()
        });
        db.execute("CREATE TABLE EMP (NAME VARCHAR(20), DNO INTEGER, JOB INTEGER, SAL FLOAT)")?;
        db.execute("CREATE TABLE DEPT (DNO INTEGER, DNAME VARCHAR(20), LOC VARCHAR(20))")?;
        db.execute("CREATE TABLE JOB (JOB INTEGER, TITLE VARCHAR(20))")?;
        db.insert_rows(
            "EMP",
            self.emps.iter().map(|e| tuple![e.name.as_str(), e.dno, e.job, e.sal]),
        )?;
        db.insert_rows("DEPT", self.depts.iter().map(|d| tuple![d.dno, d.dname.as_str(), d.loc]))?;
        db.insert_rows("JOB", self.jobs.iter().map(|j| tuple![j.job, j.title]))?;
        db.execute("CREATE INDEX EMP_DNO ON EMP (DNO)")?;
        db.execute("CREATE INDEX EMP_JOB ON EMP (JOB)")?;
        db.execute("CREATE UNIQUE INDEX DEPT_DNO ON DEPT (DNO)")?;
        db.execute("CREATE UNIQUE INDEX JOB_JOB ON JOB (JOB)")?;
        load_chain(&mut db, "C", &self.chain, CHAIN4_PAD)?;
        db.execute("UPDATE STATISTICS")?;
        Ok(db)
    }
}

// ---- chain / star over small tables (adhoc_plan) ---------------------------

pub const SMALL_ROWS: i64 = 50;
pub const CHAIN_TABLES: usize = 8;
pub const STAR_DIMS: usize = 5;

/// Eight chain tables `T0..T7` and a star `FACT` ⋈ `DIM0..DIM4`, every
/// table 50 rows: planning dominates, execution is small.
#[derive(Debug, Clone, PartialEq)]
pub struct Small {
    pub chain: Vec<Vec<ChainRow>>,
    /// `fact[r][d]` is the key of `DIM<d>` that fact row `r` references.
    pub fact: Vec<Vec<i64>>,
}

impl Small {
    pub fn generate(seed: u64) -> Small {
        let mut rng = Rng::new(seed ^ 0x5A11);
        let chain = chain_tables(CHAIN_TABLES, SMALL_ROWS, &mut rng);
        let fact = (0..SMALL_ROWS)
            .map(|_| (0..STAR_DIMS).map(|_| rng.range(0, SMALL_ROWS)).collect())
            .collect();
        Small { chain, fact }
    }

    pub fn checksum(&self) -> u64 {
        let chain = self.chain.iter().flatten().map(|r| row_hash(&[V::I(r.k), V::I(r.fk)]));
        let fact =
            self.fact.iter().map(|r| row_hash(&r.iter().map(|&d| V::I(d)).collect::<Vec<_>>()));
        chain.chain(fact).fold(0u64, u64::wrapping_add)
    }

    pub fn load(&self) -> DbResult<Database> {
        let mut db = Database::new();
        load_chain(&mut db, "T", &self.chain, SMALL_PAD)?;
        let cols: Vec<String> = (0..STAR_DIMS).map(|d| format!("D{d} INTEGER")).collect();
        db.execute(&format!("CREATE TABLE FACT ({}, PAD VARCHAR(20))", cols.join(", ")))?;
        db.insert_rows(
            "FACT",
            self.fact.iter().enumerate().map(|(r, dims)| {
                let mut values: Vec<system_r::rss::Value> =
                    dims.iter().map(|&d| system_r::rss::Value::Int(d)).collect();
                values.push(system_r::rss::Value::Str(fact_pad(r)));
                system_r::rss::Tuple::new(values)
            }),
        )?;
        for d in 0..STAR_DIMS {
            db.execute(&format!("CREATE TABLE DIM{d} (K INTEGER, NAME VARCHAR(16))"))?;
            db.insert_rows(
                &format!("DIM{d}"),
                (0..SMALL_ROWS).map(|k| tuple![k, format!("d{k}")]),
            )?;
            db.execute(&format!("CREATE UNIQUE INDEX DIM{d}_K ON DIM{d} (K)"))?;
        }
        db.execute("UPDATE STATISTICS")?;
        Ok(db)
    }
}

/// The PAD value of fact row `r` (the star statements select it).
pub fn fact_pad(r: usize) -> String {
    format!("f{r:016}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_data_other_seed_other_data() {
        assert_eq!(Shop::generate(7, 2000).checksum(), Shop::generate(7, 2000).checksum());
        assert_ne!(Shop::generate(7, 2000).checksum(), Shop::generate(8, 2000).checksum());
        assert_eq!(Fig1::generate(7), Fig1::generate(7));
        assert_ne!(Fig1::generate(7).checksum(), Fig1::generate(8).checksum());
        assert_eq!(Small::generate(7), Small::generate(7));
        assert_ne!(Small::generate(7).checksum(), Small::generate(8).checksum());
    }

    #[test]
    fn rng_stays_in_range_and_is_reproducible() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(1);
        for _ in 0..1000 {
            let x = a.range(-5, 5);
            assert!((-5..5).contains(&x));
            assert_eq!(x, b.range(-5, 5));
        }
        assert_eq!(Rng::new(1).below(0), 0);
    }
}
