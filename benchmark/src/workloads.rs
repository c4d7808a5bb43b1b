//! The five workloads: set-up, statement templates, and expected results.
//!
//! A workload is a database plus a *cycle*: an ordered list of statements
//! fixed by the seed. Every round of a run executes the same number of
//! cycles, so rounds are identical work. Three workloads replay one fixed
//! cycle; `adhoc_plan` and `mixed_rw` regenerate theirs (fresh unique
//! texts, fresh OIDs) with the same template at every position.

use crate::gen::{
    fact_pad, ChainRow, Fig1, Order, Rng, Shop, Small, CHAIN4_ROWS, CITIES, ORDERS_PER_CUSTOMER,
    SHOP_MAX_AMOUNT, SHOP_ORDERS, SHOP_STATUSES, SMALL_ROWS, STAR_DIMS, TITLES,
};
use crate::oracle::{Expect, V};
use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::time::Instant;
use system_r::rss::{CompareOp, Value};
use system_r::{Config, Database, DbResult};

pub const NAMES: [&str; 5] = ["point_hot", "join_hot", "scan_cold", "adhoc_plan", "mixed_rw"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Select,
    Insert,
    Update,
    Delete,
}

/// The scan a single-table SELECT boils down to, so the traced run can
/// issue the identical scan directly against `sysr_rss` and charge the
/// difference to the executor.
#[derive(Debug, Clone, PartialEq)]
pub enum Probe {
    IndexEq {
        index: &'static str,
        key: i64,
    },
    IndexRange {
        index: &'static str,
        lo: i64,
        hi: i64,
    },
    /// Segment scan of `table` with one SARG factor per predicate.
    Segment {
        table: &'static str,
        preds: Vec<(usize, CompareOp, Value)>,
    },
}

/// One statement of a cycle.
#[derive(Debug, Clone)]
pub struct Op {
    /// Index into [`Workload::templates`].
    pub template: usize,
    pub kind: Kind,
    pub sql: String,
    pub expect: Expect,
    pub probe: Option<Probe>,
}

/// What set-up cost, for `setup_s` and the `catalog` layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub total_s: f64,
    pub update_stats_ms: f64,
    pub open_ms: f64,
}

pub struct Workload {
    pub name: &'static str,
    pub db: Database,
    pub templates: Vec<&'static str>,
    /// `mixed_rw`: every round starts with `UPDATE STATISTICS` and ends
    /// with `sync()`.
    pub round_maintenance: bool,
    /// Table and unique index the direct `rss` timings run against.
    pub main_table: &'static str,
    pub main_index: &'static str,
    /// Keys `0..main_keys` exist in `main_index`.
    pub main_keys: i64,
    pub setup: SetupTimes,
    /// How many set-ups `setup` is the median of.
    pub setups: usize,
    /// Checksum of the generated rows (same seed ⇒ same value).
    pub data_checksum: u64,
    source: Source,
}

enum Source {
    Fixed(Vec<Op>),
    Adhoc(Adhoc),
    Mixed(Box<Mixed>),
}

enum Data {
    Shop(Shop),
    Fig1(Fig1),
    Small(Small),
}

/// Pool sizes in 4 KB pages. ORDERS alone is ≈ 4.2k pages.
const POOL_RESIDENT: usize = 8192;
const POOL_SCAN_COLD: usize = 256;
const POOL_MIXED_RW: usize = 1024;

/// Generate, load, index, `UPDATE STATISTICS`, and for the disk workloads
/// `save` + `open_with_config` on a `DirBackend` under `dir`.
fn build_database(
    name: &str,
    seed: u64,
    dir: &Path,
    smoke: bool,
) -> DbResult<(Database, Data, SetupTimes)> {
    let t0 = Instant::now();
    let disk_pool = match name {
        "scan_cold" => Some(POOL_SCAN_COLD),
        "mixed_rw" => Some(POOL_MIXED_RW),
        _ => None,
    };
    let (mut db, data) = match name {
        "join_hot" => {
            let data = Fig1::generate(seed);
            (data.load()?, Data::Fig1(data))
        }
        "adhoc_plan" => {
            let data = Small::generate(seed);
            (data.load()?, Data::Small(data))
        }
        _ => {
            let data = Shop::generate(seed, if smoke { SHOP_ORDERS / 10 } else { SHOP_ORDERS });
            (data.load(POOL_RESIDENT)?, Data::Shop(data))
        }
    };
    // Every loader ends with UPDATE STATISTICS; time one more, alone, for
    // the `catalog` layer.
    let t_stats = Instant::now();
    db.execute("UPDATE STATISTICS")?;
    let update_stats_ms = t_stats.elapsed().as_secs_f64() * 1e3;
    let mut open_ms = 0.0;
    if let Some(buffer_pages) = disk_pool {
        let _ = std::fs::remove_dir_all(dir);
        db.save(dir)?;
        drop(db);
        let t_open = Instant::now();
        db = Database::open_with_config(dir, Config { buffer_pages, ..Config::default() })?;
        open_ms = t_open.elapsed().as_secs_f64() * 1e3;
    }
    let setup = SetupTimes { total_s: t0.elapsed().as_secs_f64(), update_stats_ms, open_ms };
    Ok((db, data, setup))
}

/// A median over three 5 ms set-ups would not repeat; keep setting up
/// until this much time is spent (`adhoc_plan` gets a few hundred).
const SETUP_MIN_SECONDS: f64 = 1.5;
const SETUP_MAX_REPS: usize = 500;

impl Workload {
    /// Set the workload up at least `min_reps` times — and, when a set-up
    /// takes milliseconds, until [`SETUP_MIN_SECONDS`] have been spent on
    /// them — dropping all but the last database, and report the median
    /// set-up time. `smoke` shrinks the `shop` data set tenfold.
    pub fn build(
        name: &'static str,
        seed: u64,
        dir: &Path,
        min_reps: usize,
        smoke: bool,
    ) -> DbResult<Workload> {
        let mut times = Vec::new();
        let mut built = None;
        let t0 = Instant::now();
        while times.len() < min_reps.max(1)
            || (min_reps > 1
                && t0.elapsed().as_secs_f64() < SETUP_MIN_SECONDS
                && times.len() < SETUP_MAX_REPS)
        {
            drop(built.take());
            let (db, data, setup) = build_database(name, seed, dir, smoke)?;
            times.push(setup);
            built = Some((db, data));
        }
        let Some((db, data)) = built else {
            return Err(system_r::DbError::Unsupported("no set-up ran".into()));
        };
        times.sort_by(|a, b| a.total_s.total_cmp(&b.total_s));
        let setup = times.get(times.len() / 2).copied().unwrap_or_default();
        let mut rng = Rng::new(seed ^ 0x0575);
        let (templates, main, data_checksum, source) = match (name, data) {
            ("point_hot", Data::Shop(shop)) => {
                let main = ("ORDERS", "O_OID", shop.n_orders());
                (POINT_TEMPLATES.to_vec(), main, shop.checksum(), point_hot(&shop, &mut rng))
            }
            ("scan_cold", Data::Shop(shop)) => {
                let main = ("ORDERS", "O_OID", shop.n_orders());
                (SCAN_TEMPLATES.to_vec(), main, shop.checksum(), scan_cold(&shop, &mut rng))
            }
            ("mixed_rw", Data::Shop(shop)) => {
                let main = ("ORDERS", "O_OID", shop.n_orders());
                let source = Source::Mixed(Box::new(Mixed::new(&shop, rng)));
                (MIXED_TEMPLATES.to_vec(), main, shop.checksum(), source)
            }
            ("join_hot", Data::Fig1(fig1)) => {
                let main = ("EMP", "C1_K", CHAIN4_ROWS);
                (JOIN_TEMPLATES.to_vec(), main, fig1.checksum(), join_hot(&fig1, &mut rng))
            }
            ("adhoc_plan", Data::Small(small)) => {
                let (main, checksum) = (("T0", "T0_K", SMALL_ROWS), small.checksum());
                let source = Source::Adhoc(Adhoc { small, rng, counter: 0 });
                (ADHOC_TEMPLATES.to_vec(), main, checksum, source)
            }
            _ => return Err(system_r::DbError::Unsupported(format!("unknown workload {name}"))),
        };
        Ok(Workload {
            name,
            db,
            templates,
            round_maintenance: name == "mixed_rw",
            main_table: main.0,
            main_index: main.1,
            main_keys: main.2,
            setup,
            setups: times.len(),
            data_checksum,
            source,
        })
    }

    /// The next cycle's statements, in execution order.
    pub fn next_cycle(&mut self) -> Vec<Op> {
        match &mut self.source {
            Source::Fixed(ops) => ops.clone(),
            Source::Adhoc(adhoc) => adhoc.cycle(),
            Source::Mixed(mixed) => mixed.cycle(),
        }
    }
}

fn select(template: usize, sql: String, expect: Expect, probe: Option<Probe>) -> Op {
    Op { template, kind: Kind::Select, sql, expect, probe }
}

// ---- point_hot -------------------------------------------------------------

const POINT_TEMPLATES: [&str; 2] = ["point", "cust"];
/// 36 + 12 cached texts. The plan cache holds 16 entries per stripe and
/// evicts an arbitrary one beyond that; 48 keys over 8 stripes stay
/// under 16 per stripe for every seed tried, 64 occasionally do not.
const POINT_TEXTS: usize = 36;
const CUST_TEXTS: usize = 12;

fn point_op(template: usize, order: &Order) -> Op {
    select(
        template,
        format!("SELECT OID, CUST, AMOUNT FROM ORDERS WHERE OID = {}", order.oid),
        Expect::of([vec![V::I(order.oid), V::I(order.cust), V::F(order.amount)]]),
        Some(Probe::IndexEq { index: "O_OID", key: order.oid }),
    )
}

fn cust_op(template: usize, shop: &Shop, cust: i64) -> Op {
    let rows = shop.orders.iter().filter(|o| o.cust == cust);
    select(
        template,
        format!("SELECT OID, AMOUNT FROM ORDERS WHERE CUST = {cust}"),
        Expect::of(rows.map(|o| vec![V::I(o.oid), V::F(o.amount)])),
        Some(Probe::IndexEq { index: "O_CUST", key: cust }),
    )
}

/// `n` distinct draws from `[0, below)`.
fn distinct(rng: &mut Rng, n: usize, below: i64) -> Vec<i64> {
    let mut picked = Vec::new();
    while picked.len() < n {
        let x = rng.range(0, below);
        if !picked.contains(&x) {
            picked.push(x);
        }
    }
    picked
}

fn point_hot(shop: &Shop, rng: &mut Rng) -> Source {
    let mut ops = Vec::new();
    for oid in distinct(rng, POINT_TEXTS, shop.n_orders()) {
        if let Some(order) = usize::try_from(oid).ok().and_then(|i| shop.orders.get(i)) {
            ops.push(point_op(0, order));
        }
    }
    // Only customers with exactly the mean number of orders, so a `cust`
    // lookup is the same work under every seed.
    let mut per_customer = vec![0i64; shop.customers.len()];
    for order in &shop.orders {
        if let Some(n) = usize::try_from(order.cust).ok().and_then(|c| per_customer.get_mut(c)) {
            *n += 1;
        }
    }
    let typical: Vec<i64> = (0..shop.n_customers())
        .filter(|&c| {
            usize::try_from(c).ok().and_then(|c| per_customer.get(c)) == Some(&ORDERS_PER_CUSTOMER)
        })
        .collect();
    for i in distinct(rng, CUST_TEXTS.min(typical.len()), typical.len() as i64) {
        if let Some(&cust) = usize::try_from(i).ok().and_then(|i| typical.get(i)) {
            ops.push(cust_op(1, shop, cust));
        }
    }
    rng.shuffle(&mut ops);
    Source::Fixed(ops)
}

// ---- scan_cold -------------------------------------------------------------

const SCAN_TEMPLATES: [&str; 3] = ["filter_scan", "cust_range", "order_by"];
/// `AMOUNT < 2000` keeps 2 % of a status's ≈ 10k orders.
const FILTER_AMOUNT_BELOW: i64 = SHOP_MAX_AMOUNT / 50;
/// Customers per `CUST BETWEEN` range: ≈ 1000 orders, each on a random
/// data page — well below the ≈ 4.2k fetches of a segment scan, so the
/// optimizer keeps the non-clustered index.
const RANGE_CUSTOMERS: i64 = 50;

fn scan_cold(shop: &Shop, rng: &mut Rng) -> Source {
    let mut ops = Vec::new();
    let statuses = distinct(rng, 7, SHOP_STATUSES);
    for &status in statuses.iter().take(4) {
        let below = FILTER_AMOUNT_BELOW as f64;
        let rows = shop.orders.iter().filter(|o| o.status == status && o.amount < below);
        ops.push(select(
            0,
            format!(
                "SELECT OID, AMOUNT FROM ORDERS WHERE STATUS = {status} AND AMOUNT < {FILTER_AMOUNT_BELOW}"
            ),
            Expect::of(rows.map(|o| vec![V::I(o.oid), V::F(o.amount)])),
            Some(Probe::Segment {
                table: "ORDERS",
                preds: vec![
                    (3, CompareOp::Eq, Value::Int(status)),
                    (2, CompareOp::Lt, Value::Int(FILTER_AMOUNT_BELOW)),
                ],
            }),
        ));
    }
    for lo in distinct(rng, 3, shop.n_customers() - RANGE_CUSTOMERS) {
        let hi = lo + RANGE_CUSTOMERS - 1;
        let rows = shop.orders.iter().filter(|o| (lo..=hi).contains(&o.cust));
        ops.push(select(
            1,
            format!("SELECT OID, CUST FROM ORDERS WHERE CUST BETWEEN {lo} AND {hi}"),
            Expect::of(rows.map(|o| vec![V::I(o.oid), V::I(o.cust)])),
            Some(Probe::IndexRange { index: "O_CUST", lo, hi }),
        ));
    }
    for &status in statuses.iter().skip(4) {
        let rows = shop.orders.iter().filter(|o| o.status == status);
        ops.push(select(
            2,
            format!("SELECT OID, AMOUNT FROM ORDERS WHERE STATUS = {status} ORDER BY AMOUNT"),
            Expect::of(rows.map(|o| vec![V::I(o.oid), V::F(o.amount)])).sorted_by(1),
            None,
        ));
    }
    rng.shuffle(&mut ops);
    Source::Fixed(ops)
}

// ---- join_hot --------------------------------------------------------------

const JOIN_TEMPLATES: [&str; 4] = ["fig1", "fig1_order", "fig1_group", "chain4"];
/// Outer rows of the chain-4 join: each probes three unique indexes, so
/// a statement makes ≥ 1000 index probes.
const CHAIN4_PROBED: i64 = 340;

/// Fig. 1's join: `(emp, dept)` pairs whose job title is `title` and, when
/// given, whose department is in `loc`.
fn fig1_rows<'a>(
    fig1: &'a Fig1,
    title: &'a str,
    loc: Option<&'a str>,
) -> impl Iterator<Item = (&'a crate::gen::Emp, &'a crate::gen::Dept)> + 'a {
    fig1.emps.iter().filter_map(move |e| {
        let dept = fig1.depts.iter().find(|d| d.dno == e.dno)?;
        let job = fig1.jobs.iter().find(|j| j.job == e.job)?;
        (job.title == title && loc.is_none_or(|l| dept.loc == l)).then_some((e, dept))
    })
}

/// The row of `table` with key `k` references this key of the next
/// table (rows are generated in key order).
fn follow(table: Option<&Vec<ChainRow>>, k: i64) -> Option<i64> {
    let row = table?.get(usize::try_from(k).ok()?)?;
    (row.k == k).then_some(row.fk)
}

fn join_hot(fig1: &Fig1, rng: &mut Rng) -> Source {
    const FIG1_WHERE: &str = "EMP.DNO = DEPT.DNO AND EMP.JOB = JOB.JOB";
    let mut ops = Vec::new();
    for i in 0..8 {
        let title = TITLES.get(i % TITLES.len()).copied().unwrap_or("CLERK");
        let loc = CITIES.get((i / 2) % CITIES.len()).copied().unwrap_or("DENVER");
        let rows = fig1_rows(fig1, title, Some(loc))
            .map(|(e, d)| vec![V::S(&e.name), V::S(title), V::F(e.sal), V::S(&d.dname)]);
        // The first text is Fig. 1 verbatim.
        let sql = format!(
            "SELECT NAME, TITLE, SAL, DNAME FROM EMP, DEPT, JOB WHERE TITLE = '{title}' \
             AND LOC = '{loc}' AND {FIG1_WHERE}"
        );
        if i < 4 {
            ops.push(select(0, sql, Expect::of(rows), None));
        } else {
            ops.push(select(1, format!("{sql} ORDER BY SAL"), Expect::of(rows).sorted_by(2), None));
        }
    }
    for title in TITLES.iter().take(4) {
        let mut groups: HashMap<&str, (i64, f64)> = HashMap::new();
        for (e, d) in fig1_rows(fig1, title, None) {
            let g = groups.entry(&d.dname).or_insert((0, 0.0));
            g.0 += 1;
            g.1 += e.sal;
        }
        ops.push(select(
            2,
            format!(
                "SELECT DNAME, COUNT(*), SUM(SAL) FROM EMP, DEPT, JOB WHERE TITLE = '{title}' \
                 AND {FIG1_WHERE} GROUP BY DNAME"
            ),
            Expect::of(groups.iter().map(|(d, &(n, sum))| vec![V::S(d), V::I(n), V::F(sum)])),
            None,
        ));
    }
    for _ in 0..4 {
        let below = rng.range(CHAIN4_PROBED, CHAIN4_PROBED + 20);
        let rows = (0..below).filter_map(|k| {
            let k1 = follow(fig1.chain.first(), k)?;
            let k2 = follow(fig1.chain.get(1), k1)?;
            let k3 = follow(fig1.chain.get(2), k2)?;
            Some(vec![V::I(k), V::I(k3)])
        });
        ops.push(select(
            3,
            format!(
                "SELECT C0.K, C3.K FROM C0, C1, C2, C3 WHERE C0.FK = C1.K AND C1.FK = C2.K \
                 AND C2.FK = C3.K AND C0.K < {below}"
            ),
            Expect::of(rows),
            None,
        ));
    }
    rng.shuffle(&mut ops);
    Source::Fixed(ops)
}

// ---- adhoc_plan ------------------------------------------------------------

const ADHOC_TEMPLATES: [&str; 3] = ["chain6", "star6", "chain8"];
/// Template at each position of the cycle.
const ADHOC_CYCLE: [usize; 4] = [0, 1, 0, 2];

struct Adhoc {
    small: Small,
    rng: Rng,
    /// Statements generated so far; makes every text unique.
    counter: i64,
}

impl Adhoc {
    fn cycle(&mut self) -> Vec<Op> {
        ADHOC_CYCLE.iter().map(|&template| self.statement(template)).collect()
    }

    /// A join whose text no earlier statement had: a seeded literal, a
    /// never-repeating always-true bound, and a seeded FROM-list order.
    fn statement(&mut self, template: usize) -> Op {
        self.counter += 1;
        let below = self.rng.range(SMALL_ROWS / 2, SMALL_ROWS);
        let unique = format!("> -{}", self.counter);
        if template == 1 {
            let mut tables: Vec<String> = (0..STAR_DIMS).map(|d| format!("DIM{d}")).collect();
            tables.push("FACT".into());
            self.rng.shuffle(&mut tables);
            let joins: Vec<String> =
                (0..STAR_DIMS).map(|d| format!("FACT.D{d} = DIM{d}.K")).collect();
            let rows = self.small.fact.iter().enumerate();
            let rows = rows.filter(|(_, dims)| dims.first().is_some_and(|&d0| d0 < below));
            let pads: Vec<String> = rows.map(|(r, _)| fact_pad(r)).collect();
            return select(
                template,
                format!(
                    "SELECT FACT.PAD FROM {} WHERE {} AND DIM0.K < {below} AND DIM0.K {unique}",
                    tables.join(", "),
                    joins.join(" AND ")
                ),
                Expect::of(pads.iter().map(|p| vec![V::S(p)])),
                None,
            );
        }
        let n = if template == 2 { 8 } else { 6 };
        let mut tables: Vec<String> = (0..n).map(|i| format!("T{i}")).collect();
        self.rng.shuffle(&mut tables);
        let joins: Vec<String> = (0..n - 1).map(|i| format!("T{i}.FK = T{}.K", i + 1)).collect();
        let chain = &self.small.chain;
        let rows = (0..below).filter_map(|k| {
            let last = (0..n - 1).try_fold(k, |k, i| follow(chain.get(i), k))?;
            Some(vec![V::I(k), V::I(last)])
        });
        select(
            template,
            format!(
                "SELECT T0.K, T{}.K FROM {} WHERE {} AND T0.K < {below} AND T0.K {unique}",
                n - 1,
                tables.join(", "),
                joins.join(" AND ")
            ),
            Expect::of(rows),
            None,
        )
    }
}

// ---- mixed_rw --------------------------------------------------------------

const MIXED_TEMPLATES: [&str; 4] = ["point_read", "insert", "update", "delete"];
const MIXED_READ_TEXTS: usize = 48;
/// Half a cycle: 40 reads, 8 single-row INSERTs and 1 UPDATE in seeded
/// order, then 1 DELETE of the 8 oldest inserted rows — 100 statements
/// per cycle, cardinality level.
const HALF_READS: usize = 40;
const HALF_INSERTS: usize = 8;

struct Mixed {
    rng: Rng,
    /// The cached read texts' target rows, with their current AMOUNT.
    hot: Vec<Order>,
    /// Position-in-half → what runs there (reads carry a hot index).
    half: Vec<Slot>,
    customers: i64,
    inserted: VecDeque<i64>,
    next_oid: i64,
}

#[derive(Clone, Copy)]
enum Slot {
    Read(usize),
    Insert,
    Update,
}

impl Mixed {
    fn new(shop: &Shop, mut rng: Rng) -> Mixed {
        let hot: Vec<Order> = distinct(&mut rng, MIXED_READ_TEXTS, shop.n_orders())
            .into_iter()
            .filter_map(|oid| usize::try_from(oid).ok().and_then(|i| shop.orders.get(i)).cloned())
            .collect();
        let mut half: Vec<Slot> =
            (0..HALF_READS).map(|i| Slot::Read(i % hot.len().max(1))).collect();
        half.extend(std::iter::repeat_n(Slot::Insert, HALF_INSERTS));
        half.push(Slot::Update);
        rng.shuffle(&mut half);
        let (customers, next_oid) = (shop.n_customers(), shop.n_orders());
        Mixed { rng, hot, half, customers, inserted: VecDeque::new(), next_oid }
    }

    /// Generate the next cycle, advancing the oracle's model in statement
    /// order so each read expects what the preceding writes left.
    fn cycle(&mut self) -> Vec<Op> {
        let mut ops = Vec::new();
        for second_half in [false, true] {
            for slot in self.half.clone() {
                match slot {
                    Slot::Read(i) => {
                        // The second half reads the other 8 of the 48 texts.
                        let i = if second_half { (i + 8) % self.hot.len().max(1) } else { i };
                        if let Some(order) = self.hot.get(i) {
                            ops.push(point_op(0, order));
                        }
                    }
                    Slot::Insert => {
                        let o = Order::generate(self.next_oid, self.customers, &mut self.rng);
                        self.next_oid += 1;
                        self.inserted.push_back(o.oid);
                        ops.push(Op {
                            template: 1,
                            kind: Kind::Insert,
                            sql: format!(
                                "INSERT INTO ORDERS VALUES ({}, {}, {:.1}, {}, '{}')",
                                o.oid, o.cust, o.amount, o.status, o.pad
                            ),
                            expect: Expect::dml(1),
                            probe: None,
                        });
                    }
                    Slot::Update => {
                        let i = usize::try_from(self.rng.below(self.hot.len() as u64)).unwrap_or(0);
                        let amount = self.rng.range(0, SHOP_MAX_AMOUNT) as f64;
                        if let Some(order) = self.hot.get_mut(i) {
                            order.amount = amount;
                            ops.push(Op {
                                template: 2,
                                kind: Kind::Update,
                                sql: format!(
                                    "UPDATE ORDERS SET AMOUNT = {amount:.1} WHERE OID = {}",
                                    order.oid
                                ),
                                expect: Expect::dml(1),
                                probe: None,
                            });
                        }
                    }
                }
            }
            let victims: Vec<i64> =
                (0..HALF_INSERTS).filter_map(|_| self.inserted.pop_front()).collect();
            if let (Some(lo), Some(hi)) = (victims.first(), victims.last()) {
                ops.push(Op {
                    template: 3,
                    kind: Kind::Delete,
                    sql: format!("DELETE FROM ORDERS WHERE OID BETWEEN {lo} AND {hi}"),
                    expect: Expect::dml(i64::try_from(victims.len()).unwrap_or(0)),
                    probe: None,
                });
            }
        }
        ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adhoc_texts_never_repeat_and_keep_their_template_order() {
        let mut adhoc = Adhoc { small: Small::generate(3), rng: Rng::new(3), counter: 0 };
        let mut seen = std::collections::HashSet::new();
        for _ in 0..50 {
            let cycle = adhoc.cycle();
            assert_eq!(cycle.iter().map(|o| o.template).collect::<Vec<_>>(), ADHOC_CYCLE);
            for op in cycle {
                assert!(seen.insert(op.sql), "a statement text repeated");
            }
        }
    }

    #[test]
    fn mixed_cycle_is_100_statements_and_level() {
        let mut mixed = Mixed::new(&Shop::generate(5, 2000), Rng::new(5));
        for _ in 0..3 {
            let cycle = mixed.cycle();
            let count = |k: Kind| cycle.iter().filter(|o| o.kind == k).count();
            assert_eq!(cycle.len(), 100);
            assert_eq!(
                (
                    count(Kind::Select),
                    count(Kind::Insert),
                    count(Kind::Update),
                    count(Kind::Delete)
                ),
                (80, 16, 2, 2)
            );
            assert!(mixed.inserted.is_empty(), "every inserted row was deleted again");
        }
    }
}
