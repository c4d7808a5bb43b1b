//! The untraced run: warm-up, five rounds of identical work, medians.
//!
//! This host's speed drifts by tens of percent over a minute, so one long
//! loop is not a repeatable number. A run is cut into [`ROUNDS`] rounds
//! that execute the same statements; every reported metric is the median
//! of the per-round values, with the min and max printed beside it, and a
//! fixed calibration chunk before each round says how fast the host was.

use crate::workloads::{Kind, Op, Workload};
use std::time::Instant;
use system_r::executor::ResultSet;
use system_r::{Database, DbResult};

pub const ROUNDS: usize = 5;
/// Share of `--seconds` spent warming up; the rest is split over the
/// rounds (2 s + 5 × 3 s of the nominal 17 s).
const WARMUP_SHARE: f64 = 2.0 / 17.0;
/// Timed rounds verify the full checksum on every N-th statement and the
/// row count on all of them; warm-up and traced runs verify everything.
const CHECKSUM_EVERY: u64 = 8;
/// Calibration spread across rounds above which the host is called noisy.
const NOISY_SPREAD: f64 = 0.10;

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub template: usize,
    pub nanos: u64,
}

/// Execute one statement through the facade: SELECTs through a
/// [`system_r::Session`], DML through [`Database::execute`].
pub fn execute(db: &mut Database, op: &Op) -> DbResult<ResultSet> {
    match op.kind {
        Kind::Select => db.session().query(&op.sql),
        Kind::Insert | Kind::Update | Kind::Delete => db.execute(&op.sql),
    }
}

/// Time one statement and check its result. `None` means it failed (an
/// error or a wrong result): it is tallied and yields no latency sample.
pub fn timed(db: &mut Database, op: &Op, full_check: bool, tally: &mut Tally) -> Option<u64> {
    let t0 = Instant::now();
    let result = execute(db, op);
    let nanos = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    tally.attempted += 1;
    let ok = match &result {
        Ok(rs) if full_check => op.expect.matches(rs),
        Ok(rs) => op.expect.count_matches(rs),
        Err(_) => false,
    };
    if !ok {
        tally.failed += 1;
        if tally.failed <= 3 {
            let got =
                result.map(|rs| format!("{} rows", rs.len())).unwrap_or_else(|e| e.to_string());
            eprintln!("FAILED: {} -> {got}, expected {} rows", op.sql, op.expect.rows);
        }
        return None;
    }
    Some(nanos)
}

/// `UPDATE STATISTICS`, timed and tallied like any statement.
pub fn update_statistics(db: &mut Database, tally: &mut Tally) -> Option<u64> {
    let t0 = Instant::now();
    let result = db.execute("UPDATE STATISTICS");
    let nanos = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    tally.attempted += 1;
    if result.is_err() {
        tally.failed += 1;
        return None;
    }
    Some(nanos)
}

// ---- statistics ------------------------------------------------------------

/// Nearest-rank percentile of an ascending slice. `per_10k` is the
/// percentile in hundredths of a percent (p50 = 5000), so ranks are exact
/// integer arithmetic.
pub fn percentile(sorted: &[u64], per_10k: usize) -> u64 {
    let rank = (sorted.len() * per_10k).div_ceil(10_000);
    sorted.get(rank.clamp(1, sorted.len().max(1)) - 1).copied().unwrap_or(0)
}

/// The highest of p50/p90/p99/p99.9/p99.99 that still has at least ten
/// samples beyond it, with its label.
pub fn tail(sorted: &[u64]) -> (&'static str, u64) {
    let candidates = [("p99.99", 9999), ("p99.9", 9990), ("p99", 9900), ("p90", 9000)];
    for (label, per_10k) in candidates {
        if sorted.len() * (10_000 - per_10k) / 10_000 >= 10 {
            return (label, percentile(sorted, per_10k));
        }
    }
    ("p50", percentile(sorted, 5000))
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match (v.get(v.len().saturating_sub(1) / 2), v.get(v.len() / 2)) {
        (Some(a), Some(b)) => (a + b) / 2.0,
        _ => 0.0,
    }
}

/// A metric's per-round values folded to median, min and max.
#[derive(Debug, Clone, Copy)]
pub struct Folded {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

pub fn fold(values: &[f64]) -> Folded {
    Folded {
        median: median(values),
        min: values.iter().copied().fold(f64::INFINITY, f64::min),
        max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    }
}

/// A fixed amount of integer mixing that touches no database code, so
/// its rate tracks the host and nothing else. Returns million ops/s.
pub fn calibrate() -> f64 {
    const OPS: u64 = 4_000_000;
    let t0 = Instant::now();
    let mut z = 0x5EED_u64;
    for i in 0..OPS {
        z = (z ^ i).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^= z >> 29;
    }
    std::hint::black_box(z);
    OPS as f64 / t0.elapsed().as_secs_f64() / 1e6
}

/// `VmHWM` of this process in MB (peak resident set).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse::<f64>().ok());
    kb.unwrap_or(0.0) / 1024.0
}

// ---- the shield ------------------------------------------------------------

/// A busy thread on the second CPU for the whole run.
///
/// On this two-vCPU host allocation- and branch-heavy code runs up to
/// 1.5× slower while the sibling CPU is busy, and in some periods
/// something outside the guest keeps it busy on and off (steal time stays
/// below 1 %, a pure ALU loop does not see it). In such a period four
/// identical runs of `join_hot` gave 219–290 statements/s; with the
/// sibling kept busy by a fixed loop of our own, six gave 205–229. In a
/// quiet period the shield costs ≈ 6 % and changes nothing else (348–360
/// with it, 373–387 without). It does not remove the difference between
/// periods. With a single CPU there is no sibling and no shield.
pub struct Shield {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Shield {
    pub fn start() -> Shield {
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let thread = (cpus > 1).then(|| {
            let stop = std::sync::Arc::clone(&stop);
            std::thread::spawn(move || {
                // Four independent multiply chains over a small table keep
                // the core's issue ports and L1 busy without allocating.
                let mut table = [0u64; 2048];
                let mut z = [1u64, 2, 3, 4];
                // The flag publishes nothing but itself.
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    for i in 0..4096u64 {
                        for (lane, z) in z.iter_mut().enumerate() {
                            *z = (*z ^ i).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                            let slot = (*z >> 53) as usize + lane;
                            if let Some(cell) = table.get_mut(slot % 2048) {
                                *cell = cell.wrapping_add(*z);
                            }
                        }
                    }
                }
                std::hint::black_box((table, z));
            })
        });
        Shield { stop, thread }
    }
}

impl Drop for Shield {
    fn drop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            // The loop cannot panic; a failed join has nothing to report.
            let _ = thread.join();
        }
    }
}

// ---- the run ---------------------------------------------------------------

pub struct Report {
    pub tally: Tally,
    pub stmt_per_s: Folded,
    pub p50_us: Folded,
    /// Per template: name and the median-of-rounds p50 in µs.
    pub template_p50_us: Vec<(&'static str, Folded)>,
    pub tail: (&'static str, f64),
    pub samples: usize,
    pub mean_us: f64,
    pub calib_mops: Folded,
    pub noisy_host: bool,
    pub cycles_per_round: usize,
}

struct Round {
    samples: Vec<Sample>,
    /// Statement time plus the round's `sync()`.
    busy_nanos: u64,
}

fn run_cycles(w: &mut Workload, cycles: usize, warm: bool, tally: &mut Tally) -> Round {
    let mut round = Round { samples: Vec::new(), busy_nanos: 0 };
    if w.round_maintenance {
        if let Some(nanos) = update_statistics(&mut w.db, tally) {
            round.busy_nanos += nanos;
        }
    }
    for _ in 0..cycles {
        for op in w.next_cycle() {
            let full = warm || tally.attempted.is_multiple_of(CHECKSUM_EVERY);
            if let Some(nanos) = timed(&mut w.db, &op, full, tally) {
                round.samples.push(Sample { template: op.template, nanos });
                round.busy_nanos += nanos;
            }
        }
    }
    if w.round_maintenance {
        let t0 = Instant::now();
        if w.db.sync().is_err() {
            tally.failed += 1;
        }
        round.busy_nanos += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    }
    round
}

fn p50_us(samples: impl Iterator<Item = u64>) -> Option<f64> {
    let mut nanos: Vec<u64> = samples.collect();
    if nanos.is_empty() {
        return None;
    }
    nanos.sort_unstable();
    Some(percentile(&nanos, 5000) as f64 / 1e3)
}

/// Warm up, then measure [`ROUNDS`] rounds of the same cycles for about
/// `seconds` in total.
pub fn run(w: &mut Workload, seconds: f64) -> Report {
    let mut tally = Tally::default();
    let warmup_s = seconds * WARMUP_SHARE;
    let round_s = (seconds - warmup_s) / ROUNDS as f64;

    // Warm-up: fill the plan cache and the pool, and learn how long a
    // cycle takes. The first cycle is the cold one; time the later ones.
    let t0 = Instant::now();
    let mut cycle_s = Vec::new();
    while cycle_s.len() < 2 || t0.elapsed().as_secs_f64() < warmup_s {
        let t = Instant::now();
        run_cycles(w, 1, true, &mut tally);
        cycle_s.push(t.elapsed().as_secs_f64());
    }
    let steady = median(cycle_s.get(1..).unwrap_or(&[]));
    let cycles_per_round = ((round_s / steady.max(1e-9)) as usize).max(1);

    let mut rounds = Vec::new();
    let mut calib = Vec::new();
    for _ in 0..ROUNDS {
        calib.push(calibrate());
        rounds.push(run_cycles(w, cycles_per_round, false, &mut tally));
    }

    let stmt_per_s: Vec<f64> = rounds
        .iter()
        .map(|r| {
            let stmts = r.samples.len() + usize::from(w.round_maintenance);
            stmts as f64 / (r.busy_nanos as f64 / 1e9)
        })
        .collect();
    let p50: Vec<f64> =
        rounds.iter().filter_map(|r| p50_us(r.samples.iter().map(|s| s.nanos))).collect();
    let template_p50_us = w
        .templates
        .iter()
        .enumerate()
        .map(|(t, &name)| {
            let per_round: Vec<f64> = rounds
                .iter()
                .filter_map(|r| {
                    p50_us(r.samples.iter().filter(|s| s.template == t).map(|s| s.nanos))
                })
                .collect();
            (name, fold(&per_round))
        })
        .collect();
    let mut all: Vec<u64> = rounds.iter().flat_map(|r| r.samples.iter().map(|s| s.nanos)).collect();
    all.sort_unstable();
    let (tail_label, tail_nanos) = tail(&all);
    let calib_mops = fold(&calib);
    Report {
        tally,
        stmt_per_s: fold(&stmt_per_s),
        p50_us: fold(&p50),
        template_p50_us,
        tail: (tail_label, tail_nanos as f64 / 1e3),
        samples: all.len(),
        mean_us: all.iter().sum::<u64>() as f64 / all.len().max(1) as f64 / 1e3,
        noisy_host: (calib_mops.max - calib_mops.min) / calib_mops.median.max(1e-9) > NOISY_SPREAD,
        calib_mops,
        cycles_per_round,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 5000), 50);
        assert_eq!(percentile(&v, 9900), 99);
        assert_eq!(percentile(&v, 10_000), 100);
        assert_eq!(percentile(&v, 0), 1);
        assert_eq!(percentile(&v[..99], 5000), 50, "rank ⌈49.5⌉ = 50");
        assert_eq!(percentile(&[7], 5000), 7);
        assert_eq!(percentile(&[], 5000), 0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail(&v), ("p99", 990), "1000 × 1 % = 10 samples beyond p99");
        assert_eq!(tail(&v[..999]).0, "p90", "999 samples leave 9 beyond p99");
        assert_eq!(tail(&v[..50]).0, "p50");
        let big: Vec<u64> = (1..=100_000).collect();
        assert_eq!(tail(&big).0, "p99.99");
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let f = fold(&[3.0, 1.0, 2.0]);
        assert_eq!((f.median, f.min, f.max), (2.0, 1.0, 3.0));
    }
}
