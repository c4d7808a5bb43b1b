//! Skew experiment: Table 1's equal-predicate rule "assumes an even
//! distribution of tuples among the index key values". This experiment
//! loads the same relation with uniform and Zipf-distributed keys and
//! compares the optimizer's cardinality estimate (and plan) against the
//! truth for the most- and least-frequent keys — quantifying the error the
//! paper's assumption accepts.
//!
//! ```sh
//! cargo run --release -p sysr-bench --bin exp_skew
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

use sysr_bench::workloads::audit_plan;
use system_r::rss::SplitMix64;
use system_r::{tuple, Config, Database};

/// Draw from a Zipf(s) distribution over 1..=n by inverse CDF.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
        let mut weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        for w in &mut weights {
            acc += *w / total;
            *w = acc;
        }
        Zipf { cdf: weights }
    }

    fn sample(&self, rng: &mut SplitMix64) -> i64 {
        let u = rng.f64();
        self.cdf.partition_point(|&c| c < u) as i64
    }
}

fn build(keys: &[i64]) -> Database {
    let mut db = Database::with_config(Config { buffer_pages: 16, ..Config::default() });
    db.execute("CREATE TABLE T (K INTEGER, PAD VARCHAR(40))").unwrap();
    db.insert_rows("T", keys.iter().enumerate().map(|(i, &k)| tuple![k, format!("p{i:036}")]))
        .unwrap();
    db.execute("CREATE INDEX T_K ON T (K)").unwrap();
    db.execute("UPDATE STATISTICS").unwrap();
    db
}

fn main() {
    let n = 20_000usize;
    let domain = 50usize;
    let mut rng = SplitMix64::new(7);

    let uniform: Vec<i64> = (0..n).map(|_| rng.range_i64(0, domain as i64)).collect();
    let zipf_dist = Zipf::new(domain, 1.2);
    let zipf: Vec<i64> = (0..n).map(|_| zipf_dist.sample(&mut rng)).collect();

    println!("SKEW vs THE UNIFORMITY ASSUMPTION (Table 1: F = 1/ICARD for indexed equals)\n");
    println!("{n} rows, {domain} distinct keys, ICARD-based estimate = {} rows\n", n / domain);
    println!(
        "{:<10} {:<12} {:>10} {:>10} {:>8}   plan chosen",
        "dataset", "key", "estimated", "actual", "err ×"
    );
    println!("{:-<78}", "");
    for (name, data) in [("uniform", &uniform), ("zipf(1.2)", &zipf)] {
        let db = build(data);
        // Most frequent and a tail key.
        let mut freq = vec![0usize; domain + 1];
        for &k in data.iter() {
            freq[k as usize] += 1;
        }
        let hot = (0..=domain).max_by_key(|&k| freq[k]).unwrap();
        let cold = (0..=domain).filter(|&k| freq[k] > 0).min_by_key(|&k| freq[k]).unwrap();
        for (label, key) in [("hot", hot), ("cold", cold)] {
            let sql = format!("SELECT PAD FROM T WHERE K = {key}");
            audit_plan(&db, &sql).unwrap();
            let plan = db.plan(&sql).unwrap();
            let estimated = plan.qcard;
            let actual = freq[key] as f64;
            let err = if actual > 0.0 { estimated / actual } else { f64::NAN };
            let kind = match &plan.root.node {
                system_r::core::PlanNode::Scan(s) => match &s.access {
                    system_r::core::Access::Segment => "segment scan",
                    system_r::core::Access::Index { .. } => "index probe",
                },
                _ => "?",
            };
            println!(
                "{:<10} {:<12} {:>10.0} {:>10.0} {:>8.2}   {}",
                name,
                format!("{label} (={key})"),
                estimated,
                actual,
                err,
                kind
            );
        }
    }
    println!("{:-<78}", "");
    println!(
        "\nUnder uniform data the 1/ICARD estimate is within noise of the truth; under\n\
         Zipf skew it underestimates the hot key and overestimates the tail by an order\n\
         of magnitude — the price of Table 1's independence/uniformity assumptions,\n\
         which the paper accepts ('very roughly corresponds to the expected fraction')."
    );
}
