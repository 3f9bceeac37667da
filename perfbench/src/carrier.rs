//! The inputs: the carrier as CSV text, and the seeded message bits and
//! Zipf sampler. The library only ever sees what these produce.

use qpwm_rng::Rng;
use std::fmt::Write as _;

/// A weighted relational carrier as the owner hands it to qpwm: one
/// relation's CSV, the weights CSV, the rule, and the parameter domain.
pub struct Carrier {
    /// Schema spec, e.g. `R(a,b)`.
    pub schema: &'static str,
    /// The relation the table fills.
    pub relation: &'static str,
    /// The relation's rows.
    pub table: String,
    /// `element,weight` rows.
    pub weights: String,
    /// The parametric query, Datalog style.
    pub rule: &'static str,
    /// The parameter domain, as element names, in serving order.
    pub params: Vec<String>,
}

/// The ring `n0 → n1 → … → n(n-1) → n0` under `q($u; v) :- R($u, v)`
/// with weights `100 + 3i`: one answer tuple per parameter, one
/// neighbourhood type, capacity `n/2 - 1` bits.
pub fn ring(n: u32) -> Carrier {
    let mut table = String::with_capacity(n as usize * 16);
    let mut weights = String::with_capacity(n as usize * 12);
    for i in 0..n {
        let _ = writeln!(table, "n{i},n{}", (i + 1) % n);
        let _ = writeln!(weights, "n{i},{}", 100 + 3 * i64::from(i));
    }
    Carrier {
        schema: "R(a,b)",
        relation: "R",
        table,
        weights,
        rule: "q($u; v) :- R($u, v)",
        params: (0..n).map(|i| format!("n{i}")).collect(),
    }
}

/// `len` uniformly random message bits.
pub fn message(len: usize, rng: &mut Rng) -> Vec<bool> {
    (0..len).map(|_| rng.gen_f64() < 0.5).collect()
}

/// Zipf(`s`) over `n` ranks, with ranks mapped to items through a
/// seeded permutation so that the hot items differ between seeds.
pub struct Zipf {
    cdf: Vec<f64>,
    items: Vec<usize>,
}

impl Zipf {
    /// The distribution over items `0..n`.
    pub fn new(n: usize, s: f64, rng: &mut Rng) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        let mut items: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut items);
        Zipf { cdf, items }
    }

    /// One draw.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.gen_f64();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.items[rank]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_ring_closes() {
        let r = ring(8);
        assert_eq!(r.table.lines().count(), 8);
        assert_eq!(r.table.lines().last(), Some("n7,n0"));
        assert_eq!(r.weights.lines().nth(2), Some("n2,106"));
    }

    #[test]
    fn zipf_favours_few_items() {
        let mut rng = Rng::seed_from_u64(1);
        let z = Zipf::new(1000, 1.1, &mut rng);
        let mut hits = vec![0u32; 1000];
        for _ in 0..10_000 {
            hits[z.sample(&mut rng)] += 1;
        }
        hits.sort_unstable();
        let top: u32 = hits.iter().rev().take(10).sum();
        assert!(top > 3_000, "the ten hottest items draw {top} of 10000");
    }
}
