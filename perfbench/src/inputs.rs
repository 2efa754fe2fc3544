//! Seeded input generation. The program under test only ever sees the
//! queries built here; the same seed always yields the same queries.

use rs_graph::VertexId;

/// SplitMix64: small, seedable, and independent of the workspace's own
/// random-number stand-in, so a change there cannot move the inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated from other streams of the same seed
    /// by `salt`.
    pub fn new(seed: u64, salt: u64) -> Rng {
        let mut rng = Rng(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    pub fn vertex(&mut self, n: usize) -> VertexId {
        self.below(n) as VertexId
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A low-discrepancy sequence in `[0, 1)` (additive recurrence with an
/// irrational step from a random start): every prefix covers the unit
/// interval evenly. Drawing goal ranks and popularity ranks this way
/// gives every seed, and every prefix a closed loop happens to consume,
/// the same near and far mix, so a run's figures do not hinge on how
/// many cheap or costly requests one seed happened to draw.
#[derive(Debug, Clone)]
pub struct Spread {
    next: f64,
    step: f64,
}

/// Golden-ratio conjugate, the usual step.
pub const GOLDEN: f64 = 0.618_033_988_749_894_9;
/// A second step, for a sequence drawn beside a golden one.
pub const SILVER: f64 = 0.414_213_562_373_095_1;

impl Spread {
    pub fn new(rng: &mut Rng, step: f64) -> Spread {
        Spread { next: rng.unit(), step }
    }

    /// The same sequence on every seed. Where draws carry unequal weight
    /// (the Zipf head of a key population), a random start would change
    /// the mix from seed to seed; a fixed one changes only the vertices.
    pub fn fixed(step: f64) -> Spread {
        Spread { next: 0.5, step }
    }

    pub fn draw(&mut self) -> f64 {
        let u = self.next;
        self.next = (self.next + self.step).fract();
        u
    }
}

/// Zipf sampler over `0..n`: rank `i` has weight `1 / (i + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut total = 0.0;
        let cumulative = (0..n.max(1))
            .map(|i| {
                total += 1.0 / ((i + 1) as f64).powf(s);
                total
            })
            .collect();
        Zipf { cumulative }
    }

    /// The rank at cumulative share `u` in `[0, 1)`.
    pub fn quantile(&self, u: f64) -> usize {
        let total = *self.cumulative.last().expect("non-empty population");
        self.cumulative.partition_point(|&c| c <= u * total).min(self.cumulative.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7, 1);
        assert!(a.iter().all(|&x| x == r.next_u64()));
        assert_ne!(Rng::new(7, 2).next_u64(), a[0]);
    }

    #[test]
    fn every_prefix_covers_the_interval() {
        let mut rng = Rng::new(3, 0);
        let mut spread = Spread::new(&mut rng, GOLDEN);
        let u: Vec<f64> = (0..200).map(|_| spread.draw()).collect();
        for prefix in [20, 50, 200] {
            for bin in 0..10 {
                let lo = bin as f64 / 10.0;
                let hits = u[..prefix].iter().filter(|&&x| (lo..lo + 0.1).contains(&x)).count();
                assert!(hits.abs_diff(prefix / 10) <= 1, "prefix {prefix} bin {bin}: {hits}");
            }
        }
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = Rng::new(1, 0);
        let draws: Vec<usize> = (0..10_000).map(|_| z.quantile(rng.unit())).collect();
        assert!(draws.iter().all(|&d| d < 1000));
        let head = draws.iter().filter(|&&d| d < 10).count();
        let tail = draws.iter().filter(|&&d| (500..510).contains(&d)).count();
        assert!(head > 20 * tail.max(1), "head {head} tail {tail}");
    }
}
