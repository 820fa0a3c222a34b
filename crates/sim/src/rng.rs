//! Deterministic randomness for the laboratory.
//!
//! Every stochastic element of the model (loss processes, jitter, sampling)
//! draws from a [`SimRng`] seeded explicitly by the experiment, so a run is a
//! pure function of its configuration. Streams can be forked per component
//! with [`SimRng::fork`] so adding a random draw in one component does not
//! perturb the sequence seen by another.
//!
//! The generator is a self-contained xoshiro256++ (seeded through a
//! SplitMix64 expander) so the simulation has no external dependencies and
//! the stream is bit-stable across platforms and toolchain versions — a
//! prerequisite for the sweep runner's "same seeds, same bytes" contract.

/// SplitMix64 finalizer: mixes a 64-bit value into a well-distributed one.
/// Used for seed expansion and for deriving per-scenario seeds.
#[inline]
pub const fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic, forkable random stream (xoshiro256++).
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Create a stream from a 64-bit seed.
    pub fn seeded(seed: u64) -> Self {
        // SplitMix64 expansion, as recommended by the xoshiro authors: the
        // four words are decorrelated even for adjacent seeds.
        let mut z = seed;
        let mut s = [0u64; 4];
        for w in &mut s {
            z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
            *w = splitmix64(z);
        }
        // All-zero state is the one forbidden state; seed 0 cannot produce
        // it through SplitMix64, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9e37_79b9_7f4a_7c15;
        }
        SimRng { s }
    }

    /// Derive the seed for scenario `index` of a sweep with `master` seed.
    ///
    /// This is the seeding discipline of the sweep runner: scenario seed =
    /// f(master seed, scenario index), independent of thread count and
    /// completion order, so a sweep is reproducible point-by-point.
    pub const fn scenario_seed(master: u64, index: u64) -> u64 {
        splitmix64(master ^ splitmix64(index.wrapping_add(1)))
    }

    /// Next raw 64-bit output (xoshiro256++).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Derive an independent stream for a named component.
    ///
    /// The child seed mixes the label into this stream's next output with a
    /// SplitMix64 finalizer, so distinct labels give well-separated streams.
    pub fn fork(&mut self, label: &str) -> SimRng {
        let mut h: u64 = self.next_u64() ^ 0x9e37_79b9_7f4a_7c15;
        for b in label.bytes() {
            h = (h ^ b as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            h ^= h >> 27;
        }
        h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        SimRng::seeded(h)
    }

    /// Uniform `f64` in `[0, 1)`: the top 53 bits scaled by 2⁻⁵³.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.uniform() < p
        }
    }

    /// Uniform integer in `[lo, hi)`. Panics if the range is empty.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        let span = hi - lo;
        // Debiased multiply-shift (Lemire): uniform over [0, span).
        let mut x = self.next_u64();
        let mut m = (x as u128) * (span as u128);
        let mut l = m as u64;
        if l < span {
            let t = span.wrapping_neg() % span;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (span as u128);
                l = m as u64;
            }
        }
        lo + (m >> 64) as u64
    }

    /// Exponentially distributed value with the given mean (for Poisson
    /// inter-arrival processes). Returns 0 for a zero mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        // 1 - uniform() is in (0, 1], so the log argument never hits zero.
        let u = 1.0 - self.uniform();
        -mean * u.ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seeded(42);
        let mut b = SimRng::seeded(42);
        for _ in 0..100 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }

    #[test]
    fn forks_are_label_dependent_and_deterministic() {
        let mut root1 = SimRng::seeded(7);
        let mut root2 = SimRng::seeded(7);
        let mut a1 = root1.fork("loss");
        let mut a2 = root2.fork("loss");
        assert_eq!(a1.uniform().to_bits(), a2.uniform().to_bits());

        let mut root3 = SimRng::seeded(7);
        let mut b = root3.fork("jitter");
        // Different labels from the same root state diverge.
        let mut root4 = SimRng::seeded(7);
        let mut a = root4.fork("loss");
        assert_ne!(a.uniform().to_bits(), b.uniform().to_bits());
    }

    #[test]
    fn chance_edges() {
        let mut r = SimRng::seeded(1);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        // p=0.5 should be non-degenerate.
        let hits = (0..1000).filter(|_| r.chance(0.5)).count();
        assert!((300..700).contains(&hits), "hits={hits}");
    }

    #[test]
    fn exponential_mean_converges() {
        let mut r = SimRng::seeded(3);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.exponential(5.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 5.0).abs() < 0.2, "mean={mean}");
        assert_eq!(r.exponential(0.0), 0.0);
    }

    #[test]
    fn range_bounds() {
        let mut r = SimRng::seeded(9);
        for _ in 0..1000 {
            let x = r.range(10, 20);
            assert!((10..20).contains(&x));
        }
        // All values in a small range are reachable.
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[(r.range(10, 20) - 10) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues hit: {seen:?}");
    }

    #[test]
    fn uniform_is_in_unit_interval_and_varied() {
        let mut r = SimRng::seeded(1234);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean={mean}");
    }

    #[test]
    fn scenario_seeds_are_stable_and_distinct() {
        // The sweep contract: pure function of (master, index)...
        assert_eq!(SimRng::scenario_seed(1, 0), SimRng::scenario_seed(1, 0));
        // ...and well-separated across both arguments.
        let mut seeds: Vec<u64> = (0..64)
            .flat_map(|m| (0..64).map(move |i| SimRng::scenario_seed(m, i)))
            .collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 64 * 64, "no collisions in a 64x64 grid");
    }
}
