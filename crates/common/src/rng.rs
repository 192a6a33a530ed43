//! A tiny deterministic PRNG (SplitMix64) used where we need reproducible
//! data generation without pulling `rand` into lower-level crates (e.g. the
//! TPC-C loader in `hcc-storage`).
//!
//! Workload generators in `hcc-workloads` use `rand::StdRng` for request
//! streams; this type is for bulk data population and tests.

/// SplitMix64: tiny, fast, and statistically fine for data generation.
/// Its state after `n` draws is `seed + n·γ`, so the stream can be jumped
/// ahead in O(1) ([`jump`](Self::jump)); two generators that compare equal
/// draw the same stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

/// SplitMix64's increment, γ.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Skip the next `n` draws, in O(1): afterwards the generator is where
    /// `n` calls of [`next_u64`](Self::next_u64) would have left it.
    #[inline]
    pub fn jump(&mut self, n: u64) {
        self.state = self.state.wrapping_add(n.wrapping_mul(GAMMA));
    }

    /// Uniform integer in `[lo, hi]` (inclusive). `lo <= hi` required.
    #[inline]
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        let span = hi - lo + 1;
        lo + self.next_u64() % span
    }

    /// Uniform f64 in [0, 1).
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// TPC-C NURand: non-uniform random, clause 2.1.6 of the spec.
    /// `a` is the bitmask constant (255, 1023, 8191, ...), `c` the run
    /// constant, result in `[lo, hi]`.
    #[inline]
    pub fn nurand(&mut self, a: u64, c: u64, lo: u64, hi: u64) -> u64 {
        let r1 = self.range_inclusive(0, a);
        let r2 = self.range_inclusive(lo, hi);
        (((r1 | r2) + c) % (hi - lo + 1)) + lo
    }

    /// Random alphanumeric bytes of length in `[lo, hi]`, written into a
    /// fixed buffer; returns the actual length.
    pub fn alnum_into(&mut self, buf: &mut [u8], lo: usize, hi: usize) -> usize {
        const ALPHABET: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";
        let len = self.range_inclusive(lo as u64, hi as u64) as usize;
        debug_assert!(len <= buf.len());
        for slot in buf.iter_mut().take(len) {
            *slot = ALPHABET[(self.next_u64() % ALPHABET.len() as u64) as usize];
        }
        len
    }
}

/// A Zipfian sampler over `[0, n)` (Gray et al., "Quickly generating
/// billion-record synthetic databases"), the YCSB request distribution:
/// item `i` is drawn with probability proportional to `1 / (i+1)^theta`.
///
/// `theta` in `[0, 1)`: 0 is uniform, YCSB's default skew is 0.99. All the
/// state is precomputed at construction (the zeta sums are O(n)), so
/// sampling is O(1) and fully deterministic given the caller's
/// [`SplitMix64`] stream — the property the cross-backend equivalence
/// tests rely on.
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n >= 1, "empty item space");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0, 1)");
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2.min(n), theta);
        Zipfian {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    /// Generalized harmonic number `H_{n,theta}`.
    fn zeta(n: u64, theta: f64) -> f64 {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    pub fn n(&self) -> u64 {
        self.n
    }

    /// Draw one item rank in `[0, n)`; rank 0 is the hottest item.
    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1.min(self.n - 1);
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn jump_skips_exactly_n_draws() {
        for n in [0, 1, 2, 7, 1000] {
            let mut walked = SplitMix64::new(42);
            for _ in 0..n {
                walked.next_u64();
            }
            let mut jumped = SplitMix64::new(42);
            jumped.jump(n);
            assert_eq!(jumped, walked, "after {n} draws");
            assert_eq!(jumped.next_u64(), walked.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn range_inclusive_bounds() {
        let mut r = SplitMix64::new(7);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..10_000 {
            let v = r.range_inclusive(3, 7);
            assert!((3..=7).contains(&v));
            seen_lo |= v == 3;
            seen_hi |= v == 7;
        }
        assert!(seen_lo && seen_hi);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(9);
        for _ in 0..10_000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn nurand_in_range() {
        let mut r = SplitMix64::new(11);
        for _ in 0..10_000 {
            let v = r.nurand(255, 100, 1, 300);
            assert!((1..=300).contains(&v));
        }
    }

    #[test]
    fn nurand_is_nonuniform() {
        // NURand concentrates mass; the chi-square vs uniform should be
        // large. We just check the min/max bucket ratio is skewed.
        let mut r = SplitMix64::new(13);
        let mut buckets = [0u32; 10];
        for _ in 0..100_000 {
            let v = r.nurand(1023, 0, 1, 3000);
            buckets[((v - 1) * 10 / 3000) as usize] += 1;
        }
        let max = *buckets.iter().max().unwrap() as f64;
        let min = *buckets.iter().min().unwrap() as f64;
        assert!(max / min > 1.05, "nurand looks too uniform: {buckets:?}");
    }

    #[test]
    fn zipfian_stays_in_range_and_is_deterministic() {
        let z = Zipfian::new(1000, 0.99);
        let mut a = SplitMix64::new(21);
        let mut b = SplitMix64::new(21);
        for _ in 0..10_000 {
            let va = z.sample(&mut a);
            assert!(va < 1000);
            assert_eq!(va, z.sample(&mut b));
        }
    }

    #[test]
    fn zipfian_skew_parameter_concentrates_mass() {
        // At theta = 0.99 (YCSB default) the hottest 1% of a 10k-item
        // space must draw far more than 1% of requests; near theta = 0 the
        // distribution must be close to uniform. This pins the *direction*
        // and rough magnitude of the skew knob.
        let hot_share = |theta: f64| {
            let z = Zipfian::new(10_000, theta);
            let mut rng = SplitMix64::new(7);
            let mut hot = 0u64;
            const DRAWS: u64 = 100_000;
            for _ in 0..DRAWS {
                if z.sample(&mut rng) < 100 {
                    hot += 1;
                }
            }
            hot as f64 / DRAWS as f64
        };
        let skewed = hot_share(0.99);
        let mild = hot_share(0.5);
        let uniform = hot_share(0.01);
        assert!(skewed > 0.5, "theta=0.99 hot-1% share {skewed}");
        assert!(
            skewed > mild && mild > uniform,
            "share must grow with theta: {uniform} {mild} {skewed}"
        );
        assert!(
            (uniform - 0.01).abs() < 0.01,
            "theta→0 must approach uniform, got {uniform}"
        );
    }

    #[test]
    fn zipfian_rank_zero_is_hottest() {
        let z = Zipfian::new(100, 0.9);
        let mut rng = SplitMix64::new(3);
        let mut counts = [0u32; 100];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        let max = counts.iter().copied().max().unwrap();
        assert_eq!(counts[0], max, "rank 0 must be the mode");
        assert!(counts[0] > counts[10] && counts[10] > counts[99]);
    }

    #[test]
    fn alnum_lengths() {
        let mut r = SplitMix64::new(17);
        let mut buf = [0u8; 32];
        for _ in 0..100 {
            let n = r.alnum_into(&mut buf, 8, 16);
            assert!((8..=16).contains(&n));
            assert!(buf[..n].iter().all(|b| b.is_ascii_alphanumeric()));
        }
    }
}
