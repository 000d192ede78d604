//! Seeded input generators. Everything a workload feeds the stack derives
//! from `--seed` through these; the stack itself only ever sees the calls.

/// SplitMix64: the finalizer also serves as the payload/stamp mixer.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256++ seeded through SplitMix64.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// A generator for `(seed, stream)`: distinct streams of one seed are
    /// independent, so adding a draw to one never shifts another.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut z = mix(seed) ^ mix(stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        let mut s = [0u64; 4];
        for w in &mut s {
            z = mix(z);
            *w = z;
        }
        Rng { s }
    }

    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform in `0..n` (multiply-shift; the bias at these ranges is
    /// below 2⁻⁴⁰).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A weighted choice of byte-size ranges; sizes are multiples of 8 so a
/// payload is whole stamp words.
#[derive(Debug, Clone)]
pub struct SizeMix {
    /// `(cumulative weight, lo, hi)`; weights sum to the last entry's.
    classes: Vec<(u64, u64, u64)>,
}

impl SizeMix {
    pub fn new(classes: &[(u64, u64, u64)]) -> SizeMix {
        let mut acc = 0;
        let classes = classes
            .iter()
            .map(|&(w, lo, hi)| {
                assert!(
                    w > 0 && lo >= 8 && hi >= lo && lo.is_multiple_of(8) && hi.is_multiple_of(8)
                );
                acc += w;
                (acc, lo, hi)
            })
            .collect();
        SizeMix { classes }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let total = self.classes.last().expect("non-empty mix").0;
        let pick = rng.below(total);
        let &(_, lo, hi) =
            self.classes.iter().find(|c| pick < c.0).expect("pick below the total weight");
        (lo + 8 * rng.below((hi - lo) / 8 + 1)) as usize
    }
}

/// YCSB-style zipfian ranks over `0..n` (Gray et al.'s closed form): rank 0
/// is the most popular.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Zipf {
        assert!(n >= 2 && theta > 0.0 && theta < 1.0);
        let zeta = |k: u64| (1..=k).map(|i| (i as f64).powf(-theta)).sum::<f64>();
        let zetan = zeta(n);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan);
        Zipf { n, theta, alpha: 1.0 / (1.0 - theta), zetan, eta }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }
}

/// Scatters popularity ranks over `0..n` (`n` a power of two) so hot items
/// are not neighbours: an odd multiplier is a bijection mod 2^k.
pub fn scatter(rank: u64, n: u64, seed: u64) -> u64 {
    debug_assert!(n.is_power_of_two());
    (rank.wrapping_mul(mix(seed) | 1).wrapping_add(mix(seed ^ 0xA5A5))) & (n - 1)
}

/// FNV-1a over the generated op stream: same seed ⇒ same hash, on every
/// commit. Printed per workload as `bench.stream_hash` (low 32 bits, so the
/// value is exact in a JSON double).
#[derive(Debug, Clone)]
pub struct StreamHash(u64);

impl Default for StreamHash {
    fn default() -> Self {
        StreamHash(0xcbf2_9ce4_8422_2325)
    }
}

impl StreamHash {
    pub fn op(&mut self, kind: u8, a: u64, b: u64) {
        for byte in [kind as u64, a, b].iter().flat_map(|w| w.to_le_bytes()) {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn value(&self) -> u64 {
        (self.0 ^ (self.0 >> 32)) & 0xFFFF_FFFF
    }
}

/// Self-checks for `--selftest`; returns the first failure.
pub fn selftest() -> Result<(), String> {
    let draw = |seed| {
        let mut rng = Rng::new(seed, 1);
        let mix = SizeMix::new(&[(50, 256, 768), (50, 3072, 5120)]);
        let zipf = Zipf::new(1 << 10, 0.99);
        let mut h = StreamHash::default();
        let mut top = 0u64;
        for _ in 0..20_000 {
            let size = mix.sample(&mut rng) as u64;
            if !(256..=5120).contains(&size) || !size.is_multiple_of(8) {
                return Err(format!("size {size} outside its mix"));
            }
            let rank = zipf.sample(&mut rng);
            if rank >= 1 << 10 {
                return Err(format!("zipf rank {rank} out of range"));
            }
            top += (rank == 0) as u64;
            h.op(1, size, scatter(rank, 1 << 10, seed));
        }
        // zipf(0.99, 1024): rank 0 draws 1/zeta ≈ 13 % of samples.
        if !(2_000..3_400).contains(&top) {
            return Err(format!("zipf rank 0 drawn {top} of 20000 times"));
        }
        Ok(h.value())
    };
    if draw(42)? != draw(42)? {
        return Err("same seed gave two op streams".into());
    }
    if draw(42)? == draw(7)? {
        return Err("seeds 42 and 7 gave one op stream".into());
    }
    let mut seen = vec![false; 256];
    for r in 0..256 {
        seen[scatter(r, 256, 9) as usize] = true;
    }
    if seen.contains(&false) {
        return Err("scatter is not a bijection".into());
    }
    Ok(())
}
