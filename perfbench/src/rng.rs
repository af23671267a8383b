//! The benchmark's own seeded generator (SplitMix64).
//!
//! Op sequences and inputs come from here rather than from the
//! workspace's vendored `rand`, so a change to that crate can never
//! change what a seed means.

/// SplitMix64: tiny, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed`, decorrelated per `stream` label so the
    /// op sequence, inputs and weights of one seed draw independent
    /// numbers.
    pub fn new(seed: u64, stream: &str) -> Self {
        let mut s = SplitMix64(seed ^ 0x9E37_79B9_7F4A_7C15);
        for b in stream.bytes() {
            s.0 ^= u64::from(b);
            s.next_u64();
        }
        s
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }

    /// Uniform in `[-half, half)`, exactly representable in f32.
    pub fn centered(&mut self, half: f32) -> f32 {
        let unit = (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32;
        (unit - 0.5) * 2.0 * half
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_distinct() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix64::new(7, "ops");
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix64::new(7, "ops");
                move |_| r.next_u64()
            })
            .collect();
        let c = SplitMix64::new(7, "inputs").next_u64();
        assert_eq!(a, b);
        assert_ne!(a[0], c);
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = SplitMix64::new(1, "x");
        assert!((0..1000).all(|_| r.below(3) < 3));
    }
}
