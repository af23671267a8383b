//! Small numeric helpers: percentiles, medians, output digests, the
//! rel-L2 oracle check, and process memory from `/proc/self/status`.

/// Nearest-rank percentile of an ascending-sorted sample (the same rule
/// `ModelRuntime::stats` uses), `q` in `[0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Ascending copy of a sample.
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median (nearest rank) of an unsorted sample.
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v), 0.5)
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Relative L2 error of `got` against `want`.
pub fn rel_l2(got: &[f32], want: &[f32]) -> f64 {
    if got.len() != want.len() {
        return f64::INFINITY;
    }
    let num: f64 = got
        .iter()
        .zip(want)
        .map(|(a, b)| (f64::from(*a) - f64::from(*b)).powi(2))
        .sum();
    let den: f64 = want.iter().map(|b| f64::from(*b).powi(2)).sum();
    (num.sqrt() / den.sqrt().max(1e-30)).abs()
}

/// FNV-1a digest of everything an op produced, so two runs (or two
/// passes of one run) can be compared with one number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Fold raw bytes in.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    /// Fold a number in by its bits.
    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// Fold an `f64` in by its bits.
    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    /// Fold a tensor's values in by their bits.
    pub fn f32s(&mut self, xs: &[f32]) {
        for x in xs {
            self.bytes(&x.to_bits().to_le_bytes());
        }
    }

    /// Fold a string in.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xFF]);
    }
}

/// `(VmHWM, VmRSS)` of this process in KiB, from `/proc/self/status`.
pub fn memory_kb() -> (u64, u64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|n| n.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (field("VmHWM:"), field("VmRSS:"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_runtime_rule() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&s, 0.5), 3.0);
        assert_eq!(percentile(&s, 0.9), 5.0);
        // 100 samples: p90 leaves exactly ten samples above it.
        let s: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.9), 89.0);
    }

    #[test]
    fn digest_sees_every_bit() {
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.f32s(&[1.0, 2.0]);
        b.f32s(&[1.0, f32::from_bits(2.0f32.to_bits() ^ 1)]);
        assert_ne!(a, b);
    }
}
