//! Order statistics and digests over measured samples.

/// Nearest-rank percentile (`q` in `(0, 1]`) of `samples`, which it sorts in place.
/// With 100 samples, p90 is the 90th smallest and ten samples lie beyond it.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    samples.sort_by(f64::total_cmp);
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Median (nearest-rank p50) of `samples`, which it sorts in place.
pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Each round's mean time across passes that ran the same rounds. The passes lie seconds
/// apart, so the mean averages a round over the states the host machine went through
/// during the run: on a shared host a round's time otherwise flips between a fast and a
/// slow mode, and the p50 of single executions flips with it.
pub fn mean_per_round(passes: &[Vec<f64>]) -> Vec<f64> {
    let rounds = passes.iter().map(Vec::len).min().unwrap_or(0);
    (0..rounds)
        .map(|r| passes.iter().map(|p| p[r]).sum::<f64>() / passes.len() as f64)
        .collect()
}

/// FNV-1a over a stream of 64-bit words: the digest every correctness check compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word into the digest.
    pub fn eat(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_leaves_ten_samples_beyond_p90_of_a_hundred() {
        let mut samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut samples, 0.9), 90.0);
        assert_eq!(samples.iter().filter(|&&s| s > 90.0).count(), 10);
        assert_eq!(median(&mut samples), 50.0);
    }

    #[test]
    fn mean_per_round_averages_each_round_over_the_passes() {
        let passes = vec![vec![3.0, 1.0, 5.0], vec![1.0, 4.0, 6.0]];
        assert_eq!(mean_per_round(&passes), vec![2.0, 2.5, 5.5]);
    }
}
