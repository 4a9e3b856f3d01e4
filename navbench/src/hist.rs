//! A bounded, log-bucketed histogram of non-negative integer samples
//! (nanoseconds, row counts).
//!
//! Values below 64 get one exact bucket each; above that, every power of two
//! is split into 64 linear sub-buckets, so a reported percentile is within
//! 1/64 (about 1.6%) of the true sample. The bucket array grows only to the
//! largest sample's bucket (about 1400 buckets for 100 ms in nanoseconds),
//! whatever the sample count, so a long run at 100k samples per second costs
//! the same memory as a short one.

/// Sub-buckets per power of two, as a bit count.
const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;

/// See the module docs.
#[derive(Clone)]
pub struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
    sum: f64,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

fn bucket_of(value: u64) -> usize {
    if value < SUB as u64 {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros();
    let shift = msb - SUB_BITS;
    let sub = (value >> shift) as usize - SUB;
    (shift as usize + 1) * SUB + sub
}

/// The smallest value and the width of bucket `index`.
fn bucket_range(index: usize) -> (u64, u64) {
    if index < SUB {
        return (index as u64, 1);
    }
    let shift = (index / SUB - 1) as u32;
    let sub = (index % SUB) as u64;
    ((SUB as u64 + sub) << shift, 1u64 << shift)
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram { counts: Vec::new(), total: 0, sum: 0.0, min: u64::MAX, max: 0 }
    }

    /// Adds one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = bucket_of(value);
        if self.counts.len() <= bucket {
            self.counts.resize(bucket + 1, 0);
        }
        self.counts[bucket] += 1;
        self.total += 1;
        self.sum += value as f64;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Exact mean of the samples, 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`) by the nearest-rank rule: the
    /// `ceil(q·n)`-th smallest sample, placed within its bucket by its rank
    /// among the bucket's samples (exact below 64) and clamped to the exact
    /// extremes. 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            if seen + count >= rank {
                let (low, width) = bucket_range(index);
                let within = (rank - seen) as f64 - 0.5;
                let value = low as f64 + width as f64 * within / count as f64;
                let value = if width == 1 { low as f64 } else { value };
                return value.clamp(self.min as f64, self.max as f64);
            }
            seen += count;
        }
        self.max as f64
    }
}

/// The mean and p99 of a latency: over all samples, and block by block.
///
/// Samples are cut, in the order they are recorded, into blocks of
/// [`BLOCK`]; each block's mean and p99 are kept, and a block figure is the
/// median of the blocks' values. A shared host (a 2-vCPU VM, measured)
/// stalls a thread for milliseconds several times a second, and its
/// CPU-bound speed drifts by 10–30% over tens of seconds.
///
/// * [`BlockLatency::p99`] is a block figure: a p99 over all samples is set
///   by the slowest stretch of the run, while a stall or a slow stretch
///   lifts only the blocks it falls in, which the median passes over.
/// * [`BlockLatency::mean`] is over all samples, for closed loops (one
///   operation in flight), where a stall delays one operation. It moves in
///   proportion to the share of slow time, where a median of block means
///   also depends on which blocks ran slow (one training run's block means
///   range over 40–75 µs) and jumps as the slow share crosses one half.
/// * [`BlockLatency::block_mean`] is a block figure, for open loops, where
///   a stall delays every request due during it, so that a mean over all
///   samples measures the stalls rather than the server.
#[derive(Default)]
pub struct BlockLatency {
    block: LogHistogram,
    /// `[mean, p99]` of every full block.
    blocks: Vec<[f64; 2]>,
    /// Sum and count of every sample.
    sum: f64,
    count: u64,
}

/// Samples per block: the fewest whose p99 has 10 samples beyond it.
pub const BLOCK: u64 = 1000;

impl BlockLatency {
    /// Adds one sample.
    pub fn record(&mut self, value: u64) {
        self.sum += value as f64;
        self.count += 1;
        self.block.record(value);
        if self.block.len() == BLOCK {
            self.blocks.push([self.block.mean(), self.block.quantile(0.99)]);
            self.block = LogHistogram::new();
        }
    }

    /// The mean of all samples, 0 when empty.
    pub fn mean(&self) -> f64 {
        self.sum / self.count.max(1) as f64
    }

    /// The median over the full blocks of their mean; the mean of all
    /// samples while no block is full.
    pub fn block_mean(&self) -> f64 {
        self.median(0, LogHistogram::mean)
    }

    /// As [`BlockLatency::block_mean`], for the p99.
    pub fn p99(&self) -> f64 {
        self.median(1, |block| block.quantile(0.99))
    }

    fn median(&self, index: usize, partial: impl Fn(&LogHistogram) -> f64) -> f64 {
        if self.blocks.is_empty() {
            return partial(&self.block);
        }
        let mut values: Vec<f64> = self.blocks.iter().map(|b| b[index]).collect();
        crate::median(&mut values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut hist = LogHistogram::new();
        for value in 0..64 {
            hist.record(value);
        }
        assert_eq!(hist.quantile(0.0), 0.0);
        assert_eq!(hist.quantile(1.0), 63.0);
        // Nearest rank: the 32nd of 64 samples is the value 31.
        assert_eq!(hist.quantile(0.5), 31.0);
    }

    #[test]
    fn percentiles_stay_within_bucket_precision() {
        let mut hist = LogHistogram::new();
        for value in 1..=100_000u64 {
            hist.record(value * 1000);
        }
        for (q, exact) in [(0.5, 50_000_000.0), (0.9, 90_000_000.0), (0.99, 99_000_000.0)] {
            let got = hist.quantile(q);
            assert!((got - exact).abs() / exact < 1.0 / 64.0, "q{q}: {got} vs {exact}");
        }
        assert_eq!(hist.quantile(1.0), 100_000_000.0, "the maximum is exact");
        assert_eq!(hist.len(), 100_000);
        assert!((hist.mean() - 50_000_500.0).abs() < 1e-3);
    }

    #[test]
    fn every_value_lands_in_a_bucket_that_contains_it() {
        for value in [0u64, 63, 64, 65, 127, 128, 1_000_003, u64::MAX / 3, u64::MAX] {
            let (low, width) = bucket_range(bucket_of(value));
            assert!(low <= value && value - low < width, "{value} outside [{low}, +{width})");
        }
    }

    #[test]
    fn block_latency_takes_the_median_block_and_the_overall_mean() {
        let mut blocks = BlockLatency::default();
        // Nothing full yet: figures of the samples so far.
        for value in 1..=100 {
            blocks.record(value);
        }
        assert_eq!(blocks.mean(), 50.5);
        assert_eq!(blocks.block_mean(), 50.5);
        assert_eq!(blocks.p99(), 99.0);
        let mut blocks = BlockLatency::default();
        // Eight blocks of one value each: 1000 ×3, 2000 ×3, one stalled
        // (500000) and one fast (10); then a partial block, ignored.
        for value in [1000u64, 2000, 1000, 500_000, 2000, 10, 1000, 2000] {
            for _ in 0..BLOCK {
                blocks.record(value);
            }
        }
        for _ in 0..BLOCK / 2 {
            blocks.record(9_000_000);
        }
        // Sorted: 10, 1000 ×3, 2000 ×3, 500000; the middle two are 1000
        // and 2000.
        assert_eq!(blocks.block_mean(), 1500.0);
        assert_eq!(blocks.p99(), 1500.0);
        // The mean counts every sample, the partial block's too.
        let sum = (9010.0 + 500_000.0) * BLOCK as f64 + 4_500_000.0 * BLOCK as f64;
        assert_eq!(blocks.mean(), sum / (8.5 * BLOCK as f64));
    }

    #[test]
    fn quantiles_interpolate_within_a_bucket() {
        let mut hist = LogHistogram::new();
        // 1000..=1007 share one bucket of width 8.
        for value in [1000u64, 1001, 1002, 1003] {
            hist.record(value);
        }
        let (p25, p100) = (hist.quantile(0.25), hist.quantile(1.0));
        assert!(p25 < p100, "ranks within one bucket stay ordered: {p25} {p100}");
        assert!((1000.0..=1003.0).contains(&p25));
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let hist = LogHistogram::new();
        assert_eq!(hist.len(), 0);
        assert_eq!(hist.quantile(0.99), 0.0);
        assert_eq!(hist.mean(), 0.0);
    }
}
