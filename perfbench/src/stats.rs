//! Order statistics over measured samples.

/// The median (mean of the two middle values for an even count); 0 for no
/// samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let sorted = sorted(samples);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The mean of `samples` without the lowest and highest `trim` share of
/// them; 0 for no samples.
pub fn trimmed_mean(samples: &[f64], trim: f64) -> f64 {
    let sorted = sorted(samples);
    let cut = (sorted.len() as f64 * trim) as usize;
    let kept = &sorted[cut..sorted.len() - cut];
    if kept.is_empty() {
        return 0.0;
    }
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// A tail percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// The percentile reported (e.g. 99.0).
    pub pct: f64,
    /// Its nearest-rank value.
    pub value: f64,
    /// How many samples it was taken from.
    pub samples: usize,
}

/// The highest percentile on the ladder p50, p51, …, p99 that has at least
/// ten samples beyond it, by nearest rank.  The ladder stops at p99: on a
/// shared host, p99.9 of a sub-microsecond query measures the host's
/// interrupts and swings by a fifth between runs.  With fewer than twenty
/// samples no such percentile exists and the maximum (p100) is reported.
pub fn tail(samples: &[f64]) -> Tail {
    let n = samples.len();
    let sorted = sorted(samples);
    let pct = (50..=99)
        .rev()
        .map(f64::from)
        .find(|&p| n as f64 * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(100.0);
    Tail {
        pct,
        value: nearest_rank(&sorted, pct),
        samples: n,
    }
}

fn nearest_rank(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// A bounded, order-preserving systematic sample of a long stream: every
/// `stride`-th value is kept, and when the buffer fills, every other kept
/// value is dropped and the stride doubles.  Kept values are exact.
#[derive(Debug)]
pub struct Decimator {
    values: Vec<f64>,
    cap: usize,
    stride: u64,
    seen: u64,
}

impl Decimator {
    /// An empty sample holding at most `cap` values.
    pub fn new(cap: usize) -> Self {
        Self {
            values: Vec::with_capacity(cap),
            cap,
            stride: 1,
            seen: 0,
        }
    }

    /// Offers one value.
    pub fn push(&mut self, value: f64) {
        if self.seen.is_multiple_of(self.stride) {
            if self.values.len() == self.cap {
                let mut i = 0;
                self.values.retain(|_| {
                    i += 1;
                    i % 2 == 1
                });
                self.stride *= 2;
                if !self.seen.is_multiple_of(self.stride) {
                    self.seen += 1;
                    return;
                }
            }
            self.values.push(value);
        }
        self.seen += 1;
    }

    /// The kept values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_has_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.pct, 99.0);
        assert_eq!(t.value, 990.0);
        let short: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(tail(&short).pct, 66.0);
        assert_eq!(tail(&[1.0, 2.0]).pct, 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn decimator_keeps_an_even_stride() {
        let mut d = Decimator::new(8);
        for i in 0..100 {
            d.push(f64::from(i));
        }
        let v = d.values();
        assert!(v.len() <= 8);
        let step = v[1] - v[0];
        assert!(v.windows(2).all(|w| w[1] - w[0] == step));
    }
}
