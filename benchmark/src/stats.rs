//! Order statistics over the benchmark's own timings, and the digest the
//! virtual-time reports are hashed with.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN: both are bugs in the caller.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method), so
/// spreads printed here match the ones the benchmark driver computes.
/// A single value is its own three quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let sorted = sorted(values);
    let m = sorted.len();
    assert!(m > 0, "quartiles of no values");
    if m == 1 {
        return [sorted[0]; 3];
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    out
}

/// Summary of one metric's samples as the README reports it.
#[derive(Debug, Clone, PartialEq)]
pub struct Spread {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Spread {
    pub fn of(values: &[f64]) -> Spread {
        let sorted = sorted(values);
        let [q1, _, q3] = quartiles(values);
        Spread {
            n: sorted.len(),
            min: sorted[0],
            q1,
            median: median(values),
            q3,
            max: sorted[sorted.len() - 1],
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in benchmark samples"));
    sorted
}

/// 64-bit FNV-1a, the hash the mesh journey digests use.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7], n=4) == [2.0, 4.0, 6.0]
        let seven: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(quartiles(&seven), [2.0, 4.0, 6.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), [7.5, 15.0, 22.5]);
        assert_eq!(quartiles(&[5.0]), [5.0, 5.0, 5.0]);
    }

    #[test]
    fn spread_reports_extremes_and_count() {
        let s = Spread::of(&[5.0, 1.0, 9.0, 3.0, 7.0]);
        assert_eq!((s.n, s.min, s.median, s.max), (5, 1.0, 5.0, 9.0));
        assert!(s.q1 <= s.median && s.median <= s.q3);
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        let mut h = Fnv1a::default();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::default();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }
}
