//! Order statistics: the nearest-rank percentile the rest of the repo
//! uses (`djinn::trace::percentile`), the fixed-size histogram each
//! round of a run is recorded into, and the shape every end-to-end
//! metric is reported in.

use crate::json::Json;

/// Nearest-rank `q`-quantile of unsorted samples; NaN when there are
/// none (rendered as `null`, never as an invented zero).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    djinn::trace::percentile(&sorted, q).unwrap_or(f64::NAN)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// One reported metric: the value, and the parts it is the median of
/// (the rounds of a run, or the repeated set-ups) so that a reader can
/// see how far they disagree.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub min: f64,
    pub max: f64,
    /// The same metric on each part alone.
    pub parts: Vec<f64>,
    /// Samples behind each part.
    pub samples: Vec<usize>,
}

impl Reading {
    pub fn new(value: f64, parts: Vec<f64>, samples: Vec<usize>) -> Reading {
        let finite = parts.iter().copied().filter(|v| v.is_finite());
        Reading {
            value,
            min: finite.clone().fold(f64::NAN, f64::min),
            max: finite.fold(f64::NAN, f64::max),
            parts,
            samples,
        }
    }

    /// The median of repeated measurements, each taken over `samples[i]`
    /// samples. A part that could not be measured (NaN) takes no part in
    /// the median.
    pub fn median_of(parts: Vec<f64>, samples: Vec<usize>) -> Reading {
        let finite: Vec<f64> = parts.iter().copied().filter(|v| v.is_finite()).collect();
        Reading::new(median(&finite), parts, samples)
    }

    /// How far the parts disagree, as a share of the value: the whole
    /// range of a handful of parts, the distance between the quartiles
    /// of five or more (among five rounds or fifteen set-ups there is
    /// often a slow one, which is what the median is for).
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 || !self.value.is_finite() {
            return 0.0;
        }
        let finite: Vec<f64> = self
            .parts
            .iter()
            .copied()
            .filter(|v| v.is_finite())
            .collect();
        let width = if finite.len() > 4 {
            percentile(&finite, 0.75) - percentile(&finite, 0.25)
        } else {
            self.max - self.min
        };
        width / self.value.abs()
    }

    pub fn to_json(&self, unit: &str) -> Json {
        let mut j = Json::obj();
        j.set("value", self.value)
            .set("unit", unit)
            .set("min", self.min)
            .set("max", self.max)
            .set(
                "parts",
                self.parts.iter().map(|&v| Json::Num(v)).collect::<Vec<_>>(),
            )
            .set(
                "n",
                self.samples
                    .iter()
                    .map(|&n| Json::from(n))
                    .collect::<Vec<_>>(),
            );
        j
    }

    pub fn from_json(j: &Json) -> Option<Reading> {
        let num = |v: &Json| v.num().unwrap_or(f64::NAN);
        Some(Reading {
            value: num(j.get("value")?),
            min: num(j.get("min")?),
            max: num(j.get("max")?),
            parts: j.get("parts")?.items().iter().map(num).collect(),
            samples: j
                .get("n")?
                .items()
                .iter()
                .map(|v| num(v) as usize)
                .collect(),
        })
    }
}

/// A fixed-size latency histogram (ns). The untraced pass keeps one per
/// round instead of one record per request, so the harness's memory and
/// CPU do not grow with the throughput it is measuring (they are part
/// of `peak_rss_mb` and `cpu_ms_per_req`). Buckets are 1/128 of their
/// octave wide: a reported percentile is within 0.4% of the sample.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Hist {
    /// Empty until the first sample: most workloads never see a stream
    /// gap or a late send, and an untouched histogram costs nothing.
    counts: Vec<u32>,
    total: u64,
}

/// Sub-buckets per octave, as a power of two.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Values up to 2^33 ns (8.6 s, past every wait the harness allows)
/// keep their precision; anything longer lands in the last bucket.
const OCTAVES: u64 = 26;

const BUCKETS: usize = (SUB * (OCTAVES + 1)) as usize;

impl Hist {
    fn index(ns: u64) -> usize {
        if ns < SUB {
            return ns as usize;
        }
        let octave = u64::from(63 - ns.leading_zeros() - SUB_BITS);
        let sub = (ns >> octave) & (SUB - 1);
        (((octave + 1) * SUB + sub) as usize).min(BUCKETS - 1)
    }

    /// The lowest value bucket `idx` holds and how many values wide it
    /// is, ns.
    fn bounds(idx: usize) -> (f64, f64) {
        let (row, sub) = (idx as u64 / SUB, idx as u64 % SUB);
        if row == 0 {
            return (sub as f64, 1.0);
        }
        let octave = row - 1;
        (((SUB + sub) << octave) as f64, (1u64 << octave) as f64)
    }

    pub fn record(&mut self, ns: u64) {
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        self.counts[Self::index(ns)] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn merge(&mut self, other: &Hist) {
        if other.total == 0 {
            return;
        }
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        // Only buckets that hold something are written, so the zeroed
        // pages between them stay untouched (and out of the RSS).
        for (mine, &theirs) in self.counts.iter_mut().zip(&other.counts) {
            if theirs != 0 {
                *mine += theirs;
            }
        }
        self.total += other.total;
    }

    /// Nearest-rank `q`-quantile, ns, among `population` values of which
    /// the recorded ones are the smallest: the rest (requests that
    /// failed) count as +inf. NaN when the population is empty. Within
    /// its bucket the ranked sample is placed as if the bucket's samples
    /// were spread evenly over it, so a reading does not snap to a grid
    /// of bucket middles.
    pub fn percentile_among(&self, q: f64, population: u64) -> f64 {
        if population == 0 {
            return f64::NAN;
        }
        let rank = ((q.clamp(0.0, 1.0) * population as f64).ceil() as u64).clamp(1, population);
        if rank > self.total {
            return f64::INFINITY;
        }
        let mut below = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if below + u64::from(c) >= rank {
                let (low, width) = Self::bounds(idx);
                if width == 1.0 {
                    return low;
                }
                return low + width * ((rank - below) as f64 - 0.5) / f64::from(c);
            }
            below += u64::from(c);
        }
        unreachable!("rank is within the recorded total")
    }

    pub fn percentile(&self, q: f64) -> f64 {
        self.percentile_among(q, self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_are_nearest_rank_within_half_a_percent() {
        let mut h = Hist::default();
        let samples: Vec<f64> = (1..=10_000u64).map(|i| (i * 137 + 900) as f64).collect();
        for &s in &samples {
            h.record(s as u64);
        }
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            let (exact, got) = (percentile(&samples, q), h.percentile(q));
            assert!((got - exact).abs() / exact < 4e-3, "q{q}: {got} vs {exact}");
        }
        assert_eq!(h.count(), 10_000);
        // Small values are exact; an empty histogram has no percentile.
        let mut small = Hist::default();
        small.record(7);
        assert_eq!(small.percentile(0.5), 7.0);
        assert!(Hist::default().percentile(0.5).is_nan());
        // A very long wait still lands somewhere.
        small.record(u64::MAX);
        assert!(small.percentile(1.0) > 8e9);
    }

    #[test]
    fn failures_sit_above_every_recorded_latency() {
        let mut h = Hist::default();
        for ns in [100, 200, 300] {
            h.record(ns);
        }
        // 3 answered of 4 sent: the median is an answered one, the p99
        // is the request that never came back.
        assert_eq!(h.percentile_among(0.5, 4), 200.0);
        assert_eq!(h.percentile_among(0.99, 4), f64::INFINITY);
        let mut both = h.clone();
        both.merge(&h);
        assert_eq!((both.count(), both.percentile(0.5)), (6, 200.0));
    }

    #[test]
    fn percentile_is_nearest_rank_not_interpolated() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        // rank = ceil(q * n), 1-based: p50 of ten is the 5th value, p99
        // the 10th (a truncating index would report the 9th).
        assert_eq!(percentile(&ten, 0.50), 5.0);
        assert_eq!(percentile(&ten, 0.99), 10.0);
        assert_eq!(percentile(&ten, 0.0), 1.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn a_reading_keeps_its_parts_and_says_how_far_they_disagree() {
        let r = Reading::new(1.0, vec![0.9, 1.0, 1.2], vec![100; 3]);
        assert_eq!((r.value, r.min, r.max), (1.0, 0.9, 1.2));
        assert!((r.spread() - 0.3).abs() < 1e-12);
        // A part with no samples (NaN) is left out of the extremes but
        // kept in the list.
        let gap = Reading::new(3.0, vec![2.0, f64::NAN, 4.0], vec![5, 0, 5]);
        assert_eq!((gap.min, gap.max, gap.parts.len()), (2.0, 4.0, 3));
        // A metric is the median of its rounds: one slow round moves the
        // maximum, not the value.
        let rounds = Reading::median_of(vec![1.0, 1.1, 9.0, 0.9, 1.05], vec![1000; 5]);
        assert_eq!((rounds.value, rounds.max), (1.05, 9.0));
        assert_eq!(Reading::median_of(vec![7.0], vec![1]).spread(), 0.0);
        // From five parts on the spread is between the quartiles, so
        // that one slow round does not make the reading look unsteady.
        assert!(rounds.spread() < 0.1, "{}", rounds.spread());
        // An even number of rounds reports a round that was measured,
        // not a mean of two; a round without a reading is skipped.
        assert_eq!(
            Reading::median_of(vec![4.0, 1.0, 3.0, 2.0], vec![1; 4]).value,
            2.0
        );
        assert_eq!(
            Reading::median_of(vec![f64::NAN, 5.0], vec![0, 1]).value,
            5.0
        );
    }

    #[test]
    fn readings_survive_a_json_round_trip() {
        let r = Reading::new(1.25, vec![1.25, 1.5, 1.125], vec![10, 11, 12]);
        let back = Reading::from_json(&Json::parse(&r.to_json("ms").to_string()).unwrap()).unwrap();
        assert_eq!(back, r);
    }
}
