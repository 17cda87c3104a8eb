//! Shared serving-queue primitives.
//!
//! The live DjiNN server (`djinn::engine`) and the open-loop simulator
//! ([`crate::openloop`]) model the *same* queueing discipline: a bounded
//! admission queue in front of a batching dispatcher. This module holds
//! that discipline once, as pure data structures with no threads and no
//! clocks, so the implementation and the simulation cannot drift apart:
//!
//! * [`BoundedQueue`] — a bounded FIFO with non-blocking admission
//!   (a full queue *sheds* the offered job instead of blocking the
//!   producer) and greedy batch assembly under a width cap, including the
//!   carry-over rule: a job that would push the batch past the cap stays
//!   at the head and seeds the next batch.
//! * [`LatencyHistogram`] — a log-bucketed latency recorder with bounded
//!   memory, for p50/p99 queue-wait and service-time telemetry that must
//!   survive millions of samples.
//! * [`percentile_sorted`] — the one percentile definition every report
//!   in the workspace uses.

use std::collections::VecDeque;

/// A bounded FIFO queue with shed-on-full admission.
///
/// Admission never blocks: [`BoundedQueue::offer`] either enqueues the
/// job or hands it straight back (`Err`), counting the shed. This is the
/// backpressure contract of the serving layer — under overload the
/// *client* is told to back off; no producer thread ever wedges on a
/// full queue.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    jobs: VecDeque<T>,
    capacity: usize,
    shed: u64,
    admitted: u64,
}

impl<T> BoundedQueue<T> {
    /// An empty queue admitting at most `capacity` jobs.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (a queue that can never admit).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be at least 1");
        BoundedQueue {
            jobs: VecDeque::new(),
            capacity,
            shed: 0,
            admitted: 0,
        }
    }

    /// Offers one job. Returns the depth after admission, or the job
    /// itself (shed) when the queue is full.
    #[allow(clippy::result_large_err)] // Err IS the returned job, by design
    pub fn offer(&mut self, job: T) -> Result<usize, T> {
        self.offer_beside(job, 0)
    }

    /// [`BoundedQueue::offer`] while `lent` admitted jobs are out with a
    /// dispatcher that will [`BoundedQueue::readmit`] them: they keep
    /// their slots, so the bound holds on queued plus lent jobs.
    #[allow(clippy::result_large_err)]
    pub fn offer_beside(&mut self, job: T, lent: usize) -> Result<usize, T> {
        if self.jobs.len() + lent >= self.capacity {
            self.shed += 1;
            return Err(job);
        }
        self.jobs.push_back(job);
        self.admitted += 1;
        Ok(self.jobs.len())
    }

    /// Puts a job that was admitted once, and popped, back at the tail.
    /// It is never shed and not counted as a new admission: a multi-step
    /// job passes the capacity check when it arrives, not at every step.
    pub fn readmit(&mut self, job: T) {
        self.jobs.push_back(job);
    }

    /// Removes and returns the head job.
    pub fn pop(&mut self) -> Option<T> {
        self.jobs.pop_front()
    }

    /// Removes the head job only if `pred` accepts it; otherwise the head
    /// stays queued (the carry-over rule: an overflowing job seeds the
    /// next batch instead of overshooting the current one).
    pub fn pop_if(&mut self, pred: impl FnOnce(&T) -> bool) -> Option<T> {
        if pred(self.jobs.front()?) {
            self.jobs.pop_front()
        } else {
            None
        }
    }

    /// Greedily assembles a batch from the head of the queue.
    ///
    /// The head job is always taken (a single job wider than `max_batch`
    /// still runs — alone); subsequent jobs are taken while the summed
    /// `width` stays within `max_batch`. The first job that would
    /// overflow is left at the head.
    pub fn assemble(&mut self, max_batch: usize, width: impl Fn(&T) -> usize) -> Vec<T> {
        let mut batch = Vec::new();
        let Some(first) = self.jobs.pop_front() else {
            return batch;
        };
        let mut total = width(&first);
        batch.push(first);
        while total < max_batch {
            match self.pop_if(|j| total + width(j) <= max_batch) {
                Some(job) => {
                    total += width(&job);
                    batch.push(job);
                }
                None => break,
            }
        }
        batch
    }

    /// Jobs currently queued.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The admission bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Jobs shed because the queue was full.
    pub fn shed_count(&self) -> u64 {
        self.shed
    }
}

/// Sub-bucket resolution: 2^3 = 8 linear sub-buckets per octave bounds
/// the relative quantization error at 12.5%.
const SUB_BITS: u32 = 3;
const SUB: u64 = 1 << SUB_BITS;
/// Bucket count covering the whole `u64` range at `SUB_BITS` resolution.
const BUCKETS: usize = (SUB as usize) * (64 - SUB_BITS as usize + 1);

/// A log-bucketed latency histogram with bounded memory.
///
/// Values (microseconds) land in geometric buckets of ≤12.5% relative
/// width, so quantiles are accurate to that bound while the whole
/// structure stays a fixed ~4 KiB regardless of sample count — safe to
/// keep per model inside a server that runs for months.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: vec![0; BUCKETS],
            total: 0,
            sum: 0,
            max: 0,
        }
    }
}

fn bucket_index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let octave = 63 - u64::from(v.leading_zeros());
    let shift = octave - u64::from(SUB_BITS);
    let within = (v >> shift) - SUB;
    (SUB * (1 + shift) + within) as usize
}

/// Lower bound of the value range covered by bucket `idx`.
fn bucket_floor(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUB {
        return idx;
    }
    let shift = idx / SUB - 1;
    let within = idx % SUB;
    (SUB + within) << shift
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value_us: u64) {
        self.counts[bucket_index(value_us)] += 1;
        self.total += 1;
        self.sum += u128::from(value_us);
        self.max = self.max.max(value_us);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Largest sample recorded (exact).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of all samples (exact).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Folds another histogram into this one. Bucket counts add, so
    /// merging is associative and commutative up to the shared bucket
    /// layout — per-shard histograms can be combined in any order and
    /// yield the same aggregate (the property the proptests below pin).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// The `q`-quantile (`0.0..=1.0`), accurate to the bucket resolution.
    /// Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        if rank >= self.total {
            return self.max; // the top rank is tracked exactly
        }
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Exact for the top bucket in use: never report beyond max.
                return bucket_floor(idx).min(self.max);
            }
        }
        self.max
    }
}

/// The `q`-quantile of an ascending-sorted slice by the ceiling
/// nearest-rank definition used throughout the workspace
/// (`rank = max(1, ceil(q·n))`, 1-based), the one
/// [`LatencyHistogram::quantile`] uses. Returns 0 for empty input.
///
/// A truncating index `(n-1)·q` would round down, and at small sample
/// counts understate tails: 10 samples at q = 0.99 would report the 9th
/// value instead of the 10th.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize)
        .max(1)
        .min(sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offer_sheds_when_full_and_returns_the_job() {
        let mut q = BoundedQueue::new(2);
        assert_eq!(q.offer("a"), Ok(1));
        assert_eq!(q.offer("b"), Ok(2));
        assert_eq!(q.offer("c"), Err("c"));
        assert_eq!(q.shed_count(), 1);
        assert_eq!(q.admitted, 2);
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.offer("d"), Ok(2));
    }

    #[test]
    fn lent_jobs_keep_their_slots_and_come_back_unshed() {
        let mut q = BoundedQueue::new(2);
        q.offer("step").unwrap();
        let step = q.pop().unwrap();
        // One job out with a dispatcher: one slot left, not two.
        assert_eq!(q.offer_beside("a", 1), Ok(1));
        assert_eq!(q.offer_beside("b", 1), Err("b"));
        assert_eq!(q.shed_count(), 1);
        // The lent job returns even though the queue is "full" again,
        // and is not a second admission.
        q.readmit(step);
        assert_eq!(q.len(), 2);
        assert_eq!(q.admitted, 2);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_is_rejected() {
        let _ = BoundedQueue::<u32>::new(0);
    }

    #[test]
    fn assemble_respects_the_cap_with_carry_over() {
        let mut q = BoundedQueue::new(16);
        for w in [2usize, 2, 3, 1] {
            q.offer(w).unwrap();
        }
        // 2 + 2 fit in 4; the 3 would overflow and stays as carry-over.
        let batch = q.assemble(4, |w| *w);
        assert_eq!(batch, vec![2, 2]);
        assert_eq!(q.len(), 2);
        // The carried 3 seeds the next batch and the 1 joins it.
        let batch = q.assemble(4, |w| *w);
        assert_eq!(batch, vec![3, 1]);
    }

    #[test]
    fn oversized_head_runs_alone() {
        let mut q = BoundedQueue::new(8);
        q.offer(10usize).unwrap();
        q.offer(1usize).unwrap();
        let batch = q.assemble(4, |w| *w);
        assert_eq!(batch, vec![10]);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn assemble_on_empty_queue_is_empty() {
        let mut q = BoundedQueue::<usize>::new(4);
        assert!(q.assemble(4, |w| *w).is_empty());
    }

    #[test]
    fn histogram_quantiles_are_within_bucket_error() {
        let mut h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.max(), 1000);
        let p50 = h.quantile(0.50);
        let p99 = h.quantile(0.99);
        // Log-bucket resolution: within 12.5% of the exact ranks.
        assert!((437..=500).contains(&p50), "p50 = {p50}");
        assert!((866..=990).contains(&p99), "p99 = {p99}");
        assert!((h.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_handles_zero_and_huge_values() {
        let mut h = LatencyHistogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        let mut last = 0usize;
        for exp in 0..64u32 {
            let v = 1u64 << exp;
            for probe in [v, v + v / 3, v + v / 2] {
                let idx = bucket_index(probe);
                assert!(idx >= last, "index not monotone at {probe}");
                assert!(idx < BUCKETS);
                assert!(bucket_floor(idx) <= probe);
                last = idx;
            }
        }
    }

    #[test]
    fn merge_combines_counts_sum_and_max() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for v in [1u64, 10, 100] {
            a.record(v);
        }
        for v in [1_000u64, 10_000] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.max(), 10_000);
        assert!((a.mean() - 11_111.0 / 5.0).abs() < 1e-9);
    }

    #[test]
    fn merging_an_empty_histogram_is_identity() {
        let mut a = LatencyHistogram::new();
        for v in 0..100u64 {
            a.record(v * 7);
        }
        let before = (a.count(), a.max(), a.quantile(0.5), a.quantile(0.99));
        a.merge(&LatencyHistogram::new());
        assert_eq!(
            (a.count(), a.max(), a.quantile(0.5), a.quantile(0.99)),
            before
        );
    }

    proptest::proptest! {
        /// Bucket monotonicity: a larger value never lands in an earlier
        /// bucket, and every bucket floor lower-bounds its members.
        #[test]
        fn bucket_index_monotone_under_arbitrary_values(
            mut values in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..64)
        ) {
            values.sort_unstable();
            let mut last = 0usize;
            for &v in &values {
                let idx = bucket_index(v);
                proptest::prop_assert!(idx >= last, "index regressed at {v}");
                proptest::prop_assert!(idx < BUCKETS);
                proptest::prop_assert!(bucket_floor(idx) <= v);
                last = idx;
            }
        }

        /// Quantile bounds under arbitrary sample streams:
        /// p50 ≤ p95 ≤ p99 ≤ max, and every quantile lower-bounds max.
        #[test]
        fn quantiles_are_ordered_for_arbitrary_streams(
            values in proptest::collection::vec(0u64..10_000_000, 1..256)
        ) {
            let mut h = LatencyHistogram::new();
            for &v in &values {
                h.record(v);
            }
            let (p50, p95, p99) = (h.quantile(0.50), h.quantile(0.95), h.quantile(0.99));
            proptest::prop_assert!(p50 <= p95, "p50 {p50} > p95 {p95}");
            proptest::prop_assert!(p95 <= p99, "p95 {p95} > p99 {p99}");
            proptest::prop_assert!(p99 <= h.max(), "p99 {p99} > max {}", h.max());
            proptest::prop_assert_eq!(h.max(), *values.iter().max().unwrap());
            proptest::prop_assert_eq!(h.count(), values.len() as u64);
        }

        /// Merge associativity: (a ⊕ b) ⊕ c and a ⊕ (b ⊕ c) agree on
        /// every observable (counts, buckets, quantiles, mean, max).
        #[test]
        fn merge_is_associative(
            xs in proptest::collection::vec(0u64..1_000_000, 0..64),
            ys in proptest::collection::vec(0u64..1_000_000, 0..64),
            zs in proptest::collection::vec(0u64..1_000_000, 0..64),
        ) {
            let build = |vals: &[u64]| {
                let mut h = LatencyHistogram::new();
                for &v in vals {
                    h.record(v);
                }
                h
            };
            let (a, b, c) = (build(&xs), build(&ys), build(&zs));
            // Left fold: (a ⊕ b) ⊕ c.
            let mut left = a.clone();
            left.merge(&b);
            left.merge(&c);
            // Right fold: a ⊕ (b ⊕ c).
            let mut bc = b.clone();
            bc.merge(&c);
            let mut right = a.clone();
            right.merge(&bc);
            proptest::prop_assert_eq!(left.count(), right.count());
            proptest::prop_assert_eq!(left.max(), right.max());
            proptest::prop_assert_eq!(left.mean(), right.mean());
            for q in [0.0, 0.25, 0.5, 0.95, 0.99, 1.0] {
                proptest::prop_assert_eq!(left.quantile(q), right.quantile(q));
            }
        }
    }

    #[test]
    fn percentile_sorted_matches_openloop_definition() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.50), 50.0);
        assert_eq!(percentile_sorted(&v, 0.99), 99.0);
        assert_eq!(percentile_sorted(&v, 1.0), 100.0);
        assert_eq!(percentile_sorted(&[], 0.5), 0.0);
        // Where ceiling nearest-rank and the truncating (n-1)·q index
        // part: the top of ten samples, not the ninth.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile_sorted(&ten, 0.99), 10.0);
    }
}
