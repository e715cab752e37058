//! Measurement primitives: the seeded generator, the benchmark clock,
//! the percentile rule, and span self time.

use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

/// SplitMix64: every workload input derives from the `--seed` argument
/// through this generator, so one seed always yields the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x7F4A_7C15_9E37_79B9)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Seconds since the first call in this process: one time base shared
/// by every thread, so spans recorded on different threads compare.
pub fn now() -> f64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// Median of a non-empty slice (sorted copy).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A latency distribution reported by the percentile rule: the median,
/// plus p99 when there are at least 1000 samples, otherwise the highest
/// percentile that still has at least 10 samples beyond it (never below
/// the median).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dist {
    pub n: usize,
    pub p50: f64,
    /// The tail value reported in place of p99.
    pub hi: f64,
    /// The quantile `hi` was taken at.
    pub hi_q: f64,
}

impl Dist {
    pub fn of(samples: &[f64]) -> Dist {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n == 0 {
            return Dist {
                n,
                p50: f64::NAN,
                hi: f64::NAN,
                hi_q: 0.99,
            };
        }
        let hi_q = if n >= 1000 {
            0.99
        } else {
            (1.0 - 10.0 / n as f64).max(0.5)
        };
        Dist {
            n,
            p50: nearest_rank(&v, 0.5),
            hi: nearest_rank(&v, hi_q),
            hi_q,
        }
    }

    /// [`Dist::of`] with the tail taken per segment: time-ordered
    /// samples are cut into as many consecutive segments as keep at
    /// least 1000 samples each, every segment's p99 is computed, and
    /// their median is reported — so one stalled second of a run does
    /// not decide its tail. Fewer than 2000 samples: the whole run's.
    pub fn segmented(samples: &[f64]) -> Dist {
        let whole = Dist::of(samples);
        let k = samples.len() / 1000;
        if k < 2 {
            return whole;
        }
        let size = samples.len() / k;
        let tails: Vec<f64> = (0..k)
            .map(|i| {
                let end = if i + 1 == k {
                    samples.len()
                } else {
                    (i + 1) * size
                };
                Dist::of(&samples[i * size..end]).hi
            })
            .collect();
        Dist {
            hi: median(&tails),
            ..whole
        }
    }

    /// `p99` when the sample count allows it, else e.g. `p95.2`.
    pub fn hi_label(&self) -> String {
        let pct = self.hi_q * 100.0;
        if (pct - pct.round()).abs() < 1e-9 {
            format!("p{}", pct.round())
        } else {
            format!("p{pct:.1}")
        }
    }
}

/// Nearest-rank quantile of sorted, non-empty data: the value at rank
/// `ceil(q·n)`, so exactly `n − ceil(q·n)` samples lie beyond it.
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// One timed interval on some thread, attributed to a layer. `parent`
/// is the span that caused it; a span without a parent is a root, and
/// its self time is the share no layer accounts for.
#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

/// An in-memory span tree, reduced to per-layer self time at the end.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    pub fn add(
        &mut self,
        layer: &'static str,
        start: f64,
        end: f64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            layer,
            start,
            end: end.max(start),
            parent,
        });
        self.spans.len() - 1
    }

    /// Each span's duration minus the part of its interval its children
    /// cover. Overlapping children are merged first, so time two
    /// children share is subtracted once.
    pub fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| (s.end - s.start) - covered(s.start, s.end, kids))
            .collect()
    }

    /// Self time summed per layer; roots report as `unattributed`.
    pub fn by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut rows = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            let layer = if s.parent.is_none() {
                "unattributed"
            } else {
                s.layer
            };
            *rows.entry(layer).or_insert(0.0) += t;
        }
        rows
    }

    /// Total duration of the root spans: the wall time the rows share.
    pub fn root_time(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end - s.start)
            .sum()
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(lo: f64, hi: f64, mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in intervals {
        let (a, b) = (a.max(lo), b.min(hi));
        if b <= a {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        let d = Dist::of(&v);
        assert_eq!(d.n, 2000);
        assert_eq!(d.p50, 1000.0);
        assert_eq!(d.hi_q, 0.99);
        assert_eq!(d.hi, 1980.0);
        assert_eq!(d.hi_label(), "p99");
    }

    #[test]
    fn short_runs_report_the_highest_percentile_with_ten_beyond() {
        let v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let d = Dist::of(&v);
        assert_eq!(d.p50, 100.0);
        assert!((d.hi_q - 0.95).abs() < 1e-12);
        assert_eq!(d.hi, 190.0);
        assert_eq!(v.iter().filter(|&&x| x > d.hi).count(), 10);
        // Too few samples for any tail: the median stands in.
        let d = Dist::of(&[3.0, 1.0, 2.0]);
        assert_eq!((d.p50, d.hi, d.hi_q), (2.0, 2.0, 0.5));
    }

    #[test]
    fn segmented_tail_is_the_median_segment_p99() {
        // Three segments of 1000; only the middle one has a slow tail.
        let mut v: Vec<f64> = (0..3000).map(|i| f64::from(i % 1000)).collect();
        for x in &mut v[1000..2000] {
            *x *= 10.0;
        }
        let d = Dist::segmented(&v);
        assert_eq!(d.n, 3000);
        assert_eq!(d.hi, 989.0);
        assert_eq!(d.p50, Dist::of(&v).p50);
        // Too short to split: the run's own tail.
        assert_eq!(Dist::segmented(&v[..1500]), Dist::of(&v[..1500]));
    }

    #[test]
    fn self_time_merges_overlapping_children() {
        let mut t = Trace::default();
        let root = t.add("root", 0.0, 10.0, None);
        let a = t.add("link", 1.0, 5.0, Some(root));
        // Overlaps `a` on [3, 5]: the root loses [1, 7] once, not twice.
        t.add("historian", 3.0, 7.0, Some(root));
        // A grandchild only reduces its own parent.
        t.add("dsp", 2.0, 3.0, Some(a));
        // Clipped to the parent's interval.
        t.add("harness", 9.0, 12.0, Some(root));
        let s = t.self_times();
        assert_eq!(s[root], 10.0 - 6.0 - 1.0);
        assert_eq!(s[a], 3.0);
        assert_eq!(s[2], 4.0);
        assert_eq!(s[3], 1.0);
        let rows = t.by_layer();
        assert_eq!(rows["unattributed"], 3.0);
        assert_eq!(rows["dsp"], 1.0);
    }

    #[test]
    fn contiguous_children_sum_to_the_root() {
        let mut t = Trace::default();
        let root = t.add("root", 0.0, 4.0, None);
        for (i, layer) in ["a", "b", "c"].into_iter().enumerate() {
            t.add(layer, i as f64, i as f64 + 1.0, Some(root));
        }
        let total: f64 = t.by_layer().values().sum();
        assert_eq!(total, t.root_time());
        assert_eq!(t.by_layer()["unattributed"], 1.0);
    }
}
