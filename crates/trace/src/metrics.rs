//! HDR-style log-bucketed metrics registry: per-mode/per-flow latency and
//! occupancy percentiles, tenant-ready (keyed by IOMMU domain ID).
//!
//! [`LogHistogram`] is the usual HDR construction reduced to integers: a
//! value lands in one of 64 power-of-two octaves, each split into
//! [`SUB_BUCKETS`] linear sub-buckets, giving ≤ ~12.5% relative error at
//! any magnitude with a fixed 512-slot table and no floating point —
//! percentile queries are exact integer walks over the cumulative counts,
//! so p50/p99/p999 replay bit-identically at any worker count.
//!
//! The [`MetricsRegistry`] keys histograms by `(metric, domain, flow)`:
//! `domain` is the IOMMU domain ID (one device/tenant today, the
//! multi-tenant coordinate the ROADMAP needs tomorrow), `flow` the
//! originating core. A streaming [`RegSample`] series reuses the gauge
//! sampler cadence so `--metrics-json` can plot percentile drift over
//! sim-time.

use std::collections::BTreeMap;

use fns_snap::{narrow, snap_fields, Snap, SnapError, SnapReader, SnapWriter};

use crate::Nanos;

/// Linear sub-buckets per power-of-two octave (3 bits → ≤12.5% error).
pub const SUB_BUCKETS: usize = 8;
const SUB_BITS: u32 = 3;
const BUCKETS: usize = 64 * SUB_BUCKETS;

/// Cap on streamed [`RegSample`]s (matches the gauge sampler's spirit:
/// bounded, deterministic).
pub const MAX_REG_SAMPLES: usize = 4096;

/// A fixed-size log-bucketed histogram of `u64` values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    /// Recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

/// Sparse: the nonzero buckets only, as `(index, count)` pairs.
impl Snap for LogHistogram {
    fn snap(&self, w: &mut SnapWriter) {
        (self.count, self.sum, self.max).snap(w);
        let nonzero: Vec<(u32, u64)> = (0u32..)
            .zip(&self.counts)
            .filter(|&(_, &c)| c != 0)
            .map(|(b, &c)| (b, c))
            .collect();
        nonzero.snap(w);
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let (count, sum, max) = Snap::unsnap(r)?;
        let mut h = Self {
            count,
            sum,
            max,
            ..Self::default()
        };
        for (b, c) in Vec::<(u32, u64)>::unsnap(r)? {
            let slot = h.counts.get_mut(b as usize).ok_or(SnapError::BadTag {
                what: "histogram bucket index",
                tag: b as u64,
            })?;
            *slot = c;
        }
        Ok(h)
    }
}

impl LogHistogram {
    fn bucket(v: u64) -> usize {
        if v < SUB_BUCKETS as u64 {
            return v as usize;
        }
        let octave = 63 - v.leading_zeros();
        let sub = (v >> (octave - SUB_BITS)) & (SUB_BUCKETS as u64 - 1);
        ((octave - SUB_BITS + 1) as usize) * SUB_BUCKETS + sub as usize
    }

    /// Lower bound of a bucket (the value a percentile query reports).
    fn bucket_floor(b: usize) -> u64 {
        if b < SUB_BUCKETS {
            return b as u64;
        }
        let octave = (b / SUB_BUCKETS) as u32 + SUB_BITS - 1;
        let sub = (b % SUB_BUCKETS) as u64;
        (1u64 << octave) + (sub << (octave - SUB_BITS))
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The value at permille `p` (0..=1000): the lower bound of the bucket
    /// holding the `ceil(count * p / 1000)`-th recorded value. 0 when
    /// empty; `p = 1000` reports the exact maximum.
    pub fn permille(&self, p: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if p >= 1000 {
            return self.max;
        }
        let rank = (self.count * p).div_ceil(1000).max(1);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_floor(b);
            }
        }
        self.max
    }

    /// Median (p50).
    pub fn p50(&self) -> u64 {
        self.permille(500)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.permille(990)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.permille(999)
    }
}

/// What a registry histogram measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RegMetric {
    /// Rx-descriptor lifetime: preparation to completion, sim-time ns.
    DescLatency,
    /// Invalidation-queue CPU wait per completed descriptor, ns.
    InvWait,
    /// Total Rx-ring occupancy at gauge-sample times (descriptors).
    RingOccupancy,
    /// Pending PTcache-wipe epochs at gauge-sample times.
    WipeBacklog,
}

impl RegMetric {
    /// All metrics, in key order.
    pub const ALL: [RegMetric; 4] = [
        RegMetric::DescLatency,
        RegMetric::InvWait,
        RegMetric::RingOccupancy,
        RegMetric::WipeBacklog,
    ];

    /// Stable display/JSON name.
    pub fn name(&self) -> &'static str {
        match self {
            RegMetric::DescLatency => "desc_latency_ns",
            RegMetric::InvWait => "inv_wait_ns",
            RegMetric::RingOccupancy => "ring_occupancy",
            RegMetric::WipeBacklog => "wipe_backlog",
        }
    }
}

/// A tag byte in [`RegMetric::ALL`] order.
impl Snap for RegMetric {
    fn snap(&self, w: &mut SnapWriter) {
        w.u8(*self as u8);
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let tag = r.u8()?;
        Self::ALL
            .get(tag as usize)
            .copied()
            .ok_or(SnapError::BadTag {
                what: "registry metric",
                tag: tag as u64,
            })
    }
}

/// Registry key: metric × tenant (IOMMU domain) × flow (core).
pub type RegKey = (RegMetric, u16, u32);

/// One streamed percentile sample (gauge-sampler cadence).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegSample {
    /// Sim-time stamp.
    pub at: Nanos,
    /// Descriptor-latency p50 across all keys, so far.
    pub desc_p50: u64,
    /// Descriptor-latency p99 across all keys, so far.
    pub desc_p99: u64,
    /// Descriptor-latency p999 across all keys, so far.
    pub desc_p999: u64,
    /// Invalidation-wait p99 across all keys, so far.
    pub inv_wait_p99: u64,
}

snap_fields!(RegSample {
    at,
    desc_p50,
    desc_p99,
    desc_p999,
    inv_wait_p99
});

/// The live registry: keyed histograms plus the streaming sample series.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    hists: BTreeMap<RegKey, LogHistogram>,
    series: Vec<RegSample>,
}

impl MetricsRegistry {
    /// Records one value under `(metric, domain, flow)`.
    pub fn record(&mut self, metric: RegMetric, domain: u16, flow: u32, value: u64) {
        self.hists
            .entry((metric, domain, flow))
            .or_default()
            .record(value);
    }

    /// All-key merge of one metric's histograms.
    pub fn merged(&self, metric: RegMetric) -> LogHistogram {
        let mut out = LogHistogram::default();
        for ((m, _, _), h) in &self.hists {
            if *m == metric {
                out.merge(h);
            }
        }
        out
    }

    /// Pushes one streaming percentile sample (called at the gauge
    /// sampler's cadence; bounded by [`MAX_REG_SAMPLES`]).
    pub fn sample(&mut self, at: Nanos) {
        if self.series.len() >= MAX_REG_SAMPLES {
            return;
        }
        let desc = self.merged(RegMetric::DescLatency);
        let inv = self.merged(RegMetric::InvWait);
        self.series.push(RegSample {
            at,
            desc_p50: desc.p50(),
            desc_p99: desc.p99(),
            desc_p999: desc.p999(),
            inv_wait_p99: inv.p99(),
        });
    }

    /// Distinct keys recorded.
    pub fn len(&self) -> usize {
        self.hists.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.hists.is_empty()
    }

    /// Derives the end-of-run report (keys in `BTreeMap` order, so the
    /// report is deterministic).
    pub fn report(&self) -> RegistryReport {
        RegistryReport {
            enabled: true,
            stats: self
                .hists
                .iter()
                .map(|(&(metric, domain, flow), h)| RegStat {
                    metric,
                    domain,
                    flow,
                    count: h.count,
                    sum: h.sum,
                    p50: h.p50(),
                    p99: h.p99(),
                    p999: h.p999(),
                    max: h.max,
                })
                .collect(),
            series: self.series.clone(),
        }
    }
}

/// Histograms in key order with the domain widened to `u32`, then the
/// sample series.
impl Snap for MetricsRegistry {
    fn snap(&self, w: &mut SnapWriter) {
        w.seq(self.hists.len());
        for (&(metric, domain, flow), h) in &self.hists {
            (metric, u32::from(domain), flow).snap(w);
            h.snap(w);
        }
        self.series.snap(w);
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let hists = Vec::<((RegMetric, u32, u32), LogHistogram)>::unsnap(r)?;
        Ok(Self {
            hists: hists
                .into_iter()
                .map(|((metric, domain, flow), h)| {
                    Ok(((metric, narrow("registry domain", domain.into())?, flow), h))
                })
                .collect::<Result<_, SnapError>>()?,
            series: Snap::unsnap(r)?,
        })
    }
}

/// One key's derived percentiles in the end-of-run report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegStat {
    /// What was measured.
    pub metric: RegMetric,
    /// IOMMU domain (tenant) the values belong to.
    pub domain: u16,
    /// Originating flow (core).
    pub flow: u32,
    /// Recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Median.
    pub p50: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Exact maximum.
    pub max: u64,
}

/// End-of-run registry report: per-key percentiles plus the streamed
/// series.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegistryReport {
    /// Whether a registry was armed at all.
    pub enabled: bool,
    /// Per-key stats in `(metric, domain, flow)` order.
    pub stats: Vec<RegStat>,
    /// Streamed percentile samples (gauge-sampler cadence).
    pub series: Vec<RegSample>,
}

impl RegistryReport {
    /// All-key merged percentile triple for one metric:
    /// `(count, p50, p99, p999)`.
    pub fn percentiles(&self, metric: RegMetric) -> (u64, u64, u64, u64) {
        // Derived stats cannot be re-merged exactly; report the dominant
        // key's percentiles weighted by count when several exist. For the
        // single-domain single-device runs of today, per-flow counts are
        // what matter and the weighted pick is exact for one key.
        let mut count = 0;
        let mut best: Option<&RegStat> = None;
        for s in self.stats.iter().filter(|s| s.metric == metric) {
            count += s.count;
            if best.is_none_or(|b| s.count > b.count) {
                best = Some(s);
            }
        }
        match best {
            Some(b) => (count, b.p50, b.p99, b.p999),
            None => (0, 0, 0, 0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_floors_bound_values() {
        let mut prev = 0;
        for v in [0u64, 1, 7, 8, 9, 100, 1000, 4096, 1 << 20, u64::MAX] {
            let b = LogHistogram::bucket(v);
            assert!(b >= prev, "bucket order broke at {v}");
            prev = b;
            assert!(
                LogHistogram::bucket_floor(b) <= v.max(1),
                "floor > value at {v}"
            );
        }
        assert!(LogHistogram::bucket(u64::MAX) < BUCKETS);
    }

    #[test]
    fn percentiles_are_within_sub_bucket_error() {
        let mut h = LogHistogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.p50();
        assert!((438..=500).contains(&p50), "p50 = {p50}");
        let p99 = h.p99();
        assert!((875..=990).contains(&p99), "p99 = {p99}");
        assert_eq!(h.permille(1000), 1000);
        assert_eq!(h.count, 1000);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LogHistogram::default();
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p999(), 0);
        assert_eq!(h.max, 0);
    }

    #[test]
    fn registry_report_is_key_ordered_and_snap_roundtrips() {
        let mut reg = MetricsRegistry::default();
        reg.record(RegMetric::InvWait, 0, 1, 50);
        reg.record(RegMetric::DescLatency, 0, 0, 1000);
        reg.record(RegMetric::DescLatency, 0, 1, 2000);
        reg.sample(1_000);
        let report = reg.report();
        assert_eq!(report.stats.len(), 3);
        assert_eq!(report.stats[0].metric, RegMetric::DescLatency);
        assert_eq!(report.stats[0].flow, 0);
        let (count, p50, _, _) = report.percentiles(RegMetric::DescLatency);
        assert_eq!(count, 2);
        assert!(p50 > 0);
        let mut w = SnapWriter::new();
        reg.snap(&mut w);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        let back = MetricsRegistry::unsnap(&mut r).unwrap();
        r.done().unwrap();
        assert_eq!(back.report(), report);
    }
}
