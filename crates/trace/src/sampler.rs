//! Time-series gauge probes.
//!
//! A [`Sampler`] snapshots integer gauges at a fixed sim-time interval
//! into a bounded [`SampleSet`]. All fields are integers (the rolling hit
//! rate is basis points computed with integer division), so two runs of
//! the same configuration produce bitwise-equal series regardless of
//! platform or worker count.

use fns_sim::time::Nanos;

/// Probe configuration, embedded in `SimConfig` (hence `Copy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeConfig {
    /// Sampling interval in sim nanoseconds; 0 disables probing.
    pub interval_ns: u64,
    /// Maximum retained samples (earliest-kept; further samples stop).
    pub max_samples: u32,
}

fns_snap::snap_fields!(ProbeConfig {
    interval_ns,
    max_samples
});

impl ProbeConfig {
    /// Probing disabled.
    pub fn off() -> Self {
        Self {
            interval_ns: 0,
            max_samples: 4096,
        }
    }

    /// Probing every `interval_ns` sim nanoseconds.
    pub fn every(interval_ns: u64) -> Self {
        Self {
            interval_ns,
            max_samples: 4096,
        }
    }

    /// Whether probing is enabled.
    pub fn enabled(&self) -> bool {
        self.interval_ns > 0 && self.max_samples > 0
    }
}

impl Default for ProbeConfig {
    fn default() -> Self {
        Self::off()
    }
}

/// One gauge snapshot. Every field is an integer for determinism.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sample {
    /// Sim time of the snapshot.
    pub at: Nanos,
    /// IOTLB entries currently resident.
    pub iotlb_occupancy: u32,
    /// IOTLB hit rate over the last interval, in basis points (0..=10000).
    pub iotlb_hit_rate_bp: u32,
    /// PTcache L1 (leaf) entries resident.
    pub ptcache_l1: u32,
    /// PTcache L2 entries resident.
    pub ptcache_l2: u32,
    /// PTcache L3 entries resident.
    pub ptcache_l3: u32,
    /// Deferred-invalidation epochs pending in the driver.
    pub inv_queue_depth: u32,
    /// Total occupied RX descriptor-ring slots across cores.
    pub ring_occupancy: u32,
    /// Bytes buffered in the NIC internal buffer.
    pub nic_buffer_bytes: u64,
    /// Bytes queued in the switch (to-DUT) queue.
    pub switch_queue_bytes: u64,
    /// Outstanding IOVA-mapped bytes (live allocations × page size).
    pub iova_live_bytes: u64,
    /// Free interior spans in the IOVA allocator (fragmentation gauge:
    /// more spans at the same live footprint means a more shattered
    /// address space).
    pub iova_free_spans: u64,
    /// Largest contiguous free run in the IOVA allocator, in pages.
    pub iova_largest_free_run: u64,
}

fns_snap::snap_fields!(Sample {
    at,
    iotlb_occupancy,
    iotlb_hit_rate_bp,
    ptcache_l1,
    ptcache_l2,
    ptcache_l3,
    inv_queue_depth,
    ring_occupancy,
    nic_buffer_bytes,
    switch_queue_bytes,
    iova_live_bytes,
    iova_free_spans,
    iova_largest_free_run,
});

/// The collected series, attached to `RunMetrics`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SampleSet {
    /// Interval the series was sampled at (0 when probing was off).
    pub interval_ns: u64,
    /// Snapshots in chronological order.
    pub samples: Vec<Sample>,
}

fns_snap::snap_fields!(SampleSet {
    interval_ns,
    samples
});

impl SampleSet {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

/// Accumulates [`Sample`]s and the rolling-rate state between them.
#[derive(Debug)]
pub struct Sampler {
    cfg: ProbeConfig,
    prev_translations: u64,
    prev_hits: u64,
    set: SampleSet,
}

// Config, rolling-rate state and the collected series.
fns_snap::snap_fields!(Sampler {
    cfg,
    prev_translations,
    prev_hits,
    set
});

impl Sampler {
    /// A sampler for `cfg`; inert when probing is disabled.
    pub fn new(cfg: ProbeConfig) -> Self {
        Self {
            cfg,
            prev_translations: 0,
            prev_hits: 0,
            set: SampleSet {
                interval_ns: if cfg.enabled() { cfg.interval_ns } else { 0 },
                samples: Vec::new(),
            },
        }
    }

    /// Whether this sampler records anything.
    pub fn enabled(&self) -> bool {
        self.cfg.enabled()
    }

    /// The sampling interval.
    pub fn interval_ns(&self) -> u64 {
        self.cfg.interval_ns
    }

    /// IOTLB hit rate since the previous call, in basis points. Feeds the
    /// cumulative `translations`/`hits` counters through an internal
    /// high-water mark so each interval reports its own delta.
    pub fn rolling_hit_rate_bp(&mut self, translations: u64, hits: u64) -> u32 {
        let dt = translations.saturating_sub(self.prev_translations);
        let dh = hits.saturating_sub(self.prev_hits);
        self.prev_translations = translations;
        self.prev_hits = hits;
        (dh * 10_000).checked_div(dt).unwrap_or(0) as u32
    }

    /// Appends a sample; returns `false` (and drops it) once the series
    /// has reached `max_samples`.
    pub fn push(&mut self, sample: Sample) -> bool {
        if !self.cfg.enabled() || self.set.samples.len() >= self.cfg.max_samples as usize {
            return false;
        }
        self.set.samples.push(sample);
        true
    }

    /// Consumes the sampler, yielding the collected series.
    pub fn take(self) -> SampleSet {
        self.set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sampler_rejects_pushes() {
        let mut s = Sampler::new(ProbeConfig::off());
        assert!(!s.enabled());
        assert!(!s.push(Sample::default()));
        assert!(s.take().is_empty());
    }

    #[test]
    fn max_samples_caps_the_series() {
        let mut s = Sampler::new(ProbeConfig {
            interval_ns: 100,
            max_samples: 2,
        });
        assert!(s.push(Sample {
            at: 100,
            ..Sample::default()
        }));
        assert!(s.push(Sample {
            at: 200,
            ..Sample::default()
        }));
        assert!(!s.push(Sample {
            at: 300,
            ..Sample::default()
        }));
        let set = s.take();
        assert_eq!(set.len(), 2);
        assert_eq!(set.interval_ns, 100);
        assert_eq!(set.samples[1].at, 200);
    }

    #[test]
    fn rolling_hit_rate_uses_interval_deltas() {
        let mut s = Sampler::new(ProbeConfig::every(1000));
        // First interval: 80 hits / 100 translations.
        assert_eq!(s.rolling_hit_rate_bp(100, 80), 8_000);
        // Second interval: +100 translations, +100 hits => 100%.
        assert_eq!(s.rolling_hit_rate_bp(200, 180), 10_000);
        // Idle interval: no new translations.
        assert_eq!(s.rolling_hit_rate_bp(200, 180), 0);
    }
}
