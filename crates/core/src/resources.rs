//! Serial simulation resources: CPU cores, the translation pipe, links.
//!
//! All three share one shape: a serially occupied resource where submitting
//! work at time `t` finishes at `max(t, busy_until) + service`. This is the
//! discrete-event analogue of an M/G/1-ish server and is what turns
//! per-page translation latency into the Little's-law throughput ceilings
//! the paper measures.

use fns_sim::time::Nanos;

/// A serially occupied resource (CPU core, IOMMU/root-complex pipeline, or
/// link serializer).
///
/// # Examples
///
/// ```
/// use fns_core::resources::SerialResource;
///
/// let mut r = SerialResource::new();
/// assert_eq!(r.run(100, 50), 150);
/// // Submitted while busy: queues behind the first job.
/// assert_eq!(r.run(120, 50), 200);
/// // Submitted after idle: starts immediately.
/// assert_eq!(r.run(500, 50), 550);
/// assert_eq!(r.busy_time(), 150);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialResource {
    busy_until: Nanos,
    busy_accum: Nanos,
    jobs: u64,
}

fns_snap::snap_fields!(SerialResource {
    busy_until,
    busy_accum,
    jobs
});

impl SerialResource {
    /// Creates an idle resource.
    pub fn new() -> Self {
        Self::default()
    }

    /// Submits `service` ns of work at time `now`; returns the completion
    /// time.
    pub fn run(&mut self, now: Nanos, service: Nanos) -> Nanos {
        let start = self.busy_until.max(now);
        self.busy_until = start + service;
        self.busy_accum += service;
        self.jobs += 1;
        self.busy_until
    }

    /// Time the resource becomes free.
    pub fn busy_until(&self) -> Nanos {
        self.busy_until
    }

    /// Returns `true` if the resource is idle at `now`.
    pub fn is_idle(&self, now: Nanos) -> bool {
        self.busy_until <= now
    }

    /// Total busy time accumulated.
    pub fn busy_time(&self) -> Nanos {
        self.busy_accum
    }

    /// Jobs executed.
    pub fn jobs(&self) -> u64 {
        self.jobs
    }

    /// Utilization over a window of `window` ns given the busy time at the
    /// window start.
    pub fn utilization(&self, busy_at_start: Nanos, window: Nanos) -> f64 {
        if window == 0 {
            0.0
        } else {
            (self.busy_accum - busy_at_start) as f64 / window as f64
        }
    }

    /// Current queueing delay for new work submitted at `now`.
    pub fn backlog(&self, now: Nanos) -> Nanos {
        self.busy_until.saturating_sub(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serializes_overlapping_work() {
        let mut r = SerialResource::new();
        assert_eq!(r.run(0, 10), 10);
        assert_eq!(r.run(0, 10), 20);
        assert_eq!(r.run(5, 10), 30);
        assert_eq!(r.jobs(), 3);
        assert_eq!(r.busy_time(), 30);
    }

    #[test]
    fn idles_between_jobs() {
        let mut r = SerialResource::new();
        r.run(0, 10);
        assert!(r.is_idle(10));
        assert!(!r.is_idle(9));
        assert_eq!(r.run(100, 10), 110);
        // Busy time excludes idle gaps.
        assert_eq!(r.busy_time(), 20);
    }

    #[test]
    fn utilization_windows() {
        let mut r = SerialResource::new();
        r.run(0, 400);
        let snapshot = r.busy_time();
        r.run(1000, 300);
        assert!((r.utilization(snapshot, 1000) - 0.3).abs() < 1e-9);
    }

    #[test]
    fn backlog_measures_queue() {
        let mut r = SerialResource::new();
        r.run(0, 100);
        assert_eq!(r.backlog(20), 80);
        assert_eq!(r.backlog(200), 0);
    }
}
