//! Degradation watchdog for long-horizon (soak) runs.
//!
//! A multi-hour simulated run can rot in ways a 60 ms benchmark never
//! shows: the pending PTcache-wipe backlog can grow without bound when
//! arrival pressure keeps every NAPI poll short, and pathological
//! invalidation storms (connection churn + reclaim) can starve the
//! datapath. The watchdog samples those two signals on a fixed simulated
//! cadence and walks a three-rung degradation ladder:
//!
//! 1. **Relief drain** — the pending-wipe backlog exceeded
//!    [`WatchdogConfig::max_wipe_backlog`]; the driver retires the whole
//!    backlog synchronously (the cost model charges nothing extra — the
//!    wipes were already owed, only their schedule moves).
//! 2. **Per-page fallback** — the IOTLB-invalidation rate over one check
//!    window exceeded [`WatchdogConfig::storm_invalidations`]; deferred
//!    batching collapses to per-page invalidation
//!    ([`crate::driver::DmaDriver::force_per_page_invalidation`]), trading
//!    throughput for a bounded stale window.
//! 3. **Abort** — [`WatchdogConfig::abort_after_degraded`] consecutive
//!    degraded checks; the watchdog stops rescheduling itself and flags
//!    [`WatchdogReport::aborted`]. The soak runner reacts by writing a
//!    final checkpoint (the replayable artifact) and exiting.
//!
//! Everything is integer arithmetic on existing counters: a disabled
//! watchdog (the default) schedules no events and changes no run by a
//! single bit, and an enabled one is itself deterministic and is captured
//! by [`crate::sim::HostSim::snapshot`].

use fns_sim::time::Nanos;

/// Watchdog plane configuration. Disabled by default — see
/// [`WatchdogConfig::off`].
#[derive(Debug, Clone, Copy)]
pub struct WatchdogConfig {
    /// Master switch; when `false` no check events are ever scheduled.
    pub enabled: bool,
    /// Simulated time between checks.
    pub check_interval_ns: Nanos,
    /// Pending PTcache-wipe epochs tolerated before a relief drain
    /// (rung 1).
    pub max_wipe_backlog: u32,
    /// IOTLB invalidations per check window tolerated before the per-page
    /// fallback (rung 2). `0` disables storm detection.
    pub storm_invalidations: u64,
    /// Consecutive degraded checks before the run aborts (rung 3).
    /// `0` disables aborting.
    pub abort_after_degraded: u32,
}

impl WatchdogConfig {
    /// The default: watchdog off, thresholds at their soak defaults so
    /// flipping `enabled` alone gives a sensible plane.
    pub fn off() -> Self {
        Self {
            enabled: false,
            check_interval_ns: 1_000_000, // 1 ms simulated
            max_wipe_backlog: 64,
            storm_invalidations: 0,
            abort_after_degraded: 0,
        }
    }
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        Self::off()
    }
}

/// Watchdog outcome counters, reported in
/// [`crate::metrics::RunMetrics::watchdog`]. All-integer so the
/// golden-determinism equality over `RunMetrics` covers it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WatchdogReport {
    /// Whether the plane was enabled for the run.
    pub enabled: bool,
    /// Checks executed.
    pub checks: u64,
    /// Rung-1 relief drains performed.
    pub relief_drains: u64,
    /// Rung-2 invalidation storms detected.
    pub storms: u64,
    /// Largest pending-wipe backlog ever observed at a check.
    pub max_backlog_seen: u64,
    /// Whether the per-page invalidation fallback is engaged.
    pub degraded: bool,
    /// Whether rung 3 fired (the run should checkpoint and stop).
    pub aborted: bool,
}

fns_snap::snap_fields!(WatchdogReport {
    enabled,
    checks,
    relief_drains,
    storms,
    max_backlog_seen,
    degraded,
    aborted,
});

/// Live watchdog state inside the simulation.
#[derive(Debug, Clone, Default)]
pub(crate) struct WatchdogState {
    /// IOTLB-invalidation counter at the previous check (rate baseline).
    pub prev_invalidations: u64,
    /// Consecutive degraded checks (rung-3 trigger).
    pub consecutive_degraded: u32,
    /// The externally visible outcome.
    pub report: WatchdogReport,
}

fns_snap::snap_fields!(WatchdogState {
    prev_invalidations,
    consecutive_degraded,
    report
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_off() {
        let c = WatchdogConfig::default();
        assert!(!c.enabled);
        assert_eq!(c.abort_after_degraded, 0);
    }

    #[test]
    fn report_roundtrips() {
        use fns_snap::Snap;
        let rep = WatchdogReport {
            enabled: true,
            checks: 7,
            relief_drains: 2,
            storms: 1,
            max_backlog_seen: 99,
            degraded: true,
            aborted: false,
        };
        let mut w = fns_snap::SnapWriter::new();
        rep.snap(&mut w);
        let bytes = w.finish();
        let mut r = fns_snap::SnapReader::new(&bytes).unwrap();
        assert_eq!(WatchdogReport::unsnap(&mut r).unwrap(), rep);
        r.done().unwrap();
    }
}
