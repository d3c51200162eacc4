//! Correctness gate and failure accounting.
//!
//! A run fails when any of these hold:
//! * it panicked (a `DmaError` inside the simulator surfaces as a panic),
//!   or a driver replay call returned a `DmaError`;
//! * it breaks the `fns_bench::check_safety` invariants: a stale IOTLB hit
//!   in a strict-safe mode, or a stale PTcache walk in any mode;
//! * its `RunMetrics::to_json` digest differs from the first repeat of the
//!   same config and seed;
//! * its Rx goodput exceeds the link rate times the NIC count.
//!
//! Failures are counted, never propagated, so one bad run cannot abort the
//! rest of the set.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use fns_core::{RunMetrics, SimConfig};

/// FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The digest a repeat must reproduce bit for bit.
pub fn digest(m: &RunMetrics) -> u64 {
    fnv1a(m.to_json().as_bytes())
}

/// Why a run failed.
#[derive(Debug, Clone, PartialEq)]
pub enum Failure {
    Panicked(String),
    Dma(String),
    Safety(String),
    Nondeterministic { first: u64, now: u64 },
    OverLinkRate { rx_gbps: f64, limit_gbps: f64 },
}

/// Counts attempted and failed runs and remembers each config's first
/// digest.
#[derive(Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    first_digest: HashMap<usize, u64>,
    pub failures: Vec<(usize, Failure)>,
}

impl Gate {
    /// Counts one attempt under `key`: runs `f`, catching a panic, and
    /// records a failure when it panics or returns one.
    pub fn attempt<T>(&mut self, key: usize, f: impl FnOnce() -> Result<T, Failure>) -> Option<T> {
        self.attempted += 1;
        let failure = match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(v)) => return Some(v),
            Ok(Err(f)) => f,
            Err(e) => Failure::Panicked(panic_message(e.as_ref())),
        };
        self.failed += 1;
        self.failures.push((key, failure));
        None
    }

    /// Runs `f` (one simulation of basket entry `key` under `cfg`) as an
    /// attempt and checks its result. Returns the metrics when the run
    /// passed the gate.
    pub fn run(
        &mut self,
        key: usize,
        cfg: &SimConfig,
        f: impl FnOnce() -> RunMetrics,
    ) -> Option<RunMetrics> {
        let mut first = std::mem::take(&mut self.first_digest);
        let out = self.attempt(key, || {
            let m = f();
            verdict(cfg, &m, &mut first, key).map_or(Ok(m), Err)
        });
        self.first_digest = first;
        out
    }

    /// Failed runs over attempted runs.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

fn verdict(
    cfg: &SimConfig,
    m: &RunMetrics,
    first: &mut HashMap<usize, u64>,
    key: usize,
) -> Option<Failure> {
    if let Err(e) = catch_unwind(AssertUnwindSafe(|| fns_bench::check_safety(cfg.mode, m))) {
        return Some(Failure::Safety(panic_message(e.as_ref())));
    }
    let limit_gbps = cfg.link.as_gbps() * f64::from(cfg.topology.nics.max(1));
    if m.rx_gbps() > limit_gbps {
        return Some(Failure::OverLinkRate {
            rx_gbps: m.rx_gbps(),
            limit_gbps,
        });
    }
    let now = digest(m);
    let first = *first.entry(key).or_insert(now);
    (first != now).then_some(Failure::Nondeterministic { first, now })
}

fn panic_message(e: &(dyn std::any::Any + Send)) -> String {
    e.downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic payload".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fns_core::{HostSim, ProtectionMode};

    /// A short run. Short windows read above line rate in modes that run
    /// at line rate (the NIC buffer drains into the window), so the tests
    /// below that need a clean run use Linux strict, which runs slower.
    fn tiny(mode: ProtectionMode) -> SimConfig {
        let mut cfg = fns_apps::iperf_config(mode, 5, 256);
        cfg.warmup = 2_000_000;
        cfg.measure = 5_000_000;
        cfg
    }

    #[test]
    fn repeats_of_one_config_have_one_digest() {
        let cfg = tiny(ProtectionMode::LinuxStrict);
        let mut gate = Gate::default();
        for _ in 0..2 {
            assert!(gate.run(0, &cfg, || HostSim::new(cfg).run()).is_some());
        }
        assert_eq!((gate.attempted, gate.failed), (2, 0));
        let mut other = cfg;
        other.seed += 1;
        assert_ne!(
            digest(&HostSim::new(cfg).run()),
            digest(&HostSim::new(other).run())
        );
    }

    #[test]
    fn forged_violations_are_counted_not_raised() {
        let cfg = tiny(ProtectionMode::LinuxStrict);
        let clean = HostSim::new(cfg).run();
        let mut gate = Gate::default();
        assert!(gate.run(0, &cfg, || clean.clone()).is_some());

        let mut stale = clean.clone();
        stale.stale_iotlb_hits = 3;
        assert!(gate.run(1, &cfg, || stale).is_none());

        let mut walk = clean.clone();
        walk.stale_ptcache_walks = 1;
        assert!(gate.run(2, &cfg, || walk).is_none());

        let mut fast = clean.clone();
        fast.rx_goodput_bytes *= 100;
        assert!(gate.run(3, &cfg, || fast).is_none());

        // Same key as the clean run, different metrics.
        let mut drift = clean.clone();
        drift.events_processed += 1;
        assert!(gate.run(0, &cfg, || drift).is_none());

        assert!(gate.run(4, &cfg, || panic!("forged DmaError")).is_none());

        assert_eq!((gate.attempted, gate.failed), (6, 5));
        assert!((gate.failed_share() - 5.0 / 6.0).abs() < 1e-12);
        let kinds: Vec<&Failure> = gate.failures.iter().map(|(_, f)| f).collect();
        assert!(matches!(kinds[0], Failure::Safety(_)));
        assert!(matches!(kinds[1], Failure::Safety(_)));
        assert!(matches!(kinds[2], Failure::OverLinkRate { .. }));
        assert!(matches!(kinds[3], Failure::Nondeterministic { .. }));
        assert!(matches!(kinds[4], Failure::Panicked(m) if m == "forged DmaError"));
    }

    #[test]
    fn stale_hits_are_allowed_in_weak_modes() {
        let cfg = tiny(ProtectionMode::LinuxDeferred);
        let mut m = HostSim::new(cfg).run();
        m.stale_iotlb_hits = 7;
        let mut gate = Gate::default();
        assert!(gate.run(0, &cfg, || m).is_some());
    }
}
