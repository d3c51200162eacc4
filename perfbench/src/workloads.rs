//! The benchmark's workloads: each is a closed batch ("basket") of
//! `SimConfig`s run one at a time. The benchmark seed only chooses each
//! config's simulation seed; the basket's shape is fixed per workload.

use fns_apps::{dc_scale_config, iperf_config};
use fns_core::{ProtectionMode, SimConfig};
use fns_sim::time::MILLIS;

/// The three protection modes every single-NIC basket compares.
pub const MODES: [ProtectionMode; 3] = [
    ProtectionMode::IommuOff,
    ProtectionMode::LinuxStrict,
    ProtectionMode::FastAndSafe,
];

/// Worker-thread cap for the sharded engine. One worker still runs every
/// shard through the epoch barriers, exchange and merge. Two workers on a
/// 2-vCPU host made run medians flip between two modes (0.65 s and
/// 1.0–1.25 s per basket) depending on whether the second vCPU was
/// contended, a 54% run-to-run spread; one worker spreads like the
/// single-threaded workloads.
pub const SHARD_CAP: usize = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Event-loop-bound: 5 and 40 DCTCP flows, ring 256.
    IperfFlows,
    /// Construction-bound: 5 flows on 1024- and 2048-packet rings.
    RingDeep,
    /// The sharded engine on a 10-domain, 32-ring host.
    DcScaleLite,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::IperfFlows,
        Workload::RingDeep,
        Workload::DcScaleLite,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::IperfFlows => "iperf-flows",
            Workload::RingDeep => "ring-deep",
            Workload::DcScaleLite => "dc-scale-lite",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The workload's basket for benchmark seed `seed`.
    pub fn basket(self, seed: u64) -> Vec<SimConfig> {
        let mut configs = Vec::new();
        match self {
            Workload::IperfFlows => {
                for flows in [5, 40] {
                    for mode in MODES {
                        configs.push(window(iperf_config(mode, flows, 256), 5, 95));
                    }
                }
            }
            Workload::RingDeep => {
                for ring in [1024, 2048] {
                    for mode in MODES {
                        configs.push(window(iperf_config(mode, 5, ring), 5, 25));
                    }
                }
            }
            Workload::DcScaleLite => {
                let mut cfg = dc_scale_config(ProtectionMode::FastAndSafe);
                cfg.flows = 1024;
                cfg.shards = SHARD_CAP;
                configs.push(window(cfg, 5, 55));
            }
        }
        for (i, cfg) in configs.iter_mut().enumerate() {
            cfg.seed = mix(seed, i as u64);
        }
        configs
    }
}

fn window(mut cfg: SimConfig, warmup_ms: u64, measure_ms: u64) -> SimConfig {
    cfg.warmup = warmup_ms * MILLIS;
    cfg.measure = measure_ms * MILLIS;
    cfg
}

/// SplitMix64 of `seed` and `index`: distinct, well-spread per-config seeds.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Simulated milliseconds one run advances (warmup plus measure).
pub fn sim_ms(cfg: &SimConfig) -> f64 {
    cfg.end_time() as f64 / MILLIS as f64
}

/// Rx rings the run builds (one per core on the single-NIC shape).
pub fn rings(cfg: &SimConfig) -> usize {
    if cfg.topology.is_single() {
        cfg.cores
    } else {
        cfg.topology.rings()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baskets_have_the_documented_shape() {
        let iperf = Workload::IperfFlows.basket(1);
        assert_eq!(iperf.len(), 6);
        assert!(iperf.iter().all(|c| c.ring_packets == 256 && c.shards == 0));
        let deep = Workload::RingDeep.basket(1);
        assert_eq!(deep.len(), 6);
        assert!(deep.iter().all(|c| c.flows == 5 && c.ring_packets >= 1024));
        let dc = Workload::DcScaleLite.basket(1);
        assert_eq!(dc.len(), 1);
        assert_eq!(dc[0].topology.domains(), 10);
        assert_eq!((dc[0].flows, dc[0].shards), (1024, SHARD_CAP));
    }

    #[test]
    fn the_seed_only_moves_simulation_seeds() {
        let a = Workload::IperfFlows.basket(1);
        let b = Workload::IperfFlows.basket(2);
        for (x, y) in a.iter().zip(&b) {
            assert_ne!(x.seed, y.seed);
            let mut y = *y;
            y.seed = x.seed;
            assert_eq!(format!("{x:?}"), format!("{y:?}"));
        }
        let seeds: std::collections::BTreeSet<u64> = a.iter().map(|c| c.seed).collect();
        assert_eq!(seeds.len(), a.len());
        assert_eq!(Workload::parse("ring-deep"), Some(Workload::RingDeep));
        assert_eq!(Workload::parse("nginx"), None);
    }
}
