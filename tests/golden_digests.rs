//! Golden digest pins.
//!
//! * `tests/golden/metrics_digests.txt`: the FNV-1a of
//!   `RunMetrics::to_json` for a fixed basket of runs, line for line.
//! * `tests/golden/snapshot_digests.txt`: the FNV-1a of a mid-measurement
//!   checkpoint (`HostSim::snapshot` / `ShardedSim::snapshot`) for every
//!   protection mode, one fully armed multi-device run and the sharded
//!   dc-scale-lite run.
//!
//! The metrics basket covers every protection mode on a small and a deep
//! ring with the default allocator aging left on, so any change to the
//! IOVA allocator, the page table, the IOMMU caches or the driver that
//! moves a single counter, histogram bucket or fault-log entry turns a
//! line red. A multi-device `mt-fanin` run and a sharded dc-scale-lite run
//! pin the multi-domain and sharded engines.
//!
//! The snapshot basket pins the checkpoint encoding itself. Its armed
//! `mt-fanin` cell records the safety oracle, provenance, transaction
//! spans, the flight recorder, the gauge sampler, the watchdog and the
//! fault planes, so every snapshot encoder in the tree writes bytes that
//! are pinned here.
//!
//! On a mismatch the recomputed file is written to
//! `target/<name>.actual.txt`; a change that is meant to move the results
//! re-pins by copying it over the golden file.

use fns::apps::{dc_scale_config, fanin_config, iperf_config};
use fns::core::{Engine, ProtectionMode, SimConfig, WatchdogConfig};
use fns::faults::FaultConfig;
use fns::harness::SweepRunner;
use fns::oracle::AuditConfig;
use fns::snap::fnv1a;
use fns::trace::{ObserveConfig, ProbeConfig, TraceConfig};

fn short(mut cfg: SimConfig) -> SimConfig {
    cfg.warmup = 2_000_000;
    cfg.measure = 4_000_000;
    cfg
}

/// Mid-measurement instant of a [`short`] run.
const SNAPSHOT_AT: u64 = 4_000_000;

fn dc_scale_lite() -> SimConfig {
    let mut dc = dc_scale_config(ProtectionMode::FastAndSafe);
    dc.flows = 1024;
    dc.shards = 1;
    short(dc)
}

/// `(name, config)` for every pinned run, in file order.
fn basket() -> Vec<(String, SimConfig)> {
    let mut runs = Vec::new();
    for (ring, flows) in [(256u32, 5u32), (2048, 40)] {
        for mode in ProtectionMode::ALL {
            runs.push((
                format!("iperf {mode} ring={ring} flows={flows}"),
                short(iperf_config(mode, flows, ring)),
            ));
        }
    }
    runs.push((
        "mt-fanin fast-and-safe flows=64".into(),
        short(fanin_config(ProtectionMode::FastAndSafe, 64)),
    ));
    runs.push((
        "dc-scale-lite fast-and-safe shards=1".into(),
        dc_scale_lite(),
    ));
    runs
}

/// `(name, config)` for every pinned checkpoint, in file order.
fn snapshot_basket() -> Vec<(String, SimConfig)> {
    let mut runs = Vec::new();
    for mode in ProtectionMode::ALL {
        runs.push((
            format!("iperf {mode} ring=256 flows=5"),
            short(iperf_config(mode, 5, 256)),
        ));
    }
    let mut armed = short(fanin_config(ProtectionMode::FastAndSafe, 16));
    armed.audit = AuditConfig::on();
    armed.observe = ObserveConfig::full();
    armed.trace = TraceConfig::all();
    armed.probes = ProbeConfig::every(100_000);
    armed.faults = FaultConfig::uniform(0.01);
    armed.watchdog = WatchdogConfig {
        enabled: true,
        ..WatchdogConfig::off()
    };
    runs.push(("mt-fanin fast-and-safe flows=16 armed".into(), armed));
    runs.push((
        "dc-scale-lite fast-and-safe shards=1".into(),
        dc_scale_lite(),
    ));
    runs
}

/// Compares `actual` with the golden file `tests/golden/{name}.txt`,
/// writing the recomputed file to `target/{name}.actual.txt` on a diff.
fn assert_pinned(name: &str, actual: &str) {
    let golden_path = format!("tests/golden/{name}.txt");
    let actual_path = format!("target/{name}.actual.txt");
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_default();
    if actual != golden {
        let _ = std::fs::create_dir_all("target");
        let _ = std::fs::write(&actual_path, actual);
        let diff: Vec<String> = actual
            .lines()
            .zip(golden.lines().chain(std::iter::repeat("<missing>")))
            .filter(|(a, g)| a != g)
            .map(|(a, g)| format!("  got  {a}\n  want {g}"))
            .collect();
        panic!(
            "{} of {} digests differ from {golden_path} \
             (recomputed file in {actual_path}):\n{}",
            diff.len().max(1),
            actual.lines().count(),
            diff.join("\n")
        );
    }
}

#[test]
fn metrics_digests_match_the_pins() {
    let (names, configs): (Vec<String>, Vec<SimConfig>) = basket().into_iter().unzip();
    let metrics = SweepRunner::from_env().run_sims(configs);
    let actual: String = names
        .iter()
        .zip(&metrics)
        .map(|(name, m)| format!("{:016x} {name}\n", fnv1a(m.to_json().as_bytes())))
        .collect();
    assert_pinned("metrics_digests", &actual);
}

#[test]
fn snapshot_digests_match_the_pins() {
    let actual: String = snapshot_basket()
        .into_iter()
        .map(|(name, cfg)| {
            // `shards = 1` selects the sharded engine, 0 the monolithic one.
            let mut sim = Engine::new(cfg);
            sim.step_until(SNAPSHOT_AT);
            format!("{:016x} {name}\n", fnv1a(&sim.snapshot()))
        })
        .collect();
    assert_pinned("snapshot_digests", &actual);
}
