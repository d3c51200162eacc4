//! Golden digest pins: the FNV-1a of `RunMetrics::to_json` for a fixed
//! basket of runs must match `tests/golden/metrics_digests.txt` line for
//! line.
//!
//! The basket covers every protection mode on a small and a deep ring with
//! the default allocator aging left on, so any change to the IOVA
//! allocator, the page table, the IOMMU caches or the driver that moves a
//! single counter, histogram bucket or fault-log entry turns a line red.
//! A multi-device `mt-fanin` run and a sharded dc-scale-lite run pin the
//! multi-domain and sharded engines.
//!
//! On a mismatch the recomputed file is written to
//! `target/metrics_digests.actual.txt`; a change that is meant to move the
//! results re-pins by copying it over the golden file.

use fns::apps::{dc_scale_config, fanin_config, iperf_config};
use fns::core::{ProtectionMode, SimConfig};
use fns::harness::SweepRunner;
use fns::snap::fnv1a;

const GOLDEN: &str = "tests/golden/metrics_digests.txt";

fn short(mut cfg: SimConfig) -> SimConfig {
    cfg.warmup = 2_000_000;
    cfg.measure = 4_000_000;
    cfg
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
    let mut dc = dc_scale_config(ProtectionMode::FastAndSafe);
    dc.flows = 1024;
    dc.shards = 1;
    runs.push(("dc-scale-lite fast-and-safe shards=1".into(), short(dc)));
    runs
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
    let golden = std::fs::read_to_string(GOLDEN).unwrap_or_default();
    if actual != golden {
        let _ = std::fs::create_dir_all("target");
        let _ = std::fs::write("target/metrics_digests.actual.txt", &actual);
        let diff: Vec<String> = actual
            .lines()
            .zip(golden.lines().chain(std::iter::repeat("<missing>")))
            .filter(|(a, g)| a != g)
            .map(|(a, g)| format!("  got  {a}\n  want {g}"))
            .collect();
        panic!(
            "{} of {} digests differ from {GOLDEN} \
             (recomputed file in target/metrics_digests.actual.txt):\n{}",
            diff.len().max(1),
            names.len(),
            diff.join("\n")
        );
    }
}
