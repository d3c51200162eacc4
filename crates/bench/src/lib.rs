//! Shared harness utilities for the figure-regeneration binaries.
//!
//! Each `bin/` target regenerates one figure of the paper (see DESIGN.md's
//! experiment index). This library provides the shared row formatting and
//! the standard sweep runner so every figure prints comparable tables.

use fns_core::{HostSim, ProtectionMode, RunMetrics, SimConfig};

pub use fns_harness::SweepRunner;

/// Measurement duration used by the figure binaries (ns). Long enough for
/// stable steady-state averages, short enough that a full figure regenerates
/// in seconds.
pub const MEASURE_NS: u64 = 60_000_000;

/// Runs one configuration to completion.
pub fn run(cfg: SimConfig) -> RunMetrics {
    HostSim::new(cfg).run()
}

/// The sweep runner every figure binary uses: `FNS_JOBS` workers (default:
/// the machine's available parallelism), results in submission order, so
/// figure output is byte-identical at any job count.
pub fn runner() -> SweepRunner {
    SweepRunner::from_env()
}

/// The three modes every figure compares.
pub const HEADLINE_MODES: [ProtectionMode; 3] = [
    ProtectionMode::IommuOff,
    ProtectionMode::LinuxStrict,
    ProtectionMode::FastAndSafe,
];

/// Prints the standard microbenchmark row (Figures 2/3/7/8 panels a–d).
pub fn print_micro_row(label: &str, mode: ProtectionMode, m: &RunMetrics) {
    println!(
        "{label:>10} {:>14}  rx {:6.1} Gbps  drops {:6.3} %  iotlb/pg {:5.2}  \
         l1 {:6.3}  l2 {:6.3}  l3 {:6.3}  tx-pkts/pg {:5.3}  M {:5.2}  cpu {:4.2}",
        mode.label(),
        m.rx_gbps(),
        m.drop_rate() * 100.0,
        m.iotlb_misses_per_page(),
        m.l1_misses_per_page(),
        m.l2_misses_per_page(),
        m.l3_misses_per_page(),
        m.tx_packets_per_page(),
        m.memory_reads_per_page(),
        m.max_cpu(),
    );
}

/// Prints the locality panel (Figures 2e/3e/7e/8e): reuse-distance summary
/// of the IOVA allocation stream plus the likely-miss fractions at two
/// hypothetical PTcache-L3 sizes (the paper's red threshold lines).
pub fn print_locality_row(label: &str, mode: ProtectionMode, m: &RunMetrics) {
    let n = m.locality.reaccesses();
    // Nearest-rank below: index (n-1)*p/100 of the sorted distances.
    let pct = |p: u64| -> u64 {
        m.locality
            .value_at_rank(n.saturating_sub(1) * p / 100)
            .unwrap_or(0)
    };
    println!(
        "{label:>10} {:>14}  reuse-dist mean {:6.2}  p50 {:3}  p95 {:3}  p99 {:3}  \
         frac>=16 {:5.3}  frac>=32 {:5.3}  (n={})",
        mode.label(),
        m.locality_mean(),
        pct(50),
        pct(95),
        pct(99),
        m.locality_fraction_at_least(16),
        m.locality_fraction_at_least(32),
        n,
    );
}

/// Prints a latency whisker row (Figure 9).
pub fn print_latency_row(label: &str, mode: ProtectionMode, m: &RunMetrics) {
    let p = |q: f64| m.latency.percentile(q) as f64 / 1000.0;
    println!(
        "{label:>10} {:>14}  rpc-us p50 {:8.1}  p90 {:8.1}  p99 {:8.1}  p99.9 {:8.1}  \
         p99.99 {:8.1}  (n={})",
        mode.label(),
        p(50.0),
        p(90.0),
        p(99.0),
        p(99.9),
        p(99.99),
        m.latency.count(),
    );
}

/// Asserts the invariant every strict-safe mode must satisfy in every run:
/// zero stale IOTLB hits and zero use-after-free PTcache walks.
pub fn check_safety(mode: ProtectionMode, m: &RunMetrics) {
    if mode.is_strict_safe() {
        assert_eq!(
            m.stale_iotlb_hits, 0,
            "{mode}: device reached unmapped memory"
        );
    }
    assert_eq!(
        m.stale_ptcache_walks, 0,
        "{mode}: walk through a reclaimed page-table page"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use fns_core::{SimConfig, Workload};

    #[test]
    fn headline_modes_cover_the_comparison() {
        assert_eq!(HEADLINE_MODES.len(), 3);
        assert!(HEADLINE_MODES.contains(&ProtectionMode::FastAndSafe));
    }

    #[test]
    fn quick_run_produces_metrics() {
        let mut cfg = SimConfig::paper_default(ProtectionMode::IommuOff);
        cfg.warmup = 2_000_000;
        cfg.measure = 3_000_000;
        cfg.workload = Workload::IperfRx;
        let m = run(cfg);
        assert!(m.rx_gbps() > 1.0);
        check_safety(ProtectionMode::IommuOff, &m);
    }
}

#[cfg(test)]
mod safety_check_tests {
    use super::*;
    use fns_core::Workload;

    #[test]
    #[should_panic(expected = "device reached unmapped memory")]
    fn check_safety_panics_on_violation() {
        let mut cfg = SimConfig::paper_default(ProtectionMode::FastAndSafe);
        cfg.warmup = 1_000_000;
        cfg.measure = 2_000_000;
        cfg.workload = Workload::IperfRx;
        let mut m = run(cfg);
        m.stale_iotlb_hits = 7; // forge a violation
        check_safety(ProtectionMode::FastAndSafe, &m);
    }

    #[test]
    fn check_safety_ignores_stale_hits_in_weak_modes() {
        let mut cfg = SimConfig::paper_default(ProtectionMode::LinuxDeferred);
        cfg.warmup = 1_000_000;
        cfg.measure = 2_000_000;
        let mut m = run(cfg);
        m.stale_iotlb_hits = 7;
        check_safety(ProtectionMode::LinuxDeferred, &m); // must not panic
    }
}

/// Optional CSV sink for figure data: when the `FNS_CSV_DIR` environment
/// variable is set, each figure binary also appends its data points to
/// `$FNS_CSV_DIR/<figure>.csv` for plotting.
///
/// # Examples
///
/// ```no_run
/// let mut sink = fns_bench::CsvSink::create("fig2");
/// fns_bench::csv_row(&mut sink, &["flows", "mode", "gbps"], &["5", "linux", "78.8"]);
/// ```
pub struct CsvSink {
    file: Option<std::fs::File>,
    wrote_header: bool,
}

impl CsvSink {
    /// Opens (truncating) `$FNS_CSV_DIR/<name>.csv` if the variable is set;
    /// otherwise returns an inert sink.
    pub fn create(name: &str) -> Self {
        let file = std::env::var_os("FNS_CSV_DIR").and_then(|dir| {
            let mut path = std::path::PathBuf::from(dir);
            if let Err(e) = std::fs::create_dir_all(&path) {
                eprintln!("FNS_CSV_DIR: cannot create directory: {e}");
                return None;
            }
            path.push(format!("{name}.csv"));
            match std::fs::File::create(&path) {
                Ok(f) => Some(f),
                Err(e) => {
                    eprintln!("FNS_CSV_DIR: cannot create {}: {e}", path.display());
                    None
                }
            }
        });
        Self {
            file,
            wrote_header: false,
        }
    }

    /// Returns `true` when rows are actually being written.
    pub fn is_active(&self) -> bool {
        self.file.is_some()
    }
}

/// Writes one CSV row (emitting the header on first use). Values containing
/// commas are not expected in this numeric data and are not quoted.
pub fn csv_row(sink: &mut CsvSink, header: &[&str], values: &[&str]) {
    use std::io::Write;
    let Some(f) = sink.file.as_mut() else { return };
    assert_eq!(header.len(), values.len(), "CSV row shape mismatch");
    if !sink.wrote_header {
        let _ = writeln!(f, "{}", header.join(","));
        sink.wrote_header = true;
    }
    let _ = writeln!(f, "{}", values.join(","));
}

/// Standard microbenchmark CSV row matching [`print_micro_row`].
pub fn csv_micro_row(
    sink: &mut CsvSink,
    sweep: &str,
    x: u64,
    mode: ProtectionMode,
    m: &RunMetrics,
) {
    csv_row(
        sink,
        &[
            "sweep",
            "x",
            "mode",
            "rx_gbps",
            "drop_pct",
            "iotlb_pp",
            "l1_pp",
            "l2_pp",
            "l3_pp",
            "tx_pkts_pp",
            "reads_pp",
            "max_cpu",
        ],
        &[
            sweep,
            &x.to_string(),
            mode.label(),
            &format!("{:.3}", m.rx_gbps()),
            &format!("{:.4}", m.drop_rate() * 100.0),
            &format!("{:.4}", m.iotlb_misses_per_page()),
            &format!("{:.4}", m.l1_misses_per_page()),
            &format!("{:.4}", m.l2_misses_per_page()),
            &format!("{:.4}", m.l3_misses_per_page()),
            &format!("{:.4}", m.tx_packets_per_page()),
            &format!("{:.4}", m.memory_reads_per_page()),
            &format!("{:.3}", m.max_cpu()),
        ],
    );
}

#[cfg(test)]
mod csv_tests {
    use super::*;

    /// One combined test: the env var is process-global mutable state, so
    /// splitting these into parallel tests would race.
    #[test]
    fn sink_follows_the_env_var() {
        std::env::remove_var("FNS_CSV_DIR");
        let mut sink = CsvSink::create("unit-test");
        assert!(!sink.is_active());
        csv_row(&mut sink, &["a"], &["1"]); // no-op

        let dir = std::env::temp_dir().join(format!("fns-csv-test-{}", std::process::id()));
        std::env::set_var("FNS_CSV_DIR", &dir);
        let mut sink = CsvSink::create("unit");
        std::env::remove_var("FNS_CSV_DIR");
        assert!(sink.is_active());
        csv_row(&mut sink, &["a", "b"], &["1", "2"]);
        csv_row(&mut sink, &["a", "b"], &["3", "4"]);
        drop(sink);
        let body = std::fs::read_to_string(dir.join("unit.csv")).unwrap();
        assert_eq!(body, "a,b\n1,2\n3,4\n");
        let _ = std::fs::remove_dir_all(dir);
    }
}
