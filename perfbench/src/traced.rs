//! The traced run: per-layer metrics from spans recorded around every call
//! into the simulator's crates, plus exact simulated counts.
//!
//! 1. Two traced passes over the basket: spans around construction, each
//!    `step_until` on the `shard_epoch_ns` grid, and the final collect
//!    (`run_salvaging` on the monolithic engine, `Engine::finish` on the
//!    sharded one).
//! 2. For each basket entry, the layer replays of [`crate::replay`].
//! 3. While another pair fits in `seconds`, interleaved pairs of a bare
//!    basket pass and one with `ObserveConfig::full()`: the
//!    armed-observability overhead, and the bare wall time the span
//!    overhead is measured against.
//!
//! Inside the event loop the split between wheel, driver and transport is
//! not measured; the replays stand in for it.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use fns_core::{Engine, HostSim, RunArena, RunMetrics, SimConfig};
use fns_trace::ObserveConfig;

use crate::gate::{Failure, Gate};
use crate::spans::{Layer, Recorder};
use crate::workloads::{self, Workload};
use crate::{metric, run_basket, Metric};

/// Traced passes over the basket; two give every workload at least 1000
/// epoch samples, enough for a p99 with ten samples beyond it.
const TRACED_PASSES: usize = 2;

/// Fewest bare/armed basket pairs, however long they take.
const MIN_PAIRS: usize = 2;

/// Gate keys of the armed runs start here (their metrics carry the
/// observability dumps, so their digests differ from bare runs).
const ARMED_KEY: usize = 1 << 20;

/// Gate keys of the `DmaDriver` replays start here.
const REPLAY_KEY: usize = 2 << 20;

/// Sums of the exact simulated counts over one basket pass.
#[derive(Default)]
struct Counts {
    events: u64,
    sim_ms: f64,
    descs: u64,
    translations: u64,
    iotlb_misses: u64,
    memory_reads: u64,
    data_pages: f64,
    inv_queue_entries: u64,
    tx_packets: u64,
    rx_packets: u64,
    nic_drops: u64,
}

impl Counts {
    fn add(&mut self, cfg: &SimConfig, m: &RunMetrics) {
        self.events += m.events_processed;
        self.sim_ms += workloads::sim_ms(cfg);
        self.descs += (workloads::rings(cfg) * cfg.ring_descriptors()) as u64;
        self.translations += m.iommu.translations;
        self.iotlb_misses += m.iommu.iotlb_misses;
        self.memory_reads += m.iommu.memory_reads;
        self.data_pages += m.data_pages();
        self.inv_queue_entries += m.iommu.invalidation_queue_entries;
        self.tx_packets += m.tx_packets;
        self.rx_packets += m.rx_packets;
        self.nic_drops += m.nic_drops;
    }
}

/// One run with spans: construction, one span per epoch step, collect.
fn traced_run(cfg: &SimConfig, arena: &mut RunArena, rec: &mut Recorder) -> RunMetrics {
    let end = cfg.end_time();
    let epoch = cfg.shard_epoch_ns.max(1);
    let grid = |t: u64| ((t / epoch + 1) * epoch).min(end);
    let run = rec.begin("sim.run");
    let setup = rec.begin("core.setup");
    let m = if cfg.shards == 0 {
        let mut sim = HostSim::new_in(*cfg, arena);
        rec.end(setup, 1);
        let lp = rec.begin("core.loop");
        let mut t = 0;
        while t < end {
            t = grid(t);
            rec.time("shard.epoch", 1, |_| sim.step_until(t));
        }
        rec.end(lp, 1);
        rec.time("shard.finish", 1, |_| sim.run_salvaging(arena))
    } else {
        let mut engine = Engine::new(*cfg);
        rec.end(setup, 1);
        let lp = rec.begin("core.loop");
        let mut t = 0;
        while t < end {
            t = grid(t);
            rec.time("shard.epoch", 1, |_| engine.step_until(t));
        }
        rec.end(lp, 1);
        rec.time("shard.finish", 1, |_| engine.finish())
    };
    rec.end(run, 1);
    m
}

fn ratio(num: f64, den: f64) -> f64 {
    num / den.max(f64::MIN_POSITIVE)
}

fn per_op(layers: &BTreeMap<&'static str, Layer>, name: &str) -> f64 {
    layers.get(name).map_or(f64::NAN, Layer::self_ns_per_op)
}

/// Runs the traced measurement and returns every per-layer metric.
pub fn per_layer(
    workload: Workload,
    seed: u64,
    seconds: u64,
    out_dir: Option<&Path>,
    gate: &mut Gate,
) -> Vec<Metric> {
    let start = Instant::now();
    let basket = workload.basket(seed);
    let mut rec = Recorder::new();
    let mut arena = RunArena::new();
    let mut counts = Counts::default();
    let mut traced_wall = Vec::new();
    for pass in 0..TRACED_PASSES {
        let t = Instant::now();
        for (i, cfg) in basket.iter().enumerate() {
            rec.set_run((pass * basket.len() + i) as u32);
            let m = gate.run(i, cfg, || traced_run(cfg, &mut arena, &mut rec));
            match m {
                Some(m) if pass == 0 => counts.add(cfg, &m),
                Some(_) => {}
                None => {
                    rec.close_all();
                    arena = RunArena::new();
                }
            }
        }
        traced_wall.push(t.elapsed().as_secs_f64());
    }

    let mut replay_ops = 0u64;
    let mut replay_errors = 0u64;
    let mut allocs = 0u64;
    let mut tree_allocs = 0u64;
    for (i, cfg) in basket.iter().enumerate() {
        rec.set_run((TRACED_PASSES * basket.len() + i) as u32);
        let replay_seed = workloads::mix(cfg.seed, 0xD21E);
        gate.attempt(REPLAY_KEY + i, || {
            let out = crate::replay::driver(cfg, replay_seed, &mut rec);
            replay_ops += out.ops;
            replay_errors += out.errors;
            if cfg.mode != fns_core::ProtectionMode::IommuOff {
                let a = crate::replay::iova(cfg, &out.stream, &mut rec);
                let s = fns_iova::IovaAllocator::stats(&a);
                allocs += s.allocs;
                tree_allocs += s.tree_allocs;
                crate::replay::iommu(cfg, &out.stream, &mut rec);
            }
            crate::replay::micro(cfg, &mut rec);
            crate::replay::hold(cfg, replay_seed, &mut rec);
            out.first_error
                .map_or(Ok(()), |e| Err(Failure::Dma(format!("{e:?}"))))
        });
        // A replay that panicked leaves its spans open.
        rec.close_all();
    }
    let layers = rec.layers();

    let armed: Vec<SimConfig> = basket
        .iter()
        .map(|c| SimConfig {
            observe: ObserveConfig::full(),
            ..*c
        })
        .collect();
    let (mut bare_wall, mut armed_wall) = (Vec::new(), Vec::new());
    let budget = Duration::from_secs(seconds);
    let mut last = Duration::ZERO;
    while bare_wall.len() < MIN_PAIRS || start.elapsed() + last < budget {
        let pair = Instant::now();
        run_basket(&basket, 0, &mut arena, gate);
        bare_wall.push(pair.elapsed().as_secs_f64());
        let t = Instant::now();
        run_basket(&armed, ARMED_KEY, &mut arena, gate);
        armed_wall.push(t.elapsed().as_secs_f64());
        last = pair.elapsed();
    }

    if let Some(dir) = out_dir {
        let path = dir.join(format!("spans-{}-{seed}.jsonl", workload.name()));
        let written = std::fs::create_dir_all(dir)
            .and_then(|_| std::fs::File::create(&path))
            .and_then(|f| {
                let mut w = std::io::BufWriter::new(f);
                rec.write_json(&mut w)?;
                std::io::Write::flush(&mut w)
            });
        match written {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }

    let med = |s: &[f64]| crate::stats::median(s).unwrap_or(f64::NAN);
    let setup = layers.get("core.setup").copied().unwrap_or_default();
    let lp = layers.get("core.loop").copied().unwrap_or_default();
    let epochs_us: Vec<f64> = rec
        .durations("shard.epoch")
        .into_iter()
        .map(|ns| ns / 1e3)
        .collect();
    let finish_ms: Vec<f64> = rec
        .durations("shard.finish")
        .into_iter()
        .map(|ns| ns / 1e6)
        .collect();
    println!("shard.epoch_us  {}", crate::stats::describe(&epochs_us));
    println!(
        "spans {}  traced passes {TRACED_PASSES}  bare/armed pairs {}",
        rec.spans().len(),
        bare_wall.len()
    );
    let passes = TRACED_PASSES as f64;
    vec![
        metric(
            "core.setup_ns_per_desc",
            ratio(setup.total_ns as f64, passes * counts.descs as f64),
            "ns",
        ),
        metric(
            "core.loop_ns_per_event",
            ratio(lp.total_ns as f64, passes * counts.events as f64),
            "ns",
        ),
        metric(
            "core.setup_share_pct",
            100.0 * ratio(setup.total_ns as f64, (setup.total_ns + lp.total_ns) as f64),
            "%",
        ),
        metric(
            "sim.events_per_sim_ms",
            ratio(counts.events as f64, counts.sim_ms),
            "1/ms",
        ),
        metric("sim.hold_ns", per_op(&layers, "sim.hold"), "ns"),
        metric(
            "driver.rx_prepare_ns",
            per_op(&layers, "driver.rx_prepare"),
            "ns",
        ),
        metric(
            "driver.rx_complete_ns",
            per_op(&layers, "driver.rx_complete"),
            "ns",
        ),
        metric("driver.tx_map_ns", per_op(&layers, "driver.tx_map"), "ns"),
        metric(
            "driver.tx_complete_ns",
            per_op(&layers, "driver.tx_complete"),
            "ns",
        ),
        metric(
            "driver.translate_ns",
            per_op(&layers, "driver.translate"),
            "ns",
        ),
        metric(
            "driver.error_share",
            ratio(replay_errors as f64, replay_ops as f64),
            "share",
        ),
        metric("iova.alloc_ns", per_op(&layers, "iova.alloc"), "ns"),
        metric("iova.free_ns", per_op(&layers, "iova.free"), "ns"),
        metric(
            "iova.cache_hit_ratio",
            1.0 - ratio(tree_allocs as f64, allocs as f64),
            "ratio",
        ),
        metric(
            "iova.rcache_pair_ns",
            per_op(&layers, "iova.rcache_pair"),
            "ns",
        ),
        metric(
            "iova.tree_alloc_ns",
            per_op(&layers, "iova.tree_pair"),
            "ns",
        ),
        metric("iommu.map_ns", per_op(&layers, "iommu.map"), "ns"),
        metric("iommu.unmap_ns", per_op(&layers, "iommu.unmap"), "ns"),
        metric(
            "iommu.invalidate_ns",
            per_op(&layers, "iommu.invalidate"),
            "ns",
        ),
        metric(
            "iommu.map_unmap_page_ns",
            per_op(&layers, "iommu.map_unmap_page"),
            "ns",
        ),
        metric(
            "iommu.map_unmap_desc_ns",
            per_op(&layers, "iommu.map_unmap_desc"),
            "ns",
        ),
        metric(
            "iommu.iotlb_hit_ns",
            per_op(&layers, "iommu.iotlb_hit"),
            "ns",
        ),
        metric("iommu.walk_ns", per_op(&layers, "iommu.walk"), "ns"),
        metric(
            "iommu.full_walk_ns",
            per_op(&layers, "iommu.full_walk"),
            "ns",
        ),
        metric(
            "iommu.iotlb_miss_ratio",
            ratio(counts.iotlb_misses as f64, counts.translations as f64),
            "ratio",
        ),
        metric(
            "iommu.mem_reads_per_page",
            ratio(counts.memory_reads as f64, counts.data_pages),
            "1/page",
        ),
        metric(
            "iommu.inv_queue_entries",
            counts.inv_queue_entries as f64,
            "count",
        ),
        metric(
            "net.tx_pkts_per_page",
            ratio(counts.tx_packets as f64, counts.data_pages),
            "1/page",
        ),
        metric(
            "nic.drop_share",
            ratio(
                counts.nic_drops as f64,
                (counts.rx_packets + counts.nic_drops) as f64,
            ),
            "share",
        ),
        metric(
            "shard.epoch_us_p50",
            crate::stats::quantile(&epochs_us, 0.50).unwrap_or(f64::NAN),
            "us",
        ),
        metric(
            "shard.epoch_us_p99",
            crate::stats::quantile(&epochs_us, 0.99).unwrap_or(f64::NAN),
            "us",
        ),
        metric("shard.finish_ms", med(&finish_ms), "ms"),
        metric(
            "trace.armed_overhead_pct",
            100.0 * (med(&armed_wall) / med(&bare_wall) - 1.0),
            "%",
        ),
        metric(
            "bench.span_overhead_pct",
            100.0 * (med(&traced_wall) / med(&bare_wall) - 1.0),
            "%",
        ),
    ]
}
