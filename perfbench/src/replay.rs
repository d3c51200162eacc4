//! Layer replays: the same operation mix run construction uses to age a
//! run's rings, driven through each crate's public API from outside, with
//! a span around every call.
//!
//! * [`driver`] replays the op mix through `DmaDriver` with the workload's
//!   mode, cores, domains and ring geometry, and records the IOVA stream it
//!   produces.
//! * [`iova`] replays that stream's allocation requests against a bare
//!   `CachingAllocator`, and [`iommu`] replays its map/unmap/invalidate/
//!   translate calls against a bare `Iommu`.
//! * [`micro`] times the single operations the old criterion harness
//!   named, on the workload's own `IommuConfig` and core count.
//! * [`hold`] runs the classic hold model on `EventQueue<u64>`.

use std::collections::VecDeque;

use fns_core::{DmaDriver, DmaError, SimConfig};
use fns_iommu::{InvalidationScope, Iommu, IommuConfig};
use fns_iova::{CachingAllocator, Iova, IovaAllocator, IovaRange, RbTreeAllocator};
use fns_mem::PhysAddr;
use fns_sim::queue::EventQueue;
use fns_sim::rng::SimRng;

use crate::spans::Recorder;
use crate::workloads::rings;

/// Aging rounds construction runs (`HostSim::churn_rings`); the replay
/// runs fewer, since it only has to expose per-call costs.
pub const REPLAY_ROUNDS: usize = 2;

/// One step of the IOVA stream a driver replay produced.
#[derive(Debug, Clone)]
pub enum StreamOp {
    /// Pages mapped for one Rx descriptor or one Tx packet on `core`.
    Map {
        domain: u16,
        core: usize,
        rx: bool,
        pages: Vec<Iova>,
    },
    /// The same pages unmapped on `core` (the completion core).
    Unmap {
        domain: u16,
        core: usize,
        pages: Vec<Iova>,
    },
    /// Device accesses to the pages of a fresh Rx descriptor.
    Translate { domain: u16, pages: Vec<Iova> },
}

/// What a driver replay did.
pub struct DriverReplay {
    pub ops: u64,
    pub errors: u64,
    pub first_error: Option<DmaError>,
    pub stream: Vec<StreamOp>,
}

/// The IOMMU configuration a run of `cfg` builds (one domain per device).
pub fn iommu_config(cfg: &SimConfig) -> IommuConfig {
    let mut c = cfg.iommu;
    c.domains = c.domains.max(cfg.topology.domains());
    c
}

fn ring_core(cfg: &SimConfig, ring: usize) -> usize {
    ring % cfg.cores
}

fn ring_domain(cfg: &SimConfig, ring: usize) -> u16 {
    if cfg.topology.is_single() {
        0
    } else {
        cfg.topology
            .nic_domain((ring / cfg.topology.queues_per_nic.max(1) as usize) as u16)
    }
}

/// Replays construction's aging op mix through a fresh `DmaDriver`: fill
/// every ring, then for each round and ring slot complete the head
/// descriptor, do 0–23 one-page Tx maps completed on another core, prepare
/// a fresh descriptor and translate each of its pages.
pub fn driver(cfg: &SimConfig, seed: u64, rec: &mut Recorder) -> DriverReplay {
    let mut drv = DmaDriver::with_descriptor_pages(
        cfg.mode,
        cfg.cores,
        iommu_config(cfg),
        cfg.cpu,
        cfg.deferred_flush_threshold,
        cfg.locality_samples,
        u64::from(cfg.pages_per_descriptor),
    );
    let mut rng = SimRng::seed(seed);
    let mut out = DriverReplay {
        ops: 0,
        errors: 0,
        first_error: None,
        stream: Vec::new(),
    };
    let fail = |out: &mut DriverReplay, e: DmaError| {
        out.errors += 1;
        out.first_error.get_or_insert(e);
    };
    let n_rings = rings(cfg);
    let descs = cfg.ring_descriptors();
    let mut ringq: Vec<VecDeque<_>> = (0..n_rings).map(|_| VecDeque::new()).collect();
    let top = rec.begin("replay.driver");
    for (r, q) in ringq.iter_mut().enumerate() {
        let (core, dom) = (ring_core(cfg, r), ring_domain(cfg, r));
        for _ in 0..descs {
            out.ops += 1;
            let s = rec.begin("driver.rx_prepare");
            let res = drv.prepare_rx_descriptor_in(dom, core);
            rec.end(s, 1);
            match res {
                Ok((d, _)) => {
                    out.stream.push(StreamOp::Map {
                        domain: dom,
                        core,
                        rx: true,
                        pages: d.pages().iter().map(|p| p.iova).collect(),
                    });
                    q.push_back(d);
                }
                Err(e) => fail(&mut out, e),
            }
        }
    }
    for _ in 0..REPLAY_ROUNDS {
        for _ in 0..descs {
            for (r, q) in ringq.iter_mut().enumerate() {
                let (core, dom) = (ring_core(cfg, r), ring_domain(cfg, r));
                if let Some(d) = q.pop_front() {
                    out.ops += 1;
                    let s = rec.begin("driver.rx_complete");
                    let res = drv.complete_rx_descriptor_in(dom, core, &d);
                    rec.end(s, 1);
                    match res {
                        Ok(_) => out.stream.push(StreamOp::Unmap {
                            domain: dom,
                            core,
                            pages: d.pages().iter().map(|p| p.iova).collect(),
                        }),
                        Err(e) => fail(&mut out, e),
                    }
                    drv.recycle_descriptor(d);
                }
                for _ in 0..rng.range(0, 24) {
                    out.ops += 1;
                    let s = rec.begin("driver.tx_map");
                    let res = drv.tx_map_in(dom, core, 1);
                    rec.end(s, 1);
                    let pages = match res {
                        Ok((pages, _)) => pages,
                        Err(e) => {
                            fail(&mut out, e);
                            continue;
                        }
                    };
                    let iova: Vec<Iova> = pages.iter().map(|p| p.iova).collect();
                    out.stream.push(StreamOp::Map {
                        domain: dom,
                        core,
                        rx: false,
                        pages: iova.clone(),
                    });
                    let comp = (core + 1 + rng.index(cfg.cores.max(2) - 1)) % cfg.cores;
                    out.ops += 1;
                    let s = rec.begin("driver.tx_complete");
                    let res = drv.tx_complete_in(dom, comp, &pages);
                    rec.end(s, pages.len() as u64);
                    match res {
                        Ok(_) => out.stream.push(StreamOp::Unmap {
                            domain: dom,
                            core: comp,
                            pages: iova,
                        }),
                        Err(e) => fail(&mut out, e),
                    }
                    drv.recycle_pages(pages);
                }
                out.ops += 1;
                let s = rec.begin("driver.rx_prepare");
                let res = drv.prepare_rx_descriptor_in(dom, core);
                rec.end(s, 1);
                match res {
                    Ok((d, _)) => {
                        let pages: Vec<Iova> = d.pages().iter().map(|p| p.iova).collect();
                        out.stream.push(StreamOp::Map {
                            domain: dom,
                            core,
                            rx: true,
                            pages: pages.clone(),
                        });
                        let s = rec.begin("driver.translate");
                        for &p in &pages {
                            std::hint::black_box(drv.translate_in(dom, p));
                        }
                        rec.end(s, pages.len() as u64);
                        out.stream.push(StreamOp::Translate { domain: dom, pages });
                        q.push_back(d);
                    }
                    Err(e) => fail(&mut out, e),
                }
            }
        }
    }
    rec.end(top, out.ops);
    out
}

/// Splits `pages` into runs of consecutive pfns: one range per contiguous
/// descriptor chunk, one per page when the IOVAs are scattered.
pub fn ranges(pages: &[Iova]) -> Vec<IovaRange> {
    let mut out: Vec<IovaRange> = Vec::new();
    for &p in pages {
        match out.last_mut() {
            Some(r) if r.base().pfn() + r.pages() == p.pfn() => {
                *r = IovaRange::new(r.base(), r.pages() + 1)
            }
            _ => out.push(IovaRange::new(p, 1)),
        }
    }
    out
}

/// Replays the stream's allocation requests against a bare
/// `CachingAllocator` with the run's core count. The request sizes follow
/// the mode: a contiguous-IOVA mode asks for one range per Rx descriptor,
/// other modes for one page at a time. Contiguous-mode Tx chunk carving is
/// not reproduced; those Tx pages are replayed as one-page requests.
/// Returns the allocator so its statistics can be read.
pub fn iova(cfg: &SimConfig, stream: &[StreamOp], rec: &mut Recorder) -> CachingAllocator {
    let mut a = CachingAllocator::with_defaults(cfg.cores);
    let contiguous = cfg.mode.contiguous_iova();
    // Allocations still live, in the order their pages were mapped.
    let mut live: VecDeque<(Vec<Iova>, Vec<IovaRange>)> = VecDeque::new();
    let top = rec.begin("replay.iova");
    for op in stream {
        match op {
            StreamOp::Map {
                core, rx, pages, ..
            } => {
                let sizes: Vec<u64> = if *rx && contiguous {
                    vec![pages.len() as u64]
                } else {
                    vec![1; pages.len()]
                };
                let s = rec.begin("iova.alloc");
                let got: Vec<IovaRange> = sizes
                    .iter()
                    .map(|&n| a.alloc(n, *core).expect("replay allocator exhausted"))
                    .collect();
                rec.end(s, sizes.len() as u64);
                live.push_back((pages.clone(), got));
            }
            StreamOp::Unmap { core, pages, .. } => {
                let i = live
                    .iter()
                    .position(|(p, _)| p == pages)
                    .expect("unmap of pages the stream mapped");
                let (_, got) = live.remove(i).expect("index in range");
                let s = rec.begin("iova.free");
                for r in &got {
                    a.free(*r, *core);
                }
                rec.end(s, got.len() as u64);
            }
            StreamOp::Translate { .. } => {}
        }
    }
    rec.end(top, stream.len() as u64);
    a
}

/// Replays the stream's page-table and IOTLB work against a bare `Iommu`:
/// map every page, unmap and invalidate each contiguous range (plus the
/// PTcache fix-up for page-table pages the unmap reclaimed), translate
/// every page the device touched.
pub fn iommu(cfg: &SimConfig, stream: &[StreamOp], rec: &mut Recorder) {
    let mut mmu = Iommu::new(iommu_config(cfg));
    let top = rec.begin("replay.iommu");
    for op in stream {
        match op {
            StreamOp::Map { domain, pages, .. } => {
                let s = rec.begin("iommu.map");
                for &p in pages {
                    mmu.map_in(*domain, p, PhysAddr::from_pfn(p.pfn()))
                        .expect("replayed map");
                }
                rec.end(s, pages.len() as u64);
            }
            StreamOp::Unmap { domain, pages, .. } => {
                let rs = ranges(pages);
                let s = rec.begin("iommu.unmap");
                let mut reclaimed = Vec::new();
                for r in &rs {
                    let out = mmu.unmap_range_in(*domain, *r).expect("replayed unmap");
                    reclaimed.extend(out.reclaimed);
                }
                rec.end(s, pages.len() as u64);
                let s = rec.begin("iommu.invalidate");
                for r in &rs {
                    mmu.invalidate_range_in(*domain, *r, InvalidationScope::IotlbOnly);
                }
                if !reclaimed.is_empty() {
                    mmu.invalidate_for_reclaimed_in(*domain, &reclaimed);
                }
                rec.end(s, rs.len() as u64);
            }
            StreamOp::Translate { domain, pages } => {
                let s = rec.begin("iommu.translate");
                for &p in pages {
                    std::hint::black_box(mmu.translate_in(*domain, p));
                }
                rec.end(s, pages.len() as u64);
            }
        }
    }
    rec.end(top, stream.len() as u64);
}

/// Repetitions of each single-operation loop in [`micro`].
pub const MICRO_OPS: u64 = 50_000;

/// Cycles `translate` over `pages` for `n` calls inside one span.
fn translate_loop(mmu: &mut Iommu, pages: &[Iova], n: u64, name: &'static str, rec: &mut Recorder) {
    for &p in pages {
        mmu.translate(p);
    }
    let s = rec.begin(name);
    for i in 0..n {
        std::hint::black_box(mmu.translate(pages[i as usize % pages.len()]));
    }
    rec.end(s, n);
}

/// The single operations of the old criterion harness, each timed as a
/// loop of [`MICRO_OPS`] on the run's core count and `IommuConfig`:
/// rcache alloc+free, rbtree alloc+free under 10k live ranges, map+unmap
/// of one page and of one descriptor, an IOTLB-hit translate, an IOTLB
/// miss that hits the leaf PTcache, and a walk that misses every PTcache.
pub fn micro(cfg: &SimConfig, rec: &mut Recorder) {
    let icfg = iommu_config(cfg);
    let desc = u64::from(cfg.pages_per_descriptor);
    let top = rec.begin("micro");

    let mut a = CachingAllocator::with_defaults(cfg.cores);
    let r = a.alloc(1, 0).expect("fresh allocator");
    a.free(r, 0);
    let s = rec.begin("iova.rcache_pair");
    for _ in 0..MICRO_OPS {
        let r = a.alloc(1, 0).expect("rcache hit");
        a.free(std::hint::black_box(r), 0);
    }
    rec.end(s, MICRO_OPS);

    let mut t = RbTreeAllocator::new();
    let live: Vec<IovaRange> = (0..10_000)
        .map(|_| t.alloc(1, 0).expect("fresh tree"))
        .collect();
    let s = rec.begin("iova.tree_pair");
    for _ in 0..MICRO_OPS {
        let r = t.alloc(desc, 0).expect("tree under load");
        t.free(std::hint::black_box(r), 0);
    }
    rec.end(s, MICRO_OPS);
    for r in live {
        t.free(r, 0);
    }

    let mut mmu = Iommu::new(icfg);
    let one = IovaRange::new(Iova::from_pfn(0x12345), 1);
    let s = rec.begin("iommu.map_unmap_page");
    for _ in 0..MICRO_OPS {
        mmu.map(one.base(), PhysAddr::from_pfn(1))
            .expect("map one page");
        std::hint::black_box(mmu.unmap_range(one).expect("unmap one page"));
    }
    rec.end(s, MICRO_OPS);

    let range = IovaRange::new(Iova::from_pfn(0x40000), desc);
    let n = (MICRO_OPS / desc).max(1);
    let s = rec.begin("iommu.map_unmap_desc");
    for _ in 0..n {
        for p in range.iter_pages() {
            mmu.map(p, PhysAddr::from_pfn(p.pfn()))
                .expect("map descriptor");
        }
        std::hint::black_box(mmu.unmap_range(range).expect("unmap descriptor"));
    }
    rec.end(s, n);

    // IOTLB hits: a working set half the IOTLB's size.
    let hot: Vec<Iova> = (0..(icfg.iotlb_entries / 2).max(1) as u64)
        .map(|i| Iova::from_pfn(0x80000 + i))
        .collect();
    // Leaf-PTcache hits: four times the IOTLB inside one 2 MB leaf table,
    // so LRU cycling misses the IOTLB on every access.
    let warm: Vec<Iova> = (0..(4 * icfg.iotlb_entries).min(512) as u64)
        .map(|i| Iova::from_pfn(0x100000 + i))
        .collect();
    // Full walks: one page per 512 GB region, twice as many regions as the
    // largest cache has entries, so every level misses.
    let biggest = icfg
        .iotlb_entries
        .max(icfg.ptcache_l1_entries)
        .max(icfg.ptcache_l2_entries)
        .max(icfg.ptcache_l3_entries);
    let cold: Vec<Iova> = (1..=(2 * biggest).min(511) as u64)
        .map(|i| Iova::from_pfn(i << 27))
        .collect();
    for &p in hot.iter().chain(&warm).chain(&cold) {
        mmu.map(p, PhysAddr::from_pfn(p.pfn()))
            .expect("map micro page");
    }
    translate_loop(&mut mmu, &hot, MICRO_OPS, "iommu.iotlb_hit", rec);
    translate_loop(&mut mmu, &warm, MICRO_OPS, "iommu.walk", rec);
    translate_loop(&mut mmu, &cold, MICRO_OPS, "iommu.full_walk", rec);
    rec.end(top, 0);
}

/// Hold model on the simulator's event queue: `depth` events pending (one
/// per flow plus one per descriptor in flight), each pop followed by a
/// push at a delay drawn log-uniformly from 1 ns to 2^27 ns so every wheel
/// level and the spill heap see traffic.
pub fn hold(cfg: &SimConfig, seed: u64, rec: &mut Recorder) {
    let depth = cfg.flows as usize + rings(cfg) * cfg.ring_descriptors();
    let mut q: EventQueue<u64> = EventQueue::with_kind(cfg.queue, depth);
    q.set_fast_forward(cfg.queue_fast_forward);
    let mut rng = SimRng::seed(seed);
    let mut delay = move || {
        let level = rng.range(0, 27);
        (1u64 << level) + rng.range(0, 1u64 << level)
    };
    for i in 0..depth as u64 {
        q.push(delay(), i);
    }
    let n = 4 * MICRO_OPS;
    let s = rec.begin("sim.hold");
    for _ in 0..n {
        let (now, x) = q.pop().expect("hold queue never drains");
        q.push(now + delay(), std::hint::black_box(x));
    }
    rec.end(s, n);
}

#[cfg(test)]
mod tests {
    use super::*;
    use fns_core::ProtectionMode;

    fn small(mode: ProtectionMode) -> SimConfig {
        fns_apps::iperf_config(mode, 5, 256)
    }

    #[test]
    fn ranges_merge_consecutive_pages() {
        let p = |n| Iova::from_pfn(n);
        let rs = ranges(&[p(10), p(11), p(12), p(20), p(5)]);
        assert_eq!(
            rs,
            vec![
                IovaRange::new(p(10), 3),
                IovaRange::new(p(20), 1),
                IovaRange::new(p(5), 1)
            ]
        );
    }

    #[test]
    fn driver_replay_is_error_free_and_feeds_the_layer_replays() {
        for mode in [ProtectionMode::LinuxStrict, ProtectionMode::FastAndSafe] {
            let cfg = small(mode);
            let mut rec = Recorder::new();
            let out = driver(&cfg, 1, &mut rec);
            assert_eq!(out.errors, 0, "{mode}: {:?}", out.first_error);
            let maps = out
                .stream
                .iter()
                .filter(|o| matches!(o, StreamOp::Map { .. }));
            let unmaps = out
                .stream
                .iter()
                .filter(|o| matches!(o, StreamOp::Unmap { .. }));
            // Every ring still holds its descriptors at the end.
            assert_eq!(
                maps.count() - unmaps.count(),
                rings(&cfg) * cfg.ring_descriptors()
            );
            let a = iova(&cfg, &out.stream, &mut rec);
            assert!(a.live_ranges() > 0);
            iommu(&cfg, &out.stream, &mut rec);
            let l = rec.layers();
            for name in [
                "driver.rx_prepare",
                "driver.rx_complete",
                "driver.tx_map",
                "driver.tx_complete",
                "driver.translate",
                "iova.alloc",
                "iova.free",
                "iommu.map",
                "iommu.unmap",
                "iommu.invalidate",
            ] {
                assert!(l.get(name).is_some_and(|x| x.ops > 0), "{mode}: no {name}");
            }
        }
    }

    #[test]
    fn micro_walks_hit_the_intended_cache_levels() {
        let cfg = small(ProtectionMode::LinuxStrict);
        let mut rec = Recorder::new();
        micro(&cfg, &mut rec);
        hold(&cfg, 1, &mut rec);
        let l = rec.layers();
        // Each walk class costs more memory reads, so more host time is
        // not asserted; the span set must be complete.
        for name in [
            "iova.rcache_pair",
            "iova.tree_pair",
            "iommu.map_unmap_page",
            "iommu.map_unmap_desc",
            "iommu.iotlb_hit",
            "iommu.walk",
            "iommu.full_walk",
            "sim.hold",
        ] {
            assert!(l.get(name).is_some_and(|x| x.ops > 0), "no {name}");
        }
        let icfg = iommu_config(&cfg);
        let mut mmu = Iommu::new(icfg);
        let cold: Vec<Iova> = (1..=128u64).map(|i| Iova::from_pfn(i << 27)).collect();
        for &p in &cold {
            mmu.map(p, PhysAddr::from_pfn(p.pfn())).unwrap();
        }
        let mut rec = Recorder::new();
        translate_loop(&mut mmu, &cold, 1280, "x", &mut rec);
        let before = mmu.stats();
        for &p in &cold {
            mmu.translate(p);
        }
        let after = mmu.stats();
        assert_eq!(after.iotlb_misses - before.iotlb_misses, 128);
        assert_eq!(after.ptcache_l1_misses - before.ptcache_l1_misses, 128);
    }
}
