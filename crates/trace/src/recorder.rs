//! The causal observability plane: configuration and the shared,
//! enum-dispatch recorder handle tying [`provenance`], [`txn`], and
//! [`metrics`] together, plus the flight-recorder arming knobs (the
//! flight ring itself lives inside [`TraceHandle`] so every emit site
//! feeds it for free).
//!
//! Determinism contract (pinned in `tests/golden_determinism.rs`):
//!
//! * **Zero-cost off** — a disabled [`ObsHandle`] is a single
//!   discriminant check per hook site, and a disabled run is bit-identical
//!   to a build without the plane.
//! * **RNG-free on** — an armed observer only *reads* the simulation;
//!   armed runs are bit-identical to bare runs modulo the dumps
//!   themselves, which is only possible if no randomness is consumed and
//!   no event order perturbed.
//! * **Checkpointable** — the observer serializes with the simulation and
//!   restores bit-identically ([`ObsHandle::snap`]).
//!
//! [`provenance`]: crate::provenance
//! [`txn`]: crate::txn
//! [`metrics`]: crate::metrics
//! [`TraceHandle`]: crate::TraceHandle

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use fns_snap::{snap_fields, Snap, SnapError, SnapReader, SnapWriter};

use crate::metrics::{MetricsRegistry, RegMetric, RegistryReport};
use crate::provenance::{
    PageEvent, PageEventKind, ProvenanceBook, ProvenanceDump, DEFAULT_PROV_EVENTS,
    DEFAULT_PROV_PAGES, DEVICE_FLOW,
};
use crate::txn::{TxnDump, TxnTrace, DEFAULT_TXN_CAPACITY};
use crate::Nanos;

/// Default flight-recorder (crash ring) capacity, in trace events.
pub const DEFAULT_FLIGHT_CAPACITY: u32 = 4096;

/// Sentinel for "no focus page".
pub const NO_FOCUS: u64 = u64::MAX;

/// Arming knobs for the observability plane. Lives in `SimConfig`
/// (`Copy`, total `Debug` — it joins the snapshot config fingerprint
/// automatically).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObserveConfig {
    /// Record per-page provenance timelines.
    pub provenance: bool,
    /// Cap on distinct tracked pages.
    pub prov_pages: u32,
    /// Per-page event-ring capacity.
    pub prov_events: u32,
    /// Always-tracked IOVA pfn ([`NO_FOCUS`] = none) — the
    /// `--explain-page` target.
    pub prov_focus: u64,
    /// Record DMA transaction causal spans.
    pub txn: bool,
    /// Completed-transaction ring capacity.
    pub txn_capacity: u32,
    /// Record the HDR-style percentile registry.
    pub registry: bool,
    /// Arm the flight recorder (last-N crash ring inside the trace
    /// handle).
    pub flight: bool,
    /// Flight-ring capacity, in trace events.
    pub flight_capacity: u32,
}

impl ObserveConfig {
    /// Everything disabled (the default; changes no run by a single bit).
    pub fn off() -> Self {
        Self {
            provenance: false,
            prov_pages: DEFAULT_PROV_PAGES,
            prov_events: DEFAULT_PROV_EVENTS,
            prov_focus: NO_FOCUS,
            txn: false,
            txn_capacity: DEFAULT_TXN_CAPACITY,
            registry: false,
            flight: false,
            flight_capacity: DEFAULT_FLIGHT_CAPACITY,
        }
    }

    /// Everything armed at default capacities.
    pub fn full() -> Self {
        Self {
            provenance: true,
            txn: true,
            registry: true,
            flight: true,
            ..Self::off()
        }
    }

    /// Whether any observer-side layer (provenance/txn/registry) is armed.
    /// The flight ring is armed separately, through the trace handle.
    pub fn any(&self) -> bool {
        self.provenance || self.txn || self.registry
    }
}

impl Default for ObserveConfig {
    fn default() -> Self {
        Self::off()
    }
}

/// The live observer: the armed subset of the three layers. The shared
/// sim-time stamp lives next to it in the handle (a `Cell`, so the
/// once-per-event `set_now` skips the `RefCell` borrow bookkeeping).
#[derive(Debug, Clone)]
pub struct Observer {
    prov: Option<ProvenanceBook>,
    txns: Option<TxnTrace>,
    reg: Option<MetricsRegistry>,
}

snap_fields!(Observer { prov, txns, reg });

impl Observer {
    fn new(cfg: ObserveConfig) -> Self {
        Self {
            prov: cfg
                .provenance
                .then(|| ProvenanceBook::new(cfg.prov_pages, cfg.prov_events, cfg.prov_focus)),
            txns: cfg.txn.then(|| TxnTrace::new(cfg.txn_capacity)),
            reg: cfg.registry.then(MetricsRegistry::default),
        }
    }
}

/// Shared observability handle: enum dispatch so a disabled plane costs
/// one discriminant check per hook site. Clones share one [`Observer`]
/// (the simulation and the driver each hold one). The per-event clock
/// and the "provenance armed" flag are hoisted out of the `RefCell` —
/// `set_now` and `wants_translate` run on the hottest paths and must not
/// pay borrow bookkeeping.
#[derive(Clone, Default)]
pub enum ObsHandle {
    /// Observation disabled (the default).
    #[default]
    Off,
    /// Observation armed; clones share the observer and the clock.
    On {
        /// Shared sim-time stamp, advanced once per dispatched event.
        now: Rc<Cell<Nanos>>,
        /// Cached `prov.is_some()` (arming never changes mid-run).
        prov_on: bool,
        /// The armed layers.
        obs: Rc<RefCell<Observer>>,
    },
}

impl ObsHandle {
    fn armed(now: Nanos, observer: Observer) -> Self {
        ObsHandle::On {
            now: Rc::new(Cell::new(now)),
            prov_on: observer.prov.is_some(),
            obs: Rc::new(RefCell::new(observer)),
        }
    }

    /// Creates an armed handle for the given config ([`ObsHandle::Off`]
    /// when nothing observer-side is armed).
    pub fn recording(cfg: ObserveConfig) -> Self {
        if !cfg.any() {
            return ObsHandle::Off;
        }
        Self::armed(0, Observer::new(cfg))
    }

    /// Whether observation is armed.
    #[inline]
    pub fn is_on(&self) -> bool {
        matches!(self, ObsHandle::On { .. })
    }

    /// Advances the shared sim-time stamp (called once per dispatched
    /// event, next to `TraceHandle::set_now`).
    #[inline]
    pub fn set_now(&self, t: Nanos) {
        if let ObsHandle::On { now, .. } = self {
            now.set(t);
        }
    }

    /// Whether translations must route through an observed tier so
    /// per-access hit/miss provenance can be derived.
    #[inline]
    pub fn wants_translate(&self) -> bool {
        matches!(self, ObsHandle::On { prov_on: true, .. })
    }

    /// Current stamp + a borrow of the observer, for the record hooks.
    #[inline]
    fn parts(&self) -> Option<(Nanos, &RefCell<Observer>)> {
        match self {
            ObsHandle::Off => None,
            ObsHandle::On { now, obs, .. } => Some((now.get(), obs)),
        }
    }

    /// Records a map of `pages` pages at `base_pfn`.
    #[inline]
    pub fn on_map(&self, base_pfn: u64, pages: u64, flow: u32, epoch: u64) {
        if let Some((at, obs)) = self.parts() {
            let ev = PageEvent {
                at,
                kind: PageEventKind::Map,
                epoch,
                flow,
                detail: pages,
            };
            if let Some(p) = obs.borrow_mut().prov.as_mut() {
                p.record_range(base_pfn, pages, ev);
            }
        }
    }

    /// Records an unmap of `pages` pages at `base_pfn`.
    #[inline]
    pub fn on_unmap(&self, base_pfn: u64, pages: u64, flow: u32, epoch: u64) {
        if let Some((at, obs)) = self.parts() {
            let ev = PageEvent {
                at,
                kind: PageEventKind::Unmap,
                epoch,
                flow,
                detail: pages,
            };
            if let Some(p) = obs.borrow_mut().prov.as_mut() {
                p.record_range(base_pfn, pages, ev);
            }
        }
    }

    /// Records a submitted invalidation request (`ordinal` = whole-run
    /// submission ordinal).
    #[inline]
    pub fn on_inv_submit(&self, base_pfn: u64, pages: u64, ordinal: u64) {
        if let Some((at, obs)) = self.parts() {
            let ev = PageEvent {
                at,
                kind: PageEventKind::InvSubmit,
                epoch: ordinal,
                flow: DEVICE_FLOW,
                detail: ordinal,
            };
            if let Some(p) = obs.borrow_mut().prov.as_mut() {
                p.record_range(base_pfn, pages, ev);
            }
        }
    }

    /// Records an invalidation request *dropped by a seeded bug* — the
    /// event a failure artifact names.
    #[inline]
    pub fn on_inv_skipped(&self, base_pfn: u64, pages: u64, ordinal: u64) {
        if let Some((at, obs)) = self.parts() {
            let ev = PageEvent {
                at,
                kind: PageEventKind::InvSkipped,
                epoch: ordinal,
                flow: DEVICE_FLOW,
                detail: ordinal,
            };
            if let Some(p) = obs.borrow_mut().prov.as_mut() {
                p.record_range(base_pfn, pages, ev);
            }
        }
    }

    /// Records the retirement of a queued PTcache-wipe request.
    #[inline]
    pub fn on_inv_complete(&self, base_pfn: u64, pages: u64, epoch_len: u64) {
        if let Some((at, obs)) = self.parts() {
            let ev = PageEvent {
                at,
                kind: PageEventKind::InvComplete,
                epoch: 0,
                flow: DEVICE_FLOW,
                detail: epoch_len,
            };
            if let Some(p) = obs.borrow_mut().prov.as_mut() {
                p.record_range(base_pfn, pages, ev);
            }
        }
    }

    /// Records a page-table-page reclamation anchored at the span's base
    /// pfn.
    #[inline]
    pub fn on_reclaim(&self, base_pfn: u64, level: u8) {
        if let Some((at, obs)) = self.parts() {
            let ev = PageEvent {
                at,
                kind: PageEventKind::Reclaim,
                epoch: 0,
                flow: DEVICE_FLOW,
                detail: level as u64,
            };
            if let Some(p) = obs.borrow_mut().prov.as_mut() {
                p.record(base_pfn, ev);
            }
        }
    }

    /// Records a device translation (`reads` = page-walk memory reads;
    /// 0 ⇒ IOTLB hit).
    #[inline]
    pub fn on_translate(&self, pfn: u64, hit: bool, reads: u64) {
        if let Some((at, obs)) = self.parts() {
            let ev = PageEvent {
                at,
                kind: if hit {
                    PageEventKind::TranslateHit
                } else {
                    PageEventKind::TranslateMiss
                },
                epoch: 0,
                flow: DEVICE_FLOW,
                detail: reads,
            };
            if let Some(p) = obs.borrow_mut().prov.as_mut() {
                p.record(pfn, ev);
            }
        }
    }

    /// Opens a transaction span at descriptor preparation.
    #[inline]
    pub fn txn_start(&self, id: u64, flow: u32, pages: u32, map_ns: Nanos) {
        if let Some((now, obs)) = self.parts() {
            if let Some(t) = obs.borrow_mut().txns.as_mut() {
                t.start(id, now, flow, pages, map_ns);
            }
        }
    }

    /// Closes a transaction span at descriptor completion and feeds the
    /// registry's latency histograms (keyed by `domain` and the
    /// completing `flow`).
    #[inline]
    pub fn txn_complete(&self, id: u64, flow: u32, domain: u16, inv_wait_ns: Nanos) {
        if let Some((now, obs)) = self.parts() {
            let mut o = obs.borrow_mut();
            let mut latency = None;
            if let Some(t) = o.txns.as_mut() {
                if let Some(rec) = t.complete(id, now, inv_wait_ns) {
                    latency = Some(rec.end_ns.saturating_sub(rec.start_ns));
                }
            }
            if let Some(reg) = o.reg.as_mut() {
                if let Some(lat) = latency {
                    reg.record(RegMetric::DescLatency, domain, flow, lat);
                }
                reg.record(RegMetric::InvWait, domain, flow, inv_wait_ns);
            }
        }
    }

    /// Feeds the registry's occupancy gauges and pushes one streaming
    /// percentile sample (called at the gauge sampler's cadence).
    #[inline]
    pub fn gauge_sample(&self, at: Nanos, domain: u16, ring_occupancy: u64, wipe_backlog: u64) {
        if let Some((_, obs)) = self.parts() {
            if let Some(reg) = obs.borrow_mut().reg.as_mut() {
                reg.record(RegMetric::RingOccupancy, domain, 0, ring_occupancy);
                reg.record(RegMetric::WipeBacklog, domain, 0, wipe_backlog);
                reg.sample(at);
            }
        }
    }

    /// Deterministic `--explain-page` text for one pfn, from the live
    /// book (`None` when provenance is not armed).
    pub fn explain_page(&self, pfn: u64) -> Option<String> {
        match self {
            ObsHandle::Off => None,
            ObsHandle::On { obs, .. } => {
                let o = obs.borrow();
                o.prov.as_ref().map(|p| p.dump().explain(pfn))
            }
        }
    }

    /// End-of-run dumps (disabled layers report `Default`, so a bare run
    /// and a never-armed run compare equal).
    pub fn dump(&self) -> (ProvenanceDump, TxnDump, RegistryReport) {
        match self {
            ObsHandle::Off => Default::default(),
            ObsHandle::On { obs, .. } => {
                let o = obs.borrow();
                (
                    o.prov.as_ref().map(|p| p.dump()).unwrap_or_default(),
                    o.txns.as_ref().map(|t| t.dump()).unwrap_or_default(),
                    o.reg.as_ref().map(|m| m.report()).unwrap_or_default(),
                )
            }
        }
    }
}

/// A tag byte, then the clock and the observer when armed.
impl Snap for ObsHandle {
    fn snap(&self, w: &mut SnapWriter) {
        match self {
            ObsHandle::Off => w.u8(0),
            ObsHandle::On { now, obs, .. } => {
                w.u8(1);
                now.get().snap(w);
                obs.snap(w);
            }
        }
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(ObsHandle::Off),
            1 => Ok(Self::armed(Snap::unsnap(r)?, Snap::unsnap(r)?)),
            t => Err(SnapError::BadTag {
                what: "observe handle",
                tag: t as u64,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_handle_is_inert() {
        let h = ObsHandle::recording(ObserveConfig::off());
        assert!(!h.is_on());
        h.on_map(1, 4, 0, 0);
        h.txn_start(1, 0, 64, 10);
        let (prov, txns, reg) = h.dump();
        assert!(!prov.enabled && !txns.enabled && !reg.enabled);
        assert_eq!(h.explain_page(1), None);
    }

    #[test]
    fn txn_completion_feeds_the_registry() {
        let h = ObsHandle::recording(ObserveConfig::full());
        h.set_now(1_000);
        h.txn_start(7, 2, 64, 100);
        h.set_now(5_000);
        h.txn_complete(7, 3, 0, 400);
        let (_, txns, reg) = h.dump();
        assert_eq!(txns.records.len(), 1);
        assert_eq!(txns.records[0].end_ns, 5_000);
        let (count, p50, _, _) = reg.percentiles(RegMetric::DescLatency);
        assert_eq!(count, 1);
        assert!(p50 <= 4_000 && p50 > 3_000, "p50 = {p50}");
    }

    #[test]
    fn shared_clones_observe_one_book() {
        let a = ObsHandle::recording(ObserveConfig::full());
        let b = a.clone();
        a.set_now(10);
        b.on_map(5, 1, 0, 0);
        let (prov, _, _) = a.dump();
        assert_eq!(prov.pages.len(), 1);
        assert_eq!(prov.pages[0].events[0].at, 10);
    }

    #[test]
    fn snapshot_roundtrip_is_bit_identical() {
        let h = ObsHandle::recording(ObserveConfig::full());
        h.set_now(100);
        h.on_map(1, 2, 0, 0);
        h.txn_start(1, 0, 2, 5);
        h.set_now(200);
        h.txn_complete(1, 0, 0, 3);
        h.gauge_sample(200, 0, 10, 2);
        let mut w = SnapWriter::new();
        h.snap(&mut w);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        let back = ObsHandle::unsnap(&mut r).unwrap();
        r.done().unwrap();
        assert_eq!(back.dump(), h.dump());
        let mut w2 = SnapWriter::new();
        back.snap(&mut w2);
        assert_eq!(w2.finish(), bytes);
    }
}
