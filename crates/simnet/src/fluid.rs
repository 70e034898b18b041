//! Flow-level (fluid) network model: max-min fair bandwidth sharing.
//!
//! The packet engine reproduces *mechanistic* contention — drops, timeouts,
//! stragglers. This module is its idealized counterpart, in the style of
//! SimGrid's and dslab's flow models: every transfer is a fluid flow across
//! capacitated serializers, rates follow max-min fairness (progressive
//! filling), and the only events are flow starts and finishes. A million
//! simultaneous flows advance in a handful of rate recomputations instead
//! of billions of per-packet events, which is what makes 1k–4k-host
//! fabrics simulable at all.
//!
//! Two entry points:
//!
//! * [`FluidSim`] — the churn-capable event engine behind the scenario
//!   layer's `backend = "fluid"` tier: flows start and finish at arbitrary
//!   instants, rates are recomputed on every churn event (bottleneck-link
//!   saturation order), and an attached [`Recorder`] receives
//!   link-utilization samples integrated from the fluid rates;
//! * [`FluidNet`] — the original batch facade (start everything, run to
//!   completion), now a thin wrapper over [`FluidSim`] kept for estimate
//!   call sites and tests.
//!
//! Uses:
//!
//! * **cross-validation** — a fluid completion time is a lower bound on the
//!   packet engine's result for the same traffic (no loss, no protocol
//!   overhead, perfect fairness); tests assert the packet engine never
//!   beats it by more than protocol-overhead margins;
//! * **fast sweeps** — a 64-node All-to-All estimate costs microseconds,
//!   letting experiments bracket huge parameter spaces before committing
//!   packet-level time;
//! * **contention accounting** — the gap between fluid and the Proposition
//!   1 bound isolates *topological* contention (shared trunks, half-duplex
//!   buses) from *protocol* contention (TCP loss recovery).
//!
//! # The sharing algorithm
//!
//! Rates are max-min fair: no flow can gain bandwidth without taking it
//! from a flow that already has less. [`FluidSim`] computes the allocation
//! by progressive filling in bottleneck-saturation order — repeatedly find
//! the serializer slot with the smallest fair share `residual / unfrozen`,
//! freeze every unfrozen flow crossing it at that share, subtract the
//! frozen bandwidth, and continue until every flow is frozen. Per-slot
//! flow lists (a CSR index rebuilt per recomputation) and a lazy min-heap
//! of slot shares (see `FluidSim::recompute_rates`) make each
//! recomputation `O(slots + total hops · log slots)`, so the cost of a
//! churn event scales with the traffic actually in flight, not with
//! per-packet state or with bottleneck levels × active slots. Between
//! recomputations each driver step projects every flow's finish instant
//! once.

use crate::guard::{GuardStop, RunGuard};
use crate::ids::HostId;
use crate::time::SimTime;
use crate::topology::Topology;
use contention_obs::{NoopRecorder, Recorder};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Finished-flow tolerance: anything within a byte of done is done.
const DONE_TOLERANCE_BYTES: f64 = 1.0;

/// A completed fluid transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FluidCompletion {
    /// Caller-supplied tag.
    pub tag: u64,
    /// Completion instant.
    pub at: SimTime,
}

/// One fluid flow in flight.
#[derive(Debug, Clone, Copy)]
struct FlowState {
    /// Span into the slot arena: the serializer slots this flow occupies
    /// (sorted, deduplicated — shared slots model half-duplex buses
    /// exactly as the packet engine does).
    span_start: u32,
    span_len: u32,
    remaining_bytes: f64,
    /// Current max-min rate in bytes/second.
    rate: f64,
    tag: u64,
}

/// Churn-capable max-min fair flow-level simulator over a built
/// [`Topology`].
///
/// Unlike [`FluidNet`], flows may start and finish at arbitrary simulated
/// instants: the caller interleaves [`FluidSim::start_flow`] with
/// [`FluidSim::advance_to`] / [`FluidSim::next_finish_ns`], and rates are
/// lazily recomputed whenever the flow set changed. Simulated time is a
/// monotone `f64` nanosecond clock; completions are reported with rounded
/// [`SimTime`] stamps.
///
/// The `R` parameter is the telemetry recorder: when `R::ENABLED`, every
/// advance interval emits one `on_tx_busy` sample per busy serializer slot
/// with the bytes that flowed through it at the current rates — per-link
/// utilization falls out of the fluid rates for free. The default
/// [`NoopRecorder`] compiles all of it away.
pub struct FluidSim<'a, R: Recorder = NoopRecorder> {
    topo: &'a Topology,
    /// Capacity per serializer slot in bytes/second.
    capacity: Vec<f64>,
    /// Representative transmitter id per slot (first tx mapped onto it),
    /// used to label recorder samples.
    slot_tx: Vec<u32>,
    flows: Vec<FlowState>,
    /// Per slot, the number of in-flight flows crossing it.
    slot_flows: Vec<u32>,
    /// Backing store for flow slot lists (grows monotonically; spans of
    /// finished flows are not reclaimed, which is fine for the bounded
    /// programs the scenario layer runs).
    slot_arena: Vec<u32>,
    now_ns: f64,
    /// Flow set changed since the last rate computation.
    dirty: bool,
    /// Relative finish-coalescing window (see [`FluidSim::set_finish_window`]).
    finish_window_rel: f64,
    /// Lifetime count of full rate recomputations (performance counter).
    recomputes: u64,
    /// Supervision limits polled once per advance iteration; the event
    /// budget counts rate recomputations here (the fluid tier's unit of
    /// solver effort).
    guard: RunGuard,
    guard_active: bool,
    guard_recompute_origin: u64,
    guard_time_origin_ns: f64,
    stopped: Option<GuardStop>,
    recorder: R,
    // Scratch buffers reused across recomputations.
    scratch_residual: Vec<f64>,
    scratch_count: Vec<u32>,
    scratch_offsets: Vec<u32>,
    scratch_csr: Vec<u32>,
    scratch_frozen: Vec<bool>,
    /// Per-slot aggregate rate (recorder samples only).
    scratch_slot_rate: Vec<f64>,
    /// Bottleneck candidates as `(share bits, slot)`, smallest on top.
    scratch_heap: BinaryHeap<Reverse<(u64, u32)>>,
    /// Per slot, the key of its latest heap entry.
    scratch_key: Vec<f64>,
    /// Flows frozen in the current bottleneck level.
    scratch_level: Vec<u32>,
    /// Slots whose share changed in the current bottleneck level.
    scratch_touched: Vec<u32>,
    scratch_is_touched: Vec<bool>,
    /// Per-flow projected finish instants at the current rates and clock,
    /// valid while `finish_valid` holds.
    scratch_finish: Vec<f64>,
    /// Earliest entry of `scratch_finish` (infinite when no flow is in
    /// flight).
    next_finish: f64,
    finish_valid: bool,
}

impl<'a> FluidSim<'a, NoopRecorder> {
    /// Creates an empty fluid simulation over `topo` with no telemetry.
    pub fn new(topo: &'a Topology) -> Self {
        Self::with_recorder(topo, NoopRecorder)
    }
}

impl<'a, R: Recorder> FluidSim<'a, R> {
    /// Creates an empty fluid simulation over `topo` with `recorder`
    /// attached.
    pub fn with_recorder(topo: &'a Topology, recorder: R) -> Self {
        let mut capacity = vec![0.0; topo.n_serializers];
        let mut slot_tx = vec![u32::MAX; topo.n_serializers];
        for (i, params) in topo.tx_params.iter().enumerate() {
            let slot = params.serializer as usize;
            // All members of a shared slot have equal rates by construction.
            capacity[slot] = 1e9 / params.ns_per_byte;
            if slot_tx[slot] == u32::MAX {
                slot_tx[slot] = i as u32;
            }
        }
        Self {
            topo,
            capacity,
            slot_tx,
            flows: Vec::new(),
            slot_flows: vec![0; topo.n_serializers],
            slot_arena: Vec::new(),
            now_ns: 0.0,
            dirty: false,
            finish_window_rel: 0.0,
            recomputes: 0,
            guard: RunGuard::default(),
            guard_active: false,
            guard_recompute_origin: 0,
            guard_time_origin_ns: 0.0,
            stopped: None,
            recorder,
            scratch_residual: Vec::new(),
            scratch_count: Vec::new(),
            scratch_offsets: Vec::new(),
            scratch_csr: Vec::new(),
            scratch_frozen: Vec::new(),
            scratch_slot_rate: Vec::new(),
            scratch_heap: BinaryHeap::new(),
            scratch_key: Vec::new(),
            scratch_level: Vec::new(),
            scratch_touched: Vec::new(),
            scratch_is_touched: Vec::new(),
            scratch_finish: Vec::new(),
            next_finish: f64::INFINITY,
            finish_valid: false,
        }
    }

    /// Sets the relative finish-coalescing window (the fluid analogue of
    /// SimGrid's `maxmin` precision knob). Default `0.0` — exact mode.
    ///
    /// With a window `rel > 0`, an advance that reaches the earliest flow
    /// finish at instant `t` keeps draining at the *current* rates through
    /// `t·(1+rel)` and completes every flow finishing inside that span in
    /// one batch, paying **one** rate recomputation for the whole wave
    /// cluster instead of one per distinct finish instant. Completed flows
    /// are stamped at their exact projected finishes (at pre-window
    /// rates); only the *redistribution* of freed bandwidth to survivors
    /// is deferred, so every reported time errs late by at most a factor
    /// `rel` — a 1e-3 window bounds the error at 0.1 %, far below the
    /// packet-vs-fluid model error bands, while collapsing the `O(hosts)`
    /// near-simultaneous finish waves of a large symmetric all-to-all
    /// (ECMP collision classes) into `O(log(spread)/rel)` recomputations.
    ///
    /// # Panics
    /// Panics if `rel` is negative or not finite.
    pub fn set_finish_window(&mut self, rel: f64) {
        assert!(rel.is_finite() && rel >= 0.0, "bad finish window {rel}");
        self.finish_window_rel = rel;
    }

    /// Current simulated time in nanoseconds.
    pub fn now_ns(&self) -> f64 {
        self.now_ns
    }

    /// Number of flows still in flight.
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// Number of full max-min rate recomputations performed so far — the
    /// dominant cost of a fluid run (each is
    /// `O(slots + total hops · log slots)`). Exposed so benches and
    /// telemetry can report solver effort alongside wall time.
    pub fn recomputes(&self) -> u64 {
        self.recomputes
    }

    /// The attached recorder.
    pub fn recorder(&self) -> &R {
        &self.recorder
    }

    /// Installs supervision limits, replacing any previous guard and
    /// clearing a tripped stop. The budget (counting rate recomputations
    /// here) and the simulated-time horizon are measured from this
    /// instant; the wall-clock deadline is absolute.
    pub fn set_guard(&mut self, guard: RunGuard) {
        self.guard_active = !guard.is_unlimited();
        self.guard_recompute_origin = self.recomputes;
        self.guard_time_origin_ns = self.now_ns;
        self.stopped = None;
        self.guard = guard;
    }

    /// Checks the installed guard now and returns the stop reason if any
    /// limit has tripped (now or during an earlier advance). Drivers
    /// poll this between advances so pure-event phases with no fluid in
    /// flight still honor deadlines and cancellation.
    pub fn guard_stop(&mut self) -> Option<GuardStop> {
        if !self.guard_active {
            return None;
        }
        if self.stopped.is_none() {
            let used = self.recomputes - self.guard_recompute_origin;
            let elapsed = (self.now_ns - self.guard_time_origin_ns).max(0.0) as u64;
            self.stopped = self.guard.check(used, elapsed);
        }
        self.stopped
    }

    /// Takes the stop reason, letting the simulation be advanced again
    /// (the guard re-trips at the next check if its limit still holds).
    pub fn take_stop(&mut self) -> Option<GuardStop> {
        self.stopped.take()
    }

    /// Consumes the simulation, returning the recorder for harvest.
    pub fn into_recorder(self) -> R {
        self.recorder
    }

    /// Starts a flow of `bytes` from `src` to `dst` at the current time.
    ///
    /// # Panics
    /// Panics if `src == dst` or `bytes == 0` (zero-byte transfers carry
    /// no fluid and must be completed by the caller directly).
    pub fn start_flow(&mut self, src: HostId, dst: HostId, bytes: u64, tag: u64) {
        assert!(bytes > 0, "empty fluid flow");
        let span_start = self.slot_arena.len() as u32;
        let (topo, slots) = (self.topo, &mut self.slot_arena);
        topo.for_each_hop(src, dst, |tx| {
            slots.push(topo.tx_params[tx.index()].serializer)
        });
        // A flow crossing the same slot twice (a half-duplex bus at both
        // endpoints, say) must not double-count its demand.
        let span = &mut self.slot_arena[span_start as usize..];
        span.sort_unstable();
        let mut unique = 1;
        for i in 1..span.len() {
            if span[i] != span[i - 1] {
                span[unique] = span[i];
                unique += 1;
            }
        }
        self.slot_arena.truncate(span_start as usize + unique);
        for &s in &self.slot_arena[span_start as usize..] {
            self.slot_flows[s as usize] += 1;
        }
        self.flows.push(FlowState {
            span_start,
            span_len: unique as u32,
            remaining_bytes: bytes as f64,
            rate: 0.0,
            tag,
        });
        self.dirty = true;
    }

    fn flow_slots(flow: &FlowState) -> std::ops::Range<usize> {
        flow.span_start as usize..(flow.span_start + flow.span_len) as usize
    }

    /// Progressive filling in bottleneck-saturation order.
    ///
    /// The bottleneck of each level is the active slot with the smallest
    /// share `residual / count`, ties to the lowest slot index. A lazy
    /// min-heap keyed by `(share, slot)` yields it without scanning every
    /// active slot per level. Freezing a level's flows never lowers a
    /// surviving slot's share in exact arithmetic, but in floats it can
    /// dip by an ulp; so once per level each touched slot is pushed again
    /// only if its share fell below its latest key, and a popped entry
    /// whose slot's share has since risen is pushed back at the new share.
    /// Every active slot thus always holds an entry at or below its share,
    /// and an entry that pops at exactly its slot's share is the bottleneck.
    /// Per-slot flow counts are kept current as flows start and finish, and
    /// rates are written straight into the flows as they freeze.
    /// Cost: `O(slots + total hops · log slots)` per recomputation.
    fn recompute_rates(&mut self) {
        self.recomputes += 1;
        let Self {
            capacity,
            flows,
            slot_flows,
            slot_arena,
            scratch_residual: residual,
            scratch_count: count,
            scratch_offsets: offsets,
            scratch_csr: csr,
            scratch_frozen: frozen,
            scratch_heap,
            scratch_key: key,
            scratch_level: level,
            scratch_touched: touched,
            scratch_is_touched: is_touched,
            ..
        } = self;
        let n_slots = capacity.len();
        residual.clone_from(capacity);
        count.clone_from(slot_flows);
        // CSR: per-slot list of flow indices in ascending flow order. The
        // offsets start as each slot's end and are walked back while the
        // flows are placed last to first, ending at each slot's start.
        offsets.clear();
        offsets.resize(n_slots + 1, 0);
        let mut end = 0;
        for s in 0..n_slots {
            end += count[s];
            offsets[s] = end;
        }
        offsets[n_slots] = end;
        csr.clear();
        csr.resize(end as usize, 0);
        for (fi, flow) in flows.iter().enumerate().rev() {
            for &s in &slot_arena[Self::flow_slots(flow)] {
                offsets[s as usize] -= 1;
                csr[offsets[s as usize] as usize] = fi as u32;
            }
        }

        key.clear();
        key.resize(n_slots, f64::INFINITY);
        let mut heap = std::mem::take(scratch_heap).into_vec();
        heap.clear();
        for s in 0..n_slots {
            if count[s] > 0 {
                key[s] = residual[s] / count[s] as f64;
                heap.push(Reverse((key[s].to_bits(), s as u32)));
            }
        }
        let mut heap = BinaryHeap::from(heap);
        touched.clear();
        is_touched.clear();
        is_touched.resize(n_slots, false);
        // Reserved up front so the freezing loop never reallocates.
        level.clear();
        level.reserve(flows.len());
        frozen.clear();
        frozen.resize(flows.len(), false);
        let mut remaining_flows = flows.len();
        while remaining_flows > 0 {
            // Shares are non-negative, so their bit patterns order like
            // the values themselves.
            let Reverse((key_bits, slot)) = heap.pop().expect("active flow without a bottleneck");
            let best_slot = slot as usize;
            if count[best_slot] == 0 {
                continue; // saturated at an earlier level
            }
            let best_share = residual[best_slot] / count[best_slot] as f64;
            if best_share.to_bits() != key_bits {
                key[best_slot] = best_share;
                heap.push(Reverse((best_share.to_bits(), slot)));
                continue;
            }
            // Freeze every unfrozen flow crossing the bottleneck at the
            // bottleneck's fair share.
            for &fi in &csr[offsets[best_slot] as usize..offsets[best_slot + 1] as usize] {
                let fi = fi as usize;
                if frozen[fi] {
                    continue;
                }
                frozen[fi] = true;
                remaining_flows -= 1;
                let flow = &mut flows[fi];
                flow.rate = best_share;
                for &s in &slot_arena[Self::flow_slots(flow)] {
                    let s = s as usize;
                    residual[s] -= best_share;
                    // Numerical guard: residuals may dip epsilon-negative.
                    if residual[s] < 0.0 {
                        residual[s] = 0.0;
                    }
                    count[s] -= 1;
                }
                level.push(fi as u32);
            }
            // Collect the slots the level touched in a second pass over its
            // flows, now in cache: a data-dependent branch in the loop above
            // would stall on its cache misses.
            for fi in level.drain(..) {
                for &s in &slot_arena[Self::flow_slots(&flows[fi as usize])] {
                    if !is_touched[s as usize] {
                        is_touched[s as usize] = true;
                        touched.push(s);
                    }
                }
            }
            for s in touched.drain(..) {
                let s = s as usize;
                is_touched[s] = false;
                if count[s] > 0 {
                    let share = residual[s] / count[s] as f64;
                    if share < key[s] {
                        key[s] = share;
                        heap.push(Reverse((share.to_bits(), s as u32)));
                    }
                }
            }
        }
        *scratch_heap = heap;
    }

    fn ensure_rates(&mut self) {
        if self.dirty {
            if !self.flows.is_empty() {
                self.recompute_rates();
            }
            self.dirty = false;
            self.finish_valid = false;
        }
    }

    /// Projects every flow's finish instant at the current rates, once
    /// per clock and rate state, and returns the earliest (infinite when
    /// no flow is in flight).
    fn project_finishes(&mut self) -> f64 {
        self.ensure_rates();
        if !self.finish_valid {
            let now = self.now_ns;
            self.scratch_finish.clear();
            self.scratch_finish.extend(
                self.flows
                    .iter()
                    .map(|f| now + (f.remaining_bytes / f.rate) * 1e9),
            );
            self.next_finish = self
                .scratch_finish
                .iter()
                .fold(f64::INFINITY, |a, &t| a.min(t));
            self.finish_valid = true;
        }
        self.next_finish
    }

    /// The simulated instant (nanoseconds) the earliest active flow
    /// finishes at current rates, or `None` when no flow is in flight.
    pub fn next_finish_ns(&mut self) -> Option<f64> {
        let next = self.project_finishes();
        (!self.flows.is_empty()).then_some(next)
    }

    /// Drains `dt_secs` of fluid at current rates and emits one
    /// utilization sample per busy slot when the recorder is enabled.
    fn drain(&mut self, dt_secs: f64, from_ns: f64, to_ns: f64) {
        if dt_secs <= 0.0 {
            return;
        }
        self.finish_valid = false;
        if R::ENABLED {
            let n_slots = self.capacity.len();
            self.scratch_slot_rate.clear();
            self.scratch_slot_rate.resize(n_slots, 0.0);
            for flow in &self.flows {
                for &s in &self.slot_arena[Self::flow_slots(flow)] {
                    self.scratch_slot_rate[s as usize] += flow.rate;
                }
            }
            for (s, &rate) in self.scratch_slot_rate.iter().enumerate() {
                if rate > 0.0 {
                    self.recorder.on_tx_busy(
                        self.slot_tx[s],
                        from_ns.round() as u64,
                        to_ns.round() as u64,
                        (rate * dt_secs).round() as u64,
                    );
                }
            }
        }
        for flow in &mut self.flows {
            flow.remaining_bytes -= flow.rate * dt_secs;
        }
    }

    /// Advances simulated time to exactly `target_ns`, appending every
    /// flow completion at or before it (stamped at its own finish time) to
    /// `completions`. Finishes within `DONE_TOLERANCE_BYTES` of the same
    /// instant coalesce onto that instant, so a symmetric all-to-all's
    /// wave of identical flows costs one churn event, not thousands.
    ///
    /// A tripped [`RunGuard`] limit (see [`FluidSim::set_guard`]) makes
    /// the advance return early, short of `target_ns`; check
    /// [`FluidSim::guard_stop`] to distinguish that from a completed
    /// advance.
    ///
    /// # Panics
    /// Panics if `target_ns` is behind the current time.
    pub fn advance_to(&mut self, target_ns: f64, completions: &mut Vec<FluidCompletion>) {
        assert!(
            target_ns >= self.now_ns,
            "fluid time must advance monotonically"
        );
        loop {
            if self.guard_active && self.guard_stop().is_some() {
                return;
            }
            let next_ns = self.project_finishes();
            if self.flows.is_empty() || next_ns > target_ns {
                let dt = (target_ns - self.now_ns) / 1e9;
                let from = self.now_ns;
                self.drain(dt, from, target_ns);
                self.now_ns = target_ns;
                return;
            }
            // Windowed mode drains through the whole coalescing span at the
            // current rates; every flow finishing inside it goes ≤ 0
            // remaining and completes below, stamped at its exact projected
            // finish. Exact mode (window 0) stops at the earliest finish.
            let windowed = self.finish_window_rel > 0.0;
            let stop_ns = if windowed {
                (next_ns * (1.0 + self.finish_window_rel)).min(target_ns)
            } else {
                next_ns
            };
            let dt = (stop_ns - self.now_ns) / 1e9;
            let from = self.now_ns;
            self.drain(dt, from, stop_ns);
            self.now_ns = stop_ns;
            let at = SimTime(self.now_ns.round() as u64);
            let mut i = 0;
            while i < self.flows.len() {
                if self.flows[i].remaining_bytes <= DONE_TOLERANCE_BYTES {
                    completions.push(FluidCompletion {
                        tag: self.flows[i].tag,
                        at: if windowed {
                            SimTime(self.scratch_finish[i].min(stop_ns).round() as u64)
                        } else {
                            at
                        },
                    });
                    let done = self.flows.swap_remove(i);
                    for &s in &self.slot_arena[Self::flow_slots(&done)] {
                        self.slot_flows[s as usize] -= 1;
                    }
                    self.scratch_finish.swap_remove(i);
                    self.dirty = true;
                } else {
                    i += 1;
                }
            }
        }
    }

    /// Runs every in-flight flow to completion, returning completions in
    /// time order (ties broken by start order).
    pub fn run_to_completion(&mut self) -> Vec<FluidCompletion> {
        let mut completions = Vec::with_capacity(self.flows.len());
        while let Some(t) = self.next_finish_ns() {
            // Give a windowed advance room to coalesce the wave cluster;
            // exact mode stops at `t` either way.
            self.advance_to(t * (1.0 + self.finish_window_rel), &mut completions);
            if self.stopped.is_some() {
                break;
            }
        }
        completions.sort_by_key(|c| c.at);
        completions
    }
}

/// Batch max-min fair flow-level facade over a built [`Topology`]: start
/// all flows at time zero, run to completion. A thin wrapper over
/// [`FluidSim`] kept for estimate call sites; use [`FluidSim`] directly
/// when flows churn.
pub struct FluidNet<'a> {
    sim: FluidSim<'a, NoopRecorder>,
}

impl<'a> FluidNet<'a> {
    /// Creates an empty fluid network over `topo`.
    pub fn new(topo: &'a Topology) -> Self {
        Self {
            sim: FluidSim::new(topo),
        }
    }

    /// Starts a flow of `bytes` from `src` to `dst` at the current time.
    ///
    /// # Panics
    /// Panics if `src == dst` or `bytes == 0`.
    pub fn start_flow(&mut self, src: HostId, dst: HostId, bytes: u64, tag: u64) {
        self.sim.start_flow(src, dst, bytes, tag);
    }

    /// Number of flows still active.
    pub fn active_flows(&self) -> usize {
        self.sim.active_flows()
    }

    /// Runs all flows to completion, returning completions in time order.
    pub fn run_to_completion(&mut self) -> Vec<FluidCompletion> {
        self.sim.run_to_completion()
    }

    /// Convenience: the fluid completion time (seconds) of a uniform
    /// All-to-All of `m` bytes per ordered pair among `hosts`.
    pub fn alltoall_estimate(topo: &Topology, hosts: &[HostId], m: u64) -> f64 {
        let mut net = FluidNet::new(topo);
        let mut tag = 0;
        for &a in hosts {
            for &b in hosts {
                if a != b {
                    net.start_flow(a, b, m, tag);
                    tag += 1;
                }
            }
        }
        net.run_to_completion()
            .last()
            .map(|c| c.at.as_secs_f64())
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LinkConfig, SimConfig, SwitchConfig};
    use crate::topology::TopologyBuilder;

    fn star(n: usize) -> (Topology, Vec<HostId>) {
        let mut b = TopologyBuilder::new();
        let hosts = b.add_hosts(n);
        let sw = b.add_switch(SwitchConfig::lossless_fabric());
        for &h in &hosts {
            b.link_host(h, sw, LinkConfig::gigabit_ethernet());
        }
        (b.build(&SimConfig::default()).unwrap(), hosts)
    }

    #[test]
    fn single_flow_runs_at_line_rate() {
        let (topo, hosts) = star(2);
        let mut net = FluidNet::new(&topo);
        net.start_flow(hosts[0], hosts[1], 125_000_000, 1);
        let done = net.run_to_completion();
        assert_eq!(done.len(), 1);
        // 125 MB at 125 MB/s = 1 s.
        assert!((done[0].at.as_secs_f64() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn two_flows_into_one_sink_halve() {
        let (topo, hosts) = star(3);
        let mut net = FluidNet::new(&topo);
        net.start_flow(hosts[0], hosts[2], 125_000_000, 1);
        net.start_flow(hosts[1], hosts[2], 125_000_000, 2);
        let done = net.run_to_completion();
        // Shared sink downlink: both at 62.5 MB/s → 2 s each.
        for c in &done {
            assert!((c.at.as_secs_f64() - 2.0).abs() < 1e-6, "{c:?}");
        }
    }

    #[test]
    fn short_flow_releases_bandwidth_to_long_flow() {
        let (topo, hosts) = star(3);
        let mut net = FluidNet::new(&topo);
        net.start_flow(hosts[0], hosts[2], 125_000_000, 1); // long
        net.start_flow(hosts[1], hosts[2], 62_500_000, 2); // half the size
        let done = net.run_to_completion();
        let short = done.iter().find(|c| c.tag == 2).unwrap();
        let long = done.iter().find(|c| c.tag == 1).unwrap();
        // Short: 62.5 MB at 62.5 MB/s = 1 s. Long: 62.5 MB in that first
        // second, then the remaining 62.5 MB at full 125 MB/s = 0.5 s.
        assert!((short.at.as_secs_f64() - 1.0).abs() < 1e-6);
        assert!((long.at.as_secs_f64() - 1.5).abs() < 1e-6);
    }

    #[test]
    fn max_min_protects_disjoint_flows() {
        let (topo, hosts) = star(4);
        let mut net = FluidNet::new(&topo);
        net.start_flow(hosts[0], hosts[1], 125_000_000, 1);
        net.start_flow(hosts[2], hosts[3], 125_000_000, 2);
        let done = net.run_to_completion();
        for c in &done {
            assert!(
                (c.at.as_secs_f64() - 1.0).abs() < 1e-6,
                "disjoint flows at line rate"
            );
        }
    }

    #[test]
    fn alltoall_estimate_matches_receiver_bottleneck() {
        let (topo, hosts) = star(8);
        let m = 1_000_000u64;
        let t = FluidNet::alltoall_estimate(&topo, &hosts, m);
        // Every host receives 7 MB through a 125 MB/s downlink: 56 ms.
        let ideal = 7.0 * m as f64 / 125e6;
        assert!((t - ideal).abs() < ideal * 0.01, "{t} vs {ideal}");
    }

    #[test]
    fn oversubscribed_trunk_shows_in_the_estimate() {
        // Two 4-host edge switches joined by ONE gigabit trunk.
        let mut b = TopologyBuilder::new();
        let hosts = b.add_hosts(8);
        let e0 = b.add_switch(SwitchConfig::lossless_fabric());
        let e1 = b.add_switch(SwitchConfig::lossless_fabric());
        for (i, &h) in hosts.iter().enumerate() {
            b.link_host(
                h,
                if i < 4 { e0 } else { e1 },
                LinkConfig::gigabit_ethernet(),
            );
        }
        b.link_switches(e0, e1, LinkConfig::gigabit_ethernet());
        let topo = b.build(&SimConfig::default()).unwrap();
        let m = 1_000_000u64;
        let t = FluidNet::alltoall_estimate(&topo, &hosts, m);
        // Cross traffic: 4×4 MB each way over one 125 MB/s trunk = 128 ms
        // per direction — far above the 56 ms receiver bound.
        let trunk_bound = 16.0 * m as f64 / 125e6;
        assert!(t >= trunk_bound * 0.99, "{t} vs {trunk_bound}");
    }

    #[test]
    fn half_duplex_bus_doubles_alltoall_cost() {
        let build = |bus: bool| {
            let mut b = TopologyBuilder::new();
            let hosts = b.add_hosts(4);
            let sw = b.add_switch(SwitchConfig::lossless_fabric());
            for &h in &hosts {
                b.link_host(h, sw, LinkConfig::myrinet_2000());
            }
            if bus {
                b.host_io_bus(250e6, 500);
            }
            (b.build(&SimConfig::default()).unwrap(), hosts)
        };
        let (t0, h0) = build(false);
        let (t1, h1) = build(true);
        let m = 1_000_000;
        let duplex = FluidNet::alltoall_estimate(&t0, &h0, m);
        let half = FluidNet::alltoall_estimate(&t1, &h1, m);
        let ratio = half / duplex;
        assert!((ratio - 2.0).abs() < 0.05, "bus ratio = {ratio}");
    }

    #[test]
    #[should_panic(expected = "empty fluid flow")]
    fn zero_byte_flow_rejected() {
        let (topo, hosts) = star(2);
        let mut net = FluidNet::new(&topo);
        net.start_flow(hosts[0], hosts[1], 0, 1);
    }

    #[test]
    fn churn_late_flow_shares_from_its_start_instant() {
        let (topo, hosts) = star(3);
        let mut sim = FluidSim::new(&topo);
        let mut done = Vec::new();
        // 125 MB alone for 0.4 s (50 MB through), then a second flow into
        // the same sink: remaining 75 MB at 62.5 MB/s = 1.2 s more.
        sim.start_flow(hosts[0], hosts[2], 125_000_000, 1);
        sim.advance_to(0.4e9, &mut done);
        assert!(done.is_empty());
        sim.start_flow(hosts[1], hosts[2], 125_000_000, 2);
        while let Some(t) = sim.next_finish_ns() {
            sim.advance_to(t, &mut done);
        }
        let first = done.iter().find(|c| c.tag == 1).unwrap();
        assert!(
            (first.at.as_secs_f64() - 1.6).abs() < 1e-6,
            "{:?}",
            first.at
        );
        // Late flow: 75 MB at 62.5 MB/s while sharing (through t=1.6),
        // then its last 50 MB at line rate → finishes at 2.0 s.
        let second = done.iter().find(|c| c.tag == 2).unwrap();
        assert!(
            (second.at.as_secs_f64() - 2.0).abs() < 1e-6,
            "{:?}",
            second.at
        );
    }

    #[test]
    fn advance_emits_utilization_samples_when_recording() {
        #[derive(Default)]
        struct BusyLog {
            samples: Vec<(u32, u64, u64, u64)>,
        }
        impl Recorder for BusyLog {
            fn on_tx_busy(&mut self, tx: u32, from_ns: u64, until_ns: u64, wire_bytes: u64) {
                self.samples.push((tx, from_ns, until_ns, wire_bytes));
            }
        }
        let (topo, hosts) = star(2);
        let mut sim = FluidSim::with_recorder(&topo, BusyLog::default());
        sim.start_flow(hosts[0], hosts[1], 125_000_000, 7);
        let mut done = Vec::new();
        let t = sim.next_finish_ns().unwrap();
        sim.advance_to(t, &mut done);
        assert_eq!(done.len(), 1);
        let log = sim.into_recorder();
        // The route crosses two serializers (host uplink, sink downlink);
        // each gets one full-interval sample carrying every byte.
        assert_eq!(log.samples.len(), 2);
        for &(_, from, until, bytes) in &log.samples {
            assert_eq!(from, 0);
            assert!((until as f64 - 1e9).abs() < 2.0);
            assert!((bytes as f64 - 125e6).abs() < 2.0);
        }
    }

    #[test]
    fn coalesced_finishes_report_one_instant() {
        let (topo, hosts) = star(5);
        let mut sim = FluidSim::new(&topo);
        // Four identical flows into one sink: all finish together.
        for (i, &h) in hosts[..4].iter().enumerate() {
            sim.start_flow(h, hosts[4], 1_000_000, i as u64);
        }
        let done = sim.run_to_completion();
        assert_eq!(done.len(), 4);
        assert!(done.iter().all(|c| c.at == done[0].at));
    }
}
