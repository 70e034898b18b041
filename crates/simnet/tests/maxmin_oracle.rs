//! Differential test of the fluid solver against a full-scan reference.
//!
//! `ScanSim` is the max-min solver as it was before the bottleneck heap:
//! each bottleneck level rescans every active serializer slot for the
//! smallest share `residual / count` (ties to the lowest slot index), and
//! every advance recomputes the flows' projected finish instants from
//! scratch. [`FluidSim`] must match it bit for bit on multi-tier fabrics
//! (fat-tree, dragonfly, oversubscribed tree, 2-D torus, and a star behind
//! a shared host I/O bus) and on flow sets built to tie: identical
//! projected-finish instants at every step, identical completion stamps
//! and identical recomputation counts, in exact mode and under a 1e-2
//! finish-coalescing window.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::fluid::{FluidCompletion, FluidSim};
use simnet::generate::{
    dragonfly, fat_tree, single_switch, torus_2d, two_level_tree, DragonflyParams, FatTreeParams,
    Generated, TreeParams,
};
use simnet::prelude::*;

/// Finished-flow tolerance of the solver under test.
const DONE_TOLERANCE_BYTES: f64 = 1.0;

#[derive(Clone, Copy)]
struct ScanFlow {
    span_start: usize,
    span_len: usize,
    remaining_bytes: f64,
    rate: f64,
    tag: u64,
}

/// The reference solver: progressive filling with a full active-slot
/// scan per bottleneck level.
struct ScanSim<'a> {
    topo: &'a Topology,
    capacity: Vec<f64>,
    flows: Vec<ScanFlow>,
    slot_arena: Vec<u32>,
    now_ns: f64,
    dirty: bool,
    finish_window_rel: f64,
    recomputes: u64,
}

impl<'a> ScanSim<'a> {
    fn new(topo: &'a Topology, finish_window_rel: f64) -> Self {
        let mut capacity = vec![0.0; topo.n_serializers];
        for params in &topo.tx_params {
            capacity[params.serializer as usize] = 1e9 / params.ns_per_byte;
        }
        Self {
            topo,
            capacity,
            flows: Vec::new(),
            slot_arena: Vec::new(),
            now_ns: 0.0,
            dirty: false,
            finish_window_rel,
            recomputes: 0,
        }
    }

    fn start_flow(&mut self, src: HostId, dst: HostId, bytes: u64, tag: u64) {
        let span_start = self.slot_arena.len();
        let (topo, slots) = (self.topo, &mut self.slot_arena);
        topo.for_each_hop(src, dst, |tx| {
            slots.push(topo.tx_params[tx.index()].serializer)
        });
        let span = &mut self.slot_arena[span_start..];
        span.sort_unstable();
        let mut unique = 1;
        for i in 1..span.len() {
            if span[i] != span[i - 1] {
                span[unique] = span[i];
                unique += 1;
            }
        }
        self.slot_arena.truncate(span_start + unique);
        self.flows.push(ScanFlow {
            span_start,
            span_len: unique,
            remaining_bytes: bytes as f64,
            rate: 0.0,
            tag,
        });
        self.dirty = true;
    }

    fn slots(&self, flow: &ScanFlow) -> &[u32] {
        &self.slot_arena[flow.span_start..flow.span_start + flow.span_len]
    }

    fn recompute_rates(&mut self) {
        self.recomputes += 1;
        let n_slots = self.capacity.len();
        let mut residual = self.capacity.clone();
        let mut count = vec![0u32; n_slots];
        for flow in &self.flows {
            for &s in self.slots(flow) {
                count[s as usize] += 1;
            }
        }
        let mut offsets = vec![0u32; n_slots + 1];
        for s in 0..n_slots {
            offsets[s + 1] = offsets[s] + count[s];
        }
        let mut csr = vec![0u32; offsets[n_slots] as usize];
        let mut cursor: Vec<u32> = offsets[..n_slots].to_vec();
        for (fi, flow) in self.flows.iter().enumerate() {
            for &s in self.slots(flow) {
                csr[cursor[s as usize] as usize] = fi as u32;
                cursor[s as usize] += 1;
            }
        }
        let active: Vec<usize> = (0..n_slots).filter(|&s| count[s] > 0).collect();
        let mut frozen = vec![false; self.flows.len()];
        let mut rate = vec![0.0; self.flows.len()];
        let mut remaining_flows = self.flows.len();
        while remaining_flows > 0 {
            let mut best_share = f64::INFINITY;
            let mut best_slot = usize::MAX;
            for &s in &active {
                if count[s] > 0 {
                    let share = residual[s] / count[s] as f64;
                    if share < best_share {
                        best_share = share;
                        best_slot = s;
                    }
                }
            }
            assert!(best_slot != usize::MAX, "active flow without a bottleneck");
            for &fi in &csr[offsets[best_slot] as usize..offsets[best_slot + 1] as usize] {
                let fi = fi as usize;
                if frozen[fi] {
                    continue;
                }
                frozen[fi] = true;
                rate[fi] = best_share;
                remaining_flows -= 1;
                for &s in self.slots(&self.flows[fi]) {
                    let s = s as usize;
                    residual[s] -= best_share;
                    if residual[s] < 0.0 {
                        residual[s] = 0.0;
                    }
                    count[s] -= 1;
                }
            }
        }
        for (flow, rate) in self.flows.iter_mut().zip(rate) {
            flow.rate = rate;
        }
    }

    fn ensure_rates(&mut self) {
        if self.dirty {
            if !self.flows.is_empty() {
                self.recompute_rates();
            }
            self.dirty = false;
        }
    }

    fn next_finish_ns(&mut self) -> Option<f64> {
        self.ensure_rates();
        self.flows
            .iter()
            .map(|f| self.now_ns + (f.remaining_bytes / f.rate) * 1e9)
            .fold(None, |acc: Option<f64>, t| {
                Some(acc.map_or(t, |a| a.min(t)))
            })
    }

    fn drain(&mut self, dt_secs: f64) {
        if dt_secs > 0.0 {
            for flow in &mut self.flows {
                flow.remaining_bytes -= flow.rate * dt_secs;
            }
        }
    }

    fn advance_to(&mut self, target_ns: f64, completions: &mut Vec<FluidCompletion>) {
        loop {
            self.ensure_rates();
            let next = self
                .flows
                .iter()
                .map(|f| (f.remaining_bytes / f.rate) * 1e9)
                .fold(f64::INFINITY, f64::min);
            let next_ns = self.now_ns + next;
            if self.flows.is_empty() || next_ns > target_ns {
                self.drain((target_ns - self.now_ns) / 1e9);
                self.now_ns = target_ns;
                return;
            }
            let windowed = self.finish_window_rel > 0.0;
            let stop_ns = if windowed {
                (next_ns * (1.0 + self.finish_window_rel)).min(target_ns)
            } else {
                next_ns
            };
            let mut finish: Vec<f64> = self
                .flows
                .iter()
                .map(|f| self.now_ns + (f.remaining_bytes / f.rate) * 1e9)
                .collect();
            self.drain((stop_ns - self.now_ns) / 1e9);
            self.now_ns = stop_ns;
            let at = SimTime(self.now_ns.round() as u64);
            let mut i = 0;
            while i < self.flows.len() {
                if self.flows[i].remaining_bytes <= DONE_TOLERANCE_BYTES {
                    completions.push(FluidCompletion {
                        tag: self.flows[i].tag,
                        at: if windowed {
                            SimTime(finish[i].min(stop_ns).round() as u64)
                        } else {
                            at
                        },
                    });
                    self.flows.swap_remove(i);
                    finish.swap_remove(i);
                    self.dirty = true;
                } else {
                    i += 1;
                }
            }
        }
    }
}

/// The driver surface both solvers share.
trait Solver {
    fn start(&mut self, src: HostId, dst: HostId, bytes: u64, tag: u64);
    fn next_finish(&mut self) -> Option<f64>;
    fn advance(&mut self, target_ns: f64, completions: &mut Vec<FluidCompletion>);
    fn recomputations(&self) -> u64;
}

impl Solver for FluidSim<'_> {
    fn start(&mut self, src: HostId, dst: HostId, bytes: u64, tag: u64) {
        self.start_flow(src, dst, bytes, tag);
    }
    fn next_finish(&mut self) -> Option<f64> {
        self.next_finish_ns()
    }
    fn advance(&mut self, target_ns: f64, completions: &mut Vec<FluidCompletion>) {
        self.advance_to(target_ns, completions);
    }
    fn recomputations(&self) -> u64 {
        self.recomputes()
    }
}

impl Solver for ScanSim<'_> {
    fn start(&mut self, src: HostId, dst: HostId, bytes: u64, tag: u64) {
        self.start_flow(src, dst, bytes, tag);
    }
    fn next_finish(&mut self) -> Option<f64> {
        self.next_finish_ns()
    }
    fn advance(&mut self, target_ns: f64, completions: &mut Vec<FluidCompletion>) {
        self.advance_to(target_ns, completions);
    }
    fn recomputations(&self) -> u64 {
        self.recomputes
    }
}

/// One flow of a test case: source and destination host, bytes, start.
type FlowSpec = (HostId, HostId, u64, f64);

/// Everything a run exposes: the bits of every projected next finish the
/// driver saw, the completions in report order, the recomputation count.
#[derive(Debug, PartialEq)]
struct Trace {
    next_finish_bits: Vec<u64>,
    completions: Vec<(u64, u64)>,
    recomputes: u64,
}

/// Starts each flow at its instant, then runs dry the way
/// `FluidSim::run_to_completion` does, recording every step.
fn drive(sim: &mut impl Solver, flows: &[FlowSpec], window: f64) -> Trace {
    let mut trace = Trace {
        next_finish_bits: Vec::new(),
        completions: Vec::new(),
        recomputes: 0,
    };
    let mut done = Vec::new();
    for (tag, &(src, dst, bytes, at_ns)) in flows.iter().enumerate() {
        // Peek first, as the MPI driver does before every advance.
        if let Some(t) = sim.next_finish() {
            trace.next_finish_bits.push(t.to_bits());
        }
        sim.advance(at_ns, &mut done);
        sim.start(src, dst, bytes, tag as u64);
    }
    while let Some(t) = sim.next_finish() {
        trace.next_finish_bits.push(t.to_bits());
        sim.advance(t * (1.0 + window), &mut done);
    }
    trace.completions = done.iter().map(|c| (c.tag, c.at.0)).collect();
    trace.recomputes = sim.recomputations();
    trace
}

fn gbe() -> LinkConfig {
    LinkConfig::gigabit_ethernet()
}

fn link(bandwidth_bytes_per_sec: f64) -> LinkConfig {
    LinkConfig {
        bandwidth_bytes_per_sec,
        latency_ns: 1_000,
    }
}

fn sw() -> SwitchConfig {
    SwitchConfig::commodity_ethernet()
}

/// The multi-tier fabrics the oracle runs on, by index.
fn fabric(kind: usize) -> (Topology, Vec<HostId>) {
    let g: Generated = match kind {
        0 => fat_tree(&FatTreeParams {
            k: 4,
            hosts_per_edge: 2,
            link: gbe(),
            switch: sw(),
        }),
        1 => dragonfly(&DragonflyParams {
            groups: 4,
            routers_per_group: 3,
            hosts_per_router: 2,
            host_link: gbe(),
            local_link: link(250e6),
            global_link: link(60e6),
            switch: sw(),
        }),
        2 => two_level_tree(&TreeParams {
            leaves: 3,
            hosts_per_leaf: 4,
            edge_link: gbe(),
            uplinks_per_leaf: 2,
            oversubscription: 3.0,
            uplink_latency_ns: 1_000,
            edge_switch: sw(),
            core_switch: sw(),
        }),
        3 => torus_2d(4, 3, 1, link(80e6), sw()),
        _ => {
            let mut g = single_switch(
                6,
                LinkConfig::myrinet_2000(),
                SwitchConfig::lossless_fabric(),
            );
            g.builder.host_io_bus(265e6, 500);
            g
        }
    };
    let hosts = g.hosts.clone();
    (g.builder.build(&SimConfig::default()).unwrap(), hosts)
}

/// A flow set of one of four shapes, drawn from `seed`: random pairs and
/// sizes; a symmetric all-to-all of equal blocks (every slot ties); two
/// superposed shift permutations of equal blocks; and a churn sequence
/// with staggered starts and a few repeated sizes.
fn flow_set(pattern: usize, hosts: &[HostId], seed: u64) -> Vec<FlowSpec> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = hosts.len();
    let pair = |rng: &mut StdRng| {
        let src = rng.gen_range(0..n);
        let dst = (src + rng.gen_range(1..n)) % n;
        (hosts[src], hosts[dst])
    };
    match pattern {
        0 => (0..rng.gen_range(1..48))
            .map(|_| {
                let (src, dst) = pair(&mut rng);
                (src, dst, rng.gen_range(1..400_000u64), 0.0)
            })
            .collect(),
        1 => {
            let m = rng.gen_range(1..64u64) * 1024;
            let mut flows = Vec::new();
            for &src in hosts {
                for &dst in hosts {
                    if src != dst {
                        flows.push((src, dst, m, 0.0));
                    }
                }
            }
            flows
        }
        2 => {
            let m = rng.gen_range(1..256u64) * 1024;
            let (a, b) = (rng.gen_range(1..n), rng.gen_range(1..n));
            (0..n)
                .flat_map(|i| [a, b].map(|shift| (hosts[i], hosts[(i + shift) % n], m, 0.0)))
                .collect()
        }
        _ => {
            let sizes = [4096, 65_536, rng.gen_range(1..300_000u64)];
            let mut at_ns = 0.0;
            (0..rng.gen_range(1..40))
                .map(|_| {
                    at_ns += rng.gen_range(0..300_000u64) as f64;
                    let (src, dst) = pair(&mut rng);
                    (src, dst, sizes[rng.gen_range(0..sizes.len())], at_ns)
                })
                .collect()
        }
    }
}

fn check(kind: usize, pattern: usize, seed: u64, window: f64) -> Result<(), TestCaseError> {
    let (topo, hosts) = fabric(kind);
    let flows = flow_set(pattern, &hosts, seed);
    let mut heap = FluidSim::new(&topo);
    heap.set_finish_window(window);
    let got = drive(&mut heap, &flows, window);
    let want = drive(&mut ScanSim::new(&topo, window), &flows, window);
    prop_assert_eq!(got.completions.len(), flows.len());
    prop_assert_eq!(
        got,
        want,
        "fabric {} pattern {} seed {} window {}",
        kind,
        pattern,
        seed,
        window
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn heap_matches_the_scan_in_exact_mode(
        kind in 0usize..5,
        pattern in 0usize..4,
        seed in any::<u64>(),
    ) {
        check(kind, pattern, seed, 0.0)?;
    }

    #[test]
    fn heap_matches_the_scan_with_a_finish_window(
        kind in 0usize..5,
        pattern in 0usize..4,
        seed in any::<u64>(),
    ) {
        check(kind, pattern, seed, 1e-2)?;
    }
}

/// Every fabric and every pattern at least once, whatever the sampler
/// draws above.
#[test]
fn heap_matches_the_scan_on_every_fabric_and_pattern() {
    for kind in 0..5 {
        for pattern in 0..4 {
            for window in [0.0, 1e-2] {
                check(kind, pattern, 7, window).unwrap();
            }
        }
    }
}
