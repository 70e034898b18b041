//! Differential test of on-demand routing against an eager all-pairs
//! reference.
//!
//! `reference_routes` is the eager router the topology builder once ran:
//! one BFS per destination host over the whole fabric, then a greedy
//! next-hop walk from every source with the same dimension-ordered and
//! ECMP tie-breaks, reporting the first unreachable pair in
//! destination-major, source-ascending order. Every fabric below must
//! route identically, hop for hop and for every ordered host pair,
//! through [`Topology::route`], [`Topology::hop_count`] and the routes
//! the packet engine interns when it opens connections.

use simnet::generate::{
    dragonfly, fat_tree, single_switch, star_of_switches, torus_2d, torus_3d, two_level_tree,
    DragonflyParams, FatTreeParams, Generated, TreeParams,
};
use simnet::ids::{HostId, TxId};
use simnet::prelude::*;
use simnet::topology::{Endpoint, RoutingPolicy};

/// A fabric as the reference router sees it: node `u`'s outgoing
/// transmitters and the nodes they reach, in link-creation order. Nodes
/// are hosts, then switches, then I/O-bus stages.
struct Graph {
    n_hosts: usize,
    adjacency: Vec<Vec<(TxId, usize)>>,
    policy: RoutingPolicy,
    /// One coordinate per switch under [`RoutingPolicy::DimensionOrdered`].
    coords: Vec<[u16; 3]>,
}

impl Graph {
    /// Recovers the graph from a built topology's public transmitter table.
    /// Every link adds two transmitters back to back (`2i` one way, `2i + 1`
    /// the other), so a transmitter leaves the node its partner reaches.
    fn of(topo: &Topology, policy: RoutingPolicy, coords: Vec<[u16; 3]>) -> Self {
        let n_hosts = topo.n_hosts;
        let n_switches = topo.pool_capacity.len() - n_hosts;
        let node = |e: Endpoint| match e {
            Endpoint::Host(h) => h.index(),
            Endpoint::Switch(s) => n_hosts + s.index(),
            Endpoint::Bus(h) => n_hosts + n_switches + h.index(),
        };
        let n_nodes = topo
            .tx_params
            .iter()
            .map(|p| node(p.to) + 1)
            .max()
            .unwrap_or(0)
            .max(n_hosts + n_switches);
        let mut adjacency = vec![Vec::new(); n_nodes];
        for (i, params) in topo.tx_params.iter().enumerate() {
            let from = node(topo.tx_params[i ^ 1].to);
            adjacency[from].push((TxId::new(i), node(params.to)));
        }
        Graph {
            n_hosts,
            adjacency,
            policy,
            coords,
        }
    }
}

/// A hand-wired fabric's links, for fabrics no generator makes.
#[derive(Clone, Copy)]
enum End {
    Host(usize),
    Switch(usize),
}

/// Wires `links` into a builder and, in parallel, into the reference
/// graph (so a fabric that fails to build still has a reference).
fn hand_built(n_hosts: usize, n_switches: usize, links: &[(End, End)]) -> (TopologyBuilder, Graph) {
    let mut b = TopologyBuilder::new();
    let hosts = b.add_hosts(n_hosts);
    let switches: Vec<SwitchId> = (0..n_switches)
        .map(|_| b.add_switch(SwitchConfig::commodity_ethernet()))
        .collect();
    let node = |e: End| match e {
        End::Host(h) => h,
        End::Switch(s) => n_hosts + s,
    };
    let mut adjacency = vec![Vec::new(); n_hosts + n_switches];
    for (i, &(a, z)) in links.iter().enumerate() {
        let link = LinkConfig::gigabit_ethernet();
        match (a, z) {
            (End::Host(h), End::Switch(s)) => b.link_host(hosts[h], switches[s], link),
            (End::Switch(s), End::Switch(t)) => b.link_switches(switches[s], switches[t], link),
            _ => panic!("links run host→switch or switch→switch"),
        }
        adjacency[node(a)].push((TxId::new(2 * i), node(z)));
        adjacency[node(z)].push((TxId::new(2 * i + 1), node(a)));
    }
    let graph = Graph {
        n_hosts,
        adjacency,
        policy: RoutingPolicy::EcmpShortest,
        coords: Vec::new(),
    };
    (b, graph)
}

/// The eager all-pairs router: `routes[src][dst]` for every ordered pair
/// (empty on the diagonal), or the first pair found unreachable.
fn reference_routes(g: &Graph) -> Result<Vec<Vec<Vec<TxId>>>, TopologyError> {
    let n = g.n_hosts;
    let coord_of = |v: usize| v.checked_sub(n).and_then(|s| g.coords.get(s).copied());
    let mut routes = vec![vec![Vec::new(); n]; n];
    for dst in 0..n {
        let mut dist = vec![u32::MAX; g.adjacency.len()];
        dist[dst] = 0;
        let mut queue = std::collections::VecDeque::from([dst]);
        while let Some(u) = queue.pop_front() {
            for &(_, v) in &g.adjacency[u] {
                if dist[v] == u32::MAX {
                    dist[v] = dist[u] + 1;
                    queue.push_back(v);
                }
            }
        }
        for src in (0..n).filter(|&s| s != dst) {
            if dist[src] == u32::MAX {
                return Err(TopologyError::Unreachable(
                    HostId::new(src),
                    HostId::new(dst),
                ));
            }
            let mut at = src;
            while at != dst {
                let candidates: Vec<&(TxId, usize)> = g.adjacency[at]
                    .iter()
                    .filter(|&&(_, v)| dist[v] + 1 == dist[at])
                    .collect();
                let dor = (g.policy == RoutingPolicy::DimensionOrdered)
                    .then(|| coord_of(at))
                    .flatten()
                    .and_then(|a| {
                        candidates.iter().copied().min_by_key(|&&(tx, v)| {
                            let dim = coord_of(v)
                                .map_or(3, |c| (0..3).find(|&d| a[d] != c[d]).unwrap_or(3));
                            (dim, tx.index())
                        })
                    });
                let &(tx, next) = dor.unwrap_or_else(|| {
                    let h = fxhash(src as u64, dst as u64, at as u64);
                    candidates[(h % candidates.len() as u64) as usize]
                });
                routes[src][dst].push(tx);
                at = next;
            }
        }
    }
    Ok(routes)
}

/// The builder's ECMP hash, restated so the reference stays independent.
fn fxhash(a: u64, b: u64, c: u64) -> u64 {
    let mut x = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
        .wrapping_add(c.wrapping_mul(0x1656_67B1_9E37_79F9));
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x
}

/// Asserts that `topo` routes every ordered pair exactly like the
/// reference, on demand and through a packet engine's interned routes.
fn assert_matches_reference(topo: Topology, graph: &Graph) {
    let n = topo.n_hosts;
    let expected = reference_routes(graph).expect("reference routes every pair");
    let hosts: Vec<HostId> = (0..n).map(HostId::new).collect();
    for &a in &hosts {
        for &b in hosts.iter().filter(|&&b| b != a) {
            let want = &expected[a.index()][b.index()];
            assert_eq!(&topo.route(a, b), want, "route {a} -> {b}");
            assert_eq!(topo.hop_count(a, b), want.len(), "hop count {a} -> {b}");
        }
    }

    let mut sim = Simulator::new(topo, SimConfig::default());
    for &a in &hosts {
        for &b in hosts.iter().filter(|&&b| b != a) {
            sim.open_connection(a, b, TransportKind::Tcp(TcpConfig::default()));
        }
    }
    let mut interned = sim.topology().clone();
    assert_eq!(
        interned.interned_routes(),
        n * (n - 1),
        "one route per pair"
    );
    for &a in &hosts {
        for &b in hosts.iter().filter(|&&b| b != a) {
            let id = interned.intern_route(a, b);
            let want = &expected[a.index()][b.index()];
            assert_eq!(interned.route_slice(id), &want[..], "interned {a} -> {b}");
            assert_eq!(interned.first_hop(id), want[0]);
            assert_eq!(interned.route_dst(id), b);
        }
    }
    assert_eq!(
        interned.interned_routes(),
        n * (n - 1),
        "the engine interned every pair already"
    );
}

/// Builds a generated fabric and checks it against the reference.
fn check_generated(g: Generated, policy: RoutingPolicy, coords: Vec<[u16; 3]>) {
    let topo = g.builder.build(&SimConfig::default()).unwrap();
    let graph = Graph::of(&topo, policy, coords);
    assert_matches_reference(topo, &graph);
}

fn ecmp(g: Generated) {
    check_generated(g, RoutingPolicy::EcmpShortest, Vec::new());
}

fn gbe() -> LinkConfig {
    LinkConfig::gigabit_ethernet()
}

fn sw() -> SwitchConfig {
    SwitchConfig::commodity_ethernet()
}

/// Torus switch coordinates in generator order (x fastest).
fn torus_coords(dims: [usize; 3]) -> Vec<[u16; 3]> {
    let mut coords = Vec::new();
    for z in 0..dims[2] {
        for y in 0..dims[1] {
            for x in 0..dims[0] {
                coords.push([x as u16, y as u16, z as u16]);
            }
        }
    }
    coords
}

#[test]
fn single_switch_matches_reference() {
    ecmp(single_switch(7, gbe(), sw()));
}

#[test]
fn star_with_parallel_uplinks_matches_reference() {
    ecmp(star_of_switches(4, 3, gbe(), gbe(), 3, sw(), sw()));
}

#[test]
fn two_level_tree_matches_reference() {
    ecmp(two_level_tree(&TreeParams {
        leaves: 3,
        hosts_per_leaf: 4,
        edge_link: gbe(),
        uplinks_per_leaf: 2,
        oversubscription: 2.0,
        uplink_latency_ns: 1_000,
        edge_switch: sw(),
        core_switch: sw(),
    }));
}

#[test]
fn fat_tree_matches_reference() {
    ecmp(fat_tree(&FatTreeParams {
        k: 4,
        hosts_per_edge: 3,
        link: gbe(),
        switch: sw(),
    }));
}

#[test]
fn dimension_ordered_tori_match_reference() {
    let ordered = RoutingPolicy::DimensionOrdered;
    check_generated(
        torus_2d(4, 3, 2, gbe(), sw()),
        ordered,
        torus_coords([4, 3, 1]),
    );
    check_generated(
        torus_2d(2, 5, 1, gbe(), sw()),
        ordered,
        torus_coords([2, 5, 1]),
    );
    check_generated(
        torus_3d(3, 2, 4, 1, gbe(), sw()),
        ordered,
        torus_coords([3, 2, 4]),
    );
}

#[test]
fn dragonfly_matches_reference() {
    ecmp(dragonfly(&DragonflyParams {
        groups: 5,
        routers_per_group: 4,
        hosts_per_router: 2,
        host_link: gbe(),
        local_link: gbe(),
        global_link: gbe(),
        switch: sw(),
    }));
}

#[test]
fn io_bus_presets_match_reference() {
    // The Myrinet preset's shape: one lossless crossbar behind a shared
    // host DMA bus (every host's only link runs to its bus stage)...
    let myrinet = LinkConfig {
        bandwidth_bytes_per_sec: 250e6,
        latency_ns: 4_000,
    };
    let mut g = single_switch(6, myrinet, SwitchConfig::lossless_fabric());
    g.builder.host_io_bus(265e6, 500);
    ecmp(g);
    // ...and the same bus on a multi-switch job footprint.
    let mut g = star_of_switches(3, 3, myrinet, myrinet, 2, sw(), sw());
    g.builder.host_io_bus(265e6, 500);
    ecmp(g);
}

#[test]
fn multi_homed_hosts_anchor_themselves_and_match_reference() {
    use End::{Host, Switch};
    // Host 0 is dual-homed to switches 0 and 1, host 1 has two parallel
    // links into switch 0: neither has a single neighbour to anchor on.
    let links = [
        (Host(0), Switch(0)),
        (Host(0), Switch(1)),
        (Host(1), Switch(0)),
        (Host(1), Switch(0)),
        (Host(2), Switch(1)),
        (Host(3), Switch(2)),
        (Host(4), Switch(2)),
        (Switch(0), Switch(2)),
        (Switch(1), Switch(2)),
        (Switch(1), Switch(2)),
    ];
    let (b, graph) = hand_built(5, 3, &links);
    assert_matches_reference(b.build(&SimConfig::default()).unwrap(), &graph);
}

/// Builds a fabric that falls apart and checks its error against the
/// reference's.
fn assert_partition_matches_reference(n_hosts: usize, n_switches: usize, links: &[(End, End)]) {
    let (b, graph) = hand_built(n_hosts, n_switches, links);
    let want = reference_routes(&graph).unwrap_err();
    assert_eq!(b.build(&SimConfig::default()).unwrap_err(), want);
}

#[test]
fn partitioned_fabrics_report_the_reference_pair() {
    use End::{Host, Switch};
    // Hosts 0, 1 and 3 share a switch; host 2 sits alone.
    assert_partition_matches_reference(
        4,
        2,
        &[
            (Host(0), Switch(0)),
            (Host(1), Switch(0)),
            (Host(2), Switch(1)),
            (Host(3), Switch(0)),
        ],
    );
    // Host 0 is the one cut off.
    assert_partition_matches_reference(
        3,
        2,
        &[
            (Host(0), Switch(0)),
            (Host(1), Switch(1)),
            (Host(2), Switch(1)),
        ],
    );
    // Three islands, the first joined through a switch pair.
    assert_partition_matches_reference(
        5,
        4,
        &[
            (Host(0), Switch(0)),
            (Switch(0), Switch(1)),
            (Host(3), Switch(1)),
            (Host(1), Switch(2)),
            (Host(4), Switch(2)),
            (Host(2), Switch(3)),
        ],
    );
}
