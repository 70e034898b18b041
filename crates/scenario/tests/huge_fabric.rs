//! Regression: a valid spec on a fabric far larger than its job must build
//! in memory proportional to the routes the job uses. Building a 4096-leaf
//! × 64-host tree (262 144 hosts) for a two-rank job once asked for an
//! all-pairs route table of hundreds of gigabytes and aborted the whole
//! process on allocation failure.

use contention_scenario::spec::ScenarioSpec;
use contention_scenario::topology::{build_fluid_fabric, build_world};
use simnet::prelude::*;

const HUGE_TREE: &str = r#"
name = "huge-tree"
description = "4096 leaves x 64 hosts, two ranks"

[sweep]
message_bytes = [65536]
nodes = [2]
reps = 1
warmup = 0

[topology]
kind = "tree"
leaves = 4096
hosts_per_leaf = 64
oversubscription = 4.0
uplink_latency_ns = 10000
uplinks_per_leaf = 1

[topology.core_switch]
per_port_cap_bytes = 65536
shared_buffer_bytes = 262144

[topology.edge_link]
bandwidth_bytes_per_sec = 125000000.0
latency_ns = 20000

[topology.edge_switch]
per_port_cap_bytes = 65536
shared_buffer_bytes = 262144

[transport]
kind = "tcp"
window_bytes = 65536

[workload]
kind = "uniform"
"#;

#[test]
fn huge_tree_builds_and_routes_only_what_it_uses() {
    let spec = ScenarioSpec::from_toml_str(HUGE_TREE).unwrap();
    let seed = 7;

    let (topo, hosts, _) = build_fluid_fabric(&spec, 2, seed).unwrap();
    assert_eq!(topo.n_hosts, 4096 * 64);
    assert_eq!(topo.interned_routes(), 0, "building resolves no routes");

    let mut world = build_world(&spec, 2, seed).unwrap();
    let sim = world.sim_mut();
    sim.open_connection(hosts[0], hosts[1], TransportKind::Tcp(TcpConfig::default()));
    assert_eq!(
        sim.topology().interned_routes(),
        2,
        "one connection interns its forward and reverse routes"
    );
    let hops = topo.hop_count(hosts[0], hosts[1]);
    assert!(hops == 2 || hops == 4, "leaf-local or via the core: {hops}");
}

/// A permutation over 65 536 ranks is 65 536 messages. Its programs and
/// its MED bound must cost that much, not the `ranks²` blocks of a dense
/// matrix (32 GiB of `u64` at this size).
#[test]
fn huge_permutation_builds_programs_and_bound_from_its_messages_only() {
    use contention_model::hockney::HockneyParams;
    use contention_scenario::spec::WorkloadSpec;
    use contention_scenario::workload;
    use simmpi::Op;
    use std::time::{Duration, Instant};

    let (n, m, seed) = (65_536, 4096, 11);
    let started = Instant::now();
    let programs = workload::programs(&WorkloadSpec::Permutation, n, m, seed);
    assert_eq!(programs.len(), n);
    for (rank, program) in programs.iter().enumerate() {
        let [Op::Transfer { sends, recvs }] = program.as_slice() else {
            panic!("rank {rank}: expected one transfer, got {program:?}");
        };
        assert_eq!(sends.len(), 1, "rank {rank} sends once");
        assert_ne!(sends[0].0, rank, "rank {rank} sends to itself");
        assert_eq!(recvs.len(), 1, "rank {rank} receives once");
    }
    let params = HockneyParams::new(50e-6, 8e-9);
    let bound = workload::model_bound(&WorkloadSpec::Permutation, n, m, seed, &params);
    // One message out and one in per rank: Claim 3 is one start-up plus
    // one block's transfer.
    let expected = 50e-6 + m as f64 * 8e-9;
    assert!((bound - expected).abs() < 1e-12, "{bound} vs {expected}");
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(30),
        "65 536-rank permutation took {elapsed:?}"
    );
}
