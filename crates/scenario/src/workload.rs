//! Turns a [`WorkloadSpec`] into per-rank programs and into the MED the
//! model bound is computed from.
//!
//! Every irregular pattern is expressed as an [`ExchangeMatrix`] (the
//! paper's weighted total-exchange digraph), so the Claims 1–3 lower bound
//! applies uniformly: the executor's `model_secs` column is the MED time
//! bound under the scenario's measured Hockney parameters, and
//! `error_percent` is the paper's `(measured/estimated − 1)·100 %`.

use crate::spec::WorkloadSpec;
use contention_model::hockney::HockneyParams;
use contention_model::med::Med;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use simmpi::prelude::*;
use simmpi::Op;

/// Looks up an All-to-All algorithm by its stable name.
pub fn algorithm_by_name(name: &str) -> Option<AllToAllAlgorithm> {
    AllToAllAlgorithm::all()
        .into_iter()
        .find(|a| a.name() == name)
}

/// The exchange matrix of one phase, if the phase is matrix-shaped
/// (everything except `Uniform`, which runs a named algorithm directly,
/// and `Phases`, which recurses).
fn phase_matrix(w: &WorkloadSpec, n: usize, m: u64, seed: u64) -> Option<ExchangeMatrix> {
    match w {
        WorkloadSpec::Uniform { .. } | WorkloadSpec::Phases { .. } => None,
        WorkloadSpec::Skewed {
            hot_ranks, factor, ..
        } => {
            let hot = (*factor * m as f64).round().max(1.0) as u64;
            Some(ExchangeMatrix::from_blocks(
                n,
                (0..n).flat_map(|i| {
                    let row_m = if i < *hot_ranks { hot } else { m };
                    (0..n).map(move |j| (i, j, row_m))
                }),
            ))
        }
        WorkloadSpec::Sparse { density, .. } => {
            // Draws run row-major over the off-diagonal pairs.
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_5EED);
            let mut blocks = Vec::new();
            for i in 0..n {
                // Keep every rank participating so no program is empty:
                // give rank i a guaranteed message to its right neighbour.
                let right = (i + 1) % n;
                let row = blocks.len();
                let mut has_right = false;
                for j in 0..n {
                    if i != j && rng.gen_bool(*density) {
                        has_right |= j == right;
                        blocks.push((i, j, m));
                    }
                }
                if !has_right {
                    let at = row + blocks[row..].partition_point(|b| b.1 < right);
                    blocks.insert(at, (i, right, m));
                }
            }
            Some(ExchangeMatrix::from_blocks(n, blocks))
        }
        WorkloadSpec::Permutation => {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x0EE7_ABCD);
            let perm = derangement(n, &mut rng);
            Some(ExchangeMatrix::from_blocks(
                n,
                perm.iter().enumerate().map(|(i, &j)| (i, j, m)),
            ))
        }
        // Senders are the non-sink ranks; each sends to one sink,
        // round-robin.
        WorkloadSpec::Incast { receivers } => Some(ExchangeMatrix::from_blocks(
            n,
            (*receivers..n).map(|i| (i, (i - receivers) % receivers, m)),
        )),
        WorkloadSpec::Outcast { senders } => Some(ExchangeMatrix::from_blocks(
            n,
            (0..(*senders).min(n)).flat_map(|i| (0..n).map(move |j| (i, j, m))),
        )),
    }
}

/// A random permutation with no fixed point (so every rank both sends and
/// receives exactly once).
fn derangement(n: usize, rng: &mut StdRng) -> Vec<usize> {
    assert!(n >= 2);
    let mut perm: Vec<usize> = (0..n).collect();
    loop {
        perm.shuffle(rng);
        if (0..n).all(|i| perm[i] != i) {
            return perm;
        }
    }
}

fn phase_programs(w: &WorkloadSpec, n: usize, m: u64, seed: u64) -> Vec<Vec<Op>> {
    match w {
        WorkloadSpec::Uniform { algorithm } => algorithm_by_name(algorithm)
            .expect("validated algorithm name")
            .programs(n, m),
        WorkloadSpec::Phases { .. } => unreachable!("phases cannot nest"),
        matrixy => {
            let matrix = phase_matrix(matrixy, n, m, seed).expect("matrix-shaped phase");
            let nonblocking = match matrixy {
                WorkloadSpec::Skewed { nonblocking, .. }
                | WorkloadSpec::Sparse { nonblocking, .. } => *nonblocking,
                // One message per rank (permutation) or pure fan-in/out:
                // posting order is irrelevant, use the post-all schedule.
                _ => true,
            };
            if nonblocking {
                matrix.nonblocking_programs()
            } else {
                matrix.direct_exchange_programs()
            }
        }
    }
}

/// Builds the per-rank programs for one cell: `n` ranks, `m` bytes per
/// pair (interpretation is per-pattern), derived RNG streams from `seed`.
/// Multi-phase workloads are separated by barriers so phases do not
/// overlap.
pub fn programs(w: &WorkloadSpec, n: usize, m: u64, seed: u64) -> Vec<Vec<Op>> {
    match w {
        WorkloadSpec::Phases { phases } => {
            let mut combined = vec![Vec::new(); n];
            for (idx, phase) in phases.iter().enumerate() {
                let phase_seed = seed.wrapping_add(0x9E37 * idx as u64);
                for (rank, mut prog) in phase_programs(phase, n, m, phase_seed)
                    .into_iter()
                    .enumerate()
                {
                    combined[rank].append(&mut prog);
                }
                if idx + 1 < phases.len() {
                    for prog in &mut combined {
                        prog.push(Op::Barrier);
                    }
                }
            }
            combined
        }
        single => phase_programs(single, n, m, seed),
    }
}

/// The MED lower bound (Claims 1–3) for this cell under `params`. For
/// multi-phase workloads the per-phase bounds add (phases are separated by
/// barriers).
pub fn model_bound(w: &WorkloadSpec, n: usize, m: u64, seed: u64, params: &HockneyParams) -> f64 {
    match w {
        WorkloadSpec::Uniform { .. } => Med::uniform_alltoall(n, m).time_lower_bound(params),
        WorkloadSpec::Phases { phases } => phases
            .iter()
            .enumerate()
            .map(|(idx, phase)| {
                let phase_seed = seed.wrapping_add(0x9E37 * idx as u64);
                model_bound(phase, n, m, phase_seed, params)
            })
            .sum(),
        matrixy => {
            let matrix = phase_matrix(matrixy, n, m, seed).expect("matrix-shaped phase");
            let mut med = Med::new(n);
            for (i, j, b) in matrix.blocks() {
                med.add_message(i, j, b);
            }
            med.time_lower_bound(params)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_balanced(progs: &[Vec<Op>]) {
        // Every send has a matching posted receive.
        let n = progs.len();
        let mut sent = vec![vec![0u64; n]; n];
        let mut recvd = vec![vec![0u64; n]; n];
        for (i, prog) in progs.iter().enumerate() {
            for op in prog {
                if let Op::Transfer { sends, recvs } = op {
                    for &(to, _) in sends {
                        sent[i][to] += 1;
                    }
                    for &from in recvs {
                        recvd[from][i] += 1;
                    }
                }
            }
        }
        assert_eq!(sent, recvd);
    }

    #[test]
    fn every_pattern_produces_matched_programs() {
        let specs = [
            WorkloadSpec::Uniform {
                algorithm: "direct".into(),
            },
            WorkloadSpec::Skewed {
                hot_ranks: 2,
                factor: 4.0,
                nonblocking: true,
            },
            WorkloadSpec::Sparse {
                density: 0.4,
                nonblocking: false,
            },
            WorkloadSpec::Permutation,
            WorkloadSpec::Incast { receivers: 2 },
            WorkloadSpec::Outcast { senders: 1 },
        ];
        for w in &specs {
            let progs = programs(w, 6, 10_000, 42);
            assert_eq!(progs.len(), 6, "{}", w.kind());
            check_balanced(&progs);
        }
    }

    /// The `n × n` matrices the patterns were first built as, with the
    /// same seeds and the same row-major RNG draws.
    fn dense_reference(w: &WorkloadSpec, n: usize, m: u64, seed: u64) -> Vec<Vec<u64>> {
        let mut sizes = vec![vec![0; n]; n];
        match w {
            WorkloadSpec::Sparse { density, .. } => {
                let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_5EED);
                for (i, row) in sizes.iter_mut().enumerate() {
                    for (j, b) in row.iter_mut().enumerate() {
                        if i != j && rng.gen_bool(*density) {
                            *b = m;
                        }
                    }
                }
                for (i, row) in sizes.iter_mut().enumerate() {
                    row[(i + 1) % n] = m;
                }
            }
            WorkloadSpec::Permutation => {
                let mut rng = StdRng::seed_from_u64(seed ^ 0x0EE7_ABCD);
                for (i, j) in derangement(n, &mut rng).into_iter().enumerate() {
                    sizes[i][j] = m;
                }
            }
            WorkloadSpec::Incast { receivers } => {
                for (i, row) in sizes.iter_mut().enumerate().skip(*receivers) {
                    row[(i - receivers) % receivers] = m;
                }
            }
            _ => unreachable!("not a sparse pattern"),
        }
        sizes
    }

    #[test]
    fn sparse_patterns_match_their_dense_construction() {
        for n in [2, 3, 7, 16] {
            for seed in [0, 5, 42] {
                for w in [
                    WorkloadSpec::Sparse {
                        density: 0.3,
                        nonblocking: false,
                    },
                    WorkloadSpec::Sparse {
                        density: 0.0,
                        nonblocking: true,
                    },
                    WorkloadSpec::Permutation,
                    WorkloadSpec::Incast { receivers: 1 },
                ] {
                    let want = ExchangeMatrix::new(dense_reference(&w, n, 100, seed));
                    let got = phase_matrix(&w, n, 100, seed).unwrap();
                    assert_eq!(got, want, "{} n={n} seed={seed}", w.kind());
                }
            }
        }
    }

    #[test]
    fn permutation_is_a_derangement_and_seed_dependent() {
        let m1 = phase_matrix(&WorkloadSpec::Permutation, 8, 100, 1).unwrap();
        let m2 = phase_matrix(&WorkloadSpec::Permutation, 8, 100, 1).unwrap();
        assert_eq!(m1, m2, "same seed, same pattern");
        for i in 0..8 {
            assert_eq!(m1.send_volume(i), 100);
            assert_eq!(m1.recv_volume(i), 100);
            assert_eq!(m1.bytes(i, i), 0);
        }
        let m3 = phase_matrix(&WorkloadSpec::Permutation, 8, 100, 2).unwrap();
        assert_ne!(m1, m3, "different seed, different permutation");
    }

    #[test]
    fn skewed_hot_ranks_send_more() {
        let w = WorkloadSpec::Skewed {
            hot_ranks: 1,
            factor: 3.0,
            nonblocking: true,
        };
        let m = phase_matrix(&w, 4, 1000, 0).unwrap();
        assert_eq!(m.send_volume(0), 9000);
        assert_eq!(m.send_volume(1), 3000);
    }

    #[test]
    fn phases_join_with_barriers() {
        let w = WorkloadSpec::Phases {
            phases: vec![
                WorkloadSpec::Permutation,
                WorkloadSpec::Uniform {
                    algorithm: "direct".into(),
                },
            ],
        };
        let progs = programs(&w, 4, 1000, 9);
        for prog in &progs {
            assert_eq!(
                prog.iter().filter(|op| matches!(op, Op::Barrier)).count(),
                1
            );
        }
    }

    #[test]
    fn model_bound_positive_and_monotone_in_size() {
        let params = HockneyParams::new(50e-6, 8e-9);
        for w in [
            WorkloadSpec::Uniform {
                algorithm: "direct".into(),
            },
            WorkloadSpec::Incast { receivers: 1 },
            WorkloadSpec::Permutation,
        ] {
            let small = model_bound(&w, 6, 10_000, 3, &params);
            let large = model_bound(&w, 6, 1_000_000, 3, &params);
            assert!(small > 0.0, "{}", w.kind());
            assert!(large > small, "{}", w.kind());
        }
    }
}
