//! Differential test of the sparse [`ExchangeMatrix`] against a dense
//! reference.
//!
//! `Dense` is the `n × n` matrix the exchange schedules were first written
//! over. On random matrices, empty rows and columns included, the sparse
//! matrix must report the same `bytes`, the same send and receive volumes,
//! and the same direct-exchange and nonblocking programs, op for op.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simmpi::irregular::ExchangeMatrix;
use simmpi::{Op, Rank};

struct Dense {
    sizes: Vec<Vec<u64>>,
}

impl Dense {
    fn n(&self) -> usize {
        self.sizes.len()
    }

    fn bytes(&self, i: Rank, j: Rank) -> u64 {
        if i == j {
            0
        } else {
            self.sizes[i][j]
        }
    }

    fn send_volume(&self, i: Rank) -> u64 {
        (0..self.n()).map(|j| self.bytes(i, j)).sum()
    }

    fn recv_volume(&self, j: Rank) -> u64 {
        (0..self.n()).map(|i| self.bytes(i, j)).sum()
    }

    fn direct_exchange_programs(&self) -> Vec<Vec<Op>> {
        let n = self.n();
        (0..n)
            .map(|i| {
                (1..n)
                    .filter_map(|t| {
                        let to = (i + t) % n;
                        let from = (i + n - t) % n;
                        let sends: Vec<(Rank, u64)> = if self.bytes(i, to) > 0 {
                            vec![(to, self.bytes(i, to))]
                        } else {
                            vec![]
                        };
                        let recvs: Vec<Rank> = if self.bytes(from, i) > 0 {
                            vec![from]
                        } else {
                            vec![]
                        };
                        if sends.is_empty() && recvs.is_empty() {
                            None
                        } else {
                            Some(Op::Transfer { sends, recvs })
                        }
                    })
                    .collect()
            })
            .collect()
    }

    fn nonblocking_programs(&self) -> Vec<Vec<Op>> {
        let n = self.n();
        (0..n)
            .map(|i| {
                let sends: Vec<(Rank, u64)> = (1..n)
                    .map(|t| (i + t) % n)
                    .filter(|&j| self.bytes(i, j) > 0)
                    .map(|j| (j, self.bytes(i, j)))
                    .collect();
                let recvs: Vec<Rank> = (1..n)
                    .map(|t| (i + n - t) % n)
                    .filter(|&j| self.bytes(j, i) > 0)
                    .collect();
                if sends.is_empty() && recvs.is_empty() {
                    vec![]
                } else {
                    vec![Op::Transfer { sends, recvs }]
                }
            })
            .collect()
    }
}

/// An `n × n` matrix with roughly `density` of its blocks non-zero, a
/// non-zero diagonal (which both sides must ignore), and a few rows and
/// columns forced empty.
fn random_sizes(n: usize, density: f64, seed: u64) -> Vec<Vec<u64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let empty_row = rng.gen_range(0..n);
    let empty_col = rng.gen_range(0..n);
    (0..n)
        .map(|i| {
            (0..n)
                .map(|j| {
                    if i == j {
                        rng.gen_range(1..100)
                    } else if i == empty_row || j == empty_col || !rng.gen_bool(density) {
                        0
                    } else {
                        rng.gen_range(1..1_000_000)
                    }
                })
                .collect()
        })
        .collect()
}

fn check_matches_dense(sizes: Vec<Vec<u64>>) -> Result<(), TestCaseError> {
    let dense = Dense {
        sizes: sizes.clone(),
    };
    let n = dense.n();
    let sparse = ExchangeMatrix::new(sizes);
    prop_assert_eq!(sparse.n(), n);
    for i in 0..n {
        for j in 0..n {
            prop_assert_eq!(sparse.bytes(i, j), dense.bytes(i, j), "bytes {}->{}", i, j);
        }
        prop_assert_eq!(sparse.send_volume(i), dense.send_volume(i));
        prop_assert_eq!(sparse.recv_volume(i), dense.recv_volume(i));
    }
    let blocks: Vec<(Rank, Rank, u64)> = (0..n)
        .flat_map(|i| (0..n).map(move |j| (i, j)))
        .map(|(i, j)| (i, j, dense.bytes(i, j)))
        .filter(|&(_, _, b)| b > 0)
        .collect();
    prop_assert_eq!(sparse.blocks().collect::<Vec<_>>(), blocks.clone());
    prop_assert_eq!(ExchangeMatrix::from_blocks(n, blocks), sparse.clone());
    prop_assert_eq!(
        sparse.direct_exchange_programs(),
        dense.direct_exchange_programs()
    );
    prop_assert_eq!(sparse.nonblocking_programs(), dense.nonblocking_programs());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn sparse_matrix_matches_the_dense_reference(
        n in 1usize..14,
        density in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        check_matches_dense(random_sizes(n, density, seed))?;
    }
}

#[test]
fn all_zero_and_full_matrices_match_the_dense_reference() {
    for n in 1..6 {
        check_matches_dense(vec![vec![0; n]; n]).unwrap();
        check_matches_dense(vec![vec![7; n]; n]).unwrap();
    }
    assert_eq!(
        ExchangeMatrix::uniform(5, 7),
        ExchangeMatrix::new(vec![vec![7; 5]; 5])
    );
}

#[test]
#[should_panic(expected = "row-major")]
fn out_of_order_blocks_are_rejected() {
    let _ = ExchangeMatrix::from_blocks(3, [(1, 0, 5), (0, 2, 5)]);
}
