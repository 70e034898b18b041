//! The general (irregular) total exchange — `MPI_Alltoallv`.
//!
//! The paper formalizes the *total exchange problem* on a weighted digraph
//! (§5) where every pair may carry a different payload; the uniform
//! All-to-All is the special case it then studies. This module schedules
//! the general case, so the MED machinery in `contention-model` (Claims
//! 1–3) can be validated against executable workloads.

use crate::ops::{Op, Rank};

/// A per-pair payload matrix: `bytes(i, j)` flow from rank `i` to rank
/// `j`. Only the non-zero off-diagonal blocks are stored, row by row in
/// ascending column order, so a permutation over `n` ranks costs `O(n)`
/// memory, not `O(n²)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExchangeMatrix {
    n: usize,
    /// Row `i`'s blocks are `cols[row_start[i]..row_start[i + 1]]`.
    row_start: Vec<usize>,
    cols: Vec<u32>,
    sizes: Vec<u64>,
}

impl ExchangeMatrix {
    /// Builds a matrix from dense rows, validating squareness. Zero
    /// entries mean no message; the diagonal is ignored.
    ///
    /// # Panics
    /// Panics if the matrix is not square or is empty.
    pub fn new(sizes: Vec<Vec<u64>>) -> Self {
        let n = sizes.len();
        assert!(
            sizes.iter().all(|row| row.len() == n),
            "exchange matrix must be square"
        );
        Self::from_blocks(
            n,
            sizes
                .iter()
                .enumerate()
                .flat_map(|(i, row)| row.iter().enumerate().map(move |(j, &b)| (i, j, b))),
        )
    }

    /// Builds a matrix over `n` ranks from `(src, dst, bytes)` blocks in
    /// row-major order (strictly increasing `(src, dst)`). Zero-byte and
    /// diagonal blocks are dropped.
    ///
    /// # Panics
    /// Panics if `n` is zero or exceeds `u32::MAX`, or if a block is out of
    /// range or out of order.
    pub fn from_blocks(n: usize, blocks: impl IntoIterator<Item = (Rank, Rank, u64)>) -> Self {
        assert!(n > 0, "empty exchange matrix");
        assert!(u32::try_from(n).is_ok(), "too many ranks: {n}");
        let mut row_start = Vec::with_capacity(n + 1);
        row_start.push(0);
        let (mut cols, mut sizes) = (Vec::new(), Vec::new());
        let mut last: Option<(Rank, Rank)> = None;
        for (i, j, bytes) in blocks {
            assert!(i < n && j < n, "block {i}->{j} out of range for {n} ranks");
            assert!(
                last.is_none_or(|prev| prev < (i, j)),
                "blocks must be in row-major order: {i}->{j} after {last:?}"
            );
            last = Some((i, j));
            if i == j || bytes == 0 {
                continue;
            }
            while row_start.len() <= i {
                row_start.push(cols.len());
            }
            cols.push(j as u32);
            sizes.push(bytes);
        }
        row_start.resize(n + 1, cols.len());
        Self {
            n,
            row_start,
            cols,
            sizes,
        }
    }

    /// The uniform All-to-All as a degenerate case.
    pub fn uniform(n: usize, m: u64) -> Self {
        Self::from_blocks(n, (0..n).flat_map(|i| (0..n).map(move |j| (i, j, m))))
    }

    /// Number of ranks.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Row `i`'s non-zero blocks as `(dst, bytes)`, ascending in `dst`.
    fn row(&self, i: Rank) -> impl Iterator<Item = (Rank, u64)> + Clone + '_ {
        let span = self.row_start[i]..self.row_start[i + 1];
        self.cols[span.clone()]
            .iter()
            .zip(&self.sizes[span])
            .map(|(&j, &b)| (j as Rank, b))
    }

    /// Every non-zero block as `(src, dst, bytes)`, in row-major order.
    pub fn blocks(&self) -> impl Iterator<Item = (Rank, Rank, u64)> + '_ {
        (0..self.n).flat_map(move |i| self.row(i).map(move |(j, b)| (i, j, b)))
    }

    /// Payload from `i` to `j` (zero on the diagonal).
    pub fn bytes(&self, i: Rank, j: Rank) -> u64 {
        let span = self.row_start[i]..self.row_start[i + 1];
        match self.cols[span.clone()].binary_search(&(j as u32)) {
            Ok(k) => self.sizes[span.start + k],
            Err(_) => 0,
        }
    }

    /// Total bytes rank `i` must send.
    pub fn send_volume(&self, i: Rank) -> u64 {
        self.row(i).map(|(_, b)| b).sum()
    }

    /// Total bytes rank `j` must receive.
    pub fn recv_volume(&self, j: Rank) -> u64 {
        self.blocks()
            .filter(|&(_, to, _)| to == j)
            .map(|(_, _, b)| b)
            .sum()
    }

    /// Per rank, the ranks it receives from, ascending (the transpose's
    /// rows, without their sizes).
    fn senders(&self) -> Vec<Vec<Rank>> {
        let mut senders = vec![Vec::new(); self.n];
        for (i, j, _) in self.blocks() {
            senders[j].push(i);
        }
        senders
    }

    /// Direct-exchange schedule with rotated destinations (Algorithm 1
    /// generalized): round `t`, rank `i` sends its block to `(i+t) mod n`
    /// if non-empty and receives from `(i−t) mod n` if that block exists.
    /// Rounds with neither are skipped.
    pub fn direct_exchange_programs(&self) -> Vec<Vec<Op>> {
        let n = self.n;
        let senders = self.senders();
        (0..n)
            .map(|i| {
                // Both lists come out ascending in the round `t`.
                let mut sends = self
                    .sends_from(i)
                    .map(|(j, b)| ((j + n - i) % n, j, b))
                    .peekable();
                let mut recvs = recv_order(i, &senders[i])
                    .map(|j| ((i + n - j) % n, j))
                    .peekable();
                let mut program = Vec::new();
                loop {
                    let t = match (sends.peek(), recvs.peek()) {
                        (None, None) => break,
                        (Some(s), None) => s.0,
                        (None, Some(r)) => r.0,
                        (Some(s), Some(r)) => s.0.min(r.0),
                    };
                    program.push(Op::Transfer {
                        sends: sends
                            .next_if(|s| s.0 == t)
                            .map(|(_, j, b)| (j, b))
                            .into_iter()
                            .collect(),
                        recvs: recvs
                            .next_if(|r| r.0 == t)
                            .map(|(_, j)| j)
                            .into_iter()
                            .collect(),
                    });
                }
                program
            })
            .collect()
    }

    /// Post-everything nonblocking schedule (what `MPI_Alltoallv` over
    /// isend/irecv does): sends rotate up from `i+1`, receives rotate down
    /// from `i−1`.
    pub fn nonblocking_programs(&self) -> Vec<Vec<Op>> {
        let senders = self.senders();
        (0..self.n)
            .map(|i| {
                let sends: Vec<(Rank, u64)> = self.sends_from(i).collect();
                let recvs: Vec<Rank> = recv_order(i, &senders[i]).collect();
                if sends.is_empty() && recvs.is_empty() {
                    vec![]
                } else {
                    vec![Op::Transfer { sends, recvs }]
                }
            })
            .collect()
    }

    /// Rank `i`'s blocks in send order: destinations `i+1, i+2, …` mod `n`.
    fn sends_from(&self, i: Rank) -> impl Iterator<Item = (Rank, u64)> + '_ {
        let span = self.row_start[i]..self.row_start[i + 1];
        let split = self.cols[span].partition_point(|&j| (j as Rank) < i);
        let row = self.row(i);
        row.clone().skip(split).chain(row.take(split))
    }
}

/// Rank `i`'s sources (ascending) in receive order: `i−1, i−2, …` mod `n`.
fn recv_order(i: Rank, sources: &[Rank]) -> impl Iterator<Item = Rank> + '_ {
    let split = sources.partition_point(|&j| j < i);
    sources[..split]
        .iter()
        .rev()
        .chain(sources[split..].iter().rev())
        .copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lopsided() -> ExchangeMatrix {
        // Rank 0 is a heavy producer; rank 2 receives nothing from 1.
        ExchangeMatrix::new(vec![
            vec![0, 1000, 2000, 3000],
            vec![10, 0, 0, 30],
            vec![1, 2, 0, 4],
            vec![100, 200, 300, 0],
        ])
    }

    #[test]
    fn volumes_sum_rows_and_columns() {
        let m = lopsided();
        assert_eq!(m.send_volume(0), 6000);
        assert_eq!(m.send_volume(1), 40);
        assert_eq!(m.recv_volume(2), 2300);
        assert_eq!(m.recv_volume(0), 111);
    }

    #[test]
    fn uniform_matches_alltoall() {
        let m = ExchangeMatrix::uniform(5, 64);
        for i in 0..5 {
            assert_eq!(m.send_volume(i), 4 * 64);
            assert_eq!(m.recv_volume(i), 4 * 64);
            assert_eq!(m.bytes(i, i), 0);
        }
    }

    #[test]
    fn schedules_cover_every_nonzero_block_once() {
        let m = lopsided();
        for programs in [m.direct_exchange_programs(), m.nonblocking_programs()] {
            let n = m.n();
            let mut sent = vec![vec![0u64; n]; n];
            let mut recv_posted = vec![vec![0usize; n]; n];
            for (i, prog) in programs.iter().enumerate() {
                for op in prog {
                    if let Op::Transfer { sends, recvs } = op {
                        for &(to, bytes) in sends {
                            sent[i][to] += bytes;
                        }
                        for &from in recvs {
                            recv_posted[from][i] += 1;
                        }
                    }
                }
            }
            for i in 0..n {
                for j in 0..n {
                    assert_eq!(sent[i][j], m.bytes(i, j), "{i}->{j}");
                    let expected = usize::from(m.bytes(i, j) > 0);
                    assert_eq!(recv_posted[i][j], expected, "recv {i}->{j}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "square")]
    fn ragged_matrix_rejected() {
        let _ = ExchangeMatrix::new(vec![vec![0, 1], vec![2]]);
    }

    #[test]
    fn zero_blocks_are_skipped() {
        let m = ExchangeMatrix::new(vec![vec![0, 0], vec![5, 0]]);
        let progs = m.direct_exchange_programs();
        // Rank 0 only receives; rank 1 only sends.
        let count_ops = |p: &Vec<Op>| p.len();
        assert_eq!(count_ops(&progs[0]), 1);
        assert_eq!(count_ops(&progs[1]), 1);
    }
}
