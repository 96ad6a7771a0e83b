//! CSR graphs, synthetic generators, and the graph-kernel trace builders.

mod kernels;
mod layout;

pub use kernels::GraphKernel;
pub use layout::{GraphLayout, LayoutMode};

use cosmos_common::SplitMix64;

/// A directed graph in Compressed Sparse Row form.
///
/// # Examples
///
/// ```
/// use cosmos_workloads::graph::{Graph, GraphKind};
/// let g = Graph::generate(GraphKind::Rmat, 1024, 8, 42);
/// assert_eq!(g.num_vertices(), 1024);
/// assert!(g.num_edges() > 0);
/// ```
#[derive(Clone, Debug)]
pub struct Graph {
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
}

/// Synthetic graph families.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GraphKind {
    /// RMAT (Chakrabarti et al.) with (a,b,c,d) = (0.57, 0.19, 0.19, 0.05)
    /// — a skewed, scale-free degree distribution like real social
    /// networks (the paper's GitHub dataset).
    Rmat,
    /// Barabási–Albert preferential attachment.
    BarabasiAlbert,
    /// Uniform random (Erdős–Rényi-style) edges.
    Uniform,
}

impl Graph {
    /// Builds a graph from an edge list (duplicates kept, self-loops kept;
    /// CSR is sorted by source).
    ///
    /// # Panics
    ///
    /// Panics if `num_vertices` or `edges.len()` exceeds `u32::MAX` (the
    /// CSR arrays hold `u32` ids and offsets), or if an edge names a vertex
    /// outside `0..num_vertices`.
    pub fn from_edges(num_vertices: usize, edges: &[(u32, u32)]) -> Self {
        check_csr_size(num_vertices, edges.len());
        let mut degree = vec![0u32; num_vertices];
        for &(src, _) in edges {
            degree[src as usize] += 1;
        }
        let mut row_ptr = Vec::with_capacity(num_vertices + 1);
        let mut acc = 0u32;
        row_ptr.push(0);
        for &d in &degree {
            acc += d;
            row_ptr.push(acc);
        }
        let mut cursor: Vec<u32> = row_ptr[..num_vertices].to_vec();
        let mut col_idx = vec![0u32; edges.len()];
        for &(src, dst) in edges {
            let c = &mut cursor[src as usize];
            col_idx[*c as usize] = dst;
            *c += 1;
        }
        Self { row_ptr, col_idx }
    }

    /// Generates a synthetic graph with roughly `avg_degree` out-edges per
    /// vertex.
    ///
    /// Hub placement: RMAT and preferential attachment concentrate
    /// high-degree hubs at low vertex ids. We keep that by default — real
    /// frameworks routinely relabel vertices by degree for locality, and
    /// many real datasets (including the paper's GitHub network, whose ids
    /// follow account-creation order) correlate id with degree — so hot
    /// vertices share cache lines and counter blocks, which is the
    /// "hot CTR" structure COSMOS exploits. Pass `shuffle_ids = true` to
    /// [`Graph::generate_with`] for the uncorrelated ablation.
    ///
    /// # Panics
    ///
    /// Panics if `num_vertices == 0`, or if the graph would not fit the
    /// `u32` CSR: `num_vertices` above `u32::MAX`, or `num_vertices *
    /// avg_degree` edges above `u32::MAX` (or beyond `usize`). Oversize
    /// requests fail before anything is allocated.
    pub fn generate(kind: GraphKind, num_vertices: usize, avg_degree: usize, seed: u64) -> Self {
        Self::generate_with(kind, num_vertices, avg_degree, seed, false)
    }

    /// [`Graph::generate`] with control over vertex-id shuffling.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Graph::generate`].
    pub fn generate_with(
        kind: GraphKind,
        num_vertices: usize,
        avg_degree: usize,
        seed: u64,
        shuffle_ids: bool,
    ) -> Self {
        assert!(num_vertices > 0, "graph must have vertices");
        // A product beyond usize saturates, so it fails the edge limit too.
        let num_edges = num_vertices.saturating_mul(avg_degree);
        check_csr_size(num_vertices, num_edges);
        let mut rng = SplitMix64::new(seed);
        let mut edges = Vec::with_capacity(num_edges);
        match kind {
            GraphKind::Uniform => {
                for _ in 0..num_edges {
                    let s = rng.next_index(num_vertices) as u32;
                    let d = rng.next_index(num_vertices) as u32;
                    edges.push((s, d));
                }
            }
            GraphKind::Rmat => {
                let scale = num_vertices.next_power_of_two().trailing_zeros();
                for _ in 0..num_edges {
                    let (mut s, mut d) = (0u64, 0u64);
                    for _ in 0..scale {
                        let q = rmat_quadrant(rng.next_u64() >> 11);
                        s = (s << 1) | (q >> 1);
                        d = (d << 1) | (q & 1);
                    }
                    let s = (s as usize % num_vertices) as u32;
                    let d = (d as usize % num_vertices) as u32;
                    edges.push((s, d));
                }
            }
            GraphKind::BarabasiAlbert => {
                // Repeated-endpoint list: new edges attach proportionally to
                // degree.
                let mut endpoints: Vec<u32> = Vec::with_capacity(num_edges * 2);
                endpoints.push(0);
                for v in 0..num_vertices as u32 {
                    for _ in 0..avg_degree {
                        let target = if endpoints.is_empty() || rng.chance(0.1) {
                            rng.next_index(num_vertices) as u32
                        } else {
                            endpoints[rng.next_index(endpoints.len())]
                        };
                        edges.push((v, target));
                        endpoints.push(v);
                        endpoints.push(target);
                    }
                }
            }
        }
        if shuffle_ids {
            shuffle_vertex_ids(&mut rng, num_vertices, &mut edges);
        }
        Self::from_edges(num_vertices, &edges)
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.col_idx.len()
    }

    /// Out-degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: u32) -> u32 {
        self.row_ptr[v as usize + 1] - self.row_ptr[v as usize]
    }

    /// The CSR row-pointer array.
    pub fn row_ptr(&self) -> &[u32] {
        &self.row_ptr
    }

    /// The CSR adjacency array.
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// Neighbours of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let s = self.row_ptr[v as usize] as usize;
        let e = self.row_ptr[v as usize + 1] as usize;
        &self.col_idx[s..e]
    }
}

/// Rejects graphs whose ids or edge offsets would not fit the `u32` CSR
/// arrays, where they would otherwise wrap silently in release builds.
fn check_csr_size(num_vertices: usize, num_edges: usize) {
    assert!(
        num_vertices <= u32::MAX as usize,
        "graph of {num_vertices} vertices exceeds the u32 vertex-id limit ({})",
        u32::MAX
    );
    assert!(
        num_edges <= u32::MAX as usize,
        "graph of {num_edges} edges exceeds the u32 CSR offset limit ({})",
        u32::MAX
    );
}

/// Relabels `edges` through a Fisher–Yates permutation of the vertex ids
/// (see [`Graph::generate`] on hub placement).
fn shuffle_vertex_ids(rng: &mut SplitMix64, num_vertices: usize, edges: &mut [(u32, u32)]) {
    let mut perm: Vec<u32> = (0..num_vertices as u32).collect();
    for i in (1..num_vertices).rev() {
        let j = rng.next_index(i + 1);
        perm.swap(i, j);
    }
    for e in edges.iter_mut() {
        *e = (perm[e.0 as usize], perm[e.1 as usize]);
    }
}

/// The RMAT quadrant probabilities (a, b, c, d) = (0.57, 0.19, 0.19, 0.05)
/// as cumulative bounds `a`, `a + b`, `a + b + c`, each scaled to the
/// 53-bit draw behind [`SplitMix64::next_f64`]. Every bound lies in
/// `[0.5, 1)`, where an `f64`'s spacing is exactly `2^-53`, so `p * 2^53`
/// is an integer and `m * 2^-53 < p` holds exactly when `m < p * 2^53`:
/// the integer compare picks the same quadrant as the float compare.
const RMAT_BOUNDS: [u64; 3] = [rmat_bound(0.57), rmat_bound(0.76), rmat_bound(0.95)];

const fn rmat_bound(p: f64) -> u64 {
    (p * (1u64 << 53) as f64) as u64
}

/// The RMAT quadrant of a 53-bit draw `m` as `(source bit << 1) |
/// destination bit`: the number of cumulative bounds `m` reaches, which
/// compiles to flag arithmetic rather than a chain of unpredictable
/// branches.
#[inline]
fn rmat_quadrant(m: u64) -> u64 {
    u64::from(m >= RMAT_BOUNDS[0]) + u64::from(m >= RMAT_BOUNDS[1]) + u64::from(m >= RMAT_BOUNDS[2])
}

/// The float-compare RMAT generator that [`rmat_quadrant`] replaced, kept
/// as the oracle the integer draw must match edge for edge.
#[cfg(test)]
fn reference_rmat(num_vertices: usize, avg_degree: usize, seed: u64, shuffle_ids: bool) -> Graph {
    let mut rng = SplitMix64::new(seed);
    let num_edges = num_vertices * avg_degree;
    let mut edges = Vec::with_capacity(num_edges);
    let scale = num_vertices.next_power_of_two().trailing_zeros();
    for _ in 0..num_edges {
        let (mut s, mut d) = (0u64, 0u64);
        for _ in 0..scale {
            let r = rng.next_f64();
            // Quadrant probabilities (a, b, c, d).
            let (bs, bd) = if r < 0.57 {
                (0, 0)
            } else if r < 0.76 {
                (0, 1)
            } else if r < 0.95 {
                (1, 0)
            } else {
                (1, 1)
            };
            s = (s << 1) | bs;
            d = (d << 1) | bd;
        }
        let s = (s as usize % num_vertices) as u32;
        let d = (d as usize % num_vertices) as u32;
        edges.push((s, d));
    }
    if shuffle_ids {
        shuffle_vertex_ids(&mut rng, num_vertices, &mut edges);
    }
    Graph::from_edges(num_vertices, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn rmat_matches_float_compare_reference(
            n in 2usize..5000,
            deg in 1usize..16,
            seed in any::<u64>(),
            shuffle_ids in any::<bool>(),
        ) {
            let got = Graph::generate_with(GraphKind::Rmat, n, deg, seed, shuffle_ids);
            let want = reference_rmat(n, deg, seed, shuffle_ids);
            prop_assert_eq!(got.row_ptr(), want.row_ptr());
            prop_assert_eq!(got.col_idx(), want.col_idx());
        }
    }

    /// The seed whose first [`SplitMix64::next_u64`] is `x`: inverts the
    /// splitmix64 finalizer step by step.
    fn seed_yielding(x: u64) -> u64 {
        fn unxorshift(y: u64, k: u32) -> u64 {
            let mut z = y;
            for _ in 0..64 / k + 1 {
                z = y ^ (z >> k);
            }
            z
        }
        fn inverse(a: u64) -> u64 {
            // Newton's iteration doubles the correct low bits: 3 -> 96.
            let mut inv = a;
            for _ in 0..5 {
                inv = inv.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(inv)));
            }
            inv
        }
        let mut z = unxorshift(x, 31);
        z = unxorshift(z.wrapping_mul(inverse(0x94D0_49BB_1331_11EB)), 27);
        z = unxorshift(z.wrapping_mul(inverse(0xBF58_476D_1CE4_E5B9)), 30);
        z.wrapping_sub(0x9E37_79B9_7F4A_7C15)
    }

    #[test]
    fn integer_bounds_agree_with_next_f64_at_each_edge() {
        for (i, (&bound, p)) in RMAT_BOUNDS.iter().zip([0.57, 0.76, 0.95]).enumerate() {
            for (m, below) in [(bound - 1, true), (bound, false)] {
                let x = m << 11;
                let seed = seed_yielding(x);
                assert_eq!(SplitMix64::new(seed).next_u64(), x, "seed inversion");
                let r = SplitMix64::new(seed).next_f64();
                assert_eq!(r < p, below, "p = {p}, m = {m}, r = {r}");
                let quadrant = i as u64 + u64::from(!below);
                assert_eq!(rmat_quadrant(m), quadrant, "p = {p}, m = {m}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the u32 CSR offset limit")]
    fn oversize_edge_count_is_rejected_before_allocating() {
        // 2^20 vertices x degree 2^13 = 2^33 edges.
        Graph::generate(GraphKind::Rmat, 1 << 20, 1 << 13, 1);
    }

    #[test]
    #[should_panic(expected = "exceeds the u32 CSR offset limit")]
    fn overflowing_edge_product_is_rejected() {
        Graph::generate(GraphKind::Uniform, u32::MAX as usize, usize::MAX / 2, 1);
    }

    #[test]
    #[should_panic(expected = "exceeds the u32 vertex-id limit")]
    fn oversize_vertex_count_is_rejected() {
        Graph::generate(GraphKind::Uniform, (u32::MAX as usize) + 1, 0, 1);
    }

    #[test]
    fn csr_construction_from_edges() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (2, 3), (3, 0)]);
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[] as &[u32]);
        assert_eq!(g.neighbors(2), &[3]);
        assert_eq!(g.degree(3), 1);
    }

    #[test]
    fn generators_produce_requested_size() {
        for kind in [
            GraphKind::Rmat,
            GraphKind::Uniform,
            GraphKind::BarabasiAlbert,
        ] {
            let g = Graph::generate(kind, 500, 4, 1);
            assert_eq!(g.num_vertices(), 500, "{kind:?}");
            assert!(g.num_edges() >= 500 * 3, "{kind:?}: too few edges");
            for &c in g.col_idx() {
                assert!((c as usize) < 500, "{kind:?}: edge out of range");
            }
        }
    }

    #[test]
    fn rmat_degree_distribution_is_skewed() {
        let g = Graph::generate(GraphKind::Rmat, 4096, 8, 7);
        let mut degs: Vec<u32> = (0..4096u32).map(|v| g.degree(v)).collect();
        degs.sort_unstable_by(|a, b| b.cmp(a));
        let top = degs[..41].iter().map(|&d| d as u64).sum::<u64>();
        let total = degs.iter().map(|&d| d as u64).sum::<u64>();
        // Top 1% of vertices should hold far more than 1% of the edges.
        assert!(
            top as f64 / total as f64 > 0.05,
            "RMAT not skewed: top1% = {:.3}",
            top as f64 / total as f64
        );
    }

    #[test]
    fn uniform_degree_distribution_is_flat() {
        let g = Graph::generate(GraphKind::Uniform, 4096, 8, 7);
        let max = (0..4096u32).map(|v| g.degree(v)).max().unwrap();
        assert!(max < 40, "uniform degrees should concentrate, max={max}");
    }

    #[test]
    fn deterministic_generation() {
        let a = Graph::generate(GraphKind::Rmat, 256, 4, 9);
        let b = Graph::generate(GraphKind::Rmat, 256, 4, 9);
        assert_eq!(a.row_ptr(), b.row_ptr());
        assert_eq!(a.col_idx(), b.col_idx());
    }

    #[test]
    fn row_ptr_is_monotonic_and_complete() {
        let g = Graph::generate(GraphKind::BarabasiAlbert, 300, 5, 3);
        let rp = g.row_ptr();
        assert!(rp.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*rp.last().unwrap() as usize, g.num_edges());
    }
}
