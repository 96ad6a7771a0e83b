//! Paper-scale pin: the digest of the 2^22-vertex, degree-12 RMAT graph
//! every irregular figure runs on. Any change to the generator's output —
//! the RNG stream, the quadrant draw, the modulo fold, or the CSR build —
//! moves these digests.
//!
//! Ignored by default (each graph takes seconds in release and far longer
//! in debug); `scripts/check.sh` runs it as the `graph-identity` stage:
//!
//! ```sh
//! cargo test --release -p cosmos-workloads -- --ignored
//! ```

use cosmos_crypto::Sha256;
use cosmos_workloads::graph::{Graph, GraphKind};
use cosmos_workloads::TraceSpec;

/// Hex SHA-256 of `row_ptr` then `col_idx`, each as little-endian `u32`s.
fn digest(g: &Graph) -> String {
    let mut h = Sha256::new();
    for words in [g.row_ptr(), g.col_idx()] {
        for chunk in words.chunks(1 << 16) {
            let bytes: Vec<u8> = chunk.iter().flat_map(|w| w.to_le_bytes()).collect();
            h.update(&bytes);
        }
    }
    h.finalize().iter().map(|b| format!("{b:02x}")).collect()
}

fn paper_graph(seed: u64) -> Graph {
    let spec = TraceSpec::paper_default(0, seed);
    assert_eq!(spec.graph_kind, GraphKind::Rmat);
    Graph::generate(
        spec.graph_kind,
        spec.graph_vertices,
        spec.graph_degree,
        spec.seed,
    )
}

#[test]
#[ignore = "paper-scale graphs; run with --release -- --ignored"]
fn paper_scale_rmat_digests_are_pinned() {
    for (seed, expected) in [
        (
            42,
            "01ed20c9b8b1116e02895c8a7f1e19b1cae73c2b5c22460982f088325b75df07",
        ),
        (
            7,
            "ad479000af240359edea25faa4cefca099985eede4f7d92e6ae616b204edc489",
        ),
    ] {
        let got = digest(&paper_graph(seed));
        assert_eq!(
            got, expected,
            "RMAT 2^22 x 12 graph changed for seed {seed}"
        );
    }
}
