//! The unified workload catalogue.

use crate::graph::{Graph, GraphKernel, GraphKind, GraphLayout, LayoutMode};
use crate::ml::MlModel;
use crate::spec::SpecKind;
use cosmos_common::{PhysAddr, Trace};

/// Any workload the COSMOS evaluation uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Workload {
    /// A GraphBIG kernel over a synthetic scale-free graph.
    Graph(GraphKernel),
    /// A SPEC-like irregular workload.
    Spec(SpecKind),
    /// An ML inference workload.
    Ml(MlModel),
}

impl Workload {
    /// The paper's irregular set: 8 graph kernels + 3 SPEC benchmarks
    /// (Figure 10's x-axis).
    pub fn irregular_suite() -> Vec<Workload> {
        GraphKernel::all()
            .into_iter()
            .map(Workload::Graph)
            .chain(SpecKind::all().into_iter().map(Workload::Spec))
            .collect()
    }

    /// The 8 graph kernels only (Figures 2, 4, 11–14).
    pub fn graph_suite() -> Vec<Workload> {
        GraphKernel::all()
            .into_iter()
            .map(Workload::Graph)
            .collect()
    }

    /// The Figure-17 ML set.
    pub fn ml_suite() -> Vec<Workload> {
        MlModel::figure17().into_iter().map(Workload::Ml).collect()
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Graph(k) => k.name(),
            Workload::Spec(s) => s.name(),
            Workload::Ml(m) => m.name(),
        }
    }

    /// Generates the trace described by `spec`.
    pub fn generate(&self, spec: &TraceSpec) -> Trace {
        match self {
            Workload::Graph(kernel) => {
                let (graph, layout) = spec.build_graph();
                kernel.generate(&graph, &layout, spec.cores, spec.accesses, spec.seed)
            }
            Workload::Spec(kind) => {
                kind.generate(spec.spec_footprint, spec.cores, spec.accesses, spec.seed)
            }
            Workload::Ml(model) => model.generate(spec.cores, spec.accesses, spec.seed),
        }
    }
}

impl core::fmt::Display for Workload {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Scale parameters for trace generation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceSpec {
    /// Number of cores (threads).
    pub cores: usize,
    /// Total access budget.
    pub accesses: usize,
    /// RNG seed (trace generation is deterministic given the spec).
    pub seed: u64,
    /// Graph family for graph workloads.
    pub graph_kind: GraphKind,
    /// Graph vertex count.
    pub graph_vertices: usize,
    /// Graph average out-degree.
    pub graph_degree: usize,
    /// SPEC-like working-set size in bytes.
    pub spec_footprint: u64,
    /// Graph memory layout (object layout reproduces GraphBIG's irregular
    /// placement; CSR is the cache-friendly ablation).
    pub graph_layout: LayoutMode,
}

impl TraceSpec {
    /// The paper-scale configuration: 4 cores, an RMAT graph whose CSR +
    /// property footprint (~200 MB) far exceeds the 8 MB LLC, and 64 MB
    /// SPEC working sets.
    pub fn paper_default(accesses: usize, seed: u64) -> Self {
        Self {
            cores: 4,
            accesses,
            seed,
            graph_kind: GraphKind::Rmat,
            graph_vertices: 1 << 22,
            graph_degree: 12,
            spec_footprint: 256 << 20,
            graph_layout: LayoutMode::Object,
        }
    }

    /// A miniature configuration for unit/integration tests: small graph,
    /// small budgets, fast to generate.
    pub fn small_test(seed: u64) -> Self {
        Self {
            cores: 4,
            accesses: 20_000,
            seed,
            graph_kind: GraphKind::Rmat,
            graph_vertices: 4096,
            graph_degree: 8,
            spec_footprint: 8 << 20,
            graph_layout: LayoutMode::Object,
        }
    }

    /// Generates the spec's graph and lays it out in memory: the one place
    /// that fixes where graph workloads live (base 4 MiB) and how many
    /// per-vertex property arrays they carry (2).
    ///
    /// # Panics
    ///
    /// Panics where [`Graph::generate`] does: an empty or oversize graph.
    pub fn build_graph(&self) -> (Graph, GraphLayout) {
        let graph = Graph::generate(
            self.graph_kind,
            self.graph_vertices,
            self.graph_degree,
            self.seed,
        );
        let layout = GraphLayout::new(
            self.graph_layout,
            PhysAddr::new(1 << 22),
            graph.num_vertices() as u64,
            graph.num_edges() as u64,
            2,
        );
        (graph, layout)
    }

    /// Returns a copy with a different access budget.
    pub fn with_accesses(mut self, accesses: usize) -> Self {
        self.accesses = accesses;
        self
    }

    /// Returns a copy with a different core count.
    pub fn with_cores(mut self, cores: usize) -> Self {
        self.cores = cores;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_have_expected_members() {
        assert_eq!(Workload::irregular_suite().len(), 11);
        assert_eq!(Workload::graph_suite().len(), 8);
        assert_eq!(Workload::ml_suite().len(), 6);
    }

    #[test]
    fn every_workload_generates() {
        let spec = TraceSpec::small_test(1).with_accesses(5_000);
        for w in Workload::irregular_suite()
            .into_iter()
            .chain(Workload::ml_suite())
        {
            let t = w.generate(&spec);
            assert!(
                t.len() >= 4_900 && t.len() <= 5_100,
                "{w}: got {} accesses",
                t.len()
            );
        }
    }

    #[test]
    fn spec_builders() {
        let s = TraceSpec::small_test(0).with_accesses(99).with_cores(8);
        assert_eq!(s.accesses, 99);
        assert_eq!(s.cores, 8);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Workload::irregular_suite()
            .into_iter()
            .chain(Workload::ml_suite())
            .map(|w| w.name())
            .collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
