//! The figure-grid workloads: their inputs, their job lists, and the
//! configuration each job runs under.

use cosmos_common::Trace;
use cosmos_core::{Design, SimConfig};
use cosmos_experiments::runner::Job;
use cosmos_experiments::{trace_of, GraphSet};
use cosmos_sampling::SamplingConfig;
use cosmos_telemetry::Telemetry;
use cosmos_workloads::{TraceSpec, Workload as Suite};
use std::time::Instant;

/// The Fig. 10 design set, in the figure's job order: NP, then the four
/// plotted designs.
const IRREGULAR_DESIGNS: [Design; 5] = [
    Design::Np,
    Design::MorphCtr,
    Design::CosmosCp,
    Design::CosmosDp,
    Design::Cosmos,
];

/// One benchmark workload: a figure grid at a fixed per-trace budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 10: 11 irregular traces × 5 designs, full simulation.
    IrregularGrid,
    /// `IrregularGrid` under representative-interval sampling.
    IrregularSampled,
    /// `IrregularGrid` with telemetry recording and exporting.
    IrregularTelemetry,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::IrregularGrid,
        Workload::IrregularSampled,
        Workload::IrregularTelemetry,
    ];

    /// The workload's command-line name.
    pub const fn name(self) -> &'static str {
        match self {
            Workload::IrregularGrid => "irregular_grid",
            Workload::IrregularSampled => "irregular_sampled",
            Workload::IrregularTelemetry => "irregular_telemetry",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Accesses per trace, sized so that a pass of the grid on one worker
    /// takes 5–8 s and a 40 s run fits three passes after the ~17 s of
    /// graph generation. The sampled grid runs at 1M, where sampling still
    /// simulates under a third of each trace; telemetry at 100k because
    /// its export, not the simulation, dominates a pass.
    pub const fn accesses(self) -> usize {
        match self {
            Workload::IrregularGrid => 400_000,
            Workload::IrregularSampled => 1_000_000,
            Workload::IrregularTelemetry => 100_000,
        }
    }

    /// Whether jobs run sampled instead of over the full trace.
    pub const fn sampled(self) -> bool {
        matches!(self, Workload::IrregularSampled)
    }

    /// Whether jobs record telemetry.
    pub const fn telemetry(self) -> bool {
        matches!(self, Workload::IrregularTelemetry)
    }
}

/// A workload's generated traces and what generating them cost.
pub struct Inputs {
    /// `(name, trace)` in suite order.
    pub traces: Vec<(&'static str, Trace)>,
    /// Host seconds generating the graph.
    pub graph_gen_s: f64,
    /// Host seconds generating the traces from it.
    pub trace_gen_s: f64,
}

impl Inputs {
    /// Generates the workload's traces from `seed` exactly as Fig. 10's
    /// binary does: `TraceSpec::paper_default`, one shared graph for the
    /// graph kernels.
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let spec = TraceSpec::paper_default(workload.accesses(), seed);
        let t = Instant::now();
        let set = GraphSet::new(spec);
        let graph_gen_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let traces = Suite::irregular_suite()
            .into_iter()
            .map(|w| {
                let trace = match w {
                    Suite::Graph(k) => set.trace(k),
                    _ => trace_of(w, set.spec()),
                };
                (w.name(), trace)
            })
            .collect();
        Inputs {
            traces,
            graph_gen_s,
            trace_gen_s: t.elapsed().as_secs_f64(),
        }
    }
}

/// One grid point: a design over one of the inputs' traces.
#[derive(Clone, Debug)]
pub struct Cell {
    /// `trace/design`, the figure binaries' job label.
    pub label: String,
    /// The design simulated.
    pub design: Design,
    /// Index into [`Inputs::traces`].
    pub trace: usize,
}

/// A workload's job grid over generated inputs.
pub struct Grid<'a> {
    /// The workload this grid belongs to.
    pub workload: Workload,
    /// Trace and predictor seed.
    pub seed: u64,
    /// The traces the cells index.
    pub inputs: &'a Inputs,
    /// Every job, in figure order (trace-major).
    pub cells: Vec<Cell>,
    telemetry: Telemetry,
}

impl<'a> Grid<'a> {
    /// The grid of `workload` over `inputs`; `telemetry` is scoped per job
    /// the way `run_grid` scopes `--telemetry`.
    pub fn new(workload: Workload, seed: u64, inputs: &'a Inputs, telemetry: Telemetry) -> Self {
        let mut cells = Vec::new();
        for (trace, (name, _)) in inputs.traces.iter().enumerate() {
            for design in IRREGULAR_DESIGNS {
                cells.push(Cell {
                    label: format!("{name}/{design}"),
                    design,
                    trace,
                });
            }
        }
        Self {
            workload,
            seed,
            inputs,
            cells,
            telemetry,
        }
    }

    /// The trace `cell` runs over.
    pub fn trace(&self, cell: &Cell) -> &'a Trace {
        &self.inputs.traces[cell.trace].1
    }

    /// The sampling configuration every job uses, when sampled.
    pub fn sampling(&self) -> Option<SamplingConfig> {
        self.workload
            .sampled()
            .then(|| SamplingConfig::for_trace(self.workload.accesses()))
    }

    /// The runner job for cell `i`.
    pub fn job(&self, i: usize) -> Job<'a> {
        let cell = &self.cells[i];
        Job::new(cell.label.clone(), cell.design, self.trace(cell), self.seed)
            .with_sample(self.sampling())
            .with_telemetry(self.telemetry.scope(&cell.label))
    }

    /// Every job, in cell order.
    pub fn jobs(&self) -> Vec<Job<'a>> {
        (0..self.cells.len()).map(|i| self.job(i)).collect()
    }

    /// The configuration cell `i`'s job simulates under, with `telemetry`
    /// in place of the job's own handle — what the runner builds.
    pub fn config(&self, i: usize, telemetry: Telemetry) -> SimConfig {
        let mut config = SimConfig::paper_default(self.cells[i].design);
        config.seed = self.seed;
        config.telemetry = telemetry;
        config
    }

    /// Full-trace accesses the grid covers, summed over jobs.
    pub fn accesses(&self) -> u64 {
        self.cells.iter().map(|c| self.trace(c).len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }

    #[test]
    fn grid_shape_matches_the_figure() {
        let inputs = Inputs {
            traces: (0..Suite::irregular_suite().len())
                .map(|_| ("t", Trace::new()))
                .collect(),
            graph_gen_s: 0.0,
            trace_gen_s: 0.0,
        };
        for w in Workload::ALL {
            assert_eq!(
                Grid::new(w, 1, &inputs, Telemetry::disabled()).cells.len(),
                55
            );
        }
    }
}
