//! Seeded differential fuzzing: random configurations × random synthetic
//! traces through every oracle, with failure shrinking.
//!
//! A [`FuzzCase`] is fully determined by its seed, so any failure is
//! reproducible from the one number. On failure the trace is shrunk with
//! a ddmin-style chunk-removal loop to a (locally) minimal reproduction,
//! and a JSON repro document is written under `results/`.

use crate::invariants::Violation;
use crate::runner::{run_checked, CheckReport};
use cosmos_cache::PrefetcherKind;
use cosmos_common::json::{json, Value};
use cosmos_common::{MemAccess, PhysAddr, SplitMix64, Trace};
use cosmos_core::{Design, FrontEndStream, SimConfig, Simulator};
use cosmos_secure::CounterScheme;
use std::sync::Arc;

const DESIGNS: [Design; 7] = [
    Design::Np,
    Design::MorphCtr,
    Design::Emcc,
    Design::Rmcc,
    Design::CosmosDp,
    Design::CosmosCp,
    Design::Cosmos,
];

const SCHEMES: [CounterScheme; 3] = [
    CounterScheme::Monolithic,
    CounterScheme::Split,
    CounterScheme::MorphCtr,
];

/// One randomly generated configuration + trace recipe.
#[derive(Clone, Debug)]
pub struct FuzzCase {
    /// Seed this case was generated from (reproduces everything).
    pub seed: u64,
    /// Design under test.
    pub design: Design,
    /// Counter scheme.
    pub scheme: CounterScheme,
    /// CTR-cache prefetcher.
    pub prefetcher: PrefetcherKind,
    /// Synthetic-trace length.
    pub accesses: usize,
    /// Distinct cache lines the trace draws from (footprint).
    pub lines: u64,
    /// Write probability.
    pub write_frac: f64,
    /// Core count.
    pub cores: usize,
}

impl FuzzCase {
    /// Derives a case deterministically from `seed`, bounded by
    /// `max_accesses`.
    pub fn generate(seed: u64, max_accesses: usize) -> Self {
        let mut rng = SplitMix64::new(seed);
        let design = DESIGNS[rng.next_index(DESIGNS.len())];
        let scheme = SCHEMES[rng.next_index(SCHEMES.len())];
        // Prefetchers only make sense on a secure CTR cache; exercise them
        // on a quarter of the secure cases.
        let prefetcher = if design.is_secure() && rng.chance(0.25) {
            [PrefetcherKind::NextLine, PrefetcherKind::Stride][rng.next_index(2)]
        } else {
            PrefetcherKind::None
        };
        // Footprints from counter-hammering (tiny) to cache-thrashing.
        let lines = [64, 512, 4_096, 65_536][rng.next_index(4)];
        Self {
            seed,
            design,
            scheme,
            prefetcher,
            accesses: max_accesses / 2 + rng.next_index(max_accesses / 2 + 1),
            lines,
            write_frac: 0.05 + 0.85 * rng.next_f64(),
            cores: 1 + rng.next_index(4),
        }
    }

    /// The (deliberately small) simulator configuration for this case.
    pub fn config(&self) -> SimConfig {
        let mut c = SimConfig::paper_default(self.design);
        c.cores = self.cores;
        c.l1.size_bytes = 4 * 1024;
        c.l2.size_bytes = 16 * 1024;
        c.llc.size_bytes = 64 * 1024;
        c.ctr_cache.size_bytes = 8 * 1024;
        c.mt_cache.size_bytes = 8 * 1024;
        c.scheme = self.scheme;
        c.ctr_prefetcher = self.prefetcher;
        c.protected_bytes = 1 << 30;
        c.seed = cosmos_common::rng::streams::FUZZ_CONFIG.derive_seed(self.seed);
        c
    }

    /// The synthetic trace for this case.
    pub fn trace(&self) -> Trace {
        let mut rng = cosmos_common::rng::streams::FUZZ_TRACE.derive(self.seed);
        (0..self.accesses)
            .map(|_| {
                let addr = PhysAddr::new(rng.next_below(self.lines) * 64);
                let core = rng.next_index(self.cores) as u8;
                let gap = rng.next_index(4) as u32;
                if rng.chance(self.write_frac) {
                    MemAccess::write(core, addr, gap)
                } else {
                    MemAccess::read(core, addr, gap)
                }
            })
            .collect()
    }
}

/// A failed case: the violations found and the (possibly shrunk) trace
/// that reproduces them.
#[derive(Debug)]
pub struct FuzzFailure {
    /// The generating case.
    pub case: FuzzCase,
    /// Violations from the original run.
    pub violations: Vec<Violation>,
    /// Shrunk reproduction trace.
    pub trace: Trace,
}

/// Runs every oracle over `trace` under `config`; returns violations
/// (empty = clean). Beyond the oracles, the checked run's statistics must
/// be byte-identical to an unchecked run — a divergence means the
/// observer perturbed the simulation, itself a reportable bug — and so
/// must a run replaying the trace's recorded front end, the fast path the
/// experiment runner takes for grids of full runs.
pub fn check_once(config: &SimConfig, trace: &Trace) -> (CheckReport, Vec<Violation>) {
    let (stats, report) = run_checked(config, trace);
    let mut violations = report.violations.clone();
    let plain = Simulator::new(config.clone()).run(trace);
    if stats != plain {
        violations.push(Violation::new(
            "checked-run-divergence",
            "checked run produced different statistics than the unchecked run".to_string(),
        ));
    }
    let stream = Arc::new(FrontEndStream::record(config, trace));
    if Simulator::replaying(config.clone(), stream).run(trace) != plain {
        violations.push(Violation::new(
            "replay-divergence",
            "replaying the recorded front end produced different statistics than the live run"
                .to_string(),
        ));
    }
    (report, violations)
}

/// Runs one case; `Some` on failure.
pub fn run_case(case: &FuzzCase) -> Option<FuzzFailure> {
    let config = case.config();
    let trace = case.trace();
    let (report, mut violations) = check_once(&config, &trace);
    if violations.is_empty() && report.is_clean() {
        return None;
    }
    if violations.is_empty() {
        // Retained list was truncated but the total count is non-zero.
        violations.push(Violation::new("violations-truncated", report.summary()));
    }
    let shrunk = shrink(&config, trace);
    Some(FuzzFailure {
        case: case.clone(),
        violations,
        trace: shrunk,
    })
}

/// ddmin-lite: repeatedly tries dropping chunks of the trace while the
/// failure persists, halving chunk size until single accesses; bounded so
/// shrinking never dominates the run.
pub fn shrink(config: &SimConfig, trace: Trace) -> Trace {
    let still_fails = |accesses: &[MemAccess]| -> bool {
        let t: Trace = accesses.iter().copied().collect();
        !check_once(config, &t).1.is_empty()
    };
    let mut current: Vec<MemAccess> = trace.iter().copied().collect();
    if !still_fails(&current) {
        return current.into_iter().collect(); // flaky failure; keep as-is
    }
    let mut chunk = (current.len() / 2).max(1);
    let mut budget = 200; // bounded number of candidate re-runs
    while chunk >= 1 && budget > 0 {
        let mut start = 0;
        let mut removed_any = false;
        while start < current.len() && budget > 0 {
            let end = (start + chunk).min(current.len());
            let mut candidate = Vec::with_capacity(current.len() - (end - start));
            candidate.extend_from_slice(&current[..start]);
            candidate.extend_from_slice(&current[end..]);
            budget -= 1;
            if !candidate.is_empty() && still_fails(&candidate) {
                current = candidate;
                removed_any = true;
                // keep `start`: the next chunk slid into place
            } else {
                start = end;
            }
        }
        if !removed_any {
            if chunk == 1 {
                break;
            }
            chunk /= 2;
        }
    }
    current.into_iter().collect()
}

/// The repro document written for a failure.
pub fn failure_json(f: &FuzzFailure) -> Value {
    let violations: Vec<Value> = f
        .violations
        .iter()
        .take(16)
        .map(|v| {
            let name = v.name;
            let detail = v.detail.clone();
            json!({ "name": name, "detail": detail })
        })
        .collect();
    let trace: Vec<Value> = f
        .trace
        .iter()
        .take(4096)
        .map(|a| {
            let core = a.core;
            let write = a.kind.is_write();
            let addr = a.addr.value();
            let gap = a.inst_gap;
            json!({ "core": core, "write": write, "addr": addr, "gap": gap })
        })
        .collect();
    let mut doc = cosmos_common::json::Map::new();
    doc.insert("seed", json!(f.case.seed));
    doc.insert("design", json!(f.case.design.name()));
    doc.insert("scheme", json!(format!("{:?}", f.case.scheme)));
    doc.insert("prefetcher", json!(format!("{:?}", f.case.prefetcher)));
    doc.insert("cores", json!(f.case.cores));
    doc.insert("accesses", json!(f.case.accesses));
    doc.insert("lines", json!(f.case.lines));
    doc.insert("write_frac", json!(f.case.write_frac));
    doc.insert("shrunk_len", json!(f.trace.len()));
    doc.insert("violations", Value::from(violations));
    doc.insert("shrunk_trace", Value::from(trace));
    Value::Object(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic_in_seed() {
        let a = FuzzCase::generate(42, 4_000);
        let b = FuzzCase::generate(42, 4_000);
        assert_eq!(a.design, b.design);
        assert_eq!(a.accesses, b.accesses);
        assert_eq!(a.trace(), b.trace());
    }

    #[test]
    fn a_spread_of_seeds_runs_clean() {
        for seed in 0..6 {
            let case = FuzzCase::generate(seed, 3_000);
            let failure = run_case(&case);
            assert!(
                failure.is_none(),
                "seed {seed} ({:?}) failed: {:#?}",
                case,
                failure.map(|f| f.violations)
            );
        }
    }

    #[test]
    fn shrink_reduces_a_synthetic_failure() {
        // An impossible config is not constructible from safe code, so
        // exercise the shrinker's mechanics with an always-failing oracle
        // by shrinking against a predicate: drop to the smallest trace
        // whose check still "fails". We emulate this by shrinking a clean
        // trace (no failure): shrink must return it untouched.
        let case = FuzzCase::generate(3, 1_000);
        let config = case.config();
        let trace = case.trace();
        let shrunk = shrink(&config, trace.clone());
        assert_eq!(shrunk, trace, "clean traces must shrink to themselves");
    }

    #[test]
    fn failure_json_is_self_contained() {
        let case = FuzzCase::generate(9, 500);
        let f = FuzzFailure {
            case: case.clone(),
            violations: vec![Violation::new("demo", "synthetic".to_string())],
            trace: case.trace(),
        };
        let v = failure_json(&f);
        assert_eq!(v.get("seed").and_then(|s| s.as_u64()), Some(9));
        assert!(v.get("violations").is_some());
        assert!(v.pretty().contains("demo"));
    }
}
