//! The correctness gate: a SHA-256 of each job's `SimStats::to_json()`,
//! compared against the digests committed in `digests.json` for the
//! workload's budget and seed.

use cosmos_common::json::{parse, Map, Value};
use cosmos_core::SimStats;
use cosmos_crypto::Sha256;

/// The committed expectations: `{workload: {"accesses": n, "seeds":
/// {seed: {label: hex}}}}`.
const COMMITTED: &str = include_str!("../digests.json");

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The hex SHA-256 of `stats`' canonical JSON.
pub fn of(stats: &SimStats) -> String {
    hex(&Sha256::digest(stats.to_json().to_string().as_bytes()))
}

/// One hex SHA-256 over every job's `label=digest`, in job order: what two
/// processes that ran the same grid must agree on.
pub fn of_grid(jobs: &[(String, String)]) -> String {
    let mut h = Sha256::new();
    for (label, digest) in jobs {
        h.update(format!("{label}={digest}\n").as_bytes());
    }
    hex(&h.finalize())
}

/// What a grid's digests are checked against.
#[derive(Debug, PartialEq)]
pub enum Expected {
    /// Committed digests for this (workload, seed, budget).
    Committed(Map),
    /// The workload has committed digests, but for another budget: the
    /// committed table is stale, so every job fails until it is rebuilt.
    StaleBudget,
    /// Nothing committed for this seed.
    None,
}

/// Looks up the committed digests of `workload` at `accesses` per trace
/// and `seed`, in the document `doc`.
pub fn expected_in(doc: &Value, workload: &str, accesses: usize, seed: u64) -> Expected {
    let Some(entry) = doc.get(workload) else {
        return Expected::None;
    };
    if entry.get("accesses").and_then(Value::as_u64) != Some(accesses as u64) {
        return Expected::StaleBudget;
    }
    match entry
        .get("seeds")
        .and_then(|s| s.get(&seed.to_string()))
        .and_then(Value::as_object)
    {
        Some(map) => Expected::Committed(map.clone()),
        None => Expected::None,
    }
}

/// [`expected_in`] over the committed `digests.json`.
///
/// # Panics
///
/// Panics if the committed file does not parse (a broken checkout).
pub fn expected(workload: &str, accesses: usize, seed: u64) -> Expected {
    let doc = parse(COMMITTED).expect("digests.json parses");
    expected_in(&doc, workload, accesses, seed)
}

/// Per job, whether it fails the gate: its digest is missing (the job
/// panicked) or differs from the committed one. With nothing committed
/// only missing digests fail.
pub fn failures(jobs: &[(String, Option<String>)], expected: &Expected) -> Vec<bool> {
    jobs.iter()
        .map(|(label, digest)| match (digest, expected) {
            (None, _) | (_, Expected::StaleBudget) => true,
            (Some(d), Expected::Committed(map)) => {
                map.get(label).and_then(Value::as_str) != Some(d.as_str())
            }
            (Some(_), Expected::None) => false,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmos_common::json::json;

    fn jobs() -> Vec<(String, Option<String>)> {
        let a = SimStats::default();
        let b = SimStats {
            accesses: 1,
            ..SimStats::default()
        };
        vec![
            ("bfs/NP".to_string(), Some(of(&a))),
            ("bfs/COSMOS".to_string(), Some(of(&b))),
        ]
    }

    fn committed(jobs: &[(String, Option<String>)]) -> Value {
        let mut table = Map::new();
        for (label, d) in jobs {
            table.insert(label.clone(), json!(d.clone().expect("digest")));
        }
        let mut seeds = Map::new();
        seeds.insert("42", Value::Object(table));
        json!({"irregular_grid": {"accesses": 1000, "seeds": (Value::Object(seeds))}})
    }

    #[test]
    fn digest_is_hex_sha256_and_stat_sensitive() {
        let jobs = jobs();
        let (a, b) = (jobs[0].1.clone().unwrap(), jobs[1].1.clone().unwrap());
        assert_eq!(a.len(), 64);
        assert!(a.chars().all(|c| c.is_ascii_hexdigit()));
        assert_ne!(a, b);
        assert_eq!(of(&SimStats::default()), a);
    }

    #[test]
    fn matching_expectation_passes() {
        let jobs = jobs();
        let doc = committed(&jobs);
        let exp = expected_in(&doc, "irregular_grid", 1000, 42);
        assert!(matches!(exp, Expected::Committed(_)));
        assert_eq!(failures(&jobs, &exp), [false, false]);
    }

    #[test]
    fn gate_fires_on_a_perturbed_expectation() {
        let jobs = jobs();
        let mut doc = committed(&jobs);
        let Value::Object(root) = &mut doc else {
            unreachable!()
        };
        let table = root
            .get_mut("irregular_grid")
            .and_then(|w| match w {
                Value::Object(m) => m.get_mut("seeds"),
                _ => None,
            })
            .and_then(|s| match s {
                Value::Object(m) => m.get_mut("42"),
                _ => None,
            })
            .expect("seed table");
        let Value::Object(table) = table else {
            unreachable!()
        };
        let d = table.get("bfs/COSMOS").and_then(Value::as_str).unwrap();
        let flipped = if d.starts_with('0') { "1" } else { "0" }.to_string() + &d[1..];
        table.insert("bfs/COSMOS", json!(flipped));
        let exp = expected_in(&doc, "irregular_grid", 1000, 42);
        assert_eq!(failures(&jobs, &exp), [false, true]);
    }

    #[test]
    fn stale_budget_missing_digest_and_unknown_seed() {
        let jobs = jobs();
        let doc = committed(&jobs);
        assert_eq!(
            expected_in(&doc, "irregular_grid", 2000, 42),
            Expected::StaleBudget
        );
        assert_eq!(failures(&jobs, &Expected::StaleBudget), [true, true]);
        assert_eq!(expected_in(&doc, "irregular_grid", 1000, 9), Expected::None);
        assert_eq!(expected_in(&doc, "ml_stream", 1000, 42), Expected::None);
        let panicked = vec![("x".to_string(), None), jobs[0].clone()];
        assert_eq!(failures(&panicked, &Expected::None), [true, false]);
    }

    #[test]
    fn committed_file_parses() {
        for w in crate::grid::Workload::ALL {
            let _ = expected(w.name(), w.accesses(), 42);
        }
    }
}
