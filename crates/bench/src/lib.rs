//! # ace-bench — figure/table reproduction harness
//!
//! One function per paper figure or table (see [`figures`]); the binaries
//! in `src/bin/` are thin wrappers that run a figure at the selected
//! [`Scale`], print its table(s) and write an
//! [`ace_metrics::ExperimentRecord`] JSON under `target/experiments/`.
//!
//! Scale selection via environment:
//!
//! * `QUICK=1` — smoke-test scale (seconds);
//! * default — laptop scale (minutes for the full set);
//! * `FULL=1` — the paper's 20,000-node physical topology.

pub mod figures;
pub mod gate;
pub mod matrix;
pub mod qps;
pub mod scale;
pub mod soak;

use std::path::PathBuf;

use ace_metrics::{ExperimentRecord, Table};

/// Experiment scale.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Tiny smoke-test runs (CI-friendly).
    Quick,
    /// Laptop-scale defaults used for the checked-in EXPERIMENTS.md.
    Default,
    /// The paper's scale (20,000 physical nodes, thousands of peers).
    Paper,
}

impl Scale {
    /// Reads the scale from `QUICK` / `FULL` environment variables.
    pub fn from_env() -> Scale {
        let set = |k: &str| std::env::var(k).is_ok_and(|v| v == "1" || v == "true");
        if set("FULL") {
            Scale::Paper
        } else if set("QUICK") {
            Scale::Quick
        } else {
            Scale::Default
        }
    }

    /// Number of logical peers for the main experiments.
    pub fn peers(self) -> usize {
        match self {
            Scale::Quick => 120,
            Scale::Default => 800,
            Scale::Paper => 4000,
        }
    }

    /// `(as_count, nodes_per_as)` of the two-level physical topology.
    pub fn phys(self) -> (usize, usize) {
        match self {
            Scale::Quick => (4, 100),
            Scale::Default => (10, 400),
            Scale::Paper => (20, 1000), // the paper's 20,000 nodes
        }
    }

    /// Optimization steps for static runs.
    pub fn steps(self) -> usize {
        match self {
            Scale::Quick => 6,
            _ => 14,
        }
    }

    /// Query samples per measurement point.
    pub fn samples(self) -> usize {
        match self {
            Scale::Quick => 16,
            Scale::Default => 48,
            Scale::Paper => 64,
        }
    }

    /// Peers for the (more expensive) closure-depth sweeps.
    pub fn sweep_peers(self) -> usize {
        match self {
            Scale::Quick => 100,
            Scale::Default => 400,
            Scale::Paper => 1200, // deep closures are O(n²)-ish; capped
        }
    }

    /// Total queries for dynamic runs.
    pub fn dynamic_queries(self) -> u64 {
        match self {
            Scale::Quick => 600,
            Scale::Default => 4000,
            Scale::Paper => 20_000,
        }
    }
}

/// Directory where experiment JSON records are written.
pub fn out_dir() -> PathBuf {
    PathBuf::from("target/experiments")
}

/// Prints tables and persists the record; the standard tail of every
/// figure binary.
pub fn emit(record: &ExperimentRecord, tables: &[Table]) {
    println!("== {} — {} ==", record.id, record.title);
    for (k, v) in &record.params {
        println!("   {k} = {v}");
    }
    println!();
    for t in tables {
        println!("{}", t.render());
    }
    match record.write_to_dir(&out_dir()) {
        Ok(path) => println!("[saved {}]", path.display()),
        Err(e) => eprintln!("[warn: could not save record: {e}]"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parameters_are_ordered() {
        assert!(Scale::Quick.peers() < Scale::Default.peers());
        assert!(Scale::Default.peers() < Scale::Paper.peers());
        let (a, n) = Scale::Paper.phys();
        assert_eq!(a * n, 20_000, "paper scale is 20k physical nodes");
    }

    #[test]
    fn env_scale_defaults_to_default() {
        // Note: assumes QUICK/FULL are not exported by the test runner.
        if std::env::var("QUICK").is_err() && std::env::var("FULL").is_err() {
            assert_eq!(Scale::from_env(), Scale::Default);
        }
    }
}
