//! Long-horizon soak of the optimization-rate control loop — writes
//! `BENCH_soak.json`.
//!
//! Modes:
//!
//! * no arguments — the full committed soak: every severity on the
//!   grid ([`soak::severities`]), 2 simulated hours per arm, written to
//!   `BENCH_soak.json` in the working directory.
//! * `--slice [--json]` — the CI slice: only the churn+chaos severity
//!   ([`soak::SLICE_SEVERITY`]) at the *same* parameters as the
//!   committed artifact (everything is simulated and seeded, so the
//!   slice reproduces its committed twin digest-for-digest); `--json`
//!   prints the measured severity as JSON on stdout.
//! * `--slice --check BENCH_soak.json` — CI smoke: run the slice and
//!   fail (exit 1) if either arm's digest drifted from the committed
//!   baseline, if the adaptive arm retains less than
//!   [`RETENTION_FLOOR`] of the static arm's traffic reduction (or less
//!   than [`FINAL_RETENTION_FLOOR`] of it at end-of-soak), if it
//!   spends *more* control overhead than the static arm, if the
//!   controller leaked entries or breached its byte budget, or if
//!   either arm's post-settle invariant audit failed. A baseline that is
//!   missing, malformed or lacks the slice severity exits 2 before the
//!   soak runs.

use ace_bench::gate::{self, GateError, EXIT_REGRESSION};
use ace_bench::soak::{self, SeverityReport, SoakBench, SoakParams};

const BIN: &str = "bench_soak";

/// Minimum `adaptive.reduction_mean / static.reduction_mean` the
/// churn+chaos severity must retain over the *whole* soak (convergence
/// transient included). The controller is allowed to trade a sliver of
/// reduction for its overhead savings, not to give the optimization
/// back.
const RETENTION_FLOOR: f64 = 0.95;

/// Minimum `adaptive.reduction_final / static.reduction_final` at
/// end-of-soak: once the controller has converged, the adaptive
/// schedule must hold the optimization at least as well as the static
/// one (the churn snap-to-floor is what buys this).
const FINAL_RETENTION_FLOOR: f64 = 1.0;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let has = |name: &str| args.iter().any(|a| a == name);
    let flag_value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };

    let params = SoakParams::committed();
    if has("--slice") {
        let sev = soak::severity_named(soak::SLICE_SEVERITY).expect("slice severity on the grid");
        let base = flag_value("--check")
            .map(|path| baseline_severity(&path, sev.name))
            .transpose()
            .unwrap_or_else(|e| e.exit(BIN));
        eprintln!(
            "[bench_soak: slice — severity {:?}, {} peers, {} simulated seconds per arm]",
            sev.name, params.peers, params.sim_secs
        );
        let report = soak::run_severity(&params, &sev);
        print_severity(&report);
        if let Some(base) = &base {
            check_against(&report, base);
        }
        if has("--json") {
            println!(
                "{}",
                serde_json::to_string(&report).expect("serialize severity")
            );
        }
        return;
    }

    // Full committed artifact: every severity, sequentially (quantities
    // are simulated; wall clock does not contaminate them).
    let mut reports = Vec::new();
    for sev in soak::severities() {
        eprintln!(
            "[bench_soak: severity {:?} — {} peers, {} simulated seconds per arm]",
            sev.name, params.peers, params.sim_secs
        );
        let report = soak::run_severity(&params, &sev);
        print_severity(&report);
        reports.push(report);
    }
    let bench = SoakBench {
        peers: params.peers,
        sim_secs: params.sim_secs,
        window_secs: params.window_secs,
        queries_per_window: params.queries_per_window,
        severities: reports,
    };
    let json = serde_json::to_string_pretty(&bench).expect("serialize soak bench");
    std::fs::write("BENCH_soak.json", json + "\n").expect("write BENCH_soak.json");
    eprintln!("[bench_soak: wrote BENCH_soak.json]");
}

fn print_severity(r: &SeverityReport) {
    let arm = |a: &ace_bench::soak::ArmReport, label: &str| {
        eprintln!(
            "  {label:<8} reduction mean {:.3} final {:.3} | overhead {:.0} | cycles {} | \
             interval {:.2}..{:.2} | soft state {} B (hwm {} B) | leaks {} | audit {}",
            a.reduction_mean,
            a.reduction_final,
            a.overhead_total,
            a.cycles_total,
            a.windows.last().map(|w| w.interval_min).unwrap_or(1.0),
            a.windows.last().map(|w| w.interval_max).unwrap_or(1.0),
            a.controller.soft_state_bytes,
            a.controller.high_water_bytes,
            a.leaked_entries,
            if a.invariants_ok { "ok" } else { "FAILED" },
        );
    };
    eprintln!(
        "[bench_soak: {} — retention {:.3} (final {:.3}), overhead x{:.2}]",
        r.name, r.retention, r.retention_final, r.overhead_ratio
    );
    arm(&r.static_arm, "static");
    arm(&r.adaptive_arm, "adaptive");
}

/// The committed severity the slice is checked against, loaded before
/// the soak so a bad baseline fails fast.
fn baseline_severity(path: &str, name: &str) -> Result<SeverityReport, GateError> {
    let baseline: SoakBench = gate::load_baseline(path)?;
    gate::require(baseline.severity(name), path, &format!("severity {name:?}")).cloned()
}

fn check_against(report: &SeverityReport, base: &SeverityReport) {
    let mut failed = false;
    let mut fail = |msg: String| {
        eprintln!("[bench_soak: REGRESSION — {msg}]");
        failed = true;
    };

    // Everything is simulated and seeded: digest drift means the
    // protocol or controller semantics changed, not that the runner was
    // slow. Equality is the strongest gate, so it goes first.
    if report.static_arm.digest != base.static_arm.digest {
        fail(format!(
            "static digest drifted ({} vs {})",
            report.static_arm.digest, base.static_arm.digest
        ));
    }
    if report.adaptive_arm.digest != base.adaptive_arm.digest {
        fail(format!(
            "adaptive digest drifted ({} vs {})",
            report.adaptive_arm.digest, base.adaptive_arm.digest
        ));
    }
    if report.retention < RETENTION_FLOOR {
        fail(format!(
            "adaptive arm retains {:.3} of the static reduction (floor {RETENTION_FLOOR})",
            report.retention
        ));
    }
    if report.retention_final < FINAL_RETENTION_FLOOR {
        fail(format!(
            "adaptive arm ends the soak at {:.3} of the static reduction \
             (floor {FINAL_RETENTION_FLOOR})",
            report.retention_final
        ));
    }
    if report.overhead_ratio > 1.0 {
        fail(format!(
            "adaptive arm spends more control overhead than static (x{:.3})",
            report.overhead_ratio
        ));
    }
    if report.adaptive_arm.leaked_entries != 0 {
        fail(format!(
            "{} controller entries leaked past end-of-soak",
            report.adaptive_arm.leaked_entries
        ));
    }
    let c = &report.adaptive_arm.controller;
    if c.high_water_bytes > c.byte_budget {
        fail(format!(
            "controller high water {} bytes breached budget {}",
            c.high_water_bytes, c.byte_budget
        ));
    }
    for (arm, label) in [
        (&report.static_arm, "static"),
        (&report.adaptive_arm, "adaptive"),
    ] {
        if !arm.invariants_ok {
            fail(format!(
                "{label} arm failed the post-settle invariant audit"
            ));
        }
    }
    if failed {
        std::process::exit(EXIT_REGRESSION);
    }
    eprintln!(
        "[bench_soak: check OK — severity {:?} matches the baseline and every gate holds]",
        report.name
    );
}
