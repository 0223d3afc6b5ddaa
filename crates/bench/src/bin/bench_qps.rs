//! Serving-throughput curve of the batched query engine — writes
//! `BENCH_qps.json`.
//!
//! Modes:
//!
//! * no arguments — the full curve ([`QPS_POINTS`]: 800 and 5,000
//!   peers). Each point runs in a child process (`--point N --json`) so
//!   its wall-clock numbers are not polluted by a previous point's
//!   allocator state, then the parent writes `BENCH_qps.json`.
//! * `--point N [--json]` — measure one population in this process;
//!   `--json` prints the point as JSON on stdout (the parent↔child
//!   wire).
//! * `--point N --check BENCH_qps.json` — CI smoke: measure `N` and
//!   fail (exit 1) if the serving digests drifted from the committed
//!   baseline, if the measured ACE/flood throughput ratio fell below
//!   both parity and [`REGRESSION_TOLERANCE`] under the baseline's
//!   ratio, or if the traffic ratio stopped being a reduction. A bad
//!   `--point` value, or a baseline that is missing, malformed or lacks
//!   the point, exits 2 before anything is measured.

use ace_bench::gate::{self, GateError, EXIT_REGRESSION};
use ace_bench::qps::{self, QpsBench, QpsPoint, QPS_POINTS, QPS_ROUNDS};
use ace_overlay::ServeConfig;

/// Allowed drop of the ACE/flood throughput ratio below the committed
/// baseline before the CI smoke job fails. The gate compares the
/// *ratio* — both sides measured in the same run — not absolute qps:
/// absolute wall-clock throughput swings with runner speed and load,
/// while the ratio self-normalizes (the floor is additionally clamped
/// to parity, so the optimized side may never serve slower than
/// flooding).
const REGRESSION_TOLERANCE: f64 = 0.35;

const BIN: &str = "bench_qps";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag_value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };

    if let Some(peers) = flag_value("--point") {
        let peers: usize = gate::parse_flag("--point", &peers).unwrap_or_else(|e| e.exit(BIN));
        let base = flag_value("--check")
            .map(|path| baseline_point(&path, peers))
            .transpose()
            .unwrap_or_else(|e| e.exit(BIN));
        let point = run_one(peers);
        if let Some(base) = &base {
            check_regression(&point, base);
        }
        if args.iter().any(|a| a == "--json") {
            println!(
                "{}",
                serde_json::to_string(&point).expect("serialize point")
            );
        }
        return;
    }

    // Full curve: one child process per point.
    let exe = std::env::current_exe().expect("own executable path");
    let mut points = Vec::new();
    for &peers in &QPS_POINTS {
        eprintln!("[bench_qps: spawning {peers}-peer point]");
        let out = std::process::Command::new(&exe)
            .args(["--point", &peers.to_string(), "--json"])
            .output()
            .expect("spawn point subprocess");
        assert!(
            out.status.success(),
            "{peers}-peer point failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).expect("point output is UTF-8");
        let json = stdout
            .lines()
            .find(|l| l.trim_start().starts_with('{'))
            .expect("point subprocess printed JSON");
        let point: QpsPoint = serde_json::from_str(json).expect("parse point JSON");
        points.push(point);
    }

    let bench = QpsBench {
        rounds: QPS_ROUNDS,
        chunk: ServeConfig::default().chunk,
        points,
    };
    let json = serde_json::to_string_pretty(&bench).expect("serialize qps bench");
    std::fs::write("BENCH_qps.json", json).expect("write BENCH_qps.json");
    eprintln!("[saved BENCH_qps.json]");
}

fn run_one(peers: usize) -> QpsPoint {
    eprintln!("[bench_qps: measuring {peers} peers]");
    let point = qps::run_point(peers);
    eprintln!(
        "[bench_qps: {} peers, {} queries, {} workers — flood {:.0} qps (hop p50 {:.1} ms, \
         p99 {:.1} ms) vs ACE {:.0} qps (hop p50 {:.1} ms, p99 {:.1} ms); \
         qps x{:.2}, traffic x{:.2}, scope x{:.2}]",
        point.peers,
        point.queries,
        point.workers,
        point.flood.qps,
        point.flood.hop_p50_ms,
        point.flood.hop_p99_ms,
        point.ace.qps,
        point.ace.hop_p50_ms,
        point.ace.hop_p99_ms,
        point.qps_ratio,
        point.traffic_ratio,
        point.scope_ratio
    );
    point
}

/// The committed point `point` is checked against, loaded before the
/// measurement so a bad baseline fails fast.
fn baseline_point(path: &str, peers: usize) -> Result<QpsPoint, GateError> {
    let baseline: QpsBench = gate::load_baseline(path)?;
    gate::require(baseline.point(peers), path, &format!("{peers}-peer point")).cloned()
}

fn check_regression(point: &QpsPoint, base: &QpsPoint) {
    // The simulated quantities are deterministic: any digest drift means
    // the serving semantics changed, not that the runner was slow.
    if point.flood.digest != base.flood.digest || point.ace.digest != base.ace.digest {
        eprintln!(
            "[bench_qps: REGRESSION — serving digests drifted from the baseline \
             (flood {} vs {}, ace {} vs {})]",
            point.flood.digest, base.flood.digest, point.ace.digest, base.ace.digest
        );
        std::process::exit(EXIT_REGRESSION);
    }
    let floor = (base.qps_ratio * (1.0 - REGRESSION_TOLERANCE)).max(1.0);
    eprintln!(
        "[bench_qps: {} peers — qps ratio {:.2} vs baseline {:.2} (floor {:.2})]",
        point.peers, point.qps_ratio, base.qps_ratio, floor
    );
    if point.qps_ratio < floor {
        eprintln!(
            "[bench_qps: REGRESSION — ACE/flood throughput ratio fell below \
             max(parity, baseline - {:.0}%)]",
            REGRESSION_TOLERANCE * 100.0
        );
        std::process::exit(EXIT_REGRESSION);
    }
    if point.traffic_ratio >= 1.0 {
        eprintln!(
            "[bench_qps: REGRESSION — ACE stopped reducing per-query traffic \
             (ratio {:.3})]",
            point.traffic_ratio
        );
        std::process::exit(EXIT_REGRESSION);
    }
    eprintln!("[bench_qps: within tolerance]");
}
