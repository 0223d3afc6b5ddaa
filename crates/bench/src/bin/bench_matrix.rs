//! The scenario cross-product matrix — writes `BENCH_matrix.json`.
//!
//! Modes:
//!
//! * no arguments — the full committed matrix (4 strategies × 2 Zipf
//!   points × 2 replication factors × ACE on/off = 32 cells on the
//!   800-peer world), written to `BENCH_matrix.json` in the working
//!   directory.
//! * `--slice [--json]` — the CI slice (the first Zipf point: 16
//!   cells); `--json` prints the measured slice as JSON on stdout.
//! * `--slice --check BENCH_matrix.json` — CI smoke: run the slice and
//!   fail (exit 1) if any cell's digest drifted from the committed
//!   artifact, if any cell's recall fell below its strategy floor, or
//!   if ACE stopped being a traffic reduction in any (off, on) pair.
//!   Digests are parameter-derived, so the slice reproduces the
//!   committed cells exactly regardless of which other cells ran. A
//!   baseline that is missing or malformed exits 2 before the matrix
//!   runs.

use ace_bench::gate::{self, EXIT_REGRESSION};
use ace_bench::matrix::{
    committed_cells, recall_floor, run_matrix, slice_cells, CellResult, MatrixBench, MatrixWorld,
    WorldConfig, MATRIX_ROUNDS,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let has = |name: &str| args.iter().any(|a| a == name);
    let flag_value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };

    let baseline: Option<MatrixBench> = flag_value("--check")
        .map(|path| gate::load_baseline(&path))
        .transpose()
        .unwrap_or_else(|e| e.exit("bench_matrix"));
    let cfg = WorldConfig::committed();
    let cells = if has("--slice") {
        slice_cells()
    } else {
        committed_cells()
    };
    eprintln!(
        "[bench_matrix: building the {}-peer world, then {} cells]",
        cfg.peers,
        cells.len()
    );
    let world = MatrixWorld::build(&cfg);
    let results = run_matrix(&world, &cells, 0);
    let bench = MatrixBench {
        peers: cfg.peers,
        queries_per_cell: cfg.queries,
        rounds: MATRIX_ROUNDS,
        workers: ace_engine::pool::effective_workers(0),
        cells: results,
    };
    print_table(&bench);

    if let Some(baseline) = &baseline {
        check_against(&bench, baseline);
    }
    if has("--json") {
        println!("{}", serde_json::to_string(&bench).expect("serialize"));
    }
    if !has("--slice") {
        let json = serde_json::to_string_pretty(&bench).expect("serialize");
        std::fs::write("BENCH_matrix.json", json + "\n").expect("write BENCH_matrix.json");
        eprintln!("[bench_matrix: wrote BENCH_matrix.json]");
    }
}

fn print_table(bench: &MatrixBench) {
    eprintln!(
        "{:<9} {:>4} {:>2} {:>4} | {:>6} {:>9} {:>9} {:>8} {:>8}",
        "strategy", "zipf", "r", "ace", "recall", "traffic/q", "p95 ms", "link max", "msgs"
    );
    for c in &bench.cells {
        eprintln!(
            "{:<9} {:>4} {:>2} {:>4} | {:>6.3} {:>9.1} {:>9.1} {:>8} {:>8}",
            c.strategy.name(),
            c.zipf,
            c.replicas,
            if c.ace { "on" } else { "off" },
            c.recall,
            c.traffic_per_query,
            c.response_p95_ms,
            c.link_max_messages,
            c.messages,
        );
    }
    for (off, on) in bench.ace_pairs() {
        eprintln!(
            "[pair {} z={} r={}: ACE traffic ratio {:.3}]",
            off.strategy.name(),
            off.zipf,
            off.replicas,
            on.traffic_total / off.traffic_total.max(1e-9),
        );
    }
}

fn check_against(bench: &MatrixBench, baseline: &MatrixBench) {
    let mut failures = Vec::new();

    let key = |c: &CellResult| {
        format!(
            "{} zipf={} r={} ace={}",
            c.strategy.name(),
            c.zipf,
            c.replicas,
            c.ace
        )
    };
    for c in &bench.cells {
        match baseline.cell(c.strategy, c.zipf, c.replicas, c.ace) {
            None => failures.push(format!("{}: missing from the committed artifact", key(c))),
            Some(b) if b.digest != c.digest => failures.push(format!(
                "{}: digest drifted (committed {:#x}, measured {:#x})",
                key(c),
                b.digest,
                c.digest
            )),
            Some(_) => {}
        }
        let floor = recall_floor(c.strategy);
        if c.recall < floor {
            failures.push(format!(
                "{}: recall {:.3} below the {} floor {floor}",
                key(c),
                c.recall,
                c.strategy.name()
            ));
        }
    }
    for (off, on) in bench.ace_pairs() {
        if on.traffic_total > off.traffic_total {
            failures.push(format!(
                "{} zipf={} r={}: ACE increased traffic ({:.1} -> {:.1})",
                off.strategy.name(),
                off.zipf,
                off.replicas,
                off.traffic_total,
                on.traffic_total
            ));
        }
    }

    if failures.is_empty() {
        eprintln!(
            "[bench_matrix: check OK — {} cells match the baseline, every floor and ACE pair holds]",
            bench.cells.len()
        );
    } else {
        for f in &failures {
            eprintln!("[bench_matrix: CHECK FAILED — {f}]");
        }
        std::process::exit(EXIT_REGRESSION);
    }
}
