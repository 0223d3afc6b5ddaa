//! Integration tests for the `acesim` command-line tool.

use std::process::Command;

fn acesim(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_acesim"))
        .args(args)
        .output()
        .expect("acesim binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).to_string(),
        String::from_utf8_lossy(&out.stderr).to_string(),
    )
}

#[test]
fn help_prints_usage() {
    let (ok, stdout, _) = acesim(&["help"]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
    assert!(stdout.contains("optimize"));
}

#[test]
fn no_args_fails_with_usage() {
    let (ok, _, stderr) = acesim(&[]);
    assert!(!ok);
    assert!(stderr.contains("USAGE"));
}

#[test]
fn unknown_command_fails() {
    let (ok, _, stderr) = acesim(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
}

#[test]
fn generate_analyze_round_trip() {
    let path = std::env::temp_dir().join("acesim_test_world.json");
    let path_s = path.to_str().unwrap();
    let (ok, stdout, _) = acesim(&[
        "generate", "--kind", "ba", "--nodes", "300", "--seed", "5", "--out", path_s,
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("300 nodes"));

    let (ok, stdout, _) = acesim(&["analyze", "--in", path_s]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("connected        : true"));
    assert!(stdout.contains("avg degree"));
    let _ = std::fs::remove_file(path);
}

#[test]
fn generate_is_seed_deterministic() {
    let p1 = std::env::temp_dir().join("acesim_det_1.json");
    let p2 = std::env::temp_dir().join("acesim_det_2.json");
    for p in [&p1, &p2] {
        let (ok, _, _) = acesim(&[
            "generate",
            "--kind",
            "two-level",
            "--nodes",
            "500",
            "--seed",
            "9",
            "--out",
            p.to_str().unwrap(),
        ]);
        assert!(ok);
    }
    let a = std::fs::read_to_string(&p1).unwrap();
    let b = std::fs::read_to_string(&p2).unwrap();
    assert_eq!(a, b, "same seed, same world");
    let _ = std::fs::remove_file(p1);
    let _ = std::fs::remove_file(p2);
}

#[test]
fn optimize_reports_reduction() {
    let (ok, stdout, _) = acesim(&[
        "optimize", "--peers", "100", "--degree", "6", "--steps", "3", "--seed", "2",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("traffic reduction"));
    assert!(stdout.contains("min scope ratio"));
}

#[test]
fn optimize_rejects_bad_policy() {
    let (ok, _, stderr) = acesim(&["optimize", "--policy", "bogus"]);
    assert!(!ok);
    assert!(stderr.contains("unknown --policy"));
}

#[test]
fn dynamic_smoke_run() {
    let (ok, stdout, _) = acesim(&[
        "dynamic",
        "--peers",
        "80",
        "--queries",
        "200",
        "--window",
        "100",
        "--seed",
        "3",
        "--no-ace",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("churn events"));
}

#[test]
fn export_formats_work() {
    let path = std::env::temp_dir().join("acesim_export_world.json");
    let path_s = path.to_str().unwrap();
    let (ok, _, _) = acesim(&[
        "generate", "--kind", "ba", "--nodes", "50", "--seed", "4", "--out", path_s,
    ]);
    assert!(ok);
    let (ok, dot, _) = acesim(&["export", "--in", path_s, "--format", "dot"]);
    assert!(ok);
    assert!(dot.starts_with("graph world {"));
    let (ok, edges, _) = acesim(&["export", "--in", path_s, "--format", "edges"]);
    assert!(ok);
    assert!(edges.lines().count() >= 49, "BA graph has ~2(n-seed) edges");
    let (ok, _, stderr) = acesim(&["export", "--in", path_s, "--format", "gexf"]);
    assert!(!ok);
    assert!(stderr.contains("unknown --format"));
    let _ = std::fs::remove_file(path);
}

/// Out-of-range sizes fail with the usual `error: …` + usage instead
/// of panicking inside the overlay builder or the topology generator.
#[test]
fn out_of_range_sizes_fail_cleanly() {
    let cases: &[(&[&str], &str)] = &[
        (&["optimize", "--peers", "0"], "--peers"),
        (&["optimize", "--peers", "1"], "--peers"),
        (&["optimize", "--degree", "0"], "--degree"),
        (&["optimize", "--degree", "1"], "--degree"),
        (&["dynamic", "--peers", "0"], "--peers"),
        (&["dynamic", "--peers", "1"], "--peers"),
        (&["dynamic", "--cache", "0"], "--cache"),
        (&["generate", "--kind", "ba", "--nodes", "1"], "--nodes"),
        (&["generate", "--kind", "ba", "--nodes", "2"], "--nodes"),
    ];
    for &(args, flag) in cases {
        let (ok, _, stderr) = acesim(args);
        assert!(!ok, "{args:?} must fail");
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
        assert!(stderr.contains("error:"), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?} must name {flag}: {stderr}");
        assert!(stderr.contains("USAGE"), "{args:?}: {stderr}");
    }
}

/// The smallest accepted sizes run to completion.
#[test]
fn smallest_accepted_sizes_run() {
    let cases: &[&[&str]] = &[
        &["optimize", "--peers", "2", "--degree", "2", "--steps", "1"],
        &["generate", "--kind", "ba", "--nodes", "3"],
    ];
    for &args in cases {
        let (ok, stdout, stderr) = acesim(args);
        assert!(ok, "{args:?}: {stdout}{stderr}");
    }
}
