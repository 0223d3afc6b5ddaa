//! ACE benchmark: `converge`, `churn` and `serve` on one seeded
//! 5,000-peer world, timed end to end and, with `--trace 1`, layer by
//! layer. See README.md for the workloads and the metric map.
//!
//! ```text
//! perfbench --workload <converge|churn|serve|all> --seed <n> --seconds <s> --trace <0|1>
//!           [--baseline <earlier output>]
//! ```
//!
//! `--seed` drives what a workload does (round seeds, churn, controller
//! feedback, the query batch); the world it does it on (topology,
//! overlay, object placement) is fixed, so that runs on different seeds
//! measure the same world.
//!
//! Standard output ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`
//! holding the end-to-end metrics (or, with `--trace 1`, the per-layer
//! ones). The exit code is 0 when every output check held, 1 when one
//! failed and 2 on a usage error.

mod host;
mod layers;
mod stats;
mod trace;
mod workload;
mod world;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use serde::Value;

use host::{load_baseline, parse_baseline, Baseline, CpuTimes, Host};
use workload::{Outcome, Params, Workload};

/// End-to-end metrics of the result line: name, unit, value getter.
type Metric = (&'static str, &'static str, fn(&workload::EndToEnd) -> f64);

/// The end-to-end metrics, in printed order. `failed_share` is 0 on a
/// healthy run, so it travels in the result line's `attempted`/`failed`
/// fields and in the table, not as a metric.
const END_TO_END: [Metric; 11] = [
    ("setup_s", "s", |e| e.setup_s),
    ("optimize_s", "s", |e| e.optimize_s),
    ("round_ms_p50", "ms", |e| e.round_ms_p50),
    ("round_ms_tail", "ms", |e| e.round_ms_tail),
    ("qps", "1/s", |e| e.qps),
    ("flood_qps", "1/s", |e| e.flood_qps),
    ("response_ms_p50", "ms", |e| e.response_ms_p50),
    ("response_ms_p99", "ms", |e| e.response_ms_p99),
    ("traffic_ratio", "ratio", |e| e.traffic_ratio),
    ("control_overhead", "cost", |e| e.control_overhead),
    ("peak_rss_mb", "MiB", |e| e.peak_rss_mb),
];

const USAGE: &str = "usage: perfbench --workload <converge|churn|serve|all> --seed <n> \
--seconds <s> --trace <0|1> [--baseline <file>]";

/// Which workloads to run.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Selection {
    One(Workload),
    All,
}

#[derive(Clone, Debug, PartialEq)]
struct Args {
    selection: Selection,
    params: Params,
    baseline: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut selection = None;
    let mut params = Params {
        peers: world::PEERS,
        seed: 1,
        seconds: 10.0,
        trace: false,
        workers: host::available_cores(),
    };
    let mut baseline = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                selection = Some(if v == "all" {
                    Selection::All
                } else {
                    Selection::One(
                        Workload::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?,
                    )
                });
            }
            "--seed" => params.seed = number(flag, value()?)?,
            "--seconds" => {
                let v = value()?;
                params.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("--seconds wants 0..=3600, got {v:?}"))?;
            }
            "--trace" => {
                params.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace wants 0 or 1, got {v:?}")),
                }
            }
            "--baseline" => baseline = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        selection: selection.ok_or("--workload is required")?,
        params,
        baseline,
    })
}

fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag} wants a whole number, got {v:?}"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Every input must be read before anything is measured.
    let baseline = match args.baseline.as_deref().map(load_baseline).transpose() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let (correct, mut lines, result) = match args.selection {
        Selection::One(w) => {
            let cpu = CpuTimes::read();
            let out = workload::run(w, &args.params);
            let host = Host::detect(args.params.workers, cpu);
            (
                out.correct(),
                report(&out, &args.params, &host),
                result_line(&out, args.params.trace),
            )
        }
        Selection::All => match run_all(&argv) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(1);
            }
        },
    };
    if let Some(b) = &baseline {
        lines.extend(compare(b, &result));
    }
    for l in lines {
        println!("{l}");
    }
    println!(
        "{}",
        serde_json::to_string(&result).expect("printing a Value cannot fail")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs every workload in a fresh child process of this program (peak
/// RSS is a process high-water mark) one after the other, relays their
/// output and merges their result lines, prefixing each metric with its
/// workload.
fn run_all(argv: &[String]) -> Result<(bool, Vec<String>, Value), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut lines = Vec::new();
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for w in Workload::ALL {
        let mut child_args: Vec<String> = Vec::with_capacity(argv.len());
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--workload" | "--baseline" => {
                    it.next();
                }
                _ => child_args.push(a.clone()),
            }
        }
        child_args.extend(["--workload".to_string(), w.name().to_string()]);
        let out = Command::new(&exe)
            .args(&child_args)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run the {} workload: {e}", w.name()))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let parsed = parse_baseline(&text).map_err(|e| format!("{} workload: {e}", w.name()))?;
        correct &= out.status.success() && parsed.correct;
        attempted += parsed.attempted;
        failed += parsed.failed;
        // Relay everything but the child's result line.
        let body = text
            .trim_end()
            .rsplit_once('\n')
            .map_or("", |(body, _)| body);
        lines.extend(body.lines().map(String::from));
        for (name, value, unit) in parsed.metrics {
            metrics.push((format!("{}.{name}", w.name()), metric(value, &unit)));
        }
    }
    Ok((
        correct,
        lines,
        result_value(correct, attempted, failed, metrics),
    ))
}

fn metric(value: f64, unit: &str) -> Value {
    Value::Object(vec![
        ("value".into(), Value::Float(value)),
        ("unit".into(), Value::Str(unit.into())),
    ])
}

fn result_value(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, Value)>,
) -> Value {
    Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(attempted.max(1))),
        ("failed".into(), Value::UInt(failed)),
        ("metrics".into(), Value::Object(metrics)),
    ])
}

/// The contract's result line: end-to-end metrics untraced, per-layer
/// metrics traced.
fn result_line(out: &Outcome, traced: bool) -> Value {
    let metrics = if traced {
        out.layers
            .iter()
            .map(|(name, value, unit)| (name.clone(), metric(*value, unit)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|(name, unit, get)| (name.to_string(), metric(get(&out.e2e), unit)))
            .collect()
    };
    result_value(out.correct(), out.attempted, out.failed, metrics)
}

/// The human-readable table and the `report` line: every end-to-end
/// metric with its unit, the tail's percentile, the checks, the digests
/// and the host.
fn report(out: &Outcome, p: &Params, host: &Host) -> Vec<String> {
    let e = &out.e2e;
    let steal = host
        .steal_share
        .map_or("unknown".to_string(), |s| format!("{:.1}%", 100.0 * s));
    let mut lines = vec![format!(
        "# workload {} seed {} world {} peers {} workers {} trace {} | {} cores, {}, {} ({}), commit {}, steal {steal}",
        out.workload.name(),
        p.seed,
        world::WORLD_SEED,
        p.peers,
        p.workers,
        u8::from(p.trace),
        host.cores,
        host.cpu,
        host.rustc,
        host.profile,
        host.commit
    )];
    for (name, unit, get) in END_TO_END {
        lines.push(format!("{name:<24} {:>14.4} {unit}", get(e)));
    }
    lines.push(format!(
        "{:<24} {:>14.4} ratio ({} of {} operations)",
        "failed_share", e.failed_share, out.failed, out.attempted
    ));
    lines.push(format!(
        "# round_ms_tail is p{:.1} of {} rounds; qps over {} queries per batch",
        e.round_tail_percentile,
        e.round_samples,
        workload::BATCH
    ));
    for (name, value, unit) in &out.layers {
        lines.push(format!("{name:<28} {value:>14.4} {unit}"));
    }
    for c in &out.checks {
        let verdict = if c.passed { "PASS" } else { "FAIL" };
        lines.push(format!("check {verdict}: {} ({})", c.name, c.detail));
    }
    let mut e2e: Vec<(String, Value)> = END_TO_END
        .iter()
        .map(|(name, unit, get)| (name.to_string(), metric(get(e), unit)))
        .collect();
    e2e.push(("failed_share".into(), metric(e.failed_share, "ratio")));
    let checks = out
        .checks
        .iter()
        .map(|c| {
            Value::Object(vec![
                ("name".into(), Value::Str(c.name.into())),
                ("passed".into(), Value::Bool(c.passed)),
                ("detail".into(), Value::Str(c.detail.clone())),
            ])
        })
        .collect();
    let report = Value::Object(vec![
        ("workload".into(), Value::Str(out.workload.name().into())),
        ("seed".into(), Value::UInt(p.seed)),
        ("world_seed".into(), Value::UInt(world::WORLD_SEED)),
        ("peers".into(), Value::UInt(p.peers as u64)),
        ("seconds".into(), Value::Float(p.seconds)),
        ("host".into(), host.to_value()),
        ("end_to_end".into(), Value::Object(e2e)),
        (
            "round_tail_percentile".into(),
            Value::Float(e.round_tail_percentile),
        ),
        ("round_samples".into(), Value::UInt(e.round_samples as u64)),
        ("batch_queries".into(), Value::UInt(workload::BATCH as u64)),
        (
            "world_digest".into(),
            Value::Str(format!("{:#018x}", out.world_digest)),
        ),
        (
            "state_digest".into(),
            Value::Str(format!("{:#018x}", out.state_digest)),
        ),
        ("checks".into(), Value::Array(checks)),
    ]);
    lines.push(format!(
        "report {}",
        serde_json::to_string(&report).expect("printing a Value cannot fail")
    ));
    lines
}

/// Lines comparing this result's metrics with an earlier one's.
fn compare(earlier: &Baseline, now: &Value) -> Vec<String> {
    let Ok(now) = Baseline::from_value(now) else {
        return Vec::new();
    };
    now.metrics
        .iter()
        .map(|(name, value, unit)| match earlier.get(name) {
            Some(old) if old != 0.0 => {
                format!(
                    "vs earlier: {name:<24} {old:>12.4} -> {value:>12.4} {unit} (x{:.3})",
                    value / old
                )
            }
            Some(old) => format!("vs earlier: {name:<24} {old:>12.4} -> {value:>12.4} {unit}"),
            None => format!("vs earlier: {name:<24} (absent) -> {value:>12.4} {unit}"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_contract_arguments() {
        let a =
            parse_args(&argv("--workload churn --seed 7 --seconds 10 --trace 1")).expect("valid");
        assert_eq!(a.selection, Selection::One(Workload::Churn));
        assert_eq!(a.params.seed, 7);
        assert_eq!(a.params.seconds, 10.0);
        assert!(a.params.trace);
        assert_eq!(a.params.peers, world::PEERS);
        let a = parse_args(&argv("--workload all --seed 1 --seconds 1 --trace 0")).expect("valid");
        assert_eq!(a.selection, Selection::All);
    }

    #[test]
    fn rejects_bad_arguments_without_panicking() {
        for bad in [
            "",
            "--seed 1",
            "--workload nope",
            "--workload serve --seed -1",
            "--workload serve --seconds nan",
            "--workload serve --trace 2",
            "--workload serve --peers 3000",
            "--workload serve --bogus 1",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?}");
        }
    }
}
