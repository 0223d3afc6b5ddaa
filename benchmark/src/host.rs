//! The `host` block of every output, and the loader for an earlier
//! result that a run can be compared against.

use std::fmt;
use std::path::Path;

use serde::Value;

/// What a result was measured on.
#[derive(Clone, Debug, PartialEq)]
pub struct Host {
    /// Hardware threads the process may use.
    pub cores: usize,
    /// CPU model name.
    pub cpu: String,
    /// Compiler that built the benchmark.
    pub rustc: String,
    /// Cargo profile of the build.
    pub profile: String,
    /// Commit of the measured tree, when the tree is a git checkout.
    pub commit: String,
    /// Worker threads the run used.
    pub workers: usize,
    /// Share of the machine's CPU time stolen by other guests while the
    /// run measured, from `/proc/stat`; `None` where unavailable.
    pub steal_share: Option<f64>,
}

impl Host {
    /// Describes this process; `workers` is the run's worker count and
    /// `since` the CPU times read when the run started.
    pub fn detect(workers: usize, since: Option<CpuTimes>) -> Host {
        let steal_share = since
            .zip(CpuTimes::read())
            .and_then(|(a, b)| b.steal_share_since(&a));
        Host {
            cores: available_cores(),
            cpu: cpu_model().unwrap_or_else(|| "unknown".into()),
            rustc: env!("PERFBENCH_RUSTC").into(),
            profile: env!("PERFBENCH_PROFILE").into(),
            commit: git_commit(Path::new(".")).unwrap_or_else(|| "unknown".into()),
            workers,
            steal_share,
        }
    }

    /// The block as a JSON object.
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("cores".into(), Value::UInt(self.cores as u64)),
            ("cpu".into(), Value::Str(self.cpu.clone())),
            ("rustc".into(), Value::Str(self.rustc.clone())),
            ("profile".into(), Value::Str(self.profile.clone())),
            ("commit".into(), Value::Str(self.commit.clone())),
            ("workers".into(), Value::UInt(self.workers as u64)),
            (
                "steal_share".into(),
                self.steal_share.map_or(Value::Null, Value::Float),
            ),
        ])
    }
}

/// Machine-wide CPU time counters (`/proc/stat`, clock ticks).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CpuTimes {
    total: u64,
    steal: u64,
}

impl CpuTimes {
    /// The current counters; `None` where `/proc/stat` is unavailable.
    pub fn read() -> Option<CpuTimes> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        CpuTimes::parse(stat.lines().next()?)
    }

    /// Parses the aggregate `cpu` line of `/proc/stat`.
    fn parse(line: &str) -> Option<CpuTimes> {
        let mut fields = line.split_whitespace();
        if fields.next()? != "cpu" {
            return None;
        }
        let ticks: Vec<u64> = fields.map(|f| f.parse().ok()).collect::<Option<_>>()?;
        // user nice system idle iowait irq softirq steal [guest guest_nice]:
        // guest time is already counted in user time.
        let steal = *ticks.get(7)?;
        Some(CpuTimes {
            total: ticks.iter().take(8).sum(),
            steal,
        })
    }

    /// Stolen share of the ticks elapsed since `earlier`.
    fn steal_share_since(&self, earlier: &CpuTimes) -> Option<f64> {
        let total = self.total.checked_sub(earlier.total)?;
        let steal = self.steal.checked_sub(earlier.steal)?;
        (total > 0).then(|| steal as f64 / total as f64)
    }
}

/// Hardware threads available to this process.
pub fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|rest| rest.split_once(':'))
        .map(|(_, name)| name.trim().to_string())
}

/// The commit `HEAD` names in `root/.git`, read without running git and
/// without looking outside `root`.
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (id, name) = l.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

/// Why an earlier result could not be loaded.
#[derive(Debug)]
pub enum BaselineError {
    /// The file could not be read.
    Unreadable(std::io::Error),
    /// The file holds no JSON object line.
    Empty,
    /// The last JSON line is not valid JSON.
    Malformed(String),
    /// A required field is missing or has the wrong type.
    Field(&'static str),
}

impl fmt::Display for BaselineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaselineError::Unreadable(e) => write!(f, "cannot read the earlier result: {e}"),
            BaselineError::Empty => write!(f, "the earlier result holds no JSON line"),
            BaselineError::Malformed(e) => write!(f, "the earlier result is not JSON: {e}"),
            BaselineError::Field(k) => write!(f, "the earlier result lacks a valid `{k}`"),
        }
    }
}

impl std::error::Error for BaselineError {}

/// A result line: the last JSON line a run prints.
#[derive(Clone, Debug, PartialEq)]
pub struct Baseline {
    /// Whether the run's checks held.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Its metrics `(name, value, unit)`, in printed order.
    pub metrics: Vec<(String, f64, String)>,
}

impl Baseline {
    /// The earlier value of `name`, if it has one.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// Loads the earlier result saved at `path` (a run's standard output,
/// or just its last line).
pub fn load_baseline(path: &Path) -> Result<Baseline, BaselineError> {
    let text = std::fs::read_to_string(path).map_err(BaselineError::Unreadable)?;
    parse_baseline(&text)
}

/// Parses the last line of `text` that starts with `{`.
pub fn parse_baseline(text: &str) -> Result<Baseline, BaselineError> {
    let line = text
        .lines()
        .rev()
        .map(str::trim)
        .find(|l| l.starts_with('{'))
        .ok_or(BaselineError::Empty)?;
    let value: Value =
        serde_json::from_str(line).map_err(|e| BaselineError::Malformed(e.to_string()))?;
    Baseline::from_value(&value)
}

impl Baseline {
    /// Reads a result line already parsed as JSON.
    pub fn from_value(value: &Value) -> Result<Baseline, BaselineError> {
        let top = value.as_object().ok_or(BaselineError::Field("{}"))?;
        let field = |k: &str| top.iter().find(|(n, _)| n == k).map(|(_, v)| v);
        let correct = match field("correct") {
            Some(Value::Bool(b)) => *b,
            _ => return Err(BaselineError::Field("correct")),
        };
        let count = |k: &'static str| match field(k) {
            Some(Value::UInt(n)) => Ok(*n),
            _ => Err(BaselineError::Field(k)),
        };
        let (attempted, failed) = (count("attempted")?, count("failed")?);
        let metrics = field("metrics")
            .and_then(Value::as_object)
            .ok_or(BaselineError::Field("metrics"))?;
        let mut out = Vec::with_capacity(metrics.len());
        for (name, m) in metrics {
            let m = m.as_object().ok_or(BaselineError::Field("metrics.*"))?;
            let get = |k: &str| m.iter().find(|(n, _)| n == k).map(|(_, v)| v);
            let value = match get("value") {
                Some(Value::Float(x)) => *x,
                Some(Value::UInt(x)) => *x as f64,
                Some(Value::Int(x)) => *x as f64,
                _ => return Err(BaselineError::Field("metrics.*.value")),
            };
            let unit = match get("unit") {
                Some(Value::Str(u)) => u.clone(),
                _ => return Err(BaselineError::Field("metrics.*.unit")),
            };
            out.push((name.clone(), value, unit));
        }
        Ok(Baseline {
            correct,
            attempted,
            failed,
            metrics: out,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_the_last_json_line() {
        let text = "table line\n{\"correct\": true, \"attempted\": 3, \"failed\": 1, \
                    \"metrics\": {\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}, \
                    \"qps\": {\"value\": 400, \"unit\": \"1/s\"}}}\n";
        let b = parse_baseline(text).expect("valid");
        assert!(b.correct);
        assert_eq!((b.attempted, b.failed), (3, 1));
        assert_eq!(b.get("setup_s"), Some(1.5));
        assert_eq!(b.get("qps"), Some(400.0));
        assert_eq!(b.get("missing"), None);
    }

    #[test]
    fn bad_input_is_a_typed_error_not_a_panic() {
        assert!(matches!(
            load_baseline(Path::new("no/such/earlier/result.json")),
            Err(BaselineError::Unreadable(_))
        ));
        assert!(matches!(parse_baseline(""), Err(BaselineError::Empty)));
        assert!(matches!(
            parse_baseline("no json here"),
            Err(BaselineError::Empty)
        ));
        assert!(matches!(
            parse_baseline("{\"correct\": tru"),
            Err(BaselineError::Malformed(_))
        ));
        assert!(matches!(
            parse_baseline("{}"),
            Err(BaselineError::Field("correct"))
        ));
        assert!(matches!(
            parse_baseline("{\"correct\": true}"),
            Err(BaselineError::Field("attempted"))
        ));
        assert!(matches!(
            parse_baseline("{\"correct\": true, \"attempted\": 1, \"failed\": -1}"),
            Err(BaselineError::Field("failed"))
        ));
        let head = "{\"correct\": true, \"attempted\": 1, \"failed\": 0";
        assert!(matches!(
            parse_baseline(&format!("{head}}}")),
            Err(BaselineError::Field("metrics"))
        ));
        assert!(matches!(
            parse_baseline(&format!(
                "{head}, \"metrics\": {{\"x\": {{\"unit\": \"s\"}}}}}}"
            )),
            Err(BaselineError::Field("metrics.*.value"))
        ));
        assert!(matches!(
            parse_baseline(&format!("{head}, \"metrics\": {{\"x\": 3}}}}")),
            Err(BaselineError::Field("metrics.*"))
        ));
        // Arbitrary bytes never panic.
        for s in [
            "{",
            "{\"",
            "{\"correct\":",
            "[1,2",
            "{\"metrics\": []}",
            "\u{0}{",
        ] {
            assert!(parse_baseline(s).is_err(), "{s:?}");
        }
    }

    #[test]
    fn host_block_names_every_field() {
        let h = Host::detect(2, CpuTimes::read());
        assert!(h.cores >= 1);
        let v = h.to_value();
        let keys: Vec<&str> = v
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "cores",
                "cpu",
                "rustc",
                "profile",
                "commit",
                "workers",
                "steal_share"
            ]
        );
    }

    #[test]
    fn steal_share_comes_from_the_cpu_line() {
        let a = CpuTimes::parse("cpu  100 0 10 800 5 0 0 85 0 0").expect("valid");
        let b = CpuTimes::parse("cpu  200 0 20 1600 5 0 0 175 0 0").expect("valid");
        assert_eq!(b.steal_share_since(&a), Some(90.0 / 1000.0));
        assert_eq!(a.steal_share_since(&b), None);
        assert_eq!(CpuTimes::parse("cpu0 1 2 3 4 5 6 7 8"), None);
        assert_eq!(CpuTimes::parse("cpu 1 2 x"), None);
        assert_eq!(CpuTimes::parse("cpu 1 2 3"), None);
    }
}
