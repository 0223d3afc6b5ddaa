//! Shared plumbing of the bench binaries' `--check` regression gates.
//!
//! A gate compares a fresh measurement against a committed `BENCH_*.json`
//! baseline. Everything it reads from outside the process — flag values
//! and the baseline file — arrives through this module as a typed
//! [`GateError`], never a panic, and the binaries turn that error into
//! exit code [`EXIT_ERROR`]. Exit code [`EXIT_REGRESSION`] stays reserved
//! for a measurement that really fell outside its gate, so CI can tell
//! "the code regressed" from "the gate was invoked wrongly".

use std::fmt;
use std::str::FromStr;

use serde::Deserialize;

/// Exit code of a measurement that failed its gate.
pub const EXIT_REGRESSION: i32 = 1;

/// Exit code of a usage or baseline error: the gate could not run.
pub const EXIT_ERROR: i32 = 2;

/// Why a gate could not compare a measurement against its baseline.
#[derive(Debug)]
pub enum GateError {
    /// A flag value that does not parse as the flag's type.
    BadFlag {
        /// The flag, e.g. `--point`.
        flag: &'static str,
        /// The value given.
        value: String,
    },
    /// The baseline file could not be read.
    Read {
        /// Baseline path.
        path: String,
        /// The I/O failure.
        source: std::io::Error,
    },
    /// The baseline is not JSON of the expected artifact type.
    Parse {
        /// Baseline path.
        path: String,
        /// The parse failure.
        source: serde_json::Error,
    },
    /// The baseline has no entry for what was measured.
    Missing {
        /// Baseline path.
        path: String,
        /// The entry looked for, e.g. `800-peer point`.
        entry: String,
    },
}

impl fmt::Display for GateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateError::BadFlag { flag, value } => write!(f, "{flag}: invalid value {value:?}"),
            GateError::Read { path, source } => write!(f, "read baseline {path}: {source}"),
            GateError::Parse { path, source } => write!(f, "parse baseline {path}: {source}"),
            GateError::Missing { path, entry } => write!(f, "baseline {path} has no {entry}"),
        }
    }
}

impl std::error::Error for GateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GateError::Read { source, .. } => Some(source),
            GateError::Parse { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl GateError {
    /// Reports the error on stderr as `bin` and exits with
    /// [`EXIT_ERROR`].
    pub fn exit(&self, bin: &str) -> ! {
        eprintln!("[{bin}: ERROR — {self}]");
        std::process::exit(EXIT_ERROR)
    }
}

/// Loads a committed baseline artifact of any `BENCH_*.json` type.
///
/// # Errors
///
/// [`GateError::Read`] when the file cannot be read, [`GateError::Parse`]
/// when it is not valid JSON of type `T`.
pub fn load_baseline<T: Deserialize>(path: &str) -> Result<T, GateError> {
    let text = std::fs::read_to_string(path).map_err(|source| GateError::Read {
        path: path.to_owned(),
        source,
    })?;
    serde_json::from_str(&text).map_err(|source| GateError::Parse {
        path: path.to_owned(),
        source,
    })
}

/// Unwraps a baseline lookup (`point`, `severity`, ...), naming the
/// missing `entry` on failure.
///
/// # Errors
///
/// [`GateError::Missing`] when `found` is `None`.
pub fn require<'a, T>(found: Option<&'a T>, path: &str, entry: &str) -> Result<&'a T, GateError> {
    found.ok_or_else(|| GateError::Missing {
        path: path.to_owned(),
        entry: entry.to_owned(),
    })
}

/// Parses the value of `flag`.
///
/// # Errors
///
/// [`GateError::BadFlag`] when `value` does not parse as `T`.
pub fn parse_flag<T: FromStr>(flag: &'static str, value: &str) -> Result<T, GateError> {
    value.parse().map_err(|_| GateError::BadFlag {
        flag,
        value: value.to_owned(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::MatrixBench;
    use crate::qps::QpsBench;
    use crate::scale::ScaleBench;
    use crate::soak::{SoakBench, SLICE_SEVERITY};

    /// A scratch file under the OS temp dir, removed on drop.
    struct TempFile(std::path::PathBuf);

    impl TempFile {
        fn with(name: &str, text: &str) -> Self {
            let path =
                std::env::temp_dir().join(format!("ace-gate-{}-{name}.json", std::process::id()));
            std::fs::write(&path, text).unwrap();
            TempFile(path)
        }

        fn path(&self) -> &str {
            self.0.to_str().unwrap()
        }
    }

    impl Drop for TempFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn missing_file_is_a_read_error() {
        let path = std::env::temp_dir().join("ace-gate-no-such-baseline.json");
        let err = load_baseline::<QpsBench>(path.to_str().unwrap()).unwrap_err();
        assert!(matches!(err, GateError::Read { .. }), "{err:?}");
        assert!(err.to_string().contains("ace-gate-no-such-baseline.json"));
    }

    #[test]
    fn malformed_json_is_a_parse_error() {
        for (name, text) in [("truncated", "{\"rounds\": 3,"), ("wrong-shape", "[1, 2]")] {
            let file = TempFile::with(name, text);
            let err = load_baseline::<ScaleBench>(file.path()).unwrap_err();
            assert!(matches!(err, GateError::Parse { .. }), "{name}: {err:?}");
        }
    }

    #[test]
    fn absent_point_is_a_missing_error() {
        let file = TempFile::with("no-points", r#"{"rounds": 3, "chunk": 256, "points": []}"#);
        let bench: QpsBench = load_baseline(file.path()).unwrap();
        let err = require(bench.point(800), file.path(), "800-peer point").unwrap_err();
        assert!(matches!(err, GateError::Missing { .. }), "{err:?}");
        assert!(err.to_string().ends_with("has no 800-peer point"), "{err}");
    }

    /// Every committed artifact a CI gate checks against loads as its
    /// type and holds the entry that gate looks up.
    #[test]
    fn committed_baselines_load() {
        let path = |name: &str| format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
        let qps = path("BENCH_qps.json");
        let bench: QpsBench = load_baseline(&qps).unwrap();
        require(bench.point(800), &qps, "800-peer point").unwrap();
        let scale = path("BENCH_scale.json");
        let bench: ScaleBench = load_baseline(&scale).unwrap();
        require(bench.point(5000), &scale, "5000-peer point").unwrap();
        let soak = path("BENCH_soak.json");
        let bench: SoakBench = load_baseline(&soak).unwrap();
        require(bench.severity(SLICE_SEVERITY), &soak, "slice severity").unwrap();
        let bench: MatrixBench = load_baseline(&path("BENCH_matrix.json")).unwrap();
        assert!(!bench.cells.is_empty());
    }

    #[test]
    fn bad_flag_values_are_typed() {
        assert_eq!(parse_flag::<usize>("--point", "800").unwrap(), 800);
        let err = parse_flag::<usize>("--workers", "four").unwrap_err();
        assert!(matches!(
            err,
            GateError::BadFlag {
                flag: "--workers",
                ..
            }
        ));
        assert_eq!(err.to_string(), "--workers: invalid value \"four\"");
    }
}
