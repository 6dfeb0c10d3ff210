//! Shared command-line parsing for the bench binaries.
//!
//! `bench_baseline`, `bench_scale`, `bench_sweep` and `bench_fuzz` all
//! take the same shapes of arguments — `--flag value` pairs, comma-separated
//! axis lists, benchmark/backend/scheduler names — and each used to carry
//! its own copy of the parsing loop. The shared pieces live here instead;
//! a malformed value is always an `Err(String)` for the binary to print
//! next to its usage line, never a panic.
//!
//! The matching hand-rolled JSON *writer* shared by the same binaries is
//! [`crate::baseline::json::document`] (the workspace's `serde` is a no-op
//! shim, so JSON output is assembled by hand against one helper).

use tdm_runtime::exec::Backend;
use tdm_runtime::scheduler::SchedulerKind;
use tdm_workloads::Benchmark;

/// A `--flag value --flag2 value2 ...` argument stream.
///
/// # Example
///
/// ```
/// use tdm_bench::cli::Args;
///
/// let raw = vec!["--threads".to_string(), "4".to_string()];
/// let mut args = Args::new(&raw);
/// assert_eq!(args.next_flag(), Some("--threads".to_string()));
/// assert_eq!(args.value("--threads").unwrap(), "4");
/// assert_eq!(args.next_flag(), None);
/// ```
pub struct Args<'a> {
    items: &'a [String],
    pos: usize,
}

impl<'a> Args<'a> {
    /// Wraps a raw argument slice (normally `std::env::args().skip(..)`
    /// collected by the binary).
    pub fn new(items: &'a [String]) -> Self {
        Args { items, pos: 0 }
    }

    /// The next flag token, or `None` when the arguments are exhausted.
    pub fn next_flag(&mut self) -> Option<String> {
        let item = self.items.get(self.pos)?;
        self.pos += 1;
        Some(item.clone())
    }

    /// The value belonging to `flag`, which must be the flag just returned
    /// by [`next_flag`](Args::next_flag).
    pub fn value(&mut self, flag: &str) -> Result<String, String> {
        let item = self
            .items
            .get(self.pos)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        self.pos += 1;
        Ok(item.clone())
    }
}

/// Parses a positive count (`--tasks`, `--threads`, `--window`, ...);
/// rejects zero with `zero_hint` appended to the error.
pub fn parse_count(flag: &str, value: &str, zero_hint: &str) -> Result<usize, String> {
    let n: usize = value.parse().map_err(|e| format!("{flag}: {e}"))?;
    if n == 0 {
        return Err(format!("{flag} must be at least 1{zero_hint}"));
    }
    Ok(n)
}

/// Parses a `u64` flag value (seeds and the like; zero allowed).
pub fn parse_u64(flag: &str, value: &str) -> Result<u64, String> {
    value.parse().map_err(|e| format!("{flag}: {e}"))
}

/// Parses a probability flag (`--fault-rate` and the like): a finite `f64`
/// in `[0, 1]`.
pub fn parse_rate(flag: &str, value: &str) -> Result<f64, String> {
    let rate: f64 = value.parse().map_err(|e| format!("{flag}: {e}"))?;
    if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
        return Err(format!(
            "{flag} must be a probability in [0, 1], got {value}"
        ));
    }
    Ok(rate)
}

/// Parses a Table II benchmark by (case-insensitive) name.
pub fn parse_benchmark(name: &str) -> Result<Benchmark, String> {
    Benchmark::ALL
        .into_iter()
        .find(|b| b.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            let known: Vec<&str> = Benchmark::ALL.iter().map(|b| b.name()).collect();
            format!("unknown benchmark {name:?} (known: {})", known.join(", "))
        })
}

/// Parses a backend by name (`software`/`sw`, `tdm`, `carbon`,
/// `tss`/`tasksuperscalar`), with the default DMU geometry where one is
/// needed.
pub fn parse_backend(name: &str) -> Result<Backend, String> {
    match name.to_ascii_lowercase().as_str() {
        "software" | "sw" => Ok(Backend::Software),
        "tdm" => Ok(Backend::tdm_default()),
        "carbon" => Ok(Backend::Carbon),
        "tss" | "tasksuperscalar" => Ok(Backend::task_superscalar_default()),
        other => Err(format!(
            "unknown backend {other:?} (known: software, tdm, carbon, tss)"
        )),
    }
}

/// Parses a scheduler policy by (case-insensitive) display name.
pub fn parse_scheduler(name: &str) -> Result<SchedulerKind, String> {
    SchedulerKind::all()
        .into_iter()
        .find(|k| k.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            format!("unknown scheduler {name:?} (known: fifo, lifo, locality, successor, age)")
        })
}

/// Parses a non-empty comma-separated list with a per-item parser.
pub fn parse_list<T>(
    flag: &str,
    value: &str,
    parse: impl Fn(&str) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let items: Vec<&str> = value
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    if items.is_empty() {
        return Err(format!("{flag} needs a non-empty comma-separated list"));
    }
    items.iter().map(|s| parse(s)).collect()
}

/// Writes `content` to `path` with the error message the binaries share.
pub fn write_output(path: &str, content: &str) -> Result<(), String> {
    std::fs::write(path, content).map_err(|e| format!("cannot write {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_walk_flags_and_values() {
        let raw: Vec<String> = ["--a", "1", "--b", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut args = Args::new(&raw);
        assert_eq!(args.next_flag().as_deref(), Some("--a"));
        assert_eq!(args.value("--a").unwrap(), "1");
        assert_eq!(args.next_flag().as_deref(), Some("--b"));
        assert_eq!(args.value("--b").unwrap(), "2");
        assert_eq!(args.next_flag(), None);
    }

    #[test]
    fn missing_value_is_an_error_not_a_panic() {
        let raw: Vec<String> = vec!["--threads".to_string()];
        let mut args = Args::new(&raw);
        args.next_flag();
        assert!(args
            .value("--threads")
            .unwrap_err()
            .contains("needs a value"));
    }

    #[test]
    fn counts_reject_zero_and_garbage() {
        assert_eq!(parse_count("--tasks", "5", "").unwrap(), 5);
        assert!(parse_count("--tasks", "0", " task").is_err());
        assert!(parse_count("--tasks", "x", "").is_err());
        assert_eq!(parse_u64("--seed", "0").unwrap(), 0);
        assert!(parse_u64("--seed", "?").is_err());
    }

    #[test]
    fn rates_must_be_finite_probabilities() {
        assert_eq!(parse_rate("--fault-rate", "0").unwrap(), 0.0);
        assert_eq!(parse_rate("--fault-rate", "0.25").unwrap(), 0.25);
        assert_eq!(parse_rate("--fault-rate", "1").unwrap(), 1.0);
        for bad in ["-0.1", "1.5", "NaN", "inf", "x"] {
            assert!(parse_rate("--fault-rate", bad).is_err(), "{bad} accepted");
        }
    }

    #[test]
    fn names_resolve_case_insensitively() {
        assert_eq!(parse_benchmark("CHOLESKY").unwrap().name(), "cholesky");
        assert!(parse_benchmark("nope").is_err());
        assert_eq!(parse_backend("SW").unwrap().name(), "Software");
        assert_eq!(parse_backend("tss").unwrap().name(), "TaskSuperscalar");
        assert!(parse_backend("nope").is_err());
        assert_eq!(parse_scheduler("age").unwrap().name(), "Age");
        assert!(parse_scheduler("nope").is_err());
    }

    #[test]
    fn lists_split_trim_and_reject_empty() {
        let v = parse_list("--x", "a, b ,c", |s| Ok(s.to_string())).unwrap();
        assert_eq!(v, vec!["a", "b", "c"]);
        assert!(parse_list("--x", " , ", |s| Ok(s.to_string())).is_err());
        assert!(parse_list("--x", "a,b", |s| {
            if s == "b" {
                Err("bad".to_string())
            } else {
                Ok(s.to_string())
            }
        })
        .is_err());
    }
}
