//! # amr-bench — experiment harness
//!
//! One binary per table/figure of the paper (see DESIGN.md §3 for the full
//! index):
//!
//! | binary              | reproduces            |
//! |---------------------|-----------------------|
//! | `table1`            | Table I               |
//! | `fig1_correlation`  | Fig. 1 (top + bottom) |
//! | `fig2_throttling`   | Fig. 2                |
//! | `fig3_tuning`       | Fig. 3                |
//! | `fig4_critical_path`| Fig. 4                |
//! | `fig5_meshviz`      | Fig. 5 (terminal render) |
//! | `fig6_sedov`        | Fig. 6a/6b/6c (`--csv` exports plot data) |
//! | `fig7a_commbench`   | Fig. 7 top            |
//! | `fig7b_scalebench`  | Fig. 7 middle         |
//! | `fig7c_overhead`    | Fig. 7 bottom         |
//!
//! Ablations beyond the paper's figures:
//!
//! | binary                 | question                                     |
//! |------------------------|----------------------------------------------|
//! | `ablation_costs`       | telemetry-measured vs "cost = 1" hooks       |
//! | `ablation_trigger`     | when to rebalance                            |
//! | `ablation_chunking`    | CDP chunk size: quality vs wall time         |
//! | `ablation_sfc`         | Z-order vs Hilbert ordering                  |
//! | `ablation_edgecut`     | does the edge cut predict measured latency?  |
//! | `ablation_overlap`     | async masking vs placement                   |
//! | `ablation_variability` | compute variability vs placement benefit     |
//! | `ablation_blend`       | the naive CDP/LPT blend dead end (§V-D)      |
//!
//! Criterion benches (`benches/`) cover placement-policy throughput, mesh
//! operations, telemetry ingest/query/codec/pushdown and simulator rounds.
//!
//! This library hosts the shared plumbing: a tiny strict `--key value`
//! argument parser (no CLI dependency), the CPLX policy roster, and fixed-width
//! table rendering for terminal reports.

use amr_core::policies::{Baseline, Cplx, PlacementPolicy};

pub mod e2e;
pub mod service_load;

/// Strict `--key value` (and bare `--flag`) command-line arguments.
///
/// A binary reads every option it knows, then calls [`Args::finish`]. That
/// prints a message naming the offending flag and exits with status 2 on:
/// a flag the binary never read, a repeated flag, a stray positional
/// argument, or a malformed value. A typo'd flag therefore fails loudly
/// instead of running the default sweep.
///
/// ```
/// let mut args = amr_bench::Args::from_iter(["--ranks", "512", "--fast"].iter().map(|s| s.to_string()));
/// assert_eq!(args.get_usize("ranks", 64), 512);
/// assert!(args.flag("fast"));
/// assert_eq!(args.get_u64("steps", 100), 100);
/// assert!(args.check().is_ok());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// `(key, value)` in command-line order; `None` for a bare `--flag`.
    given: Vec<(String, Option<String>)>,
    /// Keys the binary asked for.
    read: Vec<String>,
    /// Parse and value errors, reported by [`Args::check`].
    errors: Vec<String>,
}

impl Args {
    /// Parse from `std::env::args()` (skipping the binary name).
    pub fn from_env() -> Args {
        Args::from_iter(std::env::args().skip(1))
    }

    /// Parse from an explicit iterator (for tests). A token after `--key`
    /// that does not itself start with `--` is that key's value.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I: IntoIterator<Item = String>>(iter: I) -> Args {
        let mut args = Args::default();
        let mut iter = iter.into_iter().peekable();
        while let Some(arg) = iter.next() {
            let Some(key) = arg.strip_prefix("--") else {
                args.errors.push(format!("unexpected argument `{arg}`"));
                continue;
            };
            let value = iter.next_if(|next| !next.starts_with("--"));
            if args.given.iter().any(|(k, _)| k == key) {
                args.errors.push(format!("--{key} given more than once"));
                continue;
            }
            args.given.push((key.to_string(), value));
        }
        args
    }

    /// Mark `key` read and return what the command line gave for it:
    /// `None` if absent, `Some(None)` for a bare flag.
    fn take(&mut self, key: &str) -> Option<Option<String>> {
        self.read.push(key.to_string());
        let (_, value) = self.given.iter().find(|(k, _)| k == key)?;
        Some(value.clone())
    }

    /// Parsed value of `--key`, or `default` if absent. A missing or
    /// unparsable value is recorded as an error (and `default` returned).
    fn value<T: std::str::FromStr>(&mut self, key: &str, default: T, what: &str) -> T {
        match self.take(key) {
            None => default,
            Some(Some(v)) => v.trim().parse().unwrap_or_else(|_| {
                self.errors
                    .push(format!("--{key} expects {what}, got `{v}`"));
                default
            }),
            Some(None) => {
                self.errors.push(format!("--{key} expects {what}"));
                default
            }
        }
    }

    /// String value or default.
    pub fn get(&mut self, key: &str, default: &str) -> String {
        self.value(key, default.to_string(), "a value")
    }

    /// `usize` value or default.
    pub fn get_usize(&mut self, key: &str, default: usize) -> usize {
        self.value(key, default, "an integer")
    }

    /// `u64` value or default.
    pub fn get_u64(&mut self, key: &str, default: u64) -> u64 {
        self.value(key, default, "an integer")
    }

    /// `f64` value or default.
    pub fn get_f64(&mut self, key: &str, default: f64) -> f64 {
        self.value(key, default, "a number")
    }

    /// Comma-separated list of `usize`s or default.
    pub fn get_usize_list(&mut self, key: &str, default: &[usize]) -> Vec<usize> {
        let list = self.get(key, "");
        if list.is_empty() {
            return default.to_vec();
        }
        let parsed: Result<Vec<usize>, _> = list.split(',').map(|s| s.trim().parse()).collect();
        parsed.unwrap_or_else(|_| {
            self.errors.push(format!(
                "--{key} expects a comma-separated list of integers, got `{list}`"
            ));
            default.to_vec()
        })
    }

    /// Was a bare `--flag` present?
    pub fn flag(&mut self, key: &str) -> bool {
        match self.take(key) {
            None => false,
            Some(None) => true,
            Some(Some(v)) => {
                self.errors
                    .push(format!("--{key} takes no value, got `{v}`"));
                false
            }
        }
    }

    /// Every error so far, plus every flag no getter asked for, one per
    /// line; `Ok` when the command line was fully understood.
    pub fn check(&self) -> Result<(), String> {
        let unknown = self
            .given
            .iter()
            .filter(|(k, _)| !self.read.contains(k))
            .map(|(k, _)| format!("unknown flag --{k}"));
        let errors: Vec<String> = self.errors.iter().cloned().chain(unknown).collect();
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors.join("\n"))
        }
    }

    /// Call after the last getter: on any [`Args::check`] error, print it
    /// and exit with status 2.
    pub fn finish(&self) {
        if let Err(e) = self.check() {
            for line in e.lines() {
                eprintln!("error: {line}");
            }
            std::process::exit(2);
        }
    }
}

/// The policy roster of the paper's evaluation: the production baseline plus
/// CPLX at X ∈ {0, 25, 50, 75, 100} (§VI-A).
pub fn policy_roster() -> Vec<Box<dyn PlacementPolicy + Send + Sync>> {
    let mut v: Vec<Box<dyn PlacementPolicy + Send + Sync>> = vec![Box::new(Baseline)];
    for x in [0u32, 25, 50, 75, 100] {
        v.push(Box::new(Cplx::new(x)));
    }
    v
}

/// CPLX-only roster (Fig. 7 sweeps X without the baseline).
pub fn cplx_roster() -> Vec<Cplx> {
    [0u32, 25, 50, 75, 100].map(Cplx::new).to_vec()
}

/// Render an aligned fixed-width table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row arity mismatch");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&head, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Format nanoseconds as engineering-friendly milliseconds.
pub fn fmt_ms(ns: f64) -> String {
    format!("{:.2}", ns / 1e6)
}

/// Format nanoseconds as seconds.
pub fn fmt_s(ns: f64) -> String {
    format!("{:.3}", ns / 1e9)
}

/// Format a ratio as a signed percentage ("-21.6%").
pub fn fmt_pct_delta(new: f64, baseline: f64) -> String {
    if baseline == 0.0 {
        return "n/a".into();
    }
    format!("{:+.1}%", (new - baseline) / baseline * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::from_iter(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn args_parse_values_and_flags() {
        let mut a = args(&[
            "--ranks", "512", "--quick", "--scale", "2.5", "--list", "1,2,3", "--out", "x",
        ]);
        assert_eq!(a.get_usize("ranks", 0), 512);
        assert!(a.flag("quick"));
        assert!(!a.flag("slow"));
        assert!((a.get_f64("scale", 0.0) - 2.5).abs() < 1e-12);
        assert_eq!(a.get_usize_list("list", &[]), vec![1, 2, 3]);
        assert_eq!(a.get_usize_list("missing-list", &[7]), vec![7]);
        assert_eq!(a.get("missing", "d"), "d");
        assert_eq!(a.get("out", "d"), "x");
        assert_eq!(a.get_u64("ranks", 0), 512);
        assert_eq!(a.check(), Ok(()));
    }

    #[test]
    fn unknown_flag_is_an_error() {
        let mut a = args(&["--ranks", "8", "--rnaks", "9", "--smoke"]);
        assert_eq!(a.get_usize("ranks", 0), 8);
        let err = a.check().unwrap_err();
        assert!(err.contains("unknown flag --rnaks"), "{err}");
        assert!(err.contains("unknown flag --smoke"), "{err}");
        assert!(!err.contains("--ranks"), "{err}");
    }

    #[test]
    fn repeated_flag_is_an_error() {
        let mut a = args(&["--ranks", "8", "--ranks", "9"]);
        assert_eq!(a.get_usize("ranks", 0), 8);
        let err = a.check().unwrap_err();
        assert!(err.contains("--ranks given more than once"), "{err}");
        let mut a = args(&["--smoke", "--smoke"]);
        assert!(a.flag("smoke"));
        assert!(a
            .check()
            .unwrap_err()
            .contains("--smoke given more than once"));
    }

    #[test]
    fn stray_positional_is_an_error() {
        let mut a = args(&["512", "--ranks", "8", "extra"]);
        assert_eq!(a.get_usize("ranks", 0), 8);
        let err = a.check().unwrap_err();
        assert!(err.contains("unexpected argument `512`"), "{err}");
        assert!(err.contains("unexpected argument `extra`"), "{err}");
    }

    #[test]
    fn malformed_values_are_errors() {
        let mut a = args(&[
            "--ranks", "many", "--scale", "x", "--list", "1,b", "--smoke", "3", "--seed",
        ]);
        assert_eq!(a.get_usize("ranks", 4), 4);
        assert_eq!(a.get_f64("scale", 1.5), 1.5);
        assert_eq!(a.get_usize_list("list", &[2]), vec![2]);
        assert!(!a.flag("smoke"));
        assert_eq!(a.get_u64("seed", 1), 1);
        let err = a.check().unwrap_err();
        for needle in [
            "--ranks expects an integer, got `many`",
            "--scale expects a number, got `x`",
            "--list expects a comma-separated list of integers, got `1,b`",
            "--smoke takes no value, got `3`",
            "--seed expects an integer",
        ] {
            assert!(err.contains(needle), "missing `{needle}` in:\n{err}");
        }
        assert_eq!(err.lines().count(), 5, "{err}");
    }

    #[test]
    fn roster_names() {
        let names: Vec<String> = policy_roster().iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            vec!["baseline", "cpl0", "cpl25", "cpl50", "cpl75", "cpl100"]
        );
        assert_eq!(cplx_roster().len(), 5);
    }

    #[test]
    fn table_alignment() {
        let t = render_table(
            &["a", "long"],
            &[vec!["1".into(), "2".into()], vec!["100".into(), "x".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("a") && lines[0].contains("long"));
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_ms(2_500_000.0), "2.50");
        assert_eq!(fmt_s(1_500_000_000.0), "1.500");
        assert_eq!(fmt_pct_delta(78.4, 100.0), "-21.6%");
        assert_eq!(fmt_pct_delta(1.0, 0.0), "n/a");
    }
}
