//! Strict command line of the benchmark.
//!
//! Every flag takes exactly one value, every flag is known, and every value
//! parses completely: anything else is an error and the process exits
//! non-zero before any work starts.

use std::fmt;
use std::path::PathBuf;

/// The three benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadName {
    SedovBlast,
    StaticScale,
    ServiceChurn,
}

impl WorkloadName {
    pub const ALL: [WorkloadName; 3] = [
        WorkloadName::SedovBlast,
        WorkloadName::StaticScale,
        WorkloadName::ServiceChurn,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            WorkloadName::SedovBlast => "sedov_blast",
            WorkloadName::StaticScale => "static_scale",
            WorkloadName::ServiceChurn => "service_churn",
        }
    }

    fn parse(s: &str) -> Option<WorkloadName> {
        WorkloadName::ALL.into_iter().find(|w| w.as_str() == s)
    }
}

/// Parsed arguments of one benchmark invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: WorkloadName,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: u64,
    /// `false`: end-to-end metrics; `true`: the traced per-layer run.
    pub trace: bool,
    /// Directory the traced run writes its artifacts to.
    pub out: Option<PathBuf>,
}

/// A command-line error; `main` prints it with the usage and exits 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

pub const USAGE: &str = "usage: amrbench --workload <sedov_blast|static_scale|service_churn> \
--seed <u64> --seconds <1..=600> --trace <0|1> [--out <dir>]";

/// Longest measured window accepted, in seconds.
const MAX_SECONDS: u64 = 600;

/// Parse the arguments after the program name.
pub fn parse<I, S>(args: I) -> Result<Args, CliError>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = None;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let flag = flag.as_ref().to_string();
        let value = it
            .next()
            .map(|v| v.as_ref().to_string())
            .ok_or_else(|| CliError(format!("{flag}: missing value")))?;
        match flag.as_str() {
            "--workload" => {
                let w = WorkloadName::parse(&value)
                    .ok_or_else(|| CliError(format!("--workload: unknown workload {value:?}")))?;
                set_once(&mut workload, w, &flag)?;
            }
            "--seed" => set_once(&mut seed, parse_u64(&flag, &value)?, &flag)?,
            "--seconds" => {
                let s = parse_u64(&flag, &value)?;
                if !(1..=MAX_SECONDS).contains(&s) {
                    return Err(CliError(format!(
                        "--seconds: {s} is outside 1..={MAX_SECONDS}"
                    )));
                }
                set_once(&mut seconds, s, &flag)?;
            }
            "--trace" => {
                let t = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(CliError(format!("--trace: expected 0 or 1, got {value:?}"))),
                };
                set_once(&mut trace, t, &flag)?;
            }
            "--out" => {
                if value.is_empty() {
                    return Err(CliError("--out: empty path".to_string()));
                }
                set_once(&mut out, PathBuf::from(value), &flag)?;
            }
            _ => return Err(CliError(format!("unknown argument {flag:?}"))),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(|| CliError("--workload is required".to_string()))?,
        seed: seed.ok_or_else(|| CliError("--seed is required".to_string()))?,
        seconds: seconds.ok_or_else(|| CliError("--seconds is required".to_string()))?,
        trace: trace.ok_or_else(|| CliError("--trace is required".to_string()))?,
        out,
    })
}

fn set_once<T>(slot: &mut Option<T>, value: T, flag: &str) -> Result<(), CliError> {
    if slot.replace(value).is_some() {
        return Err(CliError(format!("{flag} given twice")));
    }
    Ok(())
}

fn parse_u64(flag: &str, value: &str) -> Result<u64, CliError> {
    // `u64::from_str` accepts a leading '+'; a strict CLI does not.
    if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
        return Err(CliError(format!(
            "{flag}: expected an unsigned integer, got {value:?}"
        )));
    }
    value
        .parse()
        .map_err(|_| CliError(format!("{flag}: {value:?} does not fit in u64")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(args: &[&str]) -> Args {
        parse(args.iter().copied()).expect("valid arguments")
    }

    fn err(args: &[&str]) -> String {
        parse(args.iter().copied())
            .expect_err("invalid arguments")
            .0
    }

    const BASE: [&str; 8] = [
        "--workload",
        "sedov_blast",
        "--seed",
        "7",
        "--seconds",
        "10",
        "--trace",
        "0",
    ];

    #[test]
    fn parses_a_complete_command_line() {
        let a = ok(&BASE);
        assert_eq!(a.workload, WorkloadName::SedovBlast);
        assert_eq!((a.seed, a.seconds, a.trace, a.out), (7, 10, false, None));
        let a = ok(&[
            "--trace",
            "1",
            "--seconds",
            "1",
            "--seed",
            "18446744073709551615",
            "--workload",
            "service_churn",
            "--out",
            "x",
        ]);
        assert_eq!(a.workload, WorkloadName::ServiceChurn);
        assert_eq!(a.seed, u64::MAX);
        assert!(a.trace);
        assert_eq!(a.out, Some(PathBuf::from("x")));
    }

    #[test]
    fn rejects_unknown_flags_and_malformed_values() {
        let with = |flag: &str, value: &str| {
            let mut v: Vec<&str> = BASE.to_vec();
            let i = v.iter().position(|a| *a == flag).expect("flag in BASE");
            v[i + 1] = value;
            err(&v)
        };
        assert!(err(&[&BASE[..], &["--threads", "4"]].concat()).contains("unknown argument"));
        assert!(err(&[&BASE[..], &["--seed", "8"]].concat()).contains("twice"));
        assert!(err(&[&BASE[..], &["--out"]].concat()).contains("missing value"));
        assert!(err(&BASE[..6]).contains("--trace is required"));
        assert!(with("--workload", "sedov").contains("unknown workload"));
        for bad in ["", "-1", "+3", "1e3", "0x10", "18446744073709551616", " 7"] {
            assert!(with("--seed", bad).starts_with("--seed"), "{bad:?}");
        }
        assert!(with("--seconds", "0").contains("outside"));
        assert!(with("--seconds", "601").contains("outside"));
        assert!(with("--trace", "yes").contains("expected 0 or 1"));
        assert!(err(&["--workload=sedov_blast"]).contains("missing value"));
    }
}
