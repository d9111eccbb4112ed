//! What the two binaries share: arguments, the environment stamp, and the
//! attempt loop with its disturbed-host guard.

use crate::procfs;
use crate::report::{self, Metric, Summary};
use crate::workload::{self, Attempt, Params, Spec};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A disturbed or invalid attempt is repeated at most this many times.
const MAX_REPEATS: usize = 2;
/// No repeat is started unless it can end inside this budget: the builder's
/// contract gives one invocation 180 s.
const REPEAT_BUDGET: Duration = Duration::from_secs(150);

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// `--workload`.
    pub spec: &'static Spec,
    /// `--seed` (default 1).
    pub seed: u64,
    /// `--seconds`: the measured window (default 20).
    pub window: Duration,
    /// `--warmup` seconds before the window (default 2).
    pub warmup: Duration,
    /// `--setups`: how many times the ensemble is set up (default 3).
    pub setups: usize,
    /// `--trace`: 1 asks for the per-layer metrics.
    pub trace: bool,
}

/// Parses `--name value` pairs.
///
/// # Errors
///
/// Unknown option, missing or malformed value, unknown or missing workload.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut spec, mut seed, mut seconds, mut warmup, mut setups, mut trace) =
        (None, 1, 20.0, 2.0, 3, false);
    let mut args = args.into_iter();
    while let Some(name) = args.next() {
        let value = args.next().ok_or_else(|| format!("{name} needs a value"))?;
        let bad = |what: &str| format!("{name} {value}: {what}");
        match name.as_str() {
            "--workload" => {
                spec = Some(workload::spec(&value).ok_or_else(|| {
                    let known: Vec<_> = workload::SPECS.iter().map(|s| s.name).collect();
                    bad(&format!("unknown workload; known: {}", known.join(", ")))
                })?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad("not a whole number"))?,
            "--seconds" => seconds = value.parse().map_err(|_| bad("not a number"))?,
            "--warmup" => warmup = value.parse().map_err(|_| bad("not a number"))?,
            "--setups" => setups = value.parse().map_err(|_| bad("not a whole number"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown option {name}")),
        }
    }
    let in_range = |s: f64| s.is_finite() && (0.0..=3600.0).contains(&s);
    if !in_range(seconds) || seconds < 1.0 || !in_range(warmup) || setups == 0 {
        return Err(
            "--seconds must be 1..=3600, --warmup 0..=3600, --setups at least 1".to_string()
        );
    }
    Ok(Args {
        spec: spec.ok_or("--workload is required")?,
        seed,
        window: Duration::from_secs_f64(seconds),
        warmup: Duration::from_secs_f64(warmup),
        setups,
        trace,
    })
}

/// The arguments of this process, for the binary that serves `--trace 0`
/// (`traced` false) or `--trace 1` (`traced` true).
///
/// # Errors
///
/// As [`parse_args`]; or the other binary was meant.
pub fn args_for(traced: bool) -> Result<Args, String> {
    let args = parse_args(std::env::args().skip(1))?;
    if args.trace != traced {
        let other = if traced { "zab-benchmark" } else { "zab-benchmark-layers" };
        return Err(format!("--trace {} is {other}'s job", u8::from(args.trace)));
    }
    Ok(args)
}

/// Where `FileStorage` directories go: `$ZAB_BENCH_DATA_DIR`, else
/// `benchmark/out/data` under the current directory. A sub-directory named
/// after this process keeps concurrent runs apart.
pub fn data_dir() -> PathBuf {
    let root = std::env::var_os("ZAB_BENCH_DATA_DIR")
        .map_or_else(|| out_dir().join("data"), PathBuf::from);
    root.join(format!("run-{}", std::process::id()))
}

/// Where the benchmark leaves files: results, spans, data directories.
pub fn out_dir() -> PathBuf {
    PathBuf::from("benchmark/out")
}

/// Where the end-to-end run of `workload` leaves its result line, for the
/// traced run to compute its overhead against.
pub fn result_path(workload: &str) -> PathBuf {
    out_dir().join(format!("e2e-{workload}.json"))
}

/// `# key value` lines describing where and how the run was made.
pub fn stamp(args: &Args, data_dir: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let commit = std::env::var("ZAB_BENCH_COMMIT").unwrap_or_else(|_| "unknown".to_string());
    let _ = std::fs::create_dir_all(data_dir);
    let spec = args.spec;
    format!(
        "# workload {} (n={}, {:?}, {:?}, {} B, {})\n# seed {}\n# window_s {} after warmup_s {}, \
         setups {}\n# commit {commit}\n# nproc {nproc}\n# kernel {}\n# data_dir {} ({})\n\
         # injected_message_delay_us 0 (real TCP over loopback in one process: latency is \
         processor plus kernel loopback time)\n",
        spec.name,
        spec.n,
        spec.app,
        spec.load,
        spec.payload,
        if spec.file { "FileStorage" } else { "MemStorage" },
        args.seed,
        args.window.as_secs_f64(),
        args.warmup.as_secs_f64(),
        args.setups,
        procfs::kernel(),
        data_dir.display(),
        procfs::filesystem_of(data_dir),
    )
}

/// What one attempt produced.
pub struct Measured {
    /// Raw measurements.
    pub attempt: Attempt,
    /// Per-layer metrics a traced attempt adds; empty otherwise.
    pub layers: Vec<Metric>,
}

/// Runs attempts until one is undisturbed and valid (at most
/// [`MAX_REPEATS`] repeats, inside [`REPEAT_BUDGET`]), printing every attempt,
/// kept or not. Returns the last attempt's summary and per-layer metrics, and
/// whether its correctness epilogue passed.
///
/// # Errors
///
/// The ensemble could not be run, or acknowledged nothing.
pub fn attempts(
    args: &Args,
    data_dir: &Path,
    mut run: impl FnMut(Params<'_>) -> Result<Measured, String>,
) -> Result<(Summary, Vec<Metric>, bool), String> {
    let started = Instant::now();
    let mut attempt_no = 0;
    loop {
        attempt_no += 1;
        let attempt_started = Instant::now();
        let measured = run(Params {
            spec: args.spec,
            seed: args.seed,
            warmup: args.warmup,
            window: args.window,
            setups: args.setups,
            data_dir,
        })?;
        let summary = report::summarise(args.spec, &measured.attempt)?;
        let correct = measured.attempt.violations.is_empty();
        for v in &measured.attempt.violations {
            println!("# VIOLATION {v}");
        }
        let verdict = match (&summary.invalid, &summary.disturbed) {
            (Some(why), _) => format!("invalid: {why}"),
            (None, Some(why)) => format!("disturbed: {why}"),
            (None, None) => "kept".to_string(),
        };
        println!(
            "# attempt {attempt_no}: {verdict}; attempted {} failed {} correct {correct}",
            summary.attempted, summary.failed
        );
        println!("# ensemble_ready_s {:?}", measured.attempt.setup_s);
        for slice in &summary.slices {
            println!("# slice {slice}");
        }
        print!("{}", report::lines(&summary.end_to_end));
        print!("{}", report::lines(&summary.harness));
        print!("{}", report::lines(&measured.layers));
        let repeatable = correct && (summary.invalid.is_some() || summary.disturbed.is_some());
        let fits = started.elapsed() + attempt_started.elapsed() < REPEAT_BUDGET;
        if !repeatable || attempt_no > MAX_REPEATS || !fits {
            return Ok((summary, measured.layers, correct));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse(&[
            "--workload",
            "steady-1k-n5",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("parses");
        assert_eq!(a.spec.name, "steady-1k-n5");
        assert_eq!((a.seed, a.window, a.trace), (7, Duration::from_secs(10), true));
        assert_eq!((a.warmup, a.setups), (Duration::from_secs(2), 3));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload", "nope"]).unwrap_err().contains("sat-kv-128-mem"));
        assert!(parse(&["--workload", "sat-1k-file", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload", "sat-1k-file", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "sat-1k-file", "--seed"]).is_err());
        assert!(parse(&["--workload", "sat-1k-file", "--frobnicate", "1"]).is_err());
    }
}
