//! The rescache benchmark: end-to-end host time of the paper's sweeps, in
//! process and over the JSON-lines sweep service, and a traced run that
//! splits that time by layer.
//!
//! ```text
//! perfbench --workload <fig5_cold|service_cold|service_warm|all> \
//!           [--seed N] [--seconds S] [--trace 0|1]
//! perfbench spread FILE...
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics with `--trace 0`,
//! per-layer metrics with `--trace 1`). `spread` reads such lines, one run
//! per file, and prints each metric's median and quartile spread. See
//! `README.md` beside this file for the metric definitions.

mod check;
mod client;
mod fig5;
mod host;
mod probes;
mod service;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use rescache::core::experiment::{effective_workers, RunnerConfig};
use rescache::core::json::Json;
use rescache::energy::Objective;
use rescache::trace::TraceFormat;

use check::Tally;

const WORKLOADS: [&str; 3] = ["fig5_cold", "service_cold", "service_warm"];

/// The seed the fig5 digest is pinned at.
pub const DEFAULT_SEED: u64 = 42;

/// How many times each run sets up; `setup_s` is the median.
const SETUP_REPS: usize = 7;

/// A run measures for at least its `--seconds`, and longer (up to this many
/// times that) only while a reported tail still lacks ten samples beyond it.
const MAX_EXTENSION: f64 = 3.0;

/// Simulation lengths every workload runs: caches warm over the warm-up
/// region before statistics start.
pub fn runner_config(seed: u64) -> RunnerConfig {
    RunnerConfig {
        warmup_instructions: 10_000,
        measure_instructions: 30_000,
        trace_seed: seed,
        dynamic_interval: 512,
        trace_format: TraceFormat::V3,
        objective: Objective::Edp,
    }
}

/// What one run is asked to do, and where its results go.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub config: RunnerConfig,
    pub tally: Tally,
    /// Scratch space inside the checkout: stores and the span file.
    pub out_dir: PathBuf,
}

/// One named value with its unit and, where it summarises samples, their
/// count.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    pub samples: Option<usize>,
}

/// Metrics in report order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        self.push(name, value, unit, None);
    }

    /// A value computed from `n` samples.
    pub fn add_n(&mut self, name: impl Into<String>, value: f64, unit: &str, n: usize) {
        self.push(name, value, unit, Some(n));
    }

    fn push(&mut self, name: impl Into<String>, value: f64, unit: &str, samples: Option<usize>) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit: unit.to_string(),
            samples,
        });
    }

    fn json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|m| {
                    let metric = Json::Obj(vec![
                        ("value".into(), Json::Num(m.value)),
                        ("unit".into(), Json::Str(m.unit.clone())),
                    ]);
                    (m.name.clone(), metric)
                })
                .collect(),
        )
    }

    /// Reads the `metrics` object of a result line.
    fn from_json(metrics: &Json) -> Option<Self> {
        let Json::Obj(entries) = metrics else {
            return None;
        };
        let mut out = Self::default();
        for (name, m) in entries {
            let value = m.get("value").and_then(Json::as_f64)?;
            out.add(name.clone(), value, m.get("unit").and_then(Json::as_str)?);
        }
        Some(out)
    }
}

/// Whether a phase that started at `start` and was asked to last `seconds`
/// may stop: its time is up and every reported tail has ten samples beyond
/// it (or the extension cap is reached).
pub fn phase_done(start: Instant, seconds: f64, sweeps: usize, results: usize) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    let tails = stats::reportable(sweeps, 90.0) && stats::reportable(results, 90.0);
    elapsed >= seconds && (tails || elapsed >= seconds * MAX_EXTENSION)
}

/// Host-time samples of one measured phase.
#[derive(Debug, Default, Clone)]
pub struct Phase {
    pub elapsed_s: f64,
    /// Measurements delivered (sweep points, or `result` lines).
    pub points: u64,
    pub sweep_ms: Vec<f64>,
    pub result_ms: Vec<f64>,
    pub dynamic_ms: Vec<f64>,
}

impl Phase {
    pub fn merge(&mut self, other: Phase) {
        self.points += other.points;
        self.sweep_ms.extend(other.sweep_ms);
        self.result_ms.extend(other.result_ms);
        self.dynamic_ms.extend(other.dynamic_ms);
    }

    pub fn finished(&self, start: Instant, seconds: f64) -> bool {
        phase_done(start, seconds, self.sweep_ms.len(), self.result_ms.len())
    }

    pub fn points_per_s(&self) -> f64 {
        self.points as f64 / self.elapsed_s
    }

    /// The end-to-end metrics, with `setup_s` the median of `setups`.
    pub fn e2e(&self, setups: &[f64]) -> Metrics {
        let mut m = Metrics::default();
        let setup = stats::median(setups).unwrap_or(f64::NAN);
        println!("# setup_s of each set-up: {setups:.6?}");
        m.add_n("setup_s", setup, "s", setups.len());
        m.add_n(
            "points_per_s",
            self.points_per_s(),
            "1/s",
            self.points as usize,
        );
        for (name, samples, p) in [
            ("sweep_ms_p50", &self.sweep_ms, 50.0),
            ("sweep_ms_p90", &self.sweep_ms, 90.0),
            ("result_ms_p50", &self.result_ms, 50.0),
            ("result_ms_p90", &self.result_ms, 90.0),
        ] {
            if !stats::reportable(samples.len(), p) {
                eprintln!(
                    "perfbench: {name} has {} samples, fewer than its tail needs ({})",
                    samples.len(),
                    stats::samples_needed(p)
                );
            }
            let value = stats::percentile(samples, p).unwrap_or(f64::NAN);
            m.add_n(name, value, "ms", samples.len());
        }
        m.add("peak_rss_mb", host::peak_rss_mb(), "MiB");
        m
    }
}

/// Times `f` once, in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|_| "--seed wants an integer")?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds wants a positive number")?
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace wants 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if parsed.workload != "all" && !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload wants one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(parsed)
}

/// The checkout this runs in must be the repository: the benchmark builds
/// the program from it and refuses to run anywhere else.
fn checkout_ok() -> Result<(), String> {
    for needed in ["Cargo.toml", "crates/core", "perfbench/Cargo.toml"] {
        if !std::path::Path::new(needed).exists() {
            return Err(format!("{needed} not found: run from the repository root"));
        }
    }
    Ok(())
}

fn stamp(args: &Args, config: &RunnerConfig, cleared: &[String]) -> Json {
    let s = |v: &str| Json::Str(v.to_string());
    let n = |v: f64| Json::Num(v);
    Json::Obj(vec![
        ("workload".into(), s(&args.workload)),
        ("seed".into(), n(args.seed as f64)),
        ("seconds".into(), n(args.seconds)),
        ("trace".into(), Json::Bool(args.trace)),
        ("nproc".into(), n(host::nproc() as f64)),
        ("workers".into(), n(effective_workers() as f64)),
        ("trace_format".into(), s(config.trace_format.tag())),
        ("warmup".into(), n(config.warmup_instructions as f64)),
        ("measure".into(), n(config.measure_instructions as f64)),
        ("interval".into(), n(config.dynamic_interval as f64)),
        ("build_profile".into(), s(host::build_profile())),
        ("commit".into(), s(&host::commit())),
        (
            "cleared_env".into(),
            Json::Arr(cleared.iter().map(|c| s(c)).collect()),
        ),
        ("model".into(), s("unvalidated: no hardware reference")),
    ])
}

fn result_line(correct: bool, tally: &Tally, metrics: &Metrics) -> Json {
    Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(tally.attempted() as f64)),
        ("failed".into(), Json::Num(tally.failed() as f64)),
        ("metrics".into(), metrics.json()),
    ])
}

fn report(metrics: &Metrics) {
    for m in &metrics.0 {
        let n = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
        println!("  {:<40} {:>16.6} {}{n}", m.name, m.value, m.unit);
    }
}

fn run_one(args: &Args) -> Result<(Tally, Metrics), String> {
    let out_dir = PathBuf::from("perfbench/out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {out_dir:?}: {e}"))?;
    let ctx = Ctx {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        config: runner_config(args.seed),
        tally: Tally::default(),
        out_dir,
    };
    let metrics = match args.workload.as_str() {
        "fig5_cold" => fig5::run(&ctx, args.trace)?,
        "service_cold" => service::run_cold(&ctx, args.trace)?,
        "service_warm" => service::run_warm(&ctx, args.trace)?,
        other => unreachable!("workload {other} was validated"),
    };
    for m in &metrics.0 {
        if !m.value.is_finite() {
            ctx.tally.op(Err(format!("{} was not measured", m.name)));
        }
    }
    Ok((ctx.tally, metrics))
}

/// Runs every workload in its own process (each has its own peak memory)
/// and prints every metric by name.
fn run_all(args: &Args) -> Result<(Tally, Metrics), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let tally = Tally::default();
    let mut all = Metrics::default();
    for workload in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("run {workload}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        let last = stdout.lines().last().unwrap_or("");
        let parsed = Json::parse(last).map_err(|e| format!("{workload}: no result ({e})"))?;
        let count = |key| parsed.get(key).and_then(Json::as_u64);
        let (Some(attempted), Some(failed), true) =
            (count("attempted"), count("failed"), out.status.success())
        else {
            return Err(format!("{workload}: run failed"));
        };
        tally.absorb(attempted, failed, workload);
        let metrics = parsed
            .get("metrics")
            .and_then(Metrics::from_json)
            .ok_or(format!("{workload}: malformed metrics"))?;
        for m in metrics.0 {
            all.push(
                format!("{workload}.{}", m.name),
                m.value,
                &m.unit,
                m.samples,
            );
        }
    }
    Ok((tally, all))
}

fn spread(files: &[String]) -> Result<(), String> {
    let mut by_metric: Vec<(String, Vec<f64>)> = Vec::new();
    for file in files {
        let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
        let last = text.lines().last().unwrap_or("");
        let parsed = Json::parse(last).map_err(|e| format!("{file}: {e}"))?;
        let metrics = parsed
            .get("metrics")
            .and_then(Metrics::from_json)
            .ok_or(format!("{file}: malformed metrics"))?;
        for m in metrics.0 {
            match by_metric.iter_mut().find(|(n, _)| *n == m.name) {
                Some((_, values)) => values.push(m.value),
                None => by_metric.push((m.name, vec![m.value])),
            }
        }
    }
    println!(
        "{:<40} {:>14} {:>14} {:>14} {:>8}",
        "metric", "q1", "median", "q3", "spread"
    );
    for (name, values) in by_metric {
        match stats::quartiles(&values) {
            Some([q1, q2, q3]) => println!(
                "{name:<40} {q1:>14.6} {q2:>14.6} {q3:>14.6} {:>8.4}",
                stats::spread(&values).unwrap_or(f64::NAN)
            ),
            None => println!("{name:<40} (fewer than two runs)"),
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("spread") {
        return match spread(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let cleared = host::scrub_env();
    let args = match parse_args(&argv).and_then(|a| checkout_ok().map(|()| a)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !cleared.is_empty() {
        eprintln!("perfbench: cleared inherited {}", cleared.join(", "));
    }
    let config = runner_config(args.seed);
    println!("# stamp {}", stamp(&args, &config, &cleared).render());
    let outcome = if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    };
    let (tally, metrics) = match outcome {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "# {} ({}) seed {}: {} attempted, {} failed (failed_frac {})",
        args.workload,
        if args.trace {
            "per-layer"
        } else {
            "end-to-end"
        },
        args.seed,
        tally.attempted(),
        tally.failed(),
        tally.failed_frac()
    );
    for reason in tally.reasons() {
        println!("#   failed: {reason}");
    }
    report(&metrics);
    let correct = tally.failed() == 0;
    println!("{}", result_line(correct, &tally, &metrics).render());
    ExitCode::SUCCESS
}
