//! convbench: the closed-loop converge benchmark.
//!
//! ```text
//! convbench --workload <deploy-10k|edit-10k|drift-10k> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Set-up (input generation, the initial deploy where the workload needs
//! one, and one untimed warm-up cycle) runs [`SETUPS`] times; then cycles
//! run until `--seconds` have passed. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` they
//! are the per-layer ones, and the spans are written as Chrome trace-event
//! JSON under `convbench/out/`.

mod gen;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use trace::{CountingAlloc, Tracer};
use workload::{Bench, CycleError, Kind, Sample};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// `peak_rss_mb` is read after this many timed cycles (or after the last,
/// if fewer ran), so that it does not grow with the number of cycles a
/// run fits into its time: a faster commit would otherwise show the state
/// log growth of its extra cycles as a memory regression.
const RSS_CYCLES: usize = 5;

/// The front-end stages, whose self times make up `frontend.plan_share`.
const FRONTEND: [&str; 6] = [
    "hcl.parse",
    "hcl.expand",
    "analyze.lint",
    "analyze.concurrency",
    "validate.validate",
    "deploy.diff",
];

/// Stages the traced run calls one by one, each reported as `<stage>_ms`.
const STAGES: [&str; 13] = [
    "hcl.parse",
    "hcl.expand",
    "analyze.lint",
    "analyze.concurrency",
    "validate.validate",
    "deploy.diff",
    "deploy.plan",
    "deploy.apply",
    "state.commit",
    "validate.miner_observe",
    "deploy.refresh",
    "diagnose.classify",
    "synth.patch",
];

/// Count metrics of the traced run, with their units.
const COUNTS: [(&str, &str); 12] = [
    ("core.pipeline_runs_incremental", "count"),
    ("core.pipeline_runs_full", "count"),
    ("core.memo_mb", "MB"),
    ("deploy.ops_submitted", "count"),
    ("deploy.retries", "count"),
    ("cloud.creates", "count"),
    ("cloud.reads", "count"),
    ("cloud.updates", "count"),
    ("cloud.deletes", "count"),
    ("state.log_bytes", "bytes"),
    ("diagnose.edit_ops", "count"),
    ("synth.iterations", "count"),
];

struct Args {
    workload: String,
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let kind = Kind::parse(&workload).ok_or_else(|| {
        format!("unknown workload {workload}; expected deploy-10k, edit-10k or drift-10k")
    })?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload,
        kind,
        seed,
        seconds,
        trace,
    })
}

/// The median, or `None` for no samples: a metric that was never recorded
/// is an error, not a measured 0.
fn median(mut xs: Vec<f64>) -> Option<f64> {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(xs[n / 2]),
        _ => Some((xs[n / 2 - 1] + xs[n / 2]) / 2.0),
    }
}

/// The mean, or `None` for no samples.
fn mean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Report {
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn put(&mut self, name: &str, value: Option<f64>, unit: &'static str) -> Result<(), String> {
        match value {
            Some(v) if v.is_finite() => {
                self.metrics.push((name.to_owned(), v, unit));
                Ok(())
            }
            Some(v) => Err(format!("{name} reads {v}")),
            None => Err(format!("{name} has no samples")),
        }
    }

    fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

fn end_to_end(
    report: &mut Report,
    samples: &[Sample],
    setup_s: Vec<f64>,
    peak_rss: f64,
    workload: &str,
) -> Result<(), String> {
    let n = samples.len();
    let col = |f: fn(&Sample) -> f64| median(samples.iter().map(f).collect());
    let rows = [
        ("setup_s", median(setup_s), "s", SETUPS),
        ("plan_ms_p50", col(|s| s.plan_ms), "ms", n),
        ("cycle_ms_p50", col(|s| s.apply_ms), "ms", n),
        ("virtual_makespan_s", col(|s| s.virtual_s), "sim_s", n),
        ("api_calls", col(|s| s.api_calls as f64), "count", n),
        ("peak_rss_mb", Some(peak_rss), "MB", n.min(RSS_CYCLES)),
    ];
    for (name, value, unit, count) in rows {
        let over = match name {
            "setup_s" => format!("median of {count} set-ups"),
            "peak_rss_mb" => format!("VmHWM after {count} timed cycles"),
            _ => format!("median of {count} timed cycles"),
        };
        report.put(name, value, unit)?;
        println!(
            "{workload}: {name} = {:.4} {unit} ({over})",
            value.unwrap_or_default()
        );
    }
    Ok(())
}

/// Times are medians over the traced cycles; counts are means per cycle,
/// since `edit-10k` alternates two kinds of edit.
fn per_layer(
    report: &mut Report,
    tracer: &Tracer,
    bench: &Bench,
    samples: &[Sample],
) -> Result<(), String> {
    let per_cycle = tracer.per_cycle();
    let empty = BTreeMap::new();
    let cycles_of = |name: &str| per_cycle.get(name).unwrap_or(&empty);
    let col = |name: &str, f: fn(&(f64, u64, u64)) -> f64| -> Vec<f64> {
        cycles_of(name).values().map(f).collect()
    };
    for stage in STAGES {
        report.put(&format!("{stage}_ms"), median(col(stage, |c| c.0)), "ms")?;
    }
    for stage in STAGES.iter().chain(&["engine.plan", "engine.apply"]) {
        report.put(
            &format!("{stage}.allocs"),
            mean(&col(stage, |c| c.1 as f64)),
            "count",
        )?;
        report.put(
            &format!("{stage}.alloc_mb"),
            mean(&col(stage, |c| c.2 as f64 / 1e6)),
            "MB",
        )?;
    }
    for (name, unit) in COUNTS {
        let values = bench.layer.get(name).map_or(&[][..], Vec::as_slice);
        report.put(name, mean(values), unit)?;
    }
    // the share of each preview that the stages the preview runs account
    // for, when each is called cold on the same input
    let shares: Vec<f64> = cycles_of("engine.plan")
        .iter()
        .map(|(cycle, plan)| {
            let stages: f64 = FRONTEND
                .iter()
                .filter_map(|s| cycles_of(s).get(cycle).map(|c| c.0))
                .sum();
            stages / plan.0
        })
        .collect();
    report.put("frontend.plan_share", median(shares), "ratio")?;
    let col = |f: fn(&Sample) -> f64| median(samples.iter().map(f).collect());
    report.put("trace.plan_ms_p50", col(|s| s.plan_ms), "ms")?;
    report.put("trace.cycle_ms_p50", col(|s| s.apply_ms), "ms")
}

fn write_trace(tracer: &Tracer, workload: &str, seed: u64) -> Result<PathBuf, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}-seed{seed}.trace.json"));
    std::fs::write(&path, tracer.to_chrome_json())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn run(args: &Args) -> Result<String, String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut bench = None;
    for _ in 0..SETUPS {
        // the previous set-up is dropped before the clock starts
        drop(bench.take());
        let start = Instant::now();
        bench = Some(Bench::setup(args.kind, args.seed, args.trace)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("at least one set-up");

    let mut tracer = args.trace.then(Tracer::start);
    let mut samples = Vec::new();
    let mut peak_rss = None;
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds || !bench.round_done() {
        attempted += 2;
        match bench.cycle(tracer.as_mut()) {
            Ok(s) => {
                eprintln!(
                    "{}: cycle {}: preview {:.1} ms, apply {:.1} ms, {:.1} virtual s, {} API calls",
                    args.workload,
                    samples.len() + 1,
                    s.plan_ms,
                    s.apply_ms,
                    s.virtual_s,
                    s.api_calls
                );
                samples.push(s);
                if samples.len() == RSS_CYCLES {
                    peak_rss = Some(peak_rss_mb());
                }
            }
            Err(CycleError::Op { failed: f, msg }) => {
                eprintln!("{}: operation failed: {msg}", args.workload);
                failed += f;
            }
            Err(CycleError::Wrong(msg)) => {
                eprintln!("{}: wrong output: {msg}", args.workload);
                correct = false;
            }
        }
    }
    if samples.is_empty() {
        return Err("no cycle completed".into());
    }

    let mut report = Report {
        metrics: Vec::new(),
    };
    match &tracer {
        None => {
            let peak_rss = peak_rss.unwrap_or_else(peak_rss_mb);
            end_to_end(&mut report, &samples, setup_s, peak_rss, &args.workload)?
        }
        Some(t) => {
            per_layer(&mut report, t, &bench, &samples)?;
            for (name, value, unit) in &report.metrics {
                println!("{}: {name} = {value:.4} {unit}", args.workload);
            }
            let path = write_trace(t, &args.workload, args.seed)?;
            println!(
                "{}: {} spans over {} traced cycles written to {}",
                args.workload,
                t.spans().len(),
                samples.len(),
                path.display()
            );
        }
    }
    Ok(report.json(correct, attempted, failed))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("convbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("convbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
