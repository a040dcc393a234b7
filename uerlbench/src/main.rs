//! `uerlbench`: the UERL workspace's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path uerlbench/Cargo.toml -- \
//!     --workload serve-paper --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One run generates the workload's inputs from the seed in a child process, sets the
//! program up from the input text, measures its timed phases, checks the outputs and
//! prints every metric by name and unit. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer ones, timed from outside each layer,
//! and writes the run's spans to `.bench_spans/`. The exit code is 0 only if every
//! check passed. See `README.md` beside this crate.

mod bench;
mod inputs;
mod reference;
mod serve;
mod spans;
mod stats;
mod timed;
mod train;

use std::io::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use bench::{Report, Run};
use inputs::{InputText, Workload};

/// End-to-end metrics: every workload reports each from its own timed phases.
const END_TO_END: [&str; 5] = [
    "setup_s",
    "throughput_per_sec",
    "latency_p50_us",
    "latency_p99_us",
    "peak_rss_mb",
];

/// Per-layer metrics of the traced run. A layer a workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 20] = [
    ("trace.mcelog_parse_s", "s"),
    ("trace.preprocess_s", "s"),
    ("core.timelines_from_log_s", "s"),
    ("jobs.sacct_parse_s", "s"),
    ("serve.merge_stream_s", "s"),
    ("serve.self_us_per_event", "us"),
    ("serve.events_per_tick", "count"),
    ("serve.bytes_per_node", "bytes"),
    ("serve.decision_calls", "count"),
    ("rl.decide_us_per_row", "us"),
    ("rl.rows_per_call", "count"),
    ("nn.forward_gflops", "GFLOP/s"),
    ("eval.run_policy_s", "s"),
    ("core.env_step_us", "us"),
    ("jobs.sample_sequence_us", "us"),
    ("rl.act_us", "us"),
    ("rl.observe_us", "us"),
    ("rl.update_ms", "ms"),
    ("rl.updates", "count"),
    ("bench.trace_overhead_pct", "%"),
];

const USAGE: &str =
    "usage: uerlbench --workload <serve-paper|shadow-burst|train-paper> --seed <n> \
                     --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Child mode: write the workload's framed input texts to standard output.
    emit_inputs: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut emit_inputs = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--emit-inputs" {
            emit_inputs = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("seed"))?),
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("seconds"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err(bad("seconds"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        emit_inputs,
    })
}

/// Generate the inputs in a child process, so the generator's structures never count
/// towards this process's peak memory; this process keeps only the text.
fn load_inputs(args: &Args) -> Result<InputText, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let output = Command::new(exe)
        .args([
            "--emit-inputs",
            "--workload",
            args.workload.name(),
            "--seed",
            &args.seed.to_string(),
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running the input generator: {e}"))?;
    if !output.status.success() {
        return Err(format!("input generator failed: {}", output.status));
    }
    InputText::decode(&output.stdout)
}

/// `VmHWM`, the process's peak resident set, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn write_spans(report: &Report, args: &Args) -> Result<String, String> {
    let dir = std::path::Path::new(".bench_spans");
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
    std::fs::write(&path, report.tracer.to_json_lines())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

fn run(args: &Args) -> Result<Report, String> {
    let start = Instant::now();
    let text = load_inputs(args)?;
    let generated = format!(
        "inputs: {} B mcelog + {} B sacct text, digest {:016x}, generated in {:.3} s (untimed)",
        text.mcelog.len(),
        text.sacct.len(),
        text.digest(),
        start.elapsed().as_secs_f64()
    );
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let mut report = match args.workload {
        Workload::ServePaper => serve::serve_paper(&text, &run)?,
        Workload::ShadowBurst => serve::shadow_burst(&text, &run)?,
        Workload::TrainPaper => train::train_paper(&text, &run)?,
    };
    drop(text);
    report.lines.insert(0, generated);
    if args.trace {
        let path = write_spans(&report, args)?;
        report.note(format!("spans written to {path}"));
    } else {
        report.metric("peak_rss_mb", peak_rss_mb()?, "MB");
    }
    Ok(report)
}

/// The metrics this mode reports, in declaration order.
fn selected(
    report: &Report,
    trace: bool,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let find = |name: &str| report.metrics.iter().find(|m| m.name == name);
    if trace {
        Ok(PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, find(name).map_or(0.0, |m| m.value), unit))
            .collect())
    } else {
        END_TO_END
            .iter()
            .map(|&name| {
                find(name)
                    .map(|m| (name, m.value, m.unit))
                    .ok_or_else(|| format!("workload did not measure {name}"))
            })
            .collect()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("uerlbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.emit_inputs {
        let frame = InputText::generate(args.workload, args.seed).encode();
        let mut stdout = std::io::stdout().lock();
        return match stdout.write_all(&frame).and_then(|()| stdout.flush()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("uerlbench: writing inputs: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let report = match run(&args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("uerlbench: {}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let metrics = match selected(&report, args.trace) {
        Ok(metrics) => metrics,
        Err(e) => {
            eprintln!("uerlbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    let correct = report.failed == 0 && finite && report.attempted > 0;
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in &report.lines {
        println!("{line}");
    }
    for (name, value, unit) in &metrics {
        println!("metric {name} = {value} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() {
                value.to_string()
            } else {
                "null".into()
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed + u64::from(!finite),
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
