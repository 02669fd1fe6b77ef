//! The FlexPipe reproduction's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <paper-burst|fleet-scale|live-gateway|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is built from `--seed` and repeated for `--seconds`; the
//! end-to-end metrics are medians over the repetitions. `--trace 1` runs
//! half the time untraced and half traced, and reports the per-layer
//! metrics instead. Either way the outputs are checked, and the last
//! line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! `--workload all` runs every workload in its own process (so each peak
//! resident set is its own) and merges the results under
//! `<workload>/<metric>` names.

mod live;
mod probe;
mod report;
mod sweep;

use std::process::{Command, ExitCode};
use std::time::Duration;

use flexpipe_serving::{engine_fingerprint, ENGINE_SEMANTICS_VERSION};
use serde::Value;

use report::Run;

const WORKLOADS: [&str; 3] = ["paper-burst", "fleet-scale", "live-gateway"];

/// The benchmark's definition. The result line carries exactly the
/// metrics it lists, with their units: the end-to-end ones untraced, the
/// per-layer ones traced. Per-layer values that some workload leaves at
/// 0 (the gateway's, the disruption and refactor paths', the rarer event
/// kinds') are printed in the report above the result line only.
const DEFINITION: &str = include_str!("../../BENCHMARK.json");

/// One metric of the result line.
struct Metric {
    name: String,
    unit: String,
    better: String,
}

/// The metrics `BENCHMARK.json` lists under `kind`.
fn defined(kind: &str) -> Vec<Metric> {
    let def = serde_json::parse_value(DEFINITION).expect("BENCHMARK.json is JSON");
    let list = def.get(kind).and_then(Value::as_seq).unwrap_or(&[]);
    list.iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
            Metric {
                name: field("name"),
                unit: field("unit"),
                better: field("better"),
            }
        })
        .collect()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {}, all)",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).clamp(1, 600),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            eprintln!(
                "usage: --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let budget = Duration::from_secs(args.seconds);
    let mut run = match args.workload.as_str() {
        "paper-burst" => sweep::run(&sweep::paper_burst_spec(args.seed), budget, args.trace),
        "fleet-scale" => sweep::run(&sweep::fleet_scale_spec(args.seed), budget, args.trace),
        _ => live::run(&live::live_gateway_spec(args.seed), budget, args.trace),
    };
    let reps = (run.plain.len() as f64, run.traced.len() as f64);
    run.layers.count("bench.repetitions", reps.0);
    run.layers.count("bench.traced_repetitions", reps.1);
    let end_to_end = run.end_to_end();
    let mut metrics: Vec<(String, f64, String)> = if args.trace {
        defined("per_layer")
            .into_iter()
            .map(|m| {
                let value = run.layers.get(&m.name);
                let value = value.unwrap_or_else(|| panic!("layer `{}` was not recorded", m.name));
                (m.name, value, m.unit)
            })
            .collect()
    } else {
        defined("end_to_end")
            .into_iter()
            .map(|m| {
                let value = end_to_end.iter().find(|(n, _)| *n == m.name).map(|e| e.1);
                let value = value.unwrap_or_else(|| panic!("metric `{}` was not measured", m.name));
                (m.name, value, m.unit)
            })
            .collect()
    };
    print_report(&args, &run);
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    if !finite {
        println!("CHECK FAIL  every reported metric is a finite number");
        metrics.iter_mut().for_each(|m| m.1 = 0.0);
    }
    let correct = run.correct() && finite;
    let failed = if correct {
        run.failed()
    } else {
        run.attempted()
    };
    println!(
        "{}",
        result_line(correct, run.attempted().max(1), failed, &metrics)
    );
    ExitCode::SUCCESS
}

fn print_report(args: &Args, run: &Run) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "benchmark workload={} seed={} seconds={} trace={} cores={cores}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "engine semantics v{ENGINE_SEMANTICS_VERSION}, fingerprint {}",
        engine_fingerprint()
    );
    println!(
        "repetitions: {} untraced, {} traced",
        run.plain.len(),
        run.traced.len()
    );
    for (i, r) in run.plain.iter().enumerate() {
        println!(
            "repetition {i:>3} replica {:>2}: wall {:.6} s, setup {:.6} s, loop {:.6} s, {} events",
            r.replica, r.wall_s, r.setup_s, r.loop_s, r.events
        );
    }
    println!("{:<36} {:>16} {:<6} better", "end-to-end", "median", "unit");
    let end_to_end = run.end_to_end();
    for m in defined("end_to_end") {
        let v = end_to_end
            .iter()
            .find(|(n, _)| *n == m.name)
            .map_or(f64::NAN, |e| e.1);
        println!("{:<36} {v:>16.6} {:<6} {}", m.name, m.unit, m.better);
    }
    if args.trace {
        println!(
            "{:<36} {:>16} unit",
            "per-layer (median of traced)", "value"
        );
        let per_layer = defined("per_layer");
        for l in &run.layers.0 {
            let mark = if per_layer.iter().any(|m| m.name == l.name) {
                ""
            } else {
                "  (report only)"
            };
            println!("{:<36} {:>16.6} {}{mark}", l.name, l.value, l.unit);
        }
    }
    for (i, (judged, failed)) in run.judged.iter().enumerate() {
        if *failed > 0 {
            println!("replica {i}: {failed} of {judged} judged requests failed");
        }
    }
    for (what, ok) in &run.checks {
        println!("{}  {what}", if *ok { "CHECK ok  " } else { "CHECK FAIL" });
    }
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, String)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Runs every workload in a child process and merges their result lines.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics: Vec<(String, f64, String)> = Vec::new();
    for w in WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        let out = match out {
            Ok(o) if o.status.success() => o,
            Ok(o) => {
                eprintln!("benchmark: workload {w} exited with {}", o.status);
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("benchmark: cannot run workload {w}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let text = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = text.lines().collect();
        let last = lines.pop().unwrap_or_default();
        lines.iter().for_each(|l| println!("{l}"));
        let Ok(result) = serde_json::parse_value(last) else {
            eprintln!("benchmark: workload {w} printed no result line");
            return ExitCode::FAILURE;
        };
        correct &= matches!(result.get("correct"), Some(Value::Bool(true)));
        attempted += result.get("attempted").and_then(number).unwrap_or(0.0) as u64;
        failed += result.get("failed").and_then(number).unwrap_or(0.0) as u64;
        for (name, m) in result.get("metrics").and_then(Value::as_map).unwrap_or(&[]) {
            let value = m.get("value").and_then(number).unwrap_or(0.0);
            let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
            metrics.push((format!("{w}/{name}"), value, unit.to_string()));
        }
    }
    println!(
        "{}",
        result_line(correct, attempted.max(1), failed, &metrics)
    );
    ExitCode::SUCCESS
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::UInt(n) => Some(*n as f64),
        Value::Int(n) => Some(*n as f64),
        Value::Float(x) => Some(*x),
        _ => None,
    }
}
