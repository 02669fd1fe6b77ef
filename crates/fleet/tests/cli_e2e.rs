//! End-to-end exercise of the `flexpipe-fleet` binary: init → run →
//! compare → gate, including the non-zero exit on an injected regression,
//! and exit 1 (never an abort) on usage and input errors.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_flexpipe-fleet"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("flexpipe-fleet-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// A fast spec for CLI runs (smaller than the template's 24 cells).
fn small_spec_json() -> String {
    r#"{
  "name": "cli-e2e",
  "model": "Llama2_7B",
  "seed": 11,
  "horizon_secs": 12.0,
  "warmup_secs": 3.0,
  "slo_secs": 2.0,
  "slo_per_output_token_ms": 100.0,
  "background": "Idle",
  "lengths": {
    "prompt_median": 128.0,
    "prompt_sigma": 0.0,
    "prompt_range": [128, 128],
    "output_mean": 8.0,
    "output_range": [8, 8]
  },
  "max_events": 20000000,
  "cvs": [1.0, 4.0],
  "rates": [3.0],
  "clusters": [{"Custom": {"nodes": 6, "total_gpus": 8, "servers_per_rack": 3}}],
  "policies": [{"Paper": "FlexPipe"}, {"Static": {"stages": 2, "replicas": 1}}]
}
"#
    .to_string()
}

#[test]
fn init_run_compare_gate_pipeline() {
    let dir = tmp_dir("pipeline");
    let spec_path = dir.join("sweep.json");
    let report_path = dir.join("report.json");

    // init writes a parseable template.
    let out = bin()
        .arg("init")
        .arg(dir.join("template.json"))
        .output()
        .expect("run init");
    assert!(out.status.success(), "init failed: {out:?}");
    let template = std::fs::read_to_string(dir.join("template.json")).unwrap();
    assert!(template.contains("\"cvs\""));

    // run executes a small sweep and writes the artifact.
    std::fs::write(&spec_path, small_spec_json()).unwrap();
    let out = bin()
        .arg("run")
        .arg(&spec_path)
        .arg("--out")
        .arg(&report_path)
        .arg("--quiet")
        .output()
        .expect("run sweep");
    assert!(
        out.status.success(),
        "run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("per-policy summary"),
        "missing table: {stdout}"
    );
    assert!(stdout.contains("FlexPipe"));

    // compare renders the artifact.
    let out = bin().arg("compare").arg(&report_path).output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("per-cell results"));

    // gate against itself passes with exit 0.
    let out = bin()
        .arg("gate")
        .arg(&report_path)
        .arg("--baseline")
        .arg(&report_path)
        .output()
        .unwrap();
    assert!(out.status.success(), "self-gate failed");
    assert!(String::from_utf8_lossy(&out.stdout).contains("GATE PASS"));

    // Injecting a regression into the candidate makes gate exit non-zero.
    let degraded_path = dir.join("degraded.json");
    let report = std::fs::read_to_string(&report_path).unwrap();
    let mut parsed = flexpipe_fleet::FleetReport::from_json(&report).unwrap();
    for cell in &mut parsed.cells {
        cell.metrics.slo_attainment *= 0.5;
        cell.metrics.goodput_per_sec *= 0.5;
    }
    std::fs::write(&degraded_path, parsed.to_json()).unwrap();
    let out = bin()
        .arg("gate")
        .arg(&degraded_path)
        .arg("--baseline")
        .arg(&report_path)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(2),
        "gate must exit 2 on regression: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("GATE FAIL"));

    let _ = std::fs::remove_dir_all(&dir);
}

/// The gate covers recovery metrics: a candidate whose mean
/// time-to-recover worsened against the baseline exits 2.
#[test]
fn gate_catches_recovery_regressions_from_the_cli() {
    let dir = tmp_dir("recovery-gate");
    let spec_path = dir.join("sweep.json");
    let report_path = dir.join("report.json");
    std::fs::write(&spec_path, small_spec_json()).unwrap();
    let out = bin()
        .arg("run")
        .arg(&spec_path)
        .arg("--out")
        .arg(&report_path)
        .arg("--quiet")
        .output()
        .expect("run sweep");
    assert!(out.status.success());

    // Stamp disruption outcomes onto the report to form a chaos baseline,
    // then worsen the candidate's recovery metrics.
    let report = std::fs::read_to_string(&report_path).unwrap();
    let mut baseline = flexpipe_fleet::FleetReport::from_json(&report).unwrap();
    for cell in &mut baseline.cells {
        cell.metrics.revocations = 2;
        cell.metrics.mean_ttr_secs = 8.0;
        cell.metrics.requests_replayed = 3;
    }
    let mut candidate = baseline.clone();
    for cell in &mut candidate.cells {
        cell.metrics.mean_ttr_secs = 20.0;
        cell.metrics.requests_replayed = 9;
    }
    let baseline_path = dir.join("chaos-baseline.json");
    let candidate_path = dir.join("chaos-candidate.json");
    std::fs::write(&baseline_path, baseline.to_json()).unwrap();
    std::fs::write(&candidate_path, candidate.to_json()).unwrap();

    let out = bin()
        .arg("gate")
        .arg(&candidate_path)
        .arg("--baseline")
        .arg(&baseline_path)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(2),
        "worsened recovery metrics must exit 2: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("mean_ttr_secs"), "{stdout}");
    assert!(stdout.contains("requests_replayed"), "{stdout}");

    // The unmodified chaos baseline still self-gates clean.
    let out = bin()
        .arg("gate")
        .arg(&baseline_path)
        .arg("--baseline")
        .arg(&baseline_path)
        .output()
        .unwrap();
    assert!(out.status.success(), "chaos self-gate must pass");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_gate_is_a_one_shot_ci_mode() {
    let dir = tmp_dir("run-gate");
    let spec_path = dir.join("sweep.json");
    let baseline_path = dir.join("baseline.json");
    std::fs::write(&spec_path, small_spec_json()).unwrap();

    // Produce the baseline artifact.
    let out = bin()
        .arg("run")
        .arg(&spec_path)
        .arg("--out")
        .arg(&baseline_path)
        .arg("--quiet")
        .output()
        .expect("baseline run");
    assert!(out.status.success());

    // run --gate against the (identical) baseline passes with exit 0.
    let out = bin()
        .arg("run")
        .arg(&spec_path)
        .arg("--out")
        .arg(dir.join("fresh.json"))
        .arg("--quiet")
        .arg("--gate")
        .arg(&baseline_path)
        .output()
        .expect("run --gate");
    assert!(
        out.status.success(),
        "run --gate failed: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("GATE PASS"));

    // A doctored (better-than-achievable) baseline makes the same run
    // exit 2, matching the `gate` subcommand's contract.
    let report = std::fs::read_to_string(&baseline_path).unwrap();
    let mut parsed = flexpipe_fleet::FleetReport::from_json(&report).unwrap();
    for cell in &mut parsed.cells {
        cell.metrics.goodput_per_sec *= 10.0;
    }
    let doctored_path = dir.join("doctored.json");
    std::fs::write(&doctored_path, parsed.to_json()).unwrap();
    let out = bin()
        .arg("run")
        .arg(&spec_path)
        .arg("--out")
        .arg(dir.join("fresh2.json"))
        .arg("--quiet")
        .arg("--gate")
        .arg(&doctored_path)
        .output()
        .expect("run --gate vs doctored");
    assert_eq!(
        out.status.code(),
        Some(2),
        "run --gate must exit 2 on regression: {}",
        String::from_utf8_lossy(&out.stdout)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rerunning_the_cli_reproduces_the_artifact_byte_identically() {
    let dir = tmp_dir("rerun");
    let spec_path = dir.join("sweep.json");
    std::fs::write(&spec_path, small_spec_json()).unwrap();

    let mut artifacts = Vec::new();
    for (i, threads) in ["4", "1"].iter().enumerate() {
        let report_path = dir.join(format!("report-{i}.json"));
        let out = bin()
            .arg("run")
            .arg(&spec_path)
            .arg("--out")
            .arg(&report_path)
            .arg("--threads")
            .arg(threads)
            .arg("--quiet")
            .output()
            .expect("run sweep");
        assert!(
            out.status.success(),
            "run failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        artifacts.push(std::fs::read(&report_path).unwrap());
    }
    assert_eq!(
        artifacts[0], artifacts[1],
        "CLI reruns must reproduce the report byte-for-byte"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn usage_errors_exit_one() {
    let out = bin().output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let out = bin().arg("frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let out = bin()
        .arg("run")
        .arg("/nonexistent/spec.json")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let out = bin().arg("gate").arg("x.json").output().unwrap();
    assert_eq!(out.status.code(), Some(1));
}

/// Removed inputs fail fast with exit 1: TOML specs (even with a valid
/// JSON body), the `--store` backend switch and the `--admission`
/// engine-mode switch.
#[test]
fn removed_inputs_exit_one() {
    let dir = tmp_dir("removed");
    let json = dir.join("sweep.json");
    std::fs::write(&json, small_spec_json()).unwrap();
    let toml = dir.join("sweep.toml");
    std::fs::write(&toml, small_spec_json()).unwrap();
    let campaign = dir.join("campaign.json");
    std::fs::write(
        &campaign,
        r#"{"name": "c", "cache_dir": "cells", "entries": [{"kind": "Sweep", "path": "sweep.json"}]}"#,
    )
    .unwrap();

    let out = bin().arg("run").arg(&toml).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "run x.toml: {out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("TOML"),
        "the error names the refused format: {out:?}"
    );
    let cases: [(&[&str], &PathBuf, &str); 5] = [
        (&["run"], &json, "--admission"),
        (&["trace", "record"], &json, "--admission"),
        (&["campaign"], &campaign, "--admission"),
        (&["campaign"], &campaign, "--store"),
        (&["worker"], &campaign, "--store"),
    ];
    for (verb, spec, flag) in cases {
        let value = if flag == "--store" { "log" } else { "naive" };
        let out = bin()
            .args(verb)
            .arg(spec)
            .args([flag, value])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{verb:?} {flag}: {out:?}");
    }
    assert!(
        !dir.join("cells").exists(),
        "a rejected invocation must not touch the cache"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Specs that parse but would need unbounded arrival memory — an
/// infinite horizon or warmup, or 1e6 req/s for 1e5 s — are refused at
/// validation with exit 1 instead of aborting on allocation.
#[test]
fn oversize_specs_exit_one_instead_of_aborting() {
    let dir = tmp_dir("oversize");
    let base = small_spec_json();
    let cases = [
        (
            "inf-horizon",
            base.replace("\"horizon_secs\": 12.0", "\"horizon_secs\": 1e999"),
            "finite",
        ),
        (
            "inf-warmup",
            base.replace("\"warmup_secs\": 3.0", "\"warmup_secs\": 1e999"),
            "finite",
        ),
        (
            "huge-rate",
            base.replace("\"horizon_secs\": 12.0", "\"horizon_secs\": 1e5")
                .replace("\"rates\": [3.0]", "\"rates\": [1e6]"),
            "arrivals",
        ),
    ];
    for (tag, spec, needle) in cases {
        assert_ne!(spec, base, "{tag}: the substitution must apply");
        let path = dir.join(format!("{tag}.json"));
        std::fs::write(&path, &spec).unwrap();
        let out = bin().arg("run").arg(&path).arg("--quiet").output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{tag}: {stderr}");
        assert!(stderr.contains(needle), "{tag}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `cache stats` / `cache gc` are read and maintenance commands: a
/// mistyped directory is an error, not an empty cache, and is not
/// created.
#[test]
fn cache_commands_refuse_a_missing_dir() {
    let dir = tmp_dir("nocache");
    let missing = dir.join("nonexist");
    let out = bin()
        .arg("cache")
        .arg("stats")
        .arg(&missing)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let out = bin()
        .arg("cache")
        .arg("gc")
        .arg(&missing)
        .arg("--max-age")
        .arg("0s")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(!missing.exists(), "a read command created the directory");
    let _ = std::fs::remove_dir_all(&dir);
}
