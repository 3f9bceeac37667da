//! Command-line entry of the qpwm benchmark.
//!
//! ```text
//! qpwm-perfbench --workload <owner_lifecycle|owner_resident>
//!                --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Prints the host and settings record, then, as the last line, the
//! result: `{"correct", "attempted", "failed", "metrics"}` with every
//! end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`). A traced run first runs the same workload untraced in
//! a child process; the difference is reported as tracing overhead.

use qpwm_perfbench::report::{
    host_json, result_line, settings_json, Metrics, END_TO_END, PER_LAYER,
};
use qpwm_perfbench::{run, set_overhead, Options, Workload};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

fn usage(err: &str) -> ExitCode {
    eprintln!("error: {err}");
    eprintln!(
        "usage: qpwm-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--smoke]",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| args.windows(2).find(|w| w[0] == flag).map(|w| w[1].clone());
    let Some(workload) = value("--workload").as_deref().and_then(Workload::parse) else {
        return usage("--workload names no workload");
    };
    let Ok(seed) = value("--seed").unwrap_or_else(|| "1".into()).parse::<u64>() else {
        return usage("--seed needs a whole number");
    };
    let seconds = match value("--seconds")
        .unwrap_or_else(|| "20".into())
        .parse::<f64>()
    {
        Ok(s) if s > 0.0 && s.is_finite() => s,
        _ => return usage("--seconds needs a positive number"),
    };
    let trace = match value("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(_) => return usage("--trace is 0 or 1"),
    };
    let smoke = args.iter().any(|a| a == "--smoke");
    let tag = format!(
        "{}-{seed}-{}-{}",
        workload.name(),
        u8::from(trace),
        std::process::id()
    );
    let opts = Options {
        workload,
        seed,
        seconds,
        trace,
        smoke,
        inject: None,
        work_dir: PathBuf::from(".bench_work").join(tag),
    };

    // the untraced reference for the overhead, in a process of its own
    // so that its peak RSS is its own
    let reference = if trace {
        match untraced_reference(&args) {
            Ok(r) => Some(r),
            Err(e) => {
                eprintln!("error: untraced reference run: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };

    let result = run(&opts);
    // the shared parent of every run's work directory, once empty
    let _ = opts.work_dir.parent().map(std::fs::remove_dir);
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        eprintln!("failed operation: {note}");
    }
    let (mut attempted, mut failed) = (outcome.attempted, outcome.failed);
    if let Some((metrics, a, f)) = &reference {
        set_overhead(&mut outcome.metrics, metrics);
        attempted += a;
        failed += f;
    }
    println!(
        "{{\"host\": {}, \"settings\": {}}}",
        host_json(),
        settings_json(&outcome.settings)
    );
    let defs = if trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    println!("{}", result_line(attempted, failed, &outcome.metrics, defs));
    ExitCode::SUCCESS
}

/// Runs this binary with the same arguments and `--trace 0`, and parses
/// its result line into `(metrics, attempted, failed)`.
fn untraced_reference(args: &[String]) -> Result<(Metrics, u64, u64), String> {
    let mut child_args = args.to_vec();
    let at = child_args
        .iter()
        .position(|a| a == "--trace")
        .expect("traced runs name --trace");
    child_args[at + 1] = "0".into();
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(&child_args)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("no result line")?;
    parse_result(line)
}

/// Parses a result line printed by [`result_line`].
fn parse_result(line: &str) -> Result<(Metrics, u64, u64), String> {
    let uint = |key: &str| -> Result<u64, String> {
        let at = line
            .find(&format!("\"{key}\": "))
            .ok_or(format!("no {key}"))?
            + key.len()
            + 4;
        line[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .map_err(|_| format!("bad {key}"))
    };
    let mut metrics = Metrics::default();
    for d in END_TO_END {
        let key = format!("\"{}\": {{\"value\": ", d.name);
        let at = line.find(&key).ok_or(format!("no {}", d.name))? + key.len();
        let v: String = line[at..]
            .chars()
            .take_while(|c| !matches!(c, ',' | '}'))
            .collect();
        metrics.set(
            d.name,
            v.trim()
                .parse()
                .map_err(|_| format!("bad {}: {v}", d.name))?,
        );
    }
    Ok((metrics, uint("attempted")?, uint("failed")?))
}
