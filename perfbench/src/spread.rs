//! `--spread <runs>`: repeat one workload in child processes, one seed
//! each, and print per metric the median, quartiles, min/max and relative
//! spread (interquartile range over median), with the host's core count
//! and the `/proc/stat` steal ticks over the window. These are the
//! evidence the bounds in `BENCHMARK.json` are set from.

use crate::stats::{median, quartiles};
use crate::Args;
use serde::Value;
use std::process::{Command, ExitCode, Stdio};

/// Aggregate steal ticks of all CPUs (8th value of the `cpu` line).
fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

fn num(v: Option<&Value>) -> Option<f64> {
    match v {
        Some(Value::Num(n)) => Some(*n),
        _ => None,
    }
}

/// One child's result line: (correct, attempted, failed, metrics).
type Line = (bool, f64, f64, Vec<(String, String, f64)>);

fn parse_line(line: &str) -> Option<Line> {
    let v: Value = serde_json::from_str(line).ok()?;
    let correct = matches!(v.get("correct"), Some(Value::Bool(true)));
    let Some(Value::Map(entries)) = v.get("metrics") else {
        return None;
    };
    let mut metrics = Vec::new();
    for (name, m) in entries {
        let Some(Value::Str(unit)) = m.get("unit") else {
            return None;
        };
        metrics.push((name.clone(), unit.clone(), num(m.get("value"))?));
    }
    Some((
        correct,
        num(v.get("attempted"))?,
        num(v.get("failed"))?,
        metrics,
    ))
}

pub fn run(args: &Args, runs: usize) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let steal_before = steal_ticks();
    let mut table: Vec<(String, String, Vec<f64>)> = Vec::new();
    let (mut attempted, mut failed, mut correct) = (0.0, 0.0, true);
    for i in 0..runs {
        let seed = args.seed + i as u64;
        let out = Command::new(&exe)
            .args(["--workload", args.workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output();
        let line = match &out {
            Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout)
                .lines()
                .last()
                .unwrap_or_default()
                .to_string(),
            _ => {
                eprintln!("perfbench: run {i} (seed {seed}) failed: {out:?}");
                return ExitCode::FAILURE;
            }
        };
        let Some((ok, att, fail, metrics)) = parse_line(&line) else {
            eprintln!("perfbench: run {i} printed no result line: {line}");
            return ExitCode::FAILURE;
        };
        eprintln!("run {i} seed {seed}: {line}");
        correct &= ok;
        attempted += att;
        failed += fail;
        for (name, unit, value) in metrics {
            match table.iter_mut().find(|(n, _, _)| *n == name) {
                Some(row) => row.2.push(value),
                None => table.push((name, unit, vec![value])),
            }
        }
    }
    let steal = match (steal_before, steal_ticks()) {
        (Some(a), Some(b)) => (b - a).to_string(),
        _ => "unavailable".into(),
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload {} trace {} seconds {} runs {runs} nproc {nproc} steal_ticks {steal} \
         attempted {attempted} failed {failed} correct {correct}",
        args.workload, args.trace as u8, args.seconds
    );
    println!(
        "{:<32} {:>6} {:>14} {:>14} {:>14} {:>14} {:>14} {:>8}",
        "metric", "unit", "median", "q1", "q3", "min", "max", "spread"
    );
    for (name, unit, values) in &table {
        let med = median(values);
        let (q1, q3) = quartiles(values);
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let spread = if med != 0.0 { (q3 - q1) / med } else { 0.0 };
        println!(
            "{name:<32} {unit:>6} {med:>14.6} {q1:>14.6} {q3:>14.6} {min:>14.6} {max:>14.6} {spread:>8.4}"
        );
    }
    ExitCode::SUCCESS
}
