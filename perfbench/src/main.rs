//! End-to-end and per-layer benchmark of the adaptive climate pipeline.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spread <runs>]
//! ```
//!
//! Prints progress on stderr and, as the last line of stdout, one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` (the end-to-end
//! metrics, or with `--trace 1` the per-layer ones). `--spread <runs>`
//! instead repeats the workload in that many child processes, one seed
//! each, and prints per-metric quartiles and spread. See `README.md`.

mod des_paper;
mod live;
mod report;
mod serve;
mod spread;
mod stats;
mod storm;
mod trace;

use report::RunReport;
use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "des_paper",
    "live_pipeline",
    "serve_sockets",
    "broker_storm",
];

/// The end-to-end metrics every untraced run prints, with their units,
/// in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 3] = [
    ("throughput_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// A workload's end-to-end numbers.
pub struct E2e {
    /// Work items per wall second over the whole measured window; the
    /// item depends on the workload (see `README.md`).
    pub throughput_per_s: f64,
    /// Set-up time, seconds (see [`SetupSamples`]).
    pub setup_s: f64,
    /// Peak resident set, MB, read where the workload says (at its end,
    /// or for `broker_storm` after its first storm).
    pub peak_rss_mb: f64,
}

/// Set-up seconds one set-up sample covers, for workloads whose set-up
/// takes well under a millisecond.
pub const SETUP_MIN_S: f64 = 0.010;

/// What every workload receives.
pub struct Cfg {
    pub seed: u64,
    /// Measured seconds; whole items run until this is reached.
    pub seconds: f64,
    /// Scratch space inside the working directory, removed at exit.
    pub work_dir: PathBuf,
}

/// Set-up times, sampled between the measured work items. On a shared
/// host the speed wanders by tens of percent over seconds, so set-ups
/// timed in one burst read whatever the speed was at that moment; spread
/// over the run they see the same host as the measured window. A sample
/// of well under a millisecond mostly times host jitter, so
/// [`SetupSamples::batched`] makes each sample the mean of as many
/// set-ups as fill a minimum time.
#[derive(Default)]
pub struct SetupSamples {
    /// Set-up seconds one sample must cover; 0 means one set-up.
    min_s: f64,
    samples: Vec<f64>,
}

impl SetupSamples {
    /// Samples that each repeat the set-up until `min_s` seconds of it
    /// have been timed.
    pub fn batched(min_s: f64) -> Self {
        SetupSamples {
            min_s,
            samples: Vec::new(),
        }
    }

    /// Take `reps` samples. `setup` runs set-ups and returns their
    /// seconds, leaving out teardown, and how many it ran; a sample is
    /// the mean seconds per set-up.
    pub fn sample(&mut self, reps: usize, mut setup: impl FnMut() -> (f64, u32)) {
        for _ in 0..reps {
            let (mut total, mut n) = (0.0, 0);
            while n == 0 || total < self.min_s {
                let (secs, count) = setup();
                total += secs;
                n += count;
            }
            self.samples.push(total / f64::from(n));
        }
    }

    /// The median of the samples, seconds.
    pub fn seconds(&self) -> f64 {
        stats::median(&self.samples)
    }
}

pub struct Args {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub spread: Option<usize>,
}

const USAGE: &str =
    "usage: perfbench --workload <des_paper|live_pipeline|serve_sockets|broker_storm> \
--seed <n> --seconds <s> --trace <0|1> [--spread <runs>]";

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut spread) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                let w = WORKLOADS.iter().find(|w| **w == value);
                workload = Some(*w.ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, got {value}")),
            },
            "--spread" => spread = Some(value.parse::<usize>().map_err(bad)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds must be 1..=600, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        spread,
    })
}

/// Run one workload in this process.
fn measure(args: &Args, cfg: &Cfg) -> RunReport {
    if args.trace {
        let mut layers = trace::Layers::default();
        let mut r = match args.workload {
            "des_paper" => des_paper::trace(cfg, &mut layers),
            "live_pipeline" => live::trace(cfg, &mut layers),
            "serve_sockets" => serve::trace(cfg, &mut layers),
            _ => storm::trace(cfg, &mut layers),
        };
        // A failed check (the composition check included) withholds the
        // per-layer numbers: they would describe some other run.
        if r.correct() {
            layers.emit(&mut r);
        }
        r
    } else {
        let (mut r, e2e) = match args.workload {
            "des_paper" => des_paper::run(cfg),
            "live_pipeline" => live::run(cfg),
            "serve_sockets" => serve::run(cfg),
            _ => storm::run(cfg),
        };
        let values = [e2e.throughput_per_s, e2e.setup_s, e2e.peak_rss_mb];
        for ((name, unit), value) in END_TO_END.into_iter().zip(values) {
            r.push(name, value, unit);
        }
        r
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.spread {
        return spread::run(&args, runs);
    }
    let root = PathBuf::from(".bench_work");
    let cfg = Cfg {
        seed: args.seed,
        seconds: args.seconds as f64,
        work_dir: root.join(format!("{}-{}", args.workload, std::process::id())),
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", cfg.work_dir.display());
        return ExitCode::FAILURE;
    }
    let report = measure(&args, &cfg);
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    let _ = std::fs::remove_dir(&root); // only when no other run is using it
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn names(list: &Value) -> Vec<(String, String)> {
        let Value::Seq(items) = list else {
            panic!("expected a list");
        };
        items
            .iter()
            .map(|m| match (m.get("name"), m.get("unit")) {
                (Some(Value::Str(n)), Some(Value::Str(u))) => (n.clone(), u.clone()),
                (Some(Value::Str(n)), None) => (n.clone(), String::new()),
                _ => panic!("entry without a name: {m:?}"),
            })
            .collect()
    }

    /// `BENCHMARK.json` names exactly the workloads and metrics this
    /// program prints, with the same units, in the same order.
    #[test]
    fn benchmark_json_matches_what_is_printed() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json: Value = serde_json::from_str(&text).expect("valid JSON");
        let workloads: Vec<String> = names(json.get("workloads").unwrap())
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, WORKLOADS);
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names(json.get("end_to_end").unwrap()), e2e);
        let mut r = RunReport::default();
        trace::Layers::default().emit(&mut r);
        let layers: Vec<(String, String)> = r
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(names(json.get("per_layer").unwrap()), layers);
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| parse(s.split_whitespace().map(String::from));
        let ok = args("--workload serve_sockets --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (ok.workload, ok.seed, ok.seconds, ok.trace),
            ("serve_sockets", 3, 10, true)
        );
        assert!(args("--workload nope --seed 3 --seconds 10 --trace 0").is_err());
        assert!(args("--workload des_paper --seed 3 --seconds 0 --trace 0").is_err());
        assert!(args("--workload des_paper --seed 3 --seconds 10 --trace 2").is_err());
        assert!(args("--workload des_paper --seed 3 --seconds 10").is_err());
    }
}
