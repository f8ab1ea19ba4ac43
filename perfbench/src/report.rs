//! One run's result and its one-line JSON rendering.

use serde::Value;

/// A named measurement with its unit.
#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one benchmark process reports: operations attempted and failed
/// (a failure is a breached output invariant), plus its metrics.
#[derive(Debug, Default)]
pub struct RunReport {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunReport {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Count `ops` operations, failing them all when any of `checks`
    /// panics. The program's own assertion helpers (such as
    /// `assert_frame_conservation`) panic on a breach, so they are run
    /// here rather than re-implemented.
    pub fn check(&mut self, what: &str, ops: u64, checks: impl FnOnce()) -> bool {
        self.attempted += ops;
        let ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(checks)).is_ok();
        if !ok {
            self.failed += ops;
            eprintln!("perfbench: invariant breached in {what}");
        }
        ok
    }

    /// Outputs are correct when something ran and nothing failed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let entry = Value::Map(vec![
                    ("value".into(), Value::Num(m.value)),
                    ("unit".into(), Value::Str(m.unit.into())),
                ]);
                (m.name.to_string(), entry)
            })
            .collect();
        let line = Value::Map(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::Num(self.attempted as f64)),
            ("failed".into(), Value::Num(self.failed as f64)),
            ("metrics".into(), Value::Map(metrics)),
        ]);
        serde_json::to_string(&line).expect("a Value tree always serializes")
    }
}

/// Peak resident set of this process, MB (`VmHWM` in `/proc/self/status`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_breached_invariant_counts_as_a_failed_operation() {
        let mut r = RunReport::default();
        let mut c = adaptive_core::engine::PipelineCounters {
            frames_emitted: 3,
            frames_written: 3,
            frames_shipped: 3,
            ..Default::default()
        };
        assert!(r.check("consistent ledger", 1, || {
            adaptive_core::engine::assert_frame_conservation(&c)
        }));
        c.frames_shipped = 2; // one written frame vanished
        assert!(!r.check("leaky ledger", 1, || {
            adaptive_core::engine::assert_frame_conservation(&c)
        }));
        assert_eq!((r.attempted, r.failed), (2, 1));
        assert!(!r.correct());
        let line = r.to_json();
        assert!(line.starts_with(r#"{"correct":false,"attempted":2,"failed":1,"#));
    }

    #[test]
    fn peak_rss_is_read_from_proc() {
        assert!(peak_rss_mb() > 0.0);
    }
}
