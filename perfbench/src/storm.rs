//! `broker_storm`: the modeled serving core under a mass outage —
//! 10^5 clients ramp in, all drop for two hours, then reconnect through
//! admission deferral, cursor expiry, catch-up replay and shed.

use crate::report::{peak_rss_mb, RunReport};
use crate::trace::{overhead_pct, Layers};
use crate::{Cfg, E2e, SetupSamples, SETUP_MIN_S};
use adaptive_core::broker::{loadgen, run_broker, BrokerConfig, BrokerOutcome};
use std::time::Instant;

const CLIENTS: u64 = 100_000;
const OUTAGE_SECS: f64 = 7200.0;
/// Set-up samples timed after each storm.
const SETUP_REPS: usize = 3;
/// A config build takes about 0.1 µs, so one set-up call times a batch
/// of this many builds.
const SETUP_BATCH: u32 = 1_000;

/// Build the config and scenario [`SETUP_BATCH`] times; returns (seconds,
/// builds).
fn setup_batch(seed: u64) -> (f64, u32) {
    let t = Instant::now();
    for _ in 0..SETUP_BATCH {
        drop(std::hint::black_box(config(std::hint::black_box(seed))));
    }
    (t.elapsed().as_secs_f64(), SETUP_BATCH)
}

fn config(seed: u64) -> BrokerConfig {
    BrokerConfig::new(seed, loadgen::outage_reconnect(CLIENTS, OUTAGE_SECS))
}

/// One storm: (outcome, seconds).
fn storm(seed: u64) -> (BrokerOutcome, f64) {
    let cfg = config(seed);
    let t = Instant::now();
    let out = run_broker(cfg);
    (out, t.elapsed().as_secs_f64())
}

/// A run fails on an invariant breach, not on designed shed.
fn check(r: &mut RunReport, out: &BrokerOutcome, retention: u64) {
    let c = &out.counters;
    r.check("broker_storm run", 1, || {
        assert_eq!(c.frames_delivered + c.frames_shed, c.cursor_advance);
        assert_eq!(c.starvation_ticks, 0, "live frames never starve");
        assert!(out.drained, "every connected client ends live");
        assert!(c.peak_ring_frames <= retention, "ring within retention");
        assert!(c.cursor_advance > 0);
    });
}

pub fn run(cfg: &Cfg) -> (RunReport, E2e) {
    let mut r = RunReport::default();
    let mut setup = SetupSamples::batched(SETUP_MIN_S);
    let retention = config(cfg.seed).retention_frames;
    let (mut busy, mut advances) = (0.0, 0u64);
    let mut peak = None;
    while busy < cfg.seconds || peak.is_none() {
        let (out, s) = storm(cfg.seed);
        busy += s;
        advances += out.counters.cursor_advance;
        check(&mut r, &out, retention);
        if peak.is_none() {
            // One storm's peak, read before the harness's own set-up
            // allocations land between storms and shift the heap.
            peak = Some(peak_rss_mb());
            eprintln!(
                "broker_storm: staleness_p99_s {} recovery_s {:?}",
                out.p99_staleness_secs, out.recovery_secs
            );
        }
        setup.sample(SETUP_REPS, || setup_batch(cfg.seed));
    }
    let throughput_per_s = advances as f64 / busy;
    (
        r,
        E2e {
            throughput_per_s,
            setup_s: setup.seconds(),
            peak_rss_mb: peak.unwrap_or(f64::NAN),
        },
    )
}

/// Alternate plain storms with timed-and-counted ones.
pub fn trace(cfg: &Cfg, layers: &mut Layers) -> RunReport {
    let mut r = RunReport::default();
    let retention = config(cfg.seed).retention_frames;
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < cfg.seconds || traced.is_empty() {
        {
            // Dropped before the traced storm, so that storm does not
            // run beside this one's outcome.
            let (out, s) = storm(cfg.seed);
            untraced.push(s);
            check(&mut r, &out, retention);
        }
        let (out, s) = storm(cfg.seed);
        traced.push(s);
        check(&mut r, &out, retention);
        layers.broker_runs.0.push(s);
        layers.items += 1;
        layers.broker = out.counters;
        layers.broker_live_bytes = out.live_bytes;
        layers.broker_catchup_bytes = out.catchup_bytes;
    }
    layers.overhead_pct = overhead_pct(&untraced, &traced);
    r
}
