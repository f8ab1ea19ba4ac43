//! `live_pipeline`: `run_online` on inter-department × Optimization with
//! durability on and a virtual clock (`time_scale = 0`), so the run
//! measures encode, payload fsync, journal, checkpoint and receiver apply
//! rather than pacing sleeps.

use crate::report::{peak_rss_mb, RunReport};
use crate::trace::{overhead_pct, run_traced, same_run, Layers};
use crate::{Cfg, E2e, SetupSamples, SETUP_MIN_S};
use adaptive_core::decision::AlgorithmKind;
use adaptive_core::engine::{
    assert_frame_conservation, ChannelTransport, EngineBoot, EngineSetup, EpochEngine,
    JournalDurability, LiveInjector, PipelineReport, ScaledClock,
};
use adaptive_core::online::{run_online, OnlineOptions};
use adaptive_core::recovery::DurabilityOptions;
use cyclone::{Mission, Site};
use resources::{Disk, FrameStore, Network};
use std::path::Path;
use std::time::Instant;

/// Set-up samples timed after each run.
const SETUP_REPS: usize = 2;

/// Options for run number `run`, with its own fresh state directory.
fn options(cfg: &Cfg, run: usize) -> OnlineOptions {
    let mut o = OnlineOptions::fast("perfbench").with_durability(
        DurabilityOptions::new(cfg.work_dir.join(format!("state-{run}")))
            .with_checkpoint_every_min(60.0),
    );
    o.time_scale = 0.0;
    o.config_path = cfg.work_dir.join("config.json");
    // The ideal link ignores the variability seed, so this workload's
    // inputs are the same for every seed.
    o.pipeline.seed = cfg.seed;
    o
}

fn durability(o: &OnlineOptions) -> &DurabilityOptions {
    o.pipeline
        .durability
        .as_ref()
        .expect("live options carry durability")
}

/// The engine parts `run_online` builds for a cold durable start:
/// state directories, the journal-backed store, the receiver thread and
/// the durability layer.
fn parts(o: &OnlineOptions) -> (EngineSetup, ChannelTransport, Option<JournalDurability>) {
    let d = durability(o).clone();
    for dir in [d.frames_dir(), d.checkpoints_dir()] {
        std::fs::create_dir_all(dir).expect("state directory is writable");
    }
    let (store, _) = FrameStore::recover(Disk::new(o.disk_capacity), &d.journal_dir())
        .expect("fresh journal opens");
    let transport = ChannelTransport::new(
        (o.disk_capacity / 12).max(1),
        Some(d.receiver_path()),
        0,
        viz::TrackLog::new(),
        Vec::new(),
    );
    let setup = EngineSetup {
        site: Site::inter_department(),
        mission: Mission::aila(),
        algorithm: AlgorithmKind::Optimization,
        options: o.pipeline.clone(),
        store,
        net: Network::ideal(o.bandwidth_bps),
        steering_script: Vec::new(),
        publish_config: Some(o.config_path.clone()),
        drain_on_complete: true,
        boot: EngineBoot::default(),
        fleet: None,
    };
    (setup, transport, Some(JournalDurability::new(d, 0.0, 0)))
}

fn clock() -> ScaledClock {
    ScaledClock { scale: 0.0 }
}

fn remove_state(o: &OnlineOptions) {
    let _ = std::fs::remove_dir_all(&durability(o).state_dir);
    let _ = std::fs::remove_file(&o.config_path);
}

/// One set-up: state directories and journal open, receiver-thread
/// spawn, engine start (decision epoch zero and the first config
/// publish); returns its seconds.
fn setup_once(o: &OnlineOptions) -> f64 {
    let t = Instant::now();
    let (setup, transport, journal) = parts(o);
    let running = EpochEngine::new(setup, clock(), transport, journal, LiveInjector).start();
    let s = t.elapsed().as_secs_f64();
    drop(running.finish());
    remove_state(o);
    s
}

fn check_run(r: &mut RunReport, out: &PipelineReport) {
    r.check("live_pipeline run", out.frames_emitted.max(1), || {
        assert_frame_conservation(out);
        assert!(out.completed, "mission completes");
        assert!(out.frames_rendered > 0);
        assert_eq!(out.frames_rendered, out.frames_written, "drain applies all");
        assert_eq!(
            out.track.fixes().len() as u64,
            out.frames_rendered,
            "one fix per rendered frame"
        );
    });
}

/// One untraced run through `run_online`: (report, seconds).
fn plain_run(cfg: &Cfg, run: usize) -> (PipelineReport, f64) {
    let o = options(cfg, run);
    let (site, mission) = (Site::inter_department(), Mission::aila());
    let t = Instant::now();
    let out = run_online(&site, &mission, AlgorithmKind::Optimization, &o);
    let s = t.elapsed().as_secs_f64();
    remove_state(&o);
    (out.report, s)
}

pub fn run(cfg: &Cfg) -> (RunReport, E2e) {
    let mut r = RunReport::default();
    let mut setup = SetupSamples::batched(SETUP_MIN_S);
    let (mut busy, mut frames) = (0.0, 0u64);
    let mut runs = 0;
    while busy < cfg.seconds || runs == 0 {
        let (out, s) = plain_run(cfg, runs);
        busy += s;
        frames += out.frames_rendered;
        check_run(&mut r, &out);
        setup.sample(SETUP_REPS, || (setup_once(&options(cfg, runs)), 1));
        runs += 1;
    }
    let throughput_per_s = frames as f64 / busy;
    (
        r,
        E2e {
            throughput_per_s,
            setup_s: setup.seconds(),
            peak_rss_mb: peak_rss_mb(),
        },
    )
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Alternate untraced `run_online` with the traced composition; each
/// traced run must reproduce its untraced twin.
pub fn trace(cfg: &Cfg, layers: &mut Layers) -> RunReport {
    let mut r = RunReport::default();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut run = 0;
    while start.elapsed().as_secs_f64() < cfg.seconds || traced.is_empty() {
        let (twin, s) = plain_run(cfg, run);
        untraced.push(s);
        check_run(&mut r, &twin);

        let o = options(cfg, run + 1);
        let t = Instant::now();
        let (setup, transport, journal) = parts(&o);
        let out = run_traced(setup, clock(), transport, journal, LiveInjector, layers).report;
        traced.push(t.elapsed().as_secs_f64());
        layers.items += 1;
        let d = durability(&o);
        layers.checkpoint_bytes = dir_bytes(&d.checkpoints_dir());
        layers.journal_bytes = dir_bytes(&d.journal_dir());
        remove_state(&o);
        check_run(&mut r, &out);
        r.check("live_pipeline composition", 1, || {
            assert!(
                same_run(&out, &twin),
                "traced engine diverged from run_online"
            );
        });
        run += 2;
    }
    layers.overhead_pct = overhead_pct(&untraced, &traced);
    r
}
