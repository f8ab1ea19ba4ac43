//! `des_paper`: the six paper experiments (3 sites × {GreedyThreshold,
//! Optimization}) on the full Aila mission, via `Orchestrator::run`. This
//! regenerates every figure; `wrf` physics is nearly all of its time.

use crate::report::{peak_rss_mb, RunReport};
use crate::trace::{overhead_pct, run_traced, same_run, Layers};
use crate::{Cfg, E2e, SetupSamples, SETUP_MIN_S};
use adaptive_core::decision::AlgorithmKind;
use adaptive_core::engine::{
    assert_frame_conservation, EngineBoot, EngineSetup, EpochEngine, ModeledInjector,
    ModeledTransport, NoDurability, PipelineReport, VirtualClock,
};
use adaptive_core::orchestrator::{Orchestrator, RunOptions};
use cyclone::{Mission, Site, SiteKind};
use resources::FrameStore;
use std::time::Instant;

/// Set-up samples timed after each pass.
const SETUP_REPS: usize = 3;

fn experiments() -> impl Iterator<Item = (SiteKind, AlgorithmKind)> {
    SiteKind::all().into_iter().flat_map(|kind| {
        [AlgorithmKind::GreedyThreshold, AlgorithmKind::Optimization].map(|algo| (kind, algo))
    })
}

/// The workload seed drives the network-variability walk.
fn options(seed: u64) -> RunOptions {
    RunOptions {
        seed,
        ..RunOptions::default()
    }
}

/// What `Orchestrator::run` hands its engine on the modeled path.
fn engine_setup(kind: SiteKind, algorithm: AlgorithmKind, seed: u64) -> EngineSetup {
    let site = Site::of_kind(kind);
    let options = options(seed);
    EngineSetup {
        store: FrameStore::new(site.make_disk()),
        net: site.make_network(options.seed),
        site,
        mission: Mission::aila(),
        algorithm,
        options,
        steering_script: Vec::new(),
        publish_config: None,
        drain_on_complete: false,
        boot: EngineBoot::default(),
        fleet: None,
    }
}

/// One pass: every experiment through `Orchestrator::run`.
fn pass(seed: u64) -> Vec<PipelineReport> {
    experiments()
        .map(|(kind, algo)| {
            Orchestrator::new(Site::of_kind(kind), Mission::aila(), algo)
                .with_options(options(seed))
                .run()
                .report
        })
        .collect()
}

/// Modeled time-to-solution of a pass, hours: the paper's Fig. 5 sum,
/// counting the wall cap for a run that does not complete.
fn model_wall_h(pass: &[PipelineReport]) -> f64 {
    pass.iter().map(|r| r.wall_hours).sum()
}

fn sim_hours(pass: &[PipelineReport]) -> f64 {
    pass.iter().map(|r| r.sim_minutes / 60.0).sum()
}

/// One set-up: build and start the six engines (model allocation,
/// processor tables, decision epoch zero); returns its seconds.
fn setup_once(seed: u64) -> f64 {
    let t = Instant::now();
    let engines: Vec<_> = experiments()
        .map(|(kind, algo)| {
            EpochEngine::new(
                engine_setup(kind, algo, seed),
                VirtualClock,
                ModeledTransport,
                NoDurability,
                ModeledInjector,
            )
            .start()
        })
        .collect();
    let s = t.elapsed().as_secs_f64();
    drop(engines);
    s
}

/// Check one pass; every pass after the first must repeat it exactly.
fn check_pass(r: &mut RunReport, pass: &[PipelineReport], first: Option<&[PipelineReport]>) {
    for (i, out) in pass.iter().enumerate() {
        r.check("des_paper experiment", 1, || {
            assert_frame_conservation(out);
            assert!(out.sim_minutes > 0.0 && out.wall_hours > 0.0);
            if let Some(first) = first {
                assert_eq!(out.counters, first[i].counters, "passes diverged");
                assert_eq!(out.wall_hours, first[i].wall_hours, "passes diverged");
                assert_eq!(out.sim_minutes, first[i].sim_minutes, "passes diverged");
            }
        });
    }
}

pub fn run(cfg: &Cfg) -> (RunReport, E2e) {
    let mut r = RunReport::default();
    let mut setup = SetupSamples::batched(SETUP_MIN_S);
    let (mut busy, mut hours) = (0.0, 0.0);
    let mut first: Option<Vec<PipelineReport>> = None;
    while busy < cfg.seconds || first.is_none() {
        let t = Instant::now();
        let out = pass(cfg.seed);
        busy += t.elapsed().as_secs_f64();
        hours += sim_hours(&out);
        check_pass(&mut r, &out, first.as_deref());
        setup.sample(SETUP_REPS, || (setup_once(cfg.seed), 1));
        if first.is_none() {
            eprintln!("des_paper: model_wall_h {:.4} per pass", model_wall_h(&out));
            first = Some(out);
        }
    }
    let throughput_per_s = hours / busy;
    (
        r,
        E2e {
            throughput_per_s,
            setup_s: setup.seconds(),
            peak_rss_mb: peak_rss_mb(),
        },
    )
}

/// Alternate untraced passes with traced ones built from public parts;
/// each traced experiment must reproduce its untraced twin.
pub fn trace(cfg: &Cfg, layers: &mut Layers) -> RunReport {
    let mut r = RunReport::default();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < cfg.seconds || traced.is_empty() {
        let t = Instant::now();
        let plain = pass(cfg.seed);
        untraced.push(t.elapsed().as_secs_f64());
        check_pass(&mut r, &plain, None);

        let t = Instant::now();
        let mut outs = Vec::new();
        for (kind, algo) in experiments() {
            let out = run_traced(
                engine_setup(kind, algo, cfg.seed),
                VirtualClock,
                ModeledTransport,
                NoDurability,
                ModeledInjector,
                layers,
            );
            outs.push(out.report);
        }
        traced.push(t.elapsed().as_secs_f64());
        layers.items += 1;
        for (out, twin) in outs.iter().zip(&plain) {
            r.check("des_paper composition", 1, || {
                assert!(
                    same_run(out, twin),
                    "traced engine diverged from Orchestrator::run"
                );
            });
        }
    }
    layers.overhead_pct = overhead_pct(&untraced, &traced);
    r
}
