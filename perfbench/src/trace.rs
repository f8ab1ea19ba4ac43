//! The traced run's instruments: timers around the engine's environment
//! traits and the per-layer table every traced workload prints.
//!
//! The wrappers only delegate and time; `EpochEngine::new` accepts them
//! in place of the plain trait objects, so nothing inside the program
//! changes. Layers a workload never calls report zero.
//!
//! A traced run repeats whole items (passes, live runs, serving blocks,
//! storms) until its window is spent, so totals and counts are reported
//! per item: they then do not grow with the number of items that fit in
//! the window, and counts repeat exactly from run to run. Percentiles
//! pool every sample and print beside their sample counts.

use crate::report::RunReport;
use crate::stats::guarded_percentile;
use adaptive_core::engine::{
    CheckpointCut, Clock, Durability, EngineOutput, EngineSetup, EpochEngine, FaultInjector,
    FrameTransport, PipelineReport,
};
use adaptive_core::qos::QosRung;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};
use viz::TrackLog;
use wrf::WrfModel;

/// Durations of one kind of call, seconds.
#[derive(Debug, Default, Clone)]
pub struct Timer(pub Vec<f64>);

impl Timer {
    pub fn record(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64());
    }

    pub fn total_s(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn count(&self) -> u64 {
        self.0.len() as u64
    }

    /// Mean duration in milliseconds; 0 without samples.
    pub fn mean_ms(&self) -> f64 {
        per(self.total_s() * 1e3, self.count())
    }

    /// Guarded percentile in microseconds; 0 when it may not be reported
    /// (the sample count printed beside it says why).
    pub fn p_us(&self, p: f64) -> f64 {
        guarded_percentile(&self.0, p).map_or(0.0, |s| s * 1e6)
    }
}

/// What the wrappers around one engine observed.
#[derive(Debug, Default)]
pub struct EngineTrace {
    /// `Clock::pace` calls: one per DES event.
    pub events: u64,
    /// `FrameTransport::emit` (frame encode on live transports).
    pub emit: Timer,
    /// Payload bytes `emit` returned.
    pub emit_bytes: u64,
    /// `WrfModel::steps_taken` at the latest emit.
    pub steps: u64,
    /// `FrameTransport::deliver` (channel hop, receiver apply, ack).
    pub deliver: Timer,
    /// `Durability::persist_frame` (payload file + fsync).
    pub persist: Timer,
    pub persist_failed: u64,
    /// `Durability::write_checkpoint`.
    pub checkpoint: Timer,
}

impl EngineTrace {
    /// Fold another engine's observations into this one.
    fn absorb(&mut self, other: EngineTrace) {
        self.events += other.events;
        self.emit.0.extend(other.emit.0);
        self.emit_bytes += other.emit_bytes;
        self.steps += other.steps;
        self.deliver.0.extend(other.deliver.0);
        self.persist.0.extend(other.persist.0);
        self.persist_failed += other.persist_failed;
        self.checkpoint.0.extend(other.checkpoint.0);
    }

    /// Time spent inside wrapped calls.
    pub fn wrapped_s(&self) -> f64 {
        self.emit.total_s()
            + self.deliver.total_s()
            + self.persist.total_s()
            + self.checkpoint.total_s()
    }
}

pub type SharedTrace = Rc<RefCell<EngineTrace>>;

/// Counts DES events; the wrapped clock still paces.
pub struct TracedClock<C> {
    pub inner: C,
    pub trace: SharedTrace,
}

impl<C: Clock> Clock for TracedClock<C> {
    fn pace(&mut self, modeled_dt_secs: f64) {
        self.trace.borrow_mut().events += 1;
        self.inner.pace(modeled_dt_secs);
    }
}

/// Times frame emit and delivery; delegates everything else.
pub struct TracedTransport<T> {
    pub inner: T,
    pub trace: SharedTrace,
}

impl<T: FrameTransport> FrameTransport for TracedTransport<T> {
    fn emit(
        &mut self,
        model: &WrfModel,
        sim_min: f64,
        modeled_bytes: u64,
        rung: QosRung,
    ) -> (u64, Vec<u8>) {
        let t = Instant::now();
        let out = self.inner.emit(model, sim_min, modeled_bytes, rung);
        let mut tr = self.trace.borrow_mut();
        tr.emit.record(t.elapsed());
        tr.emit_bytes += out.1.len() as u64;
        tr.steps = model.steps_taken();
        out
    }

    fn decision_frame_bytes(&self, modeled_bytes: u64) -> u64 {
        self.inner.decision_frame_bytes(modeled_bytes)
    }

    fn park(&mut self, id: u64, sim_min: f64, payload: Vec<u8>) {
        self.inner.park(id, sim_min, payload);
    }

    fn deliver(&mut self, id: u64, sim_min: f64) -> bool {
        let t = Instant::now();
        let fresh = self.inner.deliver(id, sim_min);
        self.trace.borrow_mut().deliver.record(t.elapsed());
        fresh
    }

    fn applied_watermark(&self) -> u64 {
        self.inner.applied_watermark()
    }

    fn finish(&mut self) -> TrackLog {
        self.inner.finish()
    }
}

/// Times payload persistence and checkpoints; delegates everything else.
pub struct TracedDurability<D> {
    pub inner: D,
    pub trace: SharedTrace,
}

impl<D: Durability> Durability for TracedDurability<D> {
    fn persist_frame(&mut self, id: u64, payload: &[u8]) -> bool {
        let t = Instant::now();
        let ok = self.inner.persist_frame(id, payload);
        let mut tr = self.trace.borrow_mut();
        tr.persist.record(t.elapsed());
        tr.persist_failed += u64::from(!ok);
        ok
    }

    fn discard_frame(&mut self, id: u64) {
        self.inner.discard_frame(id);
    }

    fn checkpoint_due(&self, sim_minutes: f64) -> bool {
        self.inner.checkpoint_due(sim_minutes)
    }

    fn write_checkpoint(&mut self, cut: &CheckpointCut) {
        let t = Instant::now();
        self.inner.write_checkpoint(cut);
        self.trace.borrow_mut().checkpoint.record(t.elapsed());
    }

    fn mark_completed(&mut self) {
        self.inner.mark_completed();
    }
}

/// Every per-layer number a traced run prints. Each workload fills the
/// layers it exercises; the rest stay zero.
#[derive(Debug, Default)]
pub struct Layers {
    /// Items the totals and counts below cover: traced passes, traced
    /// live runs, serving blocks of the traced session, or traced storms.
    pub items: u64,
    /// Wall time inside `EpochEngine::run`, seconds.
    pub engine_s: f64,
    pub engine: EngineTrace,
    pub decisions: u64,
    pub restarts: u64,
    pub stalls: u64,
    pub checkpoint_bytes: u64,
    pub journal_bytes: u64,
    /// `FrameServer::publish` calls.
    pub publish: Timer,
    /// Publish-to-ack latency minus the publish call.
    pub wait: Timer,
    /// Publish-to-ack latency.
    pub latency: Timer,
    /// Set-up servers' wait from viewer spawn to its admission.
    pub admit: Timer,
    pub server: adaptive_core::server::ServerCounters,
    pub viewer: adaptive_core::server::ViewerStats,
    /// `run_broker` calls.
    pub broker_runs: Timer,
    pub broker: adaptive_core::broker::BrokerCounters,
    pub broker_live_bytes: f64,
    pub broker_catchup_bytes: f64,
    /// Median traced item time over median untraced item time, minus
    /// one, in percent.
    pub overhead_pct: f64,
}

/// `num / den`, or 0 when `den` is 0.
fn per(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

impl Layers {
    /// Push every per-layer metric, in `BENCHMARK.json` order.
    pub fn emit(&self, r: &mut RunReport) {
        let item = |x: f64| per(x, self.items);
        let count = |x: u64| item(x as f64);
        let e = &self.engine;
        let self_s = (self.engine_s - e.wrapped_s()).max(0.0);
        r.push("engine.self_ms", item(self_s * 1e3), "ms");
        let per_step = per(self_s * 1e6, e.steps);
        r.push("engine.self_us_per_step", per_step, "us");
        r.push("wrf.steps", count(e.steps), "count");
        r.push("des.events", count(e.events), "count");
        r.push("engine.decisions", count(self.decisions), "count");
        r.push("engine.restarts", count(self.restarts), "count");
        r.push("engine.stalls", count(self.stalls), "count");
        r.push("qos.encode_ms", item(e.emit.total_s() * 1e3), "ms");
        r.push("qos.encode_p50_us", e.emit.p_us(50.0), "us");
        r.push("qos.encode_p90_us", e.emit.p_us(90.0), "us");
        r.push("qos.encode_samples", e.emit.count() as f64, "count");
        r.push("qos.encode_bytes", count(e.emit_bytes), "bytes");
        r.push("viz.deliver_ms", item(e.deliver.total_s() * 1e3), "ms");
        r.push("viz.deliver_p50_us", e.deliver.p_us(50.0), "us");
        r.push("viz.deliver_p90_us", e.deliver.p_us(90.0), "us");
        r.push("viz.deliver_samples", e.deliver.count() as f64, "count");
        r.push("recovery.persist_ms", item(e.persist.total_s() * 1e3), "ms");
        r.push("recovery.persist_p50_us", e.persist.p_us(50.0), "us");
        r.push("recovery.persist_p90_us", e.persist.p_us(90.0), "us");
        r.push(
            "recovery.persist_samples",
            e.persist.count() as f64,
            "count",
        );
        r.push("recovery.persist_failed", count(e.persist_failed), "count");
        let checkpoint_ms = item(e.checkpoint.total_s() * 1e3);
        r.push("recovery.checkpoint_ms", checkpoint_ms, "ms");
        r.push("recovery.checkpoints", count(e.checkpoint.count()), "count");
        let checkpoint_bytes = self.checkpoint_bytes as f64;
        r.push("recovery.checkpoint_bytes", checkpoint_bytes, "bytes");
        r.push(
            "resources.journal_bytes",
            self.journal_bytes as f64,
            "bytes",
        );
        r.push("server.publish_p50_us", self.publish.p_us(50.0), "us");
        r.push("server.wait_p50_us", self.wait.p_us(50.0), "us");
        r.push("server.wait_p99_us", self.wait.p_us(99.0), "us");
        r.push("server.latency_p50_us", self.latency.p_us(50.0), "us");
        r.push("server.latency_p99_us", self.latency.p_us(99.0), "us");
        r.push("server.samples", self.latency.count() as f64, "count");
        r.push("server.admit_ms", self.admit.mean_ms(), "ms");
        let s = &self.server;
        r.push("server.delivered", count(s.frames_delivered), "count");
        r.push("server.shed", count(s.frames_shed), "count");
        r.push("server.stalls", count(s.slow_client_stalls), "count");
        r.push("server.deferred", count(s.deferred_admissions), "count");
        let srv_ratio = per(s.frames_delivered as f64, s.cursor_advance);
        r.push("server.delivered_ratio", srv_ratio, "ratio");
        let v = &self.viewer;
        r.push("server.viewer_deduped", count(v.deduped), "count");
        r.push("server.viewer_reconnects", count(v.reconnects), "count");
        let decode_failures = count(v.decode_failures);
        r.push("server.viewer_decode_failures", decode_failures, "count");
        r.push("broker.run_ms", self.broker_runs.mean_ms(), "ms");
        // One storm's counters: every storm repeats them.
        let b = &self.broker;
        r.push("broker.admitted", b.admitted_sessions as f64, "count");
        r.push("broker.deferred", b.deferred_admissions as f64, "count");
        r.push("broker.resume_failures", b.resume_failures as f64, "count");
        r.push("broker.delivered", b.frames_delivered as f64, "count");
        r.push("broker.shed", b.frames_shed as f64, "count");
        r.push(
            "broker.starvation_ticks",
            b.starvation_ticks as f64,
            "count",
        );
        r.push(
            "broker.peak_ring_frames",
            b.peak_ring_frames as f64,
            "count",
        );
        r.push("broker.live_bytes", self.broker_live_bytes, "bytes");
        r.push("broker.catchup_bytes", self.broker_catchup_bytes, "bytes");
        let brk_ratio = per(b.frames_delivered as f64, b.cursor_advance);
        r.push("broker.delivered_ratio", brk_ratio, "ratio");
        r.push("trace.overhead_pct", self.overhead_pct, "%");
    }
}

/// Build an engine from `setup` with every environment trait wrapped,
/// run it to the end, and fold what the wrappers saw into `layers`.
pub fn run_traced<C, T, D, F>(
    setup: EngineSetup,
    clock: C,
    transport: T,
    durability: D,
    injector: F,
    layers: &mut Layers,
) -> EngineOutput
where
    C: Clock,
    T: FrameTransport,
    D: Durability,
    F: FaultInjector,
{
    let trace = SharedTrace::default();
    let engine = EpochEngine::new(
        setup,
        TracedClock {
            inner: clock,
            trace: Rc::clone(&trace),
        },
        TracedTransport {
            inner: transport,
            trace: Rc::clone(&trace),
        },
        TracedDurability {
            inner: durability,
            trace: Rc::clone(&trace),
        },
        injector,
    );
    let t = Instant::now();
    let out = engine.run();
    layers.engine_s += t.elapsed().as_secs_f64();
    layers.engine.absorb(trace.take());
    layers.decisions += out.report.decisions;
    layers.restarts += out.report.restarts;
    layers.stalls += out.report.stalls;
    out
}

/// The decision series the composition check compares.
const DECISION_SERIES: [&str; 5] = [
    "procs",
    "output_interval",
    "sim_progress",
    "viz_progress",
    "free_disk_pct",
];

/// The composition check: a traced engine built from public parts must
/// reproduce the untraced entry point's counters, decision series and
/// track exactly, or its per-layer numbers describe some other run.
pub fn same_run(traced: &PipelineReport, untraced: &PipelineReport) -> bool {
    traced.counters == untraced.counters
        && traced.completed == untraced.completed
        && traced.wall_hours == untraced.wall_hours
        && traced.sim_minutes == untraced.sim_minutes
        && traced.track == untraced.track
        && DECISION_SERIES
            .iter()
            .all(|name| traced.series.get(name) == untraced.series.get(name))
}

/// Traced-vs-untraced overhead from interleaved item times, percent.
pub fn overhead_pct(untraced: &[f64], traced: &[f64]) -> f64 {
    let (u, t) = (crate::stats::median(untraced), crate::stats::median(traced));
    (t / u - 1.0) * 100.0
}
