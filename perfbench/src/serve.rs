//! `serve_sockets`: a `FrameServer` in `Remote` mode on loopback with one
//! `RemoteViewer` thread. The main thread publishes pre-encoded FullRes
//! frames in a closed loop with one frame outstanding: it publishes,
//! then yield-polls the server counters until the viewer's ack lands.

use crate::report::{peak_rss_mb, RunReport};
use crate::trace::{overhead_pct, Layers};
use crate::{Cfg, E2e, SetupSamples};
use adaptive_core::qos::{self, QosRung};
use adaptive_core::server::{
    FrameServer, RemoteViewer, ServerConfig, ServingMode, ViewerConfig, ViewerEnd,
};
use cyclone::Mission;
use std::sync::atomic::AtomicBool;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};
use wrf::WrfModel;

/// Distinct frames cycled through the loop.
const FRAMES: usize = 8;
/// A frame not acked within this long means the tier is wedged.
const ACK_TIMEOUT: Duration = Duration::from_secs(5);
/// The closed loop runs in blocks of this many frames (about 0.45 s on
/// the 2-core host used here); one set-up is timed after each block, and
/// traced runs alternate untraced and traced blocks.
const BLOCK_FRAMES: u64 = 2_000;

/// FullRes encodings of the Aila model, each a seed-chosen number of
/// steps past the previous one.
fn frames(seed: u64) -> Vec<Vec<u8>> {
    let mut model = WrfModel::new(Mission::aila().model).expect("Aila model config is valid");
    let mut x = seed;
    (0..FRAMES)
        .map(|_| {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let steps = 1 + ((z ^ (z >> 27)) % 8) as usize;
            model.advance_steps(steps, 1).expect("Aila model steps");
            qos::encode_frame(&model, QosRung::FullRes)
        })
        .collect()
}

struct Session {
    server: FrameServer,
    viewer: JoinHandle<(RemoteViewer, ViewerEnd)>,
}

/// Bind the server and spawn the viewer; returns the session and the
/// seconds this took.
fn start(seed: u64) -> (Session, f64) {
    let t = Instant::now();
    let server = FrameServer::start(ServerConfig {
        mode: ServingMode::Remote,
        ..ServerConfig::default()
    })
    .expect("bind a loopback listener");
    let addr = server.addr().expect("remote mode listens");
    let viewer = thread::spawn(move || {
        let mut v = RemoteViewer::new(addr, ViewerConfig::loopback(1, seed));
        let end = v.run(&AtomicBool::new(false));
        (v, end)
    });
    (Session { server, viewer }, t.elapsed().as_secs_f64())
}

/// Wait until the server has admitted the viewer; returns the seconds
/// waited. The server's accept loop sleeps 5 ms when idle, so this wait
/// is mostly that sleep, not work.
fn admitted(s: &Session) -> f64 {
    let t = Instant::now();
    while s.server.counters().admitted_sessions == 0 {
        assert!(t.elapsed() < ACK_TIMEOUT, "viewer admitted in time");
        thread::sleep(Duration::from_micros(100));
    }
    t.elapsed().as_secs_f64()
}

/// A session whose viewer has been admitted.
fn open(seed: u64) -> Session {
    let (s, _) = start(seed);
    admitted(&s);
    s
}

/// Drain the server, join the viewer, and check the session: every
/// published frame applied exactly once, in order, nothing shed. The
/// measured session's viewer must also end `Drained`. A set-up session
/// (`published == 0`) is checked for its outputs only, and a viewer that
/// missed the drain is logged: when the host stalls the admission past
/// the viewer's 500 ms read deadline, the server has counted the
/// admission but the viewer has given up, and its retries then find the
/// drained server gone.
fn close(s: Session, published: u64, r: &mut RunReport, layers: Option<&mut Layers>) {
    let drain = s.server.drain();
    let (viewer, end) = s.viewer.join().expect("viewer thread exits cleanly");
    let (c, v) = (drain.counters, viewer.stats());
    if published == 0 && end != ViewerEnd::Drained {
        eprintln!("serve_sockets: set-up viewer ended {end:?}, not Drained");
    }
    r.check("serve_sockets session", published.max(1), || {
        assert!(published == 0 || end == ViewerEnd::Drained, "ended {end:?}");
        let expected: Vec<u64> = (1..=published).collect();
        assert_eq!(viewer.applied_seqs(), expected, "each frame once, in order");
        assert_eq!((c.frames_shed, v.shed, v.decode_failures), (0, 0, 0));
        assert_eq!(c.frames_delivered, published);
        assert_eq!(c.frames_delivered + c.frames_shed, c.cursor_advance);
    });
    if let Some(l) = layers {
        l.server = c;
        l.viewer = v;
    }
}

/// Publish `count` frames in a closed loop; returns the seconds taken.
/// With `layers`, also times each publish call and ack.
fn closed_loop(
    server: &FrameServer,
    frames: &[Vec<u8>],
    count: u64,
    mut layers: Option<&mut Layers>,
) -> f64 {
    let mut delivered = server.counters().frames_delivered;
    let start = Instant::now();
    for n in 0..count {
        let body = frames[n as usize % frames.len()].clone();
        let t = Instant::now();
        server.publish(QosRung::FullRes, body);
        let published = t.elapsed();
        loop {
            let now = server.counters().frames_delivered;
            if now > delivered {
                delivered = now;
                break;
            }
            assert!(t.elapsed() < ACK_TIMEOUT, "frame acked in time");
            thread::yield_now();
        }
        if let Some(l) = layers.as_deref_mut() {
            let total = t.elapsed();
            l.publish.record(published);
            l.latency.record(total);
            l.wait.record(total - published);
        }
    }
    start.elapsed().as_secs_f64()
}

/// One set-up of a second server and viewer, torn down again and
/// checked like the measured session: returns (set-up seconds, admission
/// wait seconds). The set-up is the bind and the viewer spawn, the work
/// the program does; the admission wait is reported on its own, in the
/// traced run, because it is mostly the accept loop's idle sleep.
fn setup_once(seed: u64, r: &mut RunReport) -> (f64, f64) {
    let (s, secs) = start(seed);
    let wait = admitted(&s);
    close(s, 0, r, None);
    (secs, wait)
}

pub fn run(cfg: &Cfg) -> (RunReport, E2e) {
    let mut r = RunReport::default();
    let frames = frames(cfg.seed);
    let mut setup = SetupSamples::default();
    let s = open(cfg.seed);
    let (mut acked, mut busy) = (0, 0.0);
    while busy < cfg.seconds {
        busy += closed_loop(&s.server, &frames, BLOCK_FRAMES, None);
        acked += BLOCK_FRAMES;
        setup.sample(1, || (setup_once(cfg.seed, &mut r).0, 1));
    }
    close(s, acked, &mut r, None);
    let throughput_per_s = acked as f64 / busy;
    (
        r,
        E2e {
            throughput_per_s,
            setup_s: setup.seconds(),
            peak_rss_mb: peak_rss_mb(),
        },
    )
}

/// Alternate untraced and traced blocks on one session, with one set-up
/// after each pair.
pub fn trace(cfg: &Cfg, layers: &mut Layers) -> RunReport {
    let mut r = RunReport::default();
    let frames = frames(cfg.seed);
    let s = open(cfg.seed);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < cfg.seconds || traced.is_empty() {
        untraced.push(closed_loop(&s.server, &frames, BLOCK_FRAMES, None));
        traced.push(closed_loop(
            &s.server,
            &frames,
            BLOCK_FRAMES,
            Some(&mut *layers),
        ));
        let (_, wait) = setup_once(cfg.seed, &mut r);
        layers.admit.0.push(wait);
    }
    // The server counters cover every block of the session.
    layers.items = (untraced.len() + traced.len()) as u64;
    close(s, layers.items * BLOCK_FRAMES, &mut r, Some(layers));
    layers.overhead_pct = overhead_pct(&untraced, &traced);
    r
}
