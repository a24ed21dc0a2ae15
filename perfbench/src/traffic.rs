//! Drives one pass of a schedule through a fresh service plane.
//!
//! A single thread submits each tick's frames, then calls
//! `tick()`. Arrivals are fixed per virtual tick (open loop in virtual
//! time); in host time the loop is closed, because the next tick's
//! arrivals go in only once the previous `tick()` has returned. The
//! timed loop only submits, ticks and stamps times: responses are kept
//! and checked afterwards.

use crate::calib;
use crate::gen::Schedule;
use crate::report::median;
use crate::spans::{SpanLog, NO_REQUEST};
use service::frame::Response;
use service::plane::{Counters, PlaneConfig, ServicePlane};
use std::time::Instant;

/// Everything one pass produced, with host times in nanoseconds from
/// the start of the pass.
pub struct PassLog {
    /// The immediate response of each frame, `None` when admitted.
    pub immediate: Vec<Option<Response>>,
    /// Host time each tick started (arrival ticks, then drain ticks).
    pub tick_start_ns: Vec<u64>,
    /// Host time each tick's `tick()` call started.
    pub tick_call_ns: Vec<u64>,
    /// Host time each tick's `tick()` call returned.
    pub tick_end_ns: Vec<u64>,
    /// The responses each tick's `tick()` call returned.
    pub tick_out: Vec<Vec<Response>>,
    /// Host time of the whole traffic phase, arrivals and drain, less
    /// the calibration loops timed between ticks.
    pub traffic_ns: u64,
    /// The calibration timed after each tick, ns.
    pub calib_ns: Vec<u64>,
    /// Plane counters after the drain.
    pub counters: Counters,
    /// Table-cache counters over the pass.
    pub cache: koblitz::cache::CacheStats,
    /// The plane's signature key (what sign responses verify under).
    pub signer_public: koblitz::Affine,
    /// The plane's ECDH key.
    pub ecdh_public: koblitz::Affine,
}

/// Runs one pass: fresh plane, cold table cache, every tick of the
/// schedule, then ticks until the queue is empty. A calibration runs
/// after each tick, outside every latency interval. With `spans`,
/// records one span around each `submit` and each `tick`.
pub fn run_pass(
    cfg: &PlaneConfig,
    schedule: &Schedule,
    mut spans: Option<&mut SpanLog>,
) -> PassLog {
    koblitz::cache::reset();
    let mut plane = ServicePlane::new(cfg.clone()).expect("PlaneConfig::for_target is valid");
    let mut immediate: Vec<Option<Response>> = Vec::with_capacity(schedule.frames.len());
    let mut tick_start_ns = Vec::new();
    let mut tick_call_ns = Vec::new();
    let mut tick_end_ns = Vec::new();
    let mut tick_out = Vec::new();
    let t0 = Instant::now();
    let ns = |t: Instant| t.duration_since(t0).as_nanos() as u64;
    let mut tick = 0u64;
    let mut calib_ns = Vec::new();
    loop {
        let arriving = tick < schedule.ticks();
        if !arriving && plane.pending() == 0 {
            break;
        }
        tick_start_ns.push(ns(Instant::now()));
        if arriving {
            for f in &schedule.frames[schedule.at(tick)] {
                match spans.as_deref_mut() {
                    None => immediate.push(plane.submit(&f.bytes)),
                    Some(log) => {
                        let r = log.time("service.plane.submit", (f.client, f.seq), || {
                            plane.submit(&f.bytes)
                        });
                        immediate.push(r);
                    }
                }
            }
        }
        tick_call_ns.push(ns(Instant::now()));
        let out = match spans.as_deref_mut() {
            None => plane.tick(),
            Some(log) => log.time("service.plane.tick", (NO_REQUEST, tick), || plane.tick()),
        };
        tick_end_ns.push(ns(Instant::now()));
        tick_out.push(out);
        tick += 1;
        calib_ns.push(calib::sample());
    }
    let traffic_ns = ns(Instant::now()) - calib_ns.iter().sum::<u64>();
    PassLog {
        immediate,
        tick_start_ns,
        tick_call_ns,
        tick_end_ns,
        tick_out,
        traffic_ns,
        calib_ns,
        counters: plane.counters(),
        cache: koblitz::cache::stats(),
        signer_public: *plane.signer_public(),
        ecdh_public: *plane.ecdh_public(),
    }
}

/// When each tick of a pass started and when its `tick()` call returned,
/// and how long the whole pass took, ms from the start of the pass.
pub struct TickClock {
    /// Start of each tick.
    pub start: Vec<f64>,
    /// Return of each tick's `tick()` call.
    pub end: Vec<f64>,
    /// The whole pass.
    pub total: f64,
}

impl TickClock {
    /// The latency of each (arrival tick, answering tick) pair: from the
    /// start of the arrival tick to the return of the answering tick's
    /// `tick()` call, ms.
    pub fn latencies_ms(&self, done: &[(usize, usize)]) -> Vec<f64> {
        done.iter()
            .map(|&(arrived, answered)| self.end[answered] - self.start[arrived])
            .collect()
    }

    /// The passes of a run replay identical work tick for tick, so they
    /// differ only by how the host disturbed them. Each tick of the
    /// consensus clock lasts the median over the passes of that tick's
    /// length (start to next start), and returns the median over the
    /// passes of its start-to-return time: a stretch the host slowed in
    /// one pass moves nothing once there are three passes.
    ///
    /// # Errors
    ///
    /// Passes with different numbers of ticks.
    pub fn consensus(clocks: &[TickClock]) -> Result<TickClock, String> {
        let n = clocks.first().map_or(0, |c| c.start.len());
        if let Some(c) = clocks.iter().find(|c| c.start.len() != n) {
            return Err(format!(
                "passes ran {n} and {} ticks of the same schedule",
                c.start.len()
            ));
        }
        let mut start = Vec::with_capacity(n);
        let mut end = Vec::with_capacity(n);
        let mut acc = 0.0;
        for t in 0..n {
            let over =
                |f: &dyn Fn(&TickClock) -> f64| median(&clocks.iter().map(f).collect::<Vec<f64>>());
            start.push(acc);
            end.push(acc + over(&|c| c.end[t] - c.start[t]));
            acc += over(&|c| c.start.get(t + 1).copied().unwrap_or(c.total) - c.start[t]);
        }
        Ok(TickClock {
            start,
            end,
            total: acc,
        })
    }
}

impl PassLog {
    /// The pass on the reference-speed clock (see [`crate::calib`]):
    /// each stretch of host time is scaled by the calibrations timed
    /// around its tick, and the calibration loops themselves are left
    /// out.
    pub fn reference_clock(&self) -> TickClock {
        let n = self.tick_start_ns.len();
        let scales = calib::smoothed_scales(&self.calib_ns, calib::SMOOTHING_RADIUS);
        let mut start = Vec::with_capacity(n);
        let mut end = Vec::with_capacity(n);
        let mut acc = 0.0;
        for (t, scale) in scales.iter().enumerate() {
            let scale = scale / 1e6;
            start.push(acc);
            end.push(acc + (self.tick_end_ns[t] - self.tick_start_ns[t]) as f64 * scale);
            let next = self
                .tick_start_ns
                .get(t + 1)
                .copied()
                .unwrap_or(self.tick_end_ns[t] + self.calib_ns[t]);
            acc += (next - self.tick_start_ns[t] - self.calib_ns[t]) as f64 * scale;
        }
        TickClock {
            start,
            end,
            total: acc,
        }
    }
}
