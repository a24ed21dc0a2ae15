//! One benchmark run: set-up, the timed phase, the checks, and the
//! metrics of one workload under one seed.

use crate::calib;
use crate::check::{check_pass, PassCheck};
use crate::gen::{self, KeyPool, MixSpec, Schedule};
use crate::layers::{self, PassKeys, FIELD_BLOCK};
use crate::modeled::{self, PmKind};
use crate::report::{category_stem, median, peak_rss_mb, percentile, Metrics};
use crate::spans::{SpanLog, SpanStats};
use crate::traffic::{run_pass, PassLog, TickClock};
use koblitz::mul::KG_WINDOW;
use m0plus::{RunReport, TargetSpec};
use service::cost::{canonical_scalar, CostTable};
use service::frame::{Op, Status};
use service::plane::PlaneConfig;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Worker threads of the plane's batch drain, fixed rather than taken
/// from the host. One: the batch then runs inline on the driving
/// thread, so a pass never waits on a worker thread that the host has
/// descheduled or that shares its core with another tenant. On a
/// 2-vCPU shared host, two workers made ten runs of the same code
/// spread by 28% (`gateway_mix`) and 52% (`sign_burst`) in
/// `ops_per_s`.
pub const WORKERS: usize = 1;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// `CostTable` pricings after set-up, for `direct_minstr_per_s` on the
/// service workloads.
pub const PRICINGS: usize = 15;
/// Paper figures (Table 5 and Table 7 totals): kP and kG cycles, µJ.
const PAPER_KP_CYCLES: f64 = 2_814_827.0;
const PAPER_KG_CYCLES: f64 = 1_864_470.0;
const PAPER_KP_UJ: f64 = 34.16;
const PAPER_KG_UJ: f64 = 20.63;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// WSN gateway traffic at 80% of capacity.
    GatewayMix,
    /// A signing service under a 2x burst.
    SignBurst,
    /// kP/kG and fault replays on the M0+ model.
    ModeledKernels,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::GatewayMix,
        Workload::SignBurst,
        Workload::ModeledKernels,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GatewayMix => "gateway_mix",
            Workload::SignBurst => "sign_burst",
            Workload::ModeledKernels => "modeled_kernels",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The traffic shape of a service workload.
    pub fn spec(self) -> Option<MixSpec> {
        match self {
            Workload::GatewayMix => Some(MixSpec::gateway_mix()),
            Workload::SignBurst => Some(MixSpec::sign_burst()),
            Workload::ModeledKernels => None,
        }
    }
}

/// What a run hands back to the command line.
pub struct RunOutput {
    /// Operations attempted (frames submitted, or kernel runs and
    /// replays).
    pub attempted: u64,
    /// The measured metrics.
    pub metrics: Metrics,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// The traced run's spans.
    pub spans: Option<SpanLog>,
}

/// The cost-model target every workload runs under.
pub fn target() -> &'static TargetSpec {
    m0plus::target::by_name("cortex-m0plus").expect("the default target is registered")
}

/// `PlaneConfig::for_target` defaults with the worker count fixed.
pub fn plane_config() -> PlaneConfig {
    let mut cfg = PlaneConfig::for_target(target());
    cfg.workers = WORKERS;
    cfg
}

/// A service workload's inputs.
pub struct ServiceSetup {
    /// The plane policy.
    pub cfg: PlaneConfig,
    /// The price list the schedule's load is computed from.
    pub costs: CostTable,
    /// Identities and messages.
    pub pool: KeyPool,
    /// The arrival schedule.
    pub schedule: Schedule,
}

/// Builds a service workload's inputs from its seed: prices the cost
/// table, builds the kG comb table, derives the key pool and generates
/// the schedule.
pub fn service_setup(seed: u64, spec: &MixSpec) -> ServiceSetup {
    let costs = CostTable::measure(target());
    black_box(koblitz::mul::precompute_table(
        &koblitz::generator(),
        KG_WINDOW,
    ));
    let cfg = plane_config();
    let pool = KeyPool::new(seed, spec);
    let schedule = gen::schedule(seed, spec, &pool, &costs, cfg.capacity_cycles_per_tick);
    ServiceSetup {
        cfg,
        costs,
        pool,
        schedule,
    }
}

/// Runs passes while one more is expected to end within `budget_s` of
/// traffic time (at least one) and checks each as it ends. Later passes
/// keep only what the metrics need, so memory does not grow with the
/// number of passes.
fn passes(
    s: &ServiceSetup,
    budget_s: f64,
    mut spans: Option<&mut SpanLog>,
) -> Result<(Vec<PassLog>, Vec<PassCheck>), String> {
    let mut logs: Vec<PassLog> = Vec::new();
    let mut checks: Vec<PassCheck> = Vec::new();
    let mut spent = 0.0;
    while logs.is_empty() || spent + spent / logs.len() as f64 <= budget_s {
        let mut log = run_pass(&s.cfg, &s.schedule, spans.as_deref_mut());
        spent += log.traffic_ns as f64 / 1e9;
        let mut c = check_pass(&s.schedule, &s.pool, &log, logs.is_empty())?;
        if let Some(first) = checks.first() {
            if c.encoded != first.encoded {
                return Err(format!(
                    "pass {} answered differently from pass 0",
                    logs.len()
                ));
            }
            c.encoded = Vec::new();
            log.immediate = Vec::new();
            log.tick_out = Vec::new();
        }
        logs.push(log);
        checks.push(c);
    }
    Ok((logs, checks))
}

/// Runs one workload.
///
/// # Errors
///
/// Any output that fails its check.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Result<RunOutput, String> {
    match workload.spec() {
        Some(spec) => run_service(&spec, seed, seconds, trace),
        None => run_modeled(seed, seconds, trace),
    }
}

/// The canonical kP and kG the plane's quotes are priced from, with
/// their reports, checked against the quotes.
fn canonical_reports(costs: &CostTable) -> Result<(RunReport, RunReport), String> {
    let k = canonical_scalar();
    let kp = modeled::run_job(
        &modeled::PmJob {
            kind: PmKind::Kp,
            base: koblitz::generator(),
            k: k.clone(),
        },
        target(),
        m0plus::Backend::Direct,
    );
    let kg = modeled::run_job(
        &modeled::PmJob {
            kind: PmKind::Kg,
            base: koblitz::generator(),
            k,
        },
        target(),
        m0plus::Backend::Direct,
    );
    let same = |r: &RunReport, q: service::OpCost| {
        r.cycles == q.cycles && r.energy_pj.to_bits() == q.energy_pj.to_bits()
    };
    if !same(&kp, costs.kp) || !same(&kg, costs.kg) {
        return Err("the plane's quotes differ from a fresh modeled run".into());
    }
    Ok((kp, kg))
}

fn set_modeled(m: &mut Metrics, notes: &mut Vec<String>, kp: (u64, f64), kg: (u64, f64)) {
    m.set("kp_cycles", kp.0 as f64);
    m.set("kg_cycles", kg.0 as f64);
    m.set("kp_uj", kp.1 / 1e6);
    m.set("kg_uj", kg.1 / 1e6);
    let err = |ours: f64, paper: f64| 100.0 * (ours - paper) / paper;
    notes.push(format!(
        "modeled kP: {} cycles ({:+.2}% vs paper 2 814 827), {:.2} uJ ({:+.2}% vs paper 34.16)",
        kp.0,
        err(kp.0 as f64, PAPER_KP_CYCLES),
        kp.1 / 1e6,
        err(kp.1 / 1e6, PAPER_KP_UJ)
    ));
    notes.push(format!(
        "modeled kG: {} cycles ({:+.2}% vs paper 1 864 470), {:.2} uJ ({:+.2}% vs paper 20.63)",
        kg.0,
        err(kg.0 as f64, PAPER_KG_CYCLES),
        kg.1 / 1e6,
        err(kg.1 / 1e6, PAPER_KG_UJ)
    ));
}

fn set_latency(m: &mut Metrics, notes: &mut Vec<String>, what: &str, samples: &[f64]) {
    m.set("latency_p50_ms", median(samples));
    m.set("latency_p99_ms", percentile(samples, 99.0));
    notes.push(format!(
        "latency over {} {what}: p50 {:.4} ms, p99 {:.4} ms ({} samples beyond p99)",
        samples.len(),
        median(samples),
        percentile(samples, 99.0),
        samples.len() / 100
    ));
}

fn run_service(spec: &MixSpec, seed: u64, seconds: f64, trace: bool) -> Result<RunOutput, String> {
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        // Free the previous set-up first, so the peak holds one.
        drop(setup.take());
        let before = calib::sample();
        let t = Instant::now();
        let s = service_setup(seed, spec);
        let elapsed = t.elapsed().as_secs_f64();
        setup_times.push(elapsed * calib::scale((before + calib::sample()) / 2));
        setup = Some(s);
    }
    let s = setup.expect("at least one set-up");
    // Pricing runs the M0+ model on Backend::Direct, which the lanes
    // loop tracks best (see `calib::sample_lanes`).
    let mut pricing = Vec::with_capacity(PRICINGS);
    for _ in 0..PRICINGS {
        let before = calib::sample_lanes();
        let t = Instant::now();
        black_box(CostTable::measure(target()));
        let elapsed = t.elapsed().as_secs_f64();
        pricing.push(elapsed * calib::scale((before + calib::sample_lanes()) / 2));
    }
    let (kp_rep, kg_rep) = canonical_reports(&s.costs)?;
    let canon_instr = (kp_rep.counts.total() + kg_rep.counts.total()) as f64;

    let mut m = Metrics::default();
    let mut notes = Vec::new();
    m.set("setup_s", median(&setup_times));
    m.set("direct_minstr_per_s", canon_instr / median(&pricing) / 1e6);
    set_modeled(
        &mut m,
        &mut notes,
        (s.costs.kp.cycles, s.costs.kp.energy_pj),
        (s.costs.kg.cycles, s.costs.kg.energy_pj),
    );
    notes.push(format!(
        "schedule: {} frames over {} ticks per pass, load {}\u{2030} of {} cycles/tick, {} clients, {} workers",
        s.schedule.frames.len(),
        s.schedule.ticks(),
        spec.load_permille,
        s.cfg.capacity_cycles_per_tick,
        spec.clients,
        WORKERS
    ));

    let budget = if trace { 0.0 } else { seconds };
    let (logs, checks) = passes(&s, budget, None)?;
    let attempted = (logs.len() * s.schedule.frames.len()) as u64;
    // Every pass does identical work, so passes differ only by how much
    // other tenants disturbed them: the host-time figures are read off
    // the consensus of the passes' reference clocks, tick by tick.
    let c0 = &checks[0];
    let clocks: Vec<TickClock> = logs.iter().map(PassLog::reference_clock).collect();
    let clock = TickClock::consensus(&clocks)?;
    let completed = logs[0].counters.completed as f64;
    m.set("ops_per_s", completed / (clock.total / 1e3));
    let latency = clock.latencies_ms(&c0.done_ticks);
    m.set("latency_p50_ms", median(&latency));
    m.set("latency_p99_ms", percentile(&latency, 99.0));
    notes.push(format!(
        "latency on the consensus of {} passes, over {} done requests: p50 {:.4} ms, p99 {:.4} ms ({} samples beyond p99)",
        logs.len(),
        latency.len(),
        median(&latency),
        percentile(&latency, 99.0),
        latency.len() / 100
    ));
    let raw_ops: Vec<f64> = logs
        .iter()
        .map(|l| completed / (l.traffic_ns as f64 / 1e9))
        .collect();
    let calib_all: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.calib_ns.iter().map(|&c| c as f64))
        .collect();
    notes.push(format!(
        "raw host figures: {:.2} ops/s, median of {} passes; median calibration {:.0} ns against {:.0} ns reference",
        median(&raw_ops),
        logs.len(),
        median(&calib_all),
        calib::REFERENCE_NS
    ));
    m.set("done_share", c0.legit_done as f64 / c0.legit as f64);
    let mut waited: BTreeMap<usize, u64> = BTreeMap::new();
    for (f, t) in s.schedule.frames.iter().zip(&c0.answered_at) {
        if let Some(t) = t {
            *waited.entry(t - f.tick as usize).or_insert(0) += 1;
        }
    }
    notes.push(format!(
        "pass 0 admitted requests by ticks waited: {waited:?}"
    ));
    for (log, own) in logs.iter().zip(&clocks) {
        let latency = own.latencies_ms(&c0.done_ticks);
        notes.push(format!(
            "pass: {:.1} ops/s, p50 {:.3} ms, p99 {:.3} ms, calibration {:.0} ns",
            completed / (own.total / 1e3),
            median(&latency),
            percentile(&latency, 99.0),
            median(&log.calib_ns.iter().map(|&x| x as f64).collect::<Vec<_>>())
        ));
    }
    notes.push(format!(
        "{} passes; pass 0 outcomes {:?}; cache {:?}; counters {:?}; mutated done bodies checked by shape only: {}",
        logs.len(),
        c0.outcomes,
        logs[0].cache,
        logs[0].counters,
        c0.shape_only
    ));

    let mut spans = None;
    if trace {
        let mut log = SpanLog::new();
        // Untraced and traced passes alternate, so both see the same
        // host; the passes do identical work, so the ratio of their
        // times is the tracing overhead.
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        let started = Instant::now();
        while traced.is_empty() || started.elapsed().as_secs_f64() < seconds / 2.0 {
            plain.push(run_pass(&s.cfg, &s.schedule, None));
            traced.push(run_pass(&s.cfg, &s.schedule, Some(&mut log)));
        }
        let mut tchecks = Vec::with_capacity(traced.len());
        for pass in plain.iter().chain(&traced) {
            let c = check_pass(&s.schedule, &s.pool, pass, false)?;
            if c.encoded != c0.encoded {
                return Err("a traced-run pass answered differently from pass 0".into());
            }
            tchecks.push(c);
        }
        let reference_s = |v: &[PassLog]| v.iter().map(|l| l.reference_clock().total).sum::<f64>();
        let overhead = reference_s(&traced) / reference_s(&plain) - 1.0;
        m.set("trace.overhead_share", overhead);
        let raw_s = |v: &[PassLog]| v.iter().map(|l| l.traffic_ns as f64).sum::<f64>();
        notes.push(format!(
            "tracing overhead: {:+.2}% over {} alternating pairs of passes ({:+.2}% in raw host time)",
            overhead * 100.0,
            traced.len(),
            (raw_s(&traced) / raw_s(&plain) - 1.0) * 100.0
        ));
        let keys = PassKeys::new(seed);
        let pass = layers::run(&mut log, &keys, &s.schedule, seconds / 4.0);
        probe_layers(&mut log, &keys, seed);
        plane_rows(
            &mut m,
            &log,
            &s.schedule,
            &traced[0],
            &tchecks[plain.len()],
            &pass,
        );
        let canonical_kg = modeled::PmJob {
            kind: PmKind::Kg,
            base: koblitz::generator(),
            k: canonical_scalar(),
        };
        kernel_rows(&mut m, &mut log, seed, &canonical_kg)?;
        profile_rows(&mut m, &kp_rep, &kg_rep);
        layer_rows(&mut m, &log);
        spans = Some(log);
    }
    m.set("peak_rss_mb", peak_rss_mb());
    Ok(RunOutput {
        attempted,
        metrics: m,
        notes,
        spans,
    })
}

/// A small schedule of all four operations (no mutations, no replays)
/// that the traced run sends through the layers after the workload's
/// own frames, so that layers a workload never reaches are still
/// measured. Regenerated under the next sub-seed until every operation
/// occurs.
pub fn probe_setup(seed: u64) -> (KeyPool, Schedule) {
    let spec = MixSpec {
        sign_pct: 25,
        verify_pct: 25,
        ecdh_pct: 25,
        adversarial_permille: 0,
        replay_permille: 0,
        pool: 4,
        ticks: 8,
        ..MixSpec::gateway_mix()
    };
    let costs = CostTable::shared(target());
    let capacity = plane_config().capacity_cycles_per_tick;
    for attempt in 0u64.. {
        let probe_seed = seed ^ 0x9e0b_e000 ^ (attempt << 32);
        let pool = KeyPool::new(probe_seed, &spec);
        let schedule = gen::schedule(probe_seed, &spec, &pool, costs, capacity);
        let covered = [Op::Sign, Op::Verify, Op::Ecdh, Op::Ecies]
            .iter()
            .all(|&op| schedule.frames.iter().any(|f| f.intent.op() == op));
        if covered {
            return (pool, schedule);
        }
    }
    unreachable!("some sub-seed covers every operation")
}

fn probe_layers(log: &mut SpanLog, keys: &PassKeys, seed: u64) {
    let (_, schedule) = probe_setup(seed);
    layers::run(log, keys, &schedule, f64::INFINITY);
}

/// The plane rows: span medians, queue wait, batch efficiency and the
/// deterministic counters of the first traced pass.
fn plane_rows(
    m: &mut Metrics,
    log: &SpanLog,
    schedule: &Schedule,
    pass: &PassLog,
    check: &PassCheck,
    layer: &layers::LayerPass,
) {
    let sum = log.summary();
    let med = |n: &str| sum.get(n).map_or(0.0, |s| s.median_ns);
    let k = log.scale();
    m.set(
        "service.plane.submit_us",
        med("service.plane.submit") * k / 1e3,
    );
    m.set("service.plane.tick_ms", med("service.plane.tick") * k / 1e6);
    let mut waits = Vec::new();
    for (i, f) in schedule.frames.iter().enumerate() {
        if let Some(t) = check.answered_at[i] {
            waits.push((pass.tick_call_ns[t] - pass.tick_start_ns[f.tick as usize]) as f64 / 1e6);
        }
    }
    m.set("service.plane.queue_wait_ms", median(&waits) * k);
    let c = pass.counters;
    m.set(
        "service.plane.ops_per_tick",
        c.completed as f64 / pass.tick_out.len() as f64,
    );
    m.set(
        "service.plane.admitted_share",
        c.admitted as f64 / c.submitted as f64,
    );
    let decoded = c.submitted - c.decode_errors;
    m.set(
        "service.plane.decode_wasted_share",
        (decoded - c.completed) as f64 / decoded.max(1) as f64,
    );
    m.set("service.plane.shed", c.shed as f64);
    m.set("service.plane.busy", c.busy_rejected as f64);
    m.set("service.plane.timeouts", c.timeouts as f64);
    m.set("service.plane.max_level", c.max_level as f64);
    m.set("koblitz.cache.hit_rate", pass.cache.hit_rate());
    m.set("koblitz.cache.evictions", pass.cache.evictions as f64);
    let big = pass
        .tick_out
        .iter()
        .filter(|out| {
            out.iter()
                .filter(|r| matches!(r.status, Status::Done(_)))
                .count()
                >= gf2m::bitsliced::CROSSOVER
        })
        .count();
    m.set("gf2m.bitsliced.calls", big as f64);

    // Batch efficiency: single-thread protocol time of the requests the
    // plane completed, over WORKERS x the tick() time that completed
    // them, for the ticks the layer pass fully covered.
    let last_tick = layer
        .frames_done
        .checked_sub(1)
        .map_or(0, |i| schedule.frames[i].tick as usize);
    let mut serial_ns = 0u64;
    for (i, &ns) in layer.op_ns.iter().enumerate().take(layer.frames_done) {
        if check.answered_at[i].is_some_and(|t| t <= last_tick) {
            serial_ns += ns;
        }
    }
    let tick_ns: u64 = (0..=last_tick.min(pass.tick_out.len() - 1))
        .map(|t| pass.tick_end_ns[t] - pass.tick_call_ns[t])
        .sum();
    m.set(
        "protocols.batch.parallel_efficiency",
        serial_ns as f64 / (WORKERS as f64 * tick_ns.max(1) as f64),
    );
}

/// Span name → metric name, and the divisor turning median self
/// nanoseconds into the metric's unit.
const LAYER_ROWS: &[(&str, &str, f64)] = &[
    (
        "koblitz.curve.subgroup_check",
        "koblitz.curve.subgroup_check_us",
        1e3,
    ),
    (
        "koblitz.curve.decompress",
        "koblitz.curve.decompress_us",
        1e3,
    ),
    (
        "protocols.wire.decode_public_key",
        "protocols.wire.decode_public_key_us",
        1e3,
    ),
    ("service.frame.decode", "service.frame.decode_us", 1e3),
    ("protocols.ecdsa.verify", "protocols.ecdsa.verify_us", 1e3),
    (
        "protocols.ecdh.shared_secret",
        "protocols.ecdh.shared_secret_us",
        1e3,
    ),
    ("protocols.ecies.encrypt", "protocols.ecies.encrypt_us", 1e3),
    (
        "koblitz.mul.double_multiply",
        "koblitz.mul.double_multiply_us",
        1e3,
    ),
    ("koblitz.mul.mul_wtnaf", "koblitz.mul.mul_wtnaf_us", 1e3),
    ("koblitz.scalar.invert", "koblitz.scalar.invert_us", 1e3),
    ("koblitz.scalar.mul", "koblitz.scalar.mul_us", 1e3),
    ("protocols.ecdsa.sign", "protocols.ecdsa.sign_us", 1e3),
    (
        "protocols.ecdsa.derive_nonce",
        "protocols.ecdsa.derive_nonce_us",
        1e3,
    ),
    ("koblitz.mul.mul_g", "koblitz.mul.mul_g_us", 1e3),
    ("koblitz.tnaf.recode_w4", "koblitz.tnaf.recode_w4_us", 1e3),
    ("koblitz.tnaf.recode_w6", "koblitz.tnaf.recode_w6_us", 1e3),
    (
        "koblitz.projective.batch_to_affine",
        "koblitz.projective.batch_to_affine_us",
        1e3,
    ),
    ("gf2m.mul", "gf2m.mul_ns", FIELD_BLOCK as f64),
    ("gf2m.sqr", "gf2m.sqr_ns", FIELD_BLOCK as f64),
    ("gf2m.inv", "gf2m.inv_us", 1e3),
    ("gf2m.batch_invert", "gf2m.batch_invert_us", 1e3),
];

/// The layer-pass rows: median self time per call, except the table
/// cache, whose calls mix hits and misses and so report the mean.
fn layer_rows(m: &mut Metrics, log: &SpanLog) {
    let sum = log.summary();
    let k = log.scale();
    for &(span, metric, div) in LAYER_ROWS {
        m.set(metric, sum.get(span).map_or(0.0, |s| s.median_ns) * k / div);
    }
    let table = sum
        .get("koblitz.cache.table_for")
        .map_or(0.0, SpanStats::mean_ns);
    m.set("koblitz.cache.table_for_us", table * k / 1e3);
}

/// The m0plus rows from the kernel probe, whose Code-backend kG is
/// `kg`.
fn kernel_rows(
    m: &mut Metrics,
    log: &mut SpanLog,
    seed: u64,
    kg: &modeled::PmJob,
) -> Result<(), String> {
    let p = modeled::kernel_probe(log, seed, kg, target(), 0.5)?;
    let sum = log.summary();
    let k = log.scale();
    let per_suite_ms =
        |n: &str| sum.get(n).map_or(0.0, |s| s.total_ns as f64) * k / p.suites as f64 / 1e6;
    m.set(
        "m0plus.backend.record_ms",
        per_suite_ms("m0plus.backend.record"),
    );
    m.set(
        "m0plus.backend.translate_ms",
        per_suite_ms("m0plus.backend.translate"),
    );
    m.set(
        "m0plus.exec.predecode_ms",
        per_suite_ms("m0plus.exec.predecode"),
    );
    let replay_ns = sum.get("m0plus.exec.replay").map_or(1, |s| s.total_ns) as f64;
    m.set(
        "m0plus.exec.replay_minstr_per_s",
        p.replay_instructions as f64 / (replay_ns * k) * 1e3,
    );
    let (hits, misses) = p.predecode;
    m.set(
        "m0plus.exec.predecode_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    m.set(
        "m0plus.backend.code_minstr_per_s",
        p.code_instructions as f64 / (p.code_seconds * k) / 1e6,
    );
    m.set(
        "m0plus.fault.replay_minstr_per_s",
        p.fault_instructions as f64 / (p.fault_seconds * k) / 1e6,
    );
    Ok(())
}

/// The Table 7 rows of a kP and a kG report.
fn profile_rows(m: &mut Metrics, kp: &RunReport, kg: &RunReport) {
    for (label, rep) in [("kp", kp), ("kg", kg)] {
        for (cat, totals) in &rep.by_category {
            m.set(
                &format!("m0plus.profile.{label}.{}_cycles", category_stem(*cat)),
                totals.cycles as f64,
            );
        }
    }
}

/// The report of the median-cycle job of `kind`.
fn median_report(jobs: &[modeled::PmJob], reports: &[RunReport], kind: PmKind) -> RunReport {
    let mut of_kind: Vec<&RunReport> = jobs
        .iter()
        .zip(reports)
        .filter(|(j, _)| j.kind == kind)
        .map(|(_, r)| r)
        .collect();
    of_kind.sort_by_key(|r| r.cycles);
    of_kind[of_kind.len() / 2].clone()
}

fn run_modeled(seed: u64, seconds: f64, trace: bool) -> Result<RunOutput, String> {
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        // Free the previous set-up first, so the peak holds one.
        drop(inputs.take());
        let before = calib::sample();
        let t = Instant::now();
        let jobs = modeled::jobs(seed);
        let kernels = modeled::capture_kernels(seed, target())?;
        let elapsed = t.elapsed().as_secs_f64();
        setup_times.push(elapsed * calib::scale((before + calib::sample()) / 2));
        inputs = Some((jobs, kernels));
    }
    let (jobs, kernels) = inputs.expect("at least one set-up");
    let mut m = Metrics::default();
    let mut notes = Vec::new();
    m.set("setup_s", median(&setup_times));

    let (direct_budget, fault_budget) = if trace {
        (0.0, 0.0)
    } else {
        (seconds * 0.4, seconds * 0.4)
    };
    let direct = modeled::direct_phase(&jobs, target(), direct_budget, None)?;
    m.set(
        "direct_minstr_per_s",
        direct.instructions as f64 / direct.reference_seconds / 1e6,
    );
    let (code_instr, code_s) = modeled::code_check(&jobs, &direct.reports, target())?;
    notes.push(format!(
        "Code backend matched Direct on {} jobs at {:.2} Minstr/s (Direct {:.2} Minstr/s over {} runs)",
        modeled::CODE_JOBS,
        code_instr as f64 / code_s / 1e6,
        direct.instructions as f64 / direct.seconds / 1e6,
        direct.runs
    ));
    let kp = median_report(&jobs, &direct.reports, PmKind::Kp);
    let kg = median_report(&jobs, &direct.reports, PmKind::Kg);
    set_modeled(
        &mut m,
        &mut notes,
        (kp.cycles, kp.energy_pj),
        (kg.cycles, kg.energy_pj),
    );

    let faults = modeled::fault_phase(&kernels, seed, fault_budget, None);
    let rate = faults.replays as f64 / faults.reference_seconds;
    notes.push(format!(
        "raw host figures: {:.2} fault replays/s, Direct {:.2} Minstr/s",
        faults.replays as f64 / faults.seconds,
        direct.instructions as f64 / direct.seconds / 1e6
    ));
    m.set("ops_per_s", rate);
    set_latency(
        &mut m,
        &mut notes,
        "rounds of fault replays",
        &faults.round_latencies_ms(),
    );
    let cases = modeled::FAULT_CASES as u64;
    m.set("done_share", (cases - faults.aborted) as f64 / cases as f64);
    notes.push(format!(
        "first {cases} fault replays: {} aborted, {} benign, {} altered; {} replays in all",
        faults.aborted, faults.benign, faults.altered, faults.replays
    ));
    let attempted = direct.runs + modeled::CODE_JOBS as u64 + faults.replays;

    let mut spans = None;
    if trace {
        let mut log = SpanLog::new();
        // Untraced and traced fault phases alternate, so both see the
        // same host; the ratio of their replay rates is the overhead.
        let (mut plain, mut traced) = ((0u64, 0f64), (0u64, 0f64));
        for _ in 0..3 {
            let p = modeled::fault_phase(&kernels, seed, seconds / 12.0, None);
            let t = modeled::fault_phase(&kernels, seed, seconds / 12.0, Some(&mut log));
            plain = (plain.0 + p.replays, plain.1 + p.reference_seconds);
            traced = (traced.0 + t.replays, traced.1 + t.reference_seconds);
        }
        let overhead = (plain.0 as f64 / plain.1) / (traced.0 as f64 / traced.1) - 1.0;
        m.set("trace.overhead_share", overhead);
        notes.push(format!(
            "tracing overhead: {:+.2}% of replay time",
            overhead * 100.0
        ));
        modeled::direct_phase(&jobs, target(), 0.0, Some(&mut log))?;
        kernel_rows(&mut m, &mut log, seed, &jobs[1])?;
        profile_rows(&mut m, &kp, &kg);
        // The service layers, measured on a probe plane: this workload
        // never reaches them.
        let (pool, schedule) = probe_setup(seed);
        let probe = ServiceSetup {
            cfg: plane_config(),
            costs: CostTable::shared(target()).clone(),
            pool,
            schedule,
        };
        let (plogs, pchecks) = passes(&probe, 0.0, Some(&mut log))?;
        let keys = PassKeys::new(seed);
        let pass = layers::run(&mut log, &keys, &probe.schedule, f64::INFINITY);
        plane_rows(&mut m, &log, &probe.schedule, &plogs[0], &pchecks[0], &pass);
        layer_rows(&mut m, &log);
        spans = Some(log);
    }
    m.set("peak_rss_mb", peak_rss_mb());
    Ok(RunOutput {
        attempted,
        metrics: m,
        notes,
        spans,
    })
}
