//! The `modeled_kernels` workload: the paper's kP and kG on the
//! Cortex-M0+ model, and fault-injection replays of recorded kernels.
//!
//! Everything modeled (cycles, energy, category split, fault outcomes)
//! is a pure function of the seed; only host times vary.

use crate::spans::{SpanLog, NO_REQUEST};
use gf2m::modeled::{FeSlot, ModeledField, Tier};
use gf2m::Fe;
use koblitz::modeled::ModeledMul;
use koblitz::{Affine, Int, Scalar};
use m0plus::exec::{self, Predecoded};
use m0plus::fault::{FaultPlan, RecordedKernel};
use m0plus::{Backend, Machine, RunReport, TargetSpec};
use prng::SplitMix64;
use std::ops::Range;
use std::time::Instant;

const DOMAIN_SCALARS: u64 = 0xbe7c_0101;
const DOMAIN_OPERANDS: u64 = 0xbe7c_0102;
const DOMAIN_FAULTS: u64 = 0xbe7c_0103;

/// Seeded kP jobs and kG jobs (odd, so each has a median job).
pub const JOBS: usize = 63;
/// Jobs re-run on the Code backend in every run (one kP, one kG).
pub const CODE_JOBS: usize = 2;
/// Fault replays whose outcome counts are deterministic (always run).
pub const FAULT_CASES: usize = 4000;

/// Which point multiplication a job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PmKind {
    /// Random-point kP (wTNAF, w = 4, table built online).
    Kp,
    /// Fixed-point kG (w = 6, offline table).
    Kg,
}

/// One seeded point multiplication.
#[derive(Debug, Clone)]
pub struct PmJob {
    /// kP or kG.
    pub kind: PmKind,
    /// Base point (the generator for kG).
    pub base: Affine,
    /// Scalar.
    pub k: Int,
}

fn scalar(seed: u64, case: u64) -> Scalar {
    let mut rng = SplitMix64::substream(seed, DOMAIN_SCALARS, case);
    loop {
        let mut wide = [0u8; 40];
        rng.fill_bytes(&mut wide);
        let s = Scalar::from_wide_bytes(&wide);
        if !s.is_zero() {
            return s;
        }
    }
}

/// The seeded jobs, alternating kP and kG. kP base points are
/// r·G for a seeded r, so they lie in the prime-order subgroup.
pub fn jobs(seed: u64) -> Vec<PmJob> {
    let mut out = Vec::with_capacity(2 * JOBS);
    for j in 0..JOBS as u64 {
        let base = koblitz::mul::mul_g(&scalar(seed, 3 * j).to_int());
        out.push(PmJob {
            kind: PmKind::Kp,
            base,
            k: scalar(seed, 3 * j + 1).to_int(),
        });
        out.push(PmJob {
            kind: PmKind::Kg,
            base: koblitz::generator(),
            k: scalar(seed, 3 * j + 2).to_int(),
        });
    }
    out
}

/// Runs a job on a fresh modeled multiplier (a reused one carries state
/// from its previous run).
pub fn run_job(job: &PmJob, target: &'static TargetSpec, backend: Backend) -> RunReport {
    let mut mm = ModeledMul::with_target_and_backend(Tier::Asm, target, backend);
    let run = match job.kind {
        PmKind::Kp => mm.kp(&job.base, &job.k),
        PmKind::Kg => mm.kg(&job.k),
    };
    run.report
}

/// Whether two reports agree exactly: cycles, energy bits, instruction
/// mix and category split.
pub fn same_report(a: &RunReport, b: &RunReport) -> bool {
    a.cycles == b.cycles
        && a.energy_pj.to_bits() == b.energy_pj.to_bits()
        && a.counts == b.counts
        && a.by_category.len() == b.by_category.len()
        && a.by_category
            .iter()
            .zip(&b.by_category)
            .all(|((ca, ta), (cb, tb))| {
                ca == cb
                    && ta.cycles == tb.cycles
                    && ta.energy_pj.to_bits() == tb.energy_pj.to_bits()
            })
}

/// The field operation a recorded kernel computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldOp {
    /// z = a·b
    Mul,
    /// z = a²
    Sqr,
    /// z = a⁻¹
    Inv,
    /// z = a + b
    Add,
}

impl FieldOp {
    /// The four recorded kernels.
    pub const ALL: [FieldOp; 4] = [FieldOp::Mul, FieldOp::Sqr, FieldOp::Inv, FieldOp::Add];

    fn run(self, f: &mut ModeledField, z: FeSlot, a: FeSlot, b: FeSlot) {
        match self {
            FieldOp::Mul => f.mul(z, a, b),
            FieldOp::Sqr => f.sqr(z, a),
            FieldOp::Inv => f.inv(z, a),
            FieldOp::Add => f.add(z, a, b),
        }
    }

    fn expect(self, a: Fe, b: Fe) -> Fe {
        match self {
            FieldOp::Mul => a * b,
            FieldOp::Sqr => a.square(),
            FieldOp::Inv => a.invert().expect("operand is non-zero"),
            FieldOp::Add => a + b,
        }
    }
}

/// A field kernel ready to replay: the pre-run machine, the recording
/// and its assembled fragment (bundled as a [`RecordedKernel`]), plus
/// what a fault-free replay must leave in the output slot.
pub struct FaultKernel {
    /// The captured kernel.
    pub kernel: RecordedKernel,
    /// RAM words faults may hit (the squaring table models flash ROM and
    /// is left out).
    pub regions: Vec<Range<u32>>,
    /// Output slot.
    pub z: FeSlot,
    /// Fault-free result.
    pub expected: Fe,
}

/// Seeded non-zero field element.
pub fn element(seed: u64, case: u64) -> Fe {
    let mut rng = SplitMix64::substream(seed, DOMAIN_OPERANDS, case);
    loop {
        let mut w = [0u32; 8];
        rng.fill_u32(&mut w);
        let e = Fe::from_words_reduced(w);
        if !e.is_zero() {
            return e;
        }
    }
}

/// The pieces of one kernel capture, each produced by its own public
/// entry point so the traced run can time them apart.
pub struct Captured {
    /// Machine state before the kernel.
    pub pre: Machine,
    /// Recorded trace.
    pub recording: m0plus::Recording,
    /// Output slot.
    pub z: FeSlot,
    /// Fault-free result.
    pub expected: Fe,
    /// RAM words faults may hit.
    pub regions: Vec<Range<u32>>,
}

/// Records one field kernel on seeded operands (`Direct` tier, Asm).
pub fn record(op: FieldOp, seed: u64, case: u64, target: &'static TargetSpec) -> Captured {
    let mut f = ModeledField::with_target(Tier::Asm, target);
    let (a0, b0) = (element(seed, 2 * case), element(seed, 2 * case + 1));
    let a = f.alloc_init(a0);
    let b = f.alloc_init(b0);
    let z = f.alloc();
    let rom = f.rom_words();
    let pre = f.machine().clone();
    let regions = vec![0..rom.start, rom.end..pre.allocated_words()];
    f.machine_mut().start_recording();
    op.run(&mut f, z, a, b);
    let recording = f.machine_mut().take_recording();
    let expected = f.load(z);
    assert_eq!(
        expected,
        op.expect(a0, b0),
        "modeled {op:?} disagrees with the portable field"
    );
    Captured {
        pre,
        recording,
        z,
        expected,
        regions,
    }
}

/// Operand sets per kernel in the fault phase: the inversion's trace
/// length depends on its operand, so several sets average that out.
pub const OPERAND_SETS: usize = 16;

/// Captures the seeded kernels the fault phase replays:
/// [`OPERAND_SETS`] sets of the four kernels, in [`FieldOp::ALL`] order
/// within each set.
pub fn capture_kernels(seed: u64, target: &'static TargetSpec) -> Result<Vec<FaultKernel>, String> {
    (0..OPERAND_SETS * FieldOp::ALL.len())
        .map(|i| {
            let op = FieldOp::ALL[i % FieldOp::ALL.len()];
            let c = record(op, seed, i as u64, target);
            let program = m0plus::backend::translate(&c.recording).map_err(|e| e.to_string())?;
            let kernel = RecordedKernel::new(c.pre, program, c.recording);
            let clean = kernel.replay(None);
            if clean.aborted() || load_fe(&clean.machine, c.z) != c.expected {
                return Err(format!(
                    "fault-free replay of {op:?} differs from its recording"
                ));
            }
            Ok(FaultKernel {
                kernel,
                regions: c.regions,
                z: c.z,
                expected: c.expected,
            })
        })
        .collect()
}

fn load_fe(m: &Machine, slot: FeSlot) -> Fe {
    Fe::from_words_reduced(m.read_slice(slot.0, 8).try_into().expect("8 words"))
}

/// Host figures and deterministic results of the Direct phase.
pub struct DirectPhase {
    /// The first report of every job, in job order.
    pub reports: Vec<RunReport>,
    /// Jobs run (including repeats).
    pub runs: u64,
    /// Instructions retired over all runs.
    pub instructions: u64,
    /// Host seconds over all runs.
    pub seconds: f64,
    /// The same on the reference-speed clock (see [`crate::calib`]).
    pub reference_seconds: f64,
}

/// Runs every job once on `Direct`, then keeps cycling through them
/// until `budget_s` is spent; a repeat must reproduce its first report.
pub fn direct_phase(
    jobs: &[PmJob],
    target: &'static TargetSpec,
    budget_s: f64,
    mut spans: Option<&mut SpanLog>,
) -> Result<DirectPhase, String> {
    let mut reports: Vec<RunReport> = Vec::with_capacity(jobs.len());
    let (mut runs, mut instructions, mut seconds) = (0u64, 0u64, 0f64);
    let (mut calib_ns, mut job_s) = (Vec::new(), Vec::new());
    let mut i = 0usize;
    while i < jobs.len() || seconds < budget_s {
        let j = i % jobs.len();
        calib_ns.push(crate::calib::sample_lanes());
        let t = Instant::now();
        let rep = match spans.as_deref_mut() {
            None => run_job(&jobs[j], target, Backend::Direct),
            Some(log) => {
                let name = match jobs[j].kind {
                    PmKind::Kp => "m0plus.direct.kp",
                    PmKind::Kg => "m0plus.direct.kg",
                };
                log.time(name, (NO_REQUEST, j as u64), || {
                    run_job(&jobs[j], target, Backend::Direct)
                })
            }
        };
        let dt = t.elapsed().as_secs_f64();
        seconds += dt;
        job_s.push(dt);
        runs += 1;
        instructions += rep.counts.total();
        match reports.get(j) {
            Some(first) if !same_report(first, &rep) => {
                return Err(format!("job {j} repeated with a different modeled report"));
            }
            Some(_) => {}
            None => reports.push(rep),
        }
        i += 1;
    }
    let scales = crate::calib::smoothed_scales(&calib_ns, crate::calib::SMOOTHING_RADIUS);
    Ok(DirectPhase {
        reports,
        runs,
        instructions,
        seconds,
        reference_seconds: job_s.iter().zip(scales).map(|(s, k)| s * k).sum(),
    })
}

/// Re-runs the first [`CODE_JOBS`] jobs on the `Code` backend and
/// requires their reports to equal the Direct ones. Returns
/// (instructions, host seconds).
pub fn code_check(
    jobs: &[PmJob],
    direct: &[RunReport],
    target: &'static TargetSpec,
) -> Result<(u64, f64), String> {
    let (mut instructions, mut seconds) = (0u64, 0f64);
    for (j, job) in jobs.iter().enumerate().take(CODE_JOBS) {
        let t = Instant::now();
        let rep = run_job(job, target, Backend::Code);
        seconds += t.elapsed().as_secs_f64();
        instructions += rep.counts.total();
        if !same_report(&direct[j], &rep) {
            return Err(format!("job {j}: Code backend report differs from Direct"));
        }
    }
    Ok((instructions, seconds))
}

/// Outcome counts and host figures of the fault phase.
#[derive(Debug, Default, Clone)]
pub struct FaultPhase {
    /// Of the first [`FAULT_CASES`] replays: aborted with an executor
    /// error.
    pub aborted: u64,
    /// Of the first [`FAULT_CASES`] replays: completed with the
    /// fault-free result.
    pub benign: u64,
    /// Of the first [`FAULT_CASES`] replays: completed with a wrong
    /// result.
    pub altered: u64,
    /// Replays run (including those past the first cases).
    pub replays: u64,
    /// Every replay's time, ms on the reference-speed clock.
    pub latency_ms: Vec<f64>,
    /// Instructions retired by completed replays.
    pub instructions: u64,
    /// Host seconds over all replays.
    pub seconds: f64,
    /// The same on the reference-speed clock (see [`crate::calib`]).
    pub reference_seconds: f64,
}

/// Fault replays between two calibration loops.
const CALIB_EVERY: usize = 25;

impl FaultPhase {
    /// The time of each complete round of [`FAULT_ROTATION`] (one
    /// faulted replay of each field kernel, the multiply twice), ms on
    /// the reference-speed clock. The single multiply replays (about
    /// 35 µs) sped up by 45% when the host's sibling threads went idle,
    /// against 34% for the replays at large, so a median over single
    /// replays moved by 30% with the host; a round is dominated by the
    /// inversion, as the replay rate is.
    pub fn round_latencies_ms(&self) -> Vec<f64> {
        self.latency_ms
            .chunks_exact(FAULT_ROTATION.len())
            .map(|round| round.iter().sum())
            .collect()
    }
}

/// The order the fault phase cycles through the four kernels, the
/// multiply twice; the latency metrics time one whole round.
const FAULT_ROTATION: [usize; 5] = [0, 1, 0, 2, 3];

/// Replays seeded faults over `kernels` (as [`capture_kernels`] lays
/// them out) in [`FAULT_ROTATION`] order, one operand set after
/// another: the first [`FAULT_CASES`] always, then more until
/// `budget_s` is spent.
pub fn fault_phase(
    kernels: &[FaultKernel],
    seed: u64,
    budget_s: f64,
    mut spans: Option<&mut SpanLog>,
) -> FaultPhase {
    let mut out = FaultPhase::default();
    let mut calib_ns = Vec::new();
    let mut i = 0usize;
    while i < FAULT_CASES || out.seconds < budget_s {
        if i.is_multiple_of(CALIB_EVERY) {
            calib_ns.push(crate::calib::sample_comb());
        }
        let set = (i / FAULT_ROTATION.len()) % (kernels.len() / FieldOp::ALL.len());
        let k = &kernels[set * FieldOp::ALL.len() + FAULT_ROTATION[i % FAULT_ROTATION.len()]];
        let mut rng = SplitMix64::substream(seed, DOMAIN_FAULTS, i as u64);
        let plan = FaultPlan::sample(&mut rng, k.kernel.trace_len(), &k.regions);
        let t = Instant::now();
        let run = match spans.as_deref_mut() {
            None => k.kernel.replay(Some(&plan)),
            Some(log) => log.time("m0plus.fault.replay", (NO_REQUEST, i as u64), || {
                k.kernel.replay(Some(&plan))
            }),
        };
        let dt = t.elapsed().as_secs_f64();
        out.seconds += dt;
        out.latency_ms.push(dt * 1e3);
        out.replays += 1;
        if let Ok(stats) = &run.stats {
            out.instructions += stats.instructions;
        }
        if i < FAULT_CASES {
            if run.aborted() {
                out.aborted += 1;
            } else if load_fe(&run.machine, k.z) == k.expected {
                out.benign += 1;
            } else {
                out.altered += 1;
            }
        }
        i += 1;
    }
    let scales = crate::calib::smoothed_scales(&calib_ns, crate::calib::SMOOTHING_RADIUS);
    for (i, ms) in out.latency_ms.iter_mut().enumerate() {
        *ms *= scales[i / CALIB_EVERY];
    }
    out.reference_seconds = out.latency_ms.iter().sum::<f64>() / 1e3;
    out
}

/// The traced run's m0plus layer probe. First one kG on the `Code`
/// backend from a cold predecode cache (the whole record → assemble →
/// replay pipeline on every field-kernel call of a real point
/// multiplication). Then, for each of the four seeded kernels, one span
/// per step: record, translate, predecode and replay, followed by eight
/// replays under sampled faults. The kernel suite repeats until
/// `budget_s` is spent (at least once).
pub struct KernelProbe {
    /// Complete kernel suites run.
    pub suites: u64,
    /// Instructions retired by the plain replays.
    pub replay_instructions: u64,
    /// Instructions retired by the Code-backend kG.
    pub code_instructions: u64,
    /// Host seconds of the Code-backend kG.
    pub code_seconds: f64,
    /// Predecode cache (hits, misses) over the Code-backend kG.
    pub predecode: (u64, u64),
    /// Instructions retired by completed fault replays.
    pub fault_instructions: u64,
    /// Host seconds of the fault replays.
    pub fault_seconds: f64,
}

/// Runs the probe. See [`KernelProbe`].
pub fn kernel_probe(
    spans: &mut SpanLog,
    seed: u64,
    kg: &PmJob,
    target: &'static TargetSpec,
    budget_s: f64,
) -> Result<KernelProbe, String> {
    exec::predecode_cache_reset();
    let t = Instant::now();
    let code = spans.time("m0plus.backend.code_kg", (NO_REQUEST, 0), || {
        run_job(kg, target, Backend::Code)
    });
    let code_seconds = t.elapsed().as_secs_f64();
    let direct = run_job(kg, target, Backend::Direct);
    if !same_report(&code, &direct) {
        return Err("probe kG: Code backend report differs from Direct".into());
    }
    let mut p = KernelProbe {
        suites: 0,
        replay_instructions: 0,
        code_instructions: code.counts.total(),
        code_seconds,
        predecode: exec::predecode_cache_stats(),
        fault_instructions: 0,
        fault_seconds: 0.0,
    };
    let started = Instant::now();
    while p.suites == 0 || started.elapsed().as_secs_f64() < budget_s {
        let suite = (NO_REQUEST, p.suites);
        spans.calibrate();
        for (i, &op) in FieldOp::ALL.iter().enumerate() {
            let c = spans.time("m0plus.backend.record", suite, || {
                record(op, seed, i as u64, target)
            });
            let program = spans
                .time("m0plus.backend.translate", suite, || {
                    m0plus::backend::translate(&c.recording)
                })
                .map_err(|e| e.to_string())?;
            let table = *c.pre.model().cycle_table();
            spans.time("m0plus.exec.predecode", suite, || {
                Predecoded::for_cycles(&program, &table)
            });
            let mut m = c.pre.clone();
            let steps = &c.recording.steps;
            let writes = &c.recording.reg_writes;
            let mut cursor = 0usize;
            let stats = spans
                .time("m0plus.exec.replay", suite, || {
                    exec::execute_fragment(&mut m, &program, steps.len() as u64 + 1, |mm, idx| {
                        while cursor < writes.len() && writes[cursor].at <= idx {
                            mm.set_reg(writes[cursor].reg, writes[cursor].value);
                            cursor += 1;
                        }
                        mm.set_category_override(Some(steps[idx].category));
                    })
                })
                .map_err(|e| format!("probe replay of {op:?} failed: {e}"))?;
            if load_fe(&m, c.z) != c.expected {
                return Err(format!(
                    "probe replay of {op:?} computed a different result"
                ));
            }
            p.replay_instructions += stats.instructions;

            let kernel = RecordedKernel::new(c.pre, program, c.recording);
            for r in 0..8u64 {
                let case = (p.suites << 8) | ((i as u64) << 4) | r;
                let mut rng = SplitMix64::substream(seed, DOMAIN_FAULTS ^ 1, case);
                let plan = FaultPlan::sample(&mut rng, kernel.trace_len(), &c.regions);
                let t = Instant::now();
                let run = spans.time("m0plus.fault.replay", suite, || kernel.replay(Some(&plan)));
                p.fault_seconds += t.elapsed().as_secs_f64();
                if let Ok(s) = run.stats {
                    p.fault_instructions += s.instructions;
                }
            }
        }
        p.suites += 1;
    }
    Ok(p)
}
