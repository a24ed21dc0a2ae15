//! Deterministic fault injection on recorded kernel executions.
//!
//! The recorded-program backend already turns every modeled kernel into
//! a concrete Thumb-16 instruction stream ([`Recording`] → `Program`).
//! This module perturbs a *replay* of that stream at a chosen
//! instruction index with one of the three classic glitch models —
//! instruction skip, single-bit register flip, single-bit memory flip —
//! and runs the faulted execution to completion, or to a clean
//! [`ExecError`] abort, on a clone of the pre-kernel machine state.
//!
//! Everything is deterministic: a [`FaultPlan`] fully describes one
//! fault, and [`FaultPlan::sample`] draws plans from the in-tree
//! [`prng::SplitMix64`], so a campaign with a fixed seed replays
//! byte-for-byte on every platform.

use crate::asm::Program;
use crate::backend;
use crate::exec::{self, Entry, ExecError, ExecStats, Predecoded, StepAction};
use crate::machine::{Machine, Recording, Reg};
use prng::SplitMix64;
use std::ops::Range;
use std::sync::Arc;

/// The three single-fault glitch models of the campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The targeted instruction is fetched but never retires (the
    /// effect of a clock or voltage glitch on the 2-stage pipeline).
    SkipInstruction,
    /// One bit of a general-purpose register is flipped just before the
    /// targeted instruction executes.
    RegisterBitFlip {
        /// The register hit by the upset.
        reg: Reg,
        /// Bit position, `0..32`.
        bit: u32,
    },
    /// One bit of a RAM word is flipped just before the targeted
    /// instruction executes.
    MemoryBitFlip {
        /// The word address hit by the upset.
        word: u32,
        /// Bit position, `0..32`.
        bit: u32,
    },
}

impl FaultKind {
    /// Short label for campaign tables and logs.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::SkipInstruction => "skip",
            FaultKind::RegisterBitFlip { .. } => "reg-flip",
            FaultKind::MemoryBitFlip { .. } => "mem-flip",
        }
    }
}

/// One deterministic perturbation: apply `kind` when the instruction at
/// trace index `at` is about to retire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Index into the recorded instruction stream.
    pub at: u64,
    /// What happens there.
    pub kind: FaultKind,
}

impl FaultPlan {
    /// Draws a uniformly random plan for a trace of `trace_len`
    /// instructions. Memory upsets target a word drawn from
    /// `mem_regions` (half-open word ranges — typically the machine's
    /// allocated RAM minus any range modeling flash ROM); when no
    /// region is given only skips and register flips are drawn.
    ///
    /// # Panics
    ///
    /// Panics if `trace_len` is zero.
    pub fn sample(rng: &mut SplitMix64, trace_len: u64, mem_regions: &[Range<u32>]) -> FaultPlan {
        assert!(trace_len > 0, "cannot fault an empty trace");
        let at = rng.below(trace_len);
        let mem_words: u64 = mem_regions.iter().map(|r| (r.end - r.start) as u64).sum();
        let kinds = if mem_words == 0 { 2 } else { 3 };
        let kind = match rng.below(kinds) {
            0 => FaultKind::SkipInstruction,
            1 => FaultKind::RegisterBitFlip {
                reg: Reg::GENERAL[rng.below(Reg::GENERAL.len() as u64) as usize],
                bit: rng.below(32) as u32,
            },
            _ => {
                let mut pick = rng.below(mem_words);
                let mut word = 0;
                for r in mem_regions {
                    let len = (r.end - r.start) as u64;
                    if pick < len {
                        word = r.start + pick as u32;
                        break;
                    }
                    pick -= len;
                }
                FaultKind::MemoryBitFlip {
                    word,
                    bit: rng.below(32) as u32,
                }
            }
        };
        FaultPlan { at, kind }
    }
}

/// Outcome of one (possibly faulted) replay.
#[derive(Debug)]
pub struct FaultedRun {
    /// The machine after the replay (at the abort point on error).
    pub machine: Machine,
    /// Replay statistics, or the abort reason.
    pub stats: Result<ExecStats, ExecError>,
}

impl FaultedRun {
    /// Whether the replay aborted with an executor error (the machine's
    /// HardFault-equivalent — a *detected* fault for free).
    pub fn aborted(&self) -> bool {
        self.stats.is_err()
    }
}

/// The per-step replay contract, factored out of the executors: reapply
/// the recording's positioned un-costed register writes, force the
/// recorded per-step category, inject the fault at its trace index.
///
/// All of that work is *sparse* — writes sit at a handful of indices,
/// categories run in long stretches, the fault hits one index — so the
/// hook can also report ([`ReplayHook::next_break`]) the next index at
/// which it has anything to do, which is what lets the campaign path
/// run hook-free between boundaries via
/// [`exec::execute_fragment_ctl_scheduled`].
struct ReplayHook<'a> {
    steps: &'a [crate::machine::RecordedStep],
    writes: &'a [crate::machine::RecordedSetReg],
    cursor: usize,
    fault: Option<FaultPlan>,
}

impl<'a> ReplayHook<'a> {
    fn new(recording: &'a Recording, fault: Option<&FaultPlan>) -> ReplayHook<'a> {
        ReplayHook {
            steps: &recording.steps,
            writes: &recording.reg_writes,
            cursor: 0,
            fault: fault.copied(),
        }
    }

    /// The per-step work at retired-instruction index `idx`.
    fn at(&mut self, mm: &mut Machine, idx: usize) -> StepAction {
        while self.cursor < self.writes.len() && self.writes[self.cursor].at <= idx {
            let w = &self.writes[self.cursor];
            mm.set_reg(w.reg, w.value);
            self.cursor += 1;
        }
        if idx < self.steps.len() {
            mm.set_category_override(Some(self.steps[idx].category));
        }
        if let Some(f) = self.fault {
            if f.at == idx as u64 {
                match f.kind {
                    FaultKind::SkipInstruction => return StepAction::Skip,
                    FaultKind::RegisterBitFlip { reg, bit } => mm.flip_reg_bit(reg, bit),
                    FaultKind::MemoryBitFlip { word, bit } => {
                        mm.flip_mem_bit(word, bit);
                    }
                }
            }
        }
        StepAction::Execute
    }

    /// The next index after `idx` at which [`ReplayHook::at`] would do
    /// anything: a pending write, a category-run boundary, or the fault.
    /// Walking the category run here costs one pass over the recording
    /// in total, not one load per retired instruction.
    fn next_break(&self, idx: usize) -> u64 {
        let mut next = u64::MAX;
        if self.cursor < self.writes.len() {
            next = next.min(self.writes[self.cursor].at as u64);
        }
        if idx < self.steps.len() {
            let cat = self.steps[idx].category;
            let mut j = idx + 1;
            while j < self.steps.len() && self.steps[j].category == cat {
                j += 1;
            }
            if j < self.steps.len() {
                next = next.min(j as u64);
            }
        }
        if let Some(f) = self.fault {
            if f.at > idx as u64 {
                next = next.min(f.at);
            }
        }
        next
    }
}

/// Flushes trailing register writes (those recorded after the last
/// costed instruction), restores the saved category override and
/// packages the run.
fn seal_replay(
    mut m: Machine,
    hook: ReplayHook<'_>,
    saved_override: Option<crate::profile::Category>,
    stats: Result<ExecStats, ExecError>,
) -> FaultedRun {
    if stats.is_ok() {
        for w in &hook.writes[hook.cursor..] {
            m.set_reg(w.reg, w.value);
        }
    }
    m.set_category_override(saved_override);
    FaultedRun { machine: m, stats }
}

/// Replays `program` on a clone of `pre` — the machine state captured
/// just before the kernel ran — reapplying the recording's positioned
/// un-costed register writes and per-step category attribution exactly
/// as the code backend's verified replay does, but *without* the
/// shadow-state equality assertion (a faulted replay diverges by
/// design) and with `fault`, if any, injected at its trace index.
///
/// Predecodes through the process-wide cache and runs
/// [`replay_predecoded`].
pub fn replay(
    pre: &Machine,
    program: &Program,
    recording: &Recording,
    fault: Option<&FaultPlan>,
) -> FaultedRun {
    let predecoded = exec::predecode_with(program, pre.model().cycle_table());
    replay_predecoded(pre, &predecoded, recording, fault)
}

/// [`replay`] on the decode-per-step oracle ([`exec::execute_reference`])
/// with the hook called at every instruction: the reference the
/// predecoded replay is checked against, and the baseline arm of the
/// throughput A/B. No campaign runs it.
pub fn replay_reference(
    pre: &Machine,
    program: &Program,
    recording: &Recording,
    fault: Option<&FaultPlan>,
) -> FaultedRun {
    let mut m = pre.clone();
    let saved_override = m.category_override();
    let mut hook = ReplayHook::new(recording, fault);
    // The hook is deliberately kept behind dynamic dispatch here: this
    // arm reproduces the original campaign engine (per-step decode, a
    // `&mut dyn FnMut` hook called at every instruction), so the
    // throughput A/B measures the real before/after of the predecoded
    // scheduled path rather than a partially-optimised strawman.
    let stats = {
        let mut per_step = |mm: &mut Machine, idx: usize| hook.at(mm, idx);
        let ctl: &mut dyn FnMut(&mut Machine, usize) -> StepAction = &mut per_step;
        exec::execute_reference(
            &mut m,
            program,
            Entry::Fragment,
            recording.steps.len() as u64 + 1,
            ctl,
        )
    };
    seal_replay(m, hook, saved_override, stats)
}

/// [`replay`] over an already-predecoded fragment: the campaign path.
/// Holding the [`Predecoded`] means replaying a kernel millions of
/// times pays neither per-step decode nor per-replay hashing, and the
/// scheduled hook means the boundary work (register writes, category
/// runs, the fault) is paid per *boundary*, not per instruction.
pub fn replay_predecoded(
    pre: &Machine,
    predecoded: &Predecoded,
    recording: &Recording,
    fault: Option<&FaultPlan>,
) -> FaultedRun {
    let mut m = pre.clone();
    let saved_override = m.category_override();
    let mut hook = ReplayHook::new(recording, fault);
    let stats = exec::execute_fragment_ctl_scheduled(
        &mut m,
        predecoded,
        recording.steps.len() as u64 + 1,
        |mm, idx| {
            let action = hook.at(mm, idx);
            (action, hook.next_break(idx))
        },
    );
    seal_replay(m, hook, saved_override, stats)
}

/// Everything needed to replay one kernel under fault injection: the
/// pre-run machine state, the assembled Thumb-16 fragment and the
/// captured trace.
#[derive(Debug, Clone)]
pub struct RecordedKernel {
    /// Machine state immediately before the kernel ran.
    pub pre: Machine,
    /// The assembled Thumb-16 fragment.
    pub program: Program,
    /// The captured trace (categories + positioned register writes).
    pub recording: Recording,
    /// The fragment decoded once, shared by every replay.
    predecoded: Arc<Predecoded>,
}

impl RecordedKernel {
    /// Bundles a captured kernel, predecoding the fragment once (via
    /// the process-wide cache) so every subsequent replay skips both
    /// decode and hashing.
    pub fn new(pre: Machine, program: Program, recording: Recording) -> RecordedKernel {
        let predecoded = exec::predecode_with(&program, pre.model().cycle_table());
        RecordedKernel {
            pre,
            program,
            recording,
            predecoded,
        }
    }

    /// Records `f` running on a clone of `machine` and assembles the
    /// trace, returning the capture alongside `f`'s output.
    ///
    /// # Panics
    ///
    /// Panics if the trace does not assemble (cannot happen for traces
    /// produced by [`Machine::start_recording`]).
    pub fn capture<T>(machine: &Machine, f: impl FnOnce(&mut Machine) -> T) -> (RecordedKernel, T) {
        let pre = machine.clone();
        let mut rec = machine.clone();
        rec.start_recording();
        let out = f(&mut rec);
        let recording = rec.take_recording();
        let program = backend::translate(&recording).expect("recorded trace assembles");
        (RecordedKernel::new(pre, program, recording), out)
    }

    /// Replays the kernel, with an optional fault, through the stored
    /// predecoded fragment. See [`replay`].
    pub fn replay(&self, fault: Option<&FaultPlan>) -> FaultedRun {
        replay_predecoded(&self.pre, &self.predecoded, &self.recording, fault)
    }

    /// Number of instructions in the captured trace.
    pub fn trace_len(&self) -> u64 {
        self.recording.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Addr;

    /// A little two-operand kernel: out[i] = a[i] ^ b[i] for 4 words,
    /// with a data-dependent twist so skips and flips show up.
    fn xor_kernel(m: &mut Machine, a: Addr, b: Addr, out: Addr) {
        m.set_base(Reg::R0, a);
        m.set_base(Reg::R1, b);
        m.set_base(Reg::R2, out);
        for i in 0..4 {
            m.ldr(Reg::R3, Reg::R0, i);
            m.ldr(Reg::R4, Reg::R1, i);
            m.eors(Reg::R3, Reg::R4);
            m.str(Reg::R3, Reg::R2, i);
        }
    }

    fn setup() -> (Machine, Addr, Addr, Addr) {
        let mut m = Machine::new(64);
        let a = m.alloc(4);
        let b = m.alloc(4);
        let out = m.alloc(4);
        m.write_slice(a, &[0x11, 0x22, 0x33, 0x44]);
        m.write_slice(b, &[0xA0, 0xB0, 0xC0, 0xD0]);
        (m, a, b, out)
    }

    #[test]
    fn clean_replay_matches_direct_execution() {
        let (mut direct, a, b, out) = setup();
        let (kernel, ()) = RecordedKernel::capture(&direct, |m| xor_kernel(m, a, b, out));
        xor_kernel(&mut direct, a, b, out);

        let run = kernel.replay(None);
        assert!(!run.aborted());
        assert_eq!(
            run.machine.read_slice(out, 4),
            direct.read_slice(out, 4),
            "un-faulted replay reproduces the kernel result"
        );
        assert_eq!(run.machine.cycles(), direct.cycles());
        assert_eq!(run.stats.unwrap().instructions, kernel.trace_len());
    }

    #[test]
    fn skip_fault_changes_the_result_deterministically() {
        let (m, a, b, out) = setup();
        let (kernel, ()) = RecordedKernel::capture(&m, |m| xor_kernel(m, a, b, out));
        let clean = kernel.replay(None).machine.read_slice(out, 4);

        // Skipping the first str leaves out[0] unwritten.
        let plan = FaultPlan {
            at: 3,
            kind: FaultKind::SkipInstruction,
        };
        let r1 = kernel.replay(Some(&plan));
        let r2 = kernel.replay(Some(&plan));
        assert!(!r1.aborted());
        assert_eq!(
            r1.machine.read_slice(out, 4),
            r2.machine.read_slice(out, 4),
            "faulted replay is deterministic"
        );
        assert_ne!(r1.machine.read_slice(out, 4), clean);
        // A skipped instruction charges nothing.
        assert!(r1.machine.cycles() < kernel.replay(None).machine.cycles());
    }

    #[test]
    fn register_flip_of_a_base_pointer_aborts_cleanly() {
        let (m, a, b, out) = setup();
        let (kernel, ()) = RecordedKernel::capture(&m, |m| xor_kernel(m, a, b, out));
        // Flip the top bit of the source base register right before the
        // first load: the effective address leaves RAM and the replay
        // must abort with MemOutOfRange instead of panicking.
        let plan = FaultPlan {
            at: 0,
            kind: FaultKind::RegisterBitFlip {
                reg: Reg::R0,
                bit: 31,
            },
        };
        let run = kernel.replay(Some(&plan));
        assert!(run.aborted());
        assert!(matches!(run.stats, Err(ExecError::MemOutOfRange { .. })));
    }

    #[test]
    fn memory_flip_corrupts_exactly_one_bit() {
        let (m, a, b, out) = setup();
        let (kernel, ()) = RecordedKernel::capture(&m, |m| xor_kernel(m, a, b, out));
        let clean = kernel.replay(None).machine.read_slice(out, 4);
        // Flip bit 2 of a[2] before anything reads it.
        let plan = FaultPlan {
            at: 0,
            kind: FaultKind::MemoryBitFlip {
                word: a.0 + 2,
                bit: 2,
            },
        };
        let run = kernel.replay(Some(&plan));
        assert!(!run.aborted());
        let faulted = run.machine.read_slice(out, 4);
        assert_eq!(faulted[0], clean[0]);
        assert_eq!(faulted[2], clean[2] ^ 4);
    }

    #[test]
    fn predecoded_replay_matches_the_reference_under_faults() {
        let (m, a, b, out) = setup();
        let (kernel, ()) = RecordedKernel::capture(&m, |m| xor_kernel(m, a, b, out));
        let mut rng = SplitMix64::new(17);
        let regions = [a.0..a.0 + 4, b.0..b.0 + 4, out.0..out.0 + 4];
        let mut plans: Vec<Option<FaultPlan>> = vec![None];
        plans.extend(
            (0..40).map(|_| Some(FaultPlan::sample(&mut rng, kernel.trace_len(), &regions))),
        );
        for plan in &plans {
            let fast = kernel.replay(plan.as_ref());
            let slow = replay_reference(
                &kernel.pre,
                &kernel.program,
                &kernel.recording,
                plan.as_ref(),
            );
            assert_eq!(fast.stats, slow.stats, "{plan:?}");
            fast.machine
                .assert_same_state(&slow.machine, &format!("{plan:?}"));
        }
    }

    #[test]
    fn sampling_is_deterministic_and_respects_regions() {
        let regions = [2u32..6, 10..11];
        let mut g1 = SplitMix64::new(99);
        let mut g2 = SplitMix64::new(99);
        for _ in 0..200 {
            let p1 = FaultPlan::sample(&mut g1, 40, &regions);
            let p2 = FaultPlan::sample(&mut g2, 40, &regions);
            assert_eq!(p1, p2);
            assert!(p1.at < 40);
            if let FaultKind::MemoryBitFlip { word, bit } = p1.kind {
                assert!((2..6).contains(&word) || word == 10);
                assert!(bit < 32);
            }
        }
        // Without regions, memory flips are never drawn.
        let mut g = SplitMix64::new(1);
        for _ in 0..100 {
            let p = FaultPlan::sample(&mut g, 8, &[]);
            assert!(!matches!(p.kind, FaultKind::MemoryBitFlip { .. }));
        }
    }

    #[test]
    fn all_three_kinds_are_eventually_sampled() {
        let mut g = SplitMix64::new(5);
        let regions = vec![0..16, 24..32];
        let (mut skips, mut regs, mut mems) = (0, 0, 0);
        for _ in 0..300 {
            match FaultPlan::sample(&mut g, 100, &regions).kind {
                FaultKind::SkipInstruction => skips += 1,
                FaultKind::RegisterBitFlip { .. } => regs += 1,
                FaultKind::MemoryBitFlip { .. } => mems += 1,
            }
        }
        assert!(skips > 0 && regs > 0 && mems > 0);
    }
}
