//! The machine-code executor: runs an assembled [`Program`] on the
//! [`Machine`], fetching, decoding and dispatching real Thumb halfwords
//! with the same per-instruction cost accounting as direct method
//! calls.
//!
//! Supported control flow: conditional/unconditional branches, `BL`
//! subroutine calls (a host-side return stack models `LR`), and `BX lr`
//! which returns — or, at the outermost level, ends execution.
//!
//! There is one production engine: programs are predecoded once
//! ([`Predecoded`], cached process-wide) and run as superblocks
//! whenever the control hook is dormant. Label programs ([`execute`])
//! and fragments ([`execute_fragment`] and its variants) differ only
//! in their [`Entry`]. The decode-per-step [`execute_reference`] loop
//! is kept as the oracle the engine is tested against.

use crate::asm::{decode_bl, Program};
use crate::isa::Instr;
use crate::machine::{Machine, MicroOp};
use std::sync::{Arc, Mutex, OnceLock};

/// Execution errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The program counter left the code image.
    PcOutOfRange(usize),
    /// An undecodable halfword was fetched.
    InvalidInstruction { pc: usize, halfword: u16 },
    /// The step budget was exhausted (runaway loop guard).
    StepLimit,
    /// A literal load referenced a missing pool slot.
    BadLiteral { pc: usize, slot: usize },
    /// A load/store computed an effective address outside RAM (the
    /// HardFault of the model — reachable when a fault corrupts a base
    /// register, so it aborts the run instead of panicking the host).
    MemOutOfRange { pc: usize, addr: u64 },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::PcOutOfRange(pc) => write!(f, "pc {pc} outside the code image"),
            ExecError::InvalidInstruction { pc, halfword } => {
                write!(f, "invalid instruction {halfword:04x} at {pc}")
            }
            ExecError::StepLimit => f.write_str("step limit exhausted"),
            ExecError::BadLiteral { pc, slot } => {
                write!(f, "literal slot {slot} missing at {pc}")
            }
            ExecError::MemOutOfRange { pc, addr } => {
                write!(f, "memory access to word {addr} outside RAM at {pc}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// What the control hook of [`execute_fragment_ctl`] decided for the
/// instruction about to retire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepAction {
    /// Execute normally.
    Execute,
    /// Glitch the instruction away: it is fetched but never retires —
    /// nothing is charged and control falls through, even for branches.
    Skip,
}

/// Statistics of one program run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecStats {
    /// Instructions retired.
    pub instructions: u64,
    /// Cycles charged (from the machine's counter delta).
    pub cycles: u64,
}

/// How a run is entered, which also fixes how it may end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// A linearised code fragment: execution starts at the first
    /// halfword and completes when the program counter reaches the end
    /// of the image (recorded kernel traces carry no outermost `BX lr`).
    Fragment,
    /// A label program entered at this halfword position: only the
    /// outermost `BX lr` completes it, and reaching the end of the image
    /// is [`ExecError::PcOutOfRange`].
    Label(usize),
}

impl Entry {
    /// The entry of `program`'s label `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a label of the program.
    pub fn label(program: &Program, name: &str) -> Entry {
        Entry::Label(
            *program
                .labels
                .get(name)
                .unwrap_or_else(|| panic!("entry label {name:?} not found")),
        )
    }

    fn start(self) -> usize {
        match self {
            Entry::Fragment => 0,
            Entry::Label(pc) => pc,
        }
    }

    /// The verdict on a run whose program counter left the loop at
    /// `pc >= len` without an outermost return: the normal exit of a
    /// fragment that lands exactly on the end, an error otherwise. A
    /// label program checks its step budget before the pc, so a spent
    /// budget reports [`ExecError::StepLimit`] first.
    fn ran_off_the_end(
        self,
        pc: usize,
        len: usize,
        steps: u64,
        max_steps: u64,
    ) -> Result<(), ExecError> {
        match self {
            Entry::Fragment if pc == len => Ok(()),
            Entry::Label(_) if steps >= max_steps => Err(ExecError::StepLimit),
            _ => Err(ExecError::PcOutOfRange(pc)),
        }
    }
}

/// A predecoded instruction position: the decoded [`Instr`] plus every
/// pc-relative quantity (branch targets, the BL return address)
/// resolved once at predecode time instead of on every retire. Kept
/// flat — one `Instr` match dispatches the whole step in the hot loop,
/// with no second decode-shaped match behind it.
#[derive(Debug, Clone, Copy)]
struct PreStep {
    /// The decoded instruction (a placeholder `Nop` when `invalid`).
    instr: Instr,
    /// The branch target for `BCond`/`B`/`Bl`; the raw halfword for
    /// invalid positions; unused (zero) otherwise.
    aux: usize,
    /// pc + width: the fall-through / skip successor (also the BL
    /// return address, which is exactly pc + 2).
    next: usize,
    /// The halfword does not decode (including the second halfword of a
    /// BL, which is never a legal entry point); reaching it reproduces
    /// [`ExecError::InvalidInstruction`].
    invalid: bool,
}

impl PreStep {
    /// Decodes the halfword at `pc` of `code`, resolving its
    /// pc-relative quantities.
    fn decode(code: &[u16], pc: usize) -> PreStep {
        let window = &code[pc..(pc + 2).min(code.len())];
        let Some((instr, width)) = Instr::decode(window) else {
            return PreStep {
                instr: Instr::Nop,
                aux: code[pc] as usize,
                next: pc + 1,
                invalid: true,
            };
        };
        let hw = code[pc];
        let aux = match instr {
            Instr::BCond { .. } => (pc as i64 + 2 + (hw & 0xFF) as i8 as i64) as usize,
            // Sign-extend the 11-bit offset.
            Instr::B => (pc as i64 + 2 + (((hw & 0x7FF) as i16) << 5 >> 5) as i64) as usize,
            Instr::Bl => (pc as i64 + 2 + decode_bl(code[pc], code[pc + 1]) as i64) as usize,
            _ => 0,
        };
        PreStep {
            instr,
            aux,
            next: pc + width,
            invalid: false,
        }
    }
}

/// A program decoded once, ready for repeated execution. Holds copies
/// of the code image and literal pool, so running a fragment needs no
/// `Program` — and so the cache can verify a hash hit byte-for-byte.
///
/// Besides a flat per-position step table, predecoding partitions the
/// image into *superblocks*: maximal straight-line runs of positions
/// that lower to a runnable micro-op (no control flow, no invalid
/// halfword, no unresolvable pool slot). `run_end[pc]` is the exclusive
/// end of the run starting at `pc` (== `pc` when the position is not
/// runnable), so entering a run at *any* position — e.g. via a branch
/// into the middle of a block — yields the correct remainder with no
/// special casing.
///
/// The modeled cycle and energy accounting is **identical** to
/// decode-per-step execution ([`execute_reference`]): predecoding
/// changes when instructions are decoded, never what they charge.
#[derive(Debug)]
pub struct Predecoded {
    steps: Vec<PreStep>,
    ops: Vec<MicroOp>,
    run_end: Vec<u32>,
    code: Vec<u16>,
    pool: Vec<u32>,
    /// The per-class cycle table the superblock `MicroOp` costs were
    /// materialised from. The step table is target-independent (pure
    /// decode), but `ops` bakes per-op cycle counts, so a predecoded
    /// fragment is only valid for machines whose model carries this
    /// exact table.
    cycles: crate::target::CycleTable,
}

impl Predecoded {
    /// Decodes every halfword position of `program` up front (bypassing
    /// the process-wide cache — see [`predecode_with`]). The superblock
    /// micro-ops' precomputed cycle costs are materialised from
    /// `cycle_table`, so the fragment replays correctly on a machine
    /// built for the corresponding target.
    pub fn for_cycles(program: &Program, cycle_table: &crate::target::CycleTable) -> Predecoded {
        let code = program.code.clone();
        let pool = program.pool.clone();
        let steps: Vec<PreStep> = (0..code.len())
            .map(|pc| PreStep::decode(&code, pc))
            .collect();
        let (ops, run_end) = compile_superblocks(&steps, &pool, cycle_table);
        Predecoded {
            steps,
            ops,
            run_end,
            code,
            pool,
            cycles: *cycle_table,
        }
    }

    /// Exact (not just hash) equality with a program's code and pool
    /// under a given cycle table.
    fn matches(&self, program: &Program, cycle_table: &crate::target::CycleTable) -> bool {
        self.cycles == *cycle_table && self.code == program.code && self.pool == program.pool
    }

    /// Number of halfword positions.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the code image is empty.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

/// Builds the superblock tables for a predecoded step table: the
/// per-position [`MicroOp`] (registers resolved to indices, pool slots
/// to constants, shift immediates normalised, cost precomputed — see
/// [`MicroOp::lower`]) and `run_end`, the exclusive end of the maximal
/// straight-line runnable run starting at each position (== the
/// position itself when it is not runnable). All runnable positions
/// are one halfword wide, so a run's successor chain is simply
/// `pc + 1`.
///
/// Branches whose target is their own fall-through position
/// (`aux == next`) are folded into blocks: the backend linearises
/// recorded traces so every `B`/`BCond` jumps to the label that
/// immediately follows it, making them pure charge-and-continue
/// operations. `Bl` and `Bx` always end a block — they push/pop the
/// executor's call stack (and an empty-stack `Bx` terminates the run),
/// which only the per-step loop models.
fn compile_superblocks(
    steps: &[PreStep],
    pool: &[u32],
    cycle_table: &crate::target::CycleTable,
) -> (Vec<MicroOp>, Vec<u32>) {
    let ops: Vec<MicroOp> = steps
        .iter()
        .map(|s| {
            if s.invalid {
                MicroOp::BLOCKED
            } else {
                match s.instr {
                    Instr::B if s.aux == s.next => MicroOp::branch_fall(cycle_table),
                    Instr::BCond { cond } if s.aux == s.next => MicroOp::bcond_fall(cond),
                    instr => MicroOp::lower(instr, pool, cycle_table),
                }
            }
        })
        .collect();
    let mut run_end = vec![0u32; steps.len()];
    for pc in (0..steps.len()).rev() {
        run_end[pc] = if !ops[pc].runnable() {
            pc as u32
        } else if pc + 1 < steps.len() {
            // run_end[pc + 1] is pc + 1 itself when that position is
            // not runnable, which closes this run correctly.
            run_end[pc + 1].max(pc as u32 + 1)
        } else {
            pc as u32 + 1
        };
    }
    (ops, run_end)
}

/// FNV-1a over the code image, literal pool and cycle table (lengths
/// included, so the section boundaries are unambiguous). The cycle
/// table is part of the key because the cached superblock micro-ops
/// bake per-target cycle costs.
fn program_hash(program: &Program, cycle_table: &crate::target::CycleTable) -> u64 {
    const PRIME: u64 = 0x100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(PRIME);
    };
    eat(program.code.len() as u64);
    for &hw in &program.code {
        eat(hw as u64);
    }
    eat(program.pool.len() as u64);
    for &w in &program.pool {
        eat(w as u64);
    }
    for &c in cycle_table {
        eat(c);
    }
    h
}

/// Bound on cached predecoded fragments. The campaigns cycle through a
/// few dozen kernels; at ~16 bytes per halfword position the cache
/// stays in the low megabytes even when full.
const PREDECODE_CACHE_CAPACITY: usize = 64;

struct PredecodeEntry {
    hash: u64,
    pre: Arc<Predecoded>,
    stamp: u64,
}

#[derive(Default)]
struct PredecodeCache {
    entries: Vec<PredecodeEntry>,
    clock: u64,
    hits: u64,
    misses: u64,
}

fn predecode_cache() -> &'static Mutex<PredecodeCache> {
    static CACHE: OnceLock<Mutex<PredecodeCache>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(PredecodeCache::default()))
}

/// Returns the predecoded form of `program` for `cycle_table` from the
/// process-wide fragment cache, decoding on first sight. Entries are
/// keyed by an FNV-1a hash of code + pool + cycle table and verified
/// byte-for-byte on a hit (a mutated fragment — e.g. a
/// differently-recorded kernel that collides — predecodes fresh; stale
/// results are impossible), so fragments predecoded for different
/// targets coexist without contaminating each other's precomputed
/// costs.
pub fn predecode_with(
    program: &Program,
    cycle_table: &crate::target::CycleTable,
) -> Arc<Predecoded> {
    let hash = program_hash(program, cycle_table);
    {
        let mut c = predecode_cache().lock().unwrap();
        c.clock += 1;
        let clock = c.clock;
        if let Some(e) = c
            .entries
            .iter_mut()
            .find(|e| e.hash == hash && e.pre.matches(program, cycle_table))
        {
            e.stamp = clock;
            let pre = Arc::clone(&e.pre);
            c.hits += 1;
            return pre;
        }
        c.misses += 1;
    }
    let pre = Arc::new(Predecoded::for_cycles(program, cycle_table));
    let mut c = predecode_cache().lock().unwrap();
    if c.entries.len() >= PREDECODE_CACHE_CAPACITY {
        if let Some(victim) = c
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.stamp)
            .map(|(i, _)| i)
        {
            c.entries.swap_remove(victim);
        }
    }
    let stamp = c.clock;
    c.entries.push(PredecodeEntry {
        hash,
        pre: Arc::clone(&pre),
        stamp,
    });
    pre
}

/// (hits, misses) of the predecode fragment cache.
pub fn predecode_cache_stats() -> (u64, u64) {
    let c = predecode_cache().lock().unwrap();
    (c.hits, c.misses)
}

/// Empties the predecode cache and zeroes its counters.
pub fn predecode_cache_reset() {
    let mut c = predecode_cache().lock().unwrap();
    c.entries.clear();
    c.clock = 0;
    c.hits = 0;
    c.misses = 0;
}

/// A scheduled hook that never asks to run again: the label-program
/// executor's control, under which whole superblocks engage.
fn dormant(_: &mut Machine, _: usize) -> (StepAction, u64) {
    (StepAction::Execute, u64::MAX)
}

/// Runs `program` on `machine` starting at `entry` (a label) until the
/// outermost `BX lr`, for at most `max_steps` instructions, on the
/// predecoded superblock engine.
///
/// # Errors
///
/// Propagates decode, literal, memory-range and runaway-loop failures,
/// and [`ExecError::PcOutOfRange`] when execution runs off the end of
/// the image; the machine state reflects everything executed up to the
/// error.
///
/// # Panics
///
/// Panics if `entry` is not a label of the program.
pub fn execute(
    machine: &mut Machine,
    program: &Program,
    entry: &str,
    max_steps: u64,
) -> Result<ExecStats, ExecError> {
    let entry = Entry::label(program, entry);
    let pre = predecode_with(program, machine.model().cycle_table());
    run_predecoded(machine, &pre, entry, max_steps, dormant)
}

/// Runs an assembled code *fragment* on `machine`, starting at the first
/// halfword and completing when the program counter reaches the end of
/// the code image (the normal exit for linearised kernel traces, which
/// carry no outermost `BX lr`).
///
/// `hook` is called with the machine and the index of the instruction
/// about to retire; the code backend uses it to reapply per-step
/// category attribution and positioned un-costed register writes.
///
/// # Errors
///
/// Propagates decode, literal and runaway-loop failures; the machine
/// state reflects everything executed up to the error.
pub fn execute_fragment(
    machine: &mut Machine,
    program: &Program,
    max_steps: u64,
    mut hook: impl FnMut(&mut Machine, usize),
) -> Result<ExecStats, ExecError> {
    execute_fragment_ctl(machine, program, max_steps, |m, idx| {
        hook(m, idx);
        StepAction::Execute
    })
}

/// Like [`execute_fragment`], but the hook *controls* each step: it can
/// order the instruction about to retire to be skipped (the fault
/// injector's instruction-skip model) or mutate machine state first
/// (its register/memory bit flips).
///
/// A skipped instruction still counts against `max_steps` and the
/// retired-instruction index — keeping hook indices aligned with a
/// recording — but charges nothing, and control falls through to the
/// next halfword even for branches.
///
/// The fragment is predecoded through the process-wide cache
/// ([`predecode_with`]) for the machine's cycle table.
///
/// # Errors
///
/// Propagates decode, literal, memory-range and runaway-loop failures;
/// the machine state reflects everything executed up to the error.
pub fn execute_fragment_ctl(
    machine: &mut Machine,
    program: &Program,
    max_steps: u64,
    mut ctl: impl FnMut(&mut Machine, usize) -> StepAction,
) -> Result<ExecStats, ExecError> {
    let pre = predecode_with(program, machine.model().cycle_table());
    // A hook that always re-schedules itself for the very next step is
    // exactly the per-step contract.
    execute_fragment_ctl_scheduled(machine, &pre, max_steps, |m, idx| (ctl(m, idx), 0))
}

/// [`execute_fragment_ctl`] over an already-predecoded fragment, with a
/// *scheduled* control hook: the hook returns, along with its
/// [`StepAction`], the next retired-instruction index at which it must
/// run again, and the executor does not call it in between. Replay
/// engines that run the same fragment millions of times (the fault and
/// verify campaigns) hold the [`Predecoded`] and call this directly, so
/// they pay neither decode nor hashing per replay, and the millions of
/// steps between boundaries — positioned register writes, category
/// *runs*, a single fault index — pay no hook call at all.
///
/// A returned index at or below the current one is treated as
/// "call me on the very next step"; `u64::MAX` means "never again".
/// Instructions retired while the hook is dormant behave exactly as if
/// the hook had returned [`StepAction::Execute`] at each of them.
///
/// While the hook is dormant (and no recording or trace capture is
/// armed), the executor runs whole predecoded *superblocks* — maximal
/// straight-line runs of non-control instructions — with one dispatch
/// per position and the category resolved once per block, truncating
/// each block at the next hook index and the step budget so hooks,
/// faults and the step limit land on exactly the per-step boundaries.
///
/// # Errors
///
/// Exactly those of [`execute_fragment_ctl`].
pub fn execute_fragment_ctl_scheduled(
    machine: &mut Machine,
    pre: &Predecoded,
    max_steps: u64,
    ctl: impl FnMut(&mut Machine, usize) -> (StepAction, u64),
) -> Result<ExecStats, ExecError> {
    run_predecoded(machine, pre, Entry::Fragment, max_steps, ctl)
}

/// The production engine behind every entry point above: predecoded
/// steps, superblocks while the scheduled hook is dormant, and the
/// entry kind's exit rule. Semantics, error taxonomy, cycle and energy
/// accounting are identical to [`execute_reference`]: literal-pool
/// lookups still happen at execution time (so `BadLiteral` fires at the
/// same step), invalid positions error before the hook runs, and a
/// skipped instruction still falls through by its encoded width.
fn run_predecoded(
    machine: &mut Machine,
    pre: &Predecoded,
    entry: Entry,
    max_steps: u64,
    mut ctl: impl FnMut(&mut Machine, usize) -> (StepAction, u64),
) -> Result<ExecStats, ExecError> {
    // The superblock micro-ops bake per-op cycle costs from one cycle
    // table; running them on a machine modelling a different target
    // would charge the wrong costs silently.
    debug_assert_eq!(
        &pre.cycles,
        machine.model().cycle_table(),
        "predecoded fragment built for a different target's cycle table"
    );
    let len = pre.steps.len();
    let mut pc = entry.start();
    let mut call_stack: Vec<usize> = Vec::new();
    let mut steps = 0u64;
    let mut next_ctl = 0u64;
    let start_cycles = machine.cycles();

    let returned = loop {
        if pc >= len {
            break false;
        }
        if steps >= max_steps {
            return Err(ExecError::StepLimit);
        }
        if steps < next_ctl {
            let end = pre.run_end[pc] as usize;
            if end > pc && !machine.block_capture_active() {
                // Truncate the block at the next hook index and the
                // step budget: any prefix of a straight-line run is
                // per-step-equivalent, so the hook (or StepLimit)
                // fires at exactly the per-step position. Both bounds
                // exceed `steps` here, so at least one position runs.
                let budget = (next_ctl - steps).min(max_steps - steps);
                let run = (end - pc).min(budget as usize);
                let cat = machine.current_category();
                if let Err((i, addr)) = machine.run_block(&pre.ops[pc..pc + run], cat) {
                    // The faulting instruction retires no cost; the
                    // prefix is applied+charged — exactly the per-step
                    // error state.
                    return Err(ExecError::MemOutOfRange { pc: pc + i, addr });
                }
                steps += run as u64;
                pc += run;
                continue;
            }
        }
        let step = pre.steps[pc];
        if step.invalid {
            return Err(ExecError::InvalidInstruction {
                pc,
                halfword: step.aux as u16,
            });
        }
        let action = if steps >= next_ctl {
            let (action, next) = ctl(machine, steps as usize);
            next_ctl = next.max(steps + 1);
            action
        } else {
            StepAction::Execute
        };
        steps += 1;
        if action == StepAction::Skip {
            pc = step.next;
            continue;
        }

        match retire(machine, step, pc, &pre.pool, &mut call_stack)? {
            Some(next) => pc = next,
            None => break true,
        }
    };

    if !returned {
        entry.ran_off_the_end(pc, len, steps, max_steps)?;
    }
    Ok(ExecStats {
        instructions: steps,
        cycles: machine.cycles() - start_cycles,
    })
}

/// The decode-per-step reference executor: decodes one halfword per
/// retired instruction, never runs superblocks and calls `ctl` at every
/// step. It is the oracle the predecoded engine is differential-tested
/// against (result, error position, machine state, cycles and bitwise
/// energy must all match) and the baseline arm of the throughput A/B;
/// no production path runs it.
///
/// # Errors
///
/// Exactly those of the engine for the same `entry`: [`execute`] for a
/// label, [`execute_fragment_ctl`] for a fragment.
pub fn execute_reference(
    machine: &mut Machine,
    program: &Program,
    entry: Entry,
    max_steps: u64,
    mut ctl: impl FnMut(&mut Machine, usize) -> StepAction,
) -> Result<ExecStats, ExecError> {
    let len = program.code.len();
    let mut pc = entry.start();
    let mut call_stack: Vec<usize> = Vec::new();
    let mut steps = 0u64;
    let start_cycles = machine.cycles();

    let returned = loop {
        if pc >= len {
            break false;
        }
        if steps >= max_steps {
            return Err(ExecError::StepLimit);
        }
        let step = PreStep::decode(&program.code, pc);
        if step.invalid {
            return Err(ExecError::InvalidInstruction {
                pc,
                halfword: step.aux as u16,
            });
        }
        let action = ctl(machine, steps as usize);
        steps += 1;
        if action == StepAction::Skip {
            pc = step.next;
            continue;
        }
        match retire(machine, step, pc, &program.pool, &mut call_stack)? {
            Some(next) => pc = next,
            None => break true,
        }
    };

    if !returned {
        entry.ran_off_the_end(pc, len, steps, max_steps)?;
    }
    Ok(ExecStats {
        instructions: steps,
        cycles: machine.cycles() - start_cycles,
    })
}

/// Retires one decoded, non-skipped instruction at `pc`. Control flow
/// reads the precomputed targets, a literal load looks up its pool slot
/// and `PUSH`/`POP` charge a stack transfer; every other instruction is
/// one [`Machine::try_step`], whose out-of-RAM operand becomes
/// [`ExecError::MemOutOfRange`]. Returns the next pc, or `None` after
/// the outermost `BX lr`. Shared by the engine's per-step path and the
/// reference loop, so the two differ only in when they decode and
/// whether they run superblocks.
#[inline(always)]
fn retire(
    m: &mut Machine,
    step: PreStep,
    pc: usize,
    pool: &[u32],
    call_stack: &mut Vec<usize>,
) -> Result<Option<usize>, ExecError> {
    use Instr::*;
    match step.instr {
        BCond { cond } => {
            return Ok(Some(if m.b_cond(cond) { step.aux } else { step.next }));
        }
        B => {
            m.b();
            return Ok(Some(step.aux));
        }
        Bl => {
            m.bl();
            call_stack.push(step.next);
            return Ok(Some(step.aux));
        }
        Bx => {
            m.bx();
            return Ok(call_stack.pop());
        }
        LdrLit { rt, imm_words } => {
            let slot = imm_words as usize;
            let value = *pool.get(slot).ok_or(ExecError::BadLiteral { pc, slot })?;
            m.ldr_const(rt, value);
        }
        Push { reg_count } | Pop { reg_count } => m.stack_transfer(reg_count),
        instr => m
            .try_step(instr, None)
            .map_err(|addr| ExecError::MemOutOfRange { pc, addr })?,
    }
    Ok(Some(step.next))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::{Cond, Instr, Reg};
    use std::collections::HashMap;

    /// Runs `program` from `entry` on the engine (with the scheduled
    /// hook `ctl`) and on the decode-per-step oracle (with the same
    /// hook called only at the indices it scheduled), each from a copy
    /// of `m`, and asserts equal results — the same error at the same
    /// `pc` — equal [`ExecStats`] and identical full machine state
    /// (cycles, bitwise energy, per-category totals, memory). Leaves
    /// `m` in the engine's final state and returns its result.
    fn assert_parity(
        m: &mut Machine,
        program: &Program,
        entry: Entry,
        max_steps: u64,
        ctl: impl Fn(&mut Machine, usize) -> (StepAction, u64),
    ) -> Result<ExecStats, ExecError> {
        let context = format!("{entry:?}, {max_steps} steps");
        let mut oracle = m.clone();
        let mut next = 0u64;
        let want = execute_reference(&mut oracle, program, entry, max_steps, |mm, idx| {
            if (idx as u64) < next {
                return StepAction::Execute;
            }
            let (action, n) = ctl(mm, idx);
            next = n.max(idx as u64 + 1);
            action
        });
        let pre = Predecoded::for_cycles(program, m.model().cycle_table());
        let got = run_predecoded(m, &pre, entry, max_steps, &ctl);
        assert_eq!(got, want, "{context}: engine vs oracle");
        m.assert_same_state(&oracle, &context);
        got
    }

    /// [`assert_parity`] for a fragment under a dormant hook, the
    /// schedule under which superblocks engage.
    fn fragment(
        m: &mut Machine,
        program: &Program,
        max_steps: u64,
    ) -> Result<ExecStats, ExecError> {
        assert_parity(m, program, Entry::Fragment, max_steps, dormant)
    }

    /// [`assert_parity`] for a label program under the label executor's
    /// dormant hook — the pair [`execute`] and the oracle.
    fn run_label(
        m: &mut Machine,
        program: &Program,
        label: &str,
        max_steps: u64,
    ) -> Result<ExecStats, ExecError> {
        assert_parity(m, program, Entry::label(program, label), max_steps, dormant)
    }

    #[test]
    fn countdown_loop_executes_the_right_number_of_times() {
        // r0 = 5; do { r1 += 2; r0 -= 1 } while (r0 != 0); bx lr
        let mut a = Assembler::new();
        a.label("entry");
        a.push(Instr::MovsImm {
            rd: Reg::R0,
            imm: 5,
        });
        a.push(Instr::MovsImm {
            rd: Reg::R1,
            imm: 0,
        });
        a.label("loop");
        a.push(Instr::AddsImm8 {
            rdn: Reg::R1,
            imm: 2,
        });
        a.push(Instr::SubsImm8 {
            rdn: Reg::R0,
            imm: 1,
        });
        a.branch_if(Cond::Ne, "loop");
        a.push(Instr::Bx);
        let p = a.assemble().expect("assembles");
        let mut m = Machine::new(64);
        let stats = run_label(&mut m, &p, "entry", 1000).expect("runs");
        assert_eq!(m.reg(Reg::R1), 10);
        assert_eq!(m.reg(Reg::R0), 0);
        // 2 movs + 5×(adds, subs, bne) + bx; the last bne falls through.
        assert_eq!(stats.instructions, 2 + 15 + 1);
        // Cycles: 2 + 5×(1+1) + 4 taken + 1 untaken branches... count:
        // movs 2, adds/subs 10, bne: 4 taken ×2 + 1 untaken ×1 = 9,
        // bx 2 ⇒ 23.
        assert_eq!(stats.cycles, 23);
        // The public label entry point is that same engine run.
        let mut fresh = Machine::new(64);
        assert_eq!(execute(&mut fresh, &p, "entry", 1000), Ok(stats));
        fresh.assert_same_state(&m, "execute");
    }

    #[test]
    fn memcpy_program_copies_memory() {
        // r0 = src, r1 = dst, r2 = word count.
        let mut a = Assembler::new();
        a.label("memcpy");
        a.label("loop");
        a.push(Instr::LdrImm {
            rt: Reg::R3,
            rn: Reg::R0,
            imm_words: 0,
        });
        a.push(Instr::StrImm {
            rt: Reg::R3,
            rn: Reg::R1,
            imm_words: 0,
        });
        a.push(Instr::AddsImm8 {
            rdn: Reg::R0,
            imm: 1,
        });
        a.push(Instr::AddsImm8 {
            rdn: Reg::R1,
            imm: 1,
        });
        a.push(Instr::SubsImm8 {
            rdn: Reg::R2,
            imm: 1,
        });
        a.branch_if(Cond::Ne, "loop");
        a.push(Instr::Bx);
        let p = a.assemble().expect("assembles");

        let mut m = Machine::new(256);
        let src = m.alloc(8);
        let dst = m.alloc(8);
        m.write_slice(src, &[1, 2, 3, 4, 5, 6, 7, 8]);
        m.set_base(Reg::R0, src);
        m.set_base(Reg::R1, dst);
        m.set_reg(Reg::R2, 8);
        run_label(&mut m, &p, "memcpy", 1000).expect("runs");
        assert_eq!(m.read_slice(dst, 8), vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn subroutine_call_and_return() {
        // main: r0 = 1; bl double; bl double; bx  (outermost return)
        // double: adds r0, r0; bx lr
        let mut a = Assembler::new();
        a.label("main");
        a.push(Instr::MovsImm {
            rd: Reg::R0,
            imm: 1,
        });
        a.call("double");
        a.call("double");
        a.push(Instr::Bx);
        a.label("double");
        a.push(Instr::AddsReg {
            rd: Reg::R0,
            rn: Reg::R0,
            rm: Reg::R0,
        });
        a.push(Instr::Bx);
        let p = a.assemble().expect("assembles");

        let mut m = Machine::new(64);
        let stats = run_label(&mut m, &p, "main", 100).expect("runs");
        assert_eq!(m.reg(Reg::R0), 4);
        // movs, 2×(bl, adds, bx), final bx = 8 instructions.
        assert_eq!(stats.instructions, 8);
        // Entering at the subroutine itself returns from its own bx.
        let mut m = Machine::new(64);
        m.set_reg(Reg::R0, 3);
        run_label(&mut m, &p, "double", 100).expect("runs");
        assert_eq!(m.reg(Reg::R0), 6);
    }

    #[test]
    fn literal_pool_loads_resolve() {
        let mut a = Assembler::new();
        a.label("entry");
        a.load_literal(Reg::R0, 0x1234_5678);
        a.load_literal(Reg::R1, 0x1FF);
        a.push(Instr::Ands {
            rdn: Reg::R0,
            rm: Reg::R1,
        });
        a.push(Instr::Bx);
        let p = a.assemble().expect("assembles");
        let mut m = Machine::new(64);
        run_label(&mut m, &p, "entry", 100).expect("runs");
        assert_eq!(m.reg(Reg::R0), 0x1234_5678 & 0x1FF);
    }

    #[test]
    fn runaway_loops_hit_the_step_limit() {
        let mut a = Assembler::new();
        a.label("spin");
        a.branch("spin");
        let p = a.assemble().expect("assembles");
        let mut m = Machine::new(16);
        assert_eq!(run_label(&mut m, &p, "spin", 50), Err(ExecError::StepLimit));
        // Cut mid-block, in and before the loop.
        let p = looped_program();
        for limit in 0..=4 {
            let mut m = Machine::new(64);
            assert_eq!(
                run_label(&mut m, &p, "entry", limit),
                Err(ExecError::StepLimit)
            );
        }
    }

    #[test]
    fn falling_off_the_end_is_detected() {
        let mut a = Assembler::new();
        a.label("entry");
        a.push(Instr::Nop);
        let p = a.assemble().expect("assembles");
        let mut m = Machine::new(16);
        assert_eq!(
            run_label(&mut m, &p, "entry", 10),
            Err(ExecError::PcOutOfRange(1))
        );
        // A label program checks its budget before the pc: a budget
        // spent exactly at the end of the image is a step limit.
        let mut m = Machine::new(16);
        assert_eq!(run_label(&mut m, &p, "entry", 1), Err(ExecError::StepLimit));
        // The same image as a fragment completes normally there.
        let mut m = Machine::new(16);
        let stats = fragment(&mut m, &p, 1).expect("a fragment ends at the end of the image");
        assert_eq!(stats.instructions, 1);
        // A branch to before the image start leaves it as a wrapped pc.
        let program = Program {
            code: vec![0xE7FD], // b to pc - 1
            pool: vec![],
            labels: HashMap::new(),
        };
        assert_eq!(
            fragment(&mut Machine::new(16), &program, 10),
            Err(ExecError::PcOutOfRange(usize::MAX))
        );
    }

    #[test]
    fn invalid_instruction_is_reported() {
        let mut labels = HashMap::new();
        labels.insert("entry".to_string(), 1usize);
        let program = Program {
            code: [
                Instr::Nop.encode(),
                Instr::Nop.encode(),
                vec![0b11111 << 11], // reserved encoding
            ]
            .concat(),
            pool: vec![],
            labels,
        };
        let mut m = Machine::new(16);
        assert_eq!(
            run_label(&mut m, &program, "entry", 10),
            Err(ExecError::InvalidInstruction {
                pc: 2,
                halfword: 0b11111 << 11
            })
        );
    }

    #[test]
    fn missing_literal_slot_is_reported() {
        let mut labels = HashMap::new();
        labels.insert("entry".to_string(), 0usize);
        let program = Program {
            code: Instr::LdrLit {
                rt: Reg::R0,
                imm_words: 3,
            }
            .encode(),
            pool: vec![],
            labels,
        };
        let mut m = Machine::new(16);
        assert_eq!(
            run_label(&mut m, &program, "entry", 10),
            Err(ExecError::BadLiteral { pc: 0, slot: 3 })
        );
    }

    #[test]
    #[should_panic(expected = "entry label")]
    fn unknown_entry_label_panics() {
        let program = Assembler::new().assemble().expect("empty assembles");
        let mut m = Machine::new(16);
        let _ = execute(&mut m, &program, "nope", 10);
    }

    #[test]
    fn error_display_is_informative() {
        assert!(format!("{}", ExecError::StepLimit).contains("step limit"));
        assert!(format!("{}", ExecError::PcOutOfRange(7)).contains('7'));
        assert!(format!("{}", ExecError::MemOutOfRange { pc: 3, addr: 99 }).contains("99"));
    }

    #[test]
    fn out_of_range_load_aborts_instead_of_panicking() {
        // Regression test for the fault campaign: a corrupted base
        // register must surface as ExecError::MemOutOfRange, not as a
        // host panic that tears down the whole campaign.
        let mut a = Assembler::new();
        a.label("entry");
        a.push(Instr::LdrImm {
            rt: Reg::R1,
            rn: Reg::R0,
            imm_words: 3,
        });
        a.push(Instr::Bx);
        let p = a.assemble().expect("assembles");
        let mut m = Machine::new(16);
        m.set_reg(Reg::R0, 0xFFFF_FFFF); // "glitched" base pointer
        assert_eq!(
            run_label(&mut m, &p, "entry", 10),
            Err(ExecError::MemOutOfRange {
                pc: 0,
                addr: 0xFFFF_FFFFu64 + 3
            })
        );
        // Same guard on the indexed and SP-relative forms.
        let mut a = Assembler::new();
        a.label("entry");
        a.push(Instr::StrReg {
            rt: Reg::R2,
            rn: Reg::R0,
            rm: Reg::R1,
        });
        let p = a.assemble().expect("assembles");
        let mut m = Machine::new(16);
        m.set_reg(Reg::R0, 8);
        m.set_reg(Reg::R1, 9);
        assert_eq!(
            execute_fragment(&mut m.clone(), &p, 10, |_, _| {}),
            Err(ExecError::MemOutOfRange { pc: 0, addr: 17 })
        );
        assert_eq!(
            fragment(&mut m, &p, 10),
            Err(ExecError::MemOutOfRange { pc: 0, addr: 17 })
        );
        let mut a = Assembler::new();
        a.label("entry");
        a.push(Instr::LdrSp {
            rt: Reg::R0,
            imm_words: 2,
        });
        let p = a.assemble().expect("assembles");
        let mut m = Machine::new(16);
        m.set_reg(Reg::Sp, 15);
        assert_eq!(
            fragment(&mut m, &p, 10),
            Err(ExecError::MemOutOfRange { pc: 0, addr: 17 })
        );
    }

    #[test]
    fn skipped_instructions_charge_nothing_and_fall_through() {
        // movs r0, #5 ; adds r0, #1 ; adds r0, #1 — skip the middle one.
        let mut a = Assembler::new();
        a.label("entry");
        a.push(Instr::MovsImm {
            rd: Reg::R0,
            imm: 5,
        });
        a.push(Instr::AddsImm8 {
            rdn: Reg::R0,
            imm: 1,
        });
        a.push(Instr::AddsImm8 {
            rdn: Reg::R0,
            imm: 1,
        });
        let p = a.assemble().expect("assembles");
        let mut m = Machine::new(16);
        let stats = execute_fragment_ctl(&mut m, &p, 10, |_, idx| {
            if idx == 1 {
                StepAction::Skip
            } else {
                StepAction::Execute
            }
        })
        .expect("runs");
        assert_eq!(m.reg(Reg::R0), 6);
        // The skipped instruction retires an index but no cycles.
        assert_eq!(stats.instructions, 3);
        assert_eq!(stats.cycles, 2);
    }

    #[test]
    fn skipping_a_taken_branch_falls_through() {
        // b past an adds; skipping the branch executes the adds.
        let mut a = Assembler::new();
        a.label("entry");
        a.branch("end");
        a.push(Instr::AddsImm8 {
            rdn: Reg::R0,
            imm: 7,
        });
        a.label("end");
        let p = a.assemble().expect("assembles");
        let mut m = Machine::new(16);
        execute_fragment_ctl(&mut m, &p, 10, |_, idx| {
            if idx == 0 {
                StepAction::Skip
            } else {
                StepAction::Execute
            }
        })
        .expect("runs");
        assert_eq!(m.reg(Reg::R0), 7);
    }

    fn looped_program() -> Program {
        // r0 = 6; do { r1 += 3; r0 -= 1 } while (r0 != 0)
        let mut a = Assembler::new();
        a.label("entry");
        a.push(Instr::MovsImm {
            rd: Reg::R0,
            imm: 6,
        });
        a.push(Instr::MovsImm {
            rd: Reg::R1,
            imm: 0,
        });
        a.label("loop");
        a.push(Instr::AddsImm8 {
            rdn: Reg::R1,
            imm: 3,
        });
        a.push(Instr::SubsImm8 {
            rdn: Reg::R0,
            imm: 1,
        });
        a.branch_if(Cond::Ne, "loop");
        a.assemble().expect("assembles")
    }

    #[test]
    fn per_step_hooks_match_the_oracle() {
        // A hook called at every index (the execute_fragment_ctl
        // contract), with and without a skip of the first loop-body adds.
        let p = looped_program();
        let mut m = Machine::new(64);
        assert_parity(&mut m, &p, Entry::Fragment, 1000, |_, _| {
            (StepAction::Execute, 0)
        })
        .expect("runs");
        assert_eq!(m.reg(Reg::R1), 18);
        let mut m = Machine::new(64);
        let skip_2 = |_: &mut Machine, idx: usize| {
            let action = if idx == 2 {
                StepAction::Skip
            } else {
                StepAction::Execute
            };
            (action, 0)
        };
        assert_parity(&mut m, &p, Entry::Fragment, 1000, skip_2).expect("runs");
    }

    #[test]
    fn predecode_cache_hits_on_reuse() {
        let table = &crate::target::M0PLUS_CYCLES;
        let p = looped_program();
        let (h0, _) = predecode_cache_stats();
        let a = predecode_with(&p, table);
        let b = predecode_with(&p, table);
        let (h1, _) = predecode_cache_stats();
        assert!(h1 > h0, "second predecode of the same program must hit");
        assert!(Arc::ptr_eq(&a, &b), "cache returns the same Arc");
        // A different program is a distinct entry, not a false hit.
        let q = {
            let mut asm = Assembler::new();
            asm.label("entry");
            asm.push(Instr::Nop);
            asm.assemble().expect("assembles")
        };
        let c = predecode_with(&q, table);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(c.len(), 1);
        assert!(!c.is_empty());
    }

    #[test]
    fn superblocks_match_the_oracle_including_branch_into_block_middle() {
        // The bne of looped_program() targets "loop" — the middle of
        // the [movs, movs, adds, subs] straight-line run — and the
        // fragment ends on that branch's fall-through (a
        // fragment-final branch).
        let mut m = Machine::new(64);
        fragment(&mut m, &looped_program(), 1000).expect("runs");
    }

    #[test]
    fn superblocks_run_literals_and_stack_transfers() {
        let mut a = Assembler::new();
        a.label("entry");
        a.load_literal(Reg::R0, 0xDEAD_BEEF);
        a.push(Instr::Push { reg_count: 3 });
        a.load_literal(Reg::R1, 0x1FF);
        a.push(Instr::Ands {
            rdn: Reg::R0,
            rm: Reg::R1,
        });
        a.push(Instr::Pop { reg_count: 3 });
        let p = a.assemble().expect("assembles");
        let mut m = Machine::new(64);
        fragment(&mut m, &p, 100).expect("runs");
        assert_eq!(m.reg(Reg::R0), 0xDEAD_BEEF & 0x1FF);
    }

    #[test]
    fn superblock_hook_lands_on_per_step_boundaries() {
        // A scheduled hook that skips one instruction — first mid-run
        // (index 2, the loop-body adds), then exactly on a block
        // boundary (index 4, the bne) — must see the same machine
        // state and produce the same outcome as the oracle: the fault
        // injector's window is a per-step boundary.
        let p = looped_program();
        for fault_at in [2usize, 4, 7] {
            let ctl = move |_: &mut Machine, idx: usize| {
                if idx == fault_at {
                    (StepAction::Skip, u64::MAX)
                } else {
                    (StepAction::Execute, fault_at as u64)
                }
            };
            let mut m = Machine::new(64);
            let _ = assert_parity(&mut m, &p, Entry::Fragment, 1000, ctl);
        }
    }

    #[test]
    fn superblock_step_limit_fires_mid_block() {
        let p = looped_program();
        for limit in 1..=6 {
            let mut m = Machine::new(64);
            let _ = fragment(&mut m, &p, limit);
        }
        let mut m = Machine::new(64);
        assert_eq!(fragment(&mut m, &p, 3), Err(ExecError::StepLimit));
    }

    #[test]
    fn fragment_errors_match_the_oracle_positions() {
        // MemOutOfRange mid-block: the prefix retires, the faulting
        // load charges nothing, the reported pc is the per-step one.
        let mut a = Assembler::new();
        a.label("entry");
        a.push(Instr::AddsImm8 {
            rdn: Reg::R1,
            imm: 1,
        });
        a.push(Instr::LdrImm {
            rt: Reg::R2,
            rn: Reg::R0,
            imm_words: 3,
        });
        let p = a.assemble().expect("assembles");
        let mut m = Machine::new(16);
        m.set_reg(Reg::R0, 0xFFFF_FFFF);
        assert_eq!(
            fragment(&mut m, &p, 10),
            Err(ExecError::MemOutOfRange {
                pc: 1,
                addr: 0xFFFF_FFFFu64 + 3
            })
        );
        // A missing literal slot is never block-runnable: BadLiteral
        // fires from per-step dispatch at the same retired index.
        let program = Program {
            code: [
                Instr::MovsImm {
                    rd: Reg::R0,
                    imm: 1,
                }
                .encode(),
                Instr::LdrLit {
                    rt: Reg::R0,
                    imm_words: 3,
                }
                .encode(),
            ]
            .concat(),
            pool: vec![],
            labels: HashMap::new(),
        };
        let mut m = Machine::new(16);
        assert_eq!(
            fragment(&mut m, &program, 10),
            Err(ExecError::BadLiteral { pc: 1, slot: 3 })
        );
        // An invalid halfword after a runnable prefix.
        let program = Program {
            code: [Instr::Nop.encode(), vec![0b11111 << 11]].concat(),
            pool: vec![],
            labels: HashMap::new(),
        };
        let mut m = Machine::new(16);
        assert_eq!(
            fragment(&mut m, &program, 10),
            Err(ExecError::InvalidInstruction {
                pc: 1,
                halfword: 0b11111 << 11
            })
        );
        // Halfword 0x0000 is `LSLS r0, r0, #0`, which ARMv6-M defines
        // as `MOVS r0, r0`: N and Z from the value, C and V kept. After
        // a CMP that sets C it runs, not panics, in a superblock on the
        // engine and per step on the oracle.
        let program = Program {
            code: [
                Instr::CmpReg {
                    rn: Reg::R0,
                    rm: Reg::R0,
                }
                .encode(),
                vec![0x0000],
            ]
            .concat(),
            pool: vec![],
            labels: HashMap::new(),
        };
        let mut m = Machine::new(16);
        m.set_reg(Reg::R0, 0x8000_0000);
        fragment(&mut m, &program, 10).expect("LSLS #0 runs");
        assert_eq!(m.reg(Reg::R0), 0x8000_0000);
        assert!(m.cond(Cond::Mi) && !m.cond(Cond::Eq) && m.cond(Cond::Hs));
    }

    #[cfg(feature = "trace")]
    #[test]
    fn superblocks_fall_back_per_step_while_tracing() {
        // An armed trace needs every instruction at its own position,
        // so superblock execution must defer to per-step dispatch —
        // and still match the oracle bit for bit.
        let p = looped_program();
        let mut m = Machine::new(64);
        m.start_trace();
        let mut oracle = m.clone();
        fragment(&mut m, &p, 1000).expect("runs");
        execute_reference(&mut oracle, &p, Entry::Fragment, 1000, |_, _| {
            StepAction::Execute
        })
        .expect("runs");
        let (t1, t2) = (oracle.take_trace(), m.take_trace());
        assert_eq!(t1.events.len(), t2.events.len());
        assert!(!t2.events.is_empty(), "trace captured despite blocks on");
    }

    #[test]
    fn multiprecision_add_program() {
        // 2-word add with carry: r0 = &a, r1 = &b, r2 = &out.
        let mut a = Assembler::new();
        a.label("add64");
        a.push(Instr::LdrImm {
            rt: Reg::R3,
            rn: Reg::R0,
            imm_words: 0,
        });
        a.push(Instr::LdrImm {
            rt: Reg::R4,
            rn: Reg::R1,
            imm_words: 0,
        });
        a.push(Instr::AddsReg {
            rd: Reg::R3,
            rn: Reg::R3,
            rm: Reg::R4,
        });
        a.push(Instr::StrImm {
            rt: Reg::R3,
            rn: Reg::R2,
            imm_words: 0,
        });
        a.push(Instr::LdrImm {
            rt: Reg::R3,
            rn: Reg::R0,
            imm_words: 1,
        });
        a.push(Instr::LdrImm {
            rt: Reg::R4,
            rn: Reg::R1,
            imm_words: 1,
        });
        a.push(Instr::Adcs {
            rdn: Reg::R3,
            rm: Reg::R4,
        });
        a.push(Instr::StrImm {
            rt: Reg::R3,
            rn: Reg::R2,
            imm_words: 1,
        });
        a.push(Instr::Bx);
        let p = a.assemble().expect("assembles");

        let mut m = Machine::new(64);
        let (pa, pb, po) = (m.alloc(2), m.alloc(2), m.alloc(2));
        let a_val = 0xFFFF_FFFF_0000_0001u64;
        let b_val = 0x0000_0001_FFFF_FFFFu64;
        m.write_slice(pa, &[a_val as u32, (a_val >> 32) as u32]);
        m.write_slice(pb, &[b_val as u32, (b_val >> 32) as u32]);
        m.set_base(Reg::R0, pa);
        m.set_base(Reg::R1, pb);
        m.set_base(Reg::R2, po);
        run_label(&mut m, &p, "add64", 100).expect("runs");
        let out = m.read_slice(po, 2);
        let got = out[0] as u64 | (out[1] as u64) << 32;
        assert_eq!(got, a_val.wrapping_add(b_val));
    }
}
