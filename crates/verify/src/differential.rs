//! The cross-tier differential fuzz harness.
//!
//! Feeds identical seeded inputs through every execution tier and
//! cross-checks:
//!
//! * **field elements** — portable `Fe` vs the u64 [`GenericField`]
//!   oracle vs all three counted multiplication methods vs the modeled
//!   machine on both backends (results *and* the cycle counts of the
//!   Direct and Code backends, which must agree exactly) vs the
//!   64-lane bitsliced backend (the case pair rides in lanes 0/1 of a
//!   full 64-lane batch, so every case cross-checks all 64 independent
//!   dataflows of `mul`, `sqr` and the lane-parallel Itoh–Tsujii
//!   inversion against the portable ops);
//! * **scalars** — width-4 wTNAF, plain TNAF, the fixed-window kG path
//!   and the Montgomery ladder against the binary double-and-add
//!   reference, including the recoding fixed-length invariant;
//! * **wire frames** — randomly truncated/bit-flipped public keys,
//!   signatures and sealed frames through the slice and owned decoders,
//!   which must never panic and must return the same typed error.
//!
//! Every case is derived from the configured seed through a per-case
//! PRNG substream (`prng::SplitMix64::substream` keyed by seed, phase
//! domain and case index), so a case's inputs are a pure function of
//! its index: any contiguous window of the global case list (see
//! [`total_cases`]) can run on its own via [`run_window`], and
//! [`merge`] folds the window reports — in window order — into the
//! same canonical report [`run`] produces. The sharded
//! `verify_campaign` runner splits the case list across worker threads
//! that way, and CI diffs `--shards 1` against `--shards 4` to hold
//! the output byte-identical. A disagreement is reported with a
//! greedily shrunk minimal counterexample (see [`crate::shrink`]).

use std::collections::BTreeMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use gf2m::bitsliced;
use gf2m::generic::GenericField;
use gf2m::modeled::{ModeledField, Tier};
use gf2m::{counted, Fe};
use koblitz::{curve, mul, tnaf, Int};
use m0plus::Backend;
use prng::SplitMix64;
use protocols::wire::{
    decode_public_key, decode_public_key_slice, decode_signature, decode_signature_slice,
    encode_public_key, encode_signature, SealedFrame,
};
use protocols::SigningKey;

use crate::shrink;

/// Case budget for a differential run.
#[derive(Debug, Clone, Copy)]
pub struct DiffConfig {
    /// Base seed; each phase derives its own stream from it.
    pub seed: u64,
    /// Field-element cases (each checked across every field tier pair).
    pub field_cases: usize,
    /// Scalar cases (each checked across every point-algorithm pair).
    pub scalar_cases: usize,
    /// Wire-frame mutation cases (each checked across decoder pairs).
    pub wire_cases: usize,
    /// Batch-inversion cases: each case draws a batch (with ~10% zeros)
    /// and cross-checks pointwise inversion vs the portable and counted
    /// Montgomery batch, plus batch affine conversion at the curve
    /// layer and the hybrid chunked bitsliced inversion (multi-chunk,
    /// ragged tail included) vs pointwise inversion.
    pub batch_cases: usize,
    /// The target cost model the modeled tiers run under. Architectural
    /// results must be target-invariant, so the differential verdict
    /// cannot depend on this — the `--target` axis exists to prove it.
    pub target: &'static m0plus::TargetSpec,
}

impl DiffConfig {
    /// Bounded CI smoke configuration (default target).
    pub fn smoke() -> DiffConfig {
        DiffConfig {
            seed: 0xd1ff,
            field_cases: 120,
            scalar_cases: 24,
            wire_cases: 300,
            batch_cases: 16,
            target: m0plus::target::default_target(),
        }
    }

    /// Full campaign: at least 1000 cases for every tier pair (default
    /// target).
    pub fn full() -> DiffConfig {
        DiffConfig {
            seed: 0xd1ff,
            field_cases: 1000,
            scalar_cases: 1000,
            wire_cases: 1000,
            batch_cases: 200,
            target: m0plus::target::default_target(),
        }
    }
}

/// One cross-tier disagreement (expected never to occur; kept in the
/// report with a shrunk counterexample when it does).
#[derive(Debug, Clone)]
pub struct Disagreement {
    /// Input domain (`field`, `scalar`, `wire`).
    pub domain: &'static str,
    /// The tier pair that disagreed, e.g. `portable/modeled_direct`.
    pub pair: String,
    /// Case index within the domain's stream.
    pub case_index: usize,
    /// Hex of the (shrunk, when shrinkable) offending input.
    pub input: String,
    /// What differed.
    pub detail: String,
}

/// Agreement counters for one tier pair.
#[derive(Debug, Clone)]
pub struct TierPair {
    /// Pair label, e.g. `portable/generic_u64`.
    pub pair: String,
    /// Cases cross-checked.
    pub cases: usize,
    /// Cases that disagreed.
    pub disagreements: usize,
}

/// The result of one differential run.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Echo of the seed the run used.
    pub seed: u64,
    /// Per tier-pair agreement counters (fixed order).
    pub pairs: Vec<TierPair>,
    /// Every disagreement, in discovery order.
    pub disagreements: Vec<Disagreement>,
    /// Decoder error taxonomy: variant name → occurrences (identical
    /// across the slice and owned decoders by construction — a variant
    /// mismatch is recorded as a disagreement instead).
    pub wire_taxonomy: BTreeMap<String, u64>,
    /// Decoder calls that panicked (must stay zero).
    pub wire_panics: usize,
}

impl DiffReport {
    /// Whether the run found full agreement and no panics.
    pub fn ok(&self) -> bool {
        self.disagreements.is_empty() && self.wire_panics == 0
    }

    fn pair_entry(&mut self, pair: &str) -> &mut TierPair {
        if let Some(i) = self.pairs.iter().position(|p| p.pair == pair) {
            return &mut self.pairs[i];
        }
        self.pairs.push(TierPair {
            pair: pair.to_string(),
            cases: 0,
            disagreements: 0,
        });
        self.pairs.last_mut().expect("just pushed")
    }

    fn record(&mut self, pair: &str, agreed: bool) {
        let entry = self.pair_entry(pair);
        entry.cases += 1;
        if !agreed {
            entry.disagreements += 1;
        }
    }

    /// Deterministic text rendering (what the CI determinism gate
    /// diffs).
    pub fn render(&self) -> String {
        let mut out = format!("differential harness (seed {:#x})\n", self.seed);
        for p in &self.pairs {
            out.push_str(&format!(
                "  tier-pair {:<34} {:>6} cases, {} disagreements\n",
                p.pair, p.cases, p.disagreements
            ));
        }
        out.push_str("  decoder error taxonomy:\n");
        for (variant, count) in &self.wire_taxonomy {
            out.push_str(&format!("    {variant:<28} {count}\n"));
        }
        out.push_str(&format!("  decoder panics: {}\n", self.wire_panics));
        for d in &self.disagreements {
            out.push_str(&format!(
                "  DISAGREEMENT [{}] {} case {}: {} (input {})\n",
                d.domain, d.pair, d.case_index, d.detail, d.input
            ));
        }
        out
    }
}

/// Substream domains, one per phase, so the phases draw from
/// unrelated generators even for equal case indices.
const FIELD_DOMAIN: u64 = 0xf1e1d;
const SCALAR_DOMAIN: u64 = 0x5ca1a7;
const WIRE_DOMAIN: u64 = 0x3175;
const BATCH_DOMAIN: u64 = 0xba7c4;

/// Size of the global case list: the four phase case lists
/// concatenated (field, then scalar, then wire, then batch). This is
/// the range sharded runners split into windows for [`run_window`].
pub fn total_cases(config: &DiffConfig) -> usize {
    config.field_cases + config.scalar_cases + config.wire_cases + config.batch_cases
}

/// Intersects a global-index window with one phase's sub-range and
/// rebases it to phase-local case indices.
fn phase_window(window: &Range<usize>, base: usize, count: usize) -> Range<usize> {
    let lo = window.start.clamp(base, base + count) - base;
    let hi = window.end.clamp(base, base + count) - base;
    lo..hi
}

/// Runs the cases of one contiguous window of the global case list
/// (`0..total_cases`). Every case draws from its own substream, so the
/// produced counters depend only on the window contents — never on
/// which shard ran them. The result is a *partial* report; fold the
/// windows with [`merge`].
pub fn run_window(config: &DiffConfig, window: Range<usize>) -> DiffReport {
    let mut report = DiffReport {
        seed: config.seed,
        ..DiffReport::default()
    };
    let scalar_base = config.field_cases;
    let wire_base = scalar_base + config.scalar_cases;
    let batch_base = wire_base + config.wire_cases;
    field_phase(
        config,
        &mut report,
        phase_window(&window, 0, config.field_cases),
    );
    scalar_phase(
        config,
        &mut report,
        phase_window(&window, scalar_base, config.scalar_cases),
    );
    wire_phase(
        config,
        &mut report,
        phase_window(&window, wire_base, config.wire_cases),
    );
    batch_phase(
        config,
        &mut report,
        phase_window(&window, batch_base, config.batch_cases),
    );
    report
}

/// Folds window reports (in window order) into the canonical report:
/// pair counters summed and sorted by pair name, disagreements
/// concatenated (window order == global case order), taxonomy and
/// panic counters summed. [`run`] goes through the same fold, so a
/// single-window run renders byte-identically to any sharded split.
pub fn merge(config: &DiffConfig, parts: Vec<DiffReport>) -> DiffReport {
    let mut out = DiffReport {
        seed: config.seed,
        ..DiffReport::default()
    };
    for part in parts {
        for p in part.pairs {
            let entry = out.pair_entry(&p.pair);
            entry.cases += p.cases;
            entry.disagreements += p.disagreements;
        }
        out.disagreements.extend(part.disagreements);
        for (variant, count) in part.wire_taxonomy {
            *out.wire_taxonomy.entry(variant).or_insert(0) += count;
        }
        out.wire_panics += part.wire_panics;
    }
    out.pairs.sort_by(|a, b| a.pair.cmp(&b.pair));
    out
}

/// Runs all differential phases under `config`.
pub fn run(config: &DiffConfig) -> DiffReport {
    let full = run_window(config, 0..total_cases(config));
    merge(config, vec![full])
}

// ---------------------------------------------------------------------
// Field elements.
// ---------------------------------------------------------------------

fn rand_fe(rng: &mut SplitMix64) -> Fe {
    let mut w = [0u32; 8];
    rng.fill_u32(&mut w);
    Fe::from_words_reduced(w)
}

/// Field edge cases fed before the random stream.
fn field_edges() -> Vec<(Fe, Fe)> {
    let top = {
        let mut w = [0u32; 8];
        w[7] = 0x1FF; // bit 232 and friends set
        Fe::from_words_reduced(w)
    };
    let ones = Fe::from_words_reduced([u32::MAX; 8]);
    vec![
        (Fe::ZERO, Fe::ZERO),
        (Fe::ZERO, Fe::ONE),
        (Fe::ONE, Fe::ONE),
        (top, Fe::ONE),
        (top, top),
        (ones, ones),
    ]
}

fn disagree_fe(
    report: &mut DiffReport,
    pair: &str,
    case: usize,
    a: Fe,
    b: Fe,
    detail: String,
    still_fails: impl Fn(&[u8]) -> bool,
) {
    let mut input = Vec::new();
    input.extend_from_slice(&a.to_be_bytes());
    input.extend_from_slice(&b.to_be_bytes());
    let shrunk = shrink::shrink_bytes(&input, still_fails);
    report.disagreements.push(Disagreement {
        domain: "field",
        pair: pair.to_string(),
        case_index: case,
        input: shrink::hex(&shrunk),
        detail,
    });
}

/// Decodes the shrinker's 60-byte field-pair serialisation.
fn bytes_to_fe_pair(bytes: &[u8]) -> (Fe, Fe) {
    let mut buf = [0u8; 60];
    let n = bytes.len().min(60);
    buf[..n].copy_from_slice(&bytes[..n]);
    let a: [u8; 30] = buf[..30].try_into().expect("30 bytes");
    let b: [u8; 30] = buf[30..].try_into().expect("30 bytes");
    (Fe::from_be_bytes(&a), Fe::from_be_bytes(&b))
}

fn field_phase(config: &DiffConfig, report: &mut DiffReport, cases: Range<usize>) {
    if cases.is_empty() {
        return;
    }
    let oracle = GenericField::sect233k1();
    let mut direct = ModeledField::with_target(Tier::Asm, config.target);
    let (da, db, dz) = (direct.alloc(), direct.alloc(), direct.alloc());
    let mut code = ModeledField::with_target(Tier::Asm, config.target);
    code.set_backend(Backend::Code);
    let (ca, cb, cz) = (code.alloc(), code.alloc(), code.alloc());

    let edges = field_edges();
    for case in cases {
        let mut rng = SplitMix64::substream(config.seed, FIELD_DOMAIN, case as u64);
        let (a, b) = edges
            .get(case)
            .copied()
            .unwrap_or_else(|| (rand_fe(&mut rng), rand_fe(&mut rng)));
        let want_mul = a * b;
        let want_sqr = a.square();

        // u64 generic-field oracle.
        let got = oracle
            .element_to_fe(&oracle.mul(&oracle.element_from_fe(a), &oracle.element_from_fe(b)));
        report.record("portable/generic_u64", got == want_mul);
        if got != want_mul {
            disagree_fe(
                report,
                "portable/generic_u64",
                case,
                a,
                b,
                format!("mul: portable {want_mul} vs generic {got}"),
                |bytes| {
                    let (a, b) = bytes_to_fe_pair(bytes);
                    let o = GenericField::sect233k1();
                    o.element_to_fe(&o.mul(&o.element_from_fe(a), &o.element_from_fe(b))) != a * b
                },
            );
        }
        let got_sqr = oracle.element_to_fe(&oracle.sqr(&oracle.element_from_fe(a)));
        report.record("portable/generic_u64_sqr", got_sqr == want_sqr);

        // Counted tier: all three multiplication methods.
        for (name, value) in [
            ("portable/counted_ld", counted::mul_ld(a, b).value),
            (
                "portable/counted_ld_rotating",
                counted::mul_ld_rotating(a, b).value,
            ),
            (
                "portable/counted_ld_fixed",
                counted::mul_ld_fixed(a, b).value,
            ),
        ] {
            report.record(name, value == want_mul);
            if value != want_mul {
                disagree_fe(
                    report,
                    name,
                    case,
                    a,
                    b,
                    format!("mul: portable {want_mul} vs counted {value}"),
                    |_| false,
                );
            }
        }

        // Modeled tier, Direct backend: mul + sqr.
        direct.store(da, a);
        direct.store(db, b);
        let snap = direct.machine().cycles();
        direct.mul(dz, da, db);
        direct.sqr(dz, da);
        let direct_cycles = direct.machine().cycles() - snap;
        // (the modeled tier asserts against portable internally in
        // debug builds; the explicit check also covers release runs)
        direct.mul(dz, da, db);
        let direct_mul = direct.load(dz);
        report.record("portable/modeled_direct", direct_mul == want_mul);
        if direct_mul != want_mul {
            disagree_fe(
                report,
                "portable/modeled_direct",
                case,
                a,
                b,
                format!("mul: portable {want_mul} vs modeled {direct_mul}"),
                |_| false,
            );
        }

        // Modeled tier, Code backend: identical results and *cycles*.
        code.store(ca, a);
        code.store(cb, b);
        let snap = code.machine().cycles();
        code.mul(cz, ca, cb);
        code.sqr(cz, ca);
        let code_cycles = code.machine().cycles() - snap;
        let agreed = code_cycles == direct_cycles;
        report.record("modeled_direct/modeled_code_cycles", agreed);
        if !agreed {
            disagree_fe(
                report,
                "modeled_direct/modeled_code_cycles",
                case,
                a,
                b,
                format!("mul+sqr cycles: direct {direct_cycles} vs code {code_cycles}"),
                |_| false,
            );
        }
        code.mul(cz, ca, cb);
        report.record("portable/modeled_code", code.load(cz) == want_mul);

        // Standalone reduction: interleaved portable vs bitwise vs the
        // modeled reduce kernel (sampled — it re-runs the mul frame).
        let wide = gf2m::mul::mul_poly_ld(a.words(), b.words());
        let bitwise = gf2m::reduce::reduce_bitwise(wide);
        report.record("reduce_word/reduce_bitwise", bitwise == want_mul);
        if case % 16 == 0 {
            direct.reduce(dz, &wide);
            report.record("portable/modeled_reduce", direct.load(dz) == want_mul);
        }

        // Inversion: EEA host vs generic oracle vs modeled (sampled).
        if case % 32 == 0 && !a.is_zero() {
            let inv = a.invert().expect("non-zero");
            let got = oracle
                .inv(&oracle.element_from_fe(a))
                .map(|p| oracle.element_to_fe(&p));
            report.record("portable/generic_u64_inv", got == Some(inv));
            direct.store(da, a);
            direct.inv(dz, da);
            report.record("portable/modeled_inv", direct.load(dz) == inv);
        }

        // Bitsliced 64-lane tier. The case pair rides in lanes 0/1,
        // the zero and one lanes are pinned, and the rest fill from
        // the case substream — so every case cross-checks all 64
        // independent lane dataflows of mul, sqr and the
        // lane-parallel Itoh–Tsujii inversion against the portable
        // ops in one go.
        let mut xs = vec![a, b, Fe::ZERO, Fe::ONE];
        let mut ys = vec![b, a, Fe::ONE, a];
        while xs.len() < bitsliced::LANES {
            xs.push(rand_fe(&mut rng));
            ys.push(rand_fe(&mut rng));
        }
        let bx = bitsliced::transpose_in(&xs);
        let by = bitsliced::transpose_in(&ys);
        let bmul = bx.mul(&by);
        let bsqr = bx.sqr();
        let binv = bx.batch_inv();
        let mut bits_detail = None;
        for j in 0..bitsliced::LANES {
            if bmul.lane(j) != xs[j] * ys[j] {
                bits_detail = Some(format!("mul lane {j} vs portable"));
                break;
            }
            if bsqr.lane(j) != xs[j].square() {
                bits_detail = Some(format!("sqr lane {j} vs portable"));
                break;
            }
            if binv.lane(j) != xs[j].invert().unwrap_or(Fe::ZERO) {
                bits_detail = Some(format!("inv lane {j} vs portable"));
                break;
            }
        }
        report.record("portable/bitsliced", bits_detail.is_none());
        if let Some(detail) = bits_detail {
            disagree_fe(report, "portable/bitsliced", case, a, b, detail, |bytes| {
                let (a, b) = bytes_to_fe_pair(bytes);
                let bx = bitsliced::transpose_in(&[a, b]);
                let m = bx.mul(&bitsliced::transpose_in(&[b, a]));
                m.lane(0) != a * b
                    || m.lane(1) != b * a
                    || bx.sqr().lane(0) != a.square()
                    || bx.batch_inv().lane(0) != a.invert().unwrap_or(Fe::ZERO)
            });
        }

        // Counted tier vs bitsliced: the paper's Method-C counted
        // multiplication and the lane-space Karatsuba must land on
        // the same value for the case pair.
        let counted_vs_bits = counted::mul_ld_fixed(a, b).value == bmul.lane(0);
        report.record("counted/bitsliced", counted_vs_bits);
        if !counted_vs_bits {
            disagree_fe(
                report,
                "counted/bitsliced",
                case,
                a,
                b,
                "counted mul_ld_fixed vs bitsliced lane 0".to_string(),
                |bytes| {
                    let (a, b) = bytes_to_fe_pair(bytes);
                    let m = bitsliced::transpose_in(&[a]).mul(&bitsliced::transpose_in(&[b]));
                    counted::mul_ld_fixed(a, b).value != m.lane(0)
                },
            );
        }
    }
}

// ---------------------------------------------------------------------
// Scalars.
// ---------------------------------------------------------------------

/// Scalar edge cases fed before the random stream: zero, small, the
/// group order and its neighbours, and top-bit-set patterns.
fn scalar_edges() -> Vec<Int> {
    let n = curve::order();
    let top_bit = Int::one().shl(232);
    vec![
        Int::zero(),
        Int::one(),
        Int::from(2i64),
        Int::from(3i64),
        Int::from(0x7FFFi64),
        &n - &Int::one(),
        n.clone(),
        &n + &Int::one(),
        top_bit.clone(),
        &top_bit + &Int::one(),
        Int::one().shl(231),
        &n - &Int::from(12345i64),
    ]
}

fn rand_scalar_wide(rng: &mut SplitMix64) -> Int {
    // Deliberately up to 240 bits: values ≥ n must reduce identically
    // across every algorithm.
    let mut limbs = vec![0u32; 8];
    for l in limbs.iter_mut() {
        *l = rng.next_u32();
    }
    limbs[7] &= 0xFFFF; // 240 bits
    Int::from_limbs(false, limbs)
}

fn scalar_phase(config: &DiffConfig, report: &mut DiffReport, cases: Range<usize>) {
    if cases.is_empty() {
        return;
    }
    let g = curve::generator();
    let edges = scalar_edges();
    for case in cases {
        let mut rng = SplitMix64::substream(config.seed, SCALAR_DOMAIN, case as u64);
        let k = edges
            .get(case)
            .cloned()
            .unwrap_or_else(|| rand_scalar_wide(&mut rng));
        let reference = g.mul_binary(&k);
        let checks = [
            ("binary/wtnaf_w4", mul::mul_wtnaf(&g, &k, 4)),
            ("binary/tnaf", mul::mul_tnaf(&g, &k)),
            ("binary/kg_window", mul::mul_g(&k)),
            ("binary/ladder", mul::montgomery_ladder(&g, &k)),
        ];
        for (pair, got) in checks {
            let agreed = got == reference;
            report.record(pair, agreed);
            if !agreed {
                report.disagreements.push(Disagreement {
                    domain: "scalar",
                    pair: pair.to_string(),
                    case_index: case,
                    input: k.to_hex(),
                    detail: format!("point mismatch for k = {k}"),
                });
            }
        }
        // The recoding fixed-length invariant (satellite fix): no
        // scalar may change the digit count.
        let fixed = tnaf::recode(&k, 4).len() == tnaf::recode_length()
            && tnaf::recode(&k, 6).len() == tnaf::recode_length();
        report.record("recode/fixed_length", fixed);
        if !fixed {
            report.disagreements.push(Disagreement {
                domain: "scalar",
                pair: "recode/fixed_length".to_string(),
                case_index: case,
                input: k.to_hex(),
                detail: "recode length depends on the scalar".to_string(),
            });
        }
    }
}

// ---------------------------------------------------------------------
// Batch inversion and batch affine conversion.
// ---------------------------------------------------------------------

fn batch_phase(config: &DiffConfig, report: &mut DiffReport, cases: Range<usize>) {
    if cases.is_empty() {
        return;
    }
    let g = curve::generator();
    for case in cases {
        let mut rng = SplitMix64::substream(config.seed, BATCH_DOMAIN, case as u64);
        // Sizes sweep the empty batch, a singleton, then random widths.
        let len = match case {
            0 => 0,
            1 => 1,
            _ => 2 + rng.below(62) as usize,
        };
        let elems: Vec<Fe> = (0..len)
            .map(|_| {
                // ~10% zeros so the skip-in-place path is exercised.
                if rng.below(10) == 0 {
                    Fe::ZERO
                } else {
                    rand_fe(&mut rng)
                }
            })
            .collect();

        // Portable Montgomery batch vs pointwise inversion.
        let batch = gf2m::batch::batch_inverted(&elems);
        let agreed = elems.iter().zip(&batch).all(|(e, b)| match e.invert() {
            Some(inv) => *b == inv,
            None => b.is_zero(),
        });
        report.record("pointwise_inv/batch_inv", agreed);
        if !agreed {
            report.disagreements.push(Disagreement {
                domain: "batch",
                pair: "pointwise_inv/batch_inv".to_string(),
                case_index: case,
                input: format!("len {len}"),
                detail: "Montgomery batch disagrees with pointwise inversion".to_string(),
            });
        }

        // Counted tier: identical values, and the 1 + 3(N−1) formula.
        let counted_batch = gf2m::batch::batch_invert_counted(&elems);
        let nonzero = elems.iter().filter(|e| !e.is_zero()).count();
        let counts_ok = counted_batch.values == batch
            && counted_batch.inversions == u64::from(nonzero > 0)
            && counted_batch.muls as usize == 3 * nonzero.saturating_sub(1);
        report.record("batch_inv/batch_inv_counted", counts_ok);
        if !counts_ok {
            report.disagreements.push(Disagreement {
                domain: "batch",
                pair: "batch_inv/batch_inv_counted".to_string(),
                case_index: case,
                input: format!("len {len}, nonzero {nonzero}"),
                detail: format!(
                    "counted batch: {} inversions, {} muls",
                    counted_batch.inversions, counted_batch.muls
                ),
            });
        }

        // Curve layer: batch affine conversion vs per-point to_affine,
        // with the point at infinity mixed in.
        let points: Vec<koblitz::LdPoint> = (0..len.min(6))
            .map(|_| {
                if rng.below(8) == 0 {
                    koblitz::LdPoint::INFINITY
                } else {
                    mul::mul_wtnaf_proj(&g, &rand_scalar_wide(&mut rng), 4)
                }
            })
            .collect();
        let converted = koblitz::batch_to_affine(&points);
        let pointwise: Vec<_> = points.iter().map(|p| p.to_affine()).collect();
        let agreed = converted == pointwise;
        report.record("pointwise_affine/batch_affine", agreed);
        if !agreed {
            report.disagreements.push(Disagreement {
                domain: "batch",
                pair: "pointwise_affine/batch_affine".to_string(),
                case_index: case,
                input: format!("{} points", points.len()),
                detail: "batch affine conversion disagrees with to_affine".to_string(),
            });
        }

        // Bitsliced hybrid chunked inversion: the small batch above
        // (single ragged chunk, possibly empty) and a widened batch
        // spanning several 64-lane chunks plus a ragged tail, both
        // checked bit-for-bit against pointwise inversion. This calls
        // the bitsliced chain directly, so it holds regardless of the
        // crossover threshold.
        let mut widened_src = elems.clone();
        while widened_src.len() < len + 2 * bitsliced::LANES + 9 {
            widened_src.push(if rng.below(10) == 0 {
                Fe::ZERO
            } else {
                rand_fe(&mut rng)
            });
        }
        let mut small = elems.clone();
        bitsliced::invert_elements(&mut small);
        let mut widened = widened_src.clone();
        bitsliced::invert_elements(&mut widened);
        let small_ok = small == batch;
        let widened_ok = widened_src
            .iter()
            .zip(&widened)
            .all(|(src, got)| match src.invert() {
                Some(inv) => *got == inv,
                None => got.is_zero(),
            });
        let bits_agreed = small_ok && widened_ok;
        report.record("batch_inv/bitsliced_batch_inv", bits_agreed);
        if !bits_agreed {
            report.disagreements.push(Disagreement {
                domain: "batch",
                pair: "batch_inv/bitsliced_batch_inv".to_string(),
                case_index: case,
                input: format!("len {len} (widened {})", widened.len()),
                detail: "bitsliced chunked inversion disagrees with the scalar chain".to_string(),
            });
        }
    }
}

// ---------------------------------------------------------------------
// Wire frames.
// ---------------------------------------------------------------------

/// Stable variant label for the taxonomy map.
fn wire_error_label(e: &protocols::wire::WireError) -> &'static str {
    use protocols::wire::WireError::*;
    match e {
        BadPoint(_) => "BadPoint",
        IdentityPoint => "IdentityPoint",
        WrongOrder => "WrongOrder",
        BadScalar => "BadScalar",
        BadTag => "BadTag",
        BadLength { .. } => "BadLength",
        Oversize { .. } => "Oversize",
        Replayed { .. } => "Replayed",
    }
}

fn wire_phase(config: &DiffConfig, report: &mut DiffReport, cases: Range<usize>) {
    if cases.is_empty() {
        return;
    }
    let key = SigningKey::generate(b"verify differential wire identity");
    let pk_bytes = encode_public_key(key.public()).to_vec();
    let sig_bytes = encode_signature(&key.sign(b"wire differential message")).to_vec();
    let secret = [0x5au8; 32];
    let frame_bytes = SealedFrame::seal(&secret, 7, b"telemetry frame 0x2a")
        .as_bytes()
        .to_vec();

    for case in cases {
        let mut rng = SplitMix64::substream(config.seed, WIRE_DOMAIN, case as u64);
        let template: &[u8] = match case % 3 {
            0 => &pk_bytes,
            1 => &sig_bytes,
            _ => &frame_bytes,
        };
        let buf = mutate(template, &mut rng);

        match case % 3 {
            0 => {
                // Public key: slice decoder vs owned-array decoder.
                let slice = catch_unwind(AssertUnwindSafe(|| decode_public_key_slice(&buf)));
                let Ok(slice) = slice else {
                    report.wire_panics += 1;
                    continue;
                };
                tally(report, "pk", &slice);
                if let Ok(arr) = <&[u8; 31]>::try_from(buf.as_slice()) {
                    let owned = catch_unwind(AssertUnwindSafe(|| decode_public_key(arr)));
                    let Ok(owned) = owned else {
                        report.wire_panics += 1;
                        continue;
                    };
                    let agreed = owned == slice;
                    report.record("decode_pk_slice/decode_pk_owned", agreed);
                    if !agreed {
                        wire_disagree(report, case, &buf, "public-key decoders", |b| {
                            <&[u8; 31]>::try_from(b)
                                .map(|arr| decode_public_key(arr) != decode_public_key_slice(b))
                                .unwrap_or(false)
                        });
                    }
                } else {
                    // Wrong length must be the typed BadLength error.
                    let agreed = matches!(slice, Err(protocols::wire::WireError::BadLength { .. }));
                    report.record("decode_pk_slice/length_taxonomy", agreed);
                }
            }
            1 => {
                let slice = catch_unwind(AssertUnwindSafe(|| decode_signature_slice(&buf)));
                let Ok(slice) = slice else {
                    report.wire_panics += 1;
                    continue;
                };
                tally(report, "sig", &slice);
                if let Ok(arr) = <&[u8; 60]>::try_from(buf.as_slice()) {
                    let owned = catch_unwind(AssertUnwindSafe(|| decode_signature(arr)));
                    let Ok(owned) = owned else {
                        report.wire_panics += 1;
                        continue;
                    };
                    let agreed = owned == slice;
                    report.record("decode_sig_slice/decode_sig_owned", agreed);
                    if !agreed {
                        wire_disagree(report, case, &buf, "signature decoders", |b| {
                            <&[u8; 60]>::try_from(b)
                                .map(|arr| decode_signature(arr) != decode_signature_slice(b))
                                .unwrap_or(false)
                        });
                    }
                } else {
                    let agreed = matches!(slice, Err(protocols::wire::WireError::BadLength { .. }));
                    report.record("decode_sig_slice/length_taxonomy", agreed);
                }
            }
            _ => {
                // Sealed frame: parse, then authenticate. Both layers
                // must be panic-free; parse-then-open must agree with
                // parse-then-open on a reconstructed frame (owned
                // round-trip).
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    SealedFrame::from_bytes(&buf).and_then(|f| f.open(&secret))
                }));
                let Ok(outcome) = outcome else {
                    report.wire_panics += 1;
                    continue;
                };
                match &outcome {
                    Ok(_) => {
                        *report
                            .wire_taxonomy
                            .entry("frame/Accepted".into())
                            .or_insert(0) += 1
                    }
                    Err(e) => {
                        *report
                            .wire_taxonomy
                            .entry(format!("frame/{}", wire_error_label(e)))
                            .or_insert(0) += 1
                    }
                }
                // Owned round-trip: re-encoding a parsed frame and
                // re-parsing must be lossless and open identically.
                if let Ok(frame) = SealedFrame::from_bytes(&buf) {
                    let reparsed = SealedFrame::from_bytes(frame.as_bytes())
                        .expect("re-encoding a parsed frame always parses");
                    let agreed = reparsed.open(&secret) == outcome;
                    report.record("frame_parse/frame_roundtrip", agreed);
                    if !agreed {
                        wire_disagree(report, case, &buf, "frame round-trip", |_| false);
                    }
                } else {
                    report.record("frame_parse/frame_roundtrip", true);
                }
            }
        }
    }
}

fn tally<T>(report: &mut DiffReport, kind: &str, result: &Result<T, protocols::wire::WireError>) {
    let label = match result {
        Ok(_) => format!("{kind}/Accepted"),
        Err(e) => format!("{kind}/{}", wire_error_label(e)),
    };
    *report.wire_taxonomy.entry(label).or_insert(0) += 1;
}

fn wire_disagree(
    report: &mut DiffReport,
    case: usize,
    buf: &[u8],
    what: &str,
    still_fails: impl Fn(&[u8]) -> bool,
) {
    let shrunk = shrink::shrink_bytes(buf, still_fails);
    report.disagreements.push(Disagreement {
        domain: "wire",
        pair: what.to_string(),
        case_index: case,
        input: shrink::hex(&shrunk),
        detail: format!("{what} returned different results"),
    });
}

/// One random mutation of a template frame: truncation/extension,
/// bit flips, or byte substitutions (occasionally left intact so the
/// accepted path is also exercised).
fn mutate(template: &[u8], rng: &mut SplitMix64) -> Vec<u8> {
    let mut buf = template.to_vec();
    match rng.below(5) {
        0 => {
            // Truncate (possibly to empty).
            let len = rng.below(buf.len() as u64 + 1) as usize;
            buf.truncate(len);
        }
        1 => {
            // Extend with random bytes.
            let extra = rng.below(16) as usize + 1;
            for _ in 0..extra {
                buf.push(rng.next_u32() as u8);
            }
        }
        2 if !buf.is_empty() => {
            // Flip 1–4 random bits.
            for _ in 0..rng.below(4) + 1 {
                let i = rng.below(buf.len() as u64) as usize;
                buf[i] ^= 1 << rng.below(8);
            }
        }
        3 if !buf.is_empty() => {
            // Substitute a random byte.
            let i = rng.below(buf.len() as u64) as usize;
            buf[i] = rng.next_u32() as u8;
        }
        _ => {} // intact
    }
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_agrees_everywhere() {
        let cfg = DiffConfig {
            seed: 1,
            field_cases: 24,
            scalar_cases: 14,
            wire_cases: 60,
            batch_cases: 6,
            target: m0plus::target::default_target(),
        };
        let report = run(&cfg);
        assert!(report.ok(), "{}", report.render());
        assert!(report.pairs.iter().all(|p| p.disagreements == 0));
        // Every named pair saw every case of its domain.
        let find = |name: &str| {
            report
                .pairs
                .iter()
                .find(|p| p.pair == name)
                .unwrap_or_else(|| panic!("missing pair {name}"))
                .cases
        };
        assert_eq!(find("portable/generic_u64"), 24);
        assert_eq!(find("portable/counted_ld"), 24);
        assert_eq!(find("portable/modeled_direct"), 24);
        assert_eq!(find("modeled_direct/modeled_code_cycles"), 24);
        assert_eq!(find("portable/bitsliced"), 24);
        assert_eq!(find("counted/bitsliced"), 24);
        assert_eq!(find("binary/wtnaf_w4"), 14);
        assert_eq!(find("binary/ladder"), 14);
        assert_eq!(find("recode/fixed_length"), 14);
        assert_eq!(find("pointwise_inv/batch_inv"), 6);
        assert_eq!(find("batch_inv/batch_inv_counted"), 6);
        assert_eq!(find("pointwise_affine/batch_affine"), 6);
        assert_eq!(find("batch_inv/bitsliced_batch_inv"), 6);
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = DiffConfig {
            seed: 99,
            field_cases: 10,
            scalar_cases: 13,
            wire_cases: 40,
            batch_cases: 5,
            target: m0plus::target::default_target(),
        };
        assert_eq!(run(&cfg).render(), run(&cfg).render());
    }

    #[test]
    fn windowed_runs_merge_to_the_full_report() {
        let cfg = DiffConfig {
            seed: 5,
            field_cases: 20,
            scalar_cases: 13,
            wire_cases: 33,
            batch_cases: 5,
            target: m0plus::target::default_target(),
        };
        let baseline = run(&cfg).render();
        let total = total_cases(&cfg);
        for shards in [2usize, 3, 7] {
            // Contiguous balanced windows, like bench::shard::windows.
            let mut parts = Vec::new();
            let mut start = 0;
            for i in 0..shards {
                let len = total / shards + usize::from(i < total % shards);
                parts.push(run_window(&cfg, start..start + len));
                start += len;
            }
            assert_eq!(start, total);
            assert_eq!(merge(&cfg, parts).render(), baseline, "shards = {shards}");
        }
    }

    #[test]
    fn scalar_edges_cover_the_required_cases() {
        let edges = scalar_edges();
        let n = curve::order();
        assert!(edges.iter().any(|k| k.is_zero()));
        assert!(edges.contains(&(&n - &Int::one())));
        assert!(edges.contains(&n));
        assert!(edges.iter().any(|k| k.bits() == 233), "top-bit-set");
    }

    #[test]
    fn wire_taxonomy_is_populated() {
        let cfg = DiffConfig {
            seed: 3,
            field_cases: 0,
            scalar_cases: 0,
            wire_cases: 120,
            batch_cases: 0,
            target: m0plus::target::default_target(),
        };
        let report = run(&cfg);
        assert!(report.ok(), "{}", report.render());
        assert!(report.wire_panics == 0);
        // Truncations dominate: BadLength must appear for all three
        // formats; the intact path must also have been exercised.
        assert!(report.wire_taxonomy.keys().any(|k| k.contains("BadLength")));
        assert!(
            report.wire_taxonomy.keys().any(|k| k.contains("Accepted")),
            "{:?}",
            report.wire_taxonomy
        );
    }
}
