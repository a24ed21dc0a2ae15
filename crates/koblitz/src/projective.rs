//! López-Dahab projective coordinates (x = X/Z, y = Y/Z²).
//!
//! The coordinate system of the paper's implementations: point doubling
//! costs 3M + 5S, mixed LD+affine addition 7M + 4S (a = 0, b = 1), the
//! Frobenius map 3S, and converting back to affine costs one inversion —
//! the single inversion that the paper's Table 7 charges per point
//! multiplication.

use crate::curve::Affine;
use gf2m::Fe;

/// A point in López-Dahab projective coordinates. `Z = 0` encodes the
/// point at infinity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LdPoint {
    /// X coordinate (x = X/Z).
    pub x: Fe,
    /// Y coordinate (y = Y/Z²).
    pub y: Fe,
    /// Projective denominator.
    pub z: Fe,
}

impl LdPoint {
    /// The point at infinity.
    pub const INFINITY: LdPoint = LdPoint {
        x: Fe::ONE,
        y: Fe::ZERO,
        z: Fe::ZERO,
    };

    /// Lifts an affine point (Z = 1).
    pub fn from_affine(p: &Affine) -> LdPoint {
        match *p {
            Affine::Infinity => LdPoint::INFINITY,
            Affine::Point { x, y } => LdPoint { x, y, z: Fe::ONE },
        }
    }

    /// Whether this encodes the point at infinity.
    pub fn is_infinity(&self) -> bool {
        self.z.is_zero()
    }

    /// Converts back to affine: x = X·Z⁻¹, y = Y·(Z⁻¹)². This is the
    /// one place a point multiplication pays a field inversion.
    pub fn to_affine(self) -> Affine {
        if self.is_infinity() {
            return Affine::Infinity;
        }
        let zi = self.z.invert().expect("finite point has Z != 0");
        let x = self.x * zi;
        let y = self.y * zi.square();
        Affine::Point { x, y }
    }

    /// Point doubling, LD coordinates, a = 0, b = 1
    /// (Guide to ECC Alg. 3.24 specialised): 3M + 5S.
    #[must_use]
    pub fn double(&self) -> LdPoint {
        if self.is_infinity() {
            return *self;
        }
        let t1 = self.z.square(); // Z1²
        let t2 = self.x.square(); // X1²
        let z3 = t1 * t2; // X1²·Z1²
        let x2sq = t2.square(); // X1⁴
        let bz4 = t1.square(); // b·Z1⁴ (b = 1)
        let x3 = x2sq + bz4;
        if x3.is_zero() {
            // The doubled point is 2-torsion-adjacent: X3 = 0 means the
            // result is the point (0, √b) or infinity on the next step;
            // the formulas remain valid, keep going.
        }
        let y1sq = self.y.square();
        // Y3 = b·Z1⁴·Z3 + X3·(a·Z3 + Y1² + b·Z1⁴), a = 0.
        let y3 = bz4 * z3 + x3 * (y1sq + bz4);
        LdPoint {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Mixed addition: `self` (LD) + `other` (affine), a = 0
    /// (Guide to ECC Alg. 3.25 specialised): 7M + 4S.
    ///
    /// Falls back to doubling / infinity handling for the degenerate
    /// cases (P = ±Q, either infinity).
    #[must_use]
    pub fn add_affine(&self, other: &Affine) -> LdPoint {
        let (x2, y2) = match *other {
            Affine::Infinity => return *self,
            Affine::Point { x, y } => (x, y),
        };
        if self.is_infinity() {
            return LdPoint::from_affine(other);
        }
        let z1sq = self.z.square();
        let a = self.y + y2 * z1sq; // A = Y1 + y2·Z1²
        let b = self.x + x2 * self.z; // B = X1 + x2·Z1
        if b.is_zero() {
            // x-coordinates match: either P = Q (A = 0 → double) or
            // P = −Q (→ infinity).
            return if a.is_zero() {
                self.double()
            } else {
                LdPoint::INFINITY
            };
        }
        let c = self.z * b; // C = Z1·B
        let z3 = c.square();
        let d = b.square() * c; // D = B²·(C + a·Z1²), a = 0
        let e = a * c;
        let x3 = a.square() + d + e;
        let f = x3 + x2 * z3;
        let g = (x2 + y2) * z3.square();
        let y3 = (e + z3) * f + g;
        LdPoint {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// The Frobenius endomorphism in LD coordinates:
    /// (X, Y, Z) → (X², Y², Z²) — three squarings, no multiplication.
    #[must_use]
    pub fn frobenius(&self) -> LdPoint {
        LdPoint {
            x: self.x.square(),
            y: self.y.square(),
            z: self.z.square(),
        }
    }

    /// Point negation: −(X, Y, Z) = (X, X·Z + Y, Z). Costs 1M.
    #[must_use]
    pub fn negated(&self) -> LdPoint {
        LdPoint {
            x: self.x,
            y: self.x * self.z + self.y,
            z: self.z,
        }
    }
}

impl From<Affine> for LdPoint {
    fn from(p: Affine) -> LdPoint {
        LdPoint::from_affine(&p)
    }
}

/// Converts a batch of LD points to affine with **one** field inversion
/// total (Montgomery's trick, [`gf2m::batch::batch_invert`]): points at
/// infinity come out as [`Affine::Infinity`] and do not disturb their
/// neighbours.
///
/// This is the throughput path: N conversions cost 1 inversion +
/// 3(N−1) + 2N multiplications instead of N inversions + 2N
/// multiplications, and inversion is ~28× a multiplication on the
/// modeled tier (Table 7). Batches of at least
/// [`gf2m::bitsliced::CROSSOVER`] points additionally run both the
/// inversion and the coordinate products through the 64-lane bitsliced
/// backend (same values, fewer host cycles).
pub fn batch_to_affine(points: &[LdPoint]) -> Vec<Affine> {
    let mut zs: Vec<Fe> = points.iter().map(|p| p.z).collect();
    gf2m::batch::batch_invert(&mut zs);
    if points.len() >= gf2m::bitsliced::CROSSOVER {
        return finish_affine_bitsliced(points, &zs);
    }
    points
        .iter()
        .zip(&zs)
        .map(|(p, &zi)| {
            if zi.is_zero() {
                Affine::Infinity
            } else {
                Affine::Point {
                    x: p.x * zi,
                    y: p.y * zi.square(),
                }
            }
        })
        .collect()
}

/// The coordinate products of [`batch_to_affine`] in lane space: per
/// 64-point chunk, two bitsliced multiplications and one bitsliced
/// squaring (x·Z⁻¹, (Z⁻¹)², y·(Z⁻¹)²) replace 3·64 portable
/// multiplications and 64 squarings. Infinity points have Z⁻¹ = 0
/// (the zero-aware batch inversion keeps zeros in place), their lanes
/// multiply to zero, and the assembly step maps them back to
/// [`Affine::Infinity`] — the values of the finite points are
/// bit-identical to the portable path.
fn finish_affine_bitsliced(points: &[LdPoint], zis: &[Fe]) -> Vec<Affine> {
    use gf2m::bitsliced::{transpose_in, MulScratch, LANES};
    let mut out = Vec::with_capacity(points.len());
    let mut ws = MulScratch::new();
    for (pts, zi) in points.chunks(LANES).zip(zis.chunks(LANES)) {
        let xs: Vec<Fe> = pts.iter().map(|p| p.x).collect();
        let ys: Vec<Fe> = pts.iter().map(|p| p.y).collect();
        let bzi = transpose_in(zi);
        let ax = transpose_in(&xs)
            .mul_with(&bzi, &mut ws)
            .transpose_out(pts.len());
        let ay = transpose_in(&ys)
            .mul_with(&bzi.sqr(), &mut ws)
            .transpose_out(pts.len());
        for ((zi, x), y) in zi.iter().zip(ax).zip(ay) {
            out.push(if zi.is_zero() {
                Affine::Infinity
            } else {
                Affine::Point { x, y }
            });
        }
    }
    out
}

/// Cost breakdown of one counted-tier batch affine conversion.
#[derive(Debug, Clone, Default)]
pub struct CountedBatchConversion {
    /// The affine points, identical to [`batch_to_affine`].
    pub points: Vec<Affine>,
    /// Operations spent inside the (single) EEA inversion.
    pub inv: gf2m::Tally,
    /// Operations spent in multiplications (Montgomery sweep plus the
    /// 3 per-point coordinate products x·Z⁻¹, (Z⁻¹)², y·(Z⁻¹)²).
    pub mul: gf2m::Tally,
    /// Field inversions performed.
    pub inversions: u64,
    /// Field multiplications performed.
    pub muls: u64,
}

impl CountedBatchConversion {
    /// Total tally (inversion + multiplications).
    pub fn total(&self) -> gf2m::Tally {
        self.inv.plus(self.mul)
    }
}

/// [`batch_to_affine`] on the counted tier: the same values, with the
/// inversion and multiplication costs tallied separately so the
/// amortisation claim can be checked against per-point
/// [`gf2m::counted::inv_eea`] conversions.
pub fn batch_to_affine_counted(points: &[LdPoint]) -> CountedBatchConversion {
    let zs: Vec<Fe> = points.iter().map(|p| p.z).collect();
    let batch = gf2m::batch::batch_invert_counted(&zs);
    let mut out = CountedBatchConversion {
        inv: batch.inv,
        mul: batch.mul,
        inversions: batch.inversions,
        muls: batch.muls,
        ..CountedBatchConversion::default()
    };
    let mut cmul = |a: Fe, b: Fe| {
        let p = gf2m::counted::mul_ld_fixed(a, b);
        out.mul = out.mul.plus(p.total());
        out.muls += 1;
        p.value
    };
    out.points = points
        .iter()
        .zip(&batch.values)
        .map(|(p, &zi)| {
            if zi.is_zero() {
                Affine::Infinity
            } else {
                let x = cmul(p.x, zi);
                let zi2 = cmul(zi, zi);
                let y = cmul(p.y, zi2);
                Affine::Point { x, y }
            }
        })
        .collect();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::generator;
    use crate::int::Int;

    fn multiple(k: i64) -> Affine {
        generator().mul_binary(&Int::from(k))
    }

    #[test]
    fn roundtrip_affine() {
        let g = generator();
        assert_eq!(LdPoint::from_affine(&g).to_affine(), g);
        assert_eq!(
            LdPoint::from_affine(&Affine::Infinity).to_affine(),
            Affine::Infinity
        );
    }

    #[test]
    fn double_matches_affine() {
        for k in 1..20i64 {
            let p = multiple(k);
            let got = LdPoint::from_affine(&p).double().to_affine();
            assert_eq!(got, p.double(), "2·({k}G)");
        }
    }

    #[test]
    fn mixed_add_matches_affine() {
        for k in 1..15i64 {
            let p = multiple(k);
            let q = multiple(k + 17);
            let got = LdPoint::from_affine(&p).add_affine(&q).to_affine();
            assert_eq!(got, p.add(&q), "{k}G + {}G", k + 17);
        }
    }

    #[test]
    fn mixed_add_degenerate_cases() {
        let g = generator();
        let gp = LdPoint::from_affine(&g);
        // P + P → doubling path.
        assert_eq!(gp.add_affine(&g).to_affine(), g.double());
        // P + (−P) → infinity.
        assert!(gp.add_affine(&g.negated()).is_infinity());
        // P + O and O + P.
        assert_eq!(gp.add_affine(&Affine::Infinity).to_affine(), g);
        assert_eq!(LdPoint::INFINITY.add_affine(&g).to_affine(), g);
    }

    #[test]
    fn add_after_double_has_nontrivial_z() {
        // Exercise the mixed addition with Z1 ≠ 1.
        let g = generator();
        let p5 = multiple(5);
        let acc = LdPoint::from_affine(&g).double().double(); // 4G, Z != 1
        assert_eq!(acc.add_affine(&p5).to_affine(), multiple(9));
    }

    #[test]
    fn frobenius_matches_affine_frobenius() {
        let p = multiple(7);
        let acc = LdPoint::from_affine(&generator()).double().add_affine(&p); // Z != 1
        let via_ld = acc.frobenius().to_affine();
        let via_affine = acc.to_affine().frobenius();
        assert_eq!(via_ld, via_affine);
    }

    #[test]
    fn negation_matches_affine() {
        let p = multiple(11);
        let acc = LdPoint::from_affine(&p).double(); // Z != 1
        assert_eq!(acc.negated().to_affine(), acc.to_affine().negated());
        assert!(LdPoint::INFINITY.negated().is_infinity());
    }

    #[test]
    fn batch_to_affine_matches_pointwise() {
        // A mix of Z = 1, Z ≠ 1 and infinity points.
        let mut pts = vec![LdPoint::INFINITY];
        for k in 1..20i64 {
            let mut p = LdPoint::from_affine(&multiple(k));
            for _ in 0..(k % 4) {
                p = p.double(); // scrub Z away from 1
            }
            pts.push(p);
            if k % 7 == 0 {
                pts.push(LdPoint::INFINITY);
            }
        }
        let batch = batch_to_affine(&pts);
        assert_eq!(batch.len(), pts.len());
        for (i, (b, p)) in batch.iter().zip(&pts).enumerate() {
            assert_eq!(*b, p.to_affine(), "point {i}");
        }
        // Counted tier produces identical points.
        let counted = batch_to_affine_counted(&pts);
        assert_eq!(counted.points, batch);
        assert_eq!(counted.inversions, 1);
    }

    #[test]
    fn batch_to_affine_empty_and_all_infinity() {
        assert!(batch_to_affine(&[]).is_empty());
        let all_inf = batch_to_affine(&[LdPoint::INFINITY; 3]);
        assert!(all_inf.iter().all(Affine::is_infinity));
        let counted = batch_to_affine_counted(&[LdPoint::INFINITY; 3]);
        assert_eq!(counted.inversions, 0);
        assert_eq!(counted.muls, 0);
    }

    #[test]
    fn batch_of_64_points_spends_an_eighth_of_the_inversion_cycles() {
        // Acceptance criterion: batch affine conversion of 64 points on
        // the counted tier spends ≤ 1/8 the inversion cycles of 64
        // individual inversions.
        let pts: Vec<LdPoint> = (1..=64i64)
            .map(|k| LdPoint::from_affine(&multiple(k)).double())
            .collect();
        let batch = batch_to_affine_counted(&pts);
        let individual: u64 = pts
            .iter()
            .map(|p| gf2m::counted::inv_eea(p.z).unwrap().tally.cycles())
            .sum();
        assert!(
            batch.inv.cycles() * 8 <= individual,
            "batch inversion cycles {} vs 1/8 bound {}",
            batch.inv.cycles(),
            individual / 8
        );
        // The full batch conversion (inversion + all multiplications)
        // still costs less than the inversions alone of the one-by-one
        // path.
        assert!(batch.total().cycles() < individual);
    }

    #[test]
    fn chained_operations_stay_on_curve() {
        let g = generator();
        let mut acc = LdPoint::from_affine(&g);
        for k in 2..12i64 {
            acc = acc.double().add_affine(&multiple(k));
            assert!(acc.to_affine().is_on_curve(), "step {k}");
        }
    }
}
