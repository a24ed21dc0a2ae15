//! Property tests for the 64-lane bitsliced backend: lane independence
//! under corruption, zero/duplicate/all-zero lane patterns, and
//! crossover-seam equivalence — all with the in-tree deterministic
//! PRNG, so every failure is a seed away from a reproduction.

use gf2m::bitsliced::{self, batch_inv_chunks, transpose_in, BitslicedBatch, CROSSOVER, LANES};
use gf2m::{batch, Fe, N, TOP_MASK};
use prng::SplitMix64;

const SEED: u64 = 0xb17_51ced;

fn random_fe(rng: &mut SplitMix64) -> Fe {
    let mut w = [0u32; N];
    rng.fill_u32(&mut w);
    w[N - 1] &= TOP_MASK;
    Fe::try_from_words(w).expect("masked words are reduced")
}

/// A full batch of random elements, with a sprinkling of zeros and
/// duplicates so the edge lanes are always represented.
fn random_lanes(rng: &mut SplitMix64) -> Vec<Fe> {
    let mut lanes: Vec<Fe> = (0..LANES).map(|_| random_fe(rng)).collect();
    for lane in lanes.iter_mut() {
        if rng.ratio(1, 10) {
            *lane = Fe::ZERO;
        }
    }
    // Duplicate one lane into another (possibly itself).
    let from = rng.below(LANES as u64) as usize;
    let to = rng.below(LANES as u64) as usize;
    lanes[to] = lanes[from];
    lanes
}

/// Corrupting lane `i` must leave every other lane's `mul`, `sqr` and
/// `batch_inv` result untouched: in lane space each bit position is an
/// independent dataflow, and this pins that down against any future
/// "optimisation" that would let lanes bleed into each other.
#[test]
fn corrupting_one_lane_leaves_the_others_alone() {
    let mut rng = SplitMix64::substream(SEED, 1, 0);
    for case in 0..8u64 {
        let xs = random_lanes(&mut rng);
        let ys = random_lanes(&mut rng);
        let bx = transpose_in(&xs);
        let by = transpose_in(&ys);
        let base_mul = bx.mul(&by);
        let base_sqr = bx.sqr();
        let base_inv = bx.batch_inv();

        let victim = rng.below(LANES as u64) as usize;
        let corruption = if rng.ratio(1, 4) {
            Fe::ZERO
        } else {
            random_fe(&mut rng)
        };
        let mut corrupted = bx;
        corrupted.set_lane(victim, corruption);

        let got_mul = corrupted.mul(&by);
        let got_sqr = corrupted.sqr();
        let got_inv = corrupted.batch_inv();
        for j in 0..LANES {
            if j == victim {
                continue;
            }
            assert_eq!(
                got_mul.lane(j),
                base_mul.lane(j),
                "case {case} mul lane {j}"
            );
            assert_eq!(
                got_sqr.lane(j),
                base_sqr.lane(j),
                "case {case} sqr lane {j}"
            );
            assert_eq!(
                got_inv.lane(j),
                base_inv.lane(j),
                "case {case} inv lane {j}"
            );
        }
        // And the victim lane itself now carries the corrupted value's
        // results, not a mix of old and new.
        assert_eq!(got_mul.lane(victim), corruption * ys[victim], "case {case}");
        assert_eq!(got_sqr.lane(victim), corruption.square(), "case {case}");
    }
}

#[test]
fn every_lane_matches_the_portable_op() {
    let mut rng = SplitMix64::substream(SEED, 2, 0);
    for case in 0..8u64 {
        let xs = random_lanes(&mut rng);
        let ys = random_lanes(&mut rng);
        let bx = transpose_in(&xs);
        let by = transpose_in(&ys);
        let mul = bx.mul(&by);
        let sqr = bx.sqr();
        let inv = bx.batch_inv();
        for j in 0..LANES {
            assert_eq!(mul.lane(j), xs[j] * ys[j], "case {case} mul lane {j}");
            assert_eq!(sqr.lane(j), xs[j].square(), "case {case} sqr lane {j}");
            let want = xs[j].invert().unwrap_or(Fe::ZERO);
            assert_eq!(inv.lane(j), want, "case {case} inv lane {j}");
        }
    }
}

#[test]
fn duplicate_lanes_stay_in_lockstep() {
    let mut rng = SplitMix64::substream(SEED, 3, 0);
    let value = random_fe(&mut rng);
    let lanes = vec![value; LANES];
    let b = transpose_in(&lanes);
    let inv = b.batch_inv();
    let sq = b.sqr();
    let want_inv = value.invert().unwrap_or(Fe::ZERO);
    for j in 0..LANES {
        assert_eq!(inv.lane(j), want_inv, "lane {j}");
        assert_eq!(sq.lane(j), value.square(), "lane {j}");
    }
}

#[test]
fn all_zero_batches_are_fixed_points() {
    let zero = BitslicedBatch::ZERO;
    assert_eq!(zero.nonzero_lanes(), 0);
    assert_eq!(zero.sqr(), zero);
    assert_eq!(zero.batch_inv(), zero);
    let mut rng = SplitMix64::substream(SEED, 4, 0);
    let other = transpose_in(&random_lanes(&mut rng));
    assert_eq!(zero.mul(&other), zero);
    assert_eq!(other.mul(&zero), zero);

    // The chunked chain on all-zero chunks is also the identity.
    let mut chunks = vec![zero; 3];
    batch_inv_chunks(&mut chunks);
    assert!(chunks.iter().all(|c| c.nonzero_lanes() == 0));
}

/// The chunked lane-space Montgomery chain (pure Itoh–Tsujii final
/// inversion) agrees with per-element portable inversion, zeros
/// included, across several chunk counts.
#[test]
fn chunked_inversion_matches_pointwise() {
    let mut rng = SplitMix64::substream(SEED, 5, 0);
    for chunk_count in [1usize, 2, 3] {
        let elems: Vec<Fe> = (0..chunk_count * LANES)
            .map(|i| {
                let e = random_fe(&mut rng);
                if i % 13 == 0 {
                    Fe::ZERO
                } else {
                    e
                }
            })
            .collect();
        let mut chunks: Vec<BitslicedBatch> = elems.chunks(LANES).map(transpose_in).collect();
        batch_inv_chunks(&mut chunks);
        for (i, e) in elems.iter().enumerate() {
            let got = chunks[i / LANES].lane(i % LANES);
            let want = e.invert().unwrap_or(Fe::ZERO);
            assert_eq!(got, want, "chunks {chunk_count}, element {i}");
        }
    }
}

/// `batch::batch_invert` must produce bit-identical results to the
/// scalar Montgomery chain, for lengths straddling the crossover
/// (including ragged final chunks and interior zeros).
#[test]
fn crossover_seam_is_value_invariant() {
    let mut rng = SplitMix64::substream(SEED, 6, 0);
    for len in [
        0usize,
        1,
        CROSSOVER - 1,
        CROSSOVER,
        CROSSOVER + 1,
        CROSSOVER + LANES / 2,
        3 * CROSSOVER + 7,
    ] {
        let mut elems: Vec<Fe> = (0..len).map(|_| random_fe(&mut rng)).collect();
        for e in elems.iter_mut() {
            if rng.ratio(1, 16) {
                *e = Fe::ZERO;
            }
        }
        let mut scalar = elems.clone();
        batch::scalar_invert(&mut scalar);
        let mut fast = elems.clone();
        batch::batch_invert(&mut fast);
        assert_eq!(scalar, fast, "len {len}");

        // The direct backend entry point agrees too.
        let mut direct = elems;
        bitsliced::invert_elements(&mut direct);
        assert_eq!(scalar, direct, "len {len} (direct)");
    }
}
