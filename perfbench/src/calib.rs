//! Host-speed calibration.
//!
//! The host this benchmark was built on shares its cores with other
//! guests, and its speed swings by up to 2x for seconds at a time. Two
//! fixed loops, owned by the benchmark and calling none of the library,
//! are timed between the measured units of work (after every tick,
//! before every kernel job, every few fault replays). Each stretch of
//! measured host time is scaled by `REFERENCE_NS / the calibration time
//! next to it`, so host-time metrics read as they would on the host at
//! its reference speed. Raw figures are printed beside the scaled ones.
//!
//! The two loops bracket the workloads. [`lanes`] has high
//! instruction-level parallelism and slows down more than the protocol
//! code when a sibling hardware thread gets busy; [`comb_chain`], a
//! dependent chain of GF(2^233) multiplications, slows down less. Over
//! 90 s of a busy host, sign, verify and ECDH times went as the lanes
//! loop's time to the power 0.59–0.72, the chain's to the power 1.6–1.9
//! and their geometric mean's to the power 0.88–1.08; the scatter of an
//! operation's time over the calibration fell from 0.09–0.12 (lanes
//! alone) to 0.025–0.031 (log units). A [`sample`] is that geometric
//! mean. The M0+ model's own loops differ: its Direct interpreter tracks
//! the lanes loop ([`sample_lanes`]) and its kernel replays track the
//! chain ([`sample_comb`]).

use std::hint::black_box;
use std::time::Instant;

/// Calibration time at the reference speed, ns. A unit rather than a
/// measurement: scaled figures read as if a sample had taken exactly
/// this long. It is about the median sample on a 2-vCPU Intel Xeon
/// guest with busy sibling threads.
pub const REFERENCE_NS: f64 = 100_000.0;

/// The [`lanes`] loop's time at the reference speed, ns: its median on
/// a 2-vCPU Intel Xeon guest when the sibling threads are idle.
pub const LANES_REFERENCE_NS: f64 = 65_000.0;

/// The [`comb_chain`]'s time at the reference speed, ns: chosen so that
/// the geometric mean of the two references is [`REFERENCE_NS`].
pub const COMB_REFERENCE_NS: f64 = REFERENCE_NS * REFERENCE_NS / LANES_REFERENCE_NS;

/// Eight independent xorshift-multiply lanes over a 16 KiB table. The
/// starting lanes pass through `black_box`, so that no call is folded
/// or hoisted out of a timing loop.
pub fn lanes() -> u64 {
    let mut table = [0u32; 4096];
    let mut lanes = black_box([
        0x9e37_79b9u32,
        0x7f4a_7c15,
        0x85eb_ca6b,
        0xc2b2_ae35,
        0x27d4_eb2f,
        0x1656_67b1,
        0xd3a2_646c,
        0xfd70_46c5,
    ]);
    for i in 0..6000u32 {
        for lane in &mut lanes {
            let x = *lane;
            let y = x ^ (x << 13) ^ (x >> 17) ^ i;
            let j = (y & 4095) as usize;
            table[j] = table[j].wrapping_add(y).rotate_left(3);
            *lane = y.wrapping_mul(0x2545_f491) ^ table[(x >> 20) as usize];
        }
    }
    table
        .iter()
        .fold(0u64, |a, &v| a.wrapping_add(u64::from(v)))
}

/// 32-bit words of a GF(2^233) element.
const WORDS: usize = 8;

/// x·y in GF(2^233) = GF(2)[z] / (z^233 + z^74 + 1), by a left-to-right
/// comb over 4-bit windows with a 16-entry table of multiples of y.
// Rows 2u and 2u + 1 of the table are written from row u of the same
// array, so the table loop indexes rather than iterating one row.
#[allow(clippy::needless_range_loop)]
pub fn comb_mul(x: &[u32; WORDS], y: &[u32; WORDS]) -> [u32; WORDS] {
    // table[u] = u(z)·y(z), one word wider than y to hold the shifts.
    let mut table = [[0u32; WORDS + 1]; 16];
    table[1][..WORDS].copy_from_slice(y);
    for u in 1..8 {
        let mut carry = 0;
        for l in 0..=WORDS {
            let w = table[u][l];
            table[2 * u][l] = (w << 1) | carry;
            carry = w >> 31;
            table[2 * u + 1][l] = table[2 * u][l] ^ table[1][l];
        }
    }
    let mut c = [0u32; 2 * WORDS];
    for k in (0..8).rev() {
        for (j, &xw) in x.iter().enumerate() {
            let row = &table[((xw >> (4 * k)) & 15) as usize];
            for (l, &t) in row.iter().enumerate() {
                if j + l < 2 * WORDS {
                    c[j + l] ^= t;
                }
            }
        }
        if k != 0 {
            for i in (1..2 * WORDS).rev() {
                c[i] = (c[i] << 4) | (c[i - 1] >> 28);
            }
            c[0] <<= 4;
        }
    }
    // z^(233 + e) = z^e + z^(74 + e), a word of high bits at a time.
    for i in (WORDS..2 * WORDS).rev() {
        let t = c[i];
        c[i - 8] ^= t << 23;
        c[i - 7] ^= t >> 9;
        c[i - 5] ^= t << 1;
        c[i - 4] ^= t >> 31;
    }
    let t = c[7] >> 9;
    c[0] ^= t;
    c[2] ^= t << 10;
    c[3] ^= t >> 22;
    c[7] &= 0x1ff;
    let mut out = [0u32; WORDS];
    out.copy_from_slice(&c[..WORDS]);
    out
}

/// A dependent chain of 75 multiplications and 75 squarings (by
/// [`comb_mul`]), each on the previous result. The inputs pass through
/// `black_box`, as in [`lanes`].
pub fn comb_chain() -> u32 {
    let b = black_box([
        0x1357_9bdf,
        0x2468_ace0,
        0x0f1e_2d3c,
        0x4b5a_6978,
        0x8796_a5b4,
        0xc3d2_e1f0,
        0x0123_4567,
        0x0000_01ab,
    ]);
    let mut a = black_box([1u32, 0, 0, 0, 0, 0, 0, 0]);
    for _ in 0..75 {
        a = comb_mul(&a, &b);
        a = comb_mul(&a, &a);
    }
    a.iter().fold(0, |s, &w| s ^ w)
}

fn time_ns(f: fn() -> u64) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_nanos().max(1) as f64
}

/// Times one [`lanes`] loop, in the units of [`sample`] (so that
/// [`REFERENCE_NS`] is the reference speed of every sample kind).
/// Runs of the M0+ model on `Backend::Direct` track it best: over 75 s
/// of a busy host their time went as the lanes loop's to the power
/// 0.81–0.86 and as [`sample`]'s to 1.35–1.38.
pub fn sample_lanes() -> u64 {
    (time_ns(lanes) * REFERENCE_NS / LANES_REFERENCE_NS) as u64
}

/// Times one [`comb_chain`], in the units of [`sample`]. Replays of
/// recorded kernels (the fault replays) track it best: their time went
/// as the chain's to the power 1.14, with a scatter of 0.046 against
/// 0.069 over [`sample`] and 0.061 raw (log units).
pub fn sample_comb() -> u64 {
    (time_ns(|| u64::from(comb_chain())) * REFERENCE_NS / COMB_REFERENCE_NS) as u64
}

/// Times one calibration sample for protocol code, ns: the geometric
/// mean of one [`lanes`] loop's and one [`comb_chain`]'s times.
pub fn sample() -> u64 {
    (sample_lanes() as f64 * sample_comb() as f64).sqrt() as u64
}

/// The factor turning host time measured next to a calibration of
/// `calib_ns` into reference-speed time.
pub fn scale(calib_ns: u64) -> f64 {
    REFERENCE_NS / calib_ns as f64
}

/// Neighbouring samples on each side that [`smoothed_scales`] takes the
/// median over.
pub const SMOOTHING_RADIUS: usize = 4;

/// Scales for a series of calibration samples taken in time order:
/// each is the reference over the median of the samples within
/// `radius` of it, so one loop that was preempted moves no scale while
/// a change of host speed lasting a few samples still does.
pub fn smoothed_scales(samples: &[u64], radius: usize) -> Vec<f64> {
    (0..samples.len())
        .map(|i| {
            let lo = i.saturating_sub(radius);
            let hi = (i + radius + 1).min(samples.len());
            let window: Vec<f64> = samples[lo..hi].iter().map(|&c| c as f64).collect();
            REFERENCE_NS / crate::report::median(&window)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comb_mul_is_the_field_product() {
        let mut x = [0u32; WORDS];
        let mut y = [0u32; WORDS];
        for i in 0..WORDS {
            x[i] = 0x9e37_79b9u32.wrapping_mul(i as u32 + 1);
            y[i] = 0x85eb_ca6bu32.rotate_left(i as u32 * 5);
        }
        x[7] &= 0x1ff;
        y[7] &= 0x1ff;
        let want = gf2m::Fe::from_words_reduced(x).mul(gf2m::Fe::from_words_reduced(y));
        assert_eq!(&comb_mul(&x, &y), want.words());
    }

    #[test]
    fn smoothing_ignores_one_outlier_and_follows_a_speed_change() {
        let reference = REFERENCE_NS as u64;
        let mut samples = vec![reference; 10];
        samples[3] = 5 * reference;
        samples.extend([2 * reference; 10]);
        let scales = smoothed_scales(&samples, 2);
        assert_eq!(scales[3], 1.0);
        assert_eq!(scales[19], 0.5);
    }
}
