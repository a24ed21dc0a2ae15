//! The traced run's layer pass for the service layers.
//!
//! After the traced traffic, the pass sends the run's recorded operands
//! through each lower layer's public entry point, one span per call,
//! with the originating request's `(client, seq)` as parent. Each
//! request's calls sit inside a `request` span, so that span's self time
//! is the pass's own bookkeeping.
//!
//! Calls shorter than the clock's resolution (field multiply and
//! square) are timed in blocks of [`FIELD_BLOCK`] calls per span.

use crate::gen::{Planned, Schedule};
use crate::spans::{SpanLog, NO_REQUEST};
use gf2m::Fe;
use koblitz::mul::{KG_WINDOW, KP_WINDOW};
use koblitz::{Affine, Int, LdPoint, Scalar};
use protocols::wire::{decode_public_key, encode_public_key};
use protocols::{Keypair, Sha256, SigningKey};
use service::frame::{decode_request, OpRequest};
use std::hint::black_box;
use std::time::Instant;

/// Field multiplies or squares per span.
pub const FIELD_BLOCK: u32 = 32;

/// Keys the pass signs and agrees with: the plane's own keys are
/// private to it, and any key costs the same.
pub struct PassKeys {
    signer: SigningKey,
    ecdh: Keypair,
}

impl PassKeys {
    /// Derives the pass's keys from the workload seed.
    pub fn new(seed: u64) -> PassKeys {
        PassKeys {
            signer: SigningKey::generate(format!("perfbench layer signer {seed:x}").as_bytes()),
            ecdh: Keypair::generate(format!("perfbench layer ecdh {seed:x}").as_bytes()),
        }
    }
}

/// Single-thread host time of each frame's protocol call, ns (0 for
/// frames that never reached one), for the batch efficiency estimate.
pub struct LayerPass {
    /// Per-frame protocol-call time, ns.
    pub op_ns: Vec<u64>,
    /// Frames sent through the pass before its budget ran out.
    pub frames_done: usize,
}

fn hash_scalar(msg: &[u8]) -> Scalar {
    Scalar::new(Int::from_be_bytes(&Sha256::digest(msg)))
}

/// The point-operand layers every public-key frame reaches at decode.
fn point_layers(log: &mut SpanLog, parent: (u32, u64), p: &Affine) {
    let bytes = encode_public_key(p);
    let _ = log.time("protocols.wire.decode_public_key", parent, || {
        decode_public_key(&bytes)
    });
    let _ = log.time("koblitz.curve.decompress", parent, || {
        Affine::from_compressed_bytes(&bytes)
    });
    log.time("koblitz.curve.subgroup_check", parent, || {
        p.is_in_prime_order_subgroup()
    });
    let (x, y) = (p.x(), p.y());
    log.time("gf2m.mul", parent, || {
        let mut acc = x;
        for _ in 0..FIELD_BLOCK {
            acc = black_box(acc).mul(y);
        }
        acc
    });
    log.time("gf2m.sqr", parent, || {
        let mut acc = x;
        for _ in 0..FIELD_BLOCK {
            acc = black_box(acc).square();
        }
        acc
    });
    log.time("gf2m.inv", parent, || x.invert());
}

/// Sends one frame's operands through the layers. Returns the frame's
/// protocol-call time in ns and, for kP frames, the projective result
/// for the tick's batch conversion.
fn frame_layers(log: &mut SpanLog, keys: &PassKeys, f: &Planned) -> (u64, Option<LdPoint>) {
    let parent = (f.client, f.seq);
    let Ok(req) = log.time("service.frame.decode", parent, || decode_request(&f.bytes)) else {
        return (0, None);
    };
    let timed = |log: &mut SpanLog, name, g: &mut dyn FnMut()| {
        let start = log.now();
        g();
        let end = log.now();
        log.push(name, start, end, parent);
        end - start
    };
    match req.op {
        OpRequest::Sign { msg } => {
            let op = timed(log, "protocols.ecdsa.sign", &mut || {
                black_box(keys.signer.sign(&msg));
            });
            let k = log.time("protocols.ecdsa.derive_nonce", parent, || {
                keys.signer.derive_nonce(&msg, 0)
            });
            let ki = k.to_int();
            log.time("koblitz.tnaf.recode_w6", parent, || {
                koblitz::tnaf::recode(&ki, KG_WINDOW)
            });
            log.time("koblitz.mul.mul_g", parent, || koblitz::mul::mul_g(&ki));
            let k_inv = log.time("koblitz.scalar.invert", parent, || k.invert());
            let e = hash_scalar(&msg);
            if let Some(k_inv) = k_inv {
                log.time("koblitz.scalar.mul", parent, || k_inv.mul(&e));
            }
            (op, None)
        }
        OpRequest::Verify { public, sig, msg } => {
            log.time("koblitz.cache.table_for", parent, || {
                koblitz::cache::table_for(&public, KP_WINDOW)
            });
            point_layers(log, parent, &public);
            let op = timed(log, "protocols.ecdsa.verify", &mut || {
                black_box(protocols::ecdsa::verify(&public, &msg, &sig)).ok();
            });
            let e = hash_scalar(&msg);
            if let Some(s_inv) = log.time("koblitz.scalar.invert", parent, || sig.s.invert()) {
                let u1 = log
                    .time("koblitz.scalar.mul", parent, || e.mul(&s_inv))
                    .to_int();
                let u2 = sig.r.mul(&s_inv).to_int();
                log.time("koblitz.tnaf.recode_w6", parent, || {
                    koblitz::tnaf::recode(&u1, KG_WINDOW)
                });
                log.time("koblitz.tnaf.recode_w4", parent, || {
                    koblitz::tnaf::recode(&u2, KP_WINDOW)
                });
                log.time("koblitz.mul.double_multiply", parent, || {
                    koblitz::mul::double_multiply(&u1, &u2, &public)
                });
            }
            (op, None)
        }
        OpRequest::Ecdh { peer } => {
            log.time("koblitz.cache.table_for", parent, || {
                koblitz::cache::table_for(&peer, KP_WINDOW)
            });
            point_layers(log, parent, &peer);
            let op = timed(log, "protocols.ecdh.shared_secret", &mut || {
                black_box(keys.ecdh.shared_secret(&peer)).ok();
            });
            let d = keys.ecdh.secret().to_int();
            log.time("koblitz.tnaf.recode_w4", parent, || {
                koblitz::tnaf::recode(&d, KP_WINDOW)
            });
            log.time("koblitz.mul.mul_wtnaf", parent, || {
                koblitz::mul::mul_wtnaf(&peer, &d, KP_WINDOW)
            });
            (op, Some(koblitz::mul::mul_wtnaf_proj(&peer, &d, KP_WINDOW)))
        }
        OpRequest::Ecies { recipient, msg } => {
            log.time("koblitz.cache.table_for", parent, || {
                koblitz::cache::table_for(&recipient, KP_WINDOW)
            });
            point_layers(log, parent, &recipient);
            let seed = [req.client.to_be_bytes().as_slice(), &req.seq.to_be_bytes()].concat();
            let op = timed(log, "protocols.ecies.encrypt", &mut || {
                black_box(protocols::ecies::encrypt(&recipient, &msg, &seed)).ok();
            });
            (op, None)
        }
    }
}

/// Runs the layer pass over `schedule`, frame by frame in arrival
/// order, until `budget_s` of host time is spent. The table cache
/// starts cold, so its hits and misses follow the requests' order as
/// they did in the plane.
pub fn run(spans: &mut SpanLog, keys: &PassKeys, schedule: &Schedule, budget_s: f64) -> LayerPass {
    koblitz::cache::reset();
    let started = Instant::now();
    let mut op_ns = vec![0u64; schedule.frames.len()];
    let mut frames_done = 0;
    for t in 0..schedule.ticks() {
        let mut tick_points: Vec<LdPoint> = Vec::new();
        for i in schedule.at(t) {
            let f = &schedule.frames[i];
            let start = spans.now();
            let (ns, point) = frame_layers(spans, keys, f);
            spans.push("request", start, spans.now(), (f.client, f.seq));
            op_ns[i] = ns;
            tick_points.extend(point);
            frames_done = i + 1;
        }
        if !tick_points.is_empty() {
            let parent = (NO_REQUEST, t);
            spans.time("koblitz.projective.batch_to_affine", parent, || {
                koblitz::batch_to_affine(&tick_points)
            });
            let mut zs: Vec<Fe> = tick_points.iter().map(|p| p.z).collect();
            spans.time("gf2m.batch_invert", parent, || {
                gf2m::batch::batch_invert(&mut zs)
            });
        }
        spans.calibrate();
        if started.elapsed().as_secs_f64() >= budget_s {
            break;
        }
    }
    LayerPass { op_ns, frames_done }
}
