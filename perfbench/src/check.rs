//! Checks every output of a pass, outside the timed loop.
//!
//! A mismatch is an error that fails the run; it never becomes a
//! metric. The first pass of a run is checked in full (every `Done`
//! body against an independent computation); later passes replay the
//! same schedule on a fresh plane, so their responses must equal the
//! first pass's byte for byte.

use crate::gen::{FrameKind, KeyPool, Schedule};
use crate::traffic::PassLog;
use koblitz::Affine;
use protocols::ecies::{self, Ciphertext};
use protocols::wire::decode_signature_slice;
use protocols::Keypair;
use service::frame::{decode_request, encode_response, FrameError, OpRequest, Response, Status};
use std::collections::{BTreeMap, HashMap};

/// What a checked pass contributes to the metrics.
#[derive(Debug, Clone)]
pub struct PassCheck {
    /// Every `Done` response's arrival tick and the tick whose `tick()`
    /// answered it; [`crate::traffic::TickClock::latencies_ms`] turns
    /// them into latencies.
    pub done_ticks: Vec<(usize, usize)>,
    /// Fresh, unmutated requests submitted.
    pub legit: u64,
    /// Of those, answered `Done`.
    pub legit_done: u64,
    /// Response histogram by status name.
    pub outcomes: BTreeMap<&'static str, u64>,
    /// Which tick answered each admitted frame (`None` for immediate
    /// answers).
    pub answered_at: Vec<Option<usize>>,
    /// Every response, encoded, in a fixed order: immediate answers in
    /// frame order, then tick answers in tick order.
    pub encoded: Vec<Vec<u8>>,
    /// `Done` bodies of mutated frames that name a key outside the pool,
    /// so only their shape could be checked.
    pub shape_only: u64,
}

/// Whether frame `i`'s bytes are exactly its generated request.
fn pristine(schedule: &Schedule, i: usize) -> bool {
    match schedule.frames[i].kind {
        FrameKind::Fresh => true,
        FrameKind::Replay { of } => schedule.frames[of].kind == FrameKind::Fresh,
        FrameKind::Mutated => false,
    }
}

/// The request frame `i` carries on the wire.
fn request_of(
    schedule: &Schedule,
    pool: &KeyPool,
    i: usize,
) -> Result<(u32, u64, OpRequest), String> {
    let f = &schedule.frames[i];
    if pristine(schedule, i) {
        return Ok((f.client, f.seq, pool.op_request(&f.intent)));
    }
    decode_request(&f.bytes)
        .map(|r| (r.client, r.seq, r.op))
        .map_err(|e| format!("frame {i} was admitted but does not decode: {:?}", e.error))
}

fn pool_keypair<'a>(pool: &'a KeyPool, p: &Affine) -> Option<&'a Keypair> {
    // -P shares P's x coordinate, so it derives the same secret.
    pool.peers
        .iter()
        .find(|k| k.public() == p || k.public().negated() == *p)
}

/// Checks one `Done` body against an independent computation. Returns
/// `Ok(true)` when only the body's shape could be checked.
fn check_done(
    schedule: &Schedule,
    pool: &KeyPool,
    log: &PassLog,
    i: usize,
    body: &[u8],
) -> Result<bool, String> {
    let (_, _, op) = request_of(schedule, pool, i)?;
    let bad = |what: &str| Err(format!("frame {i}: {what}"));
    match op {
        OpRequest::Sign { msg } => {
            let sig = decode_signature_slice(body).map_err(|e| format!("frame {i}: {e}"))?;
            if protocols::ecdsa::verify(&log.signer_public, &msg, &sig).is_err() {
                return bad("signature does not verify under the plane's key");
            }
        }
        OpRequest::Verify { public, sig, msg } => {
            let want = match schedule.frames[i].intent {
                crate::gen::Intent::Verify { signed, shown, .. } if pristine(schedule, i) => {
                    signed == shown
                }
                _ => protocols::ecdsa::verify(&public, &msg, &sig).is_ok(),
            };
            if body != [u8::from(want)] {
                return bad("verify verdict differs from the intended one");
            }
        }
        OpRequest::Ecdh { peer } => {
            let Some(kp) = pool_keypair(pool, &peer) else {
                return if body.len() == 32 {
                    Ok(true)
                } else {
                    bad("ECDH secret is not 32 bytes")
                };
            };
            let want = kp
                .shared_secret(&log.ecdh_public)
                .map_err(|e| format!("frame {i}: {e:?}"))?;
            if body != want {
                return bad("ECDH secret differs from the peer's own derivation");
            }
        }
        OpRequest::Ecies { recipient, msg } => {
            if body.len() < 31 {
                return bad("ECIES body shorter than its ephemeral key");
            }
            let Some(kp) = pool_keypair(pool, &recipient) else {
                return Ok(true);
            };
            let ct = Ciphertext {
                ephemeral: body[..31].try_into().expect("31 bytes"),
                sealed: body[31..].to_vec(),
            };
            match ecies::decrypt(kp, &ct) {
                Ok(plain) if plain == msg => {}
                _ => return bad("ECIES ciphertext does not decrypt to the message"),
            }
        }
    }
    Ok(false)
}

/// Checks a pass: every admitted request answered exactly once, the
/// accounting identity, legit frames never refused by the decoder, and
/// (with `full`) every `Done` body.
pub fn check_pass(
    schedule: &Schedule,
    pool: &KeyPool,
    log: &PassLog,
    full: bool,
) -> Result<PassCheck, String> {
    let n = schedule.frames.len();
    if log.immediate.len() != n {
        return Err(format!(
            "{} frames submitted, {} recorded",
            n,
            log.immediate.len()
        ));
    }
    let c = log.counters;
    if c.submitted != n as u64 || !c.accounted(0) {
        return Err(format!(
            "accounting identity violated after the drain: {c:?}"
        ));
    }
    let mut by_key: HashMap<(u32, u64), usize> = HashMap::new();
    for (i, r) in log.immediate.iter().enumerate() {
        if r.is_none() {
            let (client, seq, _) = request_of(schedule, pool, i)?;
            if by_key.insert((client, seq), i).is_some() {
                return Err(format!(
                    "two admitted frames share (client {client}, seq {seq})"
                ));
            }
        }
    }
    let mut answered_at: Vec<Option<usize>> = vec![None; n];
    let mut status: Vec<Option<&Response>> = log.immediate.iter().map(Option::as_ref).collect();
    for (t, out) in log.tick_out.iter().enumerate() {
        for r in out {
            let Some(&i) = by_key.get(&(r.client, r.seq)) else {
                return Err(format!(
                    "tick {t} answered unknown ({}, {})",
                    r.client, r.seq
                ));
            };
            if answered_at[i].is_some() {
                return Err(format!("frame {i} answered twice"));
            }
            answered_at[i] = Some(t);
            status[i] = Some(r);
        }
    }
    let mut out = PassCheck {
        done_ticks: Vec::new(),
        legit: 0,
        legit_done: 0,
        outcomes: BTreeMap::new(),
        answered_at,
        encoded: Vec::with_capacity(n),
        shape_only: 0,
    };
    for (i, f) in schedule.frames.iter().enumerate() {
        let Some(r) = status[i] else {
            return Err(format!("admitted frame {i} was never answered"));
        };
        *out.outcomes.entry(r.status.name()).or_insert(0) += 1;
        let legit = f.is_legit();
        out.legit += u64::from(legit);
        match &r.status {
            Status::Done(body) => {
                let t =
                    out.answered_at[i].ok_or_else(|| format!("frame {i} done without a tick"))?;
                out.done_ticks.push((f.tick as usize, t));
                out.legit_done += u64::from(legit);
                if full && check_done(schedule, pool, log, i, body)? {
                    out.shape_only += 1;
                }
            }
            Status::Rejected(FrameError::Replayed { .. }) => {}
            Status::Rejected(e) if legit => {
                return Err(format!(
                    "well-formed frame {i} rejected by the decoder: {e:?}"
                ));
            }
            _ => {}
        }
    }
    for r in log.immediate.iter().flatten() {
        out.encoded.push(encode_response(r));
    }
    for r in log.tick_out.iter().flatten() {
        out.encoded.push(encode_response(r));
    }
    Ok(out)
}
