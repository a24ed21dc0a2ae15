//! The benchmark's own seeded traffic generator.
//!
//! Every input of a service workload comes from here and is a pure
//! function of `(seed, spec, target)`: the key pool, and the full
//! per-tick arrival schedule as ready-made wire frames. The schedule is
//! generated during set-up, before the plane exists, so arrivals are an
//! open loop in virtual ticks: nothing the plane does changes what
//! arrives when.

use prng::SplitMix64;
use protocols::{Keypair, Signature, SigningKey};
use service::cost::CostTable;
use service::frame::{encode_request, Op, OpRequest, Priority, Request};

/// PRNG domain of the per-tick arrival substreams.
const DOMAIN_ARRIVALS: u64 = 0xbe7c_0001;

/// Messages in the pool that verify and ECIES requests draw from.
pub const POOL_MSGS: usize = 4;

/// The shape of one service workload's traffic.
#[derive(Debug, Clone)]
pub struct MixSpec {
    /// Share of sign / verify / ECDH requests, percent; ECIES takes
    /// the rest of 100.
    pub sign_pct: u64,
    /// See [`MixSpec::sign_pct`].
    pub verify_pct: u64,
    /// See [`MixSpec::sign_pct`].
    pub ecdh_pct: u64,
    /// Verifies whose signature covers a different pool message,
    /// permille (well formed, verify false).
    pub wrong_msg_permille: u64,
    /// Frames that are byte copies of the client's previous frame,
    /// permille.
    pub replay_permille: u64,
    /// Frames put through the mutation operator, permille.
    pub adversarial_permille: u64,
    /// Arrival load per tick, permille of the plane's cycle budget.
    pub load_permille: u64,
    /// Distinct client identities.
    pub clients: u32,
    /// Signer and peer identities in the key pool.
    pub pool: usize,
    /// Ticks of arrivals in one pass (the drain afterwards is extra).
    pub ticks: u64,
}

impl MixSpec {
    /// `gateway_mix`: the WSN gateway traffic at 80% of capacity.
    pub fn gateway_mix() -> MixSpec {
        MixSpec {
            sign_pct: 30,
            verify_pct: 40,
            ecdh_pct: 20,
            wrong_msg_permille: 50,
            replay_permille: 20,
            adversarial_permille: 150,
            load_permille: 800,
            clients: 12,
            pool: 48,
            ticks: 600,
        }
    }

    /// `sign_burst`: a signing service hit by a 2x burst.
    pub fn sign_burst() -> MixSpec {
        MixSpec {
            sign_pct: 100,
            verify_pct: 0,
            ecdh_pct: 0,
            wrong_msg_permille: 0,
            replay_permille: 0,
            adversarial_permille: 250,
            load_permille: 2000,
            clients: 24,
            pool: 48,
            ticks: 600,
        }
    }
}

/// What an unmutated frame asks for, in pool indices, so the checker
/// knows the right answer without decoding anything.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Intent {
    /// Sign `msg` with the plane's key.
    Sign {
        /// The message.
        msg: Vec<u8>,
    },
    /// Verify signer `signer`'s signature over pool message `signed`,
    /// presented with pool message `shown`.
    Verify {
        /// Pool signer index.
        signer: usize,
        /// Pool message the signature covers.
        signed: usize,
        /// Pool message sent with it (differs for wrong-message verifies).
        shown: usize,
    },
    /// ECDH against pool peer `peer`.
    Ecdh {
        /// Pool peer index.
        peer: usize,
    },
    /// Encrypt pool message `msg` to pool peer `peer`.
    Ecies {
        /// Pool peer index.
        peer: usize,
        /// Pool message index.
        msg: usize,
    },
}

impl Intent {
    /// The metered operation.
    pub fn op(&self) -> Op {
        match self {
            Intent::Sign { .. } => Op::Sign,
            Intent::Verify { .. } => Op::Verify,
            Intent::Ecdh { .. } => Op::Ecdh,
            Intent::Ecies { .. } => Op::Ecies,
        }
    }
}

/// How a frame was made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A fresh, well-formed request.
    Fresh,
    /// A byte copy of frame `of` (the same client's previous frame).
    Replay {
        /// Schedule index of the original.
        of: usize,
    },
    /// A fresh request put through the mutation operator.
    Mutated,
}

/// One scheduled arrival.
#[derive(Debug, Clone)]
pub struct Planned {
    /// Arrival tick.
    pub tick: u64,
    /// Client identity as generated (a mutation may change it on the
    /// wire).
    pub client: u32,
    /// Sequence number as generated.
    pub seq: u64,
    /// The request before any mutation.
    pub intent: Intent,
    /// Fresh, replay or mutated.
    pub kind: FrameKind,
    /// The wire frame submitted to the plane.
    pub bytes: Vec<u8>,
}

impl Planned {
    /// Whether this frame is a fresh, unmutated request — the ones the
    /// plane owes a `Done` unless it is overloaded.
    pub fn is_legit(&self) -> bool {
        self.kind == FrameKind::Fresh
    }
}

/// The identities and messages the traffic draws from.
pub struct KeyPool {
    /// Signer identities (verify requests).
    pub signers: Vec<SigningKey>,
    /// Peer identities (ECDH and ECIES requests).
    pub peers: Vec<Keypair>,
    /// Pool messages.
    pub msgs: Vec<Vec<u8>>,
    /// `sigs[i][j]`: signer `i`'s signature over `msgs[j]` (empty when
    /// the mix has no verifies).
    pub sigs: Vec<Vec<Signature>>,
}

impl KeyPool {
    /// Derives the pool from the workload seed.
    pub fn new(seed: u64, spec: &MixSpec) -> KeyPool {
        let signers: Vec<SigningKey> = (0..spec.pool)
            .map(|i| SigningKey::generate(format!("perfbench signer {seed:x}/{i}").as_bytes()))
            .collect();
        let peers = (0..spec.pool)
            .map(|i| Keypair::generate(format!("perfbench peer {seed:x}/{i}").as_bytes()))
            .collect();
        let msgs: Vec<Vec<u8>> = (0..POOL_MSGS)
            .map(|j| format!("telemetry frame {seed:x}/{j}").into_bytes())
            .collect();
        let sigs = if spec.verify_pct == 0 {
            Vec::new()
        } else {
            signers
                .iter()
                .map(|s| msgs.iter().map(|m| s.sign(m)).collect())
                .collect()
        };
        KeyPool {
            signers,
            peers,
            msgs,
            sigs,
        }
    }

    /// The wire request an intent stands for.
    pub fn op_request(&self, intent: &Intent) -> OpRequest {
        match intent {
            Intent::Sign { msg } => OpRequest::Sign { msg: msg.clone() },
            Intent::Verify {
                signer,
                signed,
                shown,
            } => OpRequest::Verify {
                public: *self.signers[*signer].public(),
                sig: self.sigs[*signer][*signed].clone(),
                msg: self.msgs[*shown].clone(),
            },
            Intent::Ecdh { peer } => OpRequest::Ecdh {
                peer: *self.peers[*peer].public(),
            },
            Intent::Ecies { peer, msg } => OpRequest::Ecies {
                recipient: *self.peers[*peer].public(),
                msg: self.msgs[*msg].clone(),
            },
        }
    }
}

/// A pass's full arrival schedule.
pub struct Schedule {
    /// Every frame, in arrival order.
    pub frames: Vec<Planned>,
    /// `frames[starts[t]..starts[t + 1]]` arrive at tick `t`.
    pub starts: Vec<usize>,
}

impl Schedule {
    /// Ticks of arrivals.
    pub fn ticks(&self) -> u64 {
        self.starts.len() as u64 - 1
    }

    /// The frames arriving at tick `t`.
    pub fn at(&self, t: u64) -> std::ops::Range<usize> {
        self.starts[t as usize]..self.starts[t as usize + 1]
    }
}

/// Skewed popularity: the smaller of two uniform draws, so index 0 is
/// about twice as likely as the median identity and the tail of a
/// 48-identity pool keeps missing a 32-entry table cache.
fn pick_identity(rng: &mut SplitMix64, pool: usize) -> usize {
    let a = rng.below(pool as u64);
    let b = rng.below(pool as u64);
    a.min(b) as usize
}

/// The seeded mutation operator: truncate, extend, flip bits or
/// substitute a byte (or, one time in five, leave the frame as it is).
pub fn mutate(template: &[u8], rng: &mut SplitMix64) -> Vec<u8> {
    let mut buf = template.to_vec();
    match rng.below(5) {
        0 => {
            let len = rng.below(buf.len() as u64 + 1) as usize;
            buf.truncate(len);
        }
        1 => {
            for _ in 0..rng.below(16) + 1 {
                buf.push(rng.next_u32() as u8);
            }
        }
        2 if !buf.is_empty() => {
            for _ in 0..rng.below(4) + 1 {
                let i = rng.below(buf.len() as u64) as usize;
                buf[i] ^= 1 << rng.below(8);
            }
        }
        3 if !buf.is_empty() => {
            let i = rng.below(buf.len() as u64) as usize;
            buf[i] = rng.next_u32() as u8;
        }
        _ => {}
    }
    buf
}

/// Draws the next arrival's operation and operands; a sign message is
/// filled in once the client is known.
fn draw_intent(rng: &mut SplitMix64, spec: &MixSpec) -> Intent {
    let roll = rng.below(100);
    if roll < spec.sign_pct {
        Intent::Sign { msg: Vec::new() }
    } else if roll < spec.sign_pct + spec.verify_pct {
        let signed = rng.below(POOL_MSGS as u64) as usize;
        let shown = if rng.ratio(spec.wrong_msg_permille, 1000) {
            (signed + 1) % POOL_MSGS
        } else {
            signed
        };
        Intent::Verify {
            signer: pick_identity(rng, spec.pool),
            signed,
            shown,
        }
    } else if roll < spec.sign_pct + spec.verify_pct + spec.ecdh_pct {
        Intent::Ecdh {
            peer: pick_identity(rng, spec.pool),
        }
    } else {
        Intent::Ecies {
            peer: pick_identity(rng, spec.pool),
            msg: rng.below(POOL_MSGS as u64) as usize,
        }
    }
}

/// Generates the arrival schedule. Each tick adds `load_permille` of
/// `capacity` cycles to an arrival credit, and arrivals are drawn while
/// the credit covers the next one's quote, so the long-run offered load
/// is `load_permille` of capacity.
pub fn schedule(
    seed: u64,
    spec: &MixSpec,
    pool: &KeyPool,
    costs: &CostTable,
    capacity: u64,
) -> Schedule {
    let clients = spec.clients as usize;
    let mut next_seq = vec![1u64; clients];
    let mut last: Vec<Option<usize>> = vec![None; clients];
    let mut frames: Vec<Planned> = Vec::new();
    let mut starts = vec![0usize];
    let per_tick = spec.load_permille * capacity / 1000;
    let mut credit = 0u64;
    // The next arrival is drawn once and waits for enough credit, so
    // expensive operations are not skipped over.
    let mut next: Option<Intent> = None;
    for tick in 0..spec.ticks {
        let mut rng = SplitMix64::substream(seed, DOMAIN_ARRIVALS, tick);
        credit += per_tick;
        loop {
            let mut intent = next.take().unwrap_or_else(|| draw_intent(&mut rng, spec));
            let quote = costs.quote(intent.op()).cycles;
            if quote > credit {
                next = Some(intent);
                break;
            }
            credit -= quote;
            let c = rng.below(clients as u64) as usize;
            if rng.ratio(spec.replay_permille, 1000) {
                if let Some(of) = last[c] {
                    let replay = Planned {
                        tick,
                        kind: FrameKind::Replay { of },
                        ..frames[of].clone()
                    };
                    frames.push(replay);
                    continue;
                }
            }
            let client = c as u32 + 1;
            let seq = next_seq[c];
            next_seq[c] += 1;
            if let Intent::Sign { msg } = &mut intent {
                *msg = format!("reading {seed:x}/{client}/{seq}").into_bytes();
            }
            let priority = match rng.below(100) {
                0..=24 => Priority::Low,
                25..=84 => Priority::Normal,
                _ => Priority::High,
            };
            let mut bytes = encode_request(&Request {
                client,
                seq,
                priority,
                deadline: tick + 2 + rng.below(6),
                op: pool.op_request(&intent),
            });
            let mut kind = FrameKind::Fresh;
            if rng.ratio(spec.adversarial_permille, 1000) {
                bytes = mutate(&bytes, &mut rng);
                kind = FrameKind::Mutated;
            }
            last[c] = Some(frames.len());
            frames.push(Planned {
                tick,
                client,
                seq,
                intent,
                kind,
                bytes,
            });
        }
        starts.push(frames.len());
    }
    Schedule { frames, starts }
}
