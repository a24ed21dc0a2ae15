//! The gateway node: verifies signed telemetry through the gas-metered
//! service plane.
//!
//! Sensor nodes sign telemetry frames (one cheap kG each); the gateway
//! prices every frame as a [`service::ServicePlane`] verify request.
//! Every verification costs a kG + kP on the device model, so unbounded
//! inbound traffic is an energy-exhaustion attack; the plane gives the
//! gateway the admission discipline that implies — per-node cycle
//! quotas, bounded queueing with typed backpressure, deadline expiry,
//! replay windows and graceful shedding under overload — while its
//! batch drain keeps the throughput amortisations (one batched field
//! inversion per tick, wTNAF table-cache hits for recurring node keys).

use protocols::{Signature, SigningKey};
use service::frame::{encode_request, FrameError, OpRequest, Priority, Request, Response, Status};
use service::plane::{ConfigError, Counters, PlaneConfig, ServicePlane};
use std::collections::HashMap;

/// An authenticated (but unencrypted) telemetry frame: node identity,
/// monotonic sequence number, payload, and an ECDSA signature binding
/// all three.
#[derive(Debug, Clone)]
pub struct SignedTelemetry {
    /// The claimed sender.
    pub node_id: u32,
    /// Per-node signature sequence number.
    pub seq: u32,
    /// The telemetry payload.
    pub payload: Vec<u8>,
    /// Signature over the domain-tagged (id, seq, payload) message.
    pub signature: Signature,
}

/// The exact byte string a node signs: a domain tag, then the identity
/// and sequence number (so frames cannot be re-attributed or replayed
/// under another id), then the payload.
pub fn telemetry_message(node_id: u32, seq: u32, payload: &[u8]) -> Vec<u8> {
    let mut msg = Vec::with_capacity(21 + payload.len());
    msg.extend_from_slice(b"wsn-telemetry");
    msg.extend_from_slice(&node_id.to_be_bytes());
    msg.extend_from_slice(&seq.to_be_bytes());
    msg.extend_from_slice(payload);
    msg
}

impl SignedTelemetry {
    /// Signs a telemetry frame.
    pub fn sign(key: &SigningKey, node_id: u32, seq: u32, payload: &[u8]) -> SignedTelemetry {
        let msg = telemetry_message(node_id, seq, payload);
        SignedTelemetry {
            node_id,
            seq,
            payload: payload.to_vec(),
            signature: key.sign(&msg),
        }
    }
}

/// A verified-telemetry outcome from one plane tick.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryVerdict {
    /// The sending node.
    pub node_id: u32,
    /// The frame's sequence number.
    pub seq: u32,
    /// Whether the signature verified.
    pub accepted: bool,
}

/// Cumulative gateway counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GatewayStats {
    /// Frames whose signature verified.
    pub accepted: u64,
    /// Frames refused as forged: a signature that failed to verify, or
    /// an unregistered sender.
    pub rejected: u64,
    /// The service plane's counters: admission, backpressure, shedding,
    /// expiry and executed cost.
    pub plane: Counters,
}

/// The gateway: registered node keys in front of a [`ServicePlane`]
/// running the verify workload.
#[derive(Debug)]
pub struct Gateway {
    keys: HashMap<u32, koblitz::Affine>,
    plane: ServicePlane,
    accepted: u64,
    rejected: u64,
}

impl Gateway {
    /// Builds the gateway over a validated plane configuration.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] when the plane policy could never make progress.
    pub fn new(config: PlaneConfig) -> Result<Gateway, ConfigError> {
        Ok(Gateway {
            keys: HashMap::new(),
            plane: ServicePlane::new(config)?,
            accepted: 0,
            rejected: 0,
        })
    }

    /// Registers a node's public signing key (deployment-time pairing).
    pub fn register(&mut self, node_id: u32, public: koblitz::Affine) {
        self.keys.insert(node_id, public);
    }

    /// Prices and submits one telemetry frame as a service-plane verify
    /// request (client = node id, sequence = frame sequence). `None`
    /// means admitted — the verdict arrives from a later
    /// [`Gateway::tick`]; `Some` is an immediate typed rejection
    /// (unknown sender, replay, quota, backpressure, shedding, …).
    pub fn submit(&mut self, frame: &SignedTelemetry, priority: Priority) -> Option<Response> {
        let Some(public) = self.keys.get(&frame.node_id) else {
            // Unregistered senders spend no quota and no queue slot;
            // the rejection reuses the wire taxonomy's bad-operand
            // code so it round-trips like every other outcome.
            self.rejected += 1;
            return Some(Response {
                client: frame.node_id,
                seq: frame.seq as u64,
                status: Status::Rejected(FrameError::Wire(protocols::wire::WireError::WrongOrder)),
            });
        };
        let request = Request {
            client: frame.node_id,
            seq: frame.seq as u64,
            priority,
            deadline: 0,
            op: OpRequest::Verify {
                public: *public,
                sig: frame.signature.clone(),
                msg: telemetry_message(frame.node_id, frame.seq, &frame.payload),
            },
        };
        // Round-trip through the wire bytes: the plane sees exactly
        // what a radio would deliver.
        self.plane.submit(&encode_request(&request))
    }

    /// Advances the plane one tick. Returns the telemetry verdicts of
    /// completed verifications plus every other typed response (expiry,
    /// …) produced this tick.
    pub fn tick(&mut self) -> (Vec<TelemetryVerdict>, Vec<Response>) {
        let mut verdicts = Vec::new();
        let mut other = Vec::new();
        for resp in self.plane.tick() {
            match &resp.status {
                Status::Done(body) if body.len() == 1 => {
                    let accepted = body[0] == 1;
                    if accepted {
                        self.accepted += 1;
                    } else {
                        self.rejected += 1;
                    }
                    verdicts.push(TelemetryVerdict {
                        node_id: resp.client,
                        seq: resp.seq as u32,
                        accepted,
                    });
                }
                _ => other.push(resp),
            }
        }
        (verdicts, other)
    }

    /// Ticks until nothing is pending and returns the verdicts in
    /// completion order. Other typed outcomes (expiry) stay visible in
    /// the plane counters of [`Gateway::stats`].
    pub fn drain(&mut self) -> Vec<TelemetryVerdict> {
        let mut verdicts = Vec::new();
        while self.pending() > 0 {
            verdicts.extend(self.tick().0);
        }
        verdicts
    }

    /// Cumulative counters.
    pub fn stats(&self) -> GatewayStats {
        GatewayStats {
            accepted: self.accepted,
            rejected: self.rejected,
            plane: self.plane.counters(),
        }
    }

    /// Frames admitted but not yet verified.
    pub fn pending(&self) -> usize {
        self.plane.pending()
    }

    /// The current degradation-ladder level.
    pub fn level(&self) -> u8 {
        self.plane.level()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane_config() -> PlaneConfig {
        let mut cfg = PlaneConfig::for_target(m0plus::target::default_target());
        cfg.workers = 1;
        cfg
    }

    fn node_key(id: u32) -> SigningKey {
        SigningKey::generate(format!("gateway node {id}").as_bytes())
    }

    /// A gateway with nodes `0..n` registered, and their keys.
    fn gateway(n: u32) -> (Gateway, Vec<SigningKey>) {
        let mut gw = Gateway::new(plane_config()).expect("valid config");
        let keys: Vec<SigningKey> = (0..n).map(node_key).collect();
        for (id, key) in keys.iter().enumerate() {
            gw.register(id as u32, *key.public());
        }
        (gw, keys)
    }

    /// Asserts every frame got exactly one verdict, equal to a per-frame
    /// `ecdsa::verify` under the key registered for its claimed id.
    fn assert_verdicts_match_ecdsa(
        frames: &[SignedTelemetry],
        keys: &[SigningKey],
        verdicts: &[TelemetryVerdict],
    ) {
        assert_eq!(verdicts.len(), frames.len(), "one verdict per frame");
        for v in verdicts {
            let f = frames
                .iter()
                .find(|f| f.node_id == v.node_id && f.seq == v.seq)
                .expect("the verdict answers a submitted frame");
            let msg = telemetry_message(f.node_id, f.seq, &f.payload);
            let public = keys[f.node_id as usize].public();
            let want = protocols::ecdsa::verify(public, &msg, &f.signature).is_ok();
            assert_eq!(v.accepted, want, "node {} seq {}", v.node_id, v.seq);
        }
    }

    #[test]
    fn honest_frames_are_accepted() {
        let (mut gw, keys) = gateway(3);
        let mut frames = Vec::new();
        let mut verdicts = Vec::new();
        for round in 0..4u32 {
            for (id, key) in keys.iter().enumerate() {
                let frame = SignedTelemetry::sign(key, id as u32, round, b"t=20.1C");
                assert_eq!(gw.submit(&frame, Priority::Normal), None, "admitted");
                frames.push(frame);
            }
            verdicts.extend(gw.tick().0);
        }
        verdicts.extend(gw.drain());
        assert_verdicts_match_ecdsa(&frames, &keys, &verdicts);
        let stats = gw.stats();
        assert_eq!((stats.accepted, stats.rejected), (12, 0));
        assert_eq!(stats.plane.completed, 12);
        assert!(stats.plane.accounted(0));
    }

    #[test]
    fn tampered_unknown_and_reattributed_frames_are_rejected() {
        let (mut gw, keys) = gateway(3);
        let good = SignedTelemetry::sign(&keys[0], 0, 1, b"t=21.5C");
        let mut tampered = SignedTelemetry::sign(&keys[1], 1, 1, b"t=21.6C");
        tampered.payload = b"t=99.9C".to_vec();
        // A frame signed by node 2 claimed as node 0: the identity is
        // inside the signed message, so it must fail under 0's key.
        let mut reattributed = SignedTelemetry::sign(&keys[2], 2, 2, b"t=21.7C");
        reattributed.node_id = 0;
        let admitted = [good, tampered, reattributed];
        for f in &admitted {
            assert_eq!(gw.submit(f, Priority::Normal), None, "admitted");
        }
        // An unregistered sender is refused at once, without admission.
        let unknown = SignedTelemetry::sign(&node_key(8), 8, 1, b"t=21.8C");
        let resp = gw.submit(&unknown, Priority::Normal).expect("refused");
        assert!(matches!(resp.status, Status::Rejected(_)));
        assert_eq!(gw.stats().plane.submitted, 3);

        let verdicts = gw.drain();
        assert_verdicts_match_ecdsa(&admitted, &keys, &verdicts);
        let accepted: Vec<bool> = verdicts.iter().map(|v| v.accepted).collect();
        assert_eq!(accepted, [true, false, false]);
        let stats = gw.stats();
        assert_eq!((stats.accepted, stats.rejected), (1, 3));
        assert_eq!(stats.plane.admitted, 3);
    }

    #[test]
    fn replayed_telemetry_is_refused_before_any_verification() {
        let (mut gw, keys) = gateway(1);
        let frame = SignedTelemetry::sign(&keys[0], 0, 9, b"reading");
        assert_eq!(gw.submit(&frame, Priority::Normal), None);
        gw.drain();
        // The captured frame replayed: rejected without burning a
        // verification (completed stays at 1).
        let resp = gw.submit(&frame, Priority::Normal).expect("refused");
        assert!(matches!(
            resp.status,
            Status::Rejected(FrameError::Replayed { seq: 9, .. })
        ));
        assert_eq!(gw.stats().plane.completed, 1);
        assert_eq!(gw.stats().plane.replays, 1);
    }

    #[test]
    fn telemetry_flood_is_shed_not_crashed() {
        let key = node_key(0);
        let mut cfg = plane_config();
        cfg.quota_capacity_cycles = u64::MAX / 4; // isolate the ladder
        cfg.quota_refill_cycles_per_tick = u64::MAX / 4;
        cfg.queue_capacity = 256;
        let mut gw = Gateway::new(cfg).expect("valid config");
        gw.register(0, *key.public());
        let mut shed_or_busy = 0u64;
        for seq in 0..200u32 {
            let frame = SignedTelemetry::sign(&key, 0, seq, b"flood");
            if let Some(resp) = gw.submit(&frame, Priority::Low) {
                match resp.status {
                    Status::Shed { .. } | Status::Busy { .. } | Status::Overloaded { .. } => {
                        shed_or_busy += 1;
                    }
                    other => panic!("unexpected outcome under flood: {other:?}"),
                }
            }
            if seq % 16 == 15 {
                gw.tick();
            }
        }
        assert!(shed_or_busy > 0, "the flood must hit typed backpressure");
        assert!(gw.level() >= 1, "the ladder must engage");
        // Drain: every admitted frame completes or expires typed.
        gw.drain();
        let c = gw.stats().plane;
        assert_eq!(c.admitted, c.completed + c.timeouts);
        assert!(c.accounted(0));
    }
}
