//! The sbed wire protocol: length-prefixed, checksummed binary frames.
//!
//! Every message — request or response — is one frame:
//!
//! | offset | size | field                                      |
//! |-------:|-----:|--------------------------------------------|
//! |      0 |    4 | magic `b"SBEW"`                            |
//! |      4 |    2 | protocol version, little-endian (`1`)      |
//! |      6 |    2 | frame kind, little-endian                  |
//! |      8 |    8 | request id, little-endian                  |
//! |     16 |    4 | payload length, little-endian (≤ 1 MiB)    |
//! |     20 |    8 | FNV-1a checksum of the payload             |
//! |     28 |  len | payload                                    |
//!
//! The checksum is `mlkit::hash::fnv1a64` — the same hash the on-disk
//! artifact envelope uses, so a daemon and its artifacts share one
//! integrity primitive. All integers are little-endian; floats
//! travel as their IEEE-754 bit patterns, so scores cross the wire
//! bit-exactly.
//!
//! The request id doubles as the *admission sequence number*: the
//! daemon scores request `n` only after `0..n` have been admitted,
//! which is what makes a multi-connection fleet bit-identical to a
//! single in-process replay (see [`crate::daemon`]).
//!
//! Decoding is total: every function here returns a typed
//! [`SbedError`] on damaged input and never panics — the corruption
//! battery (`tests/wire_corruption.rs`) drives every truncation prefix
//! and damage mode through it, plus a proptest that random byte flips
//! cannot panic the decoder.

use crate::{Result, SbedError};
use mlkit::hash::fnv1a64;

/// Frame magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"SBEW";
/// The protocol version this build speaks.
pub const VERSION: u16 = 1;
/// Fixed frame header size in bytes.
pub const HEADER_LEN: usize = 28;
/// Payload length cap: a frame larger than this is rejected unread.
pub const MAX_PAYLOAD: u32 = 1 << 20;
/// Node-count cap inside a launch event (a Titan-scale allocation is
/// ~19k nodes; anything near the payload cap is hostile input).
pub const MAX_EVENT_NODES: u32 = 1 << 16;

/// Request: one stream event (tick / launch / SBE visibility).
pub const KIND_EVENT: u16 = 0x0001;
/// Request: end of stream — flush, report, and (by default) shut down.
pub const KIND_FINISH: u16 = 0x0002;
/// Control: hot-swap the serving artifact at this admission sequence
/// number; the payload is a full `mlkit::artifact` envelope. Never
/// accepted from the network — connection readers admit only
/// [`KIND_EVENT`] / [`KIND_FINISH`] — but it appears in recorded
/// request logs so a replay reproduces the swap at the same boundary.
pub const KIND_SWAP: u16 = 0x0003;
/// Response: event admitted.
pub const KIND_ACK: u16 = 0x8001;
/// Response: per-node scores for one launch.
pub const KIND_SCORES: u16 = 0x8002;
/// Response: typed rejection; the connection stays usable.
pub const KIND_ERROR: u16 = 0x8003;
/// Response: end-of-stream report (answers [`KIND_FINISH`]).
pub const KIND_REPORT: u16 = 0x8004;

/// Error-response code: the frame or payload was malformed.
pub const ERR_MALFORMED: u16 = 1;
/// Error-response code: a bounded queue was full; retransmit later.
pub const ERR_OVERLOAD: u16 = 2;
/// Error-response code: the daemon is draining; no new work.
pub const ERR_DRAINING: u16 = 3;
/// Error-response code: the daemon failed internally.
pub const ERR_INTERNAL: u16 = 4;
/// Error-response code: a well-formed event the session refuses
/// (unknown node, duplicate aprun, minute out of order, stale sequence).
pub const ERR_REJECTED: u16 = 5;

/// A decoded frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Frame kind (`KIND_*`).
    pub kind: u16,
    /// Request id / admission sequence number.
    pub request_id: u64,
    /// Payload length in bytes.
    pub len: u32,
    /// FNV-1a checksum of the payload.
    pub checksum: u64,
}

/// A decoded frame: validated header plus raw payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The header.
    pub header: FrameHeader,
    /// The checksum-verified payload.
    pub payload: Vec<u8>,
}

/// One response the session emitted, ready to write: the encoded frame
/// plus the routing facts the daemon needs (which request it answers,
/// and whether it is that request's final response, after which the
/// daemon forgets the request; its window slot was freed at its first).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedResponse {
    /// The request this response answers.
    pub request_id: u64,
    /// Response kind (`KIND_ACK` / `KIND_SCORES` / `KIND_ERROR` /
    /// `KIND_REPORT`).
    pub kind: u16,
    /// Whether this is the request's final response (a launch's ACK is
    /// not — its SCORES arrives at flush time).
    pub last: bool,
    /// The complete encoded frame.
    pub bytes: Vec<u8>,
}

fn le2(s: &[u8]) -> [u8; 2] {
    let mut a = [0u8; 2];
    if s.len() == 2 {
        a.copy_from_slice(s);
    }
    a
}

fn le4(s: &[u8]) -> [u8; 4] {
    let mut a = [0u8; 4];
    if s.len() == 4 {
        a.copy_from_slice(s);
    }
    a
}

fn le8(s: &[u8]) -> [u8; 8] {
    let mut a = [0u8; 8];
    if s.len() == 8 {
        a.copy_from_slice(s);
    }
    a
}

/// A take-style cursor over payload bytes: every read names the field
/// it is completing, so truncation errors say exactly what was cut.
struct Cur<'a> {
    buf: &'a [u8],
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Cur<'a> {
        Cur { buf }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8]> {
        if self.buf.len() < n {
            return Err(SbedError::Truncated {
                what,
                need: n,
                have: self.buf.len(),
            });
        }
        // detlint: allow(D006) reason=split_at is guarded by the length check above
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8> {
        Ok(self.take(1, what)?.first().copied().unwrap_or(0))
    }

    fn u16(&mut self, what: &'static str) -> Result<u16> {
        Ok(u16::from_le_bytes(le2(self.take(2, what)?)))
    }

    fn u32(&mut self, what: &'static str) -> Result<u32> {
        Ok(u32::from_le_bytes(le4(self.take(4, what)?)))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64> {
        Ok(u64::from_le_bytes(le8(self.take(8, what)?)))
    }

    fn f32(&mut self, what: &'static str) -> Result<f32> {
        Ok(f32::from_bits(self.u32(what)?))
    }

    fn f64(&mut self, what: &'static str) -> Result<f64> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    fn finish(self, what: &'static str) -> Result<()> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(SbedError::Payload {
                reason: format!("{} trailing bytes after {what}", self.buf.len()),
            })
        }
    }
}

/// Splits a header's raw fields out without validating anything — the
/// server's best-effort view of a damaged header, used to echo the
/// request id in an error response and to attempt a payload-length
/// resync.
pub fn header_fields(hdr: &[u8; HEADER_LEN]) -> FrameHeader {
    let (_magic_version, rest) = hdr.split_at(6);
    let (kind_b, rest) = rest.split_at(2);
    let (rid_b, rest) = rest.split_at(8);
    let (len_b, csum_b) = rest.split_at(4);
    FrameHeader {
        kind: u16::from_le_bytes(le2(kind_b)),
        request_id: u64::from_le_bytes(le8(rid_b)),
        len: u32::from_le_bytes(le4(len_b)),
        checksum: u64::from_le_bytes(le8(csum_b)),
    }
}

/// Validates a complete 28-byte header: magic, version, payload cap.
/// Kind is *not* checked here — an unknown kind still has a trustable
/// length, so the server can skip its payload and answer with a typed
/// error instead of desynchronising.
///
/// # Errors
///
/// [`SbedError::BadMagic`], [`SbedError::Version`],
/// [`SbedError::Oversize`].
pub fn validate_header(hdr: &[u8; HEADER_LEN]) -> Result<FrameHeader> {
    let (magic_b, rest) = hdr.split_at(4);
    if magic_b != MAGIC {
        let mut found = [0u8; 4];
        found.copy_from_slice(magic_b);
        return Err(SbedError::BadMagic { found });
    }
    let (version_b, _) = rest.split_at(2);
    let version = u16::from_le_bytes(le2(version_b));
    if version != VERSION {
        return Err(SbedError::Version {
            found: version,
            supported: VERSION,
        });
    }
    let fields = header_fields(hdr);
    if fields.len > MAX_PAYLOAD {
        return Err(SbedError::Oversize {
            len: fields.len,
            max: MAX_PAYLOAD,
        });
    }
    Ok(fields)
}

/// Whether `kind` is a kind this protocol version defines.
pub fn known_kind(kind: u16) -> bool {
    matches!(
        kind,
        KIND_EVENT | KIND_FINISH | KIND_SWAP | KIND_ACK | KIND_SCORES | KIND_ERROR | KIND_REPORT
    )
}

/// Decodes one frame from the front of `bytes`, returning the frame and
/// the number of bytes it consumed. Fully strict: header validation,
/// checksum verification, and kind check all apply.
///
/// # Errors
///
/// A typed [`SbedError`] for every damage mode; never panics.
pub fn decode_frame(bytes: &[u8]) -> Result<(Frame, usize)> {
    let mut cur = Cur::new(bytes);
    // Field-by-field takes so a truncated header names the exact field
    // that was cut, mirroring the artifact envelope's error style.
    cur.take(4, "frame magic")?;
    cur.take(2, "protocol version")?;
    cur.take(2, "frame kind")?;
    cur.take(8, "request id")?;
    cur.take(4, "payload length")?;
    cur.take(8, "payload checksum")?;
    let mut hdr = [0u8; HEADER_LEN];
    match bytes.get(..HEADER_LEN) {
        Some(h) => hdr.copy_from_slice(h),
        None => {
            return Err(SbedError::Truncated {
                what: "frame header",
                need: HEADER_LEN,
                have: bytes.len(),
            })
        }
    }
    let fields = validate_header(&hdr)?;
    let payload = cur.take(fields.len as usize, "payload")?;
    let computed = fnv1a64(payload);
    if computed != fields.checksum {
        return Err(SbedError::Checksum {
            stored: fields.checksum,
            computed,
        });
    }
    if !known_kind(fields.kind) {
        return Err(SbedError::UnknownKind { kind: fields.kind });
    }
    Ok((
        Frame {
            header: fields,
            payload: payload.to_vec(),
        },
        HEADER_LEN + fields.len as usize,
    ))
}

/// Encodes one frame. The checksum is computed here; this is the
/// canonical encoding, byte-identical for equal
/// `(kind, request_id, payload)`.
pub fn encode_frame(kind: u16, request_id: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&kind.to_le_bytes());
    out.extend_from_slice(&request_id.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// One stream event as it travels on the wire — the network analogue of
/// `titan_sim::events::TraceEvent`, carrying launch facts by value
/// (telemetry windows never travel; network artifacts are trained with
/// `FeatureSpec::no_telemetry()`).
#[derive(Debug, Clone, PartialEq)]
pub enum WireEvent {
    /// A minute boundary.
    Tick {
        /// The minute now starting.
        minute: u64,
    },
    /// An application launch.
    Launch {
        /// Launch minute.
        minute: u64,
        /// Application-run id, unique per launch.
        aprun: u32,
        /// Application id.
        app: u32,
        /// Scheduled runtime in minutes.
        runtime_min: u64,
        /// Aggregate GPU core utilisation.
        core_util: f64,
        /// Aggregate GPU memory utilisation.
        mem_util: f64,
        /// Allocated node ids, allocation order.
        nodes: Vec<u32>,
    },
    /// A job-boundary SBE snapshot delta.
    Sbe {
        /// Minute the delta becomes visible.
        minute: u64,
        /// The node.
        node: u32,
        /// The application.
        app: u32,
        /// SBE count delta.
        count: u32,
    },
}

const TAG_TICK: u8 = 0;
const TAG_LAUNCH: u8 = 1;
const TAG_SBE: u8 = 2;

impl WireEvent {
    /// The event's minute.
    pub fn minute(&self) -> u64 {
        match self {
            WireEvent::Tick { minute }
            | WireEvent::Launch { minute, .. }
            | WireEvent::Sbe { minute, .. } => *minute,
        }
    }

    /// Encodes the event payload (frame body for a [`KIND_EVENT`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            WireEvent::Tick { minute } => {
                out.push(TAG_TICK);
                out.extend_from_slice(&minute.to_le_bytes());
            }
            WireEvent::Launch {
                minute,
                aprun,
                app,
                runtime_min,
                core_util,
                mem_util,
                nodes,
            } => {
                out.push(TAG_LAUNCH);
                out.extend_from_slice(&minute.to_le_bytes());
                out.extend_from_slice(&aprun.to_le_bytes());
                out.extend_from_slice(&app.to_le_bytes());
                out.extend_from_slice(&runtime_min.to_le_bytes());
                out.extend_from_slice(&core_util.to_bits().to_le_bytes());
                out.extend_from_slice(&mem_util.to_bits().to_le_bytes());
                out.extend_from_slice(&(nodes.len() as u32).to_le_bytes());
                for n in nodes {
                    out.extend_from_slice(&n.to_le_bytes());
                }
            }
            WireEvent::Sbe {
                minute,
                node,
                app,
                count,
            } => {
                out.push(TAG_SBE);
                out.extend_from_slice(&minute.to_le_bytes());
                out.extend_from_slice(&node.to_le_bytes());
                out.extend_from_slice(&app.to_le_bytes());
                out.extend_from_slice(&count.to_le_bytes());
            }
        }
        out
    }

    /// Decodes an event payload. Trailing bytes are an error: a frame
    /// carries exactly one event.
    ///
    /// # Errors
    ///
    /// [`SbedError::Truncated`] / [`SbedError::Payload`]; never panics.
    pub fn decode(payload: &[u8]) -> Result<WireEvent> {
        let mut cur = Cur::new(payload);
        let tag = cur.u8("event tag")?;
        let ev = match tag {
            TAG_TICK => WireEvent::Tick {
                minute: cur.u64("tick minute")?,
            },
            TAG_LAUNCH => {
                let minute = cur.u64("launch minute")?;
                let aprun = cur.u32("launch aprun")?;
                let app = cur.u32("launch app")?;
                let runtime_min = cur.u64("launch runtime")?;
                let core_util = cur.f64("launch core util")?;
                let mem_util = cur.f64("launch mem util")?;
                let n_nodes = cur.u32("launch node count")?;
                if n_nodes == 0 {
                    return Err(SbedError::Payload {
                        reason: "launch allocates zero nodes".into(),
                    });
                }
                if n_nodes > MAX_EVENT_NODES {
                    return Err(SbedError::Payload {
                        reason: format!(
                            "launch node count {n_nodes} exceeds cap {MAX_EVENT_NODES}"
                        ),
                    });
                }
                let mut nodes = Vec::with_capacity(n_nodes as usize);
                for _ in 0..n_nodes {
                    nodes.push(cur.u32("launch node id")?);
                }
                WireEvent::Launch {
                    minute,
                    aprun,
                    app,
                    runtime_min,
                    core_util,
                    mem_util,
                    nodes,
                }
            }
            TAG_SBE => WireEvent::Sbe {
                minute: cur.u64("sbe minute")?,
                node: cur.u32("sbe node")?,
                app: cur.u32("sbe app")?,
                count: cur.u32("sbe count")?,
            },
            other => {
                return Err(SbedError::Payload {
                    reason: format!("unknown event tag {other}"),
                })
            }
        };
        cur.finish("event")?;
        Ok(ev)
    }
}

/// One node's entry inside a scores response.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreEntry {
    /// The node.
    pub node: u32,
    /// Predicted-SBE probability (bit-exact: travels as IEEE-754 bits).
    pub probability: f32,
    /// Hard decision at the model threshold.
    pub predicted: bool,
    /// Whether stage 2 scored the node (false = stage-1 filtered).
    pub stage2: bool,
    /// Mitigation decision: 0 none, 1 shorten checkpoint, 2 drain node.
    pub decision: u8,
}

/// Payload of a [`KIND_SCORES`] response: every node of one launch.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoresPayload {
    /// Launch minute.
    pub minute: u64,
    /// The application run the scores answer.
    pub aprun: u32,
    /// Per-node entries, emission order (sorted node order for scored
    /// launches; empty for launches outside the scoring window).
    pub entries: Vec<ScoreEntry>,
}

const FLAG_PREDICTED: u8 = 1 << 0;
const FLAG_STAGE2: u8 = 1 << 1;
const DECISION_SHIFT: u8 = 2;

impl ScoresPayload {
    /// Encodes the payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.entries.len() * 9);
        out.extend_from_slice(&self.minute.to_le_bytes());
        out.extend_from_slice(&self.aprun.to_le_bytes());
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for e in &self.entries {
            out.extend_from_slice(&e.node.to_le_bytes());
            out.extend_from_slice(&e.probability.to_bits().to_le_bytes());
            let mut flags = 0u8;
            if e.predicted {
                flags |= FLAG_PREDICTED;
            }
            if e.stage2 {
                flags |= FLAG_STAGE2;
            }
            flags |= (e.decision & 0b11) << DECISION_SHIFT;
            out.push(flags);
        }
        out
    }

    /// Decodes the payload.
    ///
    /// # Errors
    ///
    /// [`SbedError::Truncated`] / [`SbedError::Payload`]; never panics.
    pub fn decode(payload: &[u8]) -> Result<ScoresPayload> {
        let mut cur = Cur::new(payload);
        let minute = cur.u64("scores minute")?;
        let aprun = cur.u32("scores aprun")?;
        let n = cur.u32("scores entry count")?;
        if n > MAX_EVENT_NODES {
            return Err(SbedError::Payload {
                reason: format!("scores entry count {n} exceeds cap {MAX_EVENT_NODES}"),
            });
        }
        let mut entries = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let node = cur.u32("score node")?;
            let probability = cur.f32("score probability")?;
            let flags = cur.u8("score flags")?;
            entries.push(ScoreEntry {
                node,
                probability,
                predicted: flags & FLAG_PREDICTED != 0,
                stage2: flags & FLAG_STAGE2 != 0,
                decision: (flags >> DECISION_SHIFT) & 0b11,
            });
        }
        cur.finish("scores")?;
        Ok(ScoresPayload {
            minute,
            aprun,
            entries,
        })
    }
}

/// Payload of a [`KIND_ERROR`] response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorPayload {
    /// `ERR_*` code.
    pub code: u16,
    /// Human-readable detail.
    pub message: String,
}

impl ErrorPayload {
    /// Encodes the payload.
    pub fn encode(&self) -> Vec<u8> {
        let msg = self.message.as_bytes();
        let mut out = Vec::with_capacity(6 + msg.len());
        out.extend_from_slice(&self.code.to_le_bytes());
        out.extend_from_slice(&(msg.len() as u32).to_le_bytes());
        out.extend_from_slice(msg);
        out
    }

    /// Decodes the payload.
    ///
    /// # Errors
    ///
    /// [`SbedError::Truncated`] / [`SbedError::Payload`]; never panics.
    pub fn decode(payload: &[u8]) -> Result<ErrorPayload> {
        let mut cur = Cur::new(payload);
        let code = cur.u16("error code")?;
        let len = cur.u32("error message length")?;
        let msg = cur.take(len as usize, "error message")?;
        cur.finish("error")?;
        Ok(ErrorPayload {
            code,
            message: String::from_utf8_lossy(msg).into_owned(),
        })
    }
}

/// Payload of a [`KIND_REPORT`] response: the session's deterministic
/// end-of-stream summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReportPayload {
    /// Events admitted (ticks + launches + SBE deltas).
    pub n_events: u64,
    /// Score requests issued (launch-nodes inside the window).
    pub n_requests: u64,
    /// Requests that reached the stage-2 classifier.
    pub n_stage2: u64,
    /// Batches flushed.
    pub n_batches: u64,
    /// Alerts (mitigation decisions) emitted.
    pub n_alerts: u64,
    /// FNV-1a checksum of the final obskit metrics snapshot JSON —
    /// byte-stability of the whole metrics surface in eight bytes.
    pub snapshot_fnv: u64,
    /// Hot swaps committed during the run.
    pub n_swaps: u64,
    /// The serving generation at end of stream (0 when no swap ever
    /// committed).
    pub generation: u32,
}

impl ReportPayload {
    /// Encodes the payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(60);
        for v in [
            self.n_events,
            self.n_requests,
            self.n_stage2,
            self.n_batches,
            self.n_alerts,
            self.snapshot_fnv,
            self.n_swaps,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&self.generation.to_le_bytes());
        out
    }

    /// Decodes the payload.
    ///
    /// # Errors
    ///
    /// [`SbedError::Truncated`] / [`SbedError::Payload`]; never panics.
    pub fn decode(payload: &[u8]) -> Result<ReportPayload> {
        let mut cur = Cur::new(payload);
        let r = ReportPayload {
            n_events: cur.u64("report events")?,
            n_requests: cur.u64("report requests")?,
            n_stage2: cur.u64("report stage2")?,
            n_batches: cur.u64("report batches")?,
            n_alerts: cur.u64("report alerts")?,
            snapshot_fnv: cur.u64("report snapshot checksum")?,
            n_swaps: cur.u64("report swap count")?,
            generation: cur.u32("report generation")?,
        };
        cur.finish("report")?;
        Ok(r)
    }
}

/// Maps an [`SbedError`] onto the wire error code a daemon answers
/// with.
pub fn error_code(e: &SbedError) -> u16 {
    match e {
        SbedError::Truncated { .. }
        | SbedError::BadMagic { .. }
        | SbedError::Version { .. }
        | SbedError::UnknownKind { .. }
        | SbedError::Oversize { .. }
        | SbedError::Checksum { .. }
        | SbedError::Payload { .. } => ERR_MALFORMED,
        SbedError::Overload { .. } => ERR_OVERLOAD,
        SbedError::Draining => ERR_DRAINING,
        _ => ERR_INTERNAL,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn launch() -> WireEvent {
        WireEvent::Launch {
            minute: 61,
            aprun: 7,
            app: 3,
            runtime_min: 45,
            core_util: 0.625,
            mem_util: 0.25,
            nodes: vec![4, 1, 9],
        }
    }

    #[test]
    fn frame_round_trips() {
        let payload = launch().encode();
        let bytes = encode_frame(KIND_EVENT, 42, &payload);
        let (frame, used) = decode_frame(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(frame.header.kind, KIND_EVENT);
        assert_eq!(frame.header.request_id, 42);
        assert_eq!(frame.payload, payload);
        assert_eq!(WireEvent::decode(&frame.payload).unwrap(), launch());
    }

    #[test]
    fn events_round_trip() {
        for ev in [
            WireEvent::Tick { minute: 0 },
            WireEvent::Tick { minute: u64::MAX },
            launch(),
            WireEvent::Sbe {
                minute: 9,
                node: 3,
                app: 2,
                count: 11,
            },
        ] {
            assert_eq!(WireEvent::decode(&ev.encode()).unwrap(), ev);
        }
    }

    #[test]
    fn scores_round_trip_bit_exact() {
        let p = ScoresPayload {
            minute: 100,
            aprun: 5,
            entries: vec![
                ScoreEntry {
                    node: 1,
                    probability: 0.123_456_79,
                    predicted: true,
                    stage2: true,
                    decision: 2,
                },
                ScoreEntry {
                    node: 2,
                    probability: 0.0,
                    predicted: false,
                    stage2: false,
                    decision: 0,
                },
            ],
        };
        let d = ScoresPayload::decode(&p.encode()).unwrap();
        assert_eq!(d, p);
        assert_eq!(
            d.entries[0].probability.to_bits(),
            p.entries[0].probability.to_bits()
        );
    }

    #[test]
    fn error_and_report_round_trip() {
        let e = ErrorPayload {
            code: ERR_OVERLOAD,
            message: "queue full (8/8)".into(),
        };
        assert_eq!(ErrorPayload::decode(&e.encode()).unwrap(), e);
        let r = ReportPayload {
            n_events: 1,
            n_requests: 2,
            n_stage2: 3,
            n_batches: 4,
            n_alerts: 5,
            snapshot_fnv: 0xdead_beef,
            n_swaps: 2,
            generation: 2,
        };
        assert_eq!(ReportPayload::decode(&r.encode()).unwrap(), r);
    }

    #[test]
    fn trailing_bytes_are_typed_errors() {
        let mut payload = WireEvent::Tick { minute: 3 }.encode();
        payload.push(0);
        assert!(matches!(
            WireEvent::decode(&payload),
            Err(SbedError::Payload { .. })
        ));
    }

    #[test]
    fn error_codes_partition_damage() {
        assert_eq!(
            error_code(&SbedError::BadMagic { found: [0; 4] }),
            ERR_MALFORMED
        );
        assert_eq!(
            error_code(&SbedError::Checksum {
                stored: 0,
                computed: 1
            }),
            ERR_MALFORMED
        );
        assert_eq!(
            error_code(&SbedError::Overload {
                queued: 1,
                capacity: 1
            }),
            ERR_OVERLOAD
        );
        assert_eq!(error_code(&SbedError::Draining), ERR_DRAINING);
        assert_eq!(
            error_code(&SbedError::Internal { reason: "x".into() }),
            ERR_INTERNAL
        );
    }
}
