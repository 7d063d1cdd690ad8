//! Deterministic replay of a recorded request log.
//!
//! The daemon records every *admitted* frame — in admission order, which
//! is request-id order — to a log file. Because the [`ScoreSession`] is
//! a pure function of that sequence, re-feeding the log through a fresh
//! session must reproduce the run exactly: every response byte (checked
//! via the rolling response checksum), the final metrics snapshot, and
//! the report. `repro serve-net --record` runs this check after every
//! recorded run, and the parity suite replays across thread counts.
//!
//! Log format: a 16-byte header — magic `b"SBEDLOG\x01"` then the
//! artifact's schema hash, little-endian, so a log is never replayed
//! against a different model — followed by the admitted frames,
//! concatenated verbatim.

use crate::session::ScoreSession;
use crate::wire::{self, ReportPayload};
use crate::{Result, SbedError};
use std::io::Write;
use std::path::Path;
use streamd::artifact::PipelineArtifact;
use streamd::serve::ServeConfig;
use titan_sim::topology::Topology;

/// Log-file magic (version byte included).
pub const LOG_MAGIC: [u8; 8] = *b"SBEDLOG\x01";

/// The log header for an artifact: magic plus schema hash.
pub fn log_header(schema_hash: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    out.extend_from_slice(&LOG_MAGIC);
    out.extend_from_slice(&schema_hash.to_le_bytes());
    out
}

/// An incremental log writer the daemon appends admitted frames to.
#[derive(Debug)]
pub struct LogWriter {
    file: std::fs::File,
}

impl LogWriter {
    /// Creates (truncates) the log and writes its header.
    ///
    /// # Errors
    ///
    /// File I/O.
    pub fn create(path: &Path, schema_hash: u64) -> Result<LogWriter> {
        let mut file = std::fs::File::create(path).map_err(|e| SbedError::Io {
            context: format!("creating request log {}", path.display()),
            source: e,
        })?;
        file.write_all(&log_header(schema_hash))
            .map_err(|e| SbedError::Io {
                context: "writing request-log header".into(),
                source: e,
            })?;
        Ok(LogWriter { file })
    }

    /// Appends one admitted frame.
    ///
    /// # Errors
    ///
    /// File I/O.
    pub fn append(&mut self, frame: &[u8]) -> Result<()> {
        self.file.write_all(frame).map_err(|e| SbedError::Io {
            context: "appending to request log".into(),
            source: e,
        })
    }
}

/// What replaying a log produced.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// The final metrics snapshot.
    pub snapshot: String,
    /// The rolling checksum over every emitted response frame.
    pub response_fnv: u64,
    /// The end-of-stream report.
    pub report: ReportPayload,
    /// Frames admitted from the log.
    pub n_frames: u64,
}

/// Replays a recorded log (as bytes) through a fresh session.
///
/// A log holds what the daemon admitted, in order, so every frame's
/// request id is checked against it: an EVENT or FINISH carries the
/// next admission sequence number, a SWAP the number of the frame
/// after it, and nothing follows a FINISH. The payload checksum does
/// not cover these header fields, so this is what catches a damaged id
/// or kind.
///
/// # Errors
///
/// A malformed log or schema-hash mismatch ([`SbedError::Payload`] /
/// [`SbedError::Protocol`]), frame decode errors (a log cut inside a
/// frame is [`SbedError::Truncated`]), a frame out of sequence
/// ([`SbedError::Protocol`]), and scoring-core failures.
pub fn replay_log_bytes(
    bytes: &[u8],
    artifact: &PipelineArtifact,
    cfg: &ServeConfig,
    topology: Topology,
) -> Result<ReplayOutcome> {
    let header = bytes.get(..16).ok_or(SbedError::Truncated {
        what: "log header",
        need: 16,
        have: bytes.len(),
    })?;
    let (magic, hash_b) = header.split_at(8);
    if magic != LOG_MAGIC {
        return Err(SbedError::Payload {
            reason: "not an sbed request log".into(),
        });
    }
    let mut hash = [0u8; 8];
    hash.copy_from_slice(hash_b);
    let logged_hash = u64::from_le_bytes(hash);
    if logged_hash != artifact.schema_hash() {
        return Err(SbedError::Protocol {
            reason: format!(
                "log was recorded against schema {logged_hash:#018x}, artifact is {:#018x}",
                artifact.schema_hash()
            ),
        });
    }
    let mut session = ScoreSession::new(artifact, cfg, topology)?;
    let mut rest = bytes.get(16..).unwrap_or(&[]);
    let mut n_frames = 0u64;
    // The admission sequence number of the next EVENT or FINISH.
    let mut next_seq = 0u64;
    while !rest.is_empty() {
        let (frame, used) = wire::decode_frame(rest)?;
        rest = rest.get(used..).unwrap_or(&[]);
        let (kind, id) = (frame.header.kind, frame.header.request_id);
        let misplaced = |what: String| SbedError::Protocol {
            reason: format!("log frame {n_frames} {what}"),
        };
        if session.finished() {
            return Err(misplaced("follows the FINISH".into()));
        }
        if !matches!(kind, wire::KIND_EVENT | wire::KIND_FINISH | wire::KIND_SWAP) {
            return Err(misplaced(format!("has kind {kind:#06x}, never logged")));
        }
        if id != next_seq {
            return Err(misplaced(format!(
                "carries request id {id}; its admission sequence is {next_seq}"
            )));
        }
        n_frames += 1;
        // A logged SWAP frame marks where the live engine hot-swapped
        // its artifact; replaying it at the same position reproduces
        // every post-swap score. The engine validated before logging,
        // so a failure here means the log or artifact chain is damaged.
        if kind == wire::KIND_SWAP {
            let swap = session.prepare_swap(&frame.payload)?;
            session.apply_swap(swap)?;
        } else {
            session.handle(kind, id, &frame.payload)?;
            next_seq += 1;
        }
    }
    // A log that ends without a FINISH frame was a drained run: apply
    // the same finalisation the live daemon did.
    session.finalize()?;
    Ok(ReplayOutcome {
        snapshot: session.snapshot_json(),
        response_fnv: session.response_fnv(),
        report: session.report(),
        n_frames,
    })
}

/// Replays a recorded log file through a fresh session.
///
/// # Errors
///
/// File I/O plus everything [`replay_log_bytes`] rejects.
pub fn replay_log_file(
    path: &Path,
    artifact: &PipelineArtifact,
    cfg: &ServeConfig,
    topology: Topology,
) -> Result<ReplayOutcome> {
    let bytes = std::fs::read(path).map_err(|e| SbedError::Io {
        context: format!("reading request log {}", path.display()),
        source: e,
    })?;
    replay_log_bytes(&bytes, artifact, cfg, topology)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::tests::{demo_run, models};
    use crate::admission::{Admission, Input};
    use crate::wire::HEADER_LEN;
    use std::sync::OnceLock;

    /// A log the admission core recorded, once: the demo run's 210
    /// events and its FINISH, with the successor swapped in at frame 105.
    fn recorded_log() -> &'static [u8] {
        static LOG: OnceLock<Vec<u8>> = OnceLock::new();
        LOG.get_or_init(|| {
            let (champion, successor) = models();
            let (topology, serve, frames) = demo_run(5);
            let path =
                std::env::temp_dir().join(format!("sbed_log_cuts_{}.bin", std::process::id()));
            let log = LogWriter::create(&path, champion.schema_hash()).expect("log");
            let session = ScoreSession::new(champion, &serve, topology).expect("session");
            let mut core = Admission::new(session, Some(log));
            let swap = Input::Swap {
                at_seq: 105,
                envelope: successor.clone(),
            };
            core.deliver(swap).expect("swap");
            for (seq, (kind, payload)) in frames.into_iter().enumerate() {
                let frame = Input::Frame {
                    peer: 0u64,
                    seq: seq as u64,
                    kind,
                    payload,
                };
                core.deliver(frame).expect("frame");
            }
            core.shut().expect("shut");
            drop(core);
            let bytes = std::fs::read(&path).expect("read log");
            std::fs::remove_file(&path).ok();
            bytes
        })
    }

    fn replay(bytes: &[u8]) -> Result<ReplayOutcome> {
        let (champion, _) = models();
        let (topology, serve, _) = demo_run(5);
        replay_log_bytes(bytes, champion, &serve, topology)
    }

    /// The end offset of every frame in `log`.
    fn frame_ends(log: &[u8]) -> Vec<usize> {
        let mut ends = Vec::new();
        let mut at = 16;
        while at < log.len() {
            let (_, used) = wire::decode_frame(&log[at..]).expect("logged frame");
            at += used;
            ends.push(at);
        }
        ends
    }

    /// A log cut at frame boundary k replays the first k frames (a
    /// drained run); a cut inside the header or any frame is a typed
    /// truncation, never a panic.
    #[test]
    fn a_cut_log_replays_its_whole_frames_or_reports_the_truncation() {
        let log = recorded_log();
        let ends = frame_ends(log);
        assert_eq!(ends.len(), 212, "210 events, the swap and the FINISH");
        let whole = replay(log).expect("whole log");
        assert_eq!(whole.report.n_swaps, 1);
        for cut in [0, 1, 8, 15] {
            let e = replay(&log[..cut]).expect_err("cut header");
            assert!(matches!(e, SbedError::Truncated { .. }), "cut {cut}: {e}");
        }
        let mut start = 16;
        for (k, &end) in ends.iter().enumerate() {
            let replayed = replay(&log[..start]).expect("cut at a boundary");
            assert_eq!(replayed.n_frames, k as u64);
            let inside = [1, HEADER_LEN - 1, HEADER_LEN, end - start - 1];
            for cut in inside.map(|d| start + d).into_iter().filter(|&c| c < end) {
                let e = replay(&log[..cut]).expect_err("cut inside a frame");
                assert!(matches!(e, SbedError::Truncated { .. }), "cut {cut}: {e}");
            }
            start = end;
        }
    }

    /// Header damage the payload checksum cannot see: a request id off
    /// its admission sequence, on an EVENT or on the SWAP, and an EVENT
    /// turned into a FINISH with frames after it.
    #[test]
    fn a_frame_out_of_sequence_is_a_typed_error() {
        let log = recorded_log();
        let ends = frame_ends(log);
        let at = |k: usize| if k == 0 { 16 } else { ends[k - 1] };
        let kind = |log: &[u8], k: usize| u16::from_le_bytes([log[at(k) + 6], log[at(k) + 7]]);
        let swap = (0..ends.len())
            .find(|&k| kind(log, k) == wire::KIND_SWAP)
            .expect("logged swap");
        assert_eq!(swap, 105);
        let mut damages: Vec<Vec<u8>> = Vec::new();
        for k in [5, swap, swap + 1] {
            let mut bad = log.to_vec();
            bad[at(k) + 8] ^= 1;
            damages.push(bad);
        }
        let mut finish_early = log.to_vec();
        finish_early[at(5) + 6..at(5) + 8].copy_from_slice(&wire::KIND_FINISH.to_le_bytes());
        damages.push(finish_early);
        let mut not_a_request = log.to_vec();
        not_a_request[at(5) + 6..at(5) + 8].copy_from_slice(&wire::KIND_ACK.to_le_bytes());
        damages.push(not_a_request);
        for (i, bad) in damages.iter().enumerate() {
            let e = replay(bad).expect_err("damaged header");
            assert!(matches!(e, SbedError::Protocol { .. }), "damage {i}: {e}");
        }
    }
}
