//! sbed — the fleet-scale network scoring daemon.
//!
//! `streamd` answers "what would deploying the TwoStage predictor look
//! like?" for an in-process replay; this crate answers it for a
//! *fleet*: many clients streaming launch/SBE events to one scoring
//! service over TCP and getting per-node probabilities back. It
//! provides:
//!
//! * [`wire`] — the length-prefixed binary frame protocol (FNV-1a
//!   checksummed, mirroring the artifact envelope's integrity
//!   conventions), with total, typed, panic-free decoding;
//! * [`session`] — the sequential scoring state machine: admitted
//!   frames in, deterministic response stream out;
//! * [`daemon`] — the TCP server (std blocking I/O, no async runtime):
//!   reader threads, one engine thread, replies written once per burst
//!   under a write timeout, and graceful drain. The engine owns the
//!   crate-private admission core: the sequencer that makes
//!   multi-connection serving a pure function of the request sequence,
//!   bounded typed back-pressure, swap boundaries and request-log
//!   recording, with no socket, thread or clock;
//! * [`replay`] — bit-identical re-scoring of a recorded request log;
//! * [`client`] / [`fleet`] — the wire client, the mock-fleet load
//!   driver with failure-node injection, and seeded synthetic
//!   workloads.
//!
//! The subsystem's contract is *fleet/process parity*: a fleet of
//! connections delivering an event stream scores bit-identically to
//! feeding the same stream through one in-process session — at any
//! worker thread count, any connection count, under overload and
//! injected corruption — and a recorded run replays byte for byte.
//! `tests/sbed_replay_parity.rs` at the workspace root locks both
//! down; `crates/sbed/tests/` holds the wire-corruption battery and
//! the back-pressure/drain suite.

pub mod client;
pub mod daemon;
pub mod fleet;
pub mod replay;
pub mod session;
pub mod wire;

mod admission;
mod error;
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod fixture;

pub use error::SbedError;

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, SbedError>;
