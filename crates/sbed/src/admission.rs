//! The daemon's admission core: every rule between a checked request
//! frame and the [`ScoreSession`], apart from the transport, so that it
//! runs, and is checked, without a socket.
//!
//! The daemon's engine feeds an [`Admission`] what its queue carries
//! ([`Input`]: a frame tagged with its sender, a scheduled swap, or the
//! drain), then [`Admission::shut`] ends the run. After each burst,
//! [`Admission::take_replies`] hands back each connection's reply bytes,
//! in the order the core made them, and the window slots they free. A
//! sender is any [`Peer`]: the engine's connection handle, or a plain
//! number in tests. The rules:
//!
//! * **Sequencing.** A frame's request id is its admission sequence
//!   number. Early arrivals wait in a reorder buffer of at most
//!   [`REORDER_CAPACITY`] frames, and the session is fed strictly in
//!   sequence order. A stale or duplicate number is refused with
//!   [`wire::ERR_REJECTED`], an early frame that finds the buffer full
//!   with [`wire::ERR_OVERLOAD`].
//! * **Window slots.** A frame frees its sender's slot at its first
//!   reply (its ACK, an error or the REPORT). A SCORES frees nothing.
//! * **Swap boundaries.** A swap scheduled at `s` applies after frame
//!   `s − 1` and before frame `s`, or at the next boundary reached if
//!   `s` has passed. The last swap scheduled at a boundary wins. One it
//!   replaced, one the session refuses, one scheduled after the drain
//!   and one the run never reaches count as rejected, so every scheduled
//!   swap is either applied or counted.
//! * **Drain and shut.** After the drain, frames already queued are
//!   still admitted. Shut finalises the session and refuses every
//!   buffered frame with [`wire::ERR_DRAINING`].
//! * **The record log.** Each admitted frame and applied swap is
//!   appended in admission order, for [`crate::replay`].

use crate::daemon::DaemonReport;
use crate::replay::LogWriter;
use crate::session::ScoreSession;
use crate::wire::{self, EncodedResponse};
use crate::{Result, SbedError};
use std::collections::BTreeMap;

/// Reorder-buffer bound: early arrivals held for the sequencer.
pub(crate) const REORDER_CAPACITY: usize = 4096;

/// A reply's destination: the engine's connection handle, or a plain
/// number in tests.
pub(crate) trait Peer: Clone {
    /// Unique among the daemon's connections; orders a burst's writes.
    fn key(&self) -> u64;
}

impl Peer for u64 {
    fn key(&self) -> u64 {
        *self
    }
}

/// One message for the core, as the engine's queue carries it.
pub(crate) enum Input<P> {
    /// A checked request frame from `peer`; `seq` is its request id.
    Frame {
        peer: P,
        seq: u64,
        kind: u16,
        payload: Vec<u8>,
    },
    /// A hot swap (artifact envelope bytes) scheduled at a boundary.
    Swap { at_seq: u64, envelope: Vec<u8> },
    /// Stop taking swaps; the engine stops after this burst.
    Drain,
}

/// One connection's share of a burst.
pub(crate) struct Replies<P> {
    pub(crate) peer: P,
    /// Reply frames, concatenated in the order the core made them.
    pub(crate) bytes: Vec<u8>,
    /// Window slots these replies free.
    pub(crate) freed: usize,
}

/// Encodes a direct (non-session) error response. These answer frames
/// the session never handled, so they are outside the replay surface by
/// design.
pub(crate) fn error_frame(request_id: u64, code: u16, message: &str) -> Vec<u8> {
    let payload = wire::ErrorPayload {
        code,
        message: message.to_string(),
    }
    .encode();
    wire::encode_frame(wire::KIND_ERROR, request_id, &payload)
}

/// Adds `bytes` to `peer`'s replies in `outbox`, freeing a slot if
/// `frees`.
fn push_reply<P: Peer>(
    outbox: &mut BTreeMap<u64, Replies<P>>,
    peer: &P,
    bytes: &[u8],
    frees: bool,
) {
    let replies = outbox.entry(peer.key()).or_insert_with(|| Replies {
        peer: peer.clone(),
        bytes: Vec::new(),
        freed: 0,
    });
    replies.bytes.extend_from_slice(bytes);
    replies.freed += usize::from(frees);
}

/// The admission state machine (module docs).
pub(crate) struct Admission<'a, P> {
    session: ScoreSession<'a>,
    /// Early arrivals by sequence: sender, kind and payload.
    buffer: BTreeMap<u64, (P, u16, Vec<u8>)>,
    /// Admitted requests still owed their final reply, each with
    /// whether it still holds its window slot (until its first reply).
    open: BTreeMap<u64, (P, bool)>,
    /// This burst's replies, keyed by [`Peer::key`].
    outbox: BTreeMap<u64, Replies<P>>,
    /// Hot swaps scheduled for a future admission boundary: the swap
    /// keyed by `s` applies after every frame below `s` is scored and
    /// before frame `s` is admitted.
    swaps: BTreeMap<u64, Vec<u8>>,
    /// The next sequence number to admit, and the count admitted.
    next_seq: u64,
    n_overloads: u64,
    n_swaps_rejected: u64,
    draining: bool,
    log: Option<LogWriter>,
}

impl<'a, P: Peer> Admission<'a, P> {
    pub(crate) fn new(session: ScoreSession<'a>, log: Option<LogWriter>) -> Admission<'a, P> {
        Admission {
            session,
            buffer: BTreeMap::new(),
            open: BTreeMap::new(),
            outbox: BTreeMap::new(),
            swaps: BTreeMap::new(),
            next_seq: 0,
            n_overloads: 0,
            n_swaps_rejected: 0,
            draining: false,
            log,
        }
    }

    /// Whether the session has answered a FINISH.
    pub(crate) fn finished(&self) -> bool {
        self.session.finished()
    }

    /// Whether a drain has begun.
    pub(crate) fn draining(&self) -> bool {
        self.draining
    }

    /// Takes one message from the queue.
    ///
    /// # Errors
    ///
    /// Scoring-core and record-log failures (fatal). Swap *validation*
    /// failures are not fatal: the champion keeps serving.
    pub(crate) fn deliver(&mut self, input: Input<P>) -> Result<()> {
        match input {
            Input::Frame {
                peer,
                seq,
                kind,
                payload,
            } => self.enqueue(peer, seq, kind, payload),
            // A draining daemon keeps its champion to the end.
            Input::Swap { .. } if self.draining => {
                self.n_swaps_rejected += 1;
                Ok(())
            }
            // Last scheduling wins for a boundary, and the swap it
            // replaces counts as rejected; pump applies the winner once
            // every frame below `at_seq` has been scored.
            Input::Swap { at_seq, envelope } => {
                if self.swaps.insert(at_seq, envelope).is_some() {
                    self.n_swaps_rejected += 1;
                }
                self.pump()
            }
            Input::Drain => {
                self.draining = true;
                Ok(())
            }
        }
    }

    /// This burst's replies, one entry per connection in key order.
    pub(crate) fn take_replies(&mut self) -> impl Iterator<Item = Replies<P>> {
        std::mem::take(&mut self.outbox).into_values()
    }

    /// Collects session responses for their requesters, freeing a
    /// request's window slot at its first response.
    fn route(&mut self, responses: Vec<EncodedResponse>) {
        for r in responses {
            let Some((peer, holds_slot)) = self.open.get_mut(&r.request_id) else {
                continue;
            };
            push_reply(&mut self.outbox, peer, &r.bytes, std::mem::take(holds_slot));
            if r.last {
                self.open.remove(&r.request_id);
            }
        }
    }

    /// Answers a frame the session will not handle with a direct error,
    /// freeing its window slot.
    fn refuse(&mut self, peer: &P, seq: u64, code: u16, message: &str) {
        let frame = error_frame(seq, code, message);
        push_reply(&mut self.outbox, peer, &frame, true);
    }

    /// Places one frame into the reorder buffer (answering stale,
    /// duplicate, and buffer-overflow cases directly), then admits
    /// every frame that is now in sequence.
    fn enqueue(&mut self, peer: P, seq: u64, kind: u16, payload: Vec<u8>) -> Result<()> {
        if seq < self.next_seq {
            let message = format!(
                "sequence {seq} already admitted (next is {})",
                self.next_seq
            );
            self.refuse(&peer, seq, wire::ERR_REJECTED, &message);
            return Ok(());
        }
        if self.buffer.contains_key(&seq) {
            let message = format!("sequence {seq} already queued");
            self.refuse(&peer, seq, wire::ERR_REJECTED, &message);
            return Ok(());
        }
        if seq != self.next_seq && self.buffer.len() >= REORDER_CAPACITY {
            self.n_overloads += 1;
            let message = SbedError::Overload {
                queued: self.buffer.len(),
                capacity: REORDER_CAPACITY,
            }
            .to_string();
            self.refuse(&peer, seq, wire::ERR_OVERLOAD, &message);
            return Ok(());
        }
        self.buffer.insert(seq, (peer, kind, payload));
        self.pump()
    }

    /// Applies every hot swap whose boundary has been reached: swaps
    /// scheduled at or before `next_seq` run now, strictly between
    /// admitted frames. A swap the session refuses (bad lineage,
    /// schema mismatch, stale generation) is counted and dropped
    /// *before* logging, so the recorded log only contains swaps a
    /// replay will accept; an accepted swap is logged first, then
    /// applied, exactly the order the replayer reproduces.
    fn apply_due_swaps(&mut self) -> Result<()> {
        while let Some(entry) = self.swaps.first_entry() {
            if *entry.key() > self.next_seq {
                break;
            }
            let envelope = entry.remove();
            let Ok(swap) = self.session.prepare_swap(&envelope) else {
                self.n_swaps_rejected += 1;
                continue;
            };
            if let Some(log) = self.log.as_mut() {
                let frame = wire::encode_frame(wire::KIND_SWAP, self.next_seq, &envelope);
                log.append(&frame)?;
            }
            let responses = self.session.apply_swap(swap)?;
            self.route(responses);
        }
        Ok(())
    }

    /// Admits every in-sequence frame: applies due swaps at the
    /// boundary, records the frame, feeds the session, routes the
    /// responses.
    fn pump(&mut self) -> Result<()> {
        self.apply_due_swaps()?;
        while let Some((peer, kind, payload)) = self.buffer.remove(&self.next_seq) {
            let seq = self.next_seq;
            self.next_seq += 1;
            if let Some(log) = self.log.as_mut() {
                log.append(&wire::encode_frame(kind, seq, &payload))?;
            }
            match self.session.handle(kind, seq, &payload) {
                Ok(responses) => {
                    self.open.insert(seq, (peer, true));
                    self.route(responses);
                }
                Err(e) => {
                    // Tell the requester before the daemon aborts.
                    let message = format!("scoring failed: {e}");
                    self.refuse(&peer, seq, wire::ERR_INTERNAL, &message);
                    return Err(e);
                }
            }
            if self.session.finished() {
                break;
            }
            self.apply_due_swaps()?;
        }
        Ok(())
    }

    /// Ends the run: finalises the session (drain case), answers what
    /// completed, and refuses everything still stuck in the reorder
    /// buffer. Swaps scheduled past the end of the run never applied
    /// and were never logged; they count as rejected.
    ///
    /// # Errors
    ///
    /// Scoring-core failures.
    pub(crate) fn shut(&mut self) -> Result<()> {
        let finalized = self.session.finalize()?;
        self.route(finalized);
        let message = SbedError::Draining.to_string();
        for (seq, (peer, ..)) in std::mem::take(&mut self.buffer) {
            self.refuse(&peer, seq, wire::ERR_DRAINING, &message);
        }
        self.n_swaps_rejected += self.swaps.len() as u64;
        self.swaps.clear();
        Ok(())
    }

    /// The run's report as far as the core knows it. The transport's
    /// own counts (connections, transport errors, and the window and
    /// queue refusals it answered) are zero here; [`crate::daemon`]
    /// adds them.
    pub(crate) fn report(&self) -> DaemonReport {
        DaemonReport {
            report: self.session.report(),
            snapshot: self.session.snapshot_json(),
            response_fnv: self.session.response_fnv(),
            n_rejected: self.session.n_rejected(),
            n_admitted: self.next_seq,
            n_connections: 0,
            n_transport_errors: 0,
            n_overloads: self.n_overloads,
            n_swaps_rejected: self.n_swaps_rejected,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::fixture::{fitted_artifact, synthetic_artifact};
    use crate::fleet::{synth_events, SynthConfig};
    use crate::wire::WireEvent;
    use mlkit::artifact::Lineage;
    use mlkit::hash::fnv1a64;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::{BTreeSet, VecDeque};
    use std::sync::OnceLock;
    use streamd::artifact::PipelineArtifact;
    use streamd::serve::ServeConfig;
    use titan_sim::topology::Topology;

    /// The champion and the envelope of a differently seeded successor
    /// whose lineage names it as parent.
    pub(crate) fn models() -> &'static (PipelineArtifact, Vec<u8>) {
        static MODELS: OnceLock<(PipelineArtifact, Vec<u8>)> = OnceLock::new();
        MODELS.get_or_init(|| {
            let champion = synthetic_artifact();
            let parent = fnv1a64(&champion.to_bytes().expect("champion bytes"));
            let successor = fitted_artifact(1717, 6, 60, "successor")
                .to_bytes_with_lineage(Lineage::child_of(parent, 0, 0, 60))
                .expect("successor envelope");
            (champion, successor)
        })
    }

    /// A run over the tiny topology: `SynthConfig::demo`'s 210 events,
    /// then a FINISH, as (kind, payload) in sequence order.
    pub(crate) type Run = (Topology, ServeConfig, Vec<(u16, Vec<u8>)>);

    pub(crate) fn demo_run(seed: u64) -> Run {
        let topology = Topology::tiny().expect("tiny topology");
        let synth = SynthConfig::demo(seed, topology.n_nodes());
        let mut frames: Vec<(u16, Vec<u8>)> = synth_events(&synth)
            .iter()
            .map(|ev| (wire::KIND_EVENT, ev.encode()))
            .collect();
        frames.push((wire::KIND_FINISH, Vec::new()));
        (topology, ServeConfig::window(0, synth.minutes), frames)
    }

    fn core<'a>(champion: &'a PipelineArtifact, run: &Run) -> Admission<'a, u64> {
        let session = ScoreSession::new(champion, &run.1, run.0).expect("session");
        Admission::new(session, None)
    }

    fn frame(peer: u64, seq: u64, (kind, payload): &(u16, Vec<u8>)) -> Input<u64> {
        Input::Frame {
            peer,
            seq,
            kind: *kind,
            payload: payload.clone(),
        }
    }

    fn tick(minute: u64) -> (u16, Vec<u8>) {
        (wire::KIND_EVENT, WireEvent::Tick { minute }.encode())
    }

    /// Splits a connection's reply bytes into frames.
    fn frames_of(mut bytes: &[u8]) -> Vec<wire::Frame> {
        let mut out = Vec::new();
        while !bytes.is_empty() {
            let (f, used) = wire::decode_frame(bytes).expect("reply frame");
            out.push(f);
            bytes = &bytes[used..];
        }
        out
    }

    fn error_code_of(f: &wire::Frame) -> u16 {
        assert_eq!(f.header.kind, wire::KIND_ERROR, "{f:?}");
        wire::ErrorPayload::decode(&f.payload)
            .expect("error payload")
            .code
    }

    /// What one connection has sent and been sent back.
    #[derive(Default)]
    struct Conn {
        delivered: usize,
        freed: usize,
        bytes: Vec<u8>,
    }

    /// Moves a burst's replies to their connections, naming the first
    /// connection freed more slots than it has delivered frames.
    fn collect_burst(core: &mut Admission<'_, u64>, conns: &mut [Conn]) -> Option<u64> {
        let mut overfreed = None;
        for r in core.take_replies() {
            let conn = &mut conns[r.peer as usize];
            conn.freed += r.freed;
            conn.bytes.extend_from_slice(&r.bytes);
            if conn.freed > conn.delivered {
                overfreed = overfreed.or(Some(r.peer));
            }
        }
        overfreed
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// 1–4 connections deliver a demo stream in a random
        /// interleaving, each in its own send order, resending earlier
        /// frames now and then (stale or duplicate); a successor is
        /// scheduled at a random boundary at a random point, a drain
        /// comes at a random point, and the run is shut at a random
        /// point. Each delivery frees exactly one slot, each connection
        /// gets the session replies of the frames it delivered first,
        /// in order, and the response checksum is that of a sequential
        /// session fed the admitted prefix with the swap between frames
        /// s − 1 and s.
        #[test]
        fn core_answers_as_a_sequential_session(
            stream_seed in 0u64..1_000,
            schedule_seed in 0u64..1_000_000,
            n_conns in 1usize..5,
            swap_at in 0u64..230,
        ) {
            let (champion, successor) = models();
            let run = demo_run(stream_seed);
            let frames = &run.2;
            let n = frames.len() as u64;
            let mut rng = StdRng::seed_from_u64(schedule_seed);

            let mut unsent: Vec<VecDeque<u64>> = vec![VecDeque::new(); n_conns];
            for seq in 0..n {
                unsent[rng.gen_range(0..n_conns)].push_back(seq);
            }
            let mut sent: Vec<Vec<u64>> = vec![Vec::new(); n_conns];
            let mut deliveries: Vec<(usize, u64)> = Vec::new();
            while unsent.iter().any(|q| !q.is_empty()) {
                let c = rng.gen_range(0..n_conns);
                if !sent[c].is_empty() && rng.gen_range(0..8) == 0 {
                    deliveries.push((c, sent[c][rng.gen_range(0..sent[c].len())]));
                } else if let Some(seq) = unsent[c].pop_front() {
                    sent[c].push(seq);
                    deliveries.push((c, seq));
                }
            }
            // Cut after `end` deliveries (the whole stream one time in
            // four); deliveries after the drain still count, as the
            // engine takes everything already queued.
            let end = if rng.gen_range(0..4) == 0 {
                deliveries.len()
            } else {
                rng.gen_range(0..deliveries.len() + 1)
            };
            let swap_pos = rng.gen_range(0..end + 1);
            let drain_pos = rng.gen_range(0..end + 1);

            let mut core = core(champion, &run);
            let mut conns: Vec<Conn> = (0..n_conns).map(|_| Conn::default()).collect();
            let mut first_sender: BTreeMap<u64, usize> = BTreeMap::new();
            // The reference: the admitted prefix, and the boundary the
            // swap takes effect at if it was scheduled before the drain.
            let mut prefix = 0u64;
            let mut boundary = None;
            for pos in 0..=end {
                if pos == drain_pos {
                    core.deliver(Input::Drain).expect("drain");
                }
                if pos == swap_pos {
                    let swap = Input::Swap { at_seq: swap_at, envelope: successor.clone() };
                    core.deliver(swap).expect("swap");
                    if drain_pos > swap_pos {
                        boundary = Some(swap_at.max(prefix));
                    }
                }
                let Some(&(c, seq)) = deliveries.get(pos).filter(|_| pos < end) else {
                    break;
                };
                core.deliver(frame(c as u64, seq, &frames[seq as usize])).expect("frame");
                conns[c].delivered += 1;
                first_sender.entry(seq).or_insert(c);
                while prefix < n && first_sender.contains_key(&prefix) {
                    prefix += 1;
                }
                if rng.gen_range(0..3) == 0 {
                    let overfreed = collect_burst(&mut core, &mut conns);
                    prop_assert!(overfreed.is_none(), "{overfreed:?} freed a slot too many");
                }
            }
            core.shut().expect("shut");
            let overfreed = collect_burst(&mut core, &mut conns);
            prop_assert!(overfreed.is_none(), "{overfreed:?} freed a slot too many");
            // No swap applies after the FINISH (frame n − 1).
            let applied = boundary.filter(|&b| b <= prefix.min(n - 1));

            let mut oracle = ScoreSession::new(champion, &run.1, run.0).expect("session");
            let mut expected: Vec<Vec<u8>> = vec![Vec::new(); n_conns];
            let mut route = |responses: Vec<EncodedResponse>| {
                for r in responses {
                    expected[first_sender[&r.request_id]].extend_from_slice(&r.bytes);
                }
            };
            for seq in 0..=prefix {
                if applied == Some(seq) {
                    let swap = oracle.prepare_swap(successor).expect("successor");
                    route(oracle.apply_swap(swap).expect("swap"));
                }
                if seq < prefix {
                    let (kind, payload) = &frames[seq as usize];
                    route(oracle.handle(*kind, seq, payload).expect("handle"));
                }
            }
            route(oracle.finalize().expect("finalize"));

            let report = core.report();
            prop_assert_eq!(report.response_fnv, oracle.response_fnv());
            prop_assert_eq!(report.n_admitted, prefix);
            prop_assert_eq!(report.report.n_swaps, u64::from(applied.is_some()));
            prop_assert_eq!(report.n_swaps_rejected, u64::from(applied.is_none()));
            for (c, conn) in conns.iter().enumerate() {
                prop_assert!(
                    conn.freed == conn.delivered,
                    "connection {c}: {} slots freed for {} frames",
                    conn.freed,
                    conn.delivered
                );
                // Every stream frame is valid, so every ERROR is the
                // core's own refusal and everything else is the
                // session's.
                let mut session_bytes = Vec::new();
                for f in frames_of(&conn.bytes) {
                    if f.header.kind == wire::KIND_ERROR {
                        let code = error_code_of(&f);
                        prop_assert!(
                            code == wire::ERR_REJECTED || code == wire::ERR_DRAINING,
                            "connection {c} got code {code} for {}",
                            f.header.request_id
                        );
                    } else {
                        session_bytes.extend(wire::encode_frame(
                            f.header.kind,
                            f.header.request_id,
                            &f.payload,
                        ));
                    }
                }
                prop_assert!(session_bytes == expected[c], "connection {c}: replies differ");
            }
        }
    }

    /// At the real bound, the 4097th early frame is refused with
    /// ERR_OVERLOAD; sequence 0 then admits every held frame in order,
    /// each ACKed to its sender.
    #[test]
    fn reorder_overflow_at_the_real_bound() {
        let (champion, _) = models();
        let run = demo_run(0);
        let mut core = core(champion, &run);
        let early = REORDER_CAPACITY as u64 + 1;
        for seq in 1..=early {
            core.deliver(frame(seq % 2, seq, &tick(seq)))
                .expect("early frame");
        }
        let refused: Vec<Replies<u64>> = core.take_replies().collect();
        assert_eq!(refused.len(), 1);
        let (peer, replies) = (refused[0].peer, frames_of(&refused[0].bytes));
        assert_eq!((peer, refused[0].freed, replies.len()), (early % 2, 1, 1));
        assert_eq!(replies[0].header.request_id, early);
        assert_eq!(error_code_of(&replies[0]), wire::ERR_OVERLOAD);

        core.deliver(frame(0, 0, &tick(0))).expect("sequence 0");
        for r in core.take_replies() {
            let acks: Vec<u64> = frames_of(&r.bytes)
                .iter()
                .map(|f| {
                    assert_eq!(f.header.kind, wire::KIND_ACK, "{f:?}");
                    f.header.request_id
                })
                .collect();
            let want: Vec<u64> = (0..early).filter(|s| s % 2 == r.peer).collect();
            assert_eq!(acks, want, "peer {}", r.peer);
            assert_eq!(r.freed, want.len());
        }
        let report = core.report();
        assert_eq!((report.n_admitted, report.n_overloads), (early, 1));
    }

    /// A second swap scheduled at the same boundary replaces the first,
    /// which counts as rejected: one applied, one rejected.
    #[test]
    fn a_replaced_swap_counts_as_rejected() {
        let (champion, successor) = models();
        let run = demo_run(0);
        let mut core = core(champion, &run);
        for _ in 0..2 {
            let swap = Input::Swap {
                at_seq: 5,
                envelope: successor.clone(),
            };
            core.deliver(swap).expect("swap");
        }
        for (seq, f) in run.2.iter().enumerate() {
            core.deliver(frame(0, seq as u64, f)).expect("frame");
        }
        core.shut().expect("shut");
        let report = core.report();
        assert_eq!(report.report.n_swaps, 1);
        assert_eq!(report.n_swaps_rejected, 1);
    }

    /// Shut refuses exactly the frames still buffered, each to its
    /// sender with ERR_DRAINING, and answers nothing else.
    #[test]
    fn shut_refuses_exactly_the_buffered_frames() {
        let (champion, _) = models();
        let run = demo_run(0);
        let mut core = core(champion, &run);
        let held: BTreeSet<u64> = [3, 5, 6].into();
        for seq in [0, 3, 1, 6, 5] {
            core.deliver(frame(seq % 3, seq, &tick(seq)))
                .expect("frame");
        }
        core.deliver(Input::Drain).expect("drain");
        assert_eq!(core.take_replies().map(|r| r.freed).sum::<usize>(), 2);
        core.shut().expect("shut");
        let mut refused = BTreeSet::new();
        for r in core.take_replies() {
            let replies = frames_of(&r.bytes);
            assert_eq!(r.freed, replies.len());
            for f in &replies {
                assert_eq!(error_code_of(f), wire::ERR_DRAINING);
                assert_eq!(f.header.request_id % 3, r.peer);
                refused.insert(f.header.request_id);
            }
        }
        assert_eq!(refused, held);
        assert_eq!(core.report().n_admitted, 2);
    }
}
