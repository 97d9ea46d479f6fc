//! The client side of the prototype: a pure (sans-I/O) download state
//! machine.
//!
//! [`ClientSession`] rebuilds the code from the [`ControlInfo`] fetched over
//! the control channel and consumes datagrams one at a time through
//! [`ClientSession::handle_datagram`], which reports what each datagram did
//! as a [`ClientEvent`].  The session never touches a socket: a driver loop
//! joins the groups in [`ClientSession::groups`] on its transport, pulls
//! datagrams, and feeds them in.
//!
//! Decoding uses the *statistical* strategy chosen in Section 7.2 — wait
//! until roughly `(1 + ε)k` distinct packets have arrived, try to decode, and
//! go back to collecting if that was not yet enough.  The decoder is a
//! persistent [`df_core::OwnedPayloadDecoder`]: every distinct packet is fed
//! to it exactly once, and a failed attempt simply leaves the peeling state
//! in place for the next batch, instead of re-feeding the whole buffer into
//! a fresh decoder per attempt (which made the old API O(attempts · n)).

use crate::control::ControlInfo;
use crate::layered::LayerController;
use crate::rateless::{seed_from_words, RatelessMode, RatelessReceiver};
use crate::wire::DataPacket;
use bytes::Bytes;
use df_core::{
    reassemble_file, OwnedPayloadDecoder, RaptorCode, ReceptionCounter, TornadoCode, TornadoError,
    TornadoProfile,
};
use df_mcast::LayeredSession;

/// How a download's receptions are tallied.  A carousel session counts
/// distinct *encoding indices* out of a known universe of `n`
/// ([`df_core::ReceptionCounter`], exactly the accounting the reception
/// simulations use); a rateless session receives an unbounded stream of
/// 64-bit seeds with no index universe to bound a bitmap by, so it keeps
/// plain totals — the decoder itself is the authority on seed novelty.
#[derive(Debug, Clone, PartialEq)]
enum Tally {
    Indexed(ReceptionCounter),
    Streaming { total: u64, distinct: u64 },
}

impl Default for Tally {
    fn default() -> Self {
        Tally::Streaming {
            total: 0,
            distinct: 0,
        }
    }
}

/// Reception statistics for one download.  The three Section 7.3 efficiency
/// definitions are computed in exactly one place for both session kinds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DownloadStats {
    tally: Tally,
    k: usize,
    decode_attempts: usize,
    rejected: u64,
}

impl DownloadStats {
    fn new(n: usize, k: usize) -> Self {
        DownloadStats {
            tally: Tally::Indexed(ReceptionCounter::new(n)),
            k,
            decode_attempts: 0,
            rejected: 0,
        }
    }

    fn new_streaming(k: usize) -> Self {
        DownloadStats {
            tally: Tally::default(),
            k,
            decode_attempts: 0,
            rejected: 0,
        }
    }

    /// Record the reception of encoding packet `index`; true if it was new.
    /// Carousel sessions only (the rateless path has no index).
    fn record(&mut self, index: usize) -> bool {
        match &mut self.tally {
            Tally::Indexed(counter) => counter.record(index),
            Tally::Streaming { .. } => false,
        }
    }

    /// Record one rateless symbol reception, `new` per the decoder's seed
    /// bookkeeping.
    fn record_streaming(&mut self, new: bool) {
        if let Tally::Streaming { total, distinct } = &mut self.tally {
            *total += 1;
            if new {
                *distinct += 1;
            }
        }
    }

    fn note_attempt(&mut self) {
        self.decode_attempts += 1;
    }

    fn note_rejected(&mut self) {
        self.rejected += 1;
    }

    /// Packets received (after network loss), including duplicates.
    pub fn received(&self) -> usize {
        match &self.tally {
            Tally::Indexed(counter) => counter.total(),
            Tally::Streaming { total, .. } => *total as usize,
        }
    }

    /// Distinct packets received: distinct encoding indices for a carousel,
    /// distinct symbol seeds for a rateless session.
    pub fn distinct(&self) -> usize {
        match &self.tally {
            Tally::Indexed(counter) => counter.distinct(),
            Tally::Streaming { distinct, .. } => *distinct as usize,
        }
    }

    /// Number of source packets in the file.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of decode attempts the statistical strategy made.
    pub fn decode_attempts(&self) -> usize {
        self.decode_attempts
    }

    /// Valid-looking packets refused because the session's buffer cap
    /// ([`ClientSession::buffer_cap`]) was already reached — the
    /// bounded-memory contract's visible counter.  Always `0` for an honest
    /// carousel: the cap sits well above the worst-case decode threshold.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Reception efficiency `η = k / received`.
    pub fn reception_efficiency(&self) -> f64 {
        match &self.tally {
            Tally::Indexed(counter) => counter.reception_efficiency(self.k),
            Tally::Streaming { total, .. } if *total > 0 => self.k as f64 / *total as f64,
            Tally::Streaming { .. } => 0.0,
        }
    }

    /// Coding efficiency `η_c = k / distinct`.
    pub fn coding_efficiency(&self) -> f64 {
        match &self.tally {
            Tally::Indexed(counter) => counter.coding_efficiency(self.k),
            Tally::Streaming { distinct, .. } if *distinct > 0 => self.k as f64 / *distinct as f64,
            Tally::Streaming { .. } => 0.0,
        }
    }

    /// Distinctness efficiency `η_d = distinct / received`.  For an honest
    /// rateless stream this is exactly `1.0` — every seed is fresh — which
    /// is the whole point of the mode; a carousel's late joiners decay
    /// toward the ≈ 0.64 distinctness of uniform sampling with replacement.
    pub fn distinctness_efficiency(&self) -> f64 {
        match &self.tally {
            Tally::Indexed(counter) => counter.distinctness_efficiency(),
            Tally::Streaming { total, distinct } if *total > 0 => *distinct as f64 / *total as f64,
            Tally::Streaming { .. } => 0.0,
        }
    }
}

/// What one datagram did to the session state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientEvent {
    /// The datagram was malformed, foreign, or carried an unexpected payload
    /// length; the best-effort channel delivered noise and it was dropped.
    Ignored,
    /// A duplicate of an already-received packet (counted, not buffered).
    Duplicate,
    /// A new, well-formed packet was refused because the session already
    /// buffers [`ClientSession::buffer_cap`] undecoded packets — the
    /// bounded-memory backstop against a flood of forged-but-valid-looking
    /// datagrams.  Counted in [`DownloadStats::rejected`]; an honest
    /// carousel never triggers it (the cap exceeds every reachable decode
    /// threshold).
    Rejected,
    /// A new packet was buffered; not enough have accumulated yet for the
    /// statistical strategy to attempt a decode.
    Buffered,
    /// A new packet triggered a decode attempt that did not yet complete;
    /// the strategy will wait for ~2 % of `k` more packets before retrying.
    AttemptFailed,
    /// The layered congestion-control logic decided to add the next layer
    /// at a synchronisation point: the I/O driver should now call
    /// [`crate::Transport::join`] for `group`.  The session has already
    /// updated its subscription state — the event is the driver's cue, not
    /// a request for permission (sans-I/O: the session decides, the driver
    /// owns the socket).
    Join {
        /// Multicast group of the newly subscribed layer.
        group: u32,
    },
    /// The layered congestion-control logic shed the top layer after
    /// sustained loss: the I/O driver should now call
    /// [`crate::Transport::leave`] for `group`.
    Leave {
        /// Multicast group of the dropped layer.
        group: u32,
    },
    /// The file is fully reconstructed (also returned for every datagram fed
    /// after completion).
    Complete,
}

/// Most layers any announced session may use.  The reverse-binary schedule's
/// block size is `2^(layers−1)`, so real deployments use a handful; the cap
/// exists to bound what a malicious control channel can make a driver do
/// (each advertised group costs the driver a `join`, i.e. a socket).
pub const MAX_LAYERS: usize = 32;

/// Most source packets any announced session may claim.  2²⁴ packets is an
/// ~8 GB file at the paper's 500-byte payloads — far beyond the benchmarks —
/// while keeping the cost of rebuilding a hostile session's cascade bounded
/// (code construction is `O(k)` memory and must not run on unvalidated
/// wire-sourced sizes).
pub const MAX_K: usize = 1 << 24;

/// Most layers a *layered* (adaptive congestion-control) session may use —
/// [`df_mcast::LayeredSession::new`] enforces it for servers and clients
/// alike.  Flat sessions may go up to [`MAX_LAYERS`].
pub const MAX_SCHEDULED_LAYERS: usize = df_mcast::MAX_LAYERS;

/// Longest SP interval a layered session may announce, also enforced by
/// [`df_mcast::LayeredSession::new`] on both sides.  Bounds the per-round
/// accounting a hostile control channel can make a client keep (the loss
/// tracker holds O(`sp_interval`) round counters).
pub const MAX_SP_INTERVAL: usize = df_mcast::MAX_SP_INTERVAL;

/// Largest payload a data packet can carry over UDP: the 65 507-byte UDP
/// maximum minus the 12-byte header, minus the 2-byte pad a GF(2^16) final
/// code adds to check packets (and rateless Raptor symbols) at odd sizes.
const MAX_PACKET_SIZE: usize = 65_507 - crate::wire::HEADER_LEN - 2;

/// The decode machinery behind one [`ClientSession`]: the index-addressed
/// carousel pipeline (staged batch → persistent Tornado peeling decoder) or
/// the seed-addressed streaming [`RatelessReceiver`].
#[derive(Debug)]
enum Backend {
    Carousel {
        code: TornadoCode,
        decoder: OwnedPayloadDecoder,
        /// Distinct packets received but not yet fed to the decoder (the
        /// statistical strategy feeds them in batches).
        staged: Vec<(usize, Vec<u8>)>,
    },
    Rateless(Box<RatelessReceiver>),
}

/// A downloading client session for one announced session.
#[derive(Debug)]
pub struct ClientSession {
    control: ControlInfo,
    backend: Backend,
    stats: DownloadStats,
    /// Overhead margin the statistical strategy waits for before its next
    /// decode attempt.  Grows by 2 % of `k` per failed attempt, capped at
    /// [`Self::MAX_ATTEMPT_MARGIN`] so the decode threshold always stays
    /// below the buffer cap (otherwise a pathological run could starve the
    /// decoder behind its own memory bound).  Unused by rateless sessions,
    /// whose decoder is incremental rather than batch-attempted.
    attempt_margin: f64,
    /// Most undecoded packets (staged plus inside the decoder) a carousel
    /// session will hold; see [`Self::buffer_cap`].  Rateless sessions
    /// enforce the equivalent bound inside [`RatelessReceiver`] instead.
    buffer_cap: usize,
    /// The receiver-driven join/leave state machine of the layered
    /// congestion-control mode; `None` for flat sessions.
    controller: Option<LayerController>,
    file: Option<Vec<u8>>,
}

impl ClientSession {
    /// Join a session described by `control` (obtained from the server's
    /// control channel).
    ///
    /// # Errors
    ///
    /// Returns [`TornadoError::MalformedInput`] for an unknown profile name
    /// or control parameters inconsistent with the rebuilt code, and
    /// propagates code-construction errors.  The control channel is
    /// untrusted input, so every cheap structural check — profile name,
    /// layer count, group-range overflow, packet size, and a bound on `k` —
    /// runs *before* the `O(k)` code construction; a hostile announcement
    /// cannot make a client allocate an unbounded cascade.
    pub fn new(control: ControlInfo) -> df_core::Result<Self> {
        let malformed = |reason: String| TornadoError::MalformedInput { reason };
        if control.rateless.is_rateless() {
            // The profile name is not consulted in rateless mode (there is
            // no negotiated Tornado code to rebuild), so it is deliberately
            // not validated either.
            return Self::new_rateless(control);
        }
        let profile = TornadoProfile::by_name(&control.profile)
            .ok_or_else(|| malformed(format!("unknown Tornado profile {:?}", control.profile)))?;
        if control.layers == 0 || control.layers > MAX_LAYERS {
            return Err(malformed(format!(
                "control info advertises {} layers (expected 1..={MAX_LAYERS})",
                control.layers
            )));
        }
        if control
            .base_group
            .checked_add(control.layers as u32 - 1)
            .is_none()
        {
            return Err(malformed(format!(
                "group range {} + {} layers overflows the group space",
                control.base_group, control.layers
            )));
        }
        if control.packet_size == 0 || control.packet_size > MAX_PACKET_SIZE {
            return Err(malformed(format!(
                "packet size {} cannot be framed into a UDP datagram \
                 (expected 1..={MAX_PACKET_SIZE})",
                control.packet_size
            )));
        }
        if control.k == 0 || control.k > MAX_K {
            return Err(malformed(format!(
                "control info advertises k = {} (expected 1..={MAX_K})",
                control.k
            )));
        }
        // Layered congestion-control mode: the announced cadence must pass
        // the *same* validating constructor the server transmits from, so a
        // well-formed server can never announce a session its own clients
        // reject.  This is cheap and runs before the O(k) code build.
        let layered = if control.sp_interval > 0 {
            Some(
                LayeredSession::new(
                    control.layers,
                    control.n,
                    control.sp_interval,
                    control.burst_rounds,
                )
                .map_err(|e| malformed(format!("layered cadence rejected: {e}")))?,
            )
        } else {
            None
        };
        if control.file_len.div_ceil(control.packet_size) != control.k {
            return Err(malformed(format!(
                "file length {} at packet size {} yields {} packets, not k = {}",
                control.file_len,
                control.packet_size,
                control.file_len.div_ceil(control.packet_size),
                control.k
            )));
        }
        let code = TornadoCode::with_profile(control.k, profile, control.code_seed)?;
        if code.n() != control.n {
            return Err(malformed(format!(
                "control info advertises n = {} but profile {:?} at k = {} yields n = {}",
                control.n,
                control.profile,
                control.k,
                code.n()
            )));
        }
        let decoder = code.owned_decoder();
        let controller = layered.map(|session| LayerController::new(session, control.base_group));
        Ok(ClientSession {
            stats: DownloadStats::new(code.n(), code.k()),
            // 1.5k + 64 packets: comfortably above the highest reachable
            // decode threshold ((1 + MAX_ATTEMPT_MARGIN)·k) and the ~1.06k
            // a Tornado decode actually needs, yet far below the `n` a
            // hostile flood of distinct valid-looking indices could
            // otherwise force the session to hold.
            buffer_cap: code.k() + code.k() / 2 + 64,
            control,
            backend: Backend::Carousel {
                code,
                decoder,
                staged: Vec::new(),
            },
            attempt_margin: 0.06,
            controller,
            file: None,
        })
    }

    /// Join a seed-carrying rateless session.  Same untrusted-input posture
    /// as the carousel path: every cheap structural check runs before the
    /// `O(k)` decoder construction.
    fn new_rateless(control: ControlInfo) -> df_core::Result<Self> {
        let malformed = |reason: String| TornadoError::MalformedInput { reason };
        // Rateless sessions are single-layer and flat by protocol (the
        // server enforces the same); a hostile announcement mixing the modes
        // is rejected rather than guessed about.
        if control.layers != 1 || control.sp_interval != 0 || control.burst_rounds != 0 {
            return Err(malformed(format!(
                "rateless sessions are single-layer and flat; control claims layers = {}, \
                 sp_interval = {}, burst_rounds = {}",
                control.layers, control.sp_interval, control.burst_rounds
            )));
        }
        if control.packet_size == 0 || control.packet_size > MAX_PACKET_SIZE {
            return Err(malformed(format!(
                "packet size {} cannot be framed into a UDP datagram \
                 (expected 1..={MAX_PACKET_SIZE})",
                control.packet_size
            )));
        }
        if control.k == 0 || control.k > MAX_K {
            return Err(malformed(format!(
                "control info advertises k = {} (expected 1..={MAX_K})",
                control.k
            )));
        }
        if control.file_len.div_ceil(control.packet_size) != control.k {
            return Err(malformed(format!(
                "file length {} at packet size {} yields {} packets, not k = {}",
                control.file_len,
                control.packet_size,
                control.file_len.div_ceil(control.packet_size),
                control.k
            )));
        }
        let receiver = match control.rateless {
            RatelessMode::Lt => {
                // The LT symbol range is the k source packets themselves.
                if control.n != control.k {
                    return Err(malformed(format!(
                        "LT rateless control must advertise n = k, got n = {} for k = {}",
                        control.n, control.k
                    )));
                }
                RatelessReceiver::for_lt(control.k, control.packet_size, control.code_seed)?
            }
            RatelessMode::Raptor => {
                let code = RaptorCode::new(control.k, control.code_seed)?;
                if code.intermediate_count() != control.n {
                    return Err(malformed(format!(
                        "control info advertises n = {} but the Raptor precode at k = {} \
                         yields {} intermediates",
                        control.n,
                        control.k,
                        code.intermediate_count()
                    )));
                }
                RatelessReceiver::for_raptor(&code, control.packet_size)
            }
            RatelessMode::Off => {
                return Err(malformed(
                    "rateless constructor called with mode Off".to_string(),
                ))
            }
        };
        Ok(ClientSession {
            stats: DownloadStats::new_streaming(control.k),
            buffer_cap: receiver.max_equations(),
            control,
            backend: Backend::Rateless(Box::new(receiver)),
            attempt_margin: 0.06,
            controller: None,
            file: None,
        })
    }

    /// Cap on the statistical strategy's failure-driven overhead margin;
    /// `(1 + this)·k` stays strictly below [`Self::buffer_cap`].
    const MAX_ATTEMPT_MARGIN: f64 = 0.40;

    /// The session parameters this client joined with.
    pub fn control_info(&self) -> &ControlInfo {
        &self.control
    }

    /// The multicast groups the session transmits on (all of them,
    /// regardless of subscription); see [`ClientSession::subscribed_groups`]
    /// for what the driver should actually join.
    pub fn groups(&self) -> impl Iterator<Item = u32> + '_ {
        self.control.groups()
    }

    /// The groups the I/O driver should currently be joined to.  For a flat
    /// session this is every session group; for a layered session it is the
    /// cumulative prefix up to the current subscription level — the driver
    /// joins these at start-up and afterwards tracks the
    /// [`ClientEvent::Join`] / [`ClientEvent::Leave`] events.
    pub fn subscribed_groups(&self) -> Vec<u32> {
        match &self.controller {
            Some(c) => c.subscribed_groups().collect(),
            None => self.control.groups().collect(),
        }
    }

    /// True when the session runs the receiver-driven layered
    /// congestion-control protocol (the server announced an SP cadence).
    pub fn is_layered(&self) -> bool {
        self.controller.is_some()
    }

    /// Data-path encoding of this session.
    pub fn rateless_mode(&self) -> RatelessMode {
        self.control.rateless
    }

    /// Current cumulative subscription level of a layered session (`0` =
    /// base layer only); `None` for flat sessions.
    pub fn subscription_level(&self) -> Option<usize> {
        self.controller.as_ref().map(|c| c.level())
    }

    /// Reception statistics so far.
    pub fn stats(&self) -> &DownloadStats {
        &self.stats
    }

    /// The reconstructed file, once the download has completed.
    pub fn file(&self) -> Option<&[u8]> {
        self.file.as_deref()
    }

    /// True once the file has been reconstructed.
    pub fn is_complete(&self) -> bool {
        self.file.is_some()
    }

    /// Total packets fed to the decode machinery so far: for a carousel, at
    /// most one per distinct received packet however many decode attempts
    /// were needed (the invariant the owned-decoder redesign exists for);
    /// for a rateless session, the distinct symbols accepted.
    pub fn decoder_packets_fed(&self) -> usize {
        match &self.backend {
            Backend::Carousel { decoder, .. } => decoder.received_total(),
            Backend::Rateless(receiver) => receiver.received_distinct() as usize,
        }
    }

    /// Distinct packets held but not yet decoded: staged for the next batch
    /// attempt (carousel) or buffered as undecoded equations (rateless).
    pub fn buffered_packets(&self) -> usize {
        match &self.backend {
            Backend::Carousel { staged, .. } => staged.len(),
            Backend::Rateless(receiver) => receiver.pending_equations(),
        }
    }

    /// Most undecoded packets this session will ever hold (staged plus fed
    /// to the decoder).  A new packet arriving past the cap is refused with
    /// [`ClientEvent::Rejected`] and counted in [`DownloadStats::rejected`],
    /// bounding client memory under a forged-datagram flood.  A rateless
    /// session bounds *equations* by this number (plus an edge budget, see
    /// [`RatelessReceiver::max_edges`]) inside its receiver.
    pub fn buffer_cap(&self) -> usize {
        self.buffer_cap
    }

    /// Feed one received datagram to the session.
    ///
    /// Besides the decode-progress events, a layered session may answer with
    /// [`ClientEvent::Join`] or [`ClientEvent::Leave`] when the datagram's
    /// header pushed the congestion-control logic across a synchronisation
    /// point; the driver applies the change on its transport.  A
    /// subscription event takes priority over `Buffered`/`Duplicate`/
    /// `AttemptFailed` for the same datagram (the decode bookkeeping still
    /// happens; only the report favours the actionable event), while
    /// `Complete` always wins — a finished download needs no subscription.
    pub fn handle_datagram(&mut self, datagram: Bytes) -> ClientEvent {
        let event = self.digest_datagram(datagram);
        if event == ClientEvent::Complete {
            // A datagram can cross an SP *and* finish the decode; the driver
            // will only ever see `Complete`, so any subscription change it
            // was never told about must be unwound or `subscribed_groups`
            // would disagree with the transport's actual memberships.
            if let Some(controller) = &mut self.controller {
                controller.rollback_undelivered();
            }
            return event;
        }
        if event == ClientEvent::Ignored {
            return event;
        }
        match self.controller.as_mut().and_then(|c| c.pop_decision()) {
            Some(decision) => decision,
            None => event,
        }
    }

    fn digest_datagram(&mut self, datagram: Bytes) -> ClientEvent {
        if self.file.is_some() {
            return ClientEvent::Complete;
        }
        let Some(pkt) = DataPacket::from_bytes(datagram) else {
            return ClientEvent::Ignored;
        };
        let group = pkt.header.group as u64;
        let base = self.control.base_group as u64;
        if group < base || group >= base + self.control.layers as u64 {
            // A cross-session spoof or forged group tag: not this session's
            // traffic, so neither the decoder nor the congestion accounting
            // may see it.  (Stragglers from a just-left layer still pass —
            // the range covers every layer, not just the subscribed ones.)
            return ClientEvent::Ignored;
        }
        match &mut self.backend {
            Backend::Carousel {
                code,
                decoder,
                staged,
            } => {
                let idx = pkt.header.packet_index as usize;
                if idx >= code.n() {
                    // Corrupted or foreign packet; the channel is
                    // best-effort, drop it.
                    return ClientEvent::Ignored;
                }
                if pkt.payload.len() != code.expected_payload_len(idx, self.control.packet_size) {
                    return ClientEvent::Ignored;
                }
                if let Some(controller) = &mut self.controller {
                    // Every valid reception feeds the loss tracker —
                    // duplicates included, since the congestion signal is
                    // about datagrams arriving, not about their novelty.
                    controller.observe(pkt.header.serial, pkt.header.group);
                }
                if !self.stats.record(idx) {
                    return ClientEvent::Duplicate;
                }
                if staged.len() + decoder.received_total() >= self.buffer_cap {
                    // Bounded memory: past the cap a new packet is refused
                    // rather than buffered.  Unreachable from an honest
                    // carousel — the decode threshold that drains `staged`
                    // sits below the cap.
                    self.stats.note_rejected();
                    return ClientEvent::Rejected;
                }
                staged.push((idx, pkt.payload.to_vec()));
                // Statistical strategy: only attempt a decode once enough
                // distinct packets have accumulated; after a failed attempt,
                // wait for another 2 % of k before trying again.
                let threshold =
                    (self.control.k as f64 * (1.0 + self.attempt_margin)).ceil() as usize;
                if self.stats.distinct() < threshold {
                    return ClientEvent::Buffered;
                }
                self.stats.note_attempt();
                for (i, payload) in staged.drain(..) {
                    // The staged packets are deduplicated and validated, so
                    // the decoder can take ownership outright; an error here
                    // would mean the validation above let something
                    // malformed through, so drop the packet like any other
                    // channel noise.
                    match decoder.add_packet(i, payload) {
                        Ok(df_core::AddOutcome::Complete) => break,
                        Ok(_) => {}
                        Err(_) => continue,
                    }
                }
                if decoder.is_complete() {
                    // `take_source()` is Some the first time a decoder reports
                    // completion; if that invariant ever broke, degrade to a
                    // failed attempt rather than panicking while processing
                    // untrusted traffic.
                    if let Some(source) = decoder.take_source() {
                        self.file = Some(reassemble_file(&source, self.control.file_len));
                        return ClientEvent::Complete;
                    }
                }
                self.attempt_margin = (self.attempt_margin + 0.02).min(Self::MAX_ATTEMPT_MARGIN);
                ClientEvent::AttemptFailed
            }
            Backend::Rateless(receiver) => {
                // Rateless symbols share one uniform length; anything else
                // is noise (and would poison the XOR reduction if let in).
                if pkt.payload.len() != receiver.payload_len() {
                    return ClientEvent::Ignored;
                }
                let seed = seed_from_words(pkt.header.packet_index, pkt.header.serial);
                if receiver.at_capacity() {
                    // The bounded-memory backstop: a flood of forged seeds
                    // (absurd degrees, colliding neighbor sets) can fill the
                    // equation buffer, but it cannot grow it past the caps —
                    // new symbols are refused before the decoder sees them.
                    self.stats.record_streaming(false);
                    self.stats.note_rejected();
                    return ClientEvent::Rejected;
                }
                match receiver.add(seed, pkt.payload.to_vec()) {
                    df_core::AddOutcome::Duplicate => {
                        self.stats.record_streaming(false);
                        ClientEvent::Duplicate
                    }
                    df_core::AddOutcome::Accepted => {
                        self.stats.record_streaming(true);
                        ClientEvent::Buffered
                    }
                    df_core::AddOutcome::Complete => {
                        self.stats.record_streaming(true);
                        match receiver.take_source_packets() {
                            Some(source) => {
                                self.file = Some(reassemble_file(&source, self.control.file_len));
                                ClientEvent::Complete
                            }
                            // Completion without source packets would be a decoder
                            // invariant break; degrade instead of panicking
                            // on untrusted traffic.
                            None => ClientEvent::Buffered,
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{ServerSession, SessionConfig};
    use crate::transport::{SimMulticast, Transport};
    use df_core::{FinalCode, TORNADO_B};

    fn run_download(loss: f64, layers: usize, data_len: usize) -> (ClientSession, Vec<u8>) {
        let data: Vec<u8> = (0..data_len).map(|i| (i * 131 % 251) as u8).collect();
        let mut server = ServerSession::with_defaults(&data, layers, 7).unwrap();
        let net = SimMulticast::new(11);
        let mut tx = net.endpoint(0.0);
        let mut rx = net.endpoint(loss);
        let mut client = ClientSession::new(server.control_info().clone()).unwrap();
        for group in client.groups() {
            rx.join(group).unwrap();
        }
        'outer: for _ in 0..10_000 {
            server.send_round(&mut tx);
            while let Some((_group, datagram)) = rx.recv() {
                if client.handle_datagram(datagram) == ClientEvent::Complete {
                    break 'outer;
                }
            }
        }
        (client, data)
    }

    #[test]
    fn lossless_download_reconstructs_the_file() {
        let (client, data) = run_download(0.0, 4, 60_000);
        assert!(client.is_complete());
        assert_eq!(client.file().unwrap(), &data[..]);
        let stats = client.stats();
        assert!(stats.distinctness_efficiency() > 0.99);
        assert!(stats.decode_attempts() >= 1);
    }

    #[test]
    fn lossy_download_still_reconstructs() {
        let (client, data) = run_download(0.3, 4, 40_000);
        assert!(client.is_complete());
        assert_eq!(client.file().unwrap(), &data[..]);
        assert!(client.stats().reception_efficiency() > 0.4);
    }

    #[test]
    fn corrupted_and_foreign_datagrams_are_ignored() {
        let data = vec![9u8; 20_000];
        let server = ServerSession::with_defaults(&data, 1, 3).unwrap();
        let mut client = ClientSession::new(server.control_info().clone()).unwrap();
        assert_eq!(
            client.handle_datagram(Bytes::from_static(b"short")),
            ClientEvent::Ignored
        );
        // Well-formed header but index out of range.
        let bogus = DataPacket::new(
            crate::wire::PacketHeader {
                packet_index: 1_000_000,
                serial: 0,
                group: 0,
            },
            Bytes::from(vec![0u8; 500]),
        );
        assert_eq!(
            client.handle_datagram(bogus.to_bytes()),
            ClientEvent::Ignored
        );
        // Right index, wrong payload length.
        let short = DataPacket::new(
            crate::wire::PacketHeader {
                packet_index: 0,
                serial: 0,
                group: 0,
            },
            Bytes::from(vec![0u8; 499]),
        );
        assert_eq!(
            client.handle_datagram(short.to_bytes()),
            ClientEvent::Ignored
        );
        assert_eq!(client.stats().received(), 0);
    }

    #[test]
    fn unknown_profile_name_is_a_malformed_input_error() {
        let server = ServerSession::with_defaults(&[1u8; 10_000], 1, 5).unwrap();
        let mut control = server.control_info().clone();
        control.profile = "tornado-c".to_string(); // a typo, not a default
        match ClientSession::new(control) {
            Err(TornadoError::MalformedInput { reason }) => {
                assert!(reason.contains("tornado-c"), "unhelpful reason: {reason}")
            }
            other => panic!("expected MalformedInput, got {other:?}"),
        }
    }

    #[test]
    fn hostile_layer_and_group_ranges_are_rejected() {
        let server = ServerSession::with_defaults(&[1u8; 10_000], 1, 5).unwrap();
        let base = server.control_info().clone();
        for (layers, base_group) in [
            (0usize, 0u32),
            (MAX_LAYERS + 1, 0),
            (4_000_000_000, 0),
            (2, u32::MAX),
            (MAX_LAYERS, u32::MAX - 3),
        ] {
            let mut control = base.clone();
            control.layers = layers;
            control.base_group = base_group;
            assert!(
                matches!(
                    ClientSession::new(control),
                    Err(TornadoError::MalformedInput { .. })
                ),
                "layers = {layers}, base_group = {base_group} must be rejected"
            );
        }
        // The boundary itself is fine.
        let mut control = base.clone();
        control.base_group = u32::MAX;
        control.layers = 1;
        assert!(ClientSession::new(control).is_ok());
    }

    #[test]
    fn hostile_sizes_are_rejected_before_code_construction() {
        let server = ServerSession::with_defaults(&[1u8; 10_000], 1, 5).unwrap();
        let base = server.control_info().clone();
        // (file_len, packet_size, k) triples a hostile control channel might
        // claim; each must fail fast — cheap validation, no O(k) cascade.
        for (file_len, packet_size, k) in [
            (u32::MAX as usize * 500, 500, u32::MAX as usize), // giant k
            (10_000, 500, MAX_K + 1),                          // above the cap
            (10_000, 500, 0),                                  // zero k
            (10_000, 0, 20),                                   // zero packet size
            (10_000, 1 << 20, 20),                             // impossible UDP payload
            (10_000, 65_500, 1), // framed datagram would exceed the UDP maximum
            (10_000, 500, 21),   // k inconsistent with file_len
            (0, 500, 20),        // empty file, nonzero k
        ] {
            let mut control = base.clone();
            control.file_len = file_len;
            control.packet_size = packet_size;
            control.k = k;
            let t0 = std::time::Instant::now();
            assert!(
                matches!(
                    ClientSession::new(control),
                    Err(TornadoError::MalformedInput { .. })
                ),
                "file_len = {file_len}, packet_size = {packet_size}, k = {k} must be rejected"
            );
            assert!(
                t0.elapsed() < std::time::Duration::from_millis(100),
                "rejection of k = {k} was not cheap"
            );
        }
    }

    #[test]
    fn inconsistent_control_n_is_rejected() {
        let server = ServerSession::with_defaults(&[1u8; 10_000], 1, 5).unwrap();
        let mut control = server.control_info().clone();
        control.n += 1;
        assert!(matches!(
            ClientSession::new(control),
            Err(TornadoError::MalformedInput { .. })
        ));
    }

    #[test]
    fn odd_packet_size_with_gf16_final_block_downloads() {
        // An odd packet size with Tornado B yields a pure GF(2^16) MDS block
        // whose check packets carry two padding bytes (501 bytes here); the
        // client learns that through `TornadoCode::expected_payload_len` and
        // still reconstructs the file exactly.
        let data: Vec<u8> = (0..99_800).map(|i| (i * 37 % 251) as u8).collect();
        let mut server = ServerSession::new(
            &data,
            SessionConfig {
                packet_size: 499,
                profile: TORNADO_B,
                code_seed: 9,
                ..SessionConfig::default()
            },
        )
        .unwrap();
        assert!(matches!(
            server.code().unwrap().cascade().final_code(),
            FinalCode::Large(_)
        ));
        let net = SimMulticast::new(21);
        let mut tx = net.endpoint(0.0);
        let mut rx = net.endpoint(0.1);
        rx.join(0).unwrap();
        let mut client = ClientSession::new(server.control_info().clone()).unwrap();
        'outer: for _ in 0..10_000 {
            server.send_round(&mut tx);
            while let Some((_group, datagram)) = rx.recv() {
                if client.handle_datagram(datagram) == ClientEvent::Complete {
                    break 'outer;
                }
            }
        }
        assert!(client.is_complete());
        assert_eq!(client.file().unwrap(), &data[..]);
    }

    #[test]
    fn layered_control_parameters_are_validated() {
        let server = ServerSession::with_defaults(&[1u8; 10_000], 1, 5).unwrap();
        let base = server.control_info().clone();
        for (layers, sp, burst) in [
            (1usize, 1usize, 0usize),         // every round an SP
            (1, 8, 8),                        // burst as long as the interval
            (1, 8, 9),                        // burst longer than the interval
            (1, MAX_SP_INTERVAL + 1, 0),      // unbounded accounting
            (MAX_SCHEDULED_LAYERS + 1, 8, 1), // block size 2^16: schedule cap
        ] {
            let mut control = base.clone();
            control.layers = layers;
            control.sp_interval = sp;
            control.burst_rounds = burst;
            assert!(
                matches!(
                    ClientSession::new(control),
                    Err(TornadoError::MalformedInput { .. })
                ),
                "layers = {layers}, sp = {sp}, burst = {burst} must be rejected"
            );
        }
        // The same layer count is fine for a flat session…
        let mut control = base.clone();
        control.layers = MAX_SCHEDULED_LAYERS + 1;
        assert!(ClientSession::new(control).is_ok());
        // …and the minimal layered cadence is fine too.
        let mut control = base.clone();
        control.sp_interval = 2;
        control.burst_rounds = 1;
        let client = ClientSession::new(control).unwrap();
        assert!(client.is_layered());
        assert_eq!(client.subscription_level(), Some(0));
    }

    /// Drive one layered client over `SimMulticast` the way any driver must:
    /// join `subscribed_groups()` up front, then obey Join/Leave events.
    fn run_layered_download(
        server: &mut ServerSession,
        net: &SimMulticast,
        max_rounds: usize,
    ) -> (ClientSession, Vec<ClientEvent>) {
        let mut tx = net.endpoint(0.0);
        let mut rx = net.endpoint(0.0);
        let mut client = ClientSession::new(server.control_info().clone()).unwrap();
        for group in client.subscribed_groups() {
            rx.join(group).unwrap();
        }
        let mut subscription_events = Vec::new();
        'outer: for _ in 0..max_rounds {
            server.send_round(&mut tx);
            while let Some((_group, datagram)) = rx.recv() {
                match client.handle_datagram(datagram) {
                    ClientEvent::Join { group } => {
                        rx.join(group).unwrap();
                        subscription_events.push(ClientEvent::Join { group });
                    }
                    ClientEvent::Leave { group } => {
                        rx.leave(group);
                        subscription_events.push(ClientEvent::Leave { group });
                    }
                    ClientEvent::Complete => break 'outer,
                    _ => {}
                }
            }
        }
        (client, subscription_events)
    }

    #[test]
    fn layered_download_climbs_while_lossless_and_reconstructs() {
        let data: Vec<u8> = (0..400_000).map(|i| (i * 31 % 251) as u8).collect();
        let mut server = ServerSession::new(
            &data,
            SessionConfig {
                layers: 6,
                code_seed: 3,
                sp_interval: 2,
                burst_rounds: 1,
                ..SessionConfig::default()
            },
        )
        .unwrap();
        assert!(server.is_layered());
        let net = SimMulticast::new(5);
        let (client, events) = run_layered_download(&mut server, &net, 200);
        assert!(client.is_complete());
        assert_eq!(client.file().unwrap(), &data[..]);
        // With no bottleneck every burst is clean: the receiver only ever
        // joins, one layer per evaluated SP, starting from the base layer.
        assert!(
            events.iter().all(|e| matches!(e, ClientEvent::Join { .. })),
            "lossless path must never shed a layer: {events:?}"
        );
        let level = client.subscription_level().unwrap();
        assert!(level >= 2, "client stuck at level {level}");
        assert_eq!(events.len(), level, "one join per level climbed");
        assert_eq!(
            client.subscribed_groups(),
            (0..=level as u32).collect::<Vec<_>>()
        );
    }

    #[test]
    fn join_leave_decisions_are_deterministic_for_a_datagram_trace() {
        // Record the full datagram trace of a layered carousel, then replay
        // it twice through the subscription-filtering a real driver performs.
        // The sans-I/O split means the event sequence must be identical —
        // the state machine has no clock, RNG or socket to diverge on.
        let data = vec![7u8; 150_000];
        let config = SessionConfig {
            layers: 6,
            code_seed: 11,
            sp_interval: 2,
            burst_rounds: 1,
            ..SessionConfig::default()
        };
        let mut server = ServerSession::new(&data, config).unwrap();
        let mut trace: Vec<(u32, Bytes)> = Vec::new();
        for _ in 0..40 {
            while let Some(out) = server.poll_transmit() {
                trace.push(out);
            }
            server.advance_round();
        }
        let replay = || {
            let mut client = ClientSession::new(server.control_info().clone()).unwrap();
            let mut joined: Vec<u32> = client.subscribed_groups();
            let mut events = Vec::new();
            for (group, datagram) in &trace {
                if !joined.contains(group) {
                    continue; // not subscribed: the datagram never arrives
                }
                match client.handle_datagram(datagram.clone()) {
                    ClientEvent::Join { group } => {
                        joined.push(group);
                        events.push(ClientEvent::Join { group });
                    }
                    ClientEvent::Leave { group } => {
                        joined.retain(|&g| g != group);
                        events.push(ClientEvent::Leave { group });
                    }
                    ClientEvent::Complete => break,
                    _ => {}
                }
            }
            (events, client.subscription_level(), client.is_complete())
        };
        let first = replay();
        let second = replay();
        assert_eq!(first, second, "identical trace must yield identical run");
        assert!(!first.0.is_empty(), "premise: the trace spans several SPs");
    }

    fn run_rateless_download(
        mode: RatelessMode,
        loss: f64,
        data_len: usize,
        packet_size: usize,
        skip_rounds: usize,
    ) -> (ClientSession, Vec<u8>) {
        let data: Vec<u8> = (0..data_len).map(|i| (i * 131 % 251) as u8).collect();
        let mut server = ServerSession::new(
            &data,
            SessionConfig {
                rateless: mode,
                packet_size,
                code_seed: 7,
                ..SessionConfig::default()
            },
        )
        .unwrap();
        let net = SimMulticast::new(11);
        let mut tx = net.endpoint(0.0);
        // A "late joiner": rounds transmitted before the client tunes in are
        // simply never seen, exactly as on a real multicast group.
        for _ in 0..skip_rounds {
            server.send_round(&mut tx);
        }
        let mut rx = net.endpoint(loss);
        let mut client = ClientSession::new(server.control_info().clone()).unwrap();
        assert_eq!(client.rateless_mode(), mode);
        for group in client.groups() {
            rx.join(group).unwrap();
        }
        while rx.recv().is_some() {} // drop anything queued pre-join
        'outer: for _ in 0..10_000 {
            server.send_round(&mut tx);
            while let Some((_group, datagram)) = rx.recv() {
                if client.handle_datagram(datagram) == ClientEvent::Complete {
                    break 'outer;
                }
            }
        }
        (client, data)
    }

    #[test]
    fn rateless_lt_download_reconstructs_under_loss() {
        let (client, data) = run_rateless_download(RatelessMode::Lt, 0.3, 30_000, 500, 0);
        assert!(client.is_complete());
        assert_eq!(client.file().unwrap(), &data[..]);
        let stats = client.stats();
        // Every rateless symbol is fresh: distinctness is exactly 1.
        assert_eq!(stats.distinctness_efficiency(), 1.0);
        assert_eq!(stats.rejected(), 0);
        assert_eq!(stats.received(), stats.distinct());
    }

    #[test]
    fn rateless_raptor_download_reconstructs_at_odd_packet_size() {
        // 499-byte packets force the GF(2^16) two-byte intermediate padding
        // through the whole wire path: symbols are 501 bytes, yet the
        // reassembled file must be byte-exact.
        let (client, data) = run_rateless_download(RatelessMode::Raptor, 0.2, 49_900, 499, 0);
        assert!(client.is_complete());
        assert_eq!(client.file().unwrap(), &data[..]);
        assert_eq!(client.stats().distinctness_efficiency(), 1.0);
    }

    #[test]
    fn rateless_late_joiner_pays_no_distinctness_penalty() {
        // Join 20 rounds late: a carousel client would start swallowing
        // duplicates, a rateless client sees only fresh seeds and completes
        // from the same ≈1.1k symbols as an on-time joiner.
        let (client, data) = run_rateless_download(RatelessMode::Lt, 0.0, 25_000, 500, 20);
        assert!(client.is_complete());
        assert_eq!(client.file().unwrap(), &data[..]);
        let stats = client.stats();
        assert_eq!(stats.distinctness_efficiency(), 1.0);
        assert!(
            stats.received() < 2 * stats.k(),
            "late join cost duplicates: {} received for k = {}",
            stats.received(),
            stats.k()
        );
    }

    #[test]
    fn hostile_rateless_control_is_rejected() {
        let data = vec![1u8; 25_000];
        let server = ServerSession::new(
            &data,
            SessionConfig {
                rateless: RatelessMode::Lt,
                code_seed: 3,
                ..SessionConfig::default()
            },
        )
        .unwrap();
        let base = server.control_info().clone();
        // LT must advertise n = k.
        let mut control = base.clone();
        control.n += 7;
        assert!(matches!(
            ClientSession::new(control),
            Err(TornadoError::MalformedInput { .. })
        ));
        // Rateless plus layered flags is a protocol violation.
        for (layers, sp, burst) in [(2usize, 0usize, 0usize), (1, 4, 1), (1, 0, 1)] {
            let mut control = base.clone();
            control.layers = layers;
            control.sp_interval = sp;
            control.burst_rounds = burst;
            assert!(
                matches!(
                    ClientSession::new(control),
                    Err(TornadoError::MalformedInput { .. })
                ),
                "rateless with layers = {layers}, sp = {sp}, burst = {burst} must be rejected"
            );
        }
        // Raptor validates n against the rebuilt precode's intermediate
        // count.
        let raptor = ServerSession::new(
            &data,
            SessionConfig {
                rateless: RatelessMode::Raptor,
                code_seed: 3,
                ..SessionConfig::default()
            },
        )
        .unwrap();
        let mut control = raptor.control_info().clone();
        control.n -= 1;
        assert!(matches!(
            ClientSession::new(control),
            Err(TornadoError::MalformedInput { .. })
        ));
        // An unknown profile name is irrelevant to a rateless session (no
        // Tornado code is negotiated), so it must NOT be rejected.
        let mut control = base.clone();
        control.profile = "not-a-profile".to_string();
        assert!(ClientSession::new(control).is_ok());
    }

    #[test]
    fn download_stats_relation_holds() {
        let (client, _) = run_download(0.1, 1, 30_000);
        let s = client.stats();
        let eta = s.reception_efficiency();
        assert!((eta - s.coding_efficiency() * s.distinctness_efficiency()).abs() < 1e-12);
    }

    #[test]
    fn statistical_attempts_feed_the_persistent_decoder_at_most_once_per_packet() {
        // A file large enough that the needed reception overhead exceeds the
        // initial 6 % margin forces several failed statistical attempts; the
        // owned decoder must still see every distinct packet exactly once in
        // total (the old API re-fed the entire buffer on every attempt).
        let (client, _) = run_download(0.4, 1, 1_000_000);
        assert!(client.is_complete());
        let stats = client.stats();
        assert!(
            stats.decode_attempts() >= 2,
            "premise: need multiple attempts, got {}",
            stats.decode_attempts()
        );
        assert!(
            client.decoder_packets_fed() <= stats.distinct(),
            "decoder saw {} packets for only {} distinct receptions — \
             packets were re-fed across attempts",
            client.decoder_packets_fed(),
            stats.distinct()
        );
    }

    #[test]
    fn duplicates_never_reach_the_decoder() {
        let data = vec![8u8; 40_000];
        let mut server = ServerSession::with_defaults(&data, 1, 17).unwrap();
        let mut client = ClientSession::new(server.control_info().clone()).unwrap();
        let (_, datagram) = server.poll_transmit().unwrap();
        assert_eq!(
            client.handle_datagram(datagram.clone()),
            ClientEvent::Buffered
        );
        assert_eq!(client.handle_datagram(datagram), ClientEvent::Duplicate);
        let stats = client.stats();
        assert_eq!((stats.received(), stats.distinct()), (2, 1));
        // Below the statistical threshold nothing is fed yet, and the
        // duplicate never will be.
        assert_eq!(client.decoder_packets_fed(), 0);
    }

    #[test]
    fn buffer_cap_rejects_the_overflow_and_bounds_memory() {
        let data = vec![3u8; 100_000];
        let mut server = ServerSession::with_defaults(&data, 1, 23).unwrap();
        let mut client = ClientSession::new(server.control_info().clone()).unwrap();
        // A real flood needs ~1.5k distinct packets to bite; shrinking the
        // cap (a unit test can) exercises the identical rejection path in
        // miniature.
        client.buffer_cap = 40;
        let mut datagrams = Vec::new();
        while datagrams.len() < 60 {
            if let Some((_g, d)) = server.poll_transmit() {
                datagrams.push(d);
            } else {
                server.advance_round();
            }
        }
        for (i, d) in datagrams.iter().enumerate() {
            let event = client.handle_datagram(d.clone());
            if i < 40 {
                assert_eq!(event, ClientEvent::Buffered, "packet {i} fits the cap");
            } else {
                assert_eq!(event, ClientEvent::Rejected, "packet {i} exceeds the cap");
            }
            assert!(
                client.buffered_packets() + client.decoder_packets_fed() <= client.buffer_cap(),
                "memory bound violated at packet {i}"
            );
        }
        assert_eq!(client.stats().rejected(), 20);
        // A duplicate of a buffered packet still reports Duplicate, not
        // Rejected: the cap only refuses *new* buffering.
        assert_eq!(
            client.handle_datagram(datagrams[0].clone()),
            ClientEvent::Duplicate
        );
        assert_eq!(client.stats().rejected(), 20);
    }

    #[test]
    fn the_decode_threshold_stays_below_the_buffer_cap() {
        // Liveness: however many attempts fail, the statistical strategy's
        // threshold must remain reachable inside the buffer cap, or the cap
        // would starve the decoder of the packets it still needs.
        let server = ServerSession::with_defaults(&[1u8; 200_000], 1, 3).unwrap();
        let client = ClientSession::new(server.control_info().clone()).unwrap();
        let k = client.stats().k() as f64;
        let worst_threshold = (k * (1.0 + ClientSession::MAX_ATTEMPT_MARGIN)).ceil() as usize;
        assert!(
            worst_threshold < client.buffer_cap(),
            "threshold {worst_threshold} must stay below cap {}",
            client.buffer_cap()
        );
    }

    #[test]
    fn events_progress_buffered_to_complete() {
        let data = vec![5u8; 30_000];
        let mut server = ServerSession::with_defaults(&data, 1, 13).unwrap();
        let net = SimMulticast::new(2);
        let mut tx = net.endpoint(0.0);
        let mut rx = net.endpoint(0.0);
        rx.join(0).unwrap();
        let mut client = ClientSession::new(server.control_info().clone()).unwrap();
        let mut saw_buffered = false;
        'outer: loop {
            server.send_round(&mut tx);
            while let Some((_g, datagram)) = rx.recv() {
                match client.handle_datagram(datagram.clone()) {
                    ClientEvent::Buffered => saw_buffered = true,
                    ClientEvent::Complete => {
                        // Feeding after completion is idempotent.
                        assert_eq!(client.handle_datagram(datagram), ClientEvent::Complete);
                        break 'outer;
                    }
                    _ => {}
                }
            }
        }
        assert!(saw_buffered && client.is_complete());
        // Once complete, every further datagram just reports Complete.
        server.send_round(&mut tx);
        let mut fed_after_completion = 0;
        while let Some((_g, d)) = rx.recv() {
            assert_eq!(client.handle_datagram(d), ClientEvent::Complete);
            fed_after_completion += 1;
        }
        assert!(fed_after_completion > 0);
    }
}
