//! Rateless ("true fountain") session plumbing: the wire-level mode flag,
//! the seed ↔ header-word packing, and the sender/receiver state machines
//! the sessions delegate to.
//!
//! A carousel session retransmits a *fixed* encoding, so its 12-byte header
//! names a packet by index.  A rateless session never repeats itself: every
//! datagram is a fresh LT symbol fully described by a 64-bit seed, and the
//! header's `packet_index:serial` words carry that seed (high:low) instead.
//! Nothing about the framing changes — only the interpretation, which the
//! control channel announces up front via [`RatelessMode`]
//! (`CONTROL_VERSION` 3).
//!
//! This module is wire-facing: everything here handles attacker-controlled
//! seeds and payloads, so it must never panic and must hold bounded memory
//! no matter what arrives (see [`RatelessReceiver`]).

use df_core::{AddOutcome, LtDecoder, LtEncoder, RaptorCode, RaptorDecoder};
use df_core::{LT_DEFAULT_C, LT_DEFAULT_DELTA};

/// How a session's data datagrams are encoded, as announced on the control
/// channel.  One byte on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RatelessMode {
    /// Fixed-encoding carousel (the classic Section 7 prototype): the header
    /// carries `(packet_index, serial)` and duplicates accumulate.
    #[default]
    Off,
    /// Plain LT code over the `k` source packets: the header carries a
    /// 64-bit symbol seed and every datagram is distinct.
    Lt,
    /// Raptor code (Tornado precode + LT layer over its `n` intermediates):
    /// seed-carrying like [`RatelessMode::Lt`], with the control channel's
    /// `n` advertising the intermediate count.
    Raptor,
}

impl RatelessMode {
    /// Wire encoding of the mode byte.
    pub fn to_wire(self) -> u8 {
        match self {
            RatelessMode::Off => 0,
            RatelessMode::Lt => 1,
            RatelessMode::Raptor => 2,
        }
    }

    /// Decode the mode byte; `None` for bytes no known mode uses (the
    /// control channel is untrusted input, so unknown modes are a parse
    /// error, not a default).
    pub fn from_wire(byte: u8) -> Option<Self> {
        match byte {
            0 => Some(RatelessMode::Off),
            1 => Some(RatelessMode::Lt),
            2 => Some(RatelessMode::Raptor),
            _ => None,
        }
    }

    /// True for the seed-carrying modes.
    pub fn is_rateless(self) -> bool {
        !matches!(self, RatelessMode::Off)
    }
}

/// Pack a rateless symbol seed into the header's `(packet_index, serial)`
/// words: the seed's high 32 bits ride in `packet_index`, the low 32 in
/// `serial`.  Serials therefore stay monotonic for a monotonic seed stream —
/// receivers can still eyeball datagram order — while the full 64-bit space
/// keeps seed reuse out of reach of any session lifetime.
pub fn seed_to_words(seed: u64) -> (u32, u32) {
    ((seed >> 32) as u32, seed as u32)
}

/// Recover a symbol seed from the header's `(packet_index, serial)` words
/// (inverse of [`seed_to_words`]).
pub fn seed_from_words(packet_index: u32, serial: u32) -> u64 {
    ((packet_index as u64) << 32) | serial as u64
}

/// The transmit side of a rateless session: an endless, never-repeating
/// stream of `(seed, payload)` symbols, metered into rounds of `k` symbols
/// so the driver's round-based pacing keeps working unchanged.
#[derive(Debug)]
pub struct RatelessSender {
    /// Seed → (degree, neighbors) derivation layer.  For plain LT this
    /// ranges over the `k` source packets; for Raptor it is the code's LT
    /// layer over the `n` precode intermediates.
    lt: LtEncoder,
    /// The symbols the LT layer XORs over (source packets or intermediates),
    /// all of one uniform length.
    symbols: Vec<Vec<u8>>,
    /// Next seed to issue; monotonic, never wraps in any feasible session.
    next_seed: u64,
    /// Symbols per round (= `k`, matching one carousel round's bandwidth).
    quota: usize,
    issued_this_round: usize,
}

impl RatelessSender {
    /// Plain-LT sender over `k` uniform source packets.
    ///
    /// # Errors
    ///
    /// Propagates [`LtEncoder::new`] parameter errors (`source` empty).
    pub fn for_lt(source: Vec<Vec<u8>>, stream_seed: u64) -> df_core::Result<Self> {
        let quota = source.len();
        let lt = LtEncoder::new(source.len(), LT_DEFAULT_C, LT_DEFAULT_DELTA, stream_seed)?;
        Ok(RatelessSender {
            lt,
            symbols: source,
            next_seed: 0,
            quota,
            issued_this_round: 0,
        })
    }

    /// Raptor sender: precodes `source` into the intermediates and streams
    /// LT symbols over them.
    ///
    /// # Errors
    ///
    /// Propagates precode encoding errors (wrong packet count / lengths).
    pub fn for_raptor(code: &RaptorCode, source: &[Vec<u8>]) -> df_core::Result<Self> {
        let symbols = code.precode_symbols(source)?;
        Ok(RatelessSender {
            lt: code.lt().clone(),
            symbols,
            next_seed: 0,
            quota: code.k(),
            issued_this_round: 0,
        })
    }

    /// Payload bytes of every emitted symbol.
    pub fn symbol_len(&self) -> usize {
        self.symbols.first().map(|s| s.len()).unwrap_or(0)
    }

    /// Seeds issued so far (= symbols ever emitted).
    pub fn seeds_issued(&self) -> u64 {
        self.next_seed
    }

    /// True once this round's quota of fresh symbols has been issued.
    pub fn round_complete(&self) -> bool {
        self.issued_this_round >= self.quota
    }

    /// Reset the round quota (the driver's `advance_round`).
    pub fn advance_round(&mut self) {
        self.issued_this_round = 0;
    }

    /// Emit the next `(seed, payload)` symbol, or `None` once the round's
    /// quota is exhausted.
    pub fn poll(&mut self) -> Option<(u64, Vec<u8>)> {
        if self.round_complete() {
            return None;
        }
        let seed = self.next_seed;
        // The encoder only errors on a symbol-count mismatch, which this
        // sender's construction rules out; treat it as quota exhaustion
        // rather than panicking in transmit-path code.
        let payload = self.lt.encode_symbol(seed, &self.symbols).ok()?;
        self.next_seed += 1;
        self.issued_this_round += 1;
        Some((seed, payload))
    }
}

/// The receive side of a rateless session: routes `(seed, payload)` symbols
/// into the LT or Raptor streaming decoder behind hard memory caps.
///
/// The decoders themselves accept unboundedly many distinct symbols — that
/// is the point of a rateless code — so *this* wrapper is where the
/// bounded-memory contract lives: once [`RatelessReceiver::at_capacity`]
/// (more buffered equations or equation edges than any honest decode needs),
/// new symbols are refused before they can grow decoder state.  A forged
/// flood can stall one session's download; it cannot balloon the process.
#[derive(Debug)]
pub struct RatelessReceiver {
    inner: Inner,
    /// Most undecoded equations the decoder may buffer.
    max_equations: usize,
    /// Most unknown-symbol references across buffered equations.
    max_edges: usize,
    /// Uniform payload length of every valid symbol.
    payload_len: usize,
    /// Payload length recovered source packets are truncated back to
    /// (Raptor intermediates carry up to two bytes of GF(2^16) padding).
    packet_size: usize,
}

#[derive(Debug)]
enum Inner {
    Lt(LtDecoder<Vec<u8>>),
    Raptor(RaptorDecoder<Vec<u8>>),
}

impl RatelessReceiver {
    /// Plain-LT receiver over `k` packets of `packet_size` bytes, matching a
    /// [`RatelessSender::for_lt`] stream seeded with `stream_seed`.
    ///
    /// # Errors
    ///
    /// Propagates [`LtEncoder::new`] parameter errors (`k == 0`).
    pub fn for_lt(k: usize, packet_size: usize, stream_seed: u64) -> df_core::Result<Self> {
        let enc = LtEncoder::new(k, LT_DEFAULT_C, LT_DEFAULT_DELTA, stream_seed)?;
        Ok(RatelessReceiver {
            inner: Inner::Lt(LtDecoder::new(enc)),
            max_equations: Self::equation_cap(k),
            max_edges: Self::equation_cap(k) * Self::EDGES_PER_EQUATION,
            payload_len: packet_size,
            packet_size,
        })
    }

    /// Raptor receiver matching a [`RatelessSender::for_raptor`] stream.
    pub fn for_raptor(code: &RaptorCode, packet_size: usize) -> Self {
        let k = code.k();
        RatelessReceiver {
            payload_len: code.symbol_len(packet_size),
            inner: Inner::Raptor(code.decoder()),
            max_equations: Self::equation_cap(k),
            max_edges: Self::equation_cap(k) * Self::EDGES_PER_EQUATION,
            packet_size,
        }
    }

    /// Equation cap for a `k`-packet session: the same `1.5k + 64` envelope
    /// the carousel client uses as its buffer cap — comfortably above the
    /// ≈`1.11k` (LT) / ≈`1.06k` (Raptor) symbols an honest decode needs, and
    /// each pending equation is dropped as peeling consumes it, so an honest
    /// session never comes near it.
    fn equation_cap(k: usize) -> usize {
        k + k / 2 + 64
    }

    /// Edge budget per buffered equation.  The robust soliton's *average*
    /// degree is `O(ln k)`; 16 edges per equation of slack covers every
    /// feasible honest workload, while a flood of maximum-degree forged
    /// seeds hits this wall long before the equation cap.
    const EDGES_PER_EQUATION: usize = 16;

    /// Uniform payload length every valid symbol must carry (XOR demands one
    /// length; the session drops mismatches before they reach the decoder).
    pub fn payload_len(&self) -> usize {
        self.payload_len
    }

    /// Most undecoded equations this receiver will buffer.
    pub fn max_equations(&self) -> usize {
        self.max_equations
    }

    /// Most unknown-symbol references this receiver will buffer.
    pub fn max_edges(&self) -> usize {
        self.max_edges
    }

    /// Equations currently buffered (undecoded).
    pub fn pending_equations(&self) -> usize {
        match &self.inner {
            Inner::Lt(d) => d.pending_equations(),
            Inner::Raptor(d) => d.pending_equations(),
        }
    }

    /// Unknown-symbol references across buffered equations.
    pub fn pending_edges(&self) -> usize {
        match &self.inner {
            Inner::Lt(d) => d.pending_edges(),
            Inner::Raptor(d) => d.pending_edges(),
        }
    }

    /// Symbols accepted so far, duplicates included.
    pub fn received_total(&self) -> u64 {
        match &self.inner {
            Inner::Lt(d) => d.received_total(),
            Inner::Raptor(d) => d.received_total(),
        }
    }

    /// Symbols accepted so far whose seed was new.
    pub fn received_distinct(&self) -> u64 {
        match &self.inner {
            Inner::Lt(d) => d.received_distinct(),
            Inner::Raptor(d) => d.received_distinct(),
        }
    }

    /// True once either memory cap is reached: the next new symbol would be
    /// refused.  Unreachable from an honest symbol stream.
    pub fn at_capacity(&self) -> bool {
        self.pending_equations() >= self.max_equations || self.pending_edges() >= self.max_edges
    }

    /// True once every source packet is recovered.
    pub fn is_complete(&self) -> bool {
        match &self.inner {
            Inner::Lt(d) => d.is_complete(),
            Inner::Raptor(d) => d.is_complete(),
        }
    }

    /// Accept one `(seed, payload)` symbol.  The caller has already
    /// length-checked `payload` against [`RatelessReceiver::payload_len`]
    /// and checked [`RatelessReceiver::at_capacity`]; a decoder-level error
    /// (none is reachable for length-checked input) reports as `Duplicate`
    /// so hostile traffic can never panic the session.
    pub fn add(&mut self, seed: u64, payload: Vec<u8>) -> AddOutcome {
        match &mut self.inner {
            Inner::Lt(d) => d.add_symbol(seed, payload),
            Inner::Raptor(d) => d.add_symbol(seed, payload).unwrap_or(AddOutcome::Duplicate),
        }
    }

    /// Move the recovered source packets out once complete, each truncated
    /// back to the session packet size (Raptor intermediates may carry
    /// GF(2^16) padding bytes that must not reach the reassembled file).
    /// The packets leave the decoder rather than being copied, so a second
    /// call returns `None`.
    pub fn take_source_packets(&mut self) -> Option<Vec<Vec<u8>>> {
        let mut packets = match &mut self.inner {
            Inner::Lt(d) => d.take_source()?,
            Inner::Raptor(d) => d.take_source()?,
        };
        for p in &mut packets {
            p.truncate(self.packet_size);
        }
        Some(packets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_bytes_roundtrip_and_reject_unknowns() {
        for mode in [RatelessMode::Off, RatelessMode::Lt, RatelessMode::Raptor] {
            assert_eq!(RatelessMode::from_wire(mode.to_wire()), Some(mode));
        }
        for byte in 3..=u8::MAX {
            assert_eq!(RatelessMode::from_wire(byte), None);
        }
        assert!(!RatelessMode::Off.is_rateless());
        assert!(RatelessMode::Lt.is_rateless());
        assert!(RatelessMode::Raptor.is_rateless());
        assert_eq!(RatelessMode::default(), RatelessMode::Off);
    }

    #[test]
    fn seed_packing_roundtrips() {
        for seed in [
            0u64,
            1,
            u32::MAX as u64,
            1 << 32,
            u64::MAX,
            0xDEAD_BEEF_0BAD_F00D,
        ] {
            let (hi, lo) = seed_to_words(seed);
            assert_eq!(seed_from_words(hi, lo), seed);
        }
        // Monotonic seeds keep the low word (the wire serial) monotonic
        // within each 2^32 block — the property the header doc promises.
        assert_eq!(seed_to_words(7), (0, 7));
        assert_eq!(seed_to_words((1 << 32) + 7), (1, 7));
    }

    fn packets(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| (0..len).map(|j| ((i * 251 + j * 31) % 255) as u8).collect())
            .collect()
    }

    #[test]
    fn lt_sender_stream_decodes_at_the_receiver() {
        let source = packets(60, 32);
        let mut tx = RatelessSender::for_lt(source.clone(), 0xFEED).unwrap();
        let mut rx = RatelessReceiver::for_lt(60, 32, 0xFEED).unwrap();
        assert_eq!(rx.payload_len(), 32);
        let mut rounds = 0;
        while !rx.is_complete() {
            while let Some((seed, payload)) = tx.poll() {
                assert_eq!(payload.len(), rx.payload_len());
                if rx.is_complete() {
                    break;
                }
                rx.add(seed, payload);
            }
            tx.advance_round();
            rounds += 1;
            assert!(rounds < 50, "LT stream failed to converge");
        }
        assert_eq!(rx.take_source_packets().unwrap(), source);
    }

    #[test]
    fn raptor_sender_stream_decodes_at_the_receiver() {
        let source = packets(80, 33);
        let code = RaptorCode::new(80, 0x5EED).unwrap();
        let mut tx = RatelessSender::for_raptor(&code, &source).unwrap();
        let mut rx = RatelessReceiver::for_raptor(&code, 33);
        assert_eq!(rx.payload_len(), code.symbol_len(33));
        assert_eq!(tx.symbol_len(), rx.payload_len());
        let mut rounds = 0;
        while !rx.is_complete() {
            while let Some((seed, payload)) = tx.poll() {
                if rx.is_complete() {
                    break;
                }
                rx.add(seed, payload);
            }
            tx.advance_round();
            rounds += 1;
            assert!(rounds < 50, "Raptor stream failed to converge");
        }
        // Intermediates carry padding at odd sizes; the receiver must hand
        // back exactly the original source packets regardless.
        assert_eq!(rx.take_source_packets().unwrap(), source);
    }

    #[test]
    fn sender_rounds_meter_exactly_k_fresh_symbols() {
        let mut tx = RatelessSender::for_lt(packets(25, 8), 1).unwrap();
        for round in 0..3u64 {
            let mut seeds = Vec::new();
            while let Some((seed, _)) = tx.poll() {
                seeds.push(seed);
            }
            assert_eq!(seeds.len(), 25, "round quota is k");
            assert_eq!(seeds.first().copied(), Some(round * 25));
            assert!(tx.round_complete());
            assert!(tx.poll().is_none(), "quota is enforced");
            tx.advance_round();
        }
        assert_eq!(tx.seeds_issued(), 75);
    }

    #[test]
    fn caps_scale_with_k_and_start_unsaturated() {
        let rx = RatelessReceiver::for_lt(1000, 16, 9).unwrap();
        assert_eq!(rx.max_equations(), 1564);
        assert_eq!(rx.max_edges(), 1564 * 16);
        assert!(!rx.at_capacity());
        assert_eq!((rx.pending_equations(), rx.pending_edges()), (0, 0));
    }
}
