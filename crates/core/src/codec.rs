//! The top-level [`TornadoCode`] type: the public face of the paper's primary
//! contribution.
//!
//! A `TornadoCode` bundles a [`Cascade`] with convenience methods for
//! encoding, batch decoding, incremental decoding and overhead measurement.
//! Construction is deterministic in `(k, profile, seed)`, which is all a
//! sender needs to communicate out of band (in the prototype protocol this
//! travels on the UDP control channel together with the file length).
//!
//! # Example
//!
//! ```
//! use df_core::{TornadoCode, PayloadDecoder, AddOutcome};
//!
//! // 1 000 source packets of 64 bytes, Tornado A profile.
//! let code = TornadoCode::new_a(1_000, 42).unwrap();
//! let source: Vec<Vec<u8>> = (0..1_000u32).map(|i| i.to_le_bytes().repeat(16)).collect();
//! let encoding = code.encode(&source).unwrap();
//!
//! // Feed packets in an arbitrary order; decoding completes after roughly
//! // (1 + ε)·k distinct packets with ε ≈ 0.05.
//! let mut decoder = code.decoder();
//! let mut done = false;
//! for (i, pkt) in encoding.iter().enumerate().rev() {
//!     if decoder.add_packet(i, pkt.clone()).unwrap() == AddOutcome::Complete {
//!         done = true;
//!         break;
//!     }
//! }
//! assert!(done);
//! assert_eq!(decoder.take_source().unwrap(), source);
//! ```

use crate::cascade::{Cascade, FinalCode};
use crate::decode::{OwnedPayloadDecoder, PayloadDecoder, SymbolicDecoder};
use crate::error::Result;
use crate::profile::{TornadoProfile, TORNADO_A, TORNADO_B};
use rand::seq::SliceRandom;
use rand::Rng;
use std::sync::Arc;

/// A Tornado erasure code with fixed `k`, stretch factor and graph structure.
///
/// The cascade is held behind an [`Arc`], so cloning a `TornadoCode` — or
/// creating an [`OwnedPayloadDecoder`] with [`TornadoCode::owned_decoder`] —
/// shares the graph structure instead of copying it.
#[derive(Debug, Clone)]
pub struct TornadoCode {
    cascade: Arc<Cascade>,
}

impl TornadoCode {
    /// Build a code from an explicit profile.
    ///
    /// # Errors
    ///
    /// See [`Cascade::build`].
    pub fn with_profile(k: usize, profile: TornadoProfile, seed: u64) -> Result<Self> {
        Ok(TornadoCode {
            cascade: Arc::new(Cascade::build(k, profile, seed)?),
        })
    }

    /// Build a Tornado A code (fast decoding, ≈ 5 % average overhead).
    ///
    /// # Errors
    ///
    /// See [`Cascade::build`].
    pub fn new_a(k: usize, seed: u64) -> Result<Self> {
        Self::with_profile(k, TORNADO_A, seed)
    }

    /// Build a Tornado B code (denser graphs, ≈ 3 % average overhead).
    ///
    /// # Errors
    ///
    /// See [`Cascade::build`].
    pub fn new_b(k: usize, seed: u64) -> Result<Self> {
        Self::with_profile(k, TORNADO_B, seed)
    }

    /// Number of source packets.
    pub fn k(&self) -> usize {
        self.cascade.k()
    }

    /// Total number of encoding packets (`n = c·k`).
    pub fn n(&self) -> usize {
        self.cascade.n()
    }

    /// Stretch factor `n / k`.
    pub fn stretch_factor(&self) -> f64 {
        self.n() as f64 / self.k() as f64
    }

    /// The underlying cascade structure.
    pub fn cascade(&self) -> &Cascade {
        &self.cascade
    }

    /// A shared handle to the cascade, for decoders (or sessions) that must
    /// outlive this `TornadoCode` value.
    pub fn shared_cascade(&self) -> Arc<Cascade> {
        Arc::clone(&self.cascade)
    }

    /// The exact payload length a well-formed encoding packet `index` carries
    /// when the source was split into `packet_size`-byte packets.
    ///
    /// This is `packet_size` for every packet except one corner: a GF(2^16)
    /// final code with an *odd* `packet_size` pads its check packets by two
    /// bytes (one padding byte to reach 16-bit alignment plus one odd-length
    /// marker byte — see [`FinalCode`]).  Protocol layers should validate
    /// received payload lengths against this instead of re-deriving the
    /// codec's padding rules.
    ///
    /// # Panics
    ///
    /// Panics if `index >= n`.
    pub fn expected_payload_len(&self, index: usize, packet_size: usize) -> usize {
        assert!(
            index < self.n(),
            "packet index {index} out of range for n = {}",
            self.n()
        );
        if packet_size % 2 == 1
            && index >= self.cascade.rs_offset()
            && matches!(self.cascade.final_code(), FinalCode::Large(_))
        {
            packet_size + 2
        } else {
            packet_size
        }
    }

    /// The profile this code was built from.
    pub fn profile(&self) -> &TornadoProfile {
        self.cascade.profile()
    }

    /// Encode `k` source packets into `n` encoding packets (systematic).
    ///
    /// # Errors
    ///
    /// See [`crate::encode::encode`].
    pub fn encode(&self, source: &[Vec<u8>]) -> Result<Vec<Vec<u8>>> {
        crate::encode::encode(&self.cascade, source)
    }

    /// Create an incremental payload decoder borrowing this code's cascade.
    pub fn decoder(&self) -> PayloadDecoder<'_> {
        PayloadDecoder::new(self.cascade())
    }

    /// Create an incremental payload decoder that shares ownership of the
    /// cascade, so it is not tied to this `TornadoCode`'s lifetime.
    pub fn owned_decoder(&self) -> OwnedPayloadDecoder {
        OwnedPayloadDecoder::new(self.shared_cascade())
    }

    /// Create an index-only decoder for reception simulations.
    pub fn symbolic_decoder(&self) -> SymbolicDecoder<'_> {
        SymbolicDecoder::new(self.cascade())
    }

    /// Batch decode: reconstruct the source from `(index, payload)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`crate::TornadoError::NeedMorePackets`] if the supplied set is
    /// insufficient (the caller should gather more packets and retry — the
    /// "statistical" client mode of Section 7.2), or other errors for
    /// malformed input.
    pub fn decode(&self, received: &[(usize, Vec<u8>)]) -> Result<Vec<Vec<u8>>> {
        let mut decoder = self.decoder();
        for (idx, payload) in received {
            // By reference: only packets that advance decoding are cloned.
            decoder.add_packet_ref(*idx, payload)?;
        }
        match decoder.take_source() {
            Some(src) => Ok(src),
            None => Err(crate::TornadoError::NeedMorePackets {
                received: decoder.received_distinct(),
                k: self.k(),
            }),
        }
    }

    /// Run one reception-overhead trial: present the encoding packets in a
    /// uniformly random order and report the overhead `ε` at which the source
    /// became decodable (the quantity plotted in Figure 2 of the paper).
    ///
    /// The overhead counts every packet pulled from the stream until the
    /// decoder completed, exactly as a client listening to a carousel would
    /// experience it.
    pub fn overhead_trial<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let mut order: Vec<usize> = (0..self.n()).collect();
        order.shuffle(rng);
        let mut dec = self.symbolic_decoder();
        let needed = dec
            .run_until_complete(order)
            .expect("the complete encoding always decodes");
        needed as f64 / self.k() as f64 - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn profile_constructors() {
        let a = TornadoCode::new_a(500, 1).unwrap();
        let b = TornadoCode::new_b(500, 1).unwrap();
        assert_eq!(a.profile().name, "tornado-a");
        assert_eq!(b.profile().name, "tornado-b");
        assert_eq!(a.k(), 500);
        assert_eq!(a.n(), 1000);
        assert!((a.stretch_factor() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn batch_decode_reports_insufficient_packets() {
        let code = TornadoCode::new_a(200, 2).unwrap();
        let src: Vec<Vec<u8>> = (0..200u8).map(|i| vec![i; 10]).collect();
        let enc = code.encode(&src).unwrap();
        // Far too few packets.
        let few: Vec<(usize, Vec<u8>)> = (0..100).map(|i| (i, enc[i].clone())).collect();
        assert!(matches!(
            code.decode(&few),
            Err(crate::TornadoError::NeedMorePackets { .. })
        ));
        // The whole encoding always decodes.
        let all: Vec<(usize, Vec<u8>)> = enc.iter().cloned().enumerate().collect();
        assert_eq!(code.decode(&all).unwrap(), src);
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "large-k statistical sweep; intractable under the Miri interpreter"
    )]
    fn overhead_trials_are_reasonable() {
        let code = TornadoCode::new_a(1000, 3).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..5 {
            let eps = code.overhead_trial(&mut rng);
            assert!(eps >= 0.0);
            assert!(eps < 0.3, "overhead {eps} far outside the expected band");
        }
    }

    #[test]
    fn owned_decoder_outlives_the_code_and_matches_borrowed() {
        let code = TornadoCode::new_a(300, 4).unwrap();
        let src: Vec<Vec<u8>> = (0..300u16).map(|i| i.to_le_bytes().repeat(8)).collect();
        let enc = code.encode(&src).unwrap();
        let mut owned = code.owned_decoder();
        let mut borrowed = code.decoder();
        for (i, p) in enc.iter().enumerate().rev() {
            let a = owned.add_packet_ref(i, p).unwrap();
            let b = borrowed.add_packet_ref(i, p).unwrap();
            assert_eq!(a, b, "packet {i}");
            if a == crate::AddOutcome::Complete {
                break;
            }
        }
        // The owned decoder keeps working after the code itself is gone.
        drop(borrowed);
        drop(code);
        assert!(owned.is_complete());
        assert_eq!(owned.take_source().unwrap(), src);
    }

    #[test]
    fn expected_payload_len_covers_the_odd_gf16_corner() {
        // Tornado B at this size has a GF(2^16) final block; with an odd
        // packet size its check packets carry two extra bytes.
        let b = TornadoCode::new_b(4000, 7).unwrap();
        assert!(matches!(
            b.cascade().final_code(),
            crate::FinalCode::Large(_)
        ));
        let rs = b.cascade().rs_offset();
        assert_eq!(b.expected_payload_len(0, 499), 499);
        assert_eq!(b.expected_payload_len(rs - 1, 499), 499);
        assert_eq!(b.expected_payload_len(rs, 499), 501);
        assert_eq!(b.expected_payload_len(b.n() - 1, 499), 501);
        // Even packet sizes never pad.
        assert_eq!(b.expected_payload_len(rs, 500), 500);
        // Tornado A keeps a GF(2^8) final block: no padding even when odd.
        let a = TornadoCode::new_a(4000, 7).unwrap();
        assert!(matches!(
            a.cascade().final_code(),
            crate::FinalCode::Small(_)
        ));
        assert_eq!(a.expected_payload_len(a.n() - 1, 499), 499);
    }

    #[test]
    fn deterministic_construction() {
        let a = TornadoCode::new_a(300, 9).unwrap();
        let b = TornadoCode::new_a(300, 9).unwrap();
        let src: Vec<Vec<u8>> = (0..300u16).map(|i| i.to_le_bytes().to_vec()).collect();
        assert_eq!(a.encode(&src).unwrap(), b.encode(&src).unwrap());
    }
}
