//! The peeling (substitution) decoder for Tornado codes.
//!
//! Decoding is the process described in Section 5.1 of the paper: every check
//! packet is the XOR of its neighbours in the previous cascade level, so
//! whenever a known check packet has exactly one unknown neighbour, that
//! neighbour is recovered with a handful of XORs; whenever all neighbours of
//! an *unknown* check packet are known, the check packet itself can be
//! recomputed (which in turn feeds the next cascade level and the final
//! Reed–Solomon block).  The final cascade level is recovered through the
//! conventional MDS code as soon as enough of its block has arrived.  The
//! decoder runs this relaxation to a fixed point after every packet arrival,
//! so it can operate in either of the two client modes discussed in
//! Section 7.2 — incremental (decode as packets arrive) or statistical
//! (buffer ≈ (1+ε)k packets, then decode in one go); both are exercised by the
//! tests.
//!
//! The decoder is generic over [`Symbol`]: with `Vec<u8>` it produces real
//! payloads, with [`crate::symbol::Mark`] it is the index-only decoder
//! used by the reception-efficiency simulations (Figures 4–6).

use crate::cascade::{Cascade, PacketRole};
use crate::error::{Result, TornadoError};
use crate::symbol::{Mark, Symbol};
use std::borrow::Borrow;
use std::sync::Arc;

/// Outcome of feeding one packet to the decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddOutcome {
    /// The packet index had already been received or recovered; it contributed
    /// nothing (a "useless duplicate" in the paper's terminology).
    Duplicate,
    /// The packet was new but the source data is not yet fully recovered.
    Accepted,
    /// The packet was new and the source data is now fully recovered.
    Complete,
}

/// Incremental peeling decoder over an agreed [`Cascade`].
///
/// Generic over how the cascade is held (`C`): a plain reference for
/// short-lived decoders ([`PayloadDecoder`], [`SymbolicDecoder`]) or an
/// [`Arc`] for decoders that must live independently of the code that created
/// them ([`OwnedPayloadDecoder`]) — e.g. a protocol session that keeps one
/// decoder alive across many statistical decode attempts.
#[derive(Debug, Clone)]
pub struct PeelingDecoder<S: Symbol, C: Borrow<Cascade> + Clone> {
    cascade: C,
    /// Current value of every encoding packet (global index), if known.
    values: Vec<Option<S>>,
    /// Per check node (levels 1..): number of still-unknown left neighbours.
    unknown_left: Vec<u32>,
    /// Per check node: XOR of the already-known left neighbours.
    acc: Vec<Option<S>>,
    /// Global index of the first check node (= first packet of level 1), when
    /// the cascade has more than one level.
    check_base: usize,
    /// Number of check nodes (packets in levels 1..).
    check_count: usize,
    /// Distinct packets currently known (received or recovered).
    known: usize,
    /// Distinct packets received from the channel.
    received_distinct: usize,
    /// Packets offered including duplicates.
    received_total: usize,
    /// Known packets among the source level.
    source_known: usize,
    /// Known packets among the final block (last level + RS checks).
    rs_block_known: usize,
    /// Whether the final level has already been recovered through the MDS
    /// code.
    rs_done: bool,
}

impl<S: Symbol, C: Borrow<Cascade> + Clone> PeelingDecoder<S, C> {
    /// Create a decoder for the given cascade with no packets received yet.
    pub fn new(cascade: C) -> Self {
        let c: &Cascade = cascade.borrow();
        let check_base = if c.num_levels() > 1 {
            c.level_offset(1)
        } else {
            c.rs_offset()
        };
        let check_count = c.rs_offset() - check_base;
        let mut unknown_left = Vec::with_capacity(check_count);
        for level in 1..c.num_levels() {
            let graph = &c.graphs()[level - 1];
            for pos in 0..graph.right() {
                unknown_left.push(graph.check_neighbors(pos).len() as u32);
            }
        }
        debug_assert_eq!(unknown_left.len(), check_count);
        let n = c.n();
        PeelingDecoder {
            cascade,
            values: vec![None; n],
            unknown_left,
            acc: vec![None; check_count],
            check_base,
            check_count,
            known: 0,
            received_distinct: 0,
            received_total: 0,
            source_known: 0,
            rs_block_known: 0,
            rs_done: false,
        }
    }

    /// The cascade this decoder operates on.
    pub fn cascade(&self) -> &Cascade {
        self.cascade.borrow()
    }

    /// True once every source packet is known.
    pub fn is_complete(&self) -> bool {
        self.source_known == self.cascade.borrow().k()
    }

    /// Distinct packets received from the channel so far.
    pub fn received_distinct(&self) -> usize {
        self.received_distinct
    }

    /// Total packets offered, including duplicates.
    pub fn received_total(&self) -> usize {
        self.received_total
    }

    /// Number of packets currently known (received or recovered).
    pub fn known(&self) -> usize {
        self.known
    }

    /// Reception overhead so far: `received_total / k − 1`.
    ///
    /// Matches the paper's definition: overhead ε means `(1 + ε)·k` encoding
    /// packets had to be pulled from the channel to reconstruct the source
    /// data.  Every received packet counts, including ones whose content the
    /// decoder had already recovered or already received.
    pub fn reception_overhead(&self) -> f64 {
        self.received_total as f64 / self.cascade.borrow().k() as f64 - 1.0
    }

    /// Feed one encoding packet to the decoder.
    ///
    /// # Errors
    ///
    /// Returns [`TornadoError::MalformedInput`] for an out-of-range index and
    /// propagates final-code errors.
    pub fn add_packet(&mut self, index: usize, value: S) -> Result<AddOutcome> {
        if self.register(index)? {
            return Ok(AddOutcome::Duplicate);
        }
        self.accept_new(index, value)
    }

    /// Feed one encoding packet by reference, cloning the payload only if the
    /// packet is new.
    ///
    /// This is the right entry point when the caller keeps ownership of the
    /// encoding (a carousel buffer, a benchmark's reference copy): duplicates
    /// — the common case late in a lossy download — cost no allocation at
    /// all.
    ///
    /// # Errors
    ///
    /// Same as [`PeelingDecoder::add_packet`].
    pub fn add_packet_ref(&mut self, index: usize, value: &S) -> Result<AddOutcome> {
        if self.register(index)? {
            return Ok(AddOutcome::Duplicate);
        }
        self.accept_new(index, value.clone())
    }

    /// Validate `index`, count the reception, and report whether the packet
    /// is a duplicate (every packet is, once decoding is complete).
    fn register(&mut self, index: usize) -> Result<bool> {
        if index >= self.cascade.borrow().n() {
            return Err(TornadoError::MalformedInput {
                reason: format!(
                    "packet index {index} out of range for n = {}",
                    self.cascade.borrow().n()
                ),
            });
        }
        self.received_total += 1;
        // A complete decoder has nothing left to learn (and may have handed
        // its source packets out through `take_source`).
        Ok(self.is_complete() || self.values[index].is_some())
    }

    /// Take ownership of a new packet's value and run peeling.
    fn accept_new(&mut self, index: usize, value: S) -> Result<AddOutcome> {
        self.received_distinct += 1;
        self.propagate(index, value)?;
        if self.is_complete() {
            Ok(AddOutcome::Complete)
        } else {
            Ok(AddOutcome::Accepted)
        }
    }

    /// Feed a batch of `(index, value)` pairs (the "statistical" client mode).
    ///
    /// # Errors
    ///
    /// Same as [`PeelingDecoder::add_packet`].
    pub fn add_packets<I>(&mut self, packets: I) -> Result<bool>
    where
        I: IntoIterator<Item = (usize, S)>,
    {
        for (idx, value) in packets {
            self.add_packet(idx, value)?;
        }
        Ok(self.is_complete())
    }

    /// Move the recovered source packets out, if decoding is complete.  The
    /// decoder stays complete but holds no source packets afterwards, so a
    /// second call returns `None`.
    pub fn take_source(&mut self) -> Option<Vec<S>> {
        if !self.is_complete() {
            return None;
        }
        let k = self.cascade.borrow().k();
        self.values[..k].iter_mut().map(Option::take).collect()
    }

    /// Set a packet value and run peeling to a fixed point.
    fn propagate(&mut self, index: usize, value: S) -> Result<()> {
        let mut worklist = vec![(index, value)];
        while let Some((g, v)) = worklist.pop() {
            if self.values[g].is_some() {
                continue;
            }
            self.mark_known(g, v, &mut worklist)?;
        }
        Ok(())
    }

    /// Record a newly-known packet and push any recoveries it enables.
    fn mark_known(&mut self, g: usize, value: S, worklist: &mut Vec<(usize, S)>) -> Result<()> {
        let role = self.cascade.borrow().role(g);
        let num_levels = self.cascade.borrow().num_levels();
        self.values[g] = Some(value);
        self.known += 1;
        match role {
            PacketRole::Level { level, pos } => {
                if level == 0 {
                    self.source_known += 1;
                }
                if level + 1 == num_levels {
                    self.rs_block_known += 1;
                }
                // As a left node of the graph above (if any): update the check
                // accumulators of its neighbours.
                if level + 1 < num_levels {
                    self.update_checks_above(level, pos, g, worklist);
                }
                // As a check node of the graph below (levels >= 1): it may now
                // resolve its one unknown neighbour.
                if level >= 1 {
                    self.try_resolve_check(g, worklist);
                }
            }
            PacketRole::RsCheck { .. } => {
                self.rs_block_known += 1;
            }
        }
        // The final level becomes recoverable as soon as k of its block's
        // packets are known.
        if !self.rs_done && self.rs_block_known >= self.cascade.borrow().final_code().k() {
            self.try_final_level(worklist)?;
        }
        Ok(())
    }

    /// Left node `(level, pos)` just became known: update every check node of
    /// the graph between `level` and `level + 1`.
    fn update_checks_above(
        &mut self,
        level: usize,
        pos: usize,
        g: usize,
        worklist: &mut Vec<(usize, S)>,
    ) {
        // Clone the cascade handle (a pointer copy / `Arc` bump) so the graph
        // borrow is independent of `self` while the decoder state mutates.
        let cascade = self.cascade.clone();
        let cascade: &Cascade = cascade.borrow();
        let graph = &cascade.graphs()[level];
        let check_offset = cascade.level_offset(level + 1);
        for &c in graph.left_neighbors(pos) {
            let check_global = check_offset + c as usize;
            let ci = check_global - self.check_base;
            self.unknown_left[ci] -= 1;
            // Borrow the value out of the store per neighbour (disjoint
            // fields, so no clone); it is only cloned to seed a check node's
            // first accumulator, which must own its running XOR.
            let value = self.values[g].as_ref().expect("value was just set");
            match &mut self.acc[ci] {
                Some(acc) => acc.xor(value),
                None => self.acc[ci] = Some(value.clone()),
            }
            if self.unknown_left[ci] == 0 {
                // Every neighbour known: the check packet itself can be
                // recomputed if it has not arrived (useful both for upward
                // recovery and for feeding the final MDS block).  The
                // accumulator has served its purpose, so move it out instead
                // of cloning — `unknown_left` never increments, making this
                // branch unreachable twice for the same check node.
                if self.values[check_global].is_none() {
                    if let Some(acc) = self.acc[ci].take() {
                        worklist.push((check_global, acc));
                    }
                }
            } else if self.unknown_left[ci] == 1 && self.values[check_global].is_some() {
                self.recover_single_neighbor(check_global, worklist);
            }
        }
    }

    /// Check node `check_global` is known; if exactly one of its neighbours is
    /// unknown, recover it.
    fn try_resolve_check(&mut self, check_global: usize, worklist: &mut Vec<(usize, S)>) {
        let ci = check_global - self.check_base;
        if ci < self.check_count && self.unknown_left[ci] == 1 {
            self.recover_single_neighbor(check_global, worklist);
        }
    }

    /// Recover the single unknown neighbour of a known check node.
    fn recover_single_neighbor(&mut self, check_global: usize, worklist: &mut Vec<(usize, S)>) {
        let cascade = self.cascade.clone();
        let cascade: &Cascade = cascade.borrow();
        let PacketRole::Level { level, pos } = cascade.role(check_global) else {
            unreachable!("check nodes are level packets");
        };
        debug_assert!(level >= 1);
        let graph = &cascade.graphs()[level - 1];
        let left_offset = cascade.level_offset(level - 1);
        let missing = graph
            .check_neighbors(pos)
            .iter()
            .map(|&l| left_offset + l as usize)
            .find(|&lg| self.values[lg].is_none());
        let Some(missing_global) = missing else {
            return;
        };
        let ci = check_global - self.check_base;
        let mut recovered = self.values[check_global]
            .clone()
            .expect("check value is known");
        if let Some(acc) = &self.acc[ci] {
            recovered.xor(acc);
        }
        worklist.push((missing_global, recovered));
    }

    /// Attempt to recover the entire final cascade level through the MDS code.
    fn try_final_level(&mut self, worklist: &mut Vec<(usize, S)>) -> Result<()> {
        let cascade = self.cascade.clone();
        let cascade: &Cascade = cascade.borrow();
        let last_level = cascade.num_levels() - 1;
        let level_offset = cascade.level_offset(last_level);
        let level_size = cascade.level_sizes()[last_level];
        let rs_offset = cascade.rs_offset();
        let rs_checks = cascade.rs_checks();

        // Borrow the known packets straight out of the value store: recovery
        // attempts (which can fire repeatedly near the completion threshold)
        // never clone payloads.
        let mut received: Vec<(usize, &S)> = Vec::with_capacity(self.rs_block_known);
        for i in 0..level_size {
            if let Some(v) = &self.values[level_offset + i] {
                received.push((i, v));
            }
        }
        for j in 0..rs_checks {
            if let Some(v) = &self.values[rs_offset + j] {
                received.push((level_size + j, v));
            }
        }
        if let Some(level) = S::recover_final_level(cascade.final_code(), &received)? {
            self.rs_done = true;
            for (i, v) in level.into_iter().enumerate() {
                let g = level_offset + i;
                if self.values[g].is_none() {
                    worklist.push((g, v));
                }
            }
        }
        Ok(())
    }
}

/// Decoder that carries real packet payloads, borrowing its cascade.
pub type PayloadDecoder<'a> = PeelingDecoder<Vec<u8>, &'a Cascade>;

/// Index-only decoder used by the large-scale reception simulations.
pub type SymbolicDecoder<'a> = PeelingDecoder<Mark, &'a Cascade>;

/// Payload decoder that *owns* (a share of) its cascade, so it can outlive
/// the [`crate::TornadoCode`] borrow that created it.  This is the decoder a
/// long-lived protocol session holds across statistical decode attempts: the
/// session feeds each received packet exactly once, instead of re-feeding its
/// whole buffer into a fresh borrowing decoder per attempt.
pub type OwnedPayloadDecoder = PeelingDecoder<Vec<u8>, Arc<Cascade>>;

/// Index-only decoder that owns a share of its cascade (see
/// [`OwnedPayloadDecoder`]).
pub type OwnedSymbolicDecoder = PeelingDecoder<Mark, Arc<Cascade>>;

impl<C: Borrow<Cascade> + Clone> PeelingDecoder<Mark, C> {
    /// Feed packet indices (no payloads) until the source is recoverable or
    /// the iterator is exhausted; returns the total number of packets consumed
    /// from the iterator (the paper's reception count — every packet pulled
    /// from the channel counts, whether or not it turned out to be useful) if
    /// decoding completed.
    ///
    /// This is the primitive behind the overhead-distribution experiment
    /// (Figure 2) and the receiver simulations (Figures 4–6).
    pub fn run_until_complete<I>(&mut self, indices: I) -> Option<usize>
    where
        I: IntoIterator<Item = usize>,
    {
        for idx in indices {
            match self.add_packet(idx, Mark) {
                Ok(AddOutcome::Complete) => return Some(self.received_total()),
                Ok(_) => {}
                Err(_) => return None,
            }
        }
        if self.is_complete() {
            Some(self.received_total())
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cascade::Cascade;
    use crate::profile::{TornadoProfile, TORNADO_A, TORNADO_B};
    use proptest::prelude::*;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn encode_all(cascade: &Cascade, source: &[Vec<u8>]) -> Vec<Vec<u8>> {
        crate::encode::encode(cascade, source).unwrap()
    }

    fn random_source(k: usize, len: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..k)
            .map(|_| (0..len).map(|_| rng.gen()).collect())
            .collect()
    }

    #[test]
    fn decodes_with_all_packets_received() {
        let cascade = Cascade::build(120, TORNADO_A, 1).unwrap();
        let src = random_source(120, 32, 1);
        let enc = encode_all(&cascade, &src);
        let mut dec = PayloadDecoder::new(&cascade);
        for (i, p) in enc.iter().enumerate() {
            dec.add_packet(i, p.clone()).unwrap();
        }
        assert!(dec.is_complete());
        assert_eq!(dec.take_source().unwrap(), src);
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "large-k statistical sweep; intractable under the Miri interpreter"
    )]
    fn decodes_from_random_subset_with_overhead() {
        let k = 1000;
        let cascade = Cascade::build(k, TORNADO_A, 2).unwrap();
        let src = random_source(k, 64, 2);
        let enc = encode_all(&cascade, &src);
        let trials = 8;
        let mut total_overhead = 0.0;
        for t in 0..trials {
            let mut order: Vec<usize> = (0..cascade.n()).collect();
            let mut rng = ChaCha8Rng::seed_from_u64(3 + t);
            order.shuffle(&mut rng);
            let mut dec = PayloadDecoder::new(&cascade);
            let mut used = None;
            for (count, &i) in order.iter().enumerate() {
                if dec.add_packet(i, enc[i].clone()).unwrap() == AddOutcome::Complete {
                    used = Some(count + 1);
                    break;
                }
            }
            let used = used.expect("the full encoding must always decode");
            assert_eq!(dec.take_source().unwrap(), src);
            // Must finish well before the whole encoding has been consumed.
            assert!(
                used < cascade.n(),
                "needed {used} of {} packets",
                cascade.n()
            );
            total_overhead += used as f64 / k as f64 - 1.0;
        }
        // Individual trials fluctuate at this small k, but the average must
        // stay close to the calibrated band (≈ 7 % at k = 1000).
        let mean = total_overhead / trials as f64;
        assert!(mean < 0.2, "unreasonable mean overhead {mean}");
    }

    #[test]
    fn duplicates_are_reported_and_ignored() {
        let cascade = Cascade::build(80, TORNADO_A, 4).unwrap();
        let src = random_source(80, 16, 4);
        let enc = encode_all(&cascade, &src);
        let mut dec = PayloadDecoder::new(&cascade);
        assert_eq!(
            dec.add_packet(5, enc[5].clone()).unwrap(),
            AddOutcome::Accepted
        );
        assert_eq!(
            dec.add_packet(5, enc[5].clone()).unwrap(),
            AddOutcome::Duplicate
        );
        assert_eq!(dec.received_distinct(), 1);
        assert_eq!(dec.received_total(), 2);
    }

    #[test]
    fn add_packet_ref_matches_add_packet() {
        let cascade = Cascade::build(300, TORNADO_A, 12).unwrap();
        let src = random_source(300, 24, 12);
        let enc = encode_all(&cascade, &src);
        let mut by_value = PayloadDecoder::new(&cascade);
        let mut by_ref = PayloadDecoder::new(&cascade);
        for (i, p) in enc.iter().enumerate().rev() {
            let a = by_value.add_packet(i, p.clone()).unwrap();
            let b = by_ref.add_packet_ref(i, p).unwrap();
            assert_eq!(a, b, "packet {i}");
            // Duplicates must also agree (and stay allocation-free by ref).
            assert_eq!(
                by_value.add_packet(i, p.clone()).unwrap(),
                by_ref.add_packet_ref(i, p).unwrap()
            );
            if a == AddOutcome::Complete {
                break;
            }
        }
        assert_eq!(by_value.is_complete(), by_ref.is_complete());
        assert_eq!(by_value.take_source(), by_ref.take_source());
        assert_eq!(by_value.received_total(), by_ref.received_total());
    }

    #[test]
    fn out_of_range_index_is_an_error() {
        let cascade = Cascade::build(10, TORNADO_A, 5).unwrap();
        let mut dec = PayloadDecoder::new(&cascade);
        assert!(dec.add_packet(999, vec![0u8; 4]).is_err());
    }

    #[test]
    fn source_is_none_until_complete_and_moves_out_once() {
        let cascade = Cascade::build(50, TORNADO_A, 6).unwrap();
        let src = random_source(50, 8, 6);
        let enc = encode_all(&cascade, &src);
        let mut dec = PayloadDecoder::new(&cascade);
        dec.add_packet(0, enc[0].clone()).unwrap();
        assert!(dec.take_source().is_none());
        assert!(!dec.is_complete());
        for (i, p) in enc.iter().enumerate().skip(1) {
            dec.add_packet(i, p.clone()).unwrap();
        }
        assert_eq!(dec.take_source().unwrap(), src);
        // The packets left the decoder: it stays complete, hands out
        // nothing more, and treats every further packet as a duplicate.
        assert!(dec.take_source().is_none());
        assert_eq!(
            dec.add_packet(0, enc[0].clone()).unwrap(),
            AddOutcome::Duplicate
        );
        assert!(dec.is_complete());
    }

    #[test]
    fn statistical_mode_batch_decode() {
        // The client mode chosen in Section 7.2: buffer a batch, decode once.
        let k = 500;
        let cascade = Cascade::build(k, TORNADO_A, 7).unwrap();
        let src = random_source(k, 48, 7);
        let enc = encode_all(&cascade, &src);
        let mut order: Vec<usize> = (0..cascade.n()).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        order.shuffle(&mut rng);
        // Take 1.5k packets in one batch — comfortably above the expected
        // overhead at this small k, so a single batch must always suffice.
        let batch: Vec<(usize, Vec<u8>)> = order[..(k * 3 / 2)]
            .iter()
            .map(|&i| (i, enc[i].clone()))
            .collect();
        let mut dec = PayloadDecoder::new(&cascade);
        assert!(dec.add_packets(batch).unwrap());
        assert_eq!(dec.take_source().unwrap(), src);
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "large-k statistical sweep; intractable under the Miri interpreter"
    )]
    fn symbolic_and_payload_decoders_agree() {
        let k = 800;
        let cascade = Cascade::build(k, TORNADO_A, 9).unwrap();
        let src = random_source(k, 24, 9);
        let enc = encode_all(&cascade, &src);
        for trial in 0..5u64 {
            let mut order: Vec<usize> = (0..cascade.n()).collect();
            let mut rng = ChaCha8Rng::seed_from_u64(100 + trial);
            order.shuffle(&mut rng);
            let mut sym = SymbolicDecoder::new(&cascade);
            let mut pay = PayloadDecoder::new(&cascade);
            for &i in &order {
                let s = sym.add_packet(i, Mark).unwrap();
                let p = pay.add_packet(i, enc[i].clone()).unwrap();
                assert_eq!(s, p, "decoders disagree at packet {i} of trial {trial}");
                if s == AddOutcome::Complete {
                    break;
                }
            }
            assert_eq!(sym.is_complete(), pay.is_complete());
            assert_eq!(sym.received_distinct(), pay.received_distinct());
            assert_eq!(pay.take_source().unwrap(), src);
        }
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "large-k statistical sweep; intractable under the Miri interpreter"
    )]
    fn both_profiles_stay_in_their_calibrated_overhead_band() {
        // Guards the calibration recorded in EXPERIMENTS.md: at a 8 MB-class
        // file both profiles must keep the mean reception overhead near 10 %
        // and never blow past 25 % (the long stopping-set tails that the
        // low-degree conditioning in `graph.rs` exists to prevent).
        let k = 8264;
        let trials = 10u64;
        for profile in [TORNADO_A, TORNADO_B] {
            let cascade = Cascade::build(k, profile, 10).unwrap();
            let mut total = 0.0f64;
            let mut worst = 0.0f64;
            for t in 0..trials {
                let mut order: Vec<usize> = (0..cascade.n()).collect();
                let mut rng = ChaCha8Rng::seed_from_u64(1000 + t);
                order.shuffle(&mut rng);
                let mut dec = SymbolicDecoder::new(&cascade);
                let used = dec
                    .run_until_complete(order)
                    .expect("full encoding decodes");
                let eps = used as f64 / k as f64 - 1.0;
                total += eps;
                worst = worst.max(eps);
            }
            let mean = total / trials as f64;
            assert!(mean < 0.15, "{}: mean overhead {mean}", profile.name);
            assert!(worst < 0.25, "{}: worst overhead {worst}", profile.name);
        }
    }

    #[test]
    fn small_pure_rs_cascade_has_zero_overhead() {
        // Below the cascade threshold the code is a single MDS block, so any
        // k packets decode with zero overhead.
        let k = 60;
        let cascade = Cascade::build(k, TORNADO_A, 11).unwrap();
        assert_eq!(cascade.num_levels(), 1);
        let src = random_source(k, 20, 11);
        let enc = encode_all(&cascade, &src);
        let rx: Vec<usize> = (k..2 * k).collect();
        let mut dec = PayloadDecoder::new(&cascade);
        for i in rx {
            dec.add_packet(i, enc[i].clone()).unwrap();
        }
        assert!(dec.is_complete());
        assert_eq!(dec.take_source().unwrap(), src);
        assert_eq!(dec.received_distinct(), k);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Any random reception order of the full encoding decodes, and the
        /// payload decoder reproduces the source exactly.
        #[test]
        fn prop_random_orders_decode(
            k in 20usize..400,
            len in 1usize..32,
            seed in any::<u64>(),
        ) {
            let profile = TornadoProfile::tornado_a();
            let cascade = Cascade::build(k, profile, seed).unwrap();
            let src = random_source(k, len * 2, seed ^ 1); // even length for GF(2^16) safety
            let enc = encode_all(&cascade, &src);
            let mut order: Vec<usize> = (0..cascade.n()).collect();
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 2);
            order.shuffle(&mut rng);
            let mut dec = PayloadDecoder::new(&cascade);
            for &i in &order {
                if dec.add_packet(i, enc[i].clone()).unwrap() == AddOutcome::Complete {
                    break;
                }
            }
            prop_assert!(dec.is_complete());
            prop_assert_eq!(dec.take_source().unwrap(), src);
        }
    }
}
