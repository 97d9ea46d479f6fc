//! The traced run: the same sessions and transports as the untraced run,
//! driven from the benchmark's own single-threaded loop instead of the
//! `Driver`, with a span around every call into a layer.
//!
//! The loop follows the order of `EventLoop::step`: each server ticks by its
//! pacing quantum, then each receiver is drained.  The codec layers run
//! inside the session calls, where the benchmark cannot open spans; their
//! rows come from [`replay`], which feeds the packets each receiver of the
//! first traced wave accepted back into the codec's public functions.

use crate::driven::{free_port_range, invalid, step_budget, wave_receivers, Plan, TRIES};
use crate::trace::{Name, Tracer, NO_DOWNLOAD};
use crate::workload::{build_servers, Inputs, Servers, Spec};
use bytes::Bytes;
use df_core::{PacketizedFile, RaptorCode, TornadoCode, TORNADO_A};
use df_proto::{
    seed_from_words, ClientEvent, ClientSession, ControlInfo, DataPacket, FountainServer,
    RatelessMode, RatelessReceiver, RatelessSender, ServerSession, SimMulticast, Transport,
    UdpMulticastTransport,
};
use std::hint::black_box;
use std::io;
use std::time::{Duration, Instant};

/// Spans kept in memory for writing out (all spans are summed).
pub const KEPT_SPANS: usize = 200_000;

/// The datagrams one receiver of the first traced wave accepted (new
/// packets, in arrival order).
#[derive(Debug)]
pub struct Recorded {
    /// The file it downloaded.
    pub file: usize,
    /// The accepted datagrams.
    pub accepted: Vec<Bytes>,
}

/// Everything the traced run measured.
pub struct TracedRun {
    /// The spans.
    pub tracer: Tracer,
    /// Wall time from the first wave's start to the last wave's end, s.
    pub wall_s: f64,
    /// Bytes of verified files.
    pub verified_bytes: u64,
    /// Downloads started.
    pub attempted: usize,
    /// Verified downloads.
    pub downloads: usize,
    /// Downloads that failed verification.
    pub mismatched: usize,
    /// Downloads whose every session was still running when its wave's
    /// budget ran out.
    pub stalled: usize,
    /// Sessions that stalled and were followed by a fresh one.
    pub restarts: usize,
    /// `handle_datagram` calls that returned `Rejected`.
    pub rejected: u64,
    /// `handle_datagram` calls that returned `Ignored`.
    pub ignored: u64,
    /// The first wave's receivers, for [`replay`].
    pub recorded: Vec<Recorded>,
    /// Control information per file.
    pub infos: Vec<ControlInfo>,
}

/// Either kind of server the loop ticks.
enum Carousel {
    Session(Box<ServerSession>),
    Fountain(FountainServer),
}

impl Carousel {
    /// The next datagram, advancing rounds as the driver does.
    fn poll_transmit(&mut self) -> Option<(u32, Bytes)> {
        match self {
            Carousel::Session(s) => {
                if s.round_complete() {
                    s.advance_round();
                }
                s.poll_transmit()
            }
            Carousel::Fountain(f) => f.poll_transmit(),
        }
    }
}

/// Span names of one transport kind.
struct Names {
    send: Name,
    recv: Name,
    recv_empty: Name,
    membership: Name,
}

const SIM: Names = Names {
    send: Name::SimSend,
    recv: Name::SimRecv,
    recv_empty: Name::SimRecvEmpty,
    membership: Name::SimMembership,
};

const UDP: Names = Names {
    send: Name::UdpSend,
    recv: Name::UdpRecv,
    recv_empty: Name::UdpRecvEmpty,
    membership: Name::UdpMembership,
};

/// Run `spec` traced under `plan`.
///
/// # Errors
///
/// Fails if a session cannot be built or a socket cannot be opened.
pub fn run(spec: &Spec, inputs: &Inputs, plan: &Plan) -> io::Result<TracedRun> {
    let built = build_servers(spec, inputs).map_err(invalid)?;
    let infos = built.infos;
    match built.servers {
        Servers::Sessions(sessions) => {
            let nets: Vec<SimMulticast> = inputs
                .channel_seeds
                .iter()
                .map(|&s| SimMulticast::new(s))
                .collect();
            let servers = sessions
                .into_iter()
                .zip(&nets)
                .map(|(s, net)| (Carousel::Session(Box::new(s)), net.endpoint(0.0)))
                .collect();
            let endpoint = |file: usize, loss: f64| Ok(nets[file].endpoint(loss));
            Looped::new(spec, inputs, infos, plan).run(servers, endpoint, &SIM)
        }
        Servers::Fountain(server) => {
            let groups = u16::try_from(spec.files() * spec.layers).expect("a few dozen groups");
            let base_port = free_port_range(groups)?;
            let servers = vec![(
                Carousel::Fountain(server),
                UdpMulticastTransport::loopback(base_port)?,
            )];
            let endpoint = |_: usize, _: f64| UdpMulticastTransport::loopback(base_port);
            Looped::new(spec, inputs, infos, plan).run(servers, endpoint, &UDP)
        }
    }
}

/// One receiver of the traced loop.
struct Receiver<T> {
    id: u32,
    file: usize,
    loss: f64,
    /// Sessions started for this download, this one included.
    tries: usize,
    session: ClientSession,
    /// Dropped (closing its sockets) once the download completes.
    transport: Option<T>,
    /// Accepted datagrams, kept for the first wave only.
    accepted: Option<Vec<Bytes>>,
}

/// The traced loop's state.
struct Looped<'a> {
    spec: &'a Spec,
    inputs: &'a Inputs,
    plan: &'a Plan,
    out: TracedRun,
    next_id: u32,
}

impl<'a> Looped<'a> {
    fn new(spec: &'a Spec, inputs: &'a Inputs, infos: Vec<ControlInfo>, plan: &'a Plan) -> Self {
        Looped {
            spec,
            inputs,
            plan,
            out: TracedRun {
                tracer: Tracer::new(KEPT_SPANS),
                wall_s: 0.0,
                verified_bytes: 0,
                attempted: 0,
                downloads: 0,
                mismatched: 0,
                stalled: 0,
                restarts: 0,
                rejected: 0,
                ignored: 0,
                recorded: Vec::new(),
                infos,
            },
            next_id: 0,
        }
    }

    fn run<T: Transport>(
        mut self,
        mut servers: Vec<(Carousel, T)>,
        mut endpoint: impl FnMut(usize, f64) -> io::Result<T>,
        names: &Names,
    ) -> io::Result<TracedRun> {
        let budget = step_budget(self.spec, &self.out.infos);
        let receivers = wave_receivers(self.spec);
        let started = Instant::now();
        let mut waves = 0;
        // (file, loss, tries) of the downloads whose session stalled; as on
        // the driver, they join again with fresh sessions in the next wave.
        let mut retry: Vec<(usize, f64, usize)> = Vec::new();
        loop {
            let fresh = if self.plan.more(started, waves, self.out.downloads) {
                receivers.len()
            } else if retry.is_empty() {
                break;
            } else {
                0
            };
            let new = receivers[..fresh]
                .iter()
                .map(|&(file, loss)| (file, loss, 1));
            let joining: Vec<_> = retry.drain(..).chain(new).collect();
            let t = &mut self.out.tracer;
            t.enter(Name::Wave, NO_DOWNLOAD);
            let mut wave = Vec::with_capacity(joining.len());
            for (file, loss, tries) in joining {
                let id = self.next_id;
                self.next_id += 1;
                let info = self.out.infos[file].clone();
                let session = t.leaf(Name::ClientNew, id, || ClientSession::new(info));
                let session = session.map_err(invalid)?;
                t.enter(names.membership, id);
                let joined = endpoint(file, loss).and_then(|mut transport| {
                    for group in session.subscribed_groups() {
                        transport.join(group)?;
                    }
                    Ok(transport)
                });
                t.exit();
                wave.push(Receiver {
                    id,
                    file,
                    loss,
                    tries,
                    session,
                    transport: Some(joined?),
                    accepted: (waves == 0).then(Vec::new),
                });
            }
            self.out.attempted += fresh;
            let mut live = wave.len();
            let mut steps = 0;
            while live > 0 && steps < budget {
                for (server, transport) in &mut servers {
                    self.tick(server, transport, names);
                }
                for receiver in &mut wave {
                    if self.drain(receiver, names) {
                        live -= 1;
                    }
                }
                steps += 1;
            }
            for receiver in &mut wave {
                if let Some(transport) = receiver.transport.take() {
                    // Out of budget: the session leaves the carousel as a
                    // finished receiver would.
                    if receiver.tries < TRIES {
                        self.out.restarts += 1;
                        retry.push((receiver.file, receiver.loss, receiver.tries + 1));
                    } else {
                        self.out.stalled += 1;
                    }
                    self.release(&receiver.session, receiver.id, transport, names);
                }
            }
            for receiver in wave {
                if let Some(accepted) = receiver.accepted {
                    self.out.recorded.push(Recorded {
                        file: receiver.file,
                        accepted,
                    });
                }
            }
            self.out.tracer.exit();
            waves += 1;
        }
        self.out.wall_s = started.elapsed().as_secs_f64();
        Ok(self.out)
    }

    /// One server tick of one pacing quantum.
    fn tick<T: Transport>(&mut self, server: &mut Carousel, transport: &mut T, names: &Names) {
        let t = &mut self.out.tracer;
        t.enter(Name::Tick, NO_DOWNLOAD);
        for _ in 0..self.spec.datagrams_per_tick {
            match t.leaf(Name::ServerPoll, NO_DOWNLOAD, || server.poll_transmit()) {
                Some((group, datagram)) => {
                    t.leaf(names.send, NO_DOWNLOAD, || transport.send(group, datagram));
                }
                None => break,
            }
        }
        t.exit();
    }

    /// Drain one receiver; true when this drain completed its download.
    fn drain<T: Transport>(&mut self, r: &mut Receiver<T>, names: &Names) -> bool {
        let Some(transport) = r.transport.as_mut() else {
            return false;
        };
        let t = &mut self.out.tracer;
        t.enter(Name::Drain, r.id);
        let mut completed = false;
        loop {
            t.enter(names.recv, r.id);
            let got = transport.try_recv();
            t.exit_as(if got.is_some() {
                names.recv
            } else {
                names.recv_empty
            });
            let Some((_group, datagram)) = got else {
                break;
            };
            let kept = r.accepted.as_ref().map(|_| datagram.clone());
            t.enter(Name::ClientHandle, r.id);
            let event = r.session.handle_datagram(datagram);
            t.exit_as(match event {
                ClientEvent::AttemptFailed | ClientEvent::Complete => Name::ClientAttempt,
                _ => Name::ClientHandle,
            });
            match event {
                ClientEvent::Rejected => self.out.rejected += 1,
                ClientEvent::Ignored => self.out.ignored += 1,
                ClientEvent::Buffered | ClientEvent::AttemptFailed | ClientEvent::Complete => {
                    if let (Some(list), Some(d)) = (r.accepted.as_mut(), kept) {
                        list.push(d);
                    }
                }
                ClientEvent::Join { group } => {
                    // A failed join reads as loss, as on the driver.
                    let _ = t.leaf(names.membership, r.id, || transport.join(group));
                }
                ClientEvent::Leave { group } => {
                    t.leaf(names.membership, r.id, || transport.leave(group));
                }
                _ => {}
            }
            if event == ClientEvent::Complete {
                completed = true;
                break;
            }
        }
        t.exit();
        if completed {
            let transport = r.transport.take().expect("checked above");
            self.release(&r.session, r.id, transport, names);
            let expected = &self.inputs.files[r.file];
            if r.session.file() == Some(expected.as_slice()) {
                self.out.verified_bytes += expected.len() as u64;
                self.out.downloads += 1;
            } else {
                self.out.mismatched += 1;
            }
        }
        completed
    }

    /// A receiver leaves the carousel and closes its sockets.
    fn release<T: Transport>(
        &mut self,
        session: &ClientSession,
        id: u32,
        mut transport: T,
        names: &Names,
    ) {
        let groups = session.subscribed_groups();
        self.out.tracer.leaf(names.membership, id, || {
            for group in groups {
                transport.leave(group);
            }
            drop(transport);
        });
    }
}

/// Per-call costs of the layers the session calls hide, from replaying the
/// traced run's packets into their public functions.
#[derive(Debug, Clone, Default)]
pub struct Replays {
    /// Tornado decode of each recorded carousel download, ms.
    pub tornado_decode_ms: Vec<f64>,
    /// LT `RatelessReceiver::add` calls that did not finish the decode, ns.
    pub lt_add_ns: f64,
    /// Raptor `RatelessReceiver::add` calls that did not finish the decode, ns.
    pub raptor_add_ns: f64,
    /// The LT `add` call that finished each decode, ms.
    pub lt_finish_ms: Vec<f64>,
    /// The Raptor `add` call that finished each decode, ms.
    pub raptor_finish_ms: Vec<f64>,
    /// LT `RatelessSender::poll` per symbol, ns.
    pub lt_poll_ns: f64,
    /// Raptor `RatelessSender::poll` per symbol, ns.
    pub raptor_poll_ns: f64,
    /// `DataPacket::from_bytes` per datagram, ns.
    pub wire_decode_ns: f64,
    /// `DataPacket::frame` per datagram, ns.
    pub wire_frame_ns: f64,
}

/// Wire calls each wire row averages over (the recorded datagrams are
/// cycled until there are this many).
const WIRE_CALLS: usize = 200_000;

/// Replay the traced run's recorded packets into the codec and wire layers.
///
/// # Errors
///
/// Propagates code construction errors.
pub fn replay(run: &TracedRun, inputs: &Inputs) -> df_core::Result<Replays> {
    let mut out = Replays::default();
    let (mut lt_add, mut raptor_add) = ((0.0, 0u64), (0.0, 0u64));
    for rec in &run.recorded {
        let info = &run.infos[rec.file];
        let packets: Vec<DataPacket> = rec
            .accepted
            .iter()
            .filter_map(|d| DataPacket::from_bytes(d.clone()))
            .collect();
        match info.rateless {
            RatelessMode::Off => {
                let code = TornadoCode::with_profile(info.k, TORNADO_A, info.code_seed)?;
                let started = Instant::now();
                let mut decoder = code.decoder();
                for p in &packets {
                    let index = p.header.packet_index as usize;
                    if decoder.add_packet(index, p.payload.to_vec())?
                        == df_core::AddOutcome::Complete
                    {
                        break;
                    }
                }
                if decoder.is_complete() {
                    out.tornado_decode_ms
                        .push(started.elapsed().as_secs_f64() * 1e3);
                }
            }
            mode => {
                let mut receiver = match mode {
                    RatelessMode::Lt => {
                        RatelessReceiver::for_lt(info.k, info.packet_size, info.code_seed)?
                    }
                    _ => RatelessReceiver::for_raptor(
                        &RaptorCode::new(info.k, info.code_seed)?,
                        info.packet_size,
                    ),
                };
                let (adds, finishes) = match mode {
                    RatelessMode::Lt => (&mut lt_add, &mut out.lt_finish_ms),
                    _ => (&mut raptor_add, &mut out.raptor_finish_ms),
                };
                for p in &packets {
                    let seed = seed_from_words(p.header.packet_index, p.header.serial);
                    let started = Instant::now();
                    let outcome = receiver.add(seed, p.payload.to_vec());
                    let took = started.elapsed();
                    if outcome == df_core::AddOutcome::Complete {
                        finishes.push(took.as_secs_f64() * 1e3);
                        break;
                    }
                    adds.0 += took.as_secs_f64() * 1e9;
                    adds.1 += 1;
                }
            }
        }
    }
    out.lt_add_ns = crate::host::ratio(lt_add.0, lt_add.1 as f64);
    out.raptor_add_ns = crate::host::ratio(raptor_add.0, raptor_add.1 as f64);
    for (file, info) in run.infos.iter().enumerate() {
        let source = PacketizedFile::split(&inputs.files[file], info.packet_size)?;
        let sender = match info.rateless {
            RatelessMode::Lt => RatelessSender::for_lt(source.packets().to_vec(), info.code_seed)?,
            RatelessMode::Raptor => RatelessSender::for_raptor(
                &RaptorCode::new(info.k, info.code_seed)?,
                source.packets(),
            )?,
            RatelessMode::Off => continue,
        };
        let ns = poll_ns(sender, 4 * info.k);
        match info.rateless {
            RatelessMode::Lt => out.lt_poll_ns = ns,
            _ => out.raptor_poll_ns = ns,
        }
    }
    let datagrams: Vec<&Bytes> = run.recorded.iter().flat_map(|r| &r.accepted).collect();
    if !datagrams.is_empty() {
        let calls = WIRE_CALLS.max(datagrams.len());
        let started = Instant::now();
        for d in datagrams.iter().cycle().take(calls) {
            black_box(DataPacket::from_bytes(black_box((*d).clone())));
        }
        out.wire_decode_ns = started.elapsed().as_secs_f64() * 1e9 / calls as f64;
        let parsed: Vec<DataPacket> = datagrams
            .iter()
            .filter_map(|d| DataPacket::from_bytes((*d).clone()))
            .collect();
        let started = Instant::now();
        for p in parsed.iter().cycle().take(calls) {
            black_box(DataPacket::frame(
                black_box(&p.header),
                black_box(&p.payload),
            ));
        }
        out.wire_frame_ns = started.elapsed().as_secs_f64() * 1e9 / calls as f64;
    }
    Ok(out)
}

/// Mean `RatelessSender::poll` time over `symbols` symbols, ns.
fn poll_ns(mut sender: RatelessSender, symbols: usize) -> f64 {
    let started = Instant::now();
    for _ in 0..symbols {
        if sender.round_complete() {
            sender.advance_round();
        }
        black_box(sender.poll());
    }
    started.elapsed().as_secs_f64() * 1e9 / symbols.max(1) as f64
}

/// Throughput of the GF kernels at `packet_size`: (`xor_slice`,
/// GF(2^16) `mul_acc_slice`), GB/s of destination bytes.
pub fn gf_rates(packet_size: usize) -> (f64, f64) {
    const BUFFERS: usize = 64;
    const PASS: Duration = Duration::from_millis(30);
    let len = packet_size & !1;
    let src: Vec<Vec<u8>> = (0..BUFFERS)
        .map(|i| (0..len).map(|j| (i * 31 + j * 7) as u8).collect())
        .collect();
    let mut dst = vec![vec![0u8; len]; BUFFERS];
    let mut rate = |f: &mut dyn FnMut(&mut [u8], &[u8])| {
        let started = Instant::now();
        let mut bytes = 0usize;
        while started.elapsed() < PASS {
            for (d, s) in dst.iter_mut().zip(&src) {
                f(d, s);
            }
            bytes += BUFFERS * len;
        }
        black_box(&dst);
        bytes as f64 / started.elapsed().as_secs_f64() / 1e9
    };
    let xor = rate(&mut |d, s| df_gf::field::xor_slice(black_box(d), black_box(s)));
    let mul = rate(&mut |d, s| {
        df_gf::kernels::gf16::mul_acc_slice(black_box(0x1d2b), black_box(d), black_box(s))
    });
    (xor, mul)
}

/// Wall time of encoding every Tornado file of the workload, s (0 for the
/// rateless workload).
///
/// # Errors
///
/// Propagates code construction errors.
pub fn tornado_encode_s(spec: &Spec, inputs: &Inputs) -> df_core::Result<f64> {
    if spec.workload == crate::workload::Workload::RatelessSwarm {
        return Ok(0.0);
    }
    let mut total = Duration::ZERO;
    for (file, &seed) in inputs.files.iter().zip(&inputs.code_seeds) {
        let source = PacketizedFile::split(file, spec.packet_size)?;
        let code = TornadoCode::with_profile(source.num_packets(), TORNADO_A, seed)?;
        let started = Instant::now();
        black_box(code.encode(source.packets())?);
        total += started.elapsed();
    }
    Ok(total.as_secs_f64())
}
