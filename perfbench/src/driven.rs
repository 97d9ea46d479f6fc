//! The untraced run: each workload on the public `Driver` API, every
//! download checked byte for byte against its generated file.
//!
//! A run is a series of waves.  In each wave a fixed set of receivers joins
//! the carousel, which has been running since set-up; the next wave starts
//! when the previous one has finished, so later waves join mid-cycle.

use crate::host::{self, UdpCounters};
use crate::workload::{build_servers, receiver_loss, Inputs, Servers, Spec};
use df_proto::{
    ClientSession, ControlInfo, Driver, DriverConfig, DriverEvent, EventLoopStats, Pacing,
    SessionHandle, SimEndpoint, SimMulticast, Transport, UdpMulticastTransport,
};
use std::collections::BTreeMap;
use std::io;
use std::net::{Ipv4Addr, UdpSocket};
use std::thread;
use std::time::{Duration, Instant};

/// Set-ups timed after each wave on the stepped driver, whose worker idles
/// between steps.  A set-up takes a few milliseconds, and a shared host's
/// speed can shift for seconds at a time, so these sample set-up across the
/// whole run, as the waves sample goodput.  They stay outside the measured
/// window.
const SETUPS_PER_WAVE: usize = 4;

/// The paced driver works between waves, so on it set-ups are timed in two
/// batches instead, one before the waves and one after, each this long.
const SETUP_BATCH: Duration = Duration::from_millis(500);

/// No run measures longer than this, whatever else it asks for.
const HARD_CAP: Duration = Duration::from_secs(120);

/// A wave on the paced driver that has not finished within this is stalled
/// (its downloads normally take about 0.1 s).
const PACED_WAVE_BUDGET: Duration = Duration::from_secs(2);

/// Sessions a receiver may start for one download.  A receiver whose session
/// stalls joins again with a fresh session in the next wave, as an
/// application with a timeout would; the download fails only when its last
/// session stalls too.
pub const TRIES: usize = 3;

/// How long a run goes on.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Measure at least this long.
    pub seconds: f64,
    /// And collect at least this many downloads.
    pub min_downloads: usize,
    /// Run exactly this many waves instead (the determinism checks).
    pub waves: Option<usize>,
}

impl Plan {
    /// The wave after which the peak resident set is read: the first at
    /// which `min_downloads` can have been reached, whatever the run's
    /// length.
    fn rss_wave(&self, spec: &Spec) -> usize {
        self.min_downloads.div_ceil(spec.wave_size()).max(1)
    }

    /// True while another wave should start.
    pub fn more(&self, started: Instant, waves: usize, downloads: usize) -> bool {
        if let Some(n) = self.waves {
            return waves < n;
        }
        let elapsed = started.elapsed();
        waves == 0
            || ((elapsed.as_secs_f64() < self.seconds || downloads < self.min_downloads)
                && elapsed < HARD_CAP)
    }
}

/// One verified download.
#[derive(Debug, Clone, Copy)]
pub struct Download {
    /// Join to verified file, ms.
    pub ms: f64,
    /// Driver steps from the wave's start to the completion (0 when paced).
    pub steps: usize,
    /// Packets the receiver took in, duplicates included.
    pub received: usize,
    /// Distinct packets among them.
    pub distinct: usize,
    /// Source packets of the file.
    pub k: usize,
    /// Decode attempts of the statistical strategy.
    pub attempts: usize,
}

/// Everything an untraced run measured.
#[derive(Debug, Default)]
pub struct DrivenRun {
    /// Wall time of each set-up (servers built and encoded, driver built and
    /// handed the servers), s.
    pub setup_s: Vec<f64>,
    /// Server construction part of each set-up, s.
    pub server_new_s: Vec<f64>,
    /// The verified downloads.
    pub downloads: Vec<Download>,
    /// Join to giving up, ms, for each stalled download.  A failed download
    /// misses any latency limit, so these join the latency percentiles.
    pub given_up_ms: Vec<f64>,
    /// Downloads started.
    pub attempted: usize,
    /// Downloads that failed verification.
    pub mismatched: usize,
    /// Downloads whose every session stalled past its budget, or that could
    /// not be added.
    pub stalled: usize,
    /// Sessions that stalled and were followed by a fresh one.
    pub restarts: usize,
    /// Times the driver was rebuilt to drop stalled receivers.
    pub rebuilds: usize,
    /// Waves run.
    pub waves: usize,
    /// Wall time from the first wave's start to the last wave's end, s.
    pub window_s: f64,
    /// Process CPU time over the window, s.
    pub cpu_s: f64,
    /// Bytes of verified files.
    pub verified_bytes: u64,
    /// Wall time of each `Driver::step` call, µs (stepped driver only).
    pub step_us: Vec<f64>,
    /// The driver's lifetime counters, summed over rebuilds.
    pub stats: EventLoopStats,
    /// Kernel receive-buffer drops over the window (UDP workload only).
    pub udp_drop_ratio: f64,
    /// Packets sent on non-loopback interfaces during the window.
    pub non_loopback_tx: u64,
    /// Peak resident set (`VmHWM`, MB) at the end of the first wave at which
    /// the plan's `min_downloads` can have been reached, so that it does not
    /// depend on how many waves the run fits.
    pub peak_rss_mb: f64,
}

impl DrivenRun {
    /// Downloads that failed in any way.
    pub fn failed(&self) -> usize {
        self.mismatched + self.stalled
    }
}

/// Run `spec` on the driver API under `plan`.
///
/// # Errors
///
/// Fails if a session cannot be built, a socket cannot be opened, or a
/// driver worker exits.
pub fn run(spec: &Spec, inputs: &Inputs, plan: &Plan) -> io::Result<DrivenRun> {
    if spec.workload.is_sim() {
        let settle = |rig: &mut Rig<SimEndpoint>, waves: &mut Waves| {
            let budget = step_budget(spec, &rig.infos);
            while !waves.live.is_empty() && waves.steps < budget {
                let t = Instant::now();
                rig.driver.step(1)?;
                waves.run.step_us.push(t.elapsed().as_secs_f64() * 1e6);
                waves.steps += 1;
                let events = rig.driver.poll_events();
                waves.absorb(events);
            }
            Ok(())
        };
        let transport =
            |rig: &Rig<SimEndpoint>, file: usize, loss: f64| Ok(rig.nets[file].endpoint(loss));
        let set_up = |rebuilds| set_up_sim(spec, inputs, rebuilds);
        Waves::new(spec, inputs).measure(plan, 0, set_up, transport, settle)
    } else {
        let groups = u16::try_from(spec.files() * spec.layers).expect("a few dozen groups");
        let base_port = free_port_range(groups)?;
        let settle = |rig: &mut Rig<UdpMulticastTransport>, waves: &mut Waves| {
            let deadline = waves.joined + PACED_WAVE_BUDGET;
            while !waves.live.is_empty() && Instant::now() < deadline {
                thread::sleep(Duration::from_micros(500));
                let events = rig.driver.poll_events();
                waves.absorb(events);
            }
            Ok(())
        };
        let transport = |_: &Rig<UdpMulticastTransport>, _: usize, _: f64| {
            UdpMulticastTransport::loopback(base_port)
        };
        let udp_before = UdpCounters::read();
        let set_up = |_| set_up_udp(spec, inputs, base_port);
        let mut run = Waves::new(spec, inputs).measure(plan, 1, set_up, transport, settle)?;
        run.udp_drop_ratio = UdpCounters::read().drop_ratio_since(&udp_before);
        Ok(run)
    }
}

/// A session construction error as an I/O error.
pub(crate) fn invalid(e: df_core::TornadoError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// The (file, loss) of every receiver of one wave.
pub fn wave_receivers(spec: &Spec) -> Vec<(usize, f64)> {
    (0..spec.files())
        .flat_map(|f| (0..spec.receivers).map(move |r| (f, receiver_loss(r))))
        .collect()
}

fn pacing(spec: &Spec) -> Pacing {
    Pacing::new(Duration::from_millis(1), spec.datagrams_per_tick)
}

/// Most steps a stepped wave may take: enough for every server to send
/// each of its encodings 30 times over.
pub fn step_budget(spec: &Spec, infos: &[ControlInfo]) -> usize {
    let n = if spec.workload.is_sim() {
        infos.iter().map(|i| i.n).max().unwrap_or(1)
    } else {
        // One server interleaves every session's carousel.
        infos.iter().map(|i| i.n).sum()
    };
    30 * n / spec.datagrams_per_tick + 100
}

/// A driver with the workload's servers registered, the simulated channels
/// its receivers join (none for UDP), and the control information they join
/// with.
struct Rig<T: Transport + Send + 'static> {
    driver: Driver<T>,
    nets: Vec<SimMulticast>,
    infos: Vec<ControlInfo>,
    /// Wall time of building the servers, encoding included.
    server_new: Duration,
}

/// The sim rig after `rebuilds` rebuilds.  Each rebuild draws new channel
/// loss seeds: the fresh carousel starts from its first round again, and
/// with the old seeds the next wave would replay the stalled one exactly.
fn set_up_sim(spec: &Spec, inputs: &Inputs, rebuilds: u64) -> io::Result<Rig<SimEndpoint>> {
    let built = build_servers(spec, inputs).map_err(invalid)?;
    let Servers::Sessions(sessions) = built.servers else {
        unreachable!("sim workloads serve plain sessions");
    };
    let mut driver = DriverConfig::new()
        .shards(1)
        .stepped(true)
        .pacing(pacing(spec))
        .build::<SimEndpoint>();
    let mut nets = Vec::new();
    for (session, &seed) in sessions.into_iter().zip(&inputs.channel_seeds) {
        let net = SimMulticast::new(seed ^ rebuilds.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        driver.add_server_session_on(0, session, net.endpoint(0.0), pacing(spec))?;
        nets.push(net);
    }
    Ok(Rig {
        driver,
        nets,
        infos: built.infos,
        server_new: built.new_time,
    })
}

fn set_up_udp(
    spec: &Spec,
    inputs: &Inputs,
    base_port: u16,
) -> io::Result<Rig<UdpMulticastTransport>> {
    let built = build_servers(spec, inputs).map_err(invalid)?;
    let Servers::Fountain(server) = built.servers else {
        unreachable!("the UDP workload serves one FountainServer");
    };
    let mut driver = DriverConfig::new()
        .shards(2)
        .pacing(pacing(spec))
        .build::<UdpMulticastTransport>();
    let transport = UdpMulticastTransport::loopback(base_port)?;
    driver.add_fountain_server_on(0, server, transport, None, pacing(spec))?;
    Ok(Rig {
        driver,
        nets: Vec::new(),
        infos: built.infos,
        server_new: built.new_time,
    })
}

/// One download in progress.
#[derive(Debug, Clone, Copy)]
struct Joined {
    file: usize,
    loss: f64,
    /// When its first session joined (`None` until it joins).
    since: Option<Instant>,
    /// Steps its earlier sessions took.
    steps: usize,
    /// Sessions started, this one included.
    tries: usize,
}

/// Bookkeeping shared by both drivers' wave loops.
struct Waves<'a> {
    spec: &'a Spec,
    inputs: &'a Inputs,
    run: DrivenRun,
    live: BTreeMap<SessionHandle, Joined>,
    /// Downloads whose session stalled, to join again in the next wave.
    retry: Vec<Joined>,
    /// When the current wave joined.
    joined: Instant,
    /// Driver steps the current wave has taken.
    steps: usize,
}

impl<'a> Waves<'a> {
    fn new(spec: &'a Spec, inputs: &'a Inputs) -> Self {
        Waves {
            spec,
            inputs,
            run: DrivenRun::default(),
            live: BTreeMap::new(),
            retry: Vec::new(),
            joined: Instant::now(),
            steps: 0,
        }
    }

    /// Account for the events drained from the driver.
    fn absorb(&mut self, events: Vec<DriverEvent>) {
        for event in events {
            match event {
                DriverEvent::Completed {
                    handle,
                    stats,
                    session,
                } => {
                    let Some(joined) = self.live.remove(&handle) else {
                        continue;
                    };
                    let expected = &self.inputs.files[joined.file];
                    if session.file() == Some(expected.as_slice()) {
                        self.run.verified_bytes += expected.len() as u64;
                        let since = joined.since.unwrap_or(self.joined);
                        self.run.downloads.push(Download {
                            ms: since.elapsed().as_secs_f64() * 1e3,
                            steps: joined.steps + self.steps,
                            received: stats.received(),
                            distinct: stats.distinct(),
                            k: stats.k(),
                            attempts: stats.decode_attempts(),
                        });
                    } else {
                        self.run.mismatched += 1;
                    }
                }
                DriverEvent::AddFailed { handle, .. } => {
                    if self.live.remove(&handle).is_some() {
                        self.run.stalled += 1;
                    }
                }
                DriverEvent::JoinFailed { .. } => {}
            }
        }
    }

    /// One set-up, timed.
    fn timed_set_up<T: Transport + Send + 'static>(
        &mut self,
        set_up: &mut impl FnMut(u64) -> io::Result<Rig<T>>,
    ) -> io::Result<Rig<T>> {
        let started = Instant::now();
        let rig = set_up(0)?;
        self.run.setup_s.push(started.elapsed().as_secs_f64());
        self.run.server_new_s.push(rig.server_new.as_secs_f64());
        Ok(rig)
    }

    /// Set up one batch, timing each set-up; the last rig is returned and
    /// the others shut down.
    fn set_ups<T: Transport + Send + 'static>(
        &mut self,
        set_up: &mut impl FnMut(u64) -> io::Result<Rig<T>>,
    ) -> io::Result<Rig<T>> {
        let batch = Instant::now();
        let mut rig = self.timed_set_up(set_up)?;
        while batch.elapsed() < SETUP_BATCH {
            // The previous rig's workers would compete with this set-up.
            rig.driver.shutdown()?;
            rig = self.timed_set_up(set_up)?;
        }
        Ok(rig)
    }

    /// Set up, then run waves of receivers on `shard` until `plan` is met:
    /// each wave's receivers get transports from `transport`, and `settle`
    /// drives the driver until the wave has finished or its budget ran out.
    /// Stalled receivers cannot be taken out of a driver, so after a stall
    /// the rig is set up afresh, and the stalled downloads join it with fresh
    /// sessions in the next wave.  Set-ups are timed between the waves on the
    /// stepped driver, and before and after them on the paced one.
    fn measure<T: Transport + Send + 'static>(
        mut self,
        plan: &Plan,
        shard: usize,
        mut set_up: impl FnMut(u64) -> io::Result<Rig<T>>,
        mut transport: impl FnMut(&Rig<T>, usize, f64) -> io::Result<T>,
        mut settle: impl FnMut(&mut Rig<T>, &mut Waves) -> io::Result<()>,
    ) -> io::Result<DrivenRun> {
        let stepped = self.spec.workload.is_sim();
        let mut rig = if stepped {
            self.timed_set_up(&mut set_up)?
        } else {
            self.set_ups(&mut set_up)?
        };
        let receivers = wave_receivers(self.spec);
        let started = Instant::now();
        let cpu_before = host::cpu_seconds();
        let tx_before = host::non_loopback_tx_packets();
        // Time and CPU spent on set-ups between waves, left out of the window.
        let (mut paused, mut paused_cpu) = (Duration::ZERO, 0.0);
        loop {
            let fresh = if plan.more(started + paused, self.run.waves, self.run.downloads.len()) {
                receivers.len()
            } else if self.retry.is_empty() {
                break;
            } else {
                0
            };
            let new = receivers[..fresh].iter().map(|&(file, loss)| Joined {
                file,
                loss,
                since: None,
                steps: 0,
                tries: 1,
            });
            let joining: Vec<Joined> = self.retry.drain(..).chain(new).collect();
            let clients = joining
                .into_iter()
                .map(|joined| {
                    let info = rig.infos[joined.file].clone();
                    let session = ClientSession::new(info).map_err(invalid)?;
                    Ok((joined, session, transport(&rig, joined.file, joined.loss)?))
                })
                .collect::<io::Result<Vec<_>>>()?;
            self.run.attempted += fresh;
            self.joined = Instant::now();
            self.steps = 0;
            for (joined, session, transport) in clients {
                let handle = rig.driver.add_client_on(shard, session, transport)?;
                self.live.insert(handle, joined);
            }
            settle(&mut rig, &mut self)?;
            self.run.waves += 1;
            if self.run.waves <= plan.rss_wave(self.spec) {
                self.run.peak_rss_mb = host::peak_rss_mb();
            }
            if !self.live.is_empty() {
                for (_, joined) in std::mem::take(&mut self.live) {
                    let since = joined.since.unwrap_or(self.joined);
                    if joined.tries < TRIES {
                        self.run.restarts += 1;
                        self.retry.push(Joined {
                            since: Some(since),
                            steps: joined.steps + self.steps,
                            tries: joined.tries + 1,
                            ..joined
                        });
                    } else {
                        self.run.stalled += 1;
                        self.run
                            .given_up_ms
                            .push(since.elapsed().as_secs_f64() * 1e3);
                    }
                }
                self.run.rebuilds += 1;
                let stats = rig.driver.shutdown()?.total_stats();
                self.run.stats = self.run.stats.merge(stats);
                rig = set_up(self.run.rebuilds as u64)?;
            }
            if stepped {
                let (t, cpu) = (Instant::now(), host::cpu_seconds());
                for _ in 0..SETUPS_PER_WAVE {
                    self.timed_set_up(&mut set_up)?.driver.shutdown()?;
                }
                let pause = t.elapsed();
                paused += pause;
                paused_cpu += host::cpu_seconds() - cpu;
                // Downloads that join again do not wait through the set-ups.
                for joined in &mut self.retry {
                    joined.since = joined.since.map(|s| s + pause);
                }
            }
        }
        let run = &mut self.run;
        run.window_s = (started.elapsed() - paused).as_secs_f64();
        run.cpu_s = host::cpu_seconds() - cpu_before - paused_cpu;
        run.non_loopback_tx = host::non_loopback_tx_packets().saturating_sub(tx_before);
        run.stats = run.stats.merge(rig.driver.shutdown()?.total_stats());
        if !stepped {
            self.set_ups(&mut set_up)?.driver.shutdown()?;
        }
        Ok(self.run)
    }
}

/// First port of a run of `count` loopback UDP ports that are free now.
///
/// # Errors
///
/// Fails if no such run exists below port 65000.
pub fn free_port_range(count: u16) -> io::Result<u16> {
    let mut base: u16 = 21_000;
    while base < 65_000 - count {
        let all_free = (0..count).all(|i| UdpSocket::bind((Ipv4Addr::LOCALHOST, base + i)).is_ok());
        if all_free {
            return Ok(base);
        }
        base += count;
    }
    Err(io::Error::new(
        io::ErrorKind::AddrInUse,
        "no free range of loopback UDP ports",
    ))
}
