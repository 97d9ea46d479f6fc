//! The three workloads: their sizes, the inputs generated from a seed, and
//! the sessions built from those inputs.
//!
//! Every input the program sees — file bytes, code seeds, channel loss
//! seeds — comes from [`Inputs::generate`], so one seed always gives one set
//! of inputs.

use df_core::TORNADO_A;
use df_proto::{ControlInfo, FountainServer, RatelessMode, ServerSession, SessionConfig};
use std::time::{Duration, Instant};

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One Tornado A carousel feeding waves of simulated receivers.
    CarouselSwarm,
    /// One LT and one Raptor server, each on its own simulated channel.
    RatelessSwarm,
    /// A multi-session server and its receivers over loopback UDP sockets.
    UdpLoopback,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::CarouselSwarm,
        Workload::RatelessSwarm,
        Workload::UdpLoopback,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CarouselSwarm => "carousel_swarm",
            Workload::RatelessSwarm => "rateless_swarm",
            Workload::UdpLoopback => "udp_loopback",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// True for the workloads that run over `SimMulticast`.
    pub fn is_sim(self) -> bool {
        self != Workload::UdpLoopback
    }
}

/// Sizes of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// The workload these sizes belong to.
    pub workload: Workload,
    /// Bytes of each served file.
    pub file_len: usize,
    /// Payload bytes per packet.
    pub packet_size: usize,
    /// Multicast layers per session.
    pub layers: usize,
    /// Receivers per server (sim) or per session (UDP) in every wave.
    pub receivers: usize,
    /// Datagrams a server emits per tick: one stepped-driver step, or one
    /// 1 ms pacing interval on the paced driver.
    pub datagrams_per_tick: usize,
}

/// Loss probability of the lossy receivers on the simulated channels.
pub const LOSS: f64 = 0.2;

/// Every `LOSSY_EVERY`-th receiver of a wave sits behind [`LOSS`].
pub const LOSSY_EVERY: usize = 4;

/// Sessions the UDP workload's server holds.
pub const UDP_SESSIONS: usize = 8;

impl Spec {
    /// The benchmark's sizes.
    pub fn full(workload: Workload) -> Spec {
        match workload {
            Workload::CarouselSwarm => Spec {
                workload,
                file_len: 1_000_000,
                packet_size: 500,
                layers: 4,
                receivers: 256,
                datagrams_per_tick: 256,
            },
            Workload::RatelessSwarm => Spec {
                workload,
                file_len: 500_000,
                packet_size: 500,
                layers: 1,
                receivers: 64,
                datagrams_per_tick: 256,
            },
            Workload::UdpLoopback => Spec {
                workload,
                file_len: 500_000,
                packet_size: 256,
                layers: 4,
                receivers: 1,
                datagrams_per_tick: 256,
            },
        }
    }

    /// Small sizes with the same shape, for the smoke and determinism tests.
    pub fn tiny(workload: Workload) -> Spec {
        let full = Spec::full(workload);
        Spec {
            file_len: full.file_len / 20,
            receivers: full.receivers.div_ceil(8),
            datagrams_per_tick: 64,
            ..full
        }
    }

    /// Servers (sim) or sessions (UDP) the workload serves; each has its
    /// own file.
    pub fn files(&self) -> usize {
        match self.workload {
            Workload::CarouselSwarm => 1,
            Workload::RatelessSwarm => 2,
            Workload::UdpLoopback => UDP_SESSIONS,
        }
    }

    /// Downloads one wave holds.
    pub fn wave_size(&self) -> usize {
        self.files() * self.receivers
    }

    /// The session configuration of file `index`.
    fn session_config(&self, index: usize, code_seed: u64) -> SessionConfig {
        let rateless = match (self.workload, index) {
            (Workload::RatelessSwarm, 0) => RatelessMode::Lt,
            (Workload::RatelessSwarm, _) => RatelessMode::Raptor,
            _ => RatelessMode::Off,
        };
        SessionConfig {
            packet_size: self.packet_size,
            layers: self.layers,
            profile: TORNADO_A,
            code_seed,
            rateless,
            ..SessionConfig::default()
        }
    }
}

/// A small deterministic generator (SplitMix64), so the inputs depend on
/// nothing but the seed.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Everything the program receives, generated from one seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// One file per server or session.
    pub files: Vec<Vec<u8>>,
    /// One code seed per file.
    pub code_seeds: Vec<u64>,
    /// One loss seed per simulated channel.
    pub channel_seeds: Vec<u64>,
}

impl Inputs {
    /// The inputs of `spec` under `seed`.
    pub fn generate(spec: &Spec, seed: u64) -> Inputs {
        let mut rng = SplitMix::new(seed);
        let files = (0..spec.files())
            .map(|_| {
                let mut file = Vec::with_capacity(spec.file_len + 8);
                while file.len() < spec.file_len {
                    file.extend_from_slice(&rng.next_u64().to_le_bytes());
                }
                file.truncate(spec.file_len);
                file
            })
            .collect();
        let code_seeds = (0..spec.files()).map(|_| rng.next_u64()).collect();
        let channel_seeds = (0..spec.files()).map(|_| rng.next_u64()).collect();
        Inputs {
            files,
            code_seeds,
            channel_seeds,
        }
    }
}

/// The server side of a workload, freshly built.
pub enum Servers {
    /// One carousel or rateless session per simulated channel.
    Sessions(Vec<ServerSession>),
    /// One multi-session server (UDP workload).
    Fountain(FountainServer),
}

/// Built servers with what the receivers need to join them.
pub struct Built {
    /// The servers.
    pub servers: Servers,
    /// Control information per file, as a receiver fetches it.
    pub infos: Vec<ControlInfo>,
    /// Wall time spent constructing the servers (encoding included).
    pub new_time: Duration,
}

/// Build the workload's servers from its inputs.
///
/// # Errors
///
/// Propagates session construction errors.
pub fn build_servers(spec: &Spec, inputs: &Inputs) -> df_core::Result<Built> {
    let started = Instant::now();
    let configs = (0..spec.files()).map(|i| spec.session_config(i, inputs.code_seeds[i]));
    let servers = if spec.workload.is_sim() {
        let sessions = configs
            .zip(&inputs.files)
            .map(|(config, file)| ServerSession::new(file, config))
            .collect::<df_core::Result<Vec<_>>>()?;
        Servers::Sessions(sessions)
    } else {
        let mut server = FountainServer::new();
        for (config, file) in configs.zip(&inputs.files) {
            server.add_session(file, config)?;
        }
        Servers::Fountain(server)
    };
    let new_time = started.elapsed();
    let infos = match &servers {
        Servers::Sessions(s) => s.iter().map(|s| s.control_info().clone()).collect(),
        Servers::Fountain(f) => f
            .sessions()
            .iter()
            .map(|s| s.control_info().clone())
            .collect(),
    };
    Ok(Built {
        servers,
        infos,
        new_time,
    })
}

/// Loss probability of receiver `r` of a wave (sim workloads).
pub fn receiver_loss(r: usize) -> f64 {
    if r % LOSSY_EVERY == LOSSY_EVERY - 1 {
        LOSS
    } else {
        0.0
    }
}
