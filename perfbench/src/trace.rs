//! The span recorder of the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer's
//! public functions.  A span holds its name, start, end, parent span, and
//! the download it belongs to.  Self time (duration minus the part covered
//! by child spans) is summed per name as spans close, so the per-layer
//! totals cover every span; the spans themselves are kept in memory up to a
//! cap and written out when the run ends.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;
use std::time::Instant;

/// The layer a span's time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The benchmark's own loop (standing in for the driver).
    Loop,
    /// `ServerSession` / `FountainServer`.
    Server,
    /// `ClientSession`.
    Client,
    /// `SimEndpoint`.
    Sim,
    /// `UdpMulticastTransport`.
    Udp,
}

impl Layer {
    /// Every layer.
    pub const ALL: [Layer; 5] = [
        Layer::Loop,
        Layer::Server,
        Layer::Client,
        Layer::Sim,
        Layer::Udp,
    ];
}

/// What a span timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// One wave, from building its receivers to its last verified file.
    Wave,
    /// One server's tick of one pacing quantum.
    Tick,
    /// Draining one receiver's transport.
    Drain,
    /// `poll_transmit` (with the round advance the driver performs).
    ServerPoll,
    /// `ClientSession::new`.
    ClientNew,
    /// `handle_datagram` returning `Buffered`, `Duplicate`, `Ignored`,
    /// `Rejected`, `Join` or `Leave`.
    ClientHandle,
    /// `handle_datagram` returning `AttemptFailed` or `Complete`.
    ClientAttempt,
    /// `Transport::send` on a simulated endpoint.
    SimSend,
    /// `Transport::try_recv` returning a datagram, simulated endpoint.
    SimRecv,
    /// `Transport::try_recv` returning `None`, simulated endpoint.
    SimRecvEmpty,
    /// `join` / `leave`, simulated endpoint.
    SimMembership,
    /// `Transport::send` on a UDP transport.
    UdpSend,
    /// `Transport::try_recv` returning a datagram, UDP transport.
    UdpRecv,
    /// `Transport::try_recv` returning `None`, UDP transport.
    UdpRecvEmpty,
    /// `join` / `leave` (socket bind and close), UDP transport.
    UdpMembership,
}

const NAMES: usize = 15;

impl Name {
    /// Every name, indexed by `self as usize`.
    pub const ALL: [Name; NAMES] = [
        Name::Wave,
        Name::Tick,
        Name::Drain,
        Name::ServerPoll,
        Name::ClientNew,
        Name::ClientHandle,
        Name::ClientAttempt,
        Name::SimSend,
        Name::SimRecv,
        Name::SimRecvEmpty,
        Name::SimMembership,
        Name::UdpSend,
        Name::UdpRecv,
        Name::UdpRecvEmpty,
        Name::UdpMembership,
    ];

    /// Name written with each span.
    pub fn label(self) -> &'static str {
        match self {
            Name::Wave => "loop.wave",
            Name::Tick => "loop.tick",
            Name::Drain => "loop.drain",
            Name::ServerPoll => "server.poll_transmit",
            Name::ClientNew => "client.new",
            Name::ClientHandle => "client.handle",
            Name::ClientAttempt => "client.decode_attempt",
            Name::SimSend => "sim.send",
            Name::SimRecv => "sim.recv",
            Name::SimRecvEmpty => "sim.recv_empty",
            Name::SimMembership => "sim.membership",
            Name::UdpSend => "udp.send",
            Name::UdpRecv => "udp.recv",
            Name::UdpRecvEmpty => "udp.recv_empty",
            Name::UdpMembership => "udp.membership",
        }
    }

    /// The layer the span's self time is charged to.
    pub fn layer(self) -> Layer {
        match self {
            Name::Wave | Name::Tick | Name::Drain => Layer::Loop,
            Name::ServerPoll => Layer::Server,
            Name::ClientNew | Name::ClientHandle | Name::ClientAttempt => Layer::Client,
            Name::SimSend | Name::SimRecv | Name::SimRecvEmpty | Name::SimMembership => Layer::Sim,
            Name::UdpSend | Name::UdpRecv | Name::UdpRecvEmpty | Name::UdpMembership => Layer::Udp,
        }
    }
}

/// Download id of spans that belong to no single download.
pub const NO_DOWNLOAD: u32 = u32::MAX;

/// Totals of every closed span of one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Total {
    /// Spans closed.
    pub calls: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their self times, ns.
    pub self_ns: u64,
}

impl Total {
    /// Mean duration per span in ns (0 without spans).
    pub fn mean_ns(&self) -> f64 {
        crate::host::ratio(self.total_ns as f64, self.calls as f64)
    }
}

/// One closed span; times are ns since the tracer was made.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What it timed.
    pub name: Name,
    /// Its id (ids count up from 1 in opening order).
    pub id: u32,
    /// Id of the span open around it, 0 at the root.
    pub parent: u32,
    /// Download it belongs to, or [`NO_DOWNLOAD`].
    pub download: u32,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
}

struct Open {
    name: Name,
    id: u32,
    parent: u32,
    download: u32,
    start: u64,
    /// Time covered by closed child spans, ns.
    child: u64,
}

/// Records spans; see the [module docs](self).
pub struct Tracer {
    epoch: Instant,
    open: Vec<Open>,
    next_id: u32,
    totals: [Total; NAMES],
    kept: Vec<Span>,
    cap: usize,
}

impl Tracer {
    /// A tracer keeping at most `cap` spans for writing out.
    pub fn new(cap: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            open: Vec::with_capacity(8),
            next_id: 1,
            totals: [Total::default(); NAMES],
            kept: Vec::with_capacity(cap.min(1 << 16)),
            cap,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span inside the innermost open one.
    pub fn enter(&mut self, name: Name, download: u32) {
        let parent = self.open.last().map_or(0, |o| o.id);
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        let start = self.now();
        self.open.push(Open {
            name,
            id,
            parent,
            download,
            start,
            child: 0,
        });
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let end = self.now();
        self.close(end, None);
    }

    /// Close the innermost open span under another name (for calls whose
    /// outcome decides which row they belong to).
    pub fn exit_as(&mut self, name: Name) {
        let end = self.now();
        self.close(end, Some(name));
    }

    fn close(&mut self, end: u64, rename: Option<Name>) {
        let open = self.open.pop().expect("exit matches an enter");
        let name = rename.unwrap_or(open.name);
        let duration = end.saturating_sub(open.start);
        let total = &mut self.totals[name as usize];
        total.calls += 1;
        total.total_ns += duration;
        total.self_ns += duration.saturating_sub(open.child);
        if let Some(parent) = self.open.last_mut() {
            parent.child += duration;
        }
        if self.kept.len() < self.cap {
            self.kept.push(Span {
                name,
                id: open.id,
                parent: open.parent,
                download: open.download,
                start: open.start,
                end,
            });
        }
    }

    /// Time `f` as a span with no children.
    pub fn leaf<R>(&mut self, name: Name, download: u32, f: impl FnOnce() -> R) -> R {
        self.enter(name, download);
        let out = f();
        self.exit();
        out
    }

    /// Totals of the spans named `name`.
    pub fn total(&self, name: Name) -> Total {
        self.totals[name as usize]
    }

    /// Self time charged to `layer`, ns.
    pub fn layer_self_ns(&self, layer: Layer) -> u64 {
        Name::ALL
            .iter()
            .filter(|n| n.layer() == layer)
            .map(|&n| self.totals[n as usize].self_ns)
            .sum()
    }

    /// The kept spans, in closing order.
    pub fn spans(&self) -> &[Span] {
        &self.kept
    }

    /// Write the kept spans as tab-separated rows.
    ///
    /// # Errors
    ///
    /// Propagates file system errors.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        let mut out = String::from("id\tparent\tname\tdownload\tstart_ns\tend_ns\n");
        for s in &self.kept {
            let download = if s.download == NO_DOWNLOAD {
                "-".to_string()
            } else {
                s.download.to_string()
            };
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id,
                s.parent,
                s.name.label(),
                download,
                s.start,
                s.end
            );
        }
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_parents_link() {
        let mut t = Tracer::new(16);
        t.enter(Name::Wave, NO_DOWNLOAD);
        t.enter(Name::Drain, 3);
        t.leaf(Name::SimRecv, 3, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit();
        t.exit();
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        let (recv, drain, wave) = (spans[0], spans[1], spans[2]);
        assert_eq!(recv.parent, drain.id);
        assert_eq!(drain.parent, wave.id);
        assert_eq!(wave.parent, 0);
        assert_eq!(recv.download, 3);
        let child = t.total(Name::SimRecv);
        assert!(child.self_ns >= 2_000_000);
        let drain_total = t.total(Name::Drain);
        assert_eq!(drain_total.self_ns, drain_total.total_ns - child.total_ns);
        let all_self: u64 = Layer::ALL.iter().map(|&l| t.layer_self_ns(l)).sum();
        assert_eq!(all_self, t.total(Name::Wave).total_ns);
    }

    #[test]
    fn spans_beyond_the_cap_are_counted_not_kept() {
        let mut t = Tracer::new(2);
        for _ in 0..5 {
            t.leaf(Name::UdpSend, NO_DOWNLOAD, || ());
        }
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.total(Name::UdpSend).calls, 5);
    }
}
