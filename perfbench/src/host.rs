//! What the host is and what the process used: the fingerprint printed with
//! every result, and the `/proc` counters the metrics are read from.

use std::fs;

/// Clock ticks per second of `/proc/self/stat` times (`USER_HZ`, 100 on
/// every Linux architecture this benchmark targets).
const USER_HZ: f64 = 100.0;

/// Process user + system CPU time in seconds, from `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may hold spaces; fields after it are
    // plain numbers, utime and stime being the 12th and 13th after `)`.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => (user + system) / USER_HZ,
        _ => 0.0,
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1000.0
}

fn status_kb(key: &str) -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// The kernel's UDP counters (`/proc/net/snmp`) the drop ratio is taken
/// from.
#[derive(Debug, Clone, Copy, Default)]
pub struct UdpCounters {
    /// Datagrams delivered to a socket.
    pub in_datagrams: u64,
    /// Datagrams dropped because the receiving socket's buffer was full.
    pub rcvbuf_errors: u64,
}

impl UdpCounters {
    /// The current counters (zeros where `/proc/net/snmp` is unreadable).
    pub fn read() -> UdpCounters {
        let text = fs::read_to_string("/proc/net/snmp").unwrap_or_default();
        let mut rows = text.lines().filter(|l| l.starts_with("Udp: "));
        let (Some(names), Some(values)) = (rows.next(), rows.next()) else {
            return UdpCounters::default();
        };
        let field = |name: &str| {
            names
                .split_whitespace()
                .position(|n| n == name)
                .and_then(|i| values.split_whitespace().nth(i))
                .and_then(|v| v.parse().ok())
                .unwrap_or(0)
        };
        UdpCounters {
            in_datagrams: field("InDatagrams"),
            rcvbuf_errors: field("RcvbufErrors"),
        }
    }

    /// Share of datagrams reaching a bound socket that the kernel dropped
    /// since `before`.
    pub fn drop_ratio_since(&self, before: &UdpCounters) -> f64 {
        let delivered = self.in_datagrams.saturating_sub(before.in_datagrams);
        let dropped = self.rcvbuf_errors.saturating_sub(before.rcvbuf_errors);
        ratio(dropped as f64, (delivered + dropped) as f64)
    }
}

/// Packets transmitted on every interface other than `lo`, from
/// `/proc/net/dev`.  A delta of zero across a run shows that its traffic
/// stayed on the host's loopback.
pub fn non_loopback_tx_packets() -> u64 {
    let text = fs::read_to_string("/proc/net/dev").unwrap_or_default();
    text.lines()
        .skip(2)
        .filter_map(|line| {
            let (name, counters) = line.split_once(':')?;
            if name.trim() == "lo" {
                return None;
            }
            // Receive has 8 columns; transmit packets is the 10th.
            counters.split_whitespace().nth(9)?.parse::<u64>().ok()
        })
        .sum()
}

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(0, |n| n.get())
}

/// Pin the calling thread, and every thread it spawns afterwards, to the
/// CPU it runs on now.  Returns that CPU, or `None` if the kernel refused.
pub fn pin_to_current_cpu() -> Option<usize> {
    // SAFETY: a plain glibc call without arguments.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    // A `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: the mask is valid for reads of the size passed and outlives
    // the call; pid 0 is the calling thread.
    let set = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (set == 0).then_some(cpu)
}

/// `num / den`, or 0 for an empty base.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The host fingerprint recorded with every result, as JSON members:
/// `nproc` as it was before the process pinned itself to `pinned_cpu`.
pub fn fingerprint(
    nproc: usize,
    pinned_cpu: Option<usize>,
    addressing: &str,
    non_loopback_tx_delta: u64,
) -> String {
    let cpu_model = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let poll_backend = polling::Poller::new()
        .map(|p| format!("{:?}", p.backend()).to_lowercase())
        .unwrap_or_else(|_| "none".to_string());
    let pinned_cpu = pinned_cpu.map_or("null".to_string(), |c| c.to_string());
    format!(
        "\"nproc\": {nproc}, \"pinned_cpu\": {pinned_cpu}, \"cpu_model\": {}, \
         \"kernel\": {}, \"gf8_kernel\": \"{}\", \
         \"gf16_kernel\": \"{}\", \"poll_backend\": \"{poll_backend}\", \
         \"udp_addressing\": \"{addressing}\", \"non_loopback_tx_packets\": {non_loopback_tx_delta}",
        json_string(&cpu_model),
        json_string(&kernel),
        df_gf::kernels::active_kernel(),
        df_gf::kernels::gf16::active_kernel(),
    )
}

/// `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
