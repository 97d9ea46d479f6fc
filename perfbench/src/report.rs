//! The metrics a run reports, and the result line the benchmark prints.

use crate::driven::DrivenRun;
use crate::host::ratio;
use crate::stats::{mean, median, quantile};
use crate::trace::{Layer, Name};
use crate::traced::{Replays, TracedRun};
use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value: if value.is_finite() { value } else { 0.0 },
    }
}

fn mb(bytes: u64) -> f64 {
    bytes as f64 / 1e6
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(run: &DrivenRun) -> Vec<Metric> {
    let ms: Vec<f64> = run
        .downloads
        .iter()
        .map(|d| d.ms)
        .chain(run.given_up_ms.iter().copied())
        .collect();
    let overhead: Vec<f64> = run
        .downloads
        .iter()
        .map(|d| ratio(d.received as f64, d.k as f64))
        .collect();
    let verified_mb = mb(run.verified_bytes);
    vec![
        metric("goodput_mbps", "MB/s", ratio(verified_mb, run.window_s)),
        metric("download_ms_p50", "ms", quantile(&ms, 0.50)),
        metric("download_ms_p99", "ms", quantile(&ms, 0.99)),
        metric("reception_overhead", "ratio", mean(&overhead)),
        metric(
            "cpu_ms_per_mb",
            "ms/MB",
            ratio(run.cpu_s * 1e3, verified_mb),
        ),
        metric("setup_s", "s", median(&run.setup_s)),
        metric("peak_rss_mb", "MB", run.peak_rss_mb),
    ]
}

/// Measurements of the layers taken outside both runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Micro {
    /// `xor_slice` at the workload's packet size, GB/s.
    pub xor_gbps: f64,
    /// GF(2^16) `mul_acc_slice` at the workload's packet size, GB/s.
    pub mul_acc_gbps: f64,
    /// Median wall time of encoding the workload's Tornado files, s.
    pub tornado_encode_s: f64,
}

/// The per-layer metrics, from an untraced run, a traced run of the same
/// workload, and their replays.  Layers the workload does not use read 0.
pub fn per_layer(
    driven: &DrivenRun,
    traced: &TracedRun,
    replays: &Replays,
    micro: &Micro,
) -> Vec<Metric> {
    let t = &traced.tracer;
    let traced_mb = mb(traced.verified_bytes);
    let self_ns = |layer: Layer| t.layer_self_ns(layer) as f64;
    let per_mb = |ns: f64| ratio(ns / 1e6, traced_mb);
    let wall_ns = traced.wall_s * 1e9;
    let session_and_transport =
        self_ns(Layer::Server) + self_ns(Layer::Client) + self_ns(Layer::Sim) + self_ns(Layer::Udp);
    // The loop's row is whatever the other layers do not cover, so the rows
    // add up to the traced wall time.
    let loop_ns = wall_ns - session_and_transport;
    let untraced_ms_per_mb = ratio(driven.window_s * 1e3, mb(driven.verified_bytes));
    let untraced_goodput = ratio(mb(driven.verified_bytes), driven.window_s);
    let traced_goodput = ratio(traced_mb, traced.wall_s);
    let received: usize = driven.downloads.iter().map(|d| d.received).sum();
    let duplicates: usize = driven
        .downloads
        .iter()
        .map(|d| d.received - d.distinct)
        .sum();
    let attempts: Vec<f64> = driven.downloads.iter().map(|d| d.attempts as f64).collect();
    let steps: Vec<f64> = driven.downloads.iter().map(|d| d.steps as f64).collect();
    let calls = |n: Name| t.total(n).calls as f64;
    let mean_ns = |n: Name| t.total(n).mean_ns();
    // The driver's lifetime counters, per verified download, so runs that
    // fit different numbers of waves compare.
    let per_download = |count: u64| ratio(count as f64, driven.downloads.len() as f64);
    let attempted = driven.attempted + traced.attempted;
    let failed = driven.failed() + traced.mismatched + traced.stalled;
    let restarts = driven.restarts + traced.restarts;
    vec![
        metric("gf.xor_gbps", "GB/s", micro.xor_gbps),
        metric("gf16.mul_acc_gbps", "GB/s", micro.mul_acc_gbps),
        metric("core.tornado_encode_s", "s", micro.tornado_encode_s),
        metric(
            "core.tornado_decode_ms",
            "ms",
            mean(&replays.tornado_decode_ms),
        ),
        metric("rateless.lt.poll_ns", "ns", replays.lt_poll_ns),
        metric("rateless.raptor.poll_ns", "ns", replays.raptor_poll_ns),
        metric("rateless.lt.add_ns", "ns", replays.lt_add_ns),
        metric("rateless.raptor.add_ns", "ns", replays.raptor_add_ns),
        metric("rateless.lt.finish_ms", "ms", mean(&replays.lt_finish_ms)),
        metric(
            "rateless.raptor.finish_ms",
            "ms",
            mean(&replays.raptor_finish_ms),
        ),
        metric("server.new_s", "s", median(&driven.server_new_s)),
        metric("server.poll_transmit_ns", "ns", mean_ns(Name::ServerPoll)),
        metric(
            "server.self_ms_per_mb",
            "ms/MB",
            per_mb(self_ns(Layer::Server)),
        ),
        metric("client.handle_ns", "ns", mean_ns(Name::ClientHandle)),
        metric(
            "client.decode_attempt_ms",
            "ms",
            mean_ns(Name::ClientAttempt) / 1e6,
        ),
        metric(
            "client.decode_attempts_per_download",
            "count",
            mean(&attempts),
        ),
        metric(
            "client.duplicate_ratio",
            "ratio",
            ratio(duplicates as f64, received as f64),
        ),
        metric("client.rejected", "count", traced.rejected as f64),
        metric("client.ignored", "count", traced.ignored as f64),
        metric(
            "client.self_ms_per_mb",
            "ms/MB",
            per_mb(self_ns(Layer::Client)),
        ),
        metric("wire.decode_ns", "ns", replays.wire_decode_ns),
        metric("wire.frame_ns", "ns", replays.wire_frame_ns),
        metric("driver.step_us_p50", "us", median(&driven.step_us)),
        metric("driver.steps_per_download", "count", mean(&steps)),
        metric(
            "driver.residual_share",
            "ratio",
            ratio(
                untraced_ms_per_mb - per_mb(session_and_transport),
                untraced_ms_per_mb,
            ),
        ),
        metric(
            "driver.datagrams_sent_per_download",
            "count",
            per_download(driven.stats.datagrams_sent),
        ),
        metric(
            "driver.datagrams_received_per_download",
            "count",
            per_download(driven.stats.datagrams_received),
        ),
        metric(
            "driver.ticks_per_download",
            "count",
            per_download(driven.stats.ticks),
        ),
        metric("sim.send_ns", "ns", mean_ns(Name::SimSend)),
        metric("sim.recv_ns", "ns", mean_ns(Name::SimRecv)),
        metric("sim.self_ms_per_mb", "ms/MB", per_mb(self_ns(Layer::Sim))),
        metric("udp.send_ns", "ns", mean_ns(Name::UdpSend)),
        metric("udp.recv_ns", "ns", mean_ns(Name::UdpRecv)),
        metric(
            "udp.empty_recv_ratio",
            "ratio",
            ratio(
                calls(Name::UdpRecvEmpty),
                calls(Name::UdpRecv) + calls(Name::UdpRecvEmpty),
            ),
        ),
        metric("udp.drop_ratio", "ratio", driven.udp_drop_ratio),
        metric("udp.self_ms_per_mb", "ms/MB", per_mb(self_ns(Layer::Udp))),
        metric("loop.self_ms_per_mb", "ms/MB", per_mb(loop_ns)),
        metric("trace.wall_ms_per_mb", "ms/MB", per_mb(wall_ns)),
        metric("trace.goodput_mbps", "MB/s", traced_goodput),
        metric(
            "trace.overhead_share",
            "ratio",
            1.0 - ratio(traced_goodput, untraced_goodput),
        ),
        metric("run.downloads", "count", driven.downloads.len() as f64),
        metric(
            "run.download_fail_ratio",
            "ratio",
            ratio(failed as f64, attempted as f64),
        ),
        metric(
            "run.restart_ratio",
            "ratio",
            ratio(restarts as f64, attempted as f64),
        ),
    ]
}

/// The result line: the last line the benchmark prints.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}
