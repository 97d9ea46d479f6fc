//! The benchmark's own checks: determinism for a seed, verification on a
//! second seed, a smoke run of every workload through the binary, and the
//! traced run's layer accounting.

use df_perfbench::driven::{self, DrivenRun, Plan};
use df_perfbench::trace::{Layer, Name};
use df_perfbench::traced;
use df_perfbench::workload::{Inputs, Spec, Workload};
use std::collections::BTreeMap;
use std::process::Command;

fn waves(n: usize) -> Plan {
    Plan {
        seconds: 0.0,
        min_downloads: 0,
        waves: Some(n),
    }
}

fn tiny_run(workload: Workload, seed: u64) -> DrivenRun {
    let spec = Spec::tiny(workload);
    driven::run(&spec, &Inputs::generate(&spec, seed), &waves(2)).expect("tiny run")
}

/// The figures the stepped sim workloads must repeat exactly for a seed.
fn fingerprint(run: &DrivenRun) -> (Vec<(usize, usize, usize)>, u64, u64) {
    let downloads = run
        .downloads
        .iter()
        .map(|d| (d.received, d.attempts, d.steps))
        .collect();
    (
        downloads,
        run.stats.datagrams_sent,
        run.stats.datagrams_received,
    )
}

#[test]
fn sim_workloads_repeat_exactly_for_a_seed_and_verify_on_another() {
    for workload in [Workload::CarouselSwarm, Workload::RatelessSwarm] {
        let first = tiny_run(workload, 7);
        let second = tiny_run(workload, 7);
        assert_eq!(first.failed(), 0, "{workload:?}");
        assert_eq!(first.downloads.len(), first.attempted);
        // Downloads complete in event order, which the stepped driver fixes.
        assert_eq!(fingerprint(&first), fingerprint(&second), "{workload:?}");
        let other = tiny_run(workload, 8);
        assert_eq!(other.failed(), 0, "{workload:?} seed 8");
        assert_eq!(other.downloads.len(), other.attempted);
        assert_ne!(fingerprint(&first), fingerprint(&other), "{workload:?}");
    }
}

#[test]
fn inputs_depend_only_on_the_seed() {
    let spec = Spec::full(Workload::RatelessSwarm);
    let a = Inputs::generate(&spec, 3);
    let b = Inputs::generate(&spec, 3);
    let c = Inputs::generate(&spec, 4);
    assert_eq!(a.files, b.files);
    assert_eq!(a.code_seeds, b.code_seeds);
    assert_eq!(a.channel_seeds, b.channel_seeds);
    assert_ne!(a.files, c.files);
    assert_eq!(a.files[0].len(), spec.file_len);
}

#[test]
fn traced_layers_add_up_to_the_wall_time() {
    for workload in Workload::ALL {
        let spec = Spec::tiny(workload);
        let inputs = Inputs::generate(&spec, 5);
        let run = traced::run(&spec, &inputs, &waves(2)).expect("traced run");
        assert_eq!(run.mismatched + run.stalled + run.restarts, 0);
        assert_eq!(run.downloads, 2 * spec.wave_size());
        let t = &run.tracer;
        let spanned: u64 = Layer::ALL.iter().map(|&l| t.layer_self_ns(l)).sum();
        let wall = run.wall_s * 1e9;
        // Everything but the loop's bookkeeping between waves sits in spans.
        assert!(
            spanned as f64 <= wall && spanned as f64 > 0.98 * wall,
            "{workload:?}: spans cover {spanned} ns of {wall} ns"
        );
        assert_eq!(spanned, t.total(Name::Wave).total_ns);
        assert_eq!(run.rejected + run.ignored, 0);
        assert_eq!(run.recorded.len(), spec.wave_size());
        let replays = traced::replay(&run, &inputs).expect("replay");
        match workload {
            Workload::CarouselSwarm | Workload::UdpLoopback => {
                assert_eq!(replays.tornado_decode_ms.len(), spec.wave_size());
            }
            Workload::RatelessSwarm => {
                assert_eq!(replays.lt_finish_ms.len(), spec.receivers);
                assert_eq!(replays.raptor_finish_ms.len(), spec.receivers);
            }
        }
    }
}

/// One metric of a result line: unit and value.
type Metrics = BTreeMap<String, (String, f64)>;

/// Parse the benchmark's result line (the format `report::result_json`
/// writes) into its counts and metrics.
fn parse_result(line: &str) -> (bool, u64, u64, Metrics) {
    let field = |key: &str| {
        let at = line.find(&format!("\"{key}\": ")).expect(key) + key.len() + 4;
        line[at..]
            .split([',', '}'])
            .next()
            .expect("value")
            .trim()
            .to_string()
    };
    let correct = field("correct") == "true";
    let attempted = field("attempted").parse().expect("attempted");
    let failed = field("failed").parse().expect("failed");
    let body = &line[line.find("\"metrics\": {").expect("metrics") + 12..];
    let mut metrics = Metrics::new();
    for entry in body.split("}, ") {
        let Some((name, rest)) = entry.split_once("\": {\"value\": ") else {
            continue;
        };
        let name = name.trim_start_matches('"').to_string();
        let (value, unit) = rest.split_once(", \"unit\": \"").expect("unit");
        let unit = unit.split('"').next().expect("unit").to_string();
        metrics.insert(name, (unit, value.parse().expect("number")));
    }
    (correct, attempted, failed, metrics)
}

/// The metrics `BENCHMARK.json` lists in `section`, with their units.
fn listed(section: &str) -> BTreeMap<String, String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{section}\"")).expect(section);
    let end = text[start..].find(']').expect("list end") + start;
    text[start..end]
        .split("{\"name\": \"")
        .skip(1)
        .map(|entry| {
            let (name, rest) = entry.split_once('"').expect("name");
            let unit = rest.split("\"unit\": \"").nth(1).expect("unit");
            (
                name.to_string(),
                unit.split('"').next().expect("unit").to_string(),
            )
        })
        .collect()
}

fn smoke(workload: Workload, trace: u8) -> (String, Metrics) {
    // A tiny run of zero seconds runs exactly one wave.  The traced run's
    // spans land under the working directory.
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload.name(), "--seed", "11"])
        .args(["--seconds", "0", "--trace", &trace.to_string()])
        .args(["--size", "tiny"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run the benchmark");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let last = stdout.lines().last().expect("a result line");
    let (correct, attempted, failed, metrics) = parse_result(last);
    assert!(correct && failed == 0 && attempted > 0, "{last}");
    (stdout, metrics)
}

/// Per-layer metrics that must read 0 because the workload leaves their
/// layer idle, and ones that must not.
fn idle_and_busy(workload: Workload) -> (Vec<&'static str>, Vec<&'static str>) {
    let udp = ["udp.send_ns", "udp.recv_ns", "udp.self_ms_per_mb"];
    let sim = ["sim.send_ns", "sim.recv_ns", "sim.self_ms_per_mb"];
    let rateless = [
        "rateless.lt.poll_ns",
        "rateless.raptor.poll_ns",
        "rateless.lt.add_ns",
        "rateless.raptor.add_ns",
        "rateless.lt.finish_ms",
        "rateless.raptor.finish_ms",
    ];
    let tornado = ["core.tornado_encode_s", "core.tornado_decode_ms"];
    let stepping = ["driver.step_us_p50", "driver.steps_per_download"];
    let cat = |parts: &[&[&'static str]]| parts.concat();
    match workload {
        Workload::CarouselSwarm => (
            cat(&[&udp, &rateless]),
            cat(&[
                &sim,
                &tornado,
                &stepping,
                &["client.decode_attempts_per_download"],
            ]),
        ),
        Workload::RatelessSwarm => (cat(&[&udp, &tornado]), cat(&[&sim, &rateless, &stepping])),
        Workload::UdpLoopback => (
            cat(&[&sim, &rateless, &stepping]),
            cat(&[&udp, &tornado, &["udp.empty_recv_ratio"]]),
        ),
    }
}

#[test]
fn every_workload_prints_every_listed_metric_with_its_unit() {
    let end_to_end = listed("end_to_end");
    let per_layer = listed("per_layer");
    assert!(end_to_end.contains_key("setup_s"));
    for workload in Workload::ALL {
        let (stdout, metrics) = smoke(workload, 0);
        let printed: BTreeMap<_, _> = metrics
            .iter()
            .map(|(k, (u, _))| (k.clone(), u.clone()))
            .collect();
        assert_eq!(printed, end_to_end, "{workload:?}");
        // CPU time is counted in 10 ms ticks, which a tiny run may not reach.
        let timed = metrics.iter().filter(|(k, _)| *k != "cpu_ms_per_mb");
        assert!(
            timed.clone().all(|(_, (_, v))| *v > 0.0),
            "{workload:?}: {metrics:?}"
        );
        for key in [
            "\"nproc\"",
            "\"cpu_model\"",
            "\"kernel\"",
            "\"gf16_kernel\"",
            "\"poll_backend\"",
        ] {
            assert!(stdout.contains(key), "{workload:?} fingerprint lacks {key}");
        }
        assert!(
            stdout.contains("\"non_loopback_tx_packets\": 0"),
            "{stdout}"
        );

        let (_, metrics) = smoke(workload, 1);
        let printed: BTreeMap<_, _> = metrics
            .iter()
            .map(|(k, (u, _))| (k.clone(), u.clone()))
            .collect();
        assert_eq!(printed, per_layer, "{workload:?}");
        let (idle, busy) = idle_and_busy(workload);
        let value = |name: &str| metrics[name].1;
        for name in idle {
            assert_eq!(value(name), 0.0, "{workload:?}: {name} should be idle");
        }
        let always = [
            "gf.xor_gbps",
            "gf16.mul_acc_gbps",
            "server.new_s",
            "server.poll_transmit_ns",
            "client.handle_ns",
            "client.decode_attempt_ms",
            "wire.decode_ns",
            "wire.frame_ns",
            "loop.self_ms_per_mb",
            "trace.wall_ms_per_mb",
            "trace.goodput_mbps",
            "run.downloads",
        ];
        for name in busy.iter().chain(&always) {
            assert!(value(name) > 0.0, "{workload:?}: {name} should be measured");
        }
        for name in [
            "client.rejected",
            "client.ignored",
            "run.download_fail_ratio",
            "run.restart_ratio",
        ] {
            assert_eq!(value(name), 0.0, "{workload:?}: {name}");
        }
        // The loop's row is the traced wall time the other layers leave:
        // the benchmark's own loop, which must stay a minor share.
        let wall = value("trace.wall_ms_per_mb");
        let own = value("loop.self_ms_per_mb");
        assert!(
            own >= 0.0 && own < 0.5 * wall,
            "{workload:?}: {own} of {wall}"
        );
    }
}

#[test]
fn a_stalled_session_is_restarted_and_its_download_verifies() {
    // With one layer the carousel sends its encoding in index order, and
    // some late joiners' sessions fill their buffer cap without decoding
    // (24 of the 256 downloads of these 8 waves).
    let spec = Spec {
        layers: 1,
        file_len: 500_000,
        packet_size: 256,
        ..Spec::tiny(Workload::CarouselSwarm)
    };
    let inputs = Inputs::generate(&spec, 7);
    let run = driven::run(&spec, &inputs, &waves(8)).expect("one-layer run");
    let counts = (
        run.attempted,
        run.downloads.len(),
        run.restarts,
        run.stalled,
    );
    assert!(run.restarts > 0, "no session stalled: {counts:?}");
    assert_eq!(run.mismatched, 0);
    assert_eq!(
        run.downloads.len() + run.stalled,
        run.attempted,
        "{counts:?}"
    );
    let traced = traced::run(&spec, &inputs, &waves(8)).expect("traced run");
    assert!(traced.restarts > 0);
    assert_eq!(traced.mismatched, 0);
    assert_eq!(traced.downloads + traced.stalled, traced.attempted);
}
