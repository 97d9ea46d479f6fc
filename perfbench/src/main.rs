//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as its last line, one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.  The
//! lines before it give the host fingerprint and the run's counts.
//!
//! `--size tiny` shrinks the workload for the benchmark's own tests.  The
//! traced run writes its spans under `.bench_out/` in the working directory.

use df_perfbench::driven::{self, Plan};
use df_perfbench::report::{self, Micro};
use df_perfbench::stats::{beyond, median};
use df_perfbench::workload::{Inputs, Spec, Workload};
use df_perfbench::{host, traced};
use std::path::Path;
use std::process::ExitCode;

/// Downloads a full-size end-to-end run collects at least, so that ten or
/// more lie beyond its p99.
const MIN_DOWNLOADS: usize = 1000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::CarouselSwarm,
        seed: 0,
        seconds: 0.0,
        trace: false,
        tiny: false,
    };
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} expected, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or(bad("workload name"))?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("unsigned integer"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad("number"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--size" => {
                args.tiny = match value.as_str() {
                    "tiny" => true,
                    "full" => false,
                    _ => return Err(bad("tiny or full")),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    args.seed = seed.ok_or("--seed is required")?;
    args.seconds = seconds.ok_or("--seconds is required")?;
    args.trace = trace.ok_or("--trace is required")?;
    Ok(args)
}

fn run(args: &Args) -> Result<(), String> {
    // Free one large block first, as a long-running process would have:
    // glibc then raises its mmap and trim thresholds, so freed heap is kept
    // rather than returned and faulted back in.  Without this, whether a
    // set-up pays those page faults depends on the allocation history of
    // the process, and `setup_s` flips between two levels from run to run.
    // The block is zeroed by a fresh mapping, so none of its pages is ever
    // touched and it adds nothing to `peak_rss_mb`.
    drop(std::hint::black_box(vec![0u8; 16 << 20]));
    let spec = if args.tiny {
        Spec::tiny(args.workload)
    } else {
        Spec::full(args.workload)
    };
    let nproc = host::nproc();
    // `Driver::step` waits for each step by calling `sched_yield` in a
    // loop.  Unpinned, that loop keeps a second CPU busy, and on a shared
    // 2-CPU host it competes with the worker it waits for: stepped runs
    // then swung by up to 45 % with the host's load.  Pinned to one CPU,
    // each yield hands the CPU straight to the worker.  The paced UDP
    // workload runs two workers and stays unpinned.
    let pinned_cpu = if spec.workload.is_sim() {
        host::pin_to_current_cpu()
    } else {
        None
    };
    let inputs = Inputs::generate(&spec, args.seed);
    let min_downloads = if args.tiny || args.trace {
        0
    } else {
        MIN_DOWNLOADS
    };
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let plan = Plan {
        seconds,
        min_downloads,
        waves: None,
    };
    let err = |e: std::io::Error| e.to_string();
    let driven = driven::run(&spec, &inputs, &plan).map_err(err)?;
    let (correct, attempted, failed, metrics) = if args.trace {
        let traced_run = traced::run(&spec, &inputs, &plan).map_err(err)?;
        let replays = traced::replay(&traced_run, &inputs).map_err(|e| e.to_string())?;
        let (xor_gbps, mul_acc_gbps) = traced::gf_rates(spec.packet_size);
        let encodes = (0..3)
            .map(|_| traced::tornado_encode_s(&spec, &inputs))
            .collect::<Result<Vec<f64>, _>>()
            .map_err(|e| e.to_string())?;
        let micro = Micro {
            xor_gbps,
            mul_acc_gbps,
            tornado_encode_s: median(&encodes),
        };
        let spans = Path::new(".bench_out").join(format!(
            "{}-seed{}-spans.tsv",
            args.workload.name(),
            args.seed
        ));
        traced_run.tracer.write_tsv(&spans).map_err(err)?;
        let metrics = report::per_layer(&driven, &traced_run, &replays, &micro);
        (
            driven.mismatched + traced_run.mismatched == 0,
            driven.attempted + traced_run.attempted,
            driven.failed() + traced_run.mismatched + traced_run.stalled,
            metrics,
        )
    } else {
        let metrics = report::end_to_end(&driven);
        (
            driven.mismatched == 0,
            driven.attempted,
            driven.failed(),
            metrics,
        )
    };
    let addressing = if spec.workload.is_sim() {
        "none"
    } else {
        "loopback-unicast"
    };
    println!(
        "host {{{}}}",
        host::fingerprint(nproc, pinned_cpu, addressing, driven.non_loopback_tx)
    );
    println!(
        "run {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"waves\": {}, \
         \"downloads\": {}, \"beyond_p99\": {}, \"mismatched\": {}, \"stalled\": {}, \
         \"restarts\": {}, \"rebuilds\": {}, \"window_s\": {:.3}}}",
        spec.workload.name(),
        args.seed,
        u8::from(args.trace),
        driven.waves,
        driven.downloads.len(),
        beyond(driven.downloads.len() + driven.given_up_ms.len(), 0.99),
        driven.mismatched,
        driven.stalled,
        driven.restarts,
        driven.rebuilds,
        driven.window_s,
    );
    println!(
        "{}",
        report::result_json(correct, attempted, failed, &metrics)
    );
    Ok(())
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| run(&args));
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
