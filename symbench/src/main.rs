//! `symbench --workload <decomp|reach|sat_verify> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Prints diagnostics on standard error and, as the last line of
//! standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Exits nonzero when an output is
//! not proved equivalent to its input or a deterministic value differs
//! between repetitions or from an earlier run of the same executable.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Mutex;
use symbench::host::HostSample;
use symbench::record::RecordStore;
use symbench::workload::{Workload, DEFAULT_SEED};

/// Panics caught inside the flow, by message, so a known defect stays
/// counted without flooding standard error.
static PANICS: Mutex<BTreeMap<String, usize>> = Mutex::new(BTreeMap::new());

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: Workload::Decomp,
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag}: missing value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("symbench: {e}");
            return ExitCode::from(2);
        }
    };
    std::panic::set_hook(Box::new(|info| {
        let msg = match (
            info.payload().downcast_ref::<&str>(),
            info.payload().downcast_ref::<String>(),
        ) {
            (Some(s), _) => s.to_string(),
            (_, Some(s)) => s.clone(),
            _ => "non-string panic".to_string(),
        };
        let at = info
            .location()
            .map_or(String::new(), |l| format!(" at {}:{}", l.file(), l.line()));
        *PANICS
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entry(format!("{msg}{at}"))
            .or_default() += 1;
    }));
    let host = HostSample::now();
    let name = args.workload.name();
    let run = std::panic::catch_unwind(|| {
        if !args.trace {
            return symbench::measure(args.workload, args.seed, args.seconds);
        }
        let (outcome, tracer) = symbench::trace::traced_run(args.workload, args.seed);
        if let Some(dir) = std::env::current_exe()
            .ok()
            .and_then(|e| e.parent().map(|d| d.to_path_buf()))
        {
            let path = dir.join(format!("symbench-trace-{name}-{}.json", args.seed));
            if let Err(e) = std::fs::write(&path, tracer.to_json()) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            }
        }
        outcome
    });
    let panics = std::mem::take(&mut *PANICS.lock().unwrap_or_else(|e| e.into_inner()));
    for (msg, n) in &panics {
        eprintln!("caught panic ×{n}: {msg}");
    }
    let Ok(mut outcome) = run else {
        eprintln!("symbench: the benchmark itself panicked");
        return ExitCode::from(3);
    };
    if let Some(store) = RecordStore::beside_exe() {
        let key = format!("{name}-{}", args.seed);
        for d in store.check_and_store(&key, &outcome.record) {
            outcome
                .problems
                .push(format!("not deterministic across runs: {d}"));
        }
    }
    for p in &outcome.problems {
        eprintln!("problem: {p}");
    }
    let correct = outcome.problems.is_empty();
    let h = host.since();
    eprintln!(
        "host: wall {:.3} s, on-cpu {:.3} s, run-queue wait {:.3} s",
        h.wall_s, h.cpu_s, h.runq_wait_s
    );
    println!(
        "{}",
        symbench::result_json(correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
