//! `iwbench` — runs the workloads, checks their outputs, prints every
//! metric by name with its unit, and ends with the benchmark contract's
//! JSON result line.
//!
//! ```text
//! iwbench [--seed N] [--workload NAME] [--seconds N] [--trace [0|1]] [--smoke]
//! ```
//!
//! Without `--workload` every workload runs in table order. Without
//! `--seconds` a measured phase is the workload table's fixed op count
//! (`--smoke`: 1/50 of it); with it, the phase runs that many seconds.
//! `--trace` runs the separate traced pass and reports the per-layer
//! metrics instead of the end-to-end ones.

use std::process::ExitCode;
use std::time::Duration;

use iwbench::report::{self, Metric};
use iwbench::workloads::{self, Budget, PassConfig, Spec, WORKLOADS};
use iwbench::{replay, stack, trace};

/// Set-ups per untraced timed run; `setup_s` is their median.
const SETUPS: usize = 5;

struct Args {
    seed: u64,
    workload: Option<&'static Spec>,
    seconds: Option<u64>,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        workload: None,
        seconds: None,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match a.as_str() {
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--workload" => {
                let name = value("--workload")?;
                args.workload =
                    Some(workloads::find(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seconds" => {
                let s: u64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                args.seconds = Some(s);
            }
            // `--trace` alone means 1; the driver passes `--trace 0|1`.
            "--trace" => {
                args.trace = it
                    .next_if(|v| v == "0" || v == "1")
                    .is_none_or(|v| v == "1");
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Runs one workload and prints its metrics; `Ok(true)` when every
/// output check held and no op failed.
fn run_workload(spec: &Spec, args: &Args) -> Result<bool, String> {
    println!("== {} (seed {}) ==", spec.name, args.seed);
    println!("{}", stack::describe(spec.durable, spec.backup));
    println!(
        "load: closed loop, {} generator thread(s), 2 client connections, {} CPUs available",
        if matches!(spec.shape, workloads::Shape::Bulk) {
            1
        } else {
            2
        },
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    // Each workload reports its own peak: reset the high-water mark.
    let _ = std::fs::write("/proc/self/clear_refs", "5");

    let fixed_ops = if args.smoke {
        (spec.ops / 50).max(2)
    } else {
        spec.ops
    };
    let budget = |share: u32| match args.seconds {
        Some(s) => Budget::Time(Duration::from_secs(s) / share),
        None => Budget::Ops(fixed_ops),
    };

    let (result, metrics): (workloads::PassResult, Vec<Metric>) = if !args.trace {
        let cfg = PassConfig {
            seed: args.seed,
            budget: budget(1),
            traced: false,
            setups: if args.seconds.is_some() { SETUPS } else { 1 },
        };
        let r = workloads::run_pass(spec, &cfg)?;
        let m = report::end_to_end(&r);
        print!("{}", report::table("end to end (tracing off):", &m));
        print!(
            "{}",
            report::table("diagnostics (bound to nothing):", &report::diagnostics(&r))
        );
        (r, m)
    } else {
        // Two fresh stacks over equal lengths: an untraced pass for the
        // overhead reference, then the traced one. Under `--seconds` each
        // gets half, so the run measures for `--seconds` in all.
        let base = PassConfig {
            seed: args.seed,
            budget: budget(2),
            traced: false,
            setups: 1,
        };
        let untraced = workloads::run_pass(spec, &base)?;
        let mut traced = workloads::run_pass(
            spec,
            &PassConfig {
                traced: true,
                ..base
            },
        )?;
        traced.attempted += untraced.attempted;
        traced.failed += untraced.failed;
        traced.errors.extend(untraced.errors.iter().cloned());
        let t = traced.trace.as_ref().expect("traced pass carries spans");
        let times = replay::run(spec, args.seed, &t.captured)?;
        let (m, ops) = report::per_layer(&traced, &untraced, &times)?;
        let path = stack::out_dir().join(format!("trace-{}.json", spec.name));
        std::fs::create_dir_all(stack::out_dir())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        trace::write_json(&path, spec.name, args.seed, t)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "trace: {} ops, {} round trips, {} handler calls, {} ship round trips -> {}",
            ops.len(),
            t.rtts.len(),
            t.handles.len(),
            t.ship.len(),
            path.display()
        );
        print!(
            "{}",
            report::table(
                "per layer (traced pass, replay spans, registry counts):",
                &m
            )
        );
        (traced, m)
    };

    for e in &result.errors {
        println!("FAILED: {e}");
    }
    let correct = result.failed == 0;
    println!(
        "{}",
        report::result_line(correct, result.attempted.max(1), result.failed, &metrics)
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("iwbench: {e}");
            eprintln!("usage: iwbench [--seed N] [--workload NAME] [--seconds N] [--trace [0|1]] [--smoke]");
            return ExitCode::from(2);
        }
    };
    let selected: Vec<&Spec> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let mut all_correct = true;
    for spec in selected {
        match run_workload(spec, &args) {
            Ok(correct) => all_correct &= correct,
            Err(e) => {
                eprintln!("iwbench: {}: {e}", spec.name);
                return ExitCode::FAILURE;
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
