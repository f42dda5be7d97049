//! `iwchaos` — deterministic chaos soak against an in-process
//! primary/backup pair.
//!
//! ```text
//! iwchaos [--seed S] [--clients N] [--ops N] [--rate PER_10K] [--trace]
//!         [--recover] [--replica-reads]
//! ```
//!
//! Spins up a primary with an attached backup, degrades every client
//! link and the primary→backup ship link with seeded fault injectors,
//! runs `N` concurrent writer sessions, then verifies the end state
//! against the fault-free oracle and the backup byte-for-byte against
//! the primary. Exits 1 when the run does not converge.
//!
//! With `--recover`, two durability checks run instead:
//!
//! 1. the same chaos soak on a *durable* primary
//!    (`Server::with_durability`, real fsyncs), after which the data
//!    dir is reopened and the recovered segment must byte-match the
//!    image the primary held at soak end;
//! 2. the process-kill harness: a real `iwsrv --data-dir` child is
//!    SIGKILLed mid-commit at a seeded point, restarted, and its
//!    recovered segment byte-compared against a fault-free oracle —
//!    once with iwsrv's default checkpoint interval and once with
//!    `--checkpoint-every 1`, so the kill can land inside an image-slot
//!    write.
//!
//! With `--replica-reads`, the replica-read soak runs instead: one
//! writer streams versions through the primary while reader sessions
//! pinned to the backup read under Delta/Temporal coherence and the
//! primary→backup ship link wears the seeded fault plan. The run fails
//! if any read is torn, regresses, or lands below its coherence floor —
//! or if the backup never serves at all.
//!
//! The same seed always injects the same fault schedule — print it with
//! `--trace` and replay at will (with `--clients 1` the trace is fully
//! deterministic; more clients interleave their streams).

use iw_cli::Args;
use iw_faults::chaos::{
    run_replica_soak, run_soak, run_soak_on, soak_segment_image, ReplicaSoakConfig, SoakConfig,
};
use iw_faults::kill::{run_kill_restart, KillConfig};
use iw_faults::FaultPlan;
use iw_server::{DurableOptions, Server};

/// The `--recover` mode: durable soak + reopen compare, then the
/// SIGKILL/restart harness. Returns `Ok(false)` on invariant failure.
fn run_recover(cfg: &SoakConfig, seed: u64) -> Result<bool, Box<dyn std::error::Error>> {
    let mut ok = true;
    let scratch =
        std::env::temp_dir().join(format!("iwchaos-recover-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);

    // Check 1: the chaos soak on a durable primary, then reopen.
    let soak_dir = scratch.join("soak");
    let (server, _) = Server::with_durability(soak_dir.clone(), DurableOptions::default())?;
    let report = run_soak_on(cfg, server);
    for f in &report.failures {
        eprintln!("iwchaos: FAIL (durable soak) {f}");
        ok = false;
    }
    let (recovered, rec) = Server::with_durability(soak_dir, DurableOptions::default())?;
    for w in &rec.warnings {
        eprintln!("iwchaos: recovery warning: {w}");
    }
    if soak_segment_image(&recovered) == report.primary_image && report.primary_image.is_some() {
        println!(
            "iwchaos: durable soak recovered byte-identical (v{}, {} records replayed)",
            report.final_version, rec.replayed_records
        );
    } else {
        eprintln!("iwchaos: FAIL reopened data dir does not byte-match the soak-end primary");
        ok = false;
    }
    drop(recovered);

    // Check 2: SIGKILL a real iwsrv mid-commit and restart it, with
    // the default image interval and with an image on every commit.
    let iwsrv = std::env::current_exe()?
        .parent()
        .map(|d| d.join("iwsrv"))
        .filter(|p| p.exists())
        .ok_or("iwsrv binary not found next to iwchaos (build the workspace first)")?;
    for checkpoint_every in [8, 1] {
        let kill_cfg = KillConfig {
            seed,
            rounds: 200,
            iwsrv: iwsrv.clone(),
            checkpoint_every,
            data_dir: scratch.join(format!("kill-ck{checkpoint_every}")),
        };
        let kr = run_kill_restart(&kill_cfg)?;
        for f in &kr.failures {
            eprintln!("iwchaos: FAIL (kill/restart, checkpoint every {checkpoint_every}) {f}");
            ok = false;
        }
        if kr.passed() {
            println!(
                "iwchaos: SIGKILL mid-commit (checkpoint every {checkpoint_every}) at ack {} \
                 → recovered v{} byte-identical ({} records replayed)",
                kr.acked, kr.recovered_version, kr.replayed_records
            );
        }
    }
    if ok {
        let _ = std::fs::remove_dir_all(&scratch);
    }
    Ok(ok)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::parse(std::env::args().skip(1));
    let seed: u64 = args
        .flag("seed")
        .map(|v| v.parse())
        .transpose()?
        .unwrap_or(42);
    let mut cfg = SoakConfig::quick(seed);
    if let Some(v) = args.flag("clients") {
        cfg.clients = v.parse()?;
    }
    if let Some(v) = args.flag("ops") {
        cfg.ops = v.parse()?;
    }
    if let Some(v) = args.flag("rate") {
        let rate: u32 = v.parse()?;
        cfg.client_plan = FaultPlan::recoverable(rate);
        cfg.ship_plan = FaultPlan::recoverable(rate);
    }

    if args.switch("replica-reads") {
        let mut rcfg = ReplicaSoakConfig::quick(seed);
        if let Some(v) = args.flag("clients") {
            rcfg.readers = v.parse()?;
        }
        if let Some(v) = args.flag("ops") {
            rcfg.writes = v.parse()?;
        }
        if let Some(v) = args.flag("rate") {
            rcfg.ship_plan = FaultPlan::recoverable(v.parse()?);
        }
        let report = run_replica_soak(&rcfg);
        println!(
            "iwchaos: replica-reads seed {seed}  readers {}  writes {}  ship injected {}  \
             replica reads {}  fallbacks {}  not-fresh {}  violations {}  final version {}  \
             resyncs {}",
            rcfg.readers,
            rcfg.writes,
            report.ship_injections,
            report.replica_reads,
            report.replica_fallbacks,
            report.replica_not_fresh,
            report.predicate_violations,
            report.final_version,
            report.resyncs,
        );
        if args.switch("trace") {
            println!("ship trace: {}", report.ship_trace);
        }
        for f in &report.failures {
            eprintln!("iwchaos: FAIL {f}");
        }
        if report.converged {
            println!(
                "iwchaos: replica reads clean — every backup-served read within its \
                 staleness bound"
            );
            return Ok(());
        }
        eprintln!("iwchaos: REPLICA READS NOT CLEAN (seed {seed})");
        std::process::exit(1);
    }

    if args.switch("recover") {
        if run_recover(&cfg, seed)? {
            println!("iwchaos: recovery checks passed (seed {seed})");
            return Ok(());
        }
        eprintln!("iwchaos: RECOVERY FAILED (seed {seed})");
        std::process::exit(1);
    }

    let report = run_soak(&cfg);
    println!(
        "iwchaos: seed {seed}  clients {}  ops {}  injected {}+{} (client+ship)  \
         reconnects {}  final version {}",
        cfg.clients,
        cfg.ops,
        report.client_injections,
        report.ship_injections,
        report.client_reconnects,
        report.final_version,
    );
    println!(
        "iwchaos: diff wire {} B sent ({} B raw, {:.1}% saved) in {:.2}s ({:.1} KB/s)",
        report.diff_bytes_sent,
        report.diff_bytes_raw,
        100.0 * (1.0 - report.diff_bytes_sent as f64 / report.diff_bytes_raw.max(1) as f64),
        report.elapsed.as_secs_f64(),
        report.wire_bytes_per_sec() / 1024.0,
    );
    if args.switch("trace") {
        println!("client trace: {}", report.client_trace);
        println!("ship trace: {}", report.ship_trace);
    }
    for f in &report.failures {
        eprintln!("iwchaos: FAIL {f}");
    }
    if !report.backup_identical {
        eprintln!("iwchaos: FAIL backup diverged from primary after faults stopped");
    }
    if report.converged && report.backup_identical {
        println!(
            "iwchaos: converged — all {} slots match the fault-free oracle, backup identical",
            cfg.clients
        );
        Ok(())
    } else {
        eprintln!("iwchaos: NOT CONVERGED (seed {seed})");
        std::process::exit(1);
    }
}
