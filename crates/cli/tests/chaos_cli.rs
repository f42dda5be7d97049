//! `iwchaos` end-to-end: the binary is deterministic per seed and its
//! exit status reflects convergence. Plus `iwsrv --chaos`: a degraded
//! server ingress whose injections are scrapeable through `iwstat`.

mod common;

use std::process::Command;

use common::{spawn_iwsrv, try_iwstat};
use iw_proto::{Coherence, Reply, Request, TcpTransport, Transport};

fn run_iwchaos(extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_iwchaos"))
        .args(extra)
        .output()
        .expect("spawn iwchaos")
}

/// The acceptance bar: `iwchaos --seed S` injects the same fault
/// schedule every time. A single client keeps the trace free of thread
/// interleaving, so the two runs must match byte for byte.
#[test]
fn same_seed_yields_identical_injection_trace() {
    let args = ["--seed", "1234", "--clients", "1", "--ops", "8", "--trace"];
    let a = run_iwchaos(&args);
    let b = run_iwchaos(&args);
    assert!(
        a.status.success(),
        "first run failed: {}",
        String::from_utf8_lossy(&a.stderr)
    );
    assert!(
        b.status.success(),
        "second run failed: {}",
        String::from_utf8_lossy(&b.stderr)
    );

    let traces = |out: &std::process::Output| -> Vec<String> {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| l.contains("trace:"))
            .map(str::to_string)
            .collect()
    };
    let (ta, tb) = (traces(&a), traces(&b));
    assert_eq!(ta.len(), 2, "expected client + ship trace lines: {ta:?}");
    assert_eq!(ta, tb, "same seed must inject the same fault schedule");
    // The run must actually have injected something, or determinism is
    // vacuous.
    assert!(
        ta.iter()
            .any(|l| l.contains(':') && l.len() > "client trace: ".len() + 1),
        "no injections recorded: {ta:?}"
    );
}

/// `iwsrv --chaos SEED` drops/delays a seeded fraction of requests at
/// the ingress, clients see clean per-call server errors, and the
/// injection counters land in the registry `iwstat` scrapes.
#[test]
fn iwsrv_chaos_ingress_counts_injections_in_iwstat() {
    let srv = spawn_iwsrv(&["--chaos", "1", "--chaos-rate", "2000"]);

    // Drive raw requests through the degraded ingress; injected drops
    // surface as `Reply::Error` on that call only, never a dead link.
    let mut t = TcpTransport::connect(srv.addr).expect("connect");
    let client = loop {
        match t.request(&Request::Hello { info: "c".into() }) {
            Ok(Reply::Welcome { client, .. }) => break client,
            Ok(_) | Err(_) => continue,
        }
    };
    loop {
        match t.request(&Request::Open {
            client,
            segment: "x/chaos".into(),
        }) {
            Ok(Reply::Opened { .. }) => break,
            Ok(_) | Err(_) => continue,
        }
    }
    let mut errors = 0u64;
    for _ in 0..100 {
        match t.request(&Request::Poll {
            client,
            segment: "x/chaos".into(),
            have_version: 0,
            coherence: Coherence::Full,
            floor: 0,
        }) {
            Ok(Reply::UpToDate) => {}
            _ => errors += 1,
        }
    }
    assert!(errors > 0, "a 20% chaos rate injected nothing in 100 polls");

    // The Stats request rides the same degraded ingress, so the scrape
    // itself can be hit — retry until one gets through.
    let text = (0..20)
        .find_map(|_| try_iwstat(srv.addr, &["--filter", "faults."]))
        .expect("no iwstat scrape survived 20 tries at a 20% fault rate");
    let total: u64 = text
        .lines()
        .find(|l| l.contains("faults.injected_total"))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("faults.injected_total not scraped: {text}"));
    assert!(
        total >= errors,
        "iwstat saw {total} injections, client saw {errors} errors"
    );
}

/// Different seeds take different fault schedules (overwhelmingly
/// likely; pinned here so a broken PRNG wiring shows up).
#[test]
fn different_seed_changes_the_trace() {
    let a = run_iwchaos(&["--seed", "1", "--clients", "1", "--ops", "8", "--trace"]);
    let b = run_iwchaos(&["--seed", "2", "--clients", "1", "--ops", "8", "--trace"]);
    assert!(a.status.success() && b.status.success());
    let trace = |out: &std::process::Output| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| l.contains("trace:"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_ne!(trace(&a), trace(&b));
}
