//! Figure 7: total bandwidth requirement of the datamining application.
//!
//! The database server seeds the shared sequence lattice with half the
//! database, then publishes increments of 1% at a time (each increment is
//! one segment version). The mining client synchronizes under five
//! configurations and the harness reports total bytes received:
//!
//! - `full_transfer` — the whole summary structure is fetched at every
//!   new version (the RPC-without-caching strawman);
//! - `diff_only`     — wire-format diffs at every version (Full
//!   coherence with caching);
//! - `delta_2/3/4`   — the client lets its copy go 2/3/4 versions stale
//!   before updating (relaxed Delta coherence).
//!
//! Usage:
//! `cargo run --release -p iw-bench --bin fig7_datamining [--paper]`
//! (`--paper` runs the full 100 000-customer configuration; the default
//! is a 20 000-customer run with identical shape.)

use std::sync::Arc;

use iw_core::Session;
use iw_mining::{generate, GenConfig, Lattice, LatticePublisher};
use iw_proto::{Coherence, Handler, Loopback};
use iw_server::Server;
use iw_types::MachineArch;

const SEGMENT: &str = "mine/lattice";
const INCREMENTS: usize = 50;

fn main() {
    let paper = std::env::args().any(|a| a == "--paper");
    let cfg = if paper {
        GenConfig::paper()
    } else {
        GenConfig {
            customers: 20_000,
            items: 1000,
            avg_transactions: 1.25,
            avg_items_per_txn: 8.0,
            patterns: 1000,
            avg_pattern_len: 4.0,
            seed: 0x1CDC2003,
        }
    };
    println!(
        "# Figure 7 — datamining bandwidth ({} customers, {} items, {} patterns)",
        cfg.customers, cfg.items, cfg.patterns
    );
    let db = generate(&cfg);
    // Support floor scaled to the database: the frequent set is sizeable
    // and stable, and every increment nudges the supports of the popular
    // core — the paper's "summary structure changes slowly over time".
    let min_support = (cfg.customers / 2000).max(2);

    // The publisher drives the lattice through `INCREMENTS` versions; each
    // reader configuration replays the same version stream.
    let configs: [(&str, Option<Coherence>); 5] = [
        ("full_transfer", None),
        ("diff_only", Some(Coherence::Full)),
        ("delta_2", Some(Coherence::Delta(1))),
        ("delta_3", Some(Coherence::Delta(2))),
        ("delta_4", Some(Coherence::Delta(3))),
    ];

    println!(
        "{:<14} {:>12} {:>10} {:>8}",
        "configuration", "bytes_recv", "MB", "fetches"
    );
    let mut diff_only_bytes = None;
    let mut full_bytes = None;
    let mut diff_only_metrics = None;
    for (name, coherence) in configs {
        let (bytes, fetches, metrics) = run_config(&db, min_support, coherence);
        println!(
            "{:<14} {:>12} {:>10.2} {:>8}",
            name,
            bytes,
            bytes as f64 / (1024.0 * 1024.0),
            fetches
        );
        if name == "diff_only" {
            diff_only_bytes = Some(bytes);
            diff_only_metrics = Some(metrics);
        }
        if name == "full_transfer" {
            full_bytes = Some(bytes);
        }
    }
    if let (Some(full), Some(diff)) = (full_bytes, diff_only_bytes) {
        println!(
            "\n# diffs cut bandwidth by {:.0}% vs full transfer (paper: ≈80%)",
            (1.0 - diff as f64 / full as f64) * 100.0
        );
    }
    if let Some(json) = diff_only_metrics {
        println!("\n# Metrics snapshot (iw-telemetry JSON, diff_only reader + server):");
        println!("{json}");
    }
}

/// Runs the full increment schedule with one reader under `coherence`
/// (`None` = re-fetch the whole structure each version). Returns
/// (reader bytes received, update fetch count, metrics snapshot JSON).
fn run_config(
    db: &iw_mining::Database,
    min_support: u32,
    coherence: Option<Coherence>,
) -> (u64, u64, String) {
    let server = Arc::new(Server::new());
    let handler: Arc<dyn Handler> = server.clone();
    let mut publisher_session = Session::new(
        MachineArch::alpha(),
        Box::new(Loopback::new(handler.clone())),
    )
    .expect("publisher");

    // Seed with half the database ("initially generated using half the
    // database").
    let mut lattice = Lattice::new(4, min_support);
    let half = db.customers.len() / 2;
    lattice.update(db.slice(0, half));
    let mut publisher = LatticePublisher::create(&mut publisher_session, SEGMENT).expect("create");
    publisher
        .publish(&mut publisher_session, &lattice)
        .expect("seed");

    // The mining client appears after the seed.
    let mut reader =
        Session::new(MachineArch::x86(), Box::new(Loopback::new(handler))).expect("reader");
    let h = reader.open_segment(SEGMENT).expect("open");
    if let Some(c) = coherence {
        reader.set_coherence(&h, c).expect("coherence");
        reader.rl_acquire(&h).expect("initial sync");
        reader.rl_release(&h).expect("release");
    }
    reader.reset_transport_stats();

    // 50 increments of 1% each ("an additional 1% of the database each
    // time"), the reader querying after every increment.
    let step = db.customers.len() / 100;
    let mut fetches = 0u64;
    for round in 0..INCREMENTS {
        lattice.update(db.slice(half + round * step, step));
        publisher
            .publish(&mut publisher_session, &lattice)
            .expect("publish");
        match coherence {
            Some(_) => {
                let applied = |s: &Session| {
                    s.metrics_snapshot()
                        .counter("client.diff.applied_total")
                        .unwrap_or(0)
                };
                let before = applied(&reader);
                reader.rl_acquire(&h).expect("rl");
                reader.rl_release(&h).expect("rl");
                if applied(&reader) > before {
                    fetches += 1;
                }
            }
            None => {
                // Full transfer: a cache-less client fetches everything.
                let mut fresh = Session::new(
                    MachineArch::x86(),
                    Box::new(Loopback::new(server.clone() as Arc<dyn Handler>)),
                )
                .expect("fresh");
                fresh.fetch_segment(SEGMENT).expect("full fetch");
                let got = fresh.transport_stats().bytes_received;
                fetches += 1;
                // Accumulate into the reader's tally via a side counter.
                FULL_BYTES.with(|b| *b.borrow_mut() += got);
            }
        }
    }
    let bytes = match coherence {
        Some(_) => reader.transport_stats().bytes_received,
        None => FULL_BYTES.with(|b| {
            let v = *b.borrow();
            *b.borrow_mut() = 0;
            v
        }),
    };
    let mut snap = reader.metrics_snapshot();
    snap.merge_prefixed("", server.metrics_snapshot());
    (bytes, fetches, snap.to_json())
}

thread_local! {
    static FULL_BYTES: std::cell::RefCell<u64> = const { std::cell::RefCell::new(0) };
}
