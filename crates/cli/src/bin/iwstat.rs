//! `iwstat` — scrapes a live `iwsrv` and prints its metrics.
//!
//! ```text
//! iwstat [--server 127.0.0.1:7474] [--json | --prom] [--filter PREFIX] [--probe]
//! ```
//!
//! Connects over TCP, performs the Hello handshake, sends a `Stats`
//! request, and renders the server's metrics snapshot: human-readable
//! text by default, JSON with `--json`, Prometheus text exposition with
//! `--prom`. `--filter` keeps only metrics whose name starts with the
//! given prefix (e.g. `server.lock.`). The text view ends with derived
//! lines: wire compaction and, for a `--data-dir` server, what one
//! checkpoint image costs (`durable.checkpoint_us`).
//!
//! `--probe` additionally drives a small writer/reader workload against
//! the server from this process and merges the client library's own
//! counters (`client.*`) into the scrape. The probe runs as a simulated
//! big-endian machine so the isomorphic-layout fast path engages, making
//! `client.translate.iso_collects_total`, `iso_applies_total`, and
//! `iso_memcpy_bytes_total` observable from the command line — the
//! client registry is in-process state and is invisible to a plain
//! server scrape.

use std::net::SocketAddr;

use iw_cli::Args;
use iw_core::Session;
use iw_proto::{Reply, Request, TcpTransport, Transport};
use iw_telemetry::Snapshot;
use iw_types::desc::TypeDesc;
use iw_types::MachineArch;

/// Adds `extra`'s metrics into `acc`, summing counters that share a
/// name (the probe's writer and reader sessions each carry a full
/// client registry).
fn sum_into(acc: &mut Snapshot, extra: Snapshot) {
    for (n, v) in extra.counters {
        match acc.counters.iter_mut().find(|(an, _)| *an == n) {
            Some(e) => e.1 += v,
            None => acc.counters.push((n, v)),
        }
    }
    for (n, v) in extra.gauges {
        match acc.gauges.iter_mut().find(|(an, _)| *an == n) {
            Some(e) => e.1 += v,
            None => acc.gauges.push((n, v)),
        }
    }
    for (n, h) in extra.histograms {
        if !acc.histograms.iter().any(|(an, _)| *an == n) {
            acc.histograms.push((n, h));
        }
    }
}

/// Writer/reader round trip against `addr` on a simulated big-endian
/// machine; returns the merged client-side metrics of both sessions.
fn run_probe(addr: SocketAddr) -> Result<Snapshot, Box<dyn std::error::Error>> {
    let arch = MachineArch::sparc_v9();
    let mut w = Session::new(arch.clone(), Box::new(TcpTransport::connect(addr)?))?;
    let h = w.open_segment("iwstat/probe")?;
    w.wl_acquire(&h)?;
    // Reuse the block when a previous probe already created it.
    let blk = match w.mip_to_ptr("iwstat/probe#blk") {
        Ok(p) => p,
        Err(_) => w.malloc(&h, &TypeDesc::int32(), 4096, Some("blk"))?,
    };
    // Salt the values so repeated probes against the same server still
    // dirty the block (identical bytes would yield an empty diff).
    let salt = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as i32 | 1)
        .unwrap_or(1);
    for i in 0..4096 {
        w.write_i32(&w.index(&blk, i)?, (i as i32) ^ salt)?;
    }
    w.wl_release(&h)?;

    let mut r = Session::new(arch, Box::new(TcpTransport::connect(addr)?))?;
    let rh = r.open_segment("iwstat/probe")?;
    r.rl_acquire(&rh)?;
    let q = r.mip_to_ptr("iwstat/probe#blk")?;
    let last = r.read_i32(&r.index(&q, 4095)?)?;
    if last != 4095 ^ salt {
        return Err(format!("probe read back {last}, expected {}", 4095 ^ salt).into());
    }
    r.rl_release(&rh)?;

    let mut merged = w.metrics_snapshot();
    sum_into(&mut merged, r.metrics_snapshot());
    Ok(merged)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::parse(std::env::args().skip(1));
    let addr = args.flag("server").unwrap_or("127.0.0.1:7474");

    let probe = if args.switch("probe") {
        Some(run_probe(addr.parse()?)?)
    } else {
        None
    };

    let mut transport = TcpTransport::connect(addr.parse()?)?;
    let client = match transport.request(&Request::Hello {
        info: "iwstat scraper".into(),
    })? {
        Reply::Welcome { client, .. } => client,
        other => return Err(format!("unexpected reply to Hello: {other:?}").into()),
    };
    let mut snapshot = match transport.request(&Request::Stats { client })? {
        Reply::Stats { snapshot } => snapshot,
        other => return Err(format!("unexpected reply to Stats: {other:?}").into()),
    };

    if let Some(p) = probe {
        // Client metric names are already namespaced (`client.*`,
        // `proto.*`); merge them alongside the server's sections.
        snapshot.merge_prefixed("", p);
    }

    if let Some(prefix) = args.flag("filter") {
        snapshot.counters.retain(|(n, _)| n.starts_with(prefix));
        snapshot.gauges.retain(|(n, _)| n.starts_with(prefix));
        snapshot.histograms.retain(|(n, _)| n.starts_with(prefix));
    }

    if args.switch("json") {
        println!("{}", snapshot.to_json());
    } else if args.switch("prom") {
        print!("{}", snapshot.render_prometheus());
    } else {
        print!("{}", snapshot.render_text());
        print_wire_summary(&snapshot);
        print_durable_summary(&snapshot);
    }
    Ok(())
}

/// Derived wire-compaction lines for the human-readable view: the raw
/// counters travel in the snapshot, but the ratio is what an operator
/// actually wants to read.
fn print_wire_summary(s: &Snapshot) {
    let counter = |name: &str| {
        s.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    let raw = counter("wire.diff_bytes_raw_total");
    let sent = counter("wire.diff_bytes_sent_total");
    if raw > 0 {
        println!(
            "# wire: diff payload {raw} B raw -> {sent} B sent ({:.1}% saved)",
            100.0 * (1.0 - sent as f64 / raw as f64)
        );
    }
    let hits = counter("server.enc_cache.hits_total");
    let misses = counter("server.enc_cache.misses_total");
    if hits + misses > 0 {
        println!(
            "# wire: encode cache {hits} hits / {misses} misses ({:.1}% served pre-encoded)",
            100.0 * hits as f64 / (hits + misses) as f64
        );
    }
}

/// Derived durability line for the human-readable view: what one
/// checkpoint image costs (its in-place slot write plus `fdatasync`,
/// taken under the segment's write lock) next to one WAL fsync.
fn print_durable_summary(s: &Snapshot) {
    let Some(ck) = s.histogram("durable.checkpoint_us").filter(|h| h.count > 0) else {
        return;
    };
    let fsync = s.histogram("durable.fsync_us").map_or(0, |h| h.mean());
    println!(
        "# durable: {} checkpoint images, mean {} us each (slot write + fdatasync); \
         WAL fsync mean {fsync} us",
        ck.count,
        ck.mean()
    );
}
