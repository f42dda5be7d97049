//! Turning what a pass measured into named metrics with units.
//!
//! End-to-end metrics come from an untraced pass. Per-layer metrics come
//! from a traced pass: in-situ spans (round trips, handler calls, self
//! times), registry counts read before and after the measured phase, and
//! the replay spans of [`crate::replay`].

use iw_telemetry::Snapshot;

use crate::replay::ReplayTimes;
use crate::trace::{self, OpBreakdown, KIND_ACQUIRE, KIND_POLL, KIND_RELEASE};
use crate::workloads::{PassResult, Registries};

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind a timing (0 for counts and ratios).
    pub samples: usize,
}

fn metric(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.to_string(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        samples,
    }
}

/// The `q`-quantile (0..=1) of an ascending slice; 0 when empty.
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let i = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[i] as f64
}

/// Median of an unsorted float slice; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `VmHWM` of this process in MB (0 where `/proc` has no such line).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A list of metrics under construction.
#[derive(Default)]
struct Metrics(Vec<Metric>);

impl Metrics {
    /// A count, ratio or mean: no sample count to state.
    fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(metric(name, value, unit, 0));
    }

    /// Quantiles of a sample of nanosecond durations, in µs, each stating
    /// the sample count; `{}` in `name` is where each quantile's suffix goes.
    fn quantiles(&mut self, name: &str, mut ns: Vec<u64>, which: &[(&str, f64)]) {
        ns.sort_unstable();
        for (suffix, q) in which {
            let name = name.replace("{}", suffix);
            self.0
                .push(metric(&name, quantile(&ns, *q) / 1e3, "us", ns.len()));
        }
    }
}

const P50_P95: [(&str, f64); 2] = [("p50", 0.50), ("p95", 0.95)];
const P50_P99: [(&str, f64); 2] = [("p50", 0.50), ("p99", 0.99)];
const P99_P999: [(&str, f64); 2] = [("p99", 0.99), ("p999", 0.999)];

/// The end-to-end metrics of one untraced pass that `BENCHMARK.json`
/// bounds. Every workload reports every one of them (the benchmark
/// contract prints the same set for all workloads): each workload commits
/// and reads. The gated tail is p95: p99 sat on a backoff step on
/// `contended_rw` and spread 25-40 % from run to run on three workloads.
pub fn end_to_end(r: &PassResult) -> Vec<Metric> {
    let (nc, nr) = (r.commit_ns.len(), r.read_ns.len());
    let wall = r.wall_s.max(1e-9);
    let mut out = Metrics::default();
    out.0
        .push(metric("commits_per_s", nc as f64 / wall, "1/s", nc));
    out.quantiles("commit_{}_us", r.commit_ns.clone(), &P50_P95);
    out.0
        .push(metric("reads_per_s", nr as f64 / wall, "1/s", nr));
    out.quantiles("read_{}_us", r.read_ns.clone(), &P50_P95);
    out.add(
        "payload_mb_per_s",
        r.payload_bytes as f64 / 1e6 / wall,
        "MB/s",
    );
    out.add(
        "wire_bytes_per_commit",
        ratio(r.wire_bytes as f64, nc as f64),
        "B",
    );
    out.0
        .push(metric("setup_s", median(&r.setup_s), "s", r.setup_s.len()));
    out.0
}

/// The rest of the issue's end-to-end list, printed beside the bounded
/// metrics but bound to nothing, each for a measured reason (README):
/// the p99 and p999 tails and the peak RSS spread too widely from run to
/// run, `wal_bytes_per_commit` is 0 without a WAL, and `failed_ops_ratio`
/// travels in the result line's `failed` / `attempted`. `host_kernel_us`
/// is not the program's: it says how fast the host ran meanwhile
/// ([`crate::host`]).
pub fn diagnostics(r: &PassResult) -> Vec<Metric> {
    let mut out = Metrics::default();
    out.quantiles("commit_{}_us", r.commit_ns.clone(), &P99_P999);
    out.quantiles("read_{}_us", r.read_ns.clone(), &P99_P999);
    out.add("peak_rss_mb", r.peak_rss_mb, "MB");
    out.add("host_kernel_us", r.host_kernel_us, "us");
    out.add("wal_bytes_per_commit", wal_bytes_per_commit(r), "B");
    out.add(
        "failed_ops_ratio",
        ratio(r.failed as f64, r.attempted as f64),
        "ratio",
    );
    out.0
}

/// (`durable.wal_bytes_total` + checkpoint bytes written) ÷ commits. Every
/// checkpoint rewrites one segment's image and the segments are the same
/// size, so the files on disk at the end give the size of each.
fn wal_bytes_per_commit(r: &PassResult) -> f64 {
    let d = Delta::across(r);
    let segments = r
        .after
        .server
        .counters
        .iter()
        .filter(|(n, _)| n.ends_with(".version"))
        .count();
    let image_bytes = ratio(r.checkpoint_file_bytes as f64, segments as f64);
    ratio(
        d.server("durable.wal_bytes_total")
            + d.server("durable.checkpoints_written_total") * image_bytes,
        r.commit_ns.len() as f64,
    )
}

/// Counter and histogram deltas across the measured phase.
struct Delta<'a> {
    before: &'a Registries,
    after: &'a Registries,
}

impl Delta<'_> {
    fn across(r: &PassResult) -> Delta<'_> {
        Delta {
            before: &r.before,
            after: &r.after,
        }
    }

    fn of(after: &Snapshot, before: &Snapshot, name: &str) -> f64 {
        after.counter(name).unwrap_or(0) as f64 - before.counter(name).unwrap_or(0) as f64
    }

    fn server(&self, name: &str) -> f64 {
        Delta::of(&self.after.server, &self.before.server, name)
    }

    fn clients(&self, name: &str) -> f64 {
        self.after
            .clients
            .iter()
            .zip(&self.before.clients)
            .map(|(a, b)| Delta::of(a, b, name))
            .sum()
    }

    /// `a / (a + b)` of two client counters (hits and misses).
    fn clients_share(&self, a: &str, b: &str) -> f64 {
        let a = self.clients(a);
        ratio(a, a + self.clients(b))
    }

    /// `(sum, count)` of a histogram's observations in the phase.
    fn hist(after: &Snapshot, before: &Snapshot, name: &str) -> (f64, f64) {
        let get = |s: &Snapshot| s.histogram(name).map_or((0, 0), |h| (h.sum, h.count));
        let (a, b) = (get(after), get(before));
        ((a.0 - b.0) as f64, (a.1 - b.1) as f64)
    }

    fn server_hist_mean(&self, name: &str) -> f64 {
        let (sum, count) = Delta::hist(&self.after.server, &self.before.server, name);
        ratio(sum, count)
    }

    fn clients_hist_mean(&self, name: &str) -> f64 {
        let (mut sum, mut count) = (0.0, 0.0);
        for (a, b) in self.after.clients.iter().zip(&self.before.clients) {
            let (s, c) = Delta::hist(a, b, name);
            sum += s;
            count += c;
        }
        ratio(sum, count)
    }
}

/// `a / b`, or 0 when `b` is 0 (the layer did no such work).
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The per-layer metrics of one traced pass, with the untraced pass that
/// ran beside it (a fresh stack, the same length) as the reference. A
/// metric whose layer the workload never enters reports 0.
///
/// # Errors
///
/// When the spans of the two sides cannot be paired (the trace would be
/// wrong, not merely noisy).
pub fn per_layer(
    traced: &PassResult,
    untraced: &PassResult,
    replay: &ReplayTimes,
) -> Result<(Vec<Metric>, Vec<OpBreakdown>), String> {
    const KINDS: [(u8, &str); 3] = [
        (KIND_ACQUIRE, "acquire"),
        (KIND_RELEASE, "release"),
        (KIND_POLL, "poll"),
    ];
    let t = traced.trace.as_ref().ok_or("pass was not traced")?;
    let ops = trace::breakdown(&t.ops, &t.rtts, &t.handles)?;
    let d = Delta::across(traced);
    let commits = traced.commit_ns.len() as f64;
    let reads = traced.read_ns.len() as f64;
    let of_ops = |read: bool, f: &dyn Fn(&OpBreakdown) -> u64| -> Vec<u64> {
        ops.iter().filter(|o| o.op.read == read).map(f).collect()
    };
    // One leg is (kind, transit ns, handle ns).
    let of_legs = |kind: u8, f: &dyn Fn(&(u8, u64, u64)) -> u64| -> Vec<u64> {
        ops.iter()
            .flat_map(|o| o.legs.iter())
            .filter(|l| l.0 == kind)
            .map(f)
            .collect()
    };
    let mut out = Metrics::default();

    // core: self time of the client library, and its own counters.
    out.quantiles(
        "core.commit_self_us_{}",
        of_ops(false, &|o| o.self_ns),
        &P50_P99[..1],
    );
    out.quantiles(
        "core.read_self_us_{}",
        of_ops(true, &|o| o.self_ns),
        &P50_P99[..1],
    );
    for (stage, times) in [
        ("collect", &replay.collect_us_per_mb),
        ("apply", &replay.apply_us_per_mb),
    ] {
        for block in crate::gen::bulk_blocks() {
            let us = times
                .iter()
                .find(|(n, _)| *n == block.name)
                .map_or(0.0, |(_, us)| *us);
            out.add(
                &format!("core.{stage}_us_per_mb.{}", block.name),
                us,
                "us/MB",
            );
        }
    }
    out.add(
        "core.scan_pages_per_commit",
        ratio(d.clients("client.scan.pages_total"), commits),
        "count",
    );
    out.add(
        "core.scan_bytes_per_commit",
        ratio(d.clients("client.scan.bytes_total"), commits),
        "B",
    );
    out.add(
        "core.iso_memcpy_share",
        ratio(
            d.clients("client.translate.iso_memcpy_bytes_total"),
            traced.payload_bytes as f64,
        ),
        "ratio",
    );
    out.add(
        "core.swizzle_hit_ratio",
        d.clients_share(
            "client.swizzle.cache_hits_total",
            "client.swizzle.cache_misses_total",
        ),
        "ratio",
    );
    out.add(
        "core.unswizzle_hit_ratio",
        d.clients_share(
            "client.unswizzle.cache_hits_total",
            "client.unswizzle.cache_misses_total",
        ),
        "ratio",
    );
    out.add(
        "core.pool_reuse_ratio",
        d.clients_share("client.pool.reuses_total", "client.pool.allocs_total"),
        "ratio",
    );
    out.add(
        "core.lock_busy_retries_per_op",
        ratio(d.clients("client.lock.busy_retries_total"), commits + reads),
        "count",
    );
    out.add(
        "core.lock_wait_mean_us",
        d.clients_hist_mean("client.lock.wait_us"),
        "us",
    );
    let backoff = ops.iter().map(|o| o.backoff_ns).collect();
    out.quantiles("core.backoff_us_{}", backoff, &P50_P99[1..]);

    // wire: replayed codec costs, and the compaction ratio on the wire.
    out.add(
        "wire.encode_us_per_mb",
        replay.wire_encode_us_per_mb,
        "us/MB",
    );
    out.add(
        "wire.decode_us_per_mb",
        replay.wire_decode_us_per_mb,
        "us/MB",
    );
    out.add(
        "wire.lz_compress_us_per_mb",
        replay.lz_compress_us_per_mb,
        "us/MB",
    );
    out.add(
        "wire.lz_decompress_us_per_mb",
        replay.lz_decompress_us_per_mb,
        "us/MB",
    );
    out.add(
        "wire.sent_over_raw",
        ratio(
            d.server("wire.diff_bytes_sent_total"),
            d.server("wire.diff_bytes_raw_total"),
        ),
        "ratio",
    );

    // proto: requests per op, message codec, round trips by kind.
    let requests = |read: bool| of_ops(read, &|o| o.legs.len() as u64).iter().sum::<u64>() as f64;
    out.add(
        "proto.requests_per_commit",
        ratio(requests(false), commits),
        "count",
    );
    out.add(
        "proto.requests_per_read",
        ratio(requests(true), reads),
        "count",
    );
    out.add("proto.msg_encode_us", replay.msg_encode_us, "us");
    out.add("proto.msg_decode_us", replay.msg_decode_us, "us");
    for (kind, name) in KINDS {
        out.quantiles(
            &format!("proto.rtt_us.{name}_{{}}"),
            of_legs(kind, &|l| l.1 + l.2),
            &P50_P99,
        );
    }

    // net: what a round trip spends outside the handler.
    for (kind, name) in &KINDS[..2] {
        out.quantiles(
            &format!("net.transit_us.{name}_{{}}"),
            of_legs(*kind, &|l| l.1),
            &P50_P99,
        );
    }
    let commit_transit = of_ops(false, &|o| o.legs.iter().map(|l| l.1).sum());
    let tenth = (commit_transit.len() / 10).max(1).min(commit_transit.len());
    let decile_median = |s: &[u64]| {
        let mut v = s.to_vec();
        v.sort_unstable();
        quantile(&v, 0.5)
    };
    out.0.push(metric(
        "net.transit_drift",
        ratio(
            decile_median(&commit_transit[commit_transit.len() - tenth..]),
            decile_median(&commit_transit[..tenth]),
        ),
        "ratio",
        tenth,
    ));
    out.add(
        "net.read_stalls",
        d.server("tcp.read_stalls_total"),
        "count",
    );
    out.add(
        "net.write_stalls",
        d.server("tcp.write_stalls_total"),
        "count",
    );

    // server: handler time by kind, its own counters, the isolated replay.
    for (kind, name) in KINDS {
        out.quantiles(
            &format!("server.handle_us.{name}_{{}}"),
            of_legs(kind, &|l| l.2),
            &P50_P99,
        );
    }
    out.add(
        "server.release_isolated_us",
        replay.release_isolated_us,
        "us",
    );
    out.add(
        "server.busy_share",
        ratio(d.server("server.busy_us_total") / 1e6, traced.wall_s),
        "ratio",
    );
    out.add(
        "server.lock_busy_per_grant",
        ratio(
            d.server("server.lock.busy_total"),
            d.server("server.lock.granted_total"),
        ),
        "ratio",
    );
    out.add(
        "server.segment_lock_wait_mean_us",
        d.server_hist_mean("server.segment_lock_wait_us"),
        "us",
    );
    let hits = d.server("server.enc_cache.hits_total");
    out.add(
        "server.enc_cache_hit_ratio",
        ratio(hits, hits + d.server("server.enc_cache.misses_total")),
        "ratio",
    );

    // durable: the log and its syncs.
    out.add("durable.append_sync_us", replay.append_sync_us, "us");
    out.add("durable.append_nosync_us", replay.append_nosync_us, "us");
    out.add(
        "durable.fsync_mean_us",
        d.server_hist_mean("durable.fsync_us"),
        "us",
    );
    out.add(
        "durable.appends_per_fsync",
        ratio(
            d.server("durable.wal_appends_total"),
            d.server("durable.fsyncs_total"),
        ),
        "count",
    );
    out.add(
        "durable.compactions",
        d.server("durable.compactions_total"),
        "count",
    );
    out.add(
        "durable.checkpoints",
        d.server("durable.checkpoints_written_total"),
        "count",
    );
    out.add(
        "durable.wal_bytes_per_commit",
        wal_bytes_per_commit(traced),
        "B",
    );

    // cluster: the ship link and how far the backup trails.
    let ship = t
        .ship
        .iter()
        .filter(|s| s.kind == trace::KIND_REPLICATE)
        .map(|s| s.end - s.start)
        .collect();
    out.quantiles("cluster.ship_us_{}", ship, &P50_P99);
    out.add(
        "cluster.shipped_per_commit",
        ratio(d.server("cluster.diffs_shipped_total"), commits),
        "count",
    );
    let lag = &traced.lag_samples;
    out.0.push(metric(
        "cluster.backup_lag_versions",
        ratio(lag.iter().sum::<u64>() as f64, lag.len() as f64),
        "count",
        lag.len(),
    ));
    out.add(
        "cluster.resyncs",
        d.server("cluster.resyncs_total"),
        "count",
    );

    // types, the unbounded tails and memory of the untraced pass, the
    // host, and the trace itself.
    out.add("types.flatten_us", replay.flatten_us, "us");
    for m in diagnostics(untraced)
        .into_iter()
        .filter(|m| !matches!(m.name.as_str(), "wal_bytes_per_commit" | "failed_ops_ratio"))
    {
        out.0.push(Metric {
            name: format!("diag.{}", m.name),
            ..m
        });
    }
    out.add("host.kernel_us", traced.host_kernel_us, "us");
    let rate = |r: &PassResult| r.commit_ns.len() as f64 / r.wall_s.max(1e-9);
    out.add(
        "trace.overhead_pct",
        ratio(rate(untraced) - rate(traced), rate(untraced)) * 100.0,
        "%",
    );
    Ok((out.0, ops))
}

/// The benchmark contract's result line; values keep every digit measured.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A human-readable table of metrics.
pub fn table(title: &str, metrics: &[Metric]) -> String {
    let mut s = format!("{title}\n");
    for m in metrics {
        let samples = if m.samples > 0 {
            format!("  (n={})", m.samples)
        } else {
            String::new()
        };
        s.push_str(&format!(
            "  {:<40} {:>16.4} {}{}\n",
            m.name, m.value, m.unit, samples
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_and_median() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn result_line_is_json_with_units() {
        let line = result_line(
            true,
            10,
            0,
            &[metric("a_us", 1.25, "us", 3), metric("n", 2.0, "count", 0)],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"a_us\": {\"value\": 1.25, \"unit\": \"us\"}, \"n\": {\"value\": 2, \"unit\": \"count\"}}}"
        );
    }
}
