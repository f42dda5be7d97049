//! Determinism of the generated inputs and of the counts that should
//! repeat exactly, and the self-time identity of the trace.

use iwbench::gen;
use iwbench::replay::ReplayTimes;
use iwbench::report;
use iwbench::workloads::{self, Budget, PassConfig, PassResult};

fn pass(workload: &str, seed: u64, ops: u64, traced: bool) -> PassResult {
    let spec = workloads::find(workload).expect("workload exists");
    let cfg = PassConfig {
        seed,
        budget: Budget::Ops(ops),
        traced,
        setups: 1,
    };
    let r = workloads::run_pass(spec, &cfg).expect("pass runs");
    assert_eq!(r.failed, 0, "{workload}: {:?}", r.errors);
    r
}

/// Sum over the client sessions of a counter's growth in the measured phase.
fn client_delta(r: &PassResult, name: &str) -> u64 {
    r.after
        .clients
        .iter()
        .zip(&r.before.clients)
        .map(|(a, b)| a.counter(name).unwrap_or(0) - b.counter(name).unwrap_or(0))
        .sum()
}

#[test]
fn same_seed_same_op_sequence_other_seed_other_pattern() {
    let shape = gen::RecordShape {
        seg_bytes: 64 << 10,
        rec_bytes: 64,
    };
    let ops = |seed: u64| -> Vec<(usize, Vec<u8>)> {
        (1..200)
            .map(|k| {
                let mut rec = vec![0u8; 64];
                shape.fill(seed, 0, k, &mut rec);
                (shape.offset(seed, 0, k), rec)
            })
            .collect()
    };
    assert_eq!(ops(9), ops(9));
    assert_ne!(ops(9), ops(10));
    let pattern = |seed: u64| -> Vec<Vec<u32>> {
        (1..50)
            .map(|round| gen::dirty_chunks(seed, 2, round))
            .collect()
    };
    assert_eq!(pattern(9), pattern(9));
    assert_ne!(pattern(9), pattern(10));
}

#[test]
fn bulk_translate_counts_repeat_exactly() {
    let (a, b) = (
        pass("bulk_translate", 5, 6, false),
        pass("bulk_translate", 5, 6, false),
    );
    assert_eq!(a.commit_ns.len(), 6);
    assert_eq!(a.read_ns.len(), 6);
    // wire_bytes_per_commit, proto.requests_per_commit and
    // core.scan_pages_per_commit are these totals over the same 6 commits.
    assert_eq!(a.wire_bytes, b.wire_bytes);
    assert_eq!(a.requests, b.requests);
    assert_eq!(a.payload_bytes, b.payload_bytes);
    let pages = client_delta(&a, "client.scan.pages_total");
    assert!(
        pages >= 6 * 64,
        "a round dirties 64 chunks, scanned {pages} pages"
    );
    assert_eq!(pages, client_delta(&b, "client.scan.pages_total"));
    // Another seed dirties other chunks with other values: the diff that
    // crosses the wire differs.
    let c = pass("bulk_translate", 6, 6, false);
    assert_eq!(a.requests, c.requests);
    assert_ne!(a.wire_bytes, c.wire_bytes);
}

#[test]
fn every_workload_passes_its_output_check_at_smoke_scale() {
    for spec in &workloads::WORKLOADS {
        let r = pass(spec.name, 3, (spec.ops / 200).max(2), false);
        assert!(
            r.attempted > r.commit_ns.len() as u64,
            "{}: output checks count as ops",
            spec.name
        );
        assert!(
            !r.commit_ns.is_empty() && !r.read_ns.is_empty(),
            "{} commits and reads",
            spec.name
        );
    }
}

/// `commit span = core.commit_self + backoff + Σ (net.transit +
/// server.handle)`, per op, also after rounding each term to whole
/// microseconds (within 1 µs per term); and every handler span nests in
/// its round trip (pairing fails otherwise).
#[test]
fn self_time_identity_holds_per_op() {
    for (workload, ops) in [
        ("small_commit", 600),
        ("contended_rw", 300),
        ("bulk_translate", 4),
    ] {
        let r = pass(workload, 11, ops, true);
        let (metrics, breakdown) =
            report::per_layer(&r, &r, &ReplayTimes::default()).expect("spans pair up");
        assert_eq!(breakdown.len(), r.commit_ns.len() + r.read_ns.len());
        for o in &breakdown {
            let span = o.op.end - o.op.start;
            let legs: u64 = o.legs.iter().map(|l| l.1 + l.2).sum();
            assert_eq!(
                span,
                o.self_ns + o.backoff_ns + legs,
                "{workload} op {}",
                o.op.id
            );
            let us = |ns: u64| (ns as f64 / 1e3).round();
            let rounded: f64 = us(o.self_ns)
                + us(o.backoff_ns)
                + o.legs.iter().map(|l| us(l.1) + us(l.2)).sum::<f64>();
            let terms = 2 + 2 * o.legs.len();
            assert!(
                (us(span) - rounded).abs() <= terms as f64,
                "{workload} op {}: {} us vs {rounded} us",
                o.op.id,
                us(span)
            );
            assert!(
                !o.legs.is_empty(),
                "{workload}: every op talks to the server"
            );
        }
        let get = |name: &str| {
            metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("{name} is reported"))
                .value
        };
        assert!(get("proto.requests_per_commit") >= 2.0);
        assert!(get("net.transit_us.release_p50") > 0.0);
        assert!(get("server.handle_us.release_p50") > 0.0);
    }
}
