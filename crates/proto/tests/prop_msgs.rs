//! Property tests for protocol message codecs and TCP framing.

use bytes::Bytes;
use iw_proto::coherence::Coherence;
use iw_proto::msg::{LockMode, Reply, Request};
use iw_telemetry::{HistogramSnapshot, Snapshot};
use iw_wire::diff::{BlockDiff, DiffRun, SegmentDiff};
use proptest::prelude::*;

fn arb_coherence() -> impl Strategy<Value = Coherence> {
    prop_oneof![
        Just(Coherence::Full),
        any::<u32>().prop_map(Coherence::Delta),
        any::<u64>().prop_map(Coherence::Temporal),
        any::<u32>().prop_map(Coherence::Diff),
    ]
}

fn arb_diff() -> impl Strategy<Value = SegmentDiff> {
    (
        any::<u64>(),
        prop::collection::vec((any::<u32>(), 0u64..1000, 1u64..8), 0..4),
        prop::collection::vec(any::<u8>(), 0..16),
    )
        .prop_map(|(from, runs, payload)| SegmentDiff {
            from_version: from,
            to_version: from.wrapping_add(1),
            block_diffs: runs
                .into_iter()
                .map(|(serial, start, count)| BlockDiff {
                    serial,
                    runs: vec![DiffRun {
                        start,
                        count,
                        data: Bytes::from(payload.clone()),
                    }],
                })
                .collect(),
            ..Default::default()
        })
}

fn arb_histogram_snapshot() -> impl Strategy<Value = HistogramSnapshot> {
    (
        prop::collection::vec(any::<u64>(), 0..5),
        prop::collection::vec(any::<u64>(), 0..6),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(bounds, counts, sum, count)| HistogramSnapshot {
            bounds,
            counts,
            sum,
            count,
        })
}

fn arb_snapshot() -> impl Strategy<Value = Snapshot> {
    (
        prop::collection::vec(("[a-z._/]{1,24}", any::<u64>()), 0..6),
        prop::collection::vec(("[a-z._/]{1,24}", any::<i64>()), 0..4),
        prop::collection::vec(("[a-z._/]{1,24}", arb_histogram_snapshot()), 0..3),
    )
        .prop_map(|(counters, gauges, histograms)| Snapshot {
            counters,
            gauges,
            histograms,
        })
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        "[ -~]{0,40}".prop_map(|info| Request::Hello { info }),
        (any::<u64>(), "[a-z./#0-9]{1,30}")
            .prop_map(|(client, segment)| Request::Open { client, segment }),
        (
            any::<u64>(),
            "[a-z./]{1,20}",
            any::<bool>(),
            any::<u64>(),
            arb_coherence()
        )
            .prop_map(|(client, segment, write, have_version, coherence)| {
                Request::Acquire {
                    client,
                    segment,
                    mode: if write {
                        LockMode::Write
                    } else {
                        LockMode::Read
                    },
                    have_version,
                    coherence,
                }
            }),
        (any::<u64>(), "[a-z./]{1,20}", prop::option::of(arb_diff())).prop_map(
            |(client, segment, diff)| Request::Release {
                client,
                segment,
                diff
            }
        ),
        (
            any::<u64>(),
            prop::collection::vec(("[a-z./]{1,12}", prop::option::of(arb_diff())), 0..3)
        )
            .prop_map(|(client, entries)| Request::Commit { client, entries }),
        (
            any::<u64>(),
            "[a-z./]{1,20}",
            any::<u64>(),
            arb_coherence(),
            any::<u64>()
        )
            .prop_map(|(client, segment, have_version, coherence, floor)| {
                Request::Poll {
                    client,
                    segment,
                    have_version,
                    coherence,
                    floor,
                }
            }),
        any::<u64>().prop_map(|client| Request::Stats { client }),
        any::<u64>().prop_map(|client| Request::Frontier { client }),
    ]
}

fn arb_reply() -> impl Strategy<Value = Reply> {
    prop_oneof![
        (any::<u64>(), prop::collection::vec("[0-9.:]{1,21}", 0..3))
            .prop_map(|(client, replicas)| Reply::Welcome { client, replicas }),
        any::<u64>().prop_map(|version| Reply::Opened { version }),
        (
            any::<u64>(),
            prop::option::of(arb_diff()),
            any::<u32>(),
            any::<u32>()
        )
            .prop_map(|(version, update, next_serial, next_type_serial)| {
                Reply::Granted {
                    version,
                    update,
                    next_serial,
                    next_type_serial,
                }
            }),
        Just(Reply::Busy),
        any::<u64>().prop_map(|version| Reply::Released { version }),
        prop::collection::vec(any::<u64>(), 0..5)
            .prop_map(|versions| Reply::Committed { versions }),
        Just(Reply::UpToDate),
        arb_diff().prop_map(|diff| Reply::Update { diff }),
        arb_snapshot().prop_map(|snapshot| Reply::Stats { snapshot }),
        "[ -~]{0,60}".prop_map(|message| Reply::Error { message }),
        prop::option::of("[0-9.:]{1,21}").prop_map(|primary| Reply::NotPrimary { primary }),
        any::<u64>().prop_map(|version| Reply::NotFresh { version }),
        (
            prop::collection::vec(("[a-z./]{1,20}", any::<u64>()), 0..4),
            prop::collection::vec("[0-9.:]{1,21}", 0..3)
        )
            .prop_map(|(segments, replicas)| Reply::Frontier { segments, replicas }),
    ]
}

proptest! {
    #[test]
    fn requests_roundtrip(req in arb_request()) {
        prop_assert_eq!(Request::decode(req.encode()).unwrap(), req);
    }

    #[test]
    fn replies_roundtrip(reply in arb_reply()) {
        prop_assert_eq!(Reply::decode(reply.encode()).unwrap(), reply);
    }

    #[test]
    fn request_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let _ = Request::decode(Bytes::from(bytes));
    }

    #[test]
    fn reply_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let _ = Reply::decode(Bytes::from(bytes));
    }

    /// Every proper prefix of a message is rejected (message bodies carry
    /// LZ envelopes, so every offset is cut, not just the tail).
    #[test]
    fn truncated_encodings_error_not_panic(req in arb_request(), reply in arb_reply()) {
        let (req, reply) = (req.encode(), reply.encode());
        for cut in 0..req.len() {
            prop_assert!(Request::decode(req.slice(..cut)).is_err(), "request cut at {}", cut);
        }
        for cut in 0..reply.len() {
            prop_assert!(Reply::decode(reply.slice(..cut)).is_err(), "reply cut at {}", cut);
        }
    }
}

mod tcp_frames {
    use iw_proto::tcp::{read_frame, write_frame};
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn frames_roundtrip() {
        let (mut a, mut b) = pair();
        write_frame(&mut a, b"hello").unwrap();
        write_frame(&mut a, &[]).unwrap();
        assert_eq!(read_frame(&mut b).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut b).unwrap().unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn clean_eof_yields_none() {
        let (a, mut b) = pair();
        drop(a);
        assert_eq!(read_frame(&mut b).unwrap(), None);
    }

    #[test]
    fn oversized_frame_rejected() {
        let (mut a, mut b) = pair();
        // Declare a 1 GiB frame without sending it.
        a.write_all(&(1u32 << 30).to_be_bytes()).unwrap();
        a.flush().unwrap();
        let err = read_frame(&mut b).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn partial_frame_is_an_error_not_a_hang() {
        let (mut a, mut b) = pair();
        a.write_all(&8u32.to_be_bytes()).unwrap();
        a.write_all(b"1234").unwrap(); // 4 of 8 bytes
        drop(a);
        assert!(read_frame(&mut b).is_err(), "mid-frame EOF must error");
    }
}
