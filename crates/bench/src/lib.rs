//! # iw-bench — workloads and helpers for the paper's experiments
//!
//! Shared machinery for the figure-regeneration binaries
//! (`fig4_translation`, `fig5_granularity`, `fig6_swizzling`,
//! `fig7_datamining`, `ablations`) and the Criterion benches. The nine
//! Figure 4 data mixes are defined here exactly as the paper describes
//! them (§4.1), each sized so the local x86 image totals 1 MB.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Arc;
use std::time::{Duration, Instant};

use iw_core::{Ptr, SegHandle, Session, SessionOptions};
use iw_proto::{Handler, Loopback};
use iw_rpc::XdrType;
use iw_server::Server;
use iw_types::desc::TypeDesc;
use iw_types::MachineArch;

/// One of the paper's Figure 4 data mixes.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Paper name (`int_array`, `mix`, …).
    pub name: &'static str,
    /// Element type allocated in the shared block.
    pub ty: TypeDesc,
    /// Element count (sized for a 1 MB local image on x86).
    pub count: u32,
    /// The matching XDR descriptor for the RPC baseline.
    pub xdr: XdrType,
    /// Whether elements contain pointers (targets get allocated too).
    pub has_pointers: bool,
}

/// Total local-format bytes targeted per workload (1 MB, as in §4.1).
pub const WORKLOAD_BYTES: u32 = 1 << 20;

fn int_struct_ty() -> TypeDesc {
    TypeDesc::structure(
        "int_struct",
        vec![("f", TypeDesc::array(TypeDesc::int32(), 32))],
    )
}

fn double_struct_ty() -> TypeDesc {
    TypeDesc::structure(
        "double_struct",
        vec![("f", TypeDesc::array(TypeDesc::float64(), 32))],
    )
}

fn int_double_ty() -> TypeDesc {
    TypeDesc::structure(
        "int_double",
        vec![("i", TypeDesc::int32()), ("d", TypeDesc::float64())],
    )
}

fn mix_ty() -> TypeDesc {
    TypeDesc::structure(
        "mix",
        vec![
            ("i", TypeDesc::int32()),
            ("d", TypeDesc::float64()),
            ("s", TypeDesc::string(256)),
            ("t", TypeDesc::string(4)),
            ("p", TypeDesc::pointer()),
        ],
    )
}

/// Builds the nine Figure 4 workloads, scaled by `scale` (1.0 = the
/// paper's 1 MB; benches use smaller scales for iteration speed).
pub fn figure4_workloads(scale: f64) -> Vec<Workload> {
    let arch = MachineArch::x86();
    let sized = |ty: &TypeDesc| -> u32 {
        let elem = iw_types::layout::layout_of(ty, &arch).size.max(1);
        (((WORKLOAD_BYTES as f64 * scale) / elem as f64).round() as u32).max(1)
    };
    let xdr_int_struct = XdrType::Struct {
        fields: vec![XdrType::array(XdrType::Int, 32)],
    };
    let xdr_double_struct = XdrType::Struct {
        fields: vec![XdrType::array(XdrType::Double, 32)],
    };
    let xdr_int_double = XdrType::Struct {
        fields: vec![XdrType::Int, XdrType::Double],
    };
    let xdr_mix = XdrType::Struct {
        fields: vec![
            XdrType::Int,
            XdrType::Double,
            XdrType::String { cap: 256 },
            XdrType::String { cap: 4 },
            XdrType::pointer(XdrType::Int),
        ],
    };
    vec![
        Workload {
            name: "int_array",
            count: sized(&TypeDesc::int32()),
            ty: TypeDesc::int32(),
            xdr: XdrType::Int,
            has_pointers: false,
        },
        Workload {
            name: "double_array",
            count: sized(&TypeDesc::float64()),
            ty: TypeDesc::float64(),
            xdr: XdrType::Double,
            has_pointers: false,
        },
        Workload {
            name: "int_struct",
            count: sized(&int_struct_ty()),
            ty: int_struct_ty(),
            xdr: xdr_int_struct,
            has_pointers: false,
        },
        Workload {
            name: "double_struct",
            count: sized(&double_struct_ty()),
            ty: double_struct_ty(),
            xdr: xdr_double_struct,
            has_pointers: false,
        },
        Workload {
            name: "string",
            count: sized(&TypeDesc::string(256)),
            ty: TypeDesc::string(256),
            xdr: XdrType::String { cap: 256 },
            has_pointers: false,
        },
        Workload {
            name: "small_string",
            count: sized(&TypeDesc::string(4)),
            ty: TypeDesc::string(4),
            xdr: XdrType::String { cap: 4 },
            has_pointers: false,
        },
        Workload {
            name: "pointer",
            count: sized(&TypeDesc::pointer()),
            ty: TypeDesc::pointer(),
            xdr: XdrType::pointer(XdrType::Int),
            has_pointers: true,
        },
        Workload {
            name: "int_double",
            count: sized(&int_double_ty()),
            ty: int_double_ty(),
            xdr: xdr_int_double,
            has_pointers: false,
        },
        Workload {
            name: "mix",
            count: sized(&mix_ty()),
            ty: mix_ty(),
            xdr: xdr_mix,
            has_pointers: true,
        },
    ]
}

/// A ready-to-measure shared segment: a writer session holding one block
/// of the workload type (plus pointer targets when applicable).
pub struct Bed {
    /// Writer session.
    pub session: Session,
    /// The workload segment.
    pub handle: SegHandle,
    /// Pointer to the workload block.
    pub block: Ptr,
    /// The shared server (for attaching more clients or scraping metrics).
    pub server: Arc<Server>,
    /// The workload.
    pub workload: Workload,
}

/// Creates a fresh server + session and allocates the workload block,
/// with pointer fields (if any) aimed at an int-array target block.
pub fn setup(workload: &Workload, arch: MachineArch) -> Bed {
    setup_with_options(workload, arch, SessionOptions::default())
}

/// As [`setup`], with explicit [`SessionOptions`] — the isomorphic
/// fast-path benchmark and differential test switch the fast path off.
pub fn setup_with_options(workload: &Workload, arch: MachineArch, opts: SessionOptions) -> Bed {
    let server = Arc::new(Server::new());
    let mut session = Session::with_options(
        arch,
        Box::new(Loopback::new(server.clone() as Arc<dyn Handler>)),
        opts,
    )
    .expect("hello");
    let handle = session.open_segment("bench/data").expect("open");
    session.wl_acquire(&handle).expect("wl");
    let block = session
        .malloc(&handle, &workload.ty, workload.count, Some("blk"))
        .expect("malloc");
    if workload.has_pointers {
        let targets = session
            .malloc(
                &handle,
                &TypeDesc::int32(),
                workload.count.max(1),
                Some("targets"),
            )
            .expect("targets");
        aim_pointers(&mut session, workload, &block, &targets);
    }
    session.wl_release(&handle).expect("release");
    Bed {
        session,
        handle,
        block,
        server,
        workload: workload.clone(),
    }
}

/// Points every pointer field of the workload block at successive target
/// ints.
pub fn aim_pointers(session: &mut Session, workload: &Workload, block: &Ptr, targets: &Ptr) {
    for i in 0..workload.count {
        let elem = if workload.count == 1 {
            block.clone()
        } else {
            session.index(block, i).expect("index")
        };
        let ptr_field = match workload.name {
            "pointer" => elem,
            "mix" => session.field(&elem, "p").expect("field p"),
            other => unreachable!("workload {other} has no pointers"),
        };
        let target = session
            .index(targets, i % workload.count.max(1))
            .expect("target");
        session
            .write_ptr(&ptr_field, Some(&target))
            .expect("write ptr");
    }
}

/// Overwrites every primitive of the workload block with round-dependent
/// values (dirtying all pages through modification tracking).
pub fn dirty_all(session: &mut Session, bed_block: &Ptr, workload: &Workload, round: u32) {
    let arch = session.arch().clone();
    match workload.name {
        "int_array" => {
            let mut bytes = Vec::with_capacity(workload.count as usize * 4);
            for i in 0..workload.count {
                let v = (i ^ round) as i32;
                bytes.extend_from_slice(&if arch.endian.is_little() {
                    v.to_le_bytes()
                } else {
                    v.to_be_bytes()
                });
            }
            session
                .write_bytes_raw(bed_block, &bytes)
                .expect("raw write");
        }
        "double_array" => {
            let mut bytes = Vec::with_capacity(workload.count as usize * 8);
            for i in 0..workload.count {
                let v = f64::from(i) + f64::from(round) * 0.5;
                bytes.extend_from_slice(&if arch.endian.is_little() {
                    v.to_le_bytes()
                } else {
                    v.to_be_bytes()
                });
            }
            session
                .write_bytes_raw(bed_block, &bytes)
                .expect("raw write");
        }
        "int_struct" | "double_struct" | "int_double" | "string" | "small_string" | "pointer"
        | "mix" => {
            dirty_elementwise(session, bed_block, workload, round);
        }
        other => unreachable!("unknown workload {other}"),
    }
}

fn dirty_elementwise(session: &mut Session, block: &Ptr, workload: &Workload, round: u32) {
    for i in 0..workload.count {
        let elem = if workload.count == 1 {
            block.clone()
        } else {
            session.index(block, i).expect("index")
        };
        match workload.name {
            "int_struct" => {
                let f = session.field(&elem, "f").expect("f");
                for k in 0..32 {
                    let cell = session.index(&f, k).expect("cell");
                    session.write_i32(&cell, (i ^ k ^ round) as i32).expect("w");
                }
            }
            "double_struct" => {
                let f = session.field(&elem, "f").expect("f");
                for k in 0..32 {
                    let cell = session.index(&f, k).expect("cell");
                    session
                        .write_f64(&cell, f64::from(i * 32 + k) + f64::from(round))
                        .expect("w");
                }
            }
            "int_double" => {
                session
                    .write_i32(&session.field(&elem, "i").expect("i"), (i ^ round) as i32)
                    .expect("w");
                session
                    .write_f64(
                        &session.field(&elem, "d").expect("d"),
                        f64::from(i) + f64::from(round),
                    )
                    .expect("w");
            }
            "string" => {
                let text = format!("payload-{round}-{i:06}-{}", "x".repeat(200));
                session.write_str(&elem, &text).expect("w");
            }
            "small_string" => {
                let text = format!("{}", (i + round) % 1000)
                    .chars()
                    .take(3)
                    .collect::<String>();
                session.write_str(&elem, &text).expect("w");
            }
            "pointer" => {
                // Re-aim at a different target to genuinely change the word.
                let targets = session.mip_to_ptr("bench/data#targets").expect("targets");
                let t = session
                    .index(&targets, (i + round) % workload.count)
                    .expect("t");
                session.write_ptr(&elem, Some(&t)).expect("w");
            }
            "mix" => {
                session
                    .write_i32(&session.field(&elem, "i").expect("i"), (i ^ round) as i32)
                    .expect("w");
                session
                    .write_f64(
                        &session.field(&elem, "d").expect("d"),
                        f64::from(i) * 1.5 + f64::from(round),
                    )
                    .expect("w");
                session
                    .write_str(
                        &session.field(&elem, "s").expect("s"),
                        &format!("calendar-entry-{round}-{i:05}-{}", "y".repeat(180)),
                    )
                    .expect("w");
                session
                    .write_str(&session.field(&elem, "t").expect("t"), "ab")
                    .expect("w");
            }
            other => unreachable!("{other}"),
        }
    }
}

/// Times `f`, returning its result and the wall-clock duration.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed())
}

/// Runs `f` `n` times and returns the minimum duration (the standard
/// "best of n" for microbenchmarks).
pub fn best_of(n: usize, mut f: impl FnMut() -> Duration) -> Duration {
    (0..n.max(1)).map(|_| f()).min().expect("n >= 1")
}

/// Formats a duration in seconds with sub-millisecond precision.
pub fn secs(d: Duration) -> String {
    format!("{:.4}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_one_megabyte_on_x86() {
        let arch = MachineArch::x86();
        for w in figure4_workloads(1.0) {
            let elem = iw_types::layout::layout_of(&w.ty, &arch).size;
            let total = elem as u64 * u64::from(w.count);
            let mb = WORKLOAD_BYTES as u64;
            assert!(
                (total as i64 - mb as i64).unsigned_abs() <= elem as u64,
                "{}: {total} bytes vs 1MB target",
                w.name
            );
        }
    }

    #[test]
    fn setup_and_dirty_every_workload_small() {
        for w in figure4_workloads(0.01) {
            let mut bed = setup(&w, MachineArch::x86());
            bed.session.wl_acquire(&bed.handle).unwrap();
            dirty_all(&mut bed.session, &bed.block.clone(), &w, 1);
            let (diff, changed, _) = bed.session.collect_segment_diff(&bed.handle).unwrap();
            assert!(changed > 0, "{}: nothing changed", w.name);
            assert!(!diff.block_diffs.is_empty(), "{}", w.name);
            bed.session.wl_release(&bed.handle).unwrap();
        }
    }

    #[test]
    fn timing_helpers() {
        let (v, d) = time(|| 21 * 2);
        assert_eq!(v, 42);
        let m = best_of(3, || d);
        assert_eq!(m, d);
        assert!(secs(Duration::from_millis(1500)).starts_with("1.5"));
    }
}
