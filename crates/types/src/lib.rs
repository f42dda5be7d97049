//! # iw-types — type descriptors for InterWeave-rs
//!
//! This crate is the type-system substrate of InterWeave-rs, a Rust
//! reproduction of *"Efficient Distributed Shared State for Heterogeneous
//! Machine Architectures"* (Tang, Chen, Dwarkadas, Scott — ICDCS 2003).
//!
//! It provides:
//!
//! - [`arch`] — descriptions of heterogeneous machine architectures
//!   (endianness, pointer width, alignment rules);
//! - [`desc`] — machine-independent type descriptors, counted in
//!   *primitive data units*;
//! - [`layout`] — the machine-specific layout engine (C struct-layout
//!   rules driven by a [`arch::MachineArch`]);
//! - [`flat`] — flattened translation layouts with the paper's
//!   *isomorphic type descriptor* optimization, used by diff collection,
//!   diff application, and pointer swizzling;
//! - [`program`] — each flattened layout compiled to a flat copy
//!   program, the op list diff translation interprets;
//! - [`idl`] — the IDL compiler that turns interface declarations into
//!   descriptors.
//!
//! # Examples
//!
//! ```
//! use iw_types::arch::MachineArch;
//! use iw_types::flat::FlatLayout;
//! use iw_types::idl::compile;
//!
//! let module = compile("struct point { int x; double w; };")?;
//! let point = module.get("point").unwrap();
//!
//! // The same type has different local layouts on different machines…
//! // (x86 packs the double at offset 4; SPARC pads it to offset 8)
//! let on_x86 = FlatLayout::new(point, &MachineArch::x86());
//! let on_sparc = FlatLayout::new(point, &MachineArch::sparc_v9());
//! assert_eq!(on_x86.local_size(), 12);
//! assert_eq!(on_sparc.local_size(), 16);
//!
//! // …but identical machine-independent shape.
//! assert_eq!(on_x86.prim_count(), on_sparc.prim_count());
//! # Ok::<(), iw_types::idl::IdlError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arch;
pub mod desc;
pub mod flat;
pub mod idl;
pub mod layout;
pub mod program;
#[cfg(feature = "testgen")]
pub mod testgen;

pub use arch::{Endian, MachineArch};
pub use desc::{Field, PrimKind, TypeDesc, TypeKind, TypeSerial};
pub use flat::{
    FlatLayout, FlatNode, IsoBlocker, PrimIter, PrimRef, RunIter, RunRef, WireIdentity,
};
pub use idl::{compile, IdlError, IdlModule};
pub use layout::{field_offsets, field_prim_offsets, layout_of, Layout};
pub use program::{Op, Program};
