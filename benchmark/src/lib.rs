//! # iwbench — the repository's end-to-end and per-layer benchmark
//!
//! One process holds both sides: a server stack composed the way `iwsrv`
//! composes it ([`stack`]), and closed-loop generators driving
//! `iw_core::Session`s over loopback TCP ([`workloads`]). Every layer is
//! measured from outside — by timing calls into its public functions and
//! by reading its public registry — so no crate of the repository changes.
//! See `README.md` for the metric and workload tables.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod affinity;
pub mod gen;
pub mod host;
pub mod replay;
pub mod report;
pub mod stack;
pub mod trace;
pub mod workloads;
