//! End-to-end and per-layer benchmark of the qosrm workspace.
//!
//! `src/main.rs` is the one command; see `README.md` for the workloads,
//! the metrics and how a change claims a gain. Everything here times the
//! crates' public calls from outside — nothing inside them is
//! instrumented.

pub mod manager;
pub mod metrics;
pub mod serve;
pub mod stats;
pub mod sweep;
pub mod trace;
pub mod walk;
pub mod workloads;
