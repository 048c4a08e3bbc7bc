//! # cache-model
//!
//! Last-level cache substrate for the QoS-driven resource management
//! reproduction: a one-pass **LRU stack-distance profiler**
//! ([`profile::StackDistanceProfiler`]) that replays a reference stream once
//! and yields, from the resulting [`profile::ReplayProfile`]:
//!
//! * the miss count for *every* possible way allocation simultaneously (the
//!   LRU stack property exploited by utility-based cache partitioning) —
//!   both over every set (the ground truth) and over a set-sampled subset
//!   (the view of the paper's Auxiliary Tag Directory, Section III-B),
//! * the number of *leading* (non-overlapped) misses for every (core size,
//!   way allocation) combination — the view of the Paper II MLP-aware ATD
//!   extension.
//!
//! The crate operates on synthetic memory reference streams produced by the
//! `workload` crate; each access carries the cache-line address and the index
//! of the instruction that issued it.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod access;
pub mod profile;
pub mod replacement;

pub use access::{Access, AccessTrace};
pub use profile::{OverlapParams, ReplayProfile, StackDistanceProfiler};
pub use replacement::LruStack;
