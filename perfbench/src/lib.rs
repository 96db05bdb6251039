//! # perfbench — end-to-end and per-layer benchmark of `av-serve`
//!
//! One command starts the shipping `av-serve` binary on loopback, drives a
//! named workload at it from one client process over at most two
//! connections, checks every response against an in-process oracle, and
//! prints its metrics as one JSON line. A traced run replays the same
//! request stream in process to split each request's time across the
//! service's layers. See `perfbench/README.md` for the workloads and
//! metrics.

pub mod drive;
pub mod gen;
pub mod iostat;
pub mod jsonl;
pub mod server;
pub mod trace;
pub mod util;
