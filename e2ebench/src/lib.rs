//! End-to-end cleaning benchmark for CHEF: whole cleaning runs of three
//! workloads, each timed call by call from outside the library. See
//! `README.md` in this directory for the workloads, the metrics and how to
//! read a traced run.

pub mod bench;
pub mod check;
pub mod env;
pub mod inproc;
pub mod procfs;
pub mod runloop;
pub mod serve;
pub mod stats;
pub mod trace;
