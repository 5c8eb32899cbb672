//! The repository benchmark.  One command takes a workload and a seed,
//! builds the inputs, runs three stages — Fig. 8 runs on the VM and as
//! native C, a cold compile stream, and a closed-loop pe-serve mix —
//! with a workload-specific share of the time each, checks every output
//! against the standard interpreter, and prints the metrics as JSON.
//! See `NOTES.md` for the workloads and why they were chosen.

pub mod compile;
pub mod programs;
pub mod runs;
pub mod serve;
pub mod stats;
pub mod stream;
pub mod trace;
pub mod workload;
