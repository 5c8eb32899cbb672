//! pe-flow: dataflow analysis over S₀ residual programs.
//!
//! The specializer's output language S₀ (defined here, in
//! [`s0`], and re-exported by pe-core) is first-order and
//! tail-recursive: procedures bind only at entry, bodies are acyclic
//! trees of conditionals, and loops are inter-procedural tail calls.
//! That makes it an ideal target for classic dataflow analysis — and
//! this crate provides the framework plus the analyses the rest of the
//! pipeline builds on:
//!
//! * [`cfg`](mod@cfg) — explicit per-procedure control-flow graphs;
//! * [`solver`] — a generic worklist fixpoint solver, governed by the
//!   same [`pe_governor`] fuel discipline as the rest of the pipeline;
//! * [`liveness`] — per-point liveness and the interprocedural
//!   parameter-liveness fixpoint;
//! * [`constprop`] — interprocedural copy/constant propagation;
//! * [`slots`] — closure-shape analysis: slot usage, escape pinning,
//!   dispatch-arm decidability;
//! * [`opt`] — the residual optimizer in two stages: Unmix-style
//!   syntactic post-processing ([`postprocess`]) and the flow passes
//!   ([`optimize`]);
//! * [`check`](mod@check) — flow-based verification (definite binding,
//!   dispatch-arm reachability, dead closure slots).
//!
//! S₀ names are resolved once, when the specializer emits a program: a
//! call names its target by [`s0::ProcId`] (a position in the program)
//! and a variable by its parameter slot, so every analysis here indexes
//! vectors instead of hashing names.
//!
//! The crate sits *below* pe-core: the specializer post-processes and
//! verifies through these analyses, and pe-core re-exports [`s0`] under
//! its historical path (`pe_core::s0`).

pub mod cfg;
pub mod check;
pub mod constprop;
pub mod liveness;
pub mod opt;
pub mod s0;
pub mod slots;
pub mod solver;

pub use check::{check, FlowDiag, FlowSeverity};
pub use opt::{optimize, postprocess, FlowStats};
pub use solver::{solve, Analysis, Direction};
