//! # elfie-sim
//!
//! The x86-simulator substrate of the reproduction: a shared timing core
//! model ([`core::TimingObserver`]) over set-associative caches, TLBs and
//! a next-line prefetcher ([`cache`]), plus drivers ([`drivers`]) that run
//! native programs, ELFies (unconstrained, via the system loader) and
//! pinballs (constrained replay) under three simulator personalities:
//! Sniper-like (8-core), CoreSim-like (user-level SDE vs full-system
//! Simics front-ends) and gem5-like (SE mode, Nehalem/Haswell-like
//! configs).
//!
//! The point the paper makes — and this crate preserves — is that ELFies
//! need **no simulator modifications**: [`drivers::simulate_elfie`] is the
//! ordinary program path plus the emulated ELF loader, while pinballs need
//! the dedicated replay-aware path ([`drivers::simulate_pinball`]).
//!
//! Long regions can additionally be simulated in parallel *within* the
//! region: [`shard::simulate_pinball_sharded`] runs a fast functional
//! pass whose only job is to capture interval snapshots, fans the slices
//! out over a worker pool, and deterministically stitches the per-slice
//! results (see [`shard`] for the determinism contract).

pub mod cache;
pub mod core;
pub mod drivers;
pub mod shard;

pub use crate::core::{CoreParams, KernelModel, RoiMode, SimStats, TimingObserver};
pub use cache::{Cache, CacheParams, NextLinePrefetcher, Tlb};
pub use drivers::{simulate_elfie, simulate_pinball, simulate_program, SimOutcome, Simulator};
pub use shard::{
    simulate_pinball_sharded, simulate_pinball_sharded_with_progress, ShardConfig, ShardPhase,
    ShardedOutcome, SliceReport,
};
