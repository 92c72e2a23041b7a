//! # vlpp-core — Variable Length Path Branch Prediction
//!
//! A from-scratch implementation of the predictor proposed by Stark,
//! Evers, and Patt in *Variable Length Path Branch Prediction*
//! (ASPLOS-VIII, 1998).
//!
//! ## The idea
//!
//! Path-based predictors index a prediction table with a hash of the
//! target addresses of the last `N` branches. Fixing `N` globally is a
//! compromise: some branches are determined by a long path, others by a
//! short one, and hashing irrelevant path prefix into the index wastes
//! table capacity and stretches training time. This predictor computes
//! **all** path hashes `HF_1 … HF_N` simultaneously (cheaply, via the
//! §4.1 partial-sum registers) and selects, per static branch, which one
//! indexes the table — the selection coming from a two-step profiling
//! heuristic (§3.5), a hardware selector (§3.4), or a fixed default.
//!
//! ## Map of the crate
//!
//! | Paper section | Module |
//! |---|---|
//! | §3.1 predictor structure (Fig. 1, 2) | [`thb`], [`hash`], [`table`], [`path`] |
//! | §3.2 recording the path | [`thb`] ([`Thb::observe`](thb::Thb::observe)) |
//! | §3.3 rotate-then-XOR hash functions | [`hash`] |
//! | §3.4 hash selection | [`select`] |
//! | §3.5 profiling heuristic | [`profile`] |
//! | §4.1 single-XOR evaluation | [`hash::IncrementalHashers`] |
//! | §4 practicality: the throughput kernel | [`kernel`] |
//! | §4.3 pipelining / HFNT (Fig. 3, 4) | [`hfnt`] |
//! | §6 future work: call/return history stack | [`stack`] |
//! | §2 related work: Tarlescu elastic history | [`elastic`] |
//! | §2 related work: Driesen–Hölzle dual-length hybrid | [`cascade`] |
//!
//! The user-facing predictors are [`PathConditional`] and
//! [`PathIndirect`]; both implement the `vlpp-predict` traits, so the
//! `vlpp-sim` runner drives them interchangeably with the baselines.
//!
//! ## Example: fixed- and variable-length path prediction
//!
//! ```
//! use vlpp_core::{HashAssignment, PathConditional, PathConfig};
//! use vlpp_predict::ConditionalPredictor;
//! use vlpp_trace::Addr;
//!
//! let config = PathConfig::conditional_for_bytes(4096);
//!
//! // Fixed length: every branch hashes the last 9 targets (Table 2's
//! // best length for a 4 KB table).
//! let mut flp = PathConditional::new(config.clone(), HashAssignment::fixed(9));
//! let _ = flp.predict(Addr::new(0x1000));
//!
//! // Variable length: per-branch lengths, normally produced by
//! // `profile::ProfileBuilder`.
//! let mut assignment = HashAssignment::fixed(9);
//! assignment.assign(Addr::new(0x1000), 3);
//! let mut vlp = PathConditional::new(config, assignment);
//! let _ = vlp.predict(Addr::new(0x1000));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cascade;
pub mod elastic;
pub mod hash;
pub mod hfnt;
pub mod kernel;
pub mod path;
pub mod profile;
pub mod select;
pub mod stack;
pub mod table;
pub mod thb;

pub use cascade::DualLengthPathIndirect;
pub use elastic::ElasticGshare;
pub use hash::{hash_path, IncrementalHashers, RollingHashers};
pub use hfnt::{Hfnt, HfntStats};
pub use kernel::{CondKernel, IndKernel, KernelState, TargetPlane};
pub use path::{PathConditional, PathConfig, PathIndirect};
pub use profile::{Population, ProfileBuilder, ProfileConfig, ProfileReport, Step1Report};
pub use select::{DynamicSelector, HashAssignment};
pub use stack::HistoryStack;
pub use table::{CounterTable, TargetTable};
pub use thb::Thb;

/// The THB capacity the paper uses: at most 32 target addresses, hence
/// hash functions `HF_1 … HF_32`.
pub const MAX_PATH_LENGTH: usize = 32;
