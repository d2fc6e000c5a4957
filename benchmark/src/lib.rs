//! The repository's benchmark: four workloads that drive every layer of
//! the UGache reproduction from outside, through public functions only.
//!
//! Two kinds of number are kept apart by prefix. *Host* metrics are what
//! the Rust process costs on this machine; they are noisy. `sim_`
//! metrics are what the modelled multi-GPU server would do; at one seed
//! they repeat exactly. A change meant only to make the code faster must
//! leave every `sim_` metric identical; a change to policy or mechanism
//! is judged on them. See `README.md` for definitions.

#![deny(missing_docs)]

pub mod catalog;
pub mod check;
pub mod oplog;
pub mod probes;
pub mod report;
pub mod shadow;
pub mod trace;
pub mod workloads;
