//! Extraction mechanisms (paper §3.2 and §5).
//!
//! Given a [`cache_policy::Placement`] and the key batches each GPU must
//! serve, this crate computes how the bytes actually move on the modelled
//! platform under the three mechanism families the paper compares:
//!
//! * [`Mechanism::MessageBased`] — buffer, AllToAll-exchange, reorder
//!   (SOK/NCCL style): pays extra local memory passes and phase barriers;
//! * [`Mechanism::PeerNaive`] — zero-copy peer access with random key
//!   dispatch (WholeGraph style): no extra copies, but cores congest slow
//!   links and stall (§5.2);
//! * [`Mechanism::Factored`] — UGache's factored extraction (§5.3):
//!   per-source core dedication within link tolerance plus low-priority
//!   local padding.
//!
//! Peer mechanisms run on the `gpu-memsim` event engine; the
//! message-based path uses an analytic phase model (bulk transfers are
//! bandwidth-bound, not core-scheduling-bound).

#![deny(missing_docs)]

pub mod collective;
pub mod mechanism;

pub use collective::{all_to_all_time, TransferMatrix};
pub use mechanism::{ExtractOutcome, Extractor, Mechanism};
