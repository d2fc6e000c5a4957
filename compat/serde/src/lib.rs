//! Offline stand-in for `serde`.
//!
//! The build sandbox and CI cannot reach a crates registry, so this
//! in-repo crate provides the serialization half of a subset of serde's
//! data model: the [`Serialize`]/[`Serializer`] traits with only the
//! entry points the workspace reaches (listed in [`ser`]), the compound
//! traits for sequences, tuples, maps and structs, impls for the std
//! types the workspace serializes, and a `#[derive(Serialize)]` for
//! named-field structs (re-exported from the in-repo `serde_derive`).
//! It has one backend, `ugache_bench::json::to_value`.
//!
//! Deserialization is intentionally absent: repro artifacts are read
//! back through `ugache_bench::json::parse`, which produces the same
//! dynamic value tree and needs no `Deserialize` machinery.

pub mod ser;

pub use ser::{Serialize, Serializer};
pub use serde_derive::Serialize;
