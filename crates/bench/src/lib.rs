//! Benchmark harness for the UGache reproduction.
//!
//! The [`figures`] modules regenerate every table and figure of the
//! paper's evaluation (§8). Each exposes a pure `compute` API returning
//! serializable result structs and a separate `render` layer that
//! pretty-prints them; the `repro` binary dispatches to both
//! (`repro list` shows the menu) and can emit one stable-schema JSON
//! artifact per target via [`artifact`]. Everything here runs in
//! simulated time and reads no wall clock; host-time measurement lives
//! in the standalone `benchmark/` package.

#![deny(missing_docs)]

pub mod artifact;
pub mod catalog;
pub mod chrome;
pub mod cli;
pub mod compare;
pub mod explain;
pub mod figures;
pub mod json;
pub mod metrics_catalog;
pub mod profile;
pub mod replay;
pub mod runner;
pub mod scenario;
pub mod timeline;
