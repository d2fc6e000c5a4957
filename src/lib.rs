//! Umbrella crate for the UGache reproduction workspace.
//!
//! This crate hosts the runnable examples (`examples/`) and the cross-crate
//! integration tests (`tests/`). All functionality lives in the member
//! crates; see `ARCHITECTURE.md` for the crate table.

pub use cache_policy as policy;
pub use emb_cache as cache;
pub use emb_graph as graph;
pub use emb_util as util;
pub use emb_workload as workload;
pub use extractor as extract;
pub use gpu_memsim as memsim;
pub use gpu_platform as platform;
pub use milp;
pub use ugache;
