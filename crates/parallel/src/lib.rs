//! # swscc-parallel — parallel runtime substrate
//!
//! The execution machinery underneath the SCC algorithms of `swscc-core`,
//! mirroring §4.3 of the SC'13 paper:
//!
//! * [`workqueue::TwoLevelQueue`] — the paper's custom work queue for
//!   task-level parallelism: a global queue plus per-thread private queues
//!   with batch size `K` (K items fetched when a local queue runs dry, K
//!   items spilled when a local queue reaches 2K). Includes the queue-depth
//!   instrumentation the paper uses in §3.3 ("recorded maximum queue depth
//!   … is only six").
//! * [`bitset::AtomicBitSet`] — the `mark` array (§4.1): lock-free
//!   node-detached flags with a fetch-or claim primitive.
//! * [`frontier::Frontier`] / [`frontier::ClaimSet`] — double-buffered
//!   frontier storage with per-worker chunked gathering and the shared
//!   visited/claim layer; the zero-allocation substrate under every
//!   level-synchronous traversal (§4.2).
//! * [`liveset::LiveSet`] — the dense ↔ sparse live-residue vertex subset:
//!   post-peel kernels iterate it instead of `0..N`, making every sweep
//!   O(|residue|) once the giant SCC is gone (GBBS-style `vertexSubset`).
//! * [`pool`] — helpers to run a closure inside a rayon pool of an exact
//!   thread count (the paper's thread-count sweep axis in Fig. 6/7).

pub mod bitset;
pub mod frontier;
pub mod liveset;
pub mod pool;
pub mod workqueue;

pub use bitset::AtomicBitSet;
pub use frontier::{ClaimSet, Frontier};
pub use liveset::{CompactionPolicy, LiveSet};
pub use workqueue::{AbortCause, QueueStats, RunAbort, TwoLevelQueue, Worker};
