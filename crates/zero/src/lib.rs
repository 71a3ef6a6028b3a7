//! # dsi-zero — ZeRO-Inference: heterogeneous GPU+CPU+NVMe inference
//! (Sec. VI)
//!
//! ZeRO-Inference "pins the model weights either in DRAM (if large enough)
//! or NVMe, and streams each layer into GPU memory for computation when
//! needed", spending GPU memory on large batches instead of on weights.
//! This crate implements:
//!
//! * [`tiers`] — placement: where do the weights live (GPU / DRAM / NVMe),
//!   and what is the largest model each strategy (GPU-only, CPU-only,
//!   ZeRO-Inference) can serve on a node — the 25×/10× model-scale claims of
//!   Sec. VII-D1.
//! * [`engine`] — the **analytical baseline**: per-layer fetch tasks
//!   (bottlenecked by NVMe or PCIe), prefetch `k` layers ahead (Sec. VI-B),
//!   multi-GPU partitioned fetch with an intra-node all-gather, and the
//!   max-batch solver that converts freed GPU memory into throughput.
//!   Schedules run on the discrete-event engine so overlap is simulated,
//!   not assumed.
//! * [`offload`] — the **executed** tiered weight store: a memory-mapped,
//!   per-panel-checksummed v2 weight file served under a resident-byte
//!   budget by a prefetch worker, with seeded I/O fault injection, bounded
//!   re-reads, clock-measured fetch deadlines, and graceful degradation to
//!   synchronous fetch when the prefetcher dies.
//!
//! The store implements `dsi_model::fast::WeightSource`, so the one paged
//! decode engine (`dsi_model::paged::PagedEngine`) runs over it exactly as
//! over resident weights, and `dsi-serve` hosts it behind
//! `EngineMode::Streamed` with the same scheduler, page-granular admission
//! and shedding as resident continuous batching.

pub mod engine;
pub mod offload;
pub mod store;
pub mod tiers;

pub use engine::{ZeroInference, ZeroReport};
pub use offload::{OffloadConfig, OffloadError, OffloadStats, OffloadStore, ResidentGroup};
pub use store::{streamed_forward, StreamingStore};
pub use tiers::{cpu_only_feasible, gpu_only_feasible, place_weights, Tier};
