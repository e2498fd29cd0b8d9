//! Managed-runtime substrates for the M3 reproduction.
//!
//! The paper modifies three memory-managing runtimes to participate in M3
//! (§4, §6): the HotSpot JVM with the Garbage-first collector, the Go
//! runtime, and Memcached's `malloc` (replaced by `jemalloc`). This crate
//! rebuilds each as an accounting-level model that preserves the properties
//! M3 exercises:
//!
//! - **heap-size ↔ GC-time elasticity** — a smaller heap means more frequent
//!   and therefore more total collection work (paper Fig. 1's GC bars);
//! - **memory retention** — a stock JVM *holds onto* freed regions rather
//!   than returning them to the OS (Fig. 2), while the M3-modified runtimes
//!   `madvise` freed regions back immediately;
//! - **the reclamation menu** — young vs mixed vs full collections trade
//!   speed against bytes reclaimed (§3), which is exactly what the two
//!   threshold signals choose between;
//! - **the growth watermark** — even with an unbounded max heap the JVM GCs
//!   each time usage crosses an internal watermark, then raises it
//!   (footnote 2), so GC cost never falls to zero.
//!
//! Cost models are deliberately simple (affine in bytes scanned/copied): one
//! calibrated [`gc::GcCostModel`] constant per runtime, next to the runtime
//! that pays it. The workloads crate only ever compares *shapes* across
//! configurations, never absolute times.

pub mod gc;
pub mod golang;
pub mod jvm;
pub mod native;

pub use gc::{GcCostModel, GcKind, GcStats};
pub use golang::{GoConfig, GoRuntime};
pub use jvm::{Jvm, JvmConfig};
pub use native::{AllocatorKind, NativeAllocator};

/// Errors surfaced by runtime allocation paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeError {
    /// The allocation cannot fit even after collecting everything: the heap
    /// is at its static maximum and (almost) fully live. Elastic applications
    /// respond by evicting their own data and retrying — exactly what
    /// unmodified Spark does when its block cache hits the static limit.
    HeapExhausted,
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::HeapExhausted => write!(f, "heap exhausted at static maximum"),
        }
    }
}

impl std::error::Error for RuntimeError {}
