//! # tdm-workloads — benchmark task-graph generators
//!
//! The paper evaluates TDM on five PARSECSs benchmarks and four HPC kernels
//! (Section IV-B). This crate generates, for each of them, the stream of
//! tasks the master thread would create — dependences, sizes and durations —
//! calibrated against Table II (number of tasks and average task duration at
//! the optimal granularity for the software runtime and for TDM).
//!
//! The generators reproduce the *parallelization structure* the paper
//! describes: fork-join chains (Blackscholes), tiled factorizations
//! (Cholesky, LU, QR), pipelines (Dedup, Ferret), a 3D stencil
//! (Fluidanimate), a reduction tree (Histogram) and fork-join phases
//! (Streamcluster). Granularity parameters reproduce the sweep of Figure 6.
//!
//! Every generator is a lazy [`TaskStream`] (each module's `stream`
//! function) that produces tasks one at a time for the windowed streaming
//! driver; [`TaskStream::into_workload`] collects it into an eager
//! [`Workload`](tdm_runtime::task::Workload), and
//! [`Benchmark::software_workload`] / [`Benchmark::tdm_workload`] do so at
//! the Table II granularities. Scaled-up variants
//! ([`Benchmark::scaled_stream`]) grow each benchmark's input to an
//! arbitrary task count (millions of tasks) without ever materialising the
//! task list.
//!
//! # Example
//!
//! ```
//! use tdm_workloads::Benchmark;
//!
//! let cholesky = Benchmark::Cholesky.software_workload();
//! assert_eq!(cholesky.len(), 5_984); // Table II
//!
//! // The same workload as a lazy stream, scaled to at least a million tasks.
//! let big = Benchmark::Cholesky.scaled_stream(1_000_000);
//! assert!(big.len() >= 1_000_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod blackscholes;
pub mod cholesky;
pub mod dedup;
pub mod dense;
pub mod ferret;
pub mod fluidanimate;
pub mod grammar;
pub mod histogram;
pub mod lu;
pub mod qr;
pub mod spec;
pub mod stream;
pub mod streamcluster;

pub use spec::{check_calibration, micros, Benchmark};
pub use stream::TaskStream;
