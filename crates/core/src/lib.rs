//! # tdm-core — the Dependence Management Unit (DMU)
//!
//! This crate implements the hardware contribution of *Architectural Support
//! for Task Dependence Management with Flexible Software Scheduling*
//! (HPCA 2018): the **DMU**, a centralized unit that tracks in-flight tasks
//! and the dependences between them on behalf of a task-based data-flow
//! runtime, while leaving scheduling decisions to software.
//!
//! The DMU is composed of (Figure 3 of the paper):
//!
//! * the **Task Alias Table** and **Dependence Alias Table** ([`alias`]),
//!   set-associative directories that rename 64-bit descriptor / dependence
//!   addresses into small internal IDs, with the dynamic index-bit selection
//!   of Section III-B1;
//! * the **Task Table** and **Dependence Table** ([`tables`]), direct-mapped
//!   SRAMs holding per-task and per-dependence bookkeeping;
//! * three **list arrays** ([`list_array`]) storing successor, dependence and
//!   reader lists in an inode-like chained layout (Figure 5);
//! * the **Ready Queue**, a FIFO of tasks whose dependences are all
//!   satisfied, kept inside [`dmu::Dmu`].
//!
//! The operational model of Section III-C — `create_task`, `add_dependence`
//! (Algorithm 1), `finish_task` (Algorithm 2) and `get_ready_task` — lives in
//! [`dmu`], one method per ISA instruction. Every operation reports the
//! SRAM accesses it performed ([`access`]) so the timing simulation can
//! charge DMU latency faithfully, and [`area`] reproduces the storage
//! arithmetic behind Table III.
//!
//! # Example
//!
//! ```
//! use tdm_core::config::DmuConfig;
//! use tdm_core::dmu::Dmu;
//! use tdm_core::ids::{DepAddr, DepDirection, DescriptorAddr};
//!
//! let mut dmu = Dmu::new(DmuConfig::default());
//! let producer = DescriptorAddr(0x1000);
//! let consumer = DescriptorAddr(0x2000);
//!
//! dmu.create_task(producer)?;
//! dmu.add_dependence(producer, DepAddr(0xA000), 4096, DepDirection::Out)?;
//! dmu.submit_task(producer)?;
//!
//! dmu.create_task(consumer)?;
//! dmu.add_dependence(consumer, DepAddr(0xA000), 4096, DepDirection::In)?;
//! dmu.submit_task(consumer)?;
//!
//! assert_eq!(dmu.get_ready_task().value.unwrap().descriptor, producer);
//! dmu.finish_task(producer)?;
//! assert_eq!(dmu.get_ready_task().value.unwrap().descriptor, consumer);
//! # Ok::<(), tdm_core::dmu::DmuError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod access;
pub mod alias;
pub mod area;
pub mod config;
pub mod dmu;
pub mod ids;
pub mod list_array;
pub mod tables;

pub use access::{AccessCounter, DmuStructure};
pub use alias::{AliasError, AliasTable};
pub use area::DmuStorageReport;
pub use config::{DmuConfig, IndexPolicy};
pub use dmu::{Dmu, DmuError, DmuResult, DmuStats, ReadyTask, StallReason};
pub use ids::{DepAddr, DepDirection, DepId, DescriptorAddr, TaskId};
