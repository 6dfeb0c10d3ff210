//! Versioned binary snapshot codec for checkpoint/restart.
//!
//! Long-running regions (billion-task streams, multi-hour sweeps) need to
//! survive a job-slot boundary: the driver periodically captures its full
//! mid-run state into a [`Snapshot`], writes it to disk, and a later process
//! restores it and continues — producing the exact same [`RunReport`] a
//! straight-through run would have produced (this is pinned by the
//! `snapshot` conformance suite).
//!
//! This module owns the *container format* and the low-level field codec;
//! the driver-level capture/restore logic lives above it in
//! `tdm_runtime::exec` (`simulate_stream_checkpointed_outcome` /
//! `resume_stream_outcome`),
//! because the state being captured — engines, schedulers, task feeds —
//! is defined in the upper crates. The byte-level layout is specified in
//! `SNAPSHOT_FORMAT.md` at the repository root; the format document and
//! the [`SECTIONS`] registry below are kept in lockstep by a conformance
//! test that enumerates one against the other.
//!
//! # Container layout
//!
//! A snapshot file is a fixed header, a section table, and concatenated
//! section payloads (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"TDMSNAP\0"
//! 8       4     format version (currently 2)
//! 12      4     section count N
//! 16      24*N  section table: { id: u32, offset: u64, len: u64, crc: u32 }
//! ...           payloads, at the offsets recorded in the table
//! ```
//!
//! Every section payload carries a CRC-32 (IEEE) in the table, checked on
//! load; a reader rejects bad magic, future format versions, truncated
//! files and corrupt payloads with distinct, actionable [`SnapshotError`]s.
//!
//! # Field codec
//!
//! Section payloads are encoded with the [`Persist`] trait: fixed-width
//! little-endian integers, `u64` length prefixes for sequences, `u8` tags
//! for options and enums, IEEE-754 bit patterns for floats. The encoding
//! has no self-description — reader and writer must agree on the layout,
//! which is exactly what the format version in the header pins.
//!
//! # Example
//!
//! ```
//! use tdm_sim::snapshot::{Persist, Reader, Snapshot, section};
//!
//! let mut payload = Vec::new();
//! 42u64.save(&mut payload);
//! let mut snap = Snapshot::new();
//! snap.add_section(section::DRIVER, payload);
//!
//! let bytes = snap.to_bytes();
//! let back = Snapshot::from_bytes(&bytes).unwrap();
//! let mut r = Reader::new(back.section(section::DRIVER).unwrap());
//! assert_eq!(u64::load(&mut r).unwrap(), 42);
//! ```
//!
//! [`RunReport`]: https://docs.rs/tdm-runtime

use std::collections::VecDeque;
use std::fmt;

use crate::clock::Cycle;

/// The 8-byte file magic: `TDMSNAP` plus a NUL terminator.
pub const MAGIC: [u8; 8] = *b"TDMSNAP\0";

/// Current snapshot format version. Bumped whenever any section layout or
/// the container itself changes incompatibly; readers reject snapshots
/// written by a *newer* format outright (no forward compatibility), and
/// this reproduction keeps no legacy decoders — an old snapshot is
/// regenerated, not migrated (see `SNAPSHOT_FORMAT.md`, "Versioning").
pub const FORMAT_VERSION: u32 = 2;

/// Well-known section identifiers.
///
/// Each constant names one section a snapshot producer may write; the
/// [`SECTIONS`] registry pairs every id with its name and a summary, and
/// `SNAPSHOT_FORMAT.md` documents the payload layout of each. IDs are
/// never reused: a retired section's id is retired with it.
pub mod section {
    /// Run identity: feed kind, workload name, backend, scheduler, and the
    /// execution-config fingerprint the resume path validates against.
    pub const META: u32 = 0x01;
    /// Driver scalars and per-core state: simulated clock, creation cursor,
    /// finish count, running tasks, idle bookkeeping, makespan-so-far.
    pub const DRIVER: u32 = 0x02;
    /// Event queue: the queue's clock and every pending event in delivery
    /// order.
    pub const EVENTS: u32 = 0x03;
    /// Simulation statistics accumulated so far (per-core phase breakdowns,
    /// task and DMU counters).
    pub const STATS: u32 = 0x04;
    /// Data-locality model: per-core MRU block lists.
    pub const LOCALITY: u32 = 0x05;
    /// Ready-pool (scheduler) state, including the Age policy's sequence
    /// ring.
    pub const SCHEDULER: u32 = 0x06;
    /// Dependence-engine state: software tracking tables, or the DMU slabs
    /// (alias/task/dependence tables, list arrays, ready queue) plus the
    /// engine-level descriptor bookkeeping.
    pub const ENGINE: u32 = 0x07;
    /// Task-feed state: the source cursor plus the bounded in-flight window
    /// of task specs (cursors, not buffered future tasks — see
    /// `ARCHITECTURE.md`).
    pub const FEED: u32 = 0x08;
    /// Schedule trace rows captured so far (present only when
    /// `ExecConfig::trace_schedule` is on).
    pub const TRACE: u32 = 0x09;
    /// `bench_scale` resume parameters: benchmark name, scaled task count,
    /// and the flags needed to rebuild the generator on resume.
    pub const BENCH: u32 = 0x0A;
    /// Fault-injection bookkeeping: per-task failure counts, per-core
    /// completion counts, the retired-core bitmap, the pending-retry queue
    /// and the fault/retry counters. All-zero when fault injection is off.
    pub const FAULT: u32 = 0x0B;
}

/// One entry of the [`SECTIONS`] registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionInfo {
    /// Section identifier as stored in the section table.
    pub id: u32,
    /// Canonical upper-case name, as used in `SNAPSHOT_FORMAT.md`.
    pub name: &'static str,
    /// One-line summary of what the section holds.
    pub summary: &'static str,
}

/// Registry of every section id any producer in this workspace writes.
///
/// `SNAPSHOT_FORMAT.md` must describe exactly these sections; the
/// `snapshot` conformance suite enumerates this table against the
/// document's section table and against the ids captured snapshots
/// actually contain.
pub const SECTIONS: &[SectionInfo] = &[
    SectionInfo {
        id: section::META,
        name: "META",
        summary: "run identity and config fingerprint",
    },
    SectionInfo {
        id: section::DRIVER,
        name: "DRIVER",
        summary: "driver scalars and per-core state",
    },
    SectionInfo {
        id: section::EVENTS,
        name: "EVENTS",
        summary: "event-queue clock and pending events",
    },
    SectionInfo {
        id: section::STATS,
        name: "STATS",
        summary: "simulation statistics accumulated so far",
    },
    SectionInfo {
        id: section::LOCALITY,
        name: "LOCALITY",
        summary: "per-core cache-residency lists",
    },
    SectionInfo {
        id: section::SCHEDULER,
        name: "SCHEDULER",
        summary: "ready-pool state",
    },
    SectionInfo {
        id: section::ENGINE,
        name: "ENGINE",
        summary: "dependence-engine state (software tables or DMU slabs)",
    },
    SectionInfo {
        id: section::FEED,
        name: "FEED",
        summary: "task-source cursor and in-flight window",
    },
    SectionInfo {
        id: section::TRACE,
        name: "TRACE",
        summary: "schedule trace rows",
    },
    SectionInfo {
        id: section::BENCH,
        name: "BENCH",
        summary: "bench_scale generator parameters for resume",
    },
    SectionInfo {
        id: section::FAULT,
        name: "FAULT",
        summary: "fault-injection bookkeeping and retry queue",
    },
];

/// Looks up a section id in the [`SECTIONS`] registry.
pub fn section_info(id: u32) -> Option<&'static SectionInfo> {
    SECTIONS.iter().find(|s| s.id == id)
}

/// Errors produced while encoding, decoding or validating a snapshot.
///
/// Every variant renders to a message that tells the operator what is
/// wrong with the file and what to do about it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file does not start with [`MAGIC`] — it is not a snapshot.
    BadMagic {
        /// The first eight bytes actually found.
        found: [u8; 8],
    },
    /// The file was written by a newer format than this build understands.
    UnsupportedVersion {
        /// Version recorded in the file header.
        found: u32,
        /// Highest version this build can read.
        supported: u32,
    },
    /// The file ends before the structure it promises (header, section
    /// table, or a section payload).
    Truncated {
        /// What was being read when the data ran out.
        context: &'static str,
    },
    /// A section payload does not match its recorded CRC-32.
    CrcMismatch {
        /// Identifier of the damaged section.
        section: u32,
    },
    /// A section the restore path requires is absent.
    MissingSection {
        /// Identifier of the absent section.
        section: u32,
    },
    /// A payload decoded structurally but its contents are inconsistent
    /// (bad enum tag, trailing bytes, out-of-range index, or a snapshot
    /// that does not match the run configuration it is being resumed
    /// into).
    Corrupt {
        /// Human-readable description of the inconsistency.
        context: String,
    },
    /// An underlying file read/write failed.
    Io(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic { found } => write!(
                f,
                "not a TDM snapshot: file starts with {found:02x?} instead of the \
                 \"TDMSNAP\\0\" magic — the path probably points at the wrong file"
            ),
            SnapshotError::UnsupportedVersion { found, supported } => write!(
                f,
                "snapshot format version {found} is newer than the highest version this \
                 build reads ({supported}) — re-run with the build that wrote the \
                 snapshot, or regenerate it with this one"
            ),
            SnapshotError::Truncated { context } => write!(
                f,
                "snapshot is truncated while reading {context} — the file was cut short \
                 (incomplete write or copy); take a fresh checkpoint"
            ),
            SnapshotError::CrcMismatch { section } => {
                let name = section_info(*section).map(|s| s.name).unwrap_or("unknown");
                write!(
                    f,
                    "CRC mismatch in section {section:#04x} ({name}) — the snapshot is \
                     corrupt on disk; take a fresh checkpoint"
                )
            }
            SnapshotError::MissingSection { section } => {
                let name = section_info(*section).map(|s| s.name).unwrap_or("unknown");
                write!(
                    f,
                    "snapshot has no section {section:#04x} ({name}) — it was written by \
                     a different run mode and cannot be resumed this way"
                )
            }
            SnapshotError::Corrupt { context } => {
                write!(f, "snapshot payload is inconsistent: {context}")
            }
            SnapshotError::Io(msg) => write!(f, "snapshot I/O failed: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320)
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        // tdm-lint: allow(C1): `i < 256` always fits in u32, and const fns cannot use try_from.
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        // tdm-lint: allow(T1): `i` is the loop bound of this 256-entry table, and const fns cannot use iterators.
        table[i] = crc;
        i += 1;
    }
    table
}

const CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) of `bytes`, as used for the per-section checksums.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        // tdm-lint: allow(T1, C1): the index is masked to 8 bits, so both the 256-entry lookup and the usize cast are total.
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Container
// ---------------------------------------------------------------------------

/// Reads `N` bytes at `offset`, or `Truncated { context }` when `bytes` is
/// too short. The container decoder's only primitive — bounds-checked, so
/// the decoder stays total.
fn read_le<const N: usize>(
    bytes: &[u8],
    offset: usize,
    context: &'static str,
) -> Result<[u8; N], SnapshotError> {
    let Some(slice) = offset.checked_add(N).and_then(|end| bytes.get(offset..end)) else {
        return Err(SnapshotError::Truncated { context });
    };
    let mut array = [0u8; N];
    for (dst, src) in array.iter_mut().zip(slice) {
        *dst = *src;
    }
    Ok(array)
}

/// Size of the fixed header (magic + version + section count).
const HEADER_LEN: usize = 16;
/// Size of one section-table entry (id + offset + len + crc).
const TABLE_ENTRY_LEN: usize = 24;

/// A decoded (or under-construction) snapshot: an ordered list of
/// `(section id, payload)` pairs plus the serialization to and from the
/// container format described in the module docs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    sections: Vec<(u32, Vec<u8>)>,
}

impl Snapshot {
    /// An empty snapshot with no sections.
    pub fn new() -> Self {
        Snapshot::default()
    }

    /// Appends a section.
    ///
    /// # Panics
    ///
    /// Panics if `id` was already added — each section appears at most once.
    pub fn add_section(&mut self, id: u32, payload: Vec<u8>) {
        assert!(
            !self.sections.iter().any(|&(existing, _)| existing == id),
            "duplicate snapshot section {id:#04x}"
        );
        self.sections.push((id, payload));
    }

    /// The payload of section `id`, or [`SnapshotError::MissingSection`].
    pub fn section(&self, id: u32) -> Result<&[u8], SnapshotError> {
        self.sections
            .iter()
            .find(|&&(existing, _)| existing == id)
            .map(|(_, payload)| payload.as_slice())
            .ok_or(SnapshotError::MissingSection { section: id })
    }

    /// The ids of all sections, in file order.
    pub fn section_ids(&self) -> Vec<u32> {
        self.sections.iter().map(|&(id, _)| id).collect()
    }

    /// Serializes the snapshot to the container format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let payload_total: usize = self.sections.iter().map(|(_, p)| p.len()).sum();
        let table_len = self.sections.len() * TABLE_ENTRY_LEN;
        let mut out = Vec::with_capacity(HEADER_LEN + table_len + payload_total);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        // tdm-lint: allow(C1): section ids are unique u32s (add_section asserts), so the count fits; this is the writer, not the untrusted decoder.
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        let mut offset = (HEADER_LEN + table_len) as u64;
        for (id, payload) in &self.sections {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&offset.to_le_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&crc32(payload).to_le_bytes());
            offset += payload.len() as u64;
        }
        for (_, payload) in &self.sections {
            out.extend_from_slice(payload);
        }
        out
    }

    /// Parses and validates a snapshot from `bytes`: magic, version,
    /// section-table bounds and every per-section CRC. Total: any byte
    /// string maps to `Ok` or a typed [`SnapshotError`], never a panic.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let magic: [u8; 8] = read_le(bytes, 0, "file header")?;
        if magic != MAGIC {
            return Err(SnapshotError::BadMagic { found: magic });
        }
        let version = u32::from_le_bytes(read_le(bytes, 8, "file header")?);
        if version > FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let raw_count = u32::from_le_bytes(read_le(bytes, 12, "file header")?);
        let count = usize::try_from(raw_count).map_err(|_| SnapshotError::Truncated {
            context: "section table",
        })?;
        let table_end = count
            .checked_mul(TABLE_ENTRY_LEN)
            .and_then(|t| t.checked_add(HEADER_LEN))
            .filter(|&end| end <= bytes.len());
        if table_end.is_none() {
            return Err(SnapshotError::Truncated {
                context: "section table",
            });
        }
        let mut sections = Vec::with_capacity(count);
        for i in 0..count {
            // In bounds: `i < count` and the whole table fits (checked above).
            let entry = HEADER_LEN + i * TABLE_ENTRY_LEN;
            let id = u32::from_le_bytes(read_le(bytes, entry, "section table")?);
            let offset = u64::from_le_bytes(read_le(bytes, entry + 4, "section table")?);
            let len = u64::from_le_bytes(read_le(bytes, entry + 12, "section table")?);
            let crc = u32::from_le_bytes(read_le(bytes, entry + 20, "section table")?);
            let (Ok(offset), Ok(len)) = (usize::try_from(offset), usize::try_from(len)) else {
                return Err(SnapshotError::Truncated {
                    context: "section payload",
                });
            };
            let Some(payload) = offset
                .checked_add(len)
                .and_then(|end| bytes.get(offset..end))
            else {
                return Err(SnapshotError::Truncated {
                    context: "section payload",
                });
            };
            if crc32(payload) != crc {
                return Err(SnapshotError::CrcMismatch { section: id });
            }
            sections.push((id, payload.to_vec()));
        }
        Ok(Snapshot { sections })
    }

    /// Writes the serialized snapshot to `path`.
    pub fn write_to(&self, path: &std::path::Path) -> Result<(), SnapshotError> {
        std::fs::write(path, self.to_bytes())
            .map_err(|e| SnapshotError::Io(format!("cannot write {}: {e}", path.display())))
    }

    /// Reads and validates a snapshot from `path`.
    pub fn read_from(path: &std::path::Path) -> Result<Self, SnapshotError> {
        let bytes = std::fs::read(path)
            .map_err(|e| SnapshotError::Io(format!("cannot read {}: {e}", path.display())))?;
        Snapshot::from_bytes(&bytes)
    }
}

// ---------------------------------------------------------------------------
// Field codec
// ---------------------------------------------------------------------------

/// A bounds-checked cursor over a section payload.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a section payload.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Consumes exactly `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let Some(slice) = self
            .pos
            .checked_add(n)
            .and_then(|end| self.bytes.get(self.pos..end))
        else {
            return Err(SnapshotError::Truncated {
                context: "section field",
            });
        };
        self.pos += n;
        Ok(slice)
    }

    /// Consumes exactly `N` bytes as a fixed-size array (the `from_le_bytes`
    /// feeder — total by construction, no length `expect` needed).
    pub fn take_array<const N: usize>(&mut self) -> Result<[u8; N], SnapshotError> {
        let slice = self.take(N)?;
        let mut array = [0u8; N];
        for (dst, src) in array.iter_mut().zip(slice) {
            *dst = *src;
        }
        Ok(array)
    }

    /// Asserts the payload was consumed exactly; trailing bytes mean the
    /// writer and reader disagree on the layout.
    pub fn expect_end(&self, what: &str) -> Result<(), SnapshotError> {
        if self.remaining() != 0 {
            return Err(SnapshotError::Corrupt {
                context: format!("{} bytes left over after decoding {what}", self.remaining()),
            });
        }
        Ok(())
    }
}

/// Serialization to and from the snapshot field codec.
///
/// Implementations must be exact: a round trip through `save`/`load`
/// reconstructs the value bit-for-bit, including container *order* for
/// collections whose iteration order the simulation observes (free lists,
/// queues, LRU lists). Types whose in-memory layout includes unobservable
/// state (hash maps, derived indices) serialize a canonical form instead
/// and rebuild the rest on load.
pub trait Persist: Sized {
    /// Appends the encoded value to `out`.
    fn save(&self, out: &mut Vec<u8>);
    /// Decodes one value from `r`.
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError>;
}

macro_rules! persist_int {
    ($($t:ty),*) => {$(
        impl Persist for $t {
            fn save(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
                Ok(<$t>::from_le_bytes(r.take_array()?))
            }
        }
    )*};
}

persist_int!(u8, u16, u32, u64, i64);

impl Persist for usize {
    fn save(&self, out: &mut Vec<u8>) {
        (*self as u64).save(out);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let v = u64::load(r)?;
        usize::try_from(v).map_err(|_| SnapshotError::Corrupt {
            context: format!("value {v} does not fit in usize on this host"),
        })
    }
}

impl Persist for bool {
    fn save(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        match u8::load(r)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapshotError::Corrupt {
                context: format!("boolean tag {other} (expected 0 or 1)"),
            }),
        }
    }
}

impl Persist for f64 {
    fn save(&self, out: &mut Vec<u8>) {
        self.to_bits().save(out);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(f64::from_bits(u64::load(r)?))
    }
}

impl Persist for String {
    fn save(&self, out: &mut Vec<u8>) {
        (self.len() as u64).save(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let len = checked_len(r)?;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapshotError::Corrupt {
            context: "string field is not valid UTF-8".to_string(),
        })
    }
}

impl Persist for Cycle {
    fn save(&self, out: &mut Vec<u8>) {
        self.raw().save(out);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(Cycle::new(u64::load(r)?))
    }
}

impl<T: Persist> Persist for Option<T> {
    fn save(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.save(out);
            }
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        match u8::load(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::load(r)?)),
            other => Err(SnapshotError::Corrupt {
                context: format!("option tag {other} (expected 0 or 1)"),
            }),
        }
    }
}

/// Reads a `u64` length prefix and sanity-checks it against the bytes
/// actually remaining (every element occupies at least one byte), so a
/// corrupt length cannot trigger an enormous allocation.
fn checked_len(r: &mut Reader<'_>) -> Result<usize, SnapshotError> {
    let raw = u64::load(r)?;
    usize::try_from(raw)
        .ok()
        .filter(|&len| len <= r.remaining())
        .ok_or(SnapshotError::Truncated {
            context: "length-prefixed sequence",
        })
}

impl<T: Persist> Persist for Vec<T> {
    fn save(&self, out: &mut Vec<u8>) {
        (self.len() as u64).save(out);
        for item in self {
            item.save(out);
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let len = checked_len(r)?;
        let mut items = Vec::with_capacity(len);
        for _ in 0..len {
            items.push(T::load(r)?);
        }
        Ok(items)
    }
}

impl<T: Persist> Persist for VecDeque<T> {
    fn save(&self, out: &mut Vec<u8>) {
        (self.len() as u64).save(out);
        for item in self {
            item.save(out);
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let len = checked_len(r)?;
        let mut items = VecDeque::with_capacity(len);
        for _ in 0..len {
            items.push_back(T::load(r)?);
        }
        Ok(items)
    }
}

impl<A: Persist, B: Persist> Persist for (A, B) {
    fn save(&self, out: &mut Vec<u8>) {
        self.0.save(out);
        self.1.save(out);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok((A::load(r)?, B::load(r)?))
    }
}

impl<A: Persist, B: Persist, C: Persist> Persist for (A, B, C) {
    fn save(&self, out: &mut Vec<u8>) {
        self.0.save(out);
        self.1.save(out);
        self.2.save(out);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok((A::load(r)?, B::load(r)?, C::load(r)?))
    }
}

/// Convenience: encodes one [`Persist`] value as a standalone payload.
pub fn to_payload<T: Persist>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.save(&mut out);
    out
}

/// Convenience: decodes one [`Persist`] value from a whole payload,
/// requiring the payload to be fully consumed.
pub fn from_payload<T: Persist>(payload: &[u8], what: &str) -> Result<T, SnapshotError> {
    let mut r = Reader::new(payload);
    let value = T::load(&mut r)?;
    r.expect_end(what)?;
    Ok(value)
}

// Persist impls for sim types with private fields live next to those types
// (`rng::SplitMix64`, `cache::LocalityModel`, `event::EventQueue`);
// `stats::SimStats` is fully public, so its impl lives here.

impl Persist for crate::stats::CoreBreakdown {
    fn save(&self, out: &mut Vec<u8>) {
        for phase in crate::stats::Phase::ALL {
            self.get(phase).save(out);
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let mut breakdown = crate::stats::CoreBreakdown::default();
        for phase in crate::stats::Phase::ALL {
            breakdown.add(phase, Cycle::load(r)?);
        }
        Ok(breakdown)
    }
}

impl Persist for crate::stats::SimStats {
    fn save(&self, out: &mut Vec<u8>) {
        self.makespan.save(out);
        self.cores.save(out);
        self.master.save(out);
        self.tasks_executed.save(out);
        self.dmu_stall_cycles.save(out);
        self.dmu_instructions.save(out);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let makespan = Cycle::load(r)?;
        let cores = Vec::load(r)?;
        let master = usize::load(r)?;
        let mut stats = crate::stats::SimStats::new(cores.len(), master);
        stats.makespan = makespan;
        stats.cores = cores;
        stats.tasks_executed = u64::load(r)?;
        stats.dmu_stall_cycles = Cycle::load(r)?;
        stats.dmu_instructions = u64::load(r)?;
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The standard IEEE check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn primitives_round_trip() {
        let mut out = Vec::new();
        0xAAu8.save(&mut out);
        0xBEEFu16.save(&mut out);
        0xDEAD_BEEFu32.save(&mut out);
        0x0123_4567_89AB_CDEFu64.save(&mut out);
        (-42i64).save(&mut out);
        usize::MAX.save(&mut out);
        true.save(&mut out);
        1.5f64.save(&mut out);
        "héllo".to_string().save(&mut out);
        Cycle::new(77).save(&mut out);
        Some(3u32).save(&mut out);
        Option::<u32>::None.save(&mut out);
        vec![1u64, 2, 3].save(&mut out);
        VecDeque::from([9u32, 8]).save(&mut out);
        (1u8, 2u16, 3u32).save(&mut out);

        let mut r = Reader::new(&out);
        assert_eq!(u8::load(&mut r).unwrap(), 0xAA);
        assert_eq!(u16::load(&mut r).unwrap(), 0xBEEF);
        assert_eq!(u32::load(&mut r).unwrap(), 0xDEAD_BEEF);
        assert_eq!(u64::load(&mut r).unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(i64::load(&mut r).unwrap(), -42);
        assert_eq!(usize::load(&mut r).unwrap(), usize::MAX);
        assert!(bool::load(&mut r).unwrap());
        assert_eq!(f64::load(&mut r).unwrap(), 1.5);
        assert_eq!(String::load(&mut r).unwrap(), "héllo");
        assert_eq!(Cycle::load(&mut r).unwrap(), Cycle::new(77));
        assert_eq!(Option::<u32>::load(&mut r).unwrap(), Some(3));
        assert_eq!(Option::<u32>::load(&mut r).unwrap(), None);
        assert_eq!(Vec::<u64>::load(&mut r).unwrap(), vec![1, 2, 3]);
        assert_eq!(
            VecDeque::<u32>::load(&mut r).unwrap(),
            VecDeque::from([9, 8])
        );
        assert_eq!(<(u8, u16, u32)>::load(&mut r).unwrap(), (1, 2, 3));
        r.expect_end("primitives").unwrap();
    }

    #[test]
    fn container_round_trips_multiple_sections() {
        let mut snap = Snapshot::new();
        snap.add_section(section::META, b"meta-bytes".to_vec());
        snap.add_section(section::ENGINE, vec![0u8; 1000]);
        snap.add_section(section::FEED, Vec::new());
        let bytes = snap.to_bytes();
        let back = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
        assert_eq!(
            back.section_ids(),
            vec![section::META, section::ENGINE, section::FEED]
        );
        assert_eq!(back.section(section::META).unwrap(), b"meta-bytes");
        assert_eq!(back.section(section::FEED).unwrap(), b"");
    }

    #[test]
    fn bad_magic_is_rejected_with_the_found_bytes() {
        let err = Snapshot::from_bytes(b"NOTASNAPxxxxxxxx").unwrap_err();
        assert!(matches!(err, SnapshotError::BadMagic { .. }));
        assert!(err.to_string().contains("TDMSNAP"));
    }

    #[test]
    fn future_version_is_rejected_cleanly() {
        let mut bytes = Snapshot::new().to_bytes();
        bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 5).to_le_bytes());
        let err = Snapshot::from_bytes(&bytes).unwrap_err();
        assert_eq!(
            err,
            SnapshotError::UnsupportedVersion {
                found: FORMAT_VERSION + 5,
                supported: FORMAT_VERSION,
            }
        );
        assert!(err.to_string().contains("newer"));
    }

    #[test]
    fn truncation_at_every_length_is_an_error_never_a_panic() {
        let mut snap = Snapshot::new();
        snap.add_section(section::DRIVER, to_payload(&vec![1u64, 2, 3]));
        snap.add_section(section::STATS, b"xyz".to_vec());
        let bytes = snap.to_bytes();
        for len in 0..bytes.len() {
            let err = Snapshot::from_bytes(&bytes[..len]);
            assert!(err.is_err(), "prefix of {len} bytes must not parse");
        }
        assert!(Snapshot::from_bytes(&bytes).is_ok());
    }

    #[test]
    fn flipping_any_payload_byte_fails_the_crc() {
        let mut snap = Snapshot::new();
        snap.add_section(section::EVENTS, (0..64u8).collect());
        let clean = snap.to_bytes();
        let payload_start = clean.len() - 64;
        for i in payload_start..clean.len() {
            let mut dirty = clean.clone();
            dirty[i] ^= 0x40;
            let err = Snapshot::from_bytes(&dirty).unwrap_err();
            assert_eq!(
                err,
                SnapshotError::CrcMismatch {
                    section: section::EVENTS
                },
                "flipping byte {i} must be caught"
            );
        }
    }

    #[test]
    fn missing_section_error_names_the_section() {
        let snap = Snapshot::new();
        let err = snap.section(section::ENGINE).unwrap_err();
        assert_eq!(
            err,
            SnapshotError::MissingSection {
                section: section::ENGINE
            }
        );
        assert!(err.to_string().contains("ENGINE"));
    }

    #[test]
    #[should_panic(expected = "duplicate snapshot section")]
    fn duplicate_sections_are_rejected_at_build_time() {
        let mut snap = Snapshot::new();
        snap.add_section(section::META, Vec::new());
        snap.add_section(section::META, Vec::new());
    }

    #[test]
    fn take_array_on_short_input_is_truncated_not_a_panic() {
        let mut r = Reader::new(&[1, 2, 3]);
        let err = r.take_array::<8>().unwrap_err();
        assert!(matches!(err, SnapshotError::Truncated { .. }));
        // The reader did not advance past the failed read.
        assert_eq!(r.take_array::<2>().unwrap(), [1, 2]);
    }

    #[test]
    fn section_table_offset_overflow_is_truncated_not_a_panic() {
        // One table entry whose offset + len wraps u64/usize arithmetic:
        // the bounds check must use checked math, not panic or wrap.
        let mut snap = Snapshot::new();
        snap.add_section(section::DRIVER, vec![0xAB; 4]);
        let mut bytes = snap.to_bytes();
        // Entry layout after the 16-byte header: id(4) offset(8) len(8) crc(4).
        bytes[20..28].copy_from_slice(&u64::MAX.to_le_bytes());
        bytes[28..36].copy_from_slice(&8u64.to_le_bytes());
        let err = Snapshot::from_bytes(&bytes).unwrap_err();
        assert!(matches!(err, SnapshotError::Truncated { .. }));
    }

    #[test]
    fn huge_section_count_is_truncated_not_an_allocation() {
        // count * TABLE_ENTRY_LEN is attacker-controlled; a count claiming
        // billions of sections in a 16-byte file must fail the table bound.
        let mut bytes = Snapshot::new().to_bytes();
        bytes[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = Snapshot::from_bytes(&bytes).unwrap_err();
        assert!(matches!(err, SnapshotError::Truncated { .. }));
    }

    #[test]
    fn section_payload_past_end_is_truncated() {
        let mut snap = Snapshot::new();
        snap.add_section(section::DRIVER, vec![7; 16]);
        let mut bytes = snap.to_bytes();
        // Point the payload just past the end of the file (no overflow).
        let offset = bytes.len() as u64 - 8;
        bytes[20..28].copy_from_slice(&offset.to_le_bytes());
        let err = Snapshot::from_bytes(&bytes).unwrap_err();
        assert!(matches!(err, SnapshotError::Truncated { .. }));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut payload = Vec::new();
        u64::MAX.save(&mut payload);
        let err = from_payload::<Vec<u64>>(&payload, "test vec").unwrap_err();
        assert!(matches!(err, SnapshotError::Truncated { .. }));
    }

    #[test]
    fn trailing_bytes_are_reported() {
        let mut payload = Vec::new();
        7u64.save(&mut payload);
        payload.push(0xFF);
        let err = from_payload::<u64>(&payload, "driver scalars").unwrap_err();
        assert!(err.to_string().contains("driver scalars"));
    }

    #[test]
    fn registry_ids_are_unique_and_named() {
        for (i, a) in SECTIONS.iter().enumerate() {
            assert!(!a.name.is_empty());
            assert!(!a.summary.is_empty());
            for b in &SECTIONS[i + 1..] {
                assert_ne!(a.id, b.id, "section ids must be unique");
                assert_ne!(a.name, b.name, "section names must be unique");
            }
        }
        assert_eq!(section_info(section::META).unwrap().name, "META");
        assert!(section_info(0xFFFF).is_none());
    }

    #[test]
    fn sim_stats_round_trip() {
        let mut stats = crate::stats::SimStats::new(3, 0);
        stats.makespan = Cycle::new(1234);
        stats.tasks_executed = 99;
        stats.dmu_stall_cycles = Cycle::new(5);
        stats.dmu_instructions = 400;
        stats.cores[1].add(crate::stats::Phase::Exec, Cycle::new(800));
        stats.cores[2].add(crate::stats::Phase::Idle, Cycle::new(30));
        let back: crate::stats::SimStats = from_payload(&to_payload(&stats), "stats").unwrap();
        assert_eq!(back.makespan, stats.makespan);
        assert_eq!(back.tasks_executed, stats.tasks_executed);
        assert_eq!(back.dmu_stall_cycles, stats.dmu_stall_cycles);
        assert_eq!(back.dmu_instructions, stats.dmu_instructions);
        assert_eq!(back.cores.len(), 3);
        for core in 0..3 {
            for phase in crate::stats::Phase::ALL {
                assert_eq!(back.cores[core].get(phase), stats.cores[core].get(phase));
            }
        }
    }
}
