//! Task Table and Dependence Table (Figure 4 of the paper).
//!
//! Both tables are direct-access SRAMs indexed by the internal IDs produced
//! by the alias tables. The Task Table stores, per in-flight task, the task
//! descriptor address, the predecessor and successor counts and the head
//! pointers of its successor and dependence lists. The Dependence Table
//! stores, per in-flight dependence, the ID of its last writer and the head
//! pointer of its reader list.
//!
//! Both are one [`Table`] of `Option` rows, one row per ID. The DMU reads
//! and updates a live entry in place through [`Table::row`] and
//! [`Table::row_mut`].

use std::fmt;

use serde::{Deserialize, Serialize};
use tdm_sim::snapshot::{Persist, Reader, SnapshotError};

use crate::ids::{DepAddr, DepId, DescriptorAddr, TaskId};
use crate::list_array::ListHandle;

/// One Task Table entry: the bookkeeping of a single in-flight task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskEntry {
    /// Address of the runtime's task descriptor (returned by
    /// `get_ready_task`).
    pub descriptor: DescriptorAddr,
    /// Number of unsatisfied predecessors. The task becomes ready when this
    /// reaches zero after its creation completed.
    pub num_predecessors: u32,
    /// Number of successors registered so far (returned to the runtime so
    /// priority schedulers can use it).
    pub num_successors: u32,
    /// Head of this task's successor list in the Successor List Array.
    pub successor_list: ListHandle,
    /// Head of this task's dependence list in the Dependence List Array.
    pub dependence_list: ListHandle,
    /// True while the runtime is still adding dependences (between
    /// `create_task` and the implicit submission at the first instruction of
    /// another task or at execution). Tasks are not inserted in the Ready
    /// Queue while under construction even if their predecessor count is
    /// zero.
    pub under_construction: bool,
}

/// One Dependence Table entry: the bookkeeping of a single in-flight
/// dependence (a data address that at least one in-flight task names).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DepEntry {
    /// Base address of the dependence.
    pub addr: DepAddr,
    /// Size in bytes, as provided by the runtime in `add_dependence` (used
    /// for the dynamic index-bit selection and by locality modelling).
    pub size: u64,
    /// Task that last declared an output on this address, if still in flight.
    pub last_writer: Option<TaskId>,
    /// Head of the reader list in the Reader List Array.
    pub reader_list: ListHandle,
}

/// An entry type of a direct-mapped DMU table, tied to the alias-table ID
/// that names its row.
pub trait Row: Copy {
    /// The ID that indexes rows of this type.
    type Id: Copy + fmt::Display;
    /// The table's name in panic and snapshot messages.
    const TABLE: &'static str;
    /// The row index of `id`.
    fn index(id: Self::Id) -> usize;
}

impl Row for TaskEntry {
    type Id = TaskId;
    const TABLE: &'static str = "task table";
    fn index(id: TaskId) -> usize {
        id.index()
    }
}

impl Row for DepEntry {
    type Id = DepId;
    const TABLE: &'static str = "dependence table";
    fn index(id: DepId) -> usize {
        id.index()
    }
}

/// A direct-mapped table of in-flight entries: one `Option` row per ID.
///
/// [`Table::row`] and [`Table::row_mut`] panic on a dead or out-of-range
/// ID — the alias table guarantees the DMU only holds live IDs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table<E> {
    rows: Vec<Option<E>>,
    live: usize,
    peak: usize,
}

/// The Task Table, indexed by [`TaskId`].
pub type TaskTable = Table<TaskEntry>;

/// The Dependence Table, indexed by [`DepId`].
pub type DependenceTable = Table<DepEntry>;

impl<E: Row> Table<E> {
    /// Creates a table with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "{} needs at least one entry", E::TABLE);
        Table {
            rows: vec![None; capacity],
            live: 0,
            peak: 0,
        }
    }

    /// Total number of entries.
    pub fn capacity(&self) -> usize {
        self.rows.len()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no entries are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Highest number of simultaneously live entries.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Installs `entry` at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or already occupied — the alias table
    /// guarantees freshly allocated IDs are free.
    pub fn insert(&mut self, id: E::Id, entry: E) {
        let row = &mut self.rows[E::index(id)];
        assert!(row.is_none(), "{} entry {id} is already occupied", E::TABLE);
        *row = Some(entry);
        self.live += 1;
        self.peak = self.peak.max(self.live);
    }

    /// The entry at `id`, if live.
    pub fn get(&self, id: E::Id) -> Option<&E> {
        self.rows.get(E::index(id)).and_then(Option::as_ref)
    }

    /// The live entry at `id`.
    ///
    /// # Panics
    ///
    /// Panics if the entry is not live.
    pub fn row(&self, id: E::Id) -> &E {
        self.get(id)
            .unwrap_or_else(|| panic!("{} entry {id} is not live", E::TABLE))
    }

    /// The live entry at `id`, for an update in place.
    ///
    /// # Panics
    ///
    /// Panics if the entry is not live.
    pub fn row_mut(&mut self, id: E::Id) -> &mut E {
        self.rows
            .get_mut(E::index(id))
            .and_then(Option::as_mut)
            .unwrap_or_else(|| panic!("{} entry {id} is not live", E::TABLE))
    }

    /// Removes and returns the entry at `id`, if live.
    pub fn remove(&mut self, id: E::Id) -> Option<E> {
        let entry = self.rows.get_mut(E::index(id))?.take()?;
        self.live -= 1;
        Some(entry)
    }
}

// Snapshot support: every row in index order (a dead row is one tag byte),
// then the live count and the peak.

impl Persist for TaskEntry {
    fn save(&self, out: &mut Vec<u8>) {
        self.descriptor.save(out);
        self.num_predecessors.save(out);
        self.num_successors.save(out);
        self.successor_list.save(out);
        self.dependence_list.save(out);
        self.under_construction.save(out);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(TaskEntry {
            descriptor: DescriptorAddr::load(r)?,
            num_predecessors: u32::load(r)?,
            num_successors: u32::load(r)?,
            successor_list: ListHandle::load(r)?,
            dependence_list: ListHandle::load(r)?,
            under_construction: bool::load(r)?,
        })
    }
}

impl Persist for DepEntry {
    fn save(&self, out: &mut Vec<u8>) {
        self.addr.save(out);
        self.size.save(out);
        self.last_writer.save(out);
        self.reader_list.save(out);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(DepEntry {
            addr: DepAddr::load(r)?,
            size: u64::load(r)?,
            last_writer: Option::load(r)?,
            reader_list: ListHandle::load(r)?,
        })
    }
}

impl<E: Row + Persist> Persist for Table<E> {
    fn save(&self, out: &mut Vec<u8>) {
        self.rows.save(out);
        self.live.save(out);
        self.peak.save(out);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let table = Table {
            rows: Vec::<Option<E>>::load(r)?,
            live: usize::load(r)?,
            peak: usize::load(r)?,
        };
        let occupied = table.rows.iter().filter(|row| row.is_some()).count();
        if table.rows.is_empty() || occupied != table.live || table.peak < table.live {
            return Err(SnapshotError::Corrupt {
                context: format!(
                    "{} is inconsistent ({} entries, {occupied} occupied vs recorded {}, \
                     peak {})",
                    E::TABLE,
                    table.rows.len(),
                    table.live,
                    table.peak
                ),
            });
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdm_sim::snapshot::{from_payload, to_payload};

    fn handle() -> ListHandle {
        // A placeholder handle for table-only tests; tables never dereference
        // handles themselves.
        crate::list_array::ListArray::new(1, 1)
            .alloc_list()
            .unwrap()
    }

    fn task_entry(addr: u64) -> TaskEntry {
        TaskEntry {
            descriptor: DescriptorAddr(addr),
            num_predecessors: 0,
            num_successors: 0,
            successor_list: handle(),
            dependence_list: handle(),
            under_construction: true,
        }
    }

    fn dep_entry(addr: u64) -> DepEntry {
        DepEntry {
            addr: DepAddr(addr),
            size: 4096,
            last_writer: None,
            reader_list: handle(),
        }
    }

    #[test]
    fn task_table_insert_get_remove() {
        let mut t = TaskTable::new(4);
        let id = TaskId::new(2);
        t.insert(id, task_entry(0x1000));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(id), Some(&task_entry(0x1000)));
        t.row_mut(id).num_predecessors += 3;
        let removed = t.remove(id).unwrap();
        assert_eq!(removed.num_predecessors, 3);
        assert!(t.get(id).is_none() && t.remove(id).is_none());
        assert!(t.get(TaskId::new(9)).is_none(), "out of range is not live");
        assert!(t.is_empty());
    }

    /// Every field the DMU updates in place through `row_mut` reads back
    /// through `row` and `get`, and the fields it never writes keep their
    /// inserted values.
    #[test]
    fn task_table_column_accessors_roundtrip() {
        let mut t = TaskTable::new(4);
        let id = TaskId::new(1);
        t.insert(id, task_entry(0x2000));
        assert_eq!(t.row(id).descriptor, DescriptorAddr(0x2000));
        assert!(t.row(id).under_construction);
        let row = t.row_mut(id);
        row.under_construction = false;
        row.num_successors += 2;
        row.num_predecessors += 1;
        row.num_predecessors -= 1;
        let row = *t.row(id);
        assert!(!row.under_construction);
        assert_eq!((row.num_successors, row.num_predecessors), (2, 0));
        assert_eq!(t.get(id), Some(&row));
        let inserted = task_entry(0x2000);
        assert_eq!(row.successor_list, inserted.successor_list);
        assert_eq!(row.dependence_list, inserted.dependence_list);
    }

    #[test]
    fn task_table_peak_tracks_high_water_mark() {
        let mut t = TaskTable::new(4);
        t.insert(TaskId::new(0), task_entry(1));
        t.insert(TaskId::new(1), task_entry(2));
        t.remove(TaskId::new(0));
        assert_eq!((t.len(), t.peak()), (1, 2));
    }

    #[test]
    #[should_panic(expected = "already occupied")]
    fn task_table_double_insert_panics() {
        let mut t = TaskTable::new(4);
        t.insert(TaskId::new(0), task_entry(1));
        t.insert(TaskId::new(0), task_entry(2));
    }

    #[test]
    #[should_panic(expected = "task table entry T0 is not live")]
    fn task_table_dead_accessor_panics() {
        let _ = TaskTable::new(4).row(TaskId::new(0));
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_task_table_panics() {
        let _ = TaskTable::new(0);
    }

    #[test]
    fn dependence_table_insert_get_remove() {
        let mut t = DependenceTable::new(4);
        let id = DepId::new(3);
        t.insert(id, dep_entry(0xBEEF));
        t.row_mut(id).last_writer = Some(TaskId::new(7));
        assert_eq!(t.row(id).last_writer, Some(TaskId::new(7)));
        assert_eq!(t.remove(id).map(|e| e.addr), Some(DepAddr(0xBEEF)));
        assert!(t.remove(id).is_none() && t.get(id).is_none());
    }

    #[test]
    fn dependence_table_len_and_peak() {
        let mut t = DependenceTable::new(4);
        for i in 0..3u32 {
            t.insert(DepId::new(i), dep_entry(u64::from(i)));
        }
        t.remove(DepId::new(1));
        assert_eq!((t.len(), t.peak(), t.capacity()), (2, 3, 4));
    }

    /// Rows round-trip through a snapshot, a dead row costs one byte, and a
    /// payload whose live count or peak contradicts its rows is refused.
    #[test]
    fn snapshot_round_trip_and_refusals() {
        let mut t = DependenceTable::new(3);
        t.insert(DepId::new(0), dep_entry(0xA000));
        t.insert(DepId::new(2), dep_entry(0xB000));
        t.remove(DepId::new(0));
        let bytes = to_payload(&t);
        // Row count, two dead rows, one live row (tag, 8 + 8 + 1 + 8 bytes),
        // live count, peak.
        assert_eq!(bytes.len(), 8 + 2 + 26 + 8 + 8);
        let back: DependenceTable = from_payload(&bytes, "table").unwrap();
        assert_eq!(format!("{back:?}"), format!("{t:?}"));
        // Live count 2 (one live row), then peak 0 (below live).
        for (at, value) in [(bytes.len() - 16, 2u64), (bytes.len() - 8, 0)] {
            let mut hostile = bytes.clone();
            hostile[at..at + 8].copy_from_slice(&value.to_le_bytes());
            let err = from_payload::<DependenceTable>(&hostile, "table").unwrap_err();
            assert!(
                err.to_string().contains("dependence table is inconsistent"),
                "{err}"
            );
        }
    }
}
