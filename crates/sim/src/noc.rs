//! Network-on-chip latency model for core ↔ DMU traffic.
//!
//! The DMU is a centralized module attached to the NoC (Figure 3 of the
//! paper). Every TDM ISA instruction therefore pays a request/response round
//! trip between the issuing core and the DMU in addition to the DMU's own
//! processing time. The paper notes that DMU operations take "tens to
//! hundreds of ns" per task, five orders of magnitude below the average task
//! duration, so the NoC model only needs to be plausible, not detailed: we
//! model a 2D mesh with the DMU at the center and per-hop latency from the
//! chip configuration.

use serde::{Deserialize, Serialize};

use crate::clock::Cycle;
use crate::config::ChipConfig;

/// Latency model for messages between cores and the centralized DMU.
///
/// # Example
///
/// ```
/// use tdm_sim::config::ChipConfig;
/// use tdm_sim::noc::NocModel;
///
/// let chip = ChipConfig::default();
/// let noc = NocModel::from_chip(&chip);
/// // A core in the middle of the mesh is closer to the DMU than a corner core.
/// assert!(noc.round_trip(0) >= noc.round_trip(noc.nearest_core()));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NocModel {
    /// Mesh width (`ceil(sqrt(num_cores))`).
    width: usize,
    /// Number of cores (tiles that generate traffic).
    num_cores: usize,
    /// Latency of one mesh hop, in cycles.
    hop_latency: Cycle,
    /// Router/injection overhead per message, in cycles.
    fixed_overhead: Cycle,
    /// DMU tile coordinates within the mesh.
    dmu_x: usize,
    dmu_y: usize,
}

impl NocModel {
    /// Builds the NoC model implied by a [`ChipConfig`]: a square-ish mesh of
    /// the chip's cores with the DMU placed at the central tile.
    pub fn from_chip(chip: &ChipConfig) -> Self {
        Self::new(chip.num_cores, chip.noc_hop_latency, Cycle::new(1))
    }

    /// Creates a mesh NoC model for `num_cores` tiles with the given per-hop
    /// latency and fixed per-message overhead.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is zero.
    pub fn new(num_cores: usize, hop_latency: Cycle, fixed_overhead: Cycle) -> Self {
        assert!(num_cores > 0, "NoC needs at least one core");
        let width = (num_cores as f64).sqrt().ceil() as usize;
        NocModel {
            width,
            num_cores,
            hop_latency,
            fixed_overhead,
            dmu_x: width / 2,
            dmu_y: width.div_ceil(2).saturating_sub(1).max(width / 2),
        }
    }

    /// Mesh coordinates of a core.
    fn coords(&self, core: usize) -> (usize, usize) {
        (core % self.width, core / self.width)
    }

    /// Manhattan distance in hops from `core` to the DMU tile.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn hops(&self, core: usize) -> u64 {
        assert!(core < self.num_cores, "core {core} out of range");
        let (x, y) = self.coords(core);
        (x.abs_diff(self.dmu_x) + y.abs_diff(self.dmu_y)) as u64
    }

    /// One-way latency of a message from `core` to the DMU.
    pub fn one_way(&self, core: usize) -> Cycle {
        self.fixed_overhead + self.hop_latency.scaled(self.hops(core))
    }

    /// Round-trip latency (request + response) between `core` and the DMU.
    pub fn round_trip(&self, core: usize) -> Cycle {
        self.one_way(core).scaled(2)
    }

    /// Average round-trip latency over all cores.
    pub fn average_round_trip(&self) -> Cycle {
        let total: u64 = (0..self.num_cores).map(|c| self.round_trip(c).raw()).sum();
        Cycle::new(total / self.num_cores as u64)
    }

    /// The core with the smallest distance to the DMU.
    pub fn nearest_core(&self) -> usize {
        (0..self.num_cores)
            .min_by_key(|&c| self.hops(c))
            .expect("num_cores > 0")
    }

    /// Number of cores this model was built for.
    pub fn num_cores(&self) -> usize {
        self.num_cores
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_width_is_ceil_sqrt() {
        let noc = NocModel::new(32, Cycle::new(2), Cycle::new(1));
        assert_eq!(noc.width, 6);
        let noc = NocModel::new(16, Cycle::new(2), Cycle::new(1));
        assert_eq!(noc.width, 4);
    }

    #[test]
    fn hops_are_manhattan_distance() {
        let noc = NocModel::new(16, Cycle::new(1), Cycle::ZERO);
        // width = 4, DMU at (2, 2) for a 4-wide mesh.
        let (dx, dy) = (noc.dmu_x, noc.dmu_y);
        // Core 0 is at (0, 0).
        assert_eq!(noc.hops(0), (dx + dy) as u64);
        // The DMU tile's own core (if any) has zero hops.
        let dmu_core = dy * 4 + dx;
        if dmu_core < 16 {
            assert_eq!(noc.hops(dmu_core), 0);
        }
    }

    #[test]
    fn round_trip_is_twice_one_way() {
        let noc = NocModel::new(32, Cycle::new(2), Cycle::new(1));
        for core in 0..32 {
            assert_eq!(noc.round_trip(core), noc.one_way(core).scaled(2));
        }
    }

    #[test]
    fn nearest_core_has_minimal_latency() {
        let noc = NocModel::new(32, Cycle::new(2), Cycle::new(1));
        let nearest = noc.nearest_core();
        for core in 0..32 {
            assert!(noc.round_trip(nearest) <= noc.round_trip(core));
        }
    }

    #[test]
    fn average_round_trip_between_min_and_max() {
        let noc = NocModel::new(32, Cycle::new(2), Cycle::new(1));
        let avg = noc.average_round_trip();
        let min = (0..32).map(|c| noc.round_trip(c)).min().unwrap();
        let max = (0..32).map(|c| noc.round_trip(c)).max().unwrap();
        assert!(avg >= min && avg <= max);
    }

    #[test]
    fn from_chip_uses_chip_parameters() {
        let chip = ChipConfig::default();
        let noc = NocModel::from_chip(&chip);
        assert_eq!(noc.num_cores(), chip.num_cores);
        assert_eq!(noc.hop_latency, chip.noc_hop_latency);
    }

    /// The round trip every TDM instruction is charged; Table I prints the
    /// 32-core one.
    #[test]
    fn chip_dmu_round_trip_matches_table_one() {
        for (cores, cycles) in [(32, 14), (8, 7), (64, 18)] {
            let noc = NocModel::from_chip(&ChipConfig::with_cores(cores));
            assert_eq!(
                noc.average_round_trip(),
                Cycle::new(cycles),
                "{cores} cores"
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn hops_rejects_out_of_range_core() {
        let noc = NocModel::new(4, Cycle::new(1), Cycle::ZERO);
        let _ = noc.hops(4);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        let _ = NocModel::new(0, Cycle::new(1), Cycle::ZERO);
    }

    #[test]
    fn single_core_mesh_works() {
        let noc = NocModel::new(1, Cycle::new(2), Cycle::new(1));
        assert_eq!(noc.hops(0), 0);
        assert_eq!(noc.round_trip(0), Cycle::new(2));
    }
}
