//! Table I: configuration of the simulated chip and DMU structures.

use tdm_bench::print_table;
use tdm_core::config::DmuConfig;
use tdm_sim::config::ChipConfig;
use tdm_sim::noc::NocModel;

fn main() {
    let chip = ChipConfig::default();
    let dmu = DmuConfig::default();

    let rows = vec![
        vec![
            "Cores".into(),
            format!(
                "{} out-of-order cores, {:.1} GHz",
                chip.num_cores,
                chip.frequency.as_ghz()
            ),
        ],
        vec![
            "Issue width".into(),
            format!("{} instr/cycle", chip.core.issue_width),
        ],
        vec![
            "Reorder buffer".into(),
            format!("{} entries", chip.core.rob_entries),
        ],
        vec![
            "Issue queue".into(),
            format!("{} entries", chip.core.issue_queue_entries),
        ],
        vec![
            "Register file".into(),
            format!(
                "{} int, {} FP",
                chip.core.int_registers, chip.core.fp_registers
            ),
        ],
        vec![
            "L1 data cache".into(),
            format!(
                "{} KB, {}-way, {} hit",
                chip.memory.l1_size_bytes / 1024,
                chip.memory.l1_ways,
                chip.memory.l1_hit_latency
            ),
        ],
        vec![
            "Shared L2".into(),
            format!(
                "{} MB, {}-way",
                chip.memory.l2_size_bytes / (1024 * 1024),
                chip.memory.l2_ways
            ),
        ],
        vec![
            "NoC".into(),
            format!(
                "mesh, {} per hop, DMU round trip {}",
                chip.noc_hop_latency,
                NocModel::from_chip(&chip).average_round_trip()
            ),
        ],
        vec![
            "TAT".into(),
            format!(
                "{} entries, {}-way, {} per access",
                dmu.tat_entries, dmu.tat_ways, dmu.access_latency
            ),
        ],
        vec![
            "DAT".into(),
            format!(
                "{} entries, {}-way, {} per access",
                dmu.dat_entries, dmu.dat_ways, dmu.access_latency
            ),
        ],
        vec![
            "Task / Dependence Table".into(),
            format!("{} entries each", dmu.task_table_entries()),
        ],
        vec![
            "SLA / DLA / RLA".into(),
            format!(
                "{} entries, {} elements/entry",
                dmu.successor_la_entries, dmu.elems_per_list_entry
            ),
        ],
    ];
    print_table(
        "Table I: simulated system configuration",
        &["Parameter", "Value"],
        &rows,
    );
}
