//! Drive the DMU directly through its five operations and watch how it
//! tracks a small task graph — useful to understand Algorithms 1 and 2 of the
//! paper and the cost (SRAM accesses) of each operation.
//!
//! Run with: `cargo run --release --example dmu_microscope`

use tdm::core::dmu::DmuResult;
use tdm::prelude::*;

/// Prints one creation-phase operation with the structure accesses it
/// performed and what they cost.
fn show<T>(operation: String, result: DmuResult<T>, latency: Cycle) {
    println!(
        "{:<55} accesses: {:<30} ({} cycles)",
        operation,
        result.accesses.to_string(),
        result.cost(latency).raw()
    );
}

fn main() {
    let mut dmu = Dmu::new(DmuConfig::default());
    let latency = DmuConfig::default().access_latency;
    let fits = "the default DMU never fills here";

    // A producer writes a 4 KB block; two consumers read it; a final writer
    // overwrites it (WAR on both consumers).
    let data = DepAddr(0xA000_0000);
    let size = 4096;
    let tasks = [
        (DescriptorAddr(0x1000), DepDirection::Out),
        (DescriptorAddr(0x2000), DepDirection::In),
        (DescriptorAddr(0x3000), DepDirection::In),
        (DescriptorAddr(0x4000), DepDirection::Out),
    ];

    println!("-- task creation phase --");
    for (task, direction) in tasks {
        let created = dmu.create_task(task).expect(fits);
        show(format!("create_task({task})"), created, latency);
        let added = dmu.add_dependence(task, data, size, direction).expect(fits);
        show(
            format!("add_dependence({task}, {data}, {size}, {direction})"),
            added,
            latency,
        );
        let submitted = dmu.submit_task(task).expect(fits);
        show(format!("submit_task({task})"), submitted, latency);
    }

    println!("\n-- execution phase --");
    while let Some(task) = dmu.get_ready_task().value {
        println!(
            "get_ready_task -> {} ({} successors)",
            task.descriptor, task.num_successors
        );
        let finish = dmu.finish_task(task.descriptor).unwrap();
        println!(
            "finish_task({})  accesses: {} ({} cycles)",
            task.descriptor,
            finish.accesses,
            finish.cost(latency).raw()
        );
    }
    println!("\nDMU drained: {}", dmu.is_drained());
    let stats = dmu.stats();
    println!(
        "ops: {} creates, {} add_dependences, {} finishes, {} get_ready; {} SRAM accesses total",
        stats.creates,
        stats.add_dependences,
        stats.finishes,
        stats.get_readies,
        stats.total_accesses
    );
}
