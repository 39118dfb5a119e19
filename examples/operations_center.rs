//! A day in the iVDGL Grid Operations Center (§5.4, §7, §8).
//!
//! Runs a short operations window and then answers the questions the iGOC
//! staff actually asked: which sites are failing probes, what tickets are
//! open and what did they cost in FTE, which jobs are stuck and *why*
//! (via the §8 trace APIs), and who the heavy users are (accounting).
//!
//! ```sh
//! cargo run --release --example operations_center
//! ```

use grid3_sim::core::{Grid3Engine, ScenarioConfig};
use grid3_sim::igoc::tickets::TicketStatus;
use grid3_sim::simkit::time::SimDuration;

fn main() {
    let cfg = ScenarioConfig::sc2003()
        .with_scale(0.1)
        .with_seed(1031)
        .with_days(10)
        .with_demo(false);
    println!(
        "Operating Grid3 for {} days at 10% workload scale…\n",
        cfg.days
    );
    let mut sim = Grid3Engine::new(cfg);
    sim.run();
    let now = sim.config().horizon();

    // --- The status board (Site Status Catalog) ---
    println!("Site status board:");
    let failing = sim.center().status_catalog.failing_sites();
    if failing.is_empty() {
        println!("  all probed sites passing");
    }
    for id in &failing {
        let e = sim.center().status_catalog.entry(*id).unwrap();
        println!(
            "  FAIL {:<22} {} consecutive failed probes (availability {:.1}%)",
            e.name,
            e.consecutive_failures,
            sim.center().status_catalog.availability(*id) * 100.0
        );
    }

    // --- Trouble tickets and the §7 support-load metric ---
    let tickets = sim.center().tickets.tickets();
    let open = tickets
        .iter()
        .filter(|t| matches!(t.status, TicketStatus::Open))
        .count();
    println!(
        "\nTickets: {} total, {} open; support load {:.2} FTE (target <2, §7)",
        tickets.len(),
        open,
        sim.center()
            .tickets
            .fte_in_window(grid3_sim::simkit::time::SimTime::EPOCH, now)
    );
    if let Some(mttr) = sim.center().tickets.mean_resolution_time() {
        println!("Mean time to resolve: {mttr}");
    }

    // --- §8 troubleshooting: stuck jobs, with full traces, no log grep ---
    let stuck = sim.traces().stuck_jobs(now, SimDuration::from_hours(24));
    println!("\nStuck jobs (>24 h without an event): {}", stuck.len());
    for t in stuck.iter().take(3) {
        println!("{}", t.render());
    }

    // --- §8 id linkage: pick a job and show both identifiers ---
    if let Some(t) = sim
        .traces()
        .find_by_execution_id(grid3_sim::simkit::ids::JobId(0))
    {
        println!(
            "Id linkage: execution-side {} ↔ submit-side {} ({} events recorded)",
            t.execution_id,
            t.submit_id,
            t.events.len()
        );
    }

    // --- Accounting: the heavy hitters (§5.2 auditing) ---
    println!("\nTop users by CPU consumption:");
    for (user, acct) in sim.traces().top_users(5) {
        println!(
            "  {user:<9} {:>9.1} CPU-days  {:>6} completed  {:>5} failed  {:>8.1} GB moved",
            acct.cpu_days(),
            acct.completed,
            acct.failed,
            acct.bytes_moved as f64 / 1e9
        );
    }
    if let Some(wait) = sim.traces().mean_queue_wait() {
        println!("\nMean batch-queue wait across the grid: {wait}");
    }
    println!(
        "Grid efficiency so far: {:.1}% over {} records",
        sim.acdc().overall_efficiency() * 100.0,
        sim.acdc().total_records()
    );
}
