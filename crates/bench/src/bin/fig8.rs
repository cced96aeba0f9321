//! Regenerates Figure 8: the fault-tolerance experiment. Cores fail at beats
//! 160, 320 and 480; the healthy encoder keeps its 30 beat/s goal, the
//! unmodified encoder falls below it, the adaptive encoder recovers.

use hb_bench::experiments;

fn main() {
    let result = experiments::fig8();
    println!(
        "== Figure 8: Heartbeats for fault tolerance (core failures at beats 160/320/480) ==\n"
    );
    println!(
        "healthy final rate:    {:>6.1} beat/s  (paper: >30)",
        result.healthy_final_bps
    );
    println!(
        "unhealthy final rate:  {:>6.1} beat/s  (paper: <25)",
        result.unhealthy_final_bps
    );
    println!(
        "adaptive final rate:   {:>6.1} beat/s  (paper: stays above 30)",
        result.adaptive_final_bps
    );
    println!("\nCSV:\n{}", result.series.to_csv());
}
