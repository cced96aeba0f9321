//! Regenerates Figure 5: bodytrack under the external scheduler with a
//! 2.5-3.5 beat/s target (heart rate and allocated cores vs beat).

use hb_bench::experiments;

fn main() {
    let result = experiments::fig5();
    println!(
        "== Figure 5: bodytrack coupled with an external scheduler (target 2.5-3.5 beat/s) ==\n"
    );
    println!("peak cores:                 {}", result.peak_cores);
    println!(
        "final cores:                {} (paper: eventually a single core)",
        result.final_cores
    );
    println!("allocation changes:         {}", result.allocation_changes);
    println!(
        "settled beats in target:    {:.0}%",
        result.settled_fraction_in_target * 100.0
    );
    println!(
        "average heart rate:         {:.2} beat/s",
        result.average_rate_bps
    );
    println!("\nCSV:\n{}", result.series.to_csv());
}
