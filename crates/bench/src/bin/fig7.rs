//! Regenerates Figure 7: x264 (light parameters) under the external scheduler
//! with a 30-35 beat/s target (heart rate and allocated cores vs beat).

use hb_bench::experiments;

fn main() {
    let result = experiments::fig7();
    println!("== Figure 7: x264 coupled with an external scheduler (target 30-35 beat/s) ==\n");
    println!("peak cores:                 {}", result.peak_cores);
    println!(
        "final cores:                {} (paper: four to six cores)",
        result.final_cores
    );
    println!("allocation changes:         {}", result.allocation_changes);
    println!(
        "settled beats in target:    {:.0}%",
        result.settled_fraction_in_target * 100.0
    );
    println!(
        "average heart rate:         {:.1} beat/s",
        result.average_rate_bps
    );
    println!("\nCSV:\n{}", result.series.to_csv());
}
