//! Regenerates Figure 6: streamcluster under the external scheduler with a
//! 0.5-0.55 beat/s target (heart rate and allocated cores vs beat).

use hb_bench::experiments;

fn main() {
    let result = experiments::fig6();
    println!("== Figure 6: streamcluster coupled with an external scheduler (target 0.5-0.55 beat/s) ==\n");
    println!("peak cores:                 {}", result.peak_cores);
    println!("final cores:                {}", result.final_cores);
    println!("allocation changes:         {}", result.allocation_changes);
    println!(
        "settled beats in target:    {:.0}%",
        result.settled_fraction_in_target * 100.0
    );
    println!(
        "average heart rate:         {:.3} beat/s",
        result.average_rate_bps
    );
    println!("\nCSV:\n{}", result.series.to_csv());
}
