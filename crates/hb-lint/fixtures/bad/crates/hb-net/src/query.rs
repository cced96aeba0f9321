//! Fixture: metric drift in both directions. The emitted series has no
//! `# HELP` line and no docs row; the docs document a ghost series.

pub fn prometheus(dropped: u64) -> String {
    let mut out = String::new();
    out.push_str(&format!("hb_collector_dropped_total {dropped}\n"));
    out
}
