//! Fixture: a clean miniature Prometheus endpoint. Both emitted series
//! register help — one as a `# HELP` literal, one through the exposition
//! writer's `family(..)` call — and have rows in docs/TELEMETRY.md.

pub fn prometheus(x: &mut Exposition, beats: u64, alive: u8) {
    x.0.push_str("# HELP hb_app_beats_total Beats absorbed.\n");
    x.0.push_str("# TYPE hb_app_beats_total counter\n");
    x.0.push_str(&format!("hb_app_beats_total {beats}\n"));
    x.family("hb_app_alive", "1 while the application beats.");
    x.sample("hb_app_alive", &[], alive);
}
