//! The correctness checks of one workload, as a pure function over the
//! counts gathered at quiesce, so a test can doctor a count and watch the
//! run fail.

/// One producer's beats as the front collector accounted them.
#[derive(Debug, Clone)]
pub struct AppLedger {
    pub app: String,
    /// `Heartbeat::total_beats()` once the generator stopped.
    pub produced: u64,
    pub total_beats: u64,
    pub producer_dropped: u64,
    /// Federated only: the parent's total for `leaf/app`.
    pub parent_total: Option<u64>,
}

/// One app's beats as one subscription received them.
#[derive(Debug, Clone)]
pub struct SubLedger {
    pub sub: usize,
    pub app: String,
    pub received: u64,
    /// Places where `seq` did not follow its predecessor.
    pub breaks: u64,
}

#[derive(Debug, Clone, Default)]
pub struct Ledger {
    pub apps: Vec<AppLedger>,
    /// `beats_accounted()` of the front collector, less what set-up
    /// pre-loaded through the embedding API.
    pub accounted: u64,
    pub subs: Vec<SubLedger>,
    /// `Subscription::lost()` summed.
    pub client_lost_events: u64,
    /// `events_dropped_total()` summed over the collectors.
    pub events_dropped: u64,
    pub queries_attempted: u64,
    /// Queries that returned an error or took longer than a second.
    pub queries_failed: u64,
    /// Replies that broke an invariant (non-monotone total, history out of
    /// order, a registered app missing from the scrape, …).
    pub query_violations: Vec<String>,
    pub backend_shed: u64,
    pub cross_shard_ingest: u64,
    pub protocol_errors: u64,
    pub upstream_reconnects: u64,
    pub tap_shed: u64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// Beats offered to ingest, beats owed to subscriptions, and queries.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Verdict {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

impl Ledger {
    pub fn verify(&self) -> Verdict {
        let mut failed = 0u64;
        let mut failures = Vec::new();
        let mut fail = |count: u64, what: String| {
            if count > 0 {
                failed += count;
                failures.push(what);
            }
        };

        let produced: u64 = self.apps.iter().map(|a| a.produced).sum();
        for app in &self.apps {
            let seen = app.total_beats + app.producer_dropped;
            fail(
                seen.abs_diff(app.produced),
                format!(
                    "{}: total_beats {} + producer_dropped {} != produced {}",
                    app.app, app.total_beats, app.producer_dropped, app.produced
                ),
            );
            fail(
                app.producer_dropped,
                format!(
                    "{}: {} beats shed by the producer",
                    app.app, app.producer_dropped
                ),
            );
            if let Some(parent) = app.parent_total {
                fail(
                    parent.abs_diff(app.total_beats),
                    format!(
                        "{}: parent total {parent} != leaf total {}",
                        app.app, app.total_beats
                    ),
                );
            }
        }
        fail(
            self.accounted.abs_diff(produced),
            format!("beats_accounted {} != produced {produced}", self.accounted),
        );

        let mut owed = 0u64;
        for sub in &self.subs {
            let produced = self
                .apps
                .iter()
                .find(|a| a.app == sub.app)
                .map_or(0, |a| a.produced);
            owed += produced;
            fail(
                sub.received.abs_diff(produced),
                format!(
                    "subscription {} {}: received {} of {produced} beats",
                    sub.sub, sub.app, sub.received
                ),
            );
            fail(
                sub.breaks,
                format!(
                    "subscription {} {}: seq not contiguous in {} places",
                    sub.sub, sub.app, sub.breaks
                ),
            );
        }
        fail(
            self.client_lost_events,
            format!("{} events lost by the client", self.client_lost_events),
        );
        fail(
            self.events_dropped,
            format!("{} events dropped by a collector", self.events_dropped),
        );

        fail(
            self.queries_failed,
            format!("{} queries failed or exceeded 1 s", self.queries_failed),
        );
        for violation in &self.query_violations {
            fail(1, violation.clone());
        }

        for (count, what) in [
            (self.backend_shed, "backend.shed_beats"),
            (self.cross_shard_ingest, "collector.cross_shard_ingest"),
            (self.protocol_errors, "collector.protocol_errors"),
            (self.upstream_reconnects, "upstream.reconnects"),
            (self.tap_shed, "upstream.tap_shed_beats"),
        ] {
            fail(count, format!("{what} is {count}, expected 0"));
        }

        Verdict {
            attempted: (produced + owed + self.queries_attempted).max(1),
            failed,
            failures,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean() -> Ledger {
        Ledger {
            apps: vec![
                AppLedger {
                    app: "a".into(),
                    produced: 1000,
                    total_beats: 1000,
                    producer_dropped: 0,
                    parent_total: Some(1000),
                },
                AppLedger {
                    app: "b".into(),
                    produced: 500,
                    total_beats: 500,
                    producer_dropped: 0,
                    parent_total: None,
                },
            ],
            accounted: 1500,
            subs: vec![
                SubLedger {
                    sub: 0,
                    app: "a".into(),
                    received: 1000,
                    breaks: 0,
                },
                SubLedger {
                    sub: 0,
                    app: "b".into(),
                    received: 500,
                    breaks: 0,
                },
            ],
            queries_attempted: 10,
            ..Ledger::default()
        }
    }

    #[test]
    fn a_clean_ledger_passes() {
        let verdict = clean().verify();
        assert!(verdict.correct(), "{:?}", verdict.failures);
        assert_eq!(verdict.attempted, 1500 + 1500 + 10);
        assert_eq!(verdict.failed_ratio(), 0.0);
    }

    #[test]
    fn one_missing_beat_fails_the_run() {
        let mut ledger = clean();
        ledger.apps[0].total_beats -= 1;
        ledger.accounted -= 1;
        let verdict = ledger.verify();
        assert!(!verdict.correct());
        // Unaccounted at the app, in the collector total, and against the
        // parent's copy.
        assert_eq!(verdict.failed, 3);
        assert_eq!(crate::exit_code(verdict.correct()), 1);

        let mut ledger = clean();
        ledger.subs[1].received -= 1;
        ledger.subs[1].breaks = 1;
        assert_eq!(ledger.verify().failed, 2);
    }

    #[test]
    fn shed_lost_and_late_all_count() {
        let mut ledger = clean();
        ledger.apps[1].total_beats -= 2;
        ledger.apps[1].producer_dropped = 2;
        assert_eq!(
            ledger.verify().failed,
            2,
            "shed beats are accounted but failed"
        );

        let mut ledger = clean();
        ledger.client_lost_events = 1;
        ledger.events_dropped = 2;
        ledger.queries_failed = 3;
        ledger.query_violations.push("history out of order".into());
        ledger.cross_shard_ingest = 1;
        let verdict = ledger.verify();
        assert_eq!(verdict.failed, 1 + 2 + 3 + 1 + 1);
        assert!(verdict.failed_ratio() > 0.0);
    }
}
