//! One workload, start to finish. A run is many short independent trials
//! (set up, warm up, measure, quiesce, check the ledger, tear down); every
//! metric is the trimmed mean over the trials, so neither a scheduler
//! hiccup nor where the kernel happened to place the threads of one rig
//! decides the run.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use hb_net::telemetry::wall_clock_ns;
use hb_net::{CollectorState, HistoSnapshot, LatencyHisto};

use crate::ledger::{AppLedger, Ledger, SubLedger, Verdict};
use crate::proc;
use crate::rig::{self, Rig};
use crate::rungs;
use crate::spec::Report;
use crate::stats::{median, trimmed_mean};
use crate::trace::{self, Span};
use crate::workload::{
    run_observer, run_paced, run_saturate, GenOut, Grid, Load, ObsOut, ObserverControl, Op, Plan,
    QueryLoop, Schedule,
};

/// Trials per run; `--seconds` is divided evenly among them.
pub const TRIALS: u64 = 15;
/// Tries at building one trial's rig.
const SETUP_ATTEMPTS: u32 = 3;
const QUIESCE_DEADLINE: Duration = Duration::from_secs(10);
/// Pipeline stages the collector keeps a latency histogram for.
const STAGES: [&str; 5] = ["decode", "ingest", "fanout", "pump", "query"];

/// Everything one run produced.
pub struct Outcome {
    pub verdict: Verdict,
    pub end_to_end: Report,
    /// End-to-end candidates that are not gated; see [`candidates`].
    pub candidates: Report,
    /// Traced runs only; includes the candidates.
    pub per_layer: Option<Report>,
    pub io_threads: usize,
    /// Traced runs only: per span name, for the printed report.
    pub spans: Vec<trace::SpanSummary>,
    pub trace_file: Option<std::path::PathBuf>,
}

/// Counters read at a segment boundary; metrics are differences of two.
struct Counters {
    at_ns: u64,
    cpu_ns: u64,
    accounted: u64,
    frames: u64,
    /// Front reactor threads summed: busy ns, wait ns, loops, dispatches.
    reactor: [u64; 4],
    /// Per stage, merged over the collectors: seconds summed, count.
    stages: [(f64, f64); 5],
    delivery: HistoSnapshot,
    forwarded_beats: u64,
}

fn read_counters(rig: &Rig, with_layers: bool) -> Counters {
    let front = rig.front.state();
    let mut counters = Counters {
        at_ns: rig.clock.now_ns(),
        cpu_ns: proc::process_cpu_ns(),
        accounted: front.beats_accounted(),
        frames: front.frames_total(),
        reactor: [0; 4],
        stages: [(0.0, 0.0); 5],
        delivery: HistoSnapshot::default(),
        forwarded_beats: front.upstream_stats().map_or(0, |s| s.forwarded_beats()),
    };
    if !with_layers {
        return counters;
    }
    for thread in front.reactor_threads().snapshot() {
        counters.reactor[0] += thread.busy_ns;
        counters.reactor[1] += thread.wait_ns;
        counters.reactor[2] += thread.loops;
        counters.reactor[3] += thread.dispatches;
    }
    for state in rig.states() {
        counters
            .delivery
            .merge(&state.telemetry().delivery.snapshot());
        // The per-shard stage histograms are only exported merged, through
        // the Prometheus text.
        let text = state.prometheus();
        for (slot, stage) in STAGES.iter().enumerate() {
            let series = |suffix: &str| {
                let prefix = format!("hb_collector_{stage}_latency_seconds_{suffix} ");
                text.lines()
                    .find_map(|line| {
                        line.strip_prefix(prefix.as_str())?
                            .trim()
                            .parse::<f64>()
                            .ok()
                    })
                    .unwrap_or(0.0)
            };
            counters.stages[slot].0 += series("sum");
            counters.stages[slot].1 += series("count");
        }
    }
    counters
}

fn histo_delta(later: &HistoSnapshot, earlier: &HistoSnapshot) -> HistoSnapshot {
    let mut delta = later.clone();
    for (bucket, before) in delta.buckets.iter_mut().zip(earlier.buckets.iter()) {
        *bucket = bucket.saturating_sub(*before);
    }
    delta.sum_ns = later.sum_ns.saturating_sub(earlier.sum_ns);
    delta.count = later.count.saturating_sub(earlier.count);
    delta
}

fn histo_mean_ns(histo: &HistoSnapshot) -> f64 {
    ratio(histo.sum_ns as f64, histo.count as f64)
}

/// Quantile of the collector's power-of-two histogram, interpolated inside
/// the bucket (which spans a factor of two, so this is coarse).
fn histo_quantile_ns(histo: &HistoSnapshot, q: f64) -> f64 {
    if histo.count == 0 {
        return 0.0;
    }
    let rank = (q * histo.count as f64).ceil().max(1.0);
    let mut below = 0.0;
    for (index, &count) in histo.buckets.iter().enumerate() {
        let count = count as f64;
        if below + count >= rank {
            let lower = if index == 0 {
                0.0
            } else {
                (1u64 << (index - 1)) as f64
            };
            let upper = LatencyHisto::bucket_upper_ns(index).min(1 << 62) as f64;
            return lower + (upper - lower) * (rank - below) / count;
        }
        below += count;
    }
    0.0
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn sleep_until(rig: &Rig, t_ns: u64) {
    let now = rig.clock.now_ns();
    if t_ns > now {
        std::thread::sleep(Duration::from_nanos(t_ns - now));
    }
}

fn wait_for(deadline: Duration, mut done: impl FnMut() -> bool) -> bool {
    let until = Instant::now() + deadline;
    while !done() {
        if Instant::now() >= until {
            return false;
        }
        std::thread::sleep(Duration::from_micros(500));
    }
    true
}

/// What the threads of one trial recorded, plus the counters at each
/// boundary of the stream window.
struct Recorded {
    schedule: Schedule,
    /// The workload's load: the open-loop generator's record, or the
    /// closed-loop one's on `ingest_saturate`.
    generated: GenOut,
    /// `ingest_saturate` only: the probe app's open-loop generator.
    probe: Option<GenOut>,
    observed: ObsOut,
    queries: QueryLoop,
    /// One more than the stream segments: a reading at every boundary.
    counters: Vec<Counters>,
    /// Wall clock minus shared clock, to place the collector's `sent_at_ns`.
    wall_offset_ns: u64,
}

fn drive(rig: &Rig, plan: &Plan, seed: u64, total_ns: u64, traced: bool) -> Recorded {
    let schedule = Schedule::new(rig.clock.now_ns(), total_ns, traced, plan.queries_alongside);
    let grid = Grid::new(rig, &schedule, plan);
    let wall_offset_ns = wall_clock_ns().saturating_sub(rig.clock.now_ns());
    let control = ObserverControl::default();
    let mut queries = QueryLoop::new(rig, seed, &schedule);
    let mut counters = Vec::new();
    let front = rig.front.state();
    let (generated, probe, observed) = std::thread::scope(|scope| {
        let paced = scope.spawn(|| run_paced(&rig.apps, &rig.clock, &grid, &schedule, seed));
        let saturating = (plan.load == Load::Saturate).then(|| {
            // Every app but the probe, which is the last.
            let (probe, apps) = rig.apps.split_last().expect("a probe app");
            scope.spawn(|| run_saturate(apps, probe, &rig.clock, &front, &schedule))
        });
        let observer = {
            let (grid, schedule, control) = (&grid, &schedule, &control);
            scope.spawn(move || {
                run_observer(&rig.subscriptions, &rig.clock, grid, schedule, control)
            })
        };

        sleep_until(rig, schedule.stream[0].start_ns);
        counters.push(read_counters(rig, traced));
        for segment in &schedule.stream {
            if plan.queries_alongside {
                queries.run_until(rig, &schedule, segment.end_ns);
            } else {
                sleep_until(rig, segment.end_ns);
            }
            counters.push(read_counters(rig, traced));
        }
        if !plan.queries_alongside {
            queries.run_until(rig, &schedule, schedule.query.end_ns);
        }
        let paced = paced.join().expect("generator thread panicked");
        let (generated, probe) = match saturating {
            Some(saturating) => (
                saturating.join().expect("generator thread panicked"),
                Some(paced),
            ),
            None => (paced, None),
        };

        // Quiesce: everything issued must be accounted and pushed before
        // the ledger is read. A timeout is not an error here; the ledger
        // reports what is missing.
        for app in &rig.apps {
            let _ = app.hb.flush();
        }
        let produced: u64 = rig.apps.iter().map(|app| app.hb.total_beats()).sum();
        wait_for(QUIESCE_DEADLINE, || {
            front.beats_accounted() >= rig.preloaded() + produced
        });
        if let Some(root) = &rig.root {
            let root = root.state();
            wait_for(QUIESCE_DEADLINE, || {
                root.beats_accounted() >= rig.static_beats() + produced
            });
        }
        let watched: u64 = rig
            .watched
            .iter()
            .map(|&app| rig.apps[app].hb.total_beats() - rig::FIRST_BEATS)
            .sum();
        let owed = watched * rig.subscriptions.len() as u64;
        wait_for(QUIESCE_DEADLINE, || {
            control.beats_received.load(Ordering::Relaxed) >= owed // ordering: progress counter; publishes nothing else
        });
        control.stop.store(true, Ordering::Release); // ordering: pairs with the Acquire load in run_observer
        let observed = observer.join().expect("observer thread panicked");
        (generated, probe, observed)
    });
    queries.check_scrape_names(rig);

    Recorded {
        schedule,
        generated,
        probe,
        observed,
        queries,
        counters,
        wall_offset_ns,
    }
}

fn ledger(rig: &Rig, recorded: &Recorded) -> Ledger {
    let front = rig.front.state();
    let apps: Vec<AppLedger> = rig
        .apps
        .iter()
        .map(|app| {
            let snap = front.snapshot(&app.name);
            AppLedger {
                app: app.name.clone(),
                produced: app.hb.total_beats(),
                total_beats: snap.as_ref().map_or(0, |s| s.total_beats),
                producer_dropped: snap.as_ref().map_or(0, |s| s.producer_dropped),
                parent_total: rig.root.as_ref().map(|root| {
                    root.state()
                        .snapshot(&rig.observed_name(&app.name))
                        .map_or(0, |s| s.total_beats)
                }),
            }
        })
        .collect();
    let subs = recorded
        .observed
        .received
        .iter()
        .enumerate()
        .flat_map(|(sub, per_app)| {
            per_app
                .iter()
                .zip(&rig.watched)
                .map(move |(received, &app)| SubLedger {
                    sub,
                    app: rig.apps[app].name.clone(),
                    // Set-up received the first beats itself.
                    received: received.beats + rig::FIRST_BEATS,
                    breaks: received.breaks,
                })
        })
        .collect();
    Ledger {
        apps,
        accounted: front.beats_accounted() - rig.preloaded(),
        subs,
        client_lost_events: recorded.observed.lost_events,
        events_dropped: rig.total(CollectorState::events_dropped_total),
        queries_attempted: recorded.queries.out.attempted,
        queries_failed: recorded.queries.out.failed,
        query_violations: recorded.queries.out.violations.clone(),
        backend_shed: rig.apps.iter().map(|app| app.backend.dropped_beats()).sum(),
        cross_shard_ingest: rig.total(CollectorState::cross_shard_ingest),
        protocol_errors: rig.total(CollectorState::protocol_errors),
        upstream_reconnects: front.upstream_stats().map_or(0, |s| s.reconnects()),
        tap_shed: front.upstream_tap().map_or(0, |tap| tap.dropped_beats()),
    }
}

/// The headline numbers of one stream segment: the end-to-end report reads
/// the first, the tracing-overhead comparison reads both halves.
struct Headline {
    beats_per_s: f64,
    cpu_ns_per_beat: f64,
    queries_per_s: f64,
}

fn headline(recorded: &Recorded, index: usize) -> Headline {
    let (before, after) = (&recorded.counters[index], &recorded.counters[index + 1]);
    let seconds = (after.at_ns - before.at_ns) as f64 / 1e9;
    let beats = (after.accounted - before.accounted) as f64;
    let schedule = &recorded.schedule;
    let out = &recorded.queries.out;
    // Queries either run inside the stream segments or in one window after
    // them.
    let queries_per_s = if schedule.query.start_ns >= schedule.stream[index].end_ns {
        out.attempted as f64 / schedule.query.seconds()
    } else {
        out.per_segment[index] as f64 / schedule.stream[index].seconds()
    };
    Headline {
        beats_per_s: beats / seconds,
        cpu_ns_per_beat: ratio((after.cpu_ns - before.cpu_ns) as f64, beats),
        queries_per_s,
    }
}

fn end_to_end(recorded: &Recorded, setup_s: f64) -> Report {
    let mut report = Report::default();
    let lag = &recorded.observed.segments[0].lag_ns;
    report.set("setup_s", setup_s);
    report.set("observe_lag_us_p50", lag.quantile(0.5) / 1e3);
    report.set("observe_lag_us_p90", lag.quantile(0.9) / 1e3);
    report.set("ingest_beats_per_s", headline(recorded, 0).beats_per_s);
    report
}

/// The end-to-end candidates that cannot be held steady on this machine and
/// are therefore not gated: like the gated ones they come from the first
/// stream segment, which is never traced, and are listed per-layer.
fn candidates(recorded: &Recorded) -> Report {
    let mut report = Report::default();
    let generated = &recorded.generated;
    let burst = generated.burst as f64;
    let first = headline(recorded, 0);
    let rtt = &recorded.queries.out.rtt_ns;
    // `query_rtt` covers snapshot and health round trips: twice as many
    // snapshots as healths in the cycle, weighted the same way here.
    let point = |q: f64| {
        (2.0 * rtt[Op::Snapshot.index()].quantile(q) + rtt[Op::Health.index()].quantile(q)) / 3.0
    };
    report.set(
        "issue_ns_p50",
        generated.segments[0].burst_ns.quantile(0.5) / burst,
    );
    report.set(
        "issue_ns_p99",
        generated.segments[0].burst_ns.quantile(0.99) / burst,
    );
    report.set(
        "observe_lag_us_p99",
        recorded.observed.segments[0].lag_ns.quantile(0.99) / 1e3,
    );
    report.set("cpu_ns_per_beat", first.cpu_ns_per_beat);
    report.set("query_rtt_us_p50", point(0.5) / 1e3);
    report.set("query_rtt_us_p99", point(0.99) / 1e3);
    report.set(
        "scrape_ms_p50",
        rtt[Op::Metrics.index()].quantile(0.5) / 1e6,
    );
    report.set("queries_per_s", first.queries_per_s);
    report
}

/// Joins what the generator, the backend wrapper and the observer each saw
/// of a tagged beat into the spans of one request.
fn beat_spans(rig: &Rig, recorded: &Recorded) -> Vec<Span> {
    let on_beat: HashMap<u64, (u64, u64)> = rig
        .on_beat_spans
        .lock()
        .expect("span list lock")
        .iter()
        .map(|&(tag, start, end)| (tag, (start, end)))
        .collect();
    let received: HashMap<u64, (u64, u64)> = recorded
        .observed
        .tagged
        .iter()
        .map(|&(tag, sent_at_wall, recv)| (tag, (sent_at_wall, recv)))
        .collect();
    let mut spans = Vec::new();
    let probe_tagged = recorded.probe.iter().flat_map(|probe| probe.tagged.iter());
    for issue in recorded.generated.tagged.iter().chain(probe_tagged) {
        let id = issue.tag;
        let (sent, end) = match (received.get(&id), issue.accounted_ns) {
            (Some(&(sent_at_wall, recv)), _) => (
                Some(sent_at_wall.saturating_sub(recorded.wall_offset_ns)),
                recv,
            ),
            (None, Some(accounted)) => (None, accounted),
            // Never seen again: the ledger reports it; no span to close.
            (None, None) => continue,
        };
        let end = end.max(issue.end_ns);
        spans.push(Span::new("beat", id, None, issue.start_ns, end));
        spans.push(Span::new(
            "heartbeats.issue",
            id,
            Some("beat"),
            issue.start_ns,
            issue.end_ns,
        ));
        if let Some(&(start, stop)) = on_beat.get(&id) {
            spans.push(Span::new(
                "backend.on_beat",
                id,
                Some("heartbeats.issue"),
                start,
                stop,
            ));
        }
        // From the producer's queue to the collector stamping the event (or
        // accounting the beat): flusher, socket, reactor, decode, ingest.
        // Not divisible from outside; the rungs attribute it.
        let transit_end = sent.unwrap_or(end).clamp(issue.end_ns, end);
        spans.push(Span::new(
            "transit",
            id,
            Some("beat"),
            issue.end_ns,
            transit_end,
        ));
        if sent.is_some() {
            spans.push(Span::new(
                "subscribe.delivery",
                id,
                Some("beat"),
                transit_end,
                end,
            ));
        }
    }
    spans
}

/// `(traced − untraced) / untraced` of the workload's headline metric, as a
/// percentage, signed so that positive means tracing made it worse.
fn overhead_pct(plan: &Plan, untraced: &Headline, traced: &Headline) -> f64 {
    let (base, with, higher_is_better) = if plan.queries_alongside {
        (untraced.queries_per_s, traced.queries_per_s, true)
    } else if plan.load == Load::Saturate {
        (untraced.beats_per_s, traced.beats_per_s, true)
    } else {
        (untraced.cpu_ns_per_beat, traced.cpu_ns_per_beat, false)
    };
    let change = ratio(with - base, base) * 100.0;
    if higher_is_better {
        -change
    } else {
        change
    }
}

/// The per-layer numbers one traced trial yields by itself: counters read
/// as differences over the traced segment, and the benchmark's own spans.
/// The rungs are added once per run.
fn trial_layers(rig: &Rig, plan: &Plan, recorded: &Recorded, spans: &[Span]) -> Report {
    let mut report = Report::default();
    let index = recorded.schedule.stream.len() - 1;
    let (before, after) = (&recorded.counters[index], &recorded.counters[index + 1]);
    let seconds = (after.at_ns - before.at_ns) as f64 / 1e9;
    let delta = |read: fn(&Counters) -> u64| (read(after) - read(before)) as f64;
    let beats = delta(|c| c.accounted);
    let frames = delta(|c| c.frames);
    let generated = &recorded.generated.segments[index];
    // The open-loop generator: the load itself, or the probe beside a
    // closed-loop load.
    let paced = &recorded
        .probe
        .as_ref()
        .unwrap_or(&recorded.generated)
        .segments[index];

    let mut on_beat: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "backend.on_beat")
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .collect();
    report.set("backend.on_beat_ns", median(&mut on_beat));
    report.set("backend.beats_per_frame", ratio(beats, frames));
    report.set(
        "backend.queue_depth_p99",
        generated.queue_depth.quantile(0.99),
    );
    report.set(
        "backend.shed_beats",
        rig.apps
            .iter()
            .map(|a| a.backend.dropped_beats())
            .sum::<u64>() as f64,
    );
    report.set("backend.connect_ms", rig.times.backend_connect_ms);

    let busy = delta(|c| c.reactor[0]);
    report.set(
        "reactor.busy_ratio",
        ratio(busy, busy + delta(|c| c.reactor[1])),
    );
    report.set("reactor.loops_per_s", delta(|c| c.reactor[2]) / seconds);
    report.set(
        "reactor.dispatches_per_loop",
        ratio(delta(|c| c.reactor[3]), delta(|c| c.reactor[2])),
    );
    report.set(
        "reactor.frames_per_dispatch",
        ratio(frames, delta(|c| c.reactor[3])),
    );

    for (slot, stage) in STAGES.iter().enumerate() {
        let (sum, count) = (
            after.stages[slot].0 - before.stages[slot].0,
            after.stages[slot].1 - before.stages[slot].1,
        );
        report.set(
            &format!("collector.stage_{stage}_ns_mean"),
            ratio(sum * 1e9, count),
        );
    }
    let total = |read| rig.total(read) as f64;
    report.set(
        "collector.cross_shard_ingest",
        total(CollectorState::cross_shard_ingest),
    );
    report.set(
        "collector.protocol_errors",
        total(CollectorState::protocol_errors),
    );

    let delivery = histo_delta(&after.delivery, &before.delivery);
    report.set(
        "subscribe.delivery_lag_us_mean",
        histo_mean_ns(&delivery) / 1e3,
    );
    report.set(
        "subscribe.delivery_lag_us_p99",
        histo_quantile_ns(&delivery, 0.99) / 1e3,
    );
    let observed = &recorded.observed;
    report.set(
        "subscribe.beats_per_event",
        ratio(
            observed.segments[index].beats as f64,
            observed.segments[index].events as f64,
        ),
    );
    report.set(
        "subscribe.events_dropped",
        total(CollectorState::events_dropped_total),
    );

    for op in Op::ALL {
        let rtt = &recorded.queries.out.rtt_ns[op.index()];
        match op {
            Op::Metrics => report.set("client.metrics_rtt_ms_p50", rtt.quantile(0.5) / 1e6),
            op => report.set(
                &format!("client.{}_rtt_us_p50", op.name()),
                rtt.quantile(0.5) / 1e3,
            ),
        }
    }
    report.set(
        "client.recv_lag_us_mean",
        histo_mean_ns(&observed.recv_lag) / 1e3,
    );
    report.set("client.lost_events", observed.lost_events as f64);
    report.set("client.connect_us", rig.times.client_connect_us);
    report.set("client.subscribe_ack_us", rig.times.subscribe_ack_us);

    let front = rig.front.state();
    let uplink = front.upstream_stats();
    report.set("upstream.forwarded_beats", delta(|c| c.forwarded_beats));
    report.set(
        "upstream.retransmits",
        uplink.as_ref().map_or(0.0, |s| s.retransmits() as f64),
    );
    report.set(
        "upstream.reconnects",
        uplink.as_ref().map_or(0.0, |s| s.reconnects() as f64),
    );
    report.set(
        "upstream.tap_shed_beats",
        front
            .upstream_tap()
            .map_or(0.0, |tap| tap.dropped_beats() as f64),
    );
    report.set("upstream.link_up_ms", rig.times.link_up_ms);

    report.set("gen.sched_late_us_p99", paced.late_ns.quantile(0.99) / 1e3);
    let (untraced, traced) = (headline(recorded, 0), headline(recorded, index));
    report.set("trace.overhead_pct", overhead_pct(plan, &untraced, &traced));
    report.set("trace.spans", spans.len() as f64);
    // Not a contract metric: kept for `ledger.attributed_pct`, which needs
    // the traced segment's own cost per beat.
    report.set(TRACED_COST, traced.cpu_ns_per_beat);
    report
}

/// Scratch entry of a trial's layer report, removed before it is printed.
const TRACED_COST: &str = "traced.cpu_ns_per_beat";

/// One trial's results.
struct Trial {
    verdict: Verdict,
    end_to_end: Report,
    candidates: Report,
    layers: Option<Report>,
    spans: Vec<Span>,
    io_threads: usize,
}

fn run_trial(
    plan: &Plan,
    seed: u64,
    total_ns: u64,
    traced: bool,
    trial: u64,
) -> Result<Trial, String> {
    // A freeze of the machine during set-up can outlast the producer's
    // 100 ms negotiation timeout and leave a connection on wire v2; such a
    // rig is not the one specified. Build again, a few times at most, so
    // that a set-up that can never succeed still fails the run.
    let mut attempts = 0;
    let rig = loop {
        attempts += 1;
        match rig::build(plan, seed, plan.apps(proc::nproc()), traced) {
            Ok(rig) => break rig,
            Err(err) if attempts == SETUP_ATTEMPTS => return Err(err),
            Err(_) => {}
        }
    };
    let recorded = drive(&rig, plan, seed, total_ns, traced);
    let verdict = ledger(&rig, &recorded).verify();
    let end_to_end = end_to_end(&recorded, rig.times.total_s);
    let candidates = candidates(&recorded);
    let (layers, spans) = if traced {
        let mut spans = beat_spans(&rig, &recorded);
        spans.extend(recorded.queries.out.spans.iter().cloned());
        // Ids restart in every trial; keep them apart in the trace file.
        for span in &mut spans {
            span.id += trial * 1_000_000_000;
        }
        (Some(trial_layers(&rig, plan, &recorded, &spans)), spans)
    } else {
        (None, Vec::new())
    };
    let io_threads = rig.front.io_threads();
    rig.shutdown();
    Ok(Trial {
        verdict,
        end_to_end,
        candidates,
        layers,
        spans,
        io_threads,
    })
}

/// The trimmed mean of every metric over the trials' reports.
fn combine<'a>(reports: impl Iterator<Item = &'a Report> + Clone) -> Report {
    let mut combined = Report::default();
    let Some(first) = reports.clone().next() else {
        return combined;
    };
    for name in first.names() {
        let mut values: Vec<f64> = reports.clone().filter_map(|r| r.get(name)).collect();
        combined.set_noted(
            name,
            trimmed_mean(&mut values),
            format!("{} trials", values.len()),
        );
    }
    combined
}

/// Runs `plan`: [`TRIALS`] trials sharing `seconds`. `Err` means the run
/// could not be carried out at all; a run that completes with failed
/// checks returns its verdict.
pub fn run_workload(plan: &Plan, seed: u64, seconds: u64, traced: bool) -> Result<Outcome, String> {
    let total_ns = seconds * 1_000_000_000 / TRIALS;
    let trials = (0..TRIALS)
        .map(|trial| run_trial(plan, seed + trial * 7919, total_ns, traced, trial))
        .collect::<Result<Vec<_>, _>>()?;

    let mut verdict = Verdict {
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };
    for (index, trial) in trials.iter().enumerate() {
        verdict.attempted += trial.verdict.attempted;
        verdict.failed += trial.verdict.failed;
        verdict.failures.extend(
            trial
                .verdict
                .failures
                .iter()
                .map(|f| format!("trial {index}: {f}")),
        );
    }
    let mut end_to_end = combine(trials.iter().map(|t| &t.end_to_end));
    // The process's high-water mark covers every trial.
    end_to_end.set("peak_rss_mb", proc::peak_rss_mb());

    let candidates = combine(trials.iter().map(|t| &t.candidates));
    let mut outcome = Outcome {
        verdict,
        end_to_end,
        candidates,
        per_layer: None,
        io_threads: trials[0].io_threads,
        spans: Vec::new(),
        trace_file: None,
    };
    if traced {
        let mut layers = combine(trials.iter().filter_map(|t| t.layers.as_ref()));
        layers.extend(&outcome.candidates);
        rungs::run_all(&mut layers)?;
        let attributed = rungs::attributed_ns_per_beat(
            &layers,
            layers.get("backend.on_beat_ns").unwrap_or(0.0),
            layers.get("backend.beats_per_frame").unwrap_or(0.0),
        );
        let cost = layers.take(TRACED_COST).unwrap_or(0.0);
        layers.set("ledger.attributed_pct", ratio(attributed * 100.0, cost));
        layers.set("ledger.failed_ratio", outcome.verdict.failed_ratio());
        outcome.per_layer = Some(layers);

        let spans: Vec<Span> = trials.into_iter().flat_map(|t| t.spans).collect();
        let path = trace::trace_dir().join(format!("trace-{}.jsonl", plan.name));
        trace::write_jsonl(&path, &spans).map_err(|err| format!("{}: {err}", path.display()))?;
        outcome.spans = trace::summarize(&spans);
        outcome.trace_file = Some(path);
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_histogram_quantiles_interpolate_inside_a_bucket() {
        let histo = LatencyHisto::new();
        for _ in 0..100 {
            histo.record(1000); // bucket 10: 512..=1023
        }
        let snap = histo.snapshot();
        assert_eq!(histo_mean_ns(&snap), 1000.0);
        let p50 = histo_quantile_ns(&snap, 0.5);
        assert!((512.0..=1023.0).contains(&p50), "{p50}");
        assert_eq!(histo_quantile_ns(&HistoSnapshot::default(), 0.5), 0.0);

        histo.record(5_000_000);
        let delta = histo_delta(&histo.snapshot(), &snap);
        assert_eq!(delta.count, 1);
        assert_eq!(histo_mean_ns(&delta), 5_000_000.0);
    }

    #[test]
    fn trial_reports_combine_by_trimmed_mean() {
        let reports: Vec<Report> = [3.0, 100.0, 1.0, 2.0, 4.0]
            .iter()
            .map(|&v| {
                let mut report = Report::default();
                report.set("a", v);
                report.set("b", v * 2.0);
                report
            })
            .collect();
        let combined = combine(reports.iter());
        assert_eq!(combined.get("a"), Some(3.0));
        assert_eq!(combined.get("b"), Some(6.0));
        assert_eq!(combined.note("a"), "5 trials");
    }
}
