//! The five workloads: what each one loads the pipeline with, the threads
//! that generate, observe and query, and what they record while doing so.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use hb_net::{CollectorState, EventFrame, EventPayload, HistoSnapshot, Subscription};
use heartbeats::{SharedClock, Tag};

use crate::rig::{App, Rig, STATIC_HISTORY};
use crate::stats::{Histogram, Rng};
use crate::trace::Span;

/// Workload names, in run order. Later issues refer to them; do not rename.
pub const WORKLOADS: [&str; 5] = [
    "paced_stream",
    "ingest_saturate",
    "fanout_push",
    "observer_mix",
    "federated_hop",
];

/// The open-loop generator issues its beats in bursts this far apart.
pub const TICK_NS: u64 = 1_000_000;
/// Load runs this long before anything is measured.
pub const WARMUP_NS: u64 = 200_000_000;
/// `ingest_saturate` keeps at most this many beats unaccounted: the default
/// `queue_capacity`, so a producer queue can never overflow and shed.
pub const OUTSTANDING: u64 = 8192;
/// `ingest_saturate` issues this many beats per app before looking at the
/// collector again.
pub const CHUNK: u64 = 256;
/// A traced segment tags one beat in this many.
pub const TAG_EVERY: u64 = 64;
/// Set in every tag the open-loop generator issues, so its tags never
/// collide with the closed-loop generator's when both run.
const PACED_TAG: u64 = 1 << 40;
/// `history` queries ask for this many samples.
pub const HISTORY_LIMIT: u32 = 256;
/// Observer connections of `fanout_push`. The issue multiplexed 8
/// subscriptions on one connection; every batch then becomes 8 events in
/// that connection's 1024-event queue, which only its own reactor shard
/// drains, and at ~1.4 frames per app per tick the queue fills in under
/// 50 ms. This kind of machine freezes a vCPU for 100–200 ms every few
/// minutes, which sheds events and fails the ledger about one run in ten.
/// One subscription per connection keeps the 8-way fan-out and gives every
/// queue the headroom `paced_stream` has.
pub const FANOUT_SUBSCRIPTIONS: usize = 8;
/// Producer-less apps every rig pre-loads with a full history ring, so the
/// query cycle meets a registry of realistic size on every workload and
/// its cost is the collector's work, not a round trip over two apps.
pub const STATIC_APPS: usize = 256;
/// Share of `--seconds` spent in the query window on workloads whose
/// queries follow the stream window.
const QUERY_SHARE: f64 = 0.3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// Open loop: this many beats per second in 1 ms ticks.
    Paced(u64),
    /// Closed loop: as fast as the collector accounts them. Beside it runs
    /// a quiet probe app, one beat per tick, the only app the workload's
    /// subscription matches: push latency while ingest is saturated.
    Saturate,
}

/// What distinguishes one workload from another.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub name: &'static str,
    pub load: Load,
    /// Observer connections, each with one `Interest::BEATS` subscription.
    pub subscriptions: usize,
    pub federated: bool,
    /// Queries run beside the stream for the whole window, not after it.
    pub queries_alongside: bool,
}

pub fn plan(name: &str) -> Option<Plan> {
    let base = Plan {
        name: "paced_stream",
        load: Load::Paced(10_000),
        subscriptions: 1,
        federated: false,
        queries_alongside: false,
    };
    Some(match name {
        "paced_stream" => base,
        "ingest_saturate" => Plan {
            name: "ingest_saturate",
            load: Load::Saturate,
            ..base
        },
        "fanout_push" => Plan {
            name: "fanout_push",
            subscriptions: FANOUT_SUBSCRIPTIONS,
            ..base
        },
        "observer_mix" => Plan {
            name: "observer_mix",
            load: Load::Paced(2_000),
            queries_alongside: true,
            ..base
        },
        "federated_hop" => Plan {
            name: "federated_hop",
            federated: true,
            ..base
        },
        _ => return None,
    })
}

impl Plan {
    /// Producer connections: one app per core, but never more apps than
    /// beats in a tick.
    pub fn apps(&self, nproc: usize) -> usize {
        match self.load {
            Load::Paced(rate) => nproc.min((rate * TICK_NS / 1_000_000_000) as usize).max(1),
            Load::Saturate => nproc,
        }
    }
}

/// One stretch of the stream window, on the shared clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    pub start_ns: u64,
    pub end_ns: u64,
    /// Beats are tagged and spans recorded.
    pub traced: bool,
}

impl Segment {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// When everything happens, fixed before the generator starts so that the
/// threads agree on it without talking to each other.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Tick 0 of the open-loop generator.
    pub grid_start_ns: u64,
    /// The stream window: one segment, or an untraced and a traced half.
    pub stream: Vec<Segment>,
    /// When the query loop runs.
    pub query: Segment,
    /// The generator stops here.
    pub end_ns: u64,
}

impl Schedule {
    /// A schedule measuring for `total` ns, starting shortly after `now_ns`.
    pub fn new(now_ns: u64, total: u64, traced: bool, queries_alongside: bool) -> Schedule {
        let grid_start_ns = now_ns + 5 * TICK_NS;
        let start = grid_start_ns + WARMUP_NS;
        let stream_len = if queries_alongside {
            total
        } else {
            total - (total as f64 * QUERY_SHARE) as u64
        };
        let stream_end = start + stream_len;
        let stream = if traced {
            let mid = start + stream_len / 2;
            vec![
                Segment {
                    start_ns: start,
                    end_ns: mid,
                    traced: false,
                },
                Segment {
                    start_ns: mid,
                    end_ns: stream_end,
                    traced: true,
                },
            ]
        } else {
            vec![Segment {
                start_ns: start,
                end_ns: stream_end,
                traced: false,
            }]
        };
        let query = if queries_alongside {
            Segment {
                start_ns: start,
                end_ns: stream_end,
                traced,
            }
        } else {
            Segment {
                start_ns: stream_end,
                end_ns: start + total,
                traced,
            }
        };
        Schedule {
            grid_start_ns,
            stream,
            query,
            end_ns: start + total,
        }
    }

    /// The stream segment holding `t_ns`.
    pub fn segment_of(&self, t_ns: u64) -> Option<usize> {
        self.stream
            .iter()
            .position(|s| (s.start_ns..s.end_ns).contains(&t_ns))
    }
}

/// How the open-loop generator lays beats on its tick grid, so an observer
/// can tell from a beat's `seq` when it was due.
#[derive(Debug, Clone)]
pub struct Grid {
    pub start_ns: u64,
    /// One per app the open-loop generator drives.
    pub lanes: Vec<Lane>,
}

#[derive(Debug, Clone)]
pub struct Lane {
    /// Index into the rig's apps.
    pub app: usize,
    /// The name events carry for this app.
    pub observed_name: String,
    /// `seq` of the first beat of tick 0.
    pub seq0: u64,
    pub per_tick: u64,
}

impl Grid {
    /// The lanes of the open-loop generator: every app at the plan's rate,
    /// or the probe app alone at one beat per tick.
    pub fn new(rig: &Rig, schedule: &Schedule, plan: &Plan) -> Grid {
        let per_tick_total = match plan.load {
            Load::Paced(rate) => rate * TICK_NS / 1_000_000_000,
            Load::Saturate => 1,
        };
        let n = rig.watched.len() as u64;
        Grid {
            start_ns: schedule.grid_start_ns,
            lanes: rig
                .watched
                .iter()
                .enumerate()
                .map(|(i, &app)| Lane {
                    app,
                    observed_name: rig.observed_name(&rig.apps[app].name),
                    seq0: rig.apps[app].hb.total_beats(),
                    per_tick: per_tick_total / n + u64::from((i as u64) < per_tick_total % n),
                })
                .collect(),
        }
    }

    pub fn due_ns(&self, lane: usize, seq: u64) -> u64 {
        let lane = &self.lanes[lane];
        self.start_ns + (seq - lane.seq0) / lane.per_tick.max(1) * TICK_NS
    }
}

/// A tagged beat as the generator issued it.
#[derive(Debug, Clone, Copy)]
pub struct TagIssue {
    pub tag: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// `ingest_saturate` only: when the producer saw the collector's
    /// accounted count cover this beat.
    pub accounted_ns: Option<u64>,
}

/// What the generator recorded in one stream segment.
#[derive(Debug, Default)]
pub struct GenSegment {
    /// Wall time of each burst, in ns; [`GenOut::burst`] beats share it.
    pub burst_ns: Histogram,
    /// How late each tick started (open loop only).
    pub late_ns: Histogram,
    /// `TcpBackend::queue_len()` after each burst (traced segments only).
    pub queue_depth: Histogram,
}

#[derive(Debug, Default)]
pub struct GenOut {
    /// Beats per timed burst.
    pub burst: u64,
    pub segments: Vec<GenSegment>,
    pub tagged: Vec<TagIssue>,
}

impl GenOut {
    fn new(schedule: &Schedule, burst: u64) -> GenOut {
        GenOut {
            burst,
            segments: schedule
                .stream
                .iter()
                .map(|_| GenSegment::default())
                .collect(),
            tagged: Vec::new(),
        }
    }
}

/// Issues one beat, tagged and timed when `tag` is set.
fn issue(app: &App, clock: &SharedClock, tag: Option<u64>, tagged: &mut Vec<TagIssue>) {
    match tag {
        None => {
            app.hb.heartbeat();
        }
        Some(tag) => {
            let start_ns = clock.now_ns();
            app.hb.heartbeat_tagged(Tag::new(tag));
            tagged.push(TagIssue {
                tag,
                start_ns,
                end_ns: clock.now_ns(),
                accounted_ns: None,
            });
        }
    }
}

/// The open-loop generator: every tick of the grid, each app issues its
/// share of the burst, however long the previous burst took.
pub fn run_paced(
    rig_apps: &[App],
    clock: &SharedClock,
    grid: &Grid,
    schedule: &Schedule,
    seed: u64,
) -> GenOut {
    let mut out = GenOut::new(schedule, grid.lanes.iter().map(|a| a.per_tick).sum());
    let phase = Rng::new(seed).next_u64() % TAG_EVERY;
    let mut issued = 0u64;
    for tick in 0.. {
        let due = grid.start_ns + tick * TICK_NS;
        if due >= schedule.end_ns {
            break;
        }
        let now = clock.now_ns();
        if now < due {
            std::thread::sleep(Duration::from_nanos(due - now));
        }
        let segment = schedule.segment_of(due);
        let traced = segment.is_some_and(|s| schedule.stream[s].traced);
        let began = clock.now_ns();
        for lane in &grid.lanes {
            for _ in 0..lane.per_tick {
                let tag = (traced && issued % TAG_EVERY == phase).then_some(PACED_TAG | issued);
                issue(&rig_apps[lane.app], clock, tag, &mut out.tagged);
                issued += 1;
            }
        }
        let ended = clock.now_ns();
        if let Some(s) = segment {
            let seg = &mut out.segments[s];
            seg.burst_ns.record(ended - began);
            seg.late_ns.record(began.saturating_sub(due));
            if traced {
                seg.queue_depth
                    .record(rig_apps[grid.lanes[0].app].backend.queue_len() as u64);
            }
        }
    }
    out
}

/// The closed-loop generator: rounds of [`CHUNK`] beats per app, waiting
/// whenever [`OUTSTANDING`] beats are not yet accounted by the collector.
/// It saturates the stream window only: the query window that follows runs
/// against a collector at rest, because query latency on two cores that
/// five busy threads already fill measures the scheduler, not the system.
pub fn run_saturate(
    rig_apps: &[App],
    probe: &App,
    clock: &SharedClock,
    state: &CollectorState,
    schedule: &Schedule,
) -> GenOut {
    let mut out = GenOut::new(schedule, CHUNK);
    let base = state.beats_accounted();
    let probe_base = probe.hb.total_beats();
    let round = CHUNK * rig_apps.len() as u64;
    let end_ns = schedule.stream.last().map_or(schedule.end_ns, |s| s.end_ns);
    let give_up_ns = end_ns + 5_000_000_000;
    let mut issued = 0u64;
    // (beats issued up to and including a round, its tagged beat)
    let mut unaccounted: VecDeque<(u64, Option<usize>)> = VecDeque::new();
    loop {
        let round_start = clock.now_ns();
        if round_start >= end_ns {
            break;
        }
        let segment = schedule.segment_of(round_start);
        let traced = segment.is_some_and(|s| schedule.stream[s].traced);
        let mut tagged_at = None;
        for (i, app) in rig_apps.iter().enumerate() {
            let began = clock.now_ns();
            for _ in 1..CHUNK {
                app.hb.heartbeat();
            }
            // One tagged beat per round: the last, so its accounting time
            // is the round's.
            let last = traced && i + 1 == rig_apps.len();
            if last {
                tagged_at = Some(out.tagged.len());
            }
            issue(app, clock, last.then_some(issued + round), &mut out.tagged);
            let ended = clock.now_ns();
            if let Some(s) = segment {
                out.segments[s].burst_ns.record(ended - began);
            }
        }
        issued += round;
        unaccounted.push_back((issued, tagged_at));
        if traced {
            if let Some(s) = segment {
                out.segments[s]
                    .queue_depth
                    .record(rig_apps[0].backend.queue_len() as u64);
            }
        }
        loop {
            // The collector's count includes the probe app's beats. Taking
            // off every beat the probe has issued can only undercount what
            // is accounted of this generator's, so the bound stays safe.
            let probe_issued = probe.hb.total_beats() - probe_base;
            let accounted = (state.beats_accounted() - base)
                .saturating_sub(probe_issued)
                .min(issued);
            let now = clock.now_ns();
            while let Some(&(upto, tagged_at)) = unaccounted.front() {
                if upto > accounted {
                    break;
                }
                if let Some(index) = tagged_at {
                    out.tagged[index].accounted_ns = Some(now);
                }
                unaccounted.pop_front();
            }
            // A collector that stops accounting fails the ledger; do not
            // hang the run on it.
            if issued - accounted + round <= OUTSTANDING || now >= give_up_ns {
                break;
            }
            // Sleeping, not spinning: a spin would bill the wait to
            // `cpu_ns_per_beat`.
            std::thread::sleep(Duration::from_micros(50));
        }
    }
    // Outlive the last counter reading: a thread's CPU time leaves the
    // process's per-thread accounting when it exits.
    let now = clock.now_ns();
    if now < schedule.end_ns {
        std::thread::sleep(Duration::from_nanos(schedule.end_ns - now));
    }
    out
}

/// One app's beats as one subscription received them.
#[derive(Debug, Clone, Default)]
pub struct Received {
    pub next_seq: u64,
    pub beats: u64,
    pub breaks: u64,
}

#[derive(Debug, Default)]
pub struct ObsSegment {
    /// When a beat was due → when the subscriber thread held its event.
    pub lag_ns: Histogram,
    pub beats: u64,
    pub events: u64,
}

#[derive(Debug, Default)]
pub struct ObsOut {
    pub segments: Vec<ObsSegment>,
    /// `[subscription][lane of the grid]`.
    pub received: Vec<Vec<Received>>,
    /// Tagged beats on the first subscription: `(tag, sent_at wall ns,
    /// received ns on the shared clock)`.
    pub tagged: Vec<(u64, u64, u64)>,
    pub lost_events: u64,
    /// `Subscription::delivery_lag()` merged over the subscriptions.
    pub recv_lag: HistoSnapshot,
}

/// Progress the observer thread publishes and the stop flag it obeys.
#[derive(Debug, Default)]
pub struct ObserverControl {
    pub beats_received: AtomicU64,
    pub stop: AtomicBool,
}

/// The observer thread: drains every subscription, checks each app's `seq`
/// for continuity and times each beat from when it was due.
pub fn run_observer(
    subs: &[Subscription],
    clock: &SharedClock,
    grid: &Grid,
    schedule: &Schedule,
    control: &ObserverControl,
) -> ObsOut {
    let mut out = ObsOut {
        segments: schedule
            .stream
            .iter()
            .map(|_| ObsSegment::default())
            .collect(),
        received: vec![
            grid.lanes
                .iter()
                .map(|lane| Received {
                    next_seq: lane.seq0,
                    ..Received::default()
                })
                .collect();
            subs.len()
        ],
        ..ObsOut::default()
    };
    let handle = |sub: usize, event: EventFrame, out: &mut ObsOut| {
        let now = clock.now_ns();
        let EventPayload::Beats { beats, .. } = &event.payload else {
            return;
        };
        let Some(lane) = grid.lanes.iter().position(|a| a.observed_name == event.app) else {
            return;
        };
        let received = &mut out.received[sub][lane];
        let mut event_segment = None;
        for beat in beats {
            let seq = beat.record.seq;
            if seq != received.next_seq {
                received.breaks += 1;
            }
            received.next_seq = seq + 1;
            received.beats += 1;
            if seq < grid.lanes[lane].seq0 {
                continue;
            }
            let due = grid.due_ns(lane, seq);
            if let Some(s) = schedule.segment_of(due) {
                out.segments[s].lag_ns.record(now.saturating_sub(due));
                out.segments[s].beats += 1;
                event_segment = Some(s);
            }
            if sub == 0 && beat.record.tag != Tag::NONE {
                out.tagged
                    .push((beat.record.tag.value(), event.sent_at_ns, now));
            }
        }
        if let Some(s) = event_segment {
            out.segments[s].events += 1;
        }
        control
            .beats_received
            .fetch_add(beats.len() as u64, Ordering::Relaxed); // ordering: progress counter; publishes nothing else
    };
    loop {
        let mut idle = true;
        for (index, sub) in subs.iter().enumerate() {
            while let Some(event) = sub.try_next() {
                idle = false;
                handle(index, event, &mut out);
            }
        }
        if idle {
            if control.stop.load(Ordering::Acquire) {
                // ordering: pairs with the Release store in stop_observer
                break;
            }
            if let Some(event) = subs[0].next_timeout(Duration::from_millis(1)) {
                handle(0, event, &mut out);
            }
        }
    }
    for sub in subs {
        out.lost_events += sub.lost();
        out.recv_lag.merge(&sub.delivery_lag());
    }
    out
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Op {
    Snapshot,
    Health,
    History,
    Stats,
    Metrics,
}

impl Op {
    pub const ALL: [Op; 5] = [
        Op::Snapshot,
        Op::Health,
        Op::History,
        Op::Stats,
        Op::Metrics,
    ];

    pub fn index(self) -> usize {
        self as usize
    }

    pub fn name(self) -> &'static str {
        &self.span_name()["client.".len()..]
    }

    /// The name of the span recorded around one such query.
    pub fn span_name(self) -> &'static str {
        match self {
            Op::Snapshot => "client.snapshot",
            Op::Health => "client.health",
            Op::History => "client.history",
            Op::Stats => "client.stats",
            Op::Metrics => "client.metrics",
        }
    }
}

/// The seeded query cycle: 8 snapshots, 4 healths, 2 histories, one stats
/// and one scrape, in an order the seed picks.
pub fn query_cycle(rng: &mut Rng) -> Vec<Op> {
    let mut cycle = Vec::with_capacity(16);
    for (op, count) in [
        (Op::Snapshot, 8),
        (Op::Health, 4),
        (Op::History, 2),
        (Op::Stats, 1),
        (Op::Metrics, 1),
    ] {
        cycle.extend(std::iter::repeat_n(op, count));
    }
    rng.shuffle(&mut cycle);
    cycle
}

#[derive(Debug, Default)]
pub struct QueryOut {
    /// Round-trip times in ns, indexed like [`Op::ALL`].
    pub rtt_ns: [Histogram; 5],
    /// Queries started in each stream segment (they only run there on a
    /// workload whose queries run alongside).
    pub per_segment: Vec<u64>,
    /// Traced runs: one `client.<op>` span per query of a traced window.
    pub spans: Vec<Span>,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
}

/// One closed-loop query client.
pub struct QueryLoop {
    cycle: Vec<Op>,
    step: usize,
    rng: Rng,
    /// Names as the observed collector knows them; live apps first.
    targets: Vec<String>,
    live: usize,
    last_total: Vec<u64>,
    pub out: QueryOut,
}

impl QueryLoop {
    pub fn new(rig: &Rig, seed: u64, schedule: &Schedule) -> QueryLoop {
        let mut rng = Rng::new(seed ^ 0x51ED_270B);
        let targets: Vec<String> = rig
            .apps
            .iter()
            .map(|app| rig.observed_name(&app.name))
            .chain(rig.static_apps.iter().cloned())
            .collect();
        QueryLoop {
            cycle: query_cycle(&mut rng),
            step: 0,
            rng,
            last_total: vec![0; targets.len()],
            live: rig.apps.len(),
            targets,
            out: QueryOut {
                per_segment: vec![0; schedule.stream.len()],
                ..QueryOut::default()
            },
        }
    }

    fn violation(&mut self, what: String) {
        // The first few name the problem; a broken invariant tends to
        // repeat on every later reply.
        if self.out.violations.len() < 8 {
            self.out.violations.push(what);
        } else {
            self.out.failed += 1;
        }
    }

    /// Issues the next operation of the cycle and checks its reply.
    pub fn step(&mut self, rig: &Rig, schedule: &Schedule) {
        let op = self.cycle[self.step % self.cycle.len()];
        self.step += 1;
        let target = self.rng.below(self.targets.len());
        let name = &self.targets[target];
        let start_ns = rig.clock.now_ns();
        let reply: Result<Option<String>, String> = match op {
            Op::Snapshot => rig
                .reader
                .snapshot(name)
                .map_err(|e| e.to_string())
                .map(|snap| {
                    let Some(snap) = snap else {
                        return Some(format!("snapshot: {name} unknown"));
                    };
                    let ceiling = if target < self.live {
                        rig.apps[target].hb.total_beats()
                    } else {
                        STATIC_HISTORY
                    };
                    let floor = std::mem::replace(&mut self.last_total[target], snap.total_beats);
                    (snap.total_beats < floor || snap.total_beats > ceiling).then(|| {
                        format!(
                            "snapshot: {name} total_beats {} outside {floor}..={ceiling}",
                            snap.total_beats
                        )
                    })
                }),
            Op::Health => rig
                .reader
                .health(name)
                .map_err(|e| e.to_string())
                .map(|report| report.is_none().then(|| format!("health: {name} unknown"))),
            Op::History => rig
                .reader
                .history(name, HISTORY_LIMIT)
                .map_err(|e| e.to_string())
                .map(|chunk| {
                    let Some(chunk) = chunk else {
                        return Some(format!("history: {name} unknown"));
                    };
                    let ordered = chunk
                        .samples
                        .windows(2)
                        .all(|pair| pair[0].seq < pair[1].seq);
                    (chunk.samples.len() > HISTORY_LIMIT as usize || !ordered).then(|| {
                        format!(
                            "history: {name} returned {} samples, ordered={ordered}",
                            chunk.samples.len()
                        )
                    })
                }),
            Op::Stats => rig.reader.stats().map_err(|e| e.to_string()).map(|stats| {
                (stats.protocol_errors != 0)
                    .then(|| format!("stats: protocol_errors={}", stats.protocol_errors))
            }),
            Op::Metrics => rig.reader.metrics().map_err(|e| e.to_string()).map(|text| {
                let series = text
                    .lines()
                    .filter(|line| line.starts_with("hb_app_beats_total{"))
                    .count();
                (series != self.targets.len()).then(|| {
                    format!(
                        "metrics: {series} app series for {} registered apps",
                        self.targets.len()
                    )
                })
            }),
        };
        let rtt_ns = rig.clock.now_ns() - start_ns;
        self.out.attempted += 1;
        self.out.rtt_ns[op.index()].record(rtt_ns);
        if let Some(s) = schedule.segment_of(start_ns) {
            self.out.per_segment[s] += 1;
        }
        if schedule.query.traced
            && schedule
                .segment_of(start_ns)
                .is_none_or(|s| schedule.stream[s].traced)
        {
            self.out.spans.push(Span::new(
                op.span_name(),
                self.out.attempted,
                None,
                start_ns,
                start_ns + rtt_ns,
            ));
        }
        match reply {
            Err(_) => self.out.failed += 1,
            Ok(_) if rtt_ns > 1_000_000_000 => self.out.failed += 1,
            Ok(Some(violation)) => self.violation(violation),
            Ok(None) => {}
        }
    }

    /// Runs the cycle until the shared clock reaches `until_ns`.
    pub fn run_until(&mut self, rig: &Rig, schedule: &Schedule, until_ns: u64) {
        while rig.clock.now_ns() < until_ns {
            self.step(rig, schedule);
        }
    }

    /// After the window: the scrape must name every registered app.
    pub fn check_scrape_names(&mut self, rig: &Rig) {
        match rig.reader.metrics() {
            Err(err) => self.violation(format!("final metrics: {err}")),
            Ok(text) => {
                let missing = self
                    .targets
                    .iter()
                    .filter(|name| !text.contains(&format!("hb_app_beats_total{{app=\"{name}\"}}")))
                    .count();
                if missing > 0 {
                    self.violation(format!(
                        "final metrics: {missing} registered apps have no series"
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_workload_has_a_plan() {
        for name in WORKLOADS {
            assert_eq!(plan(name).expect(name).name, name);
        }
        assert!(plan("nope").is_none());
        assert_eq!(plan("paced_stream").unwrap().apps(2), 2);
        assert_eq!(
            plan("observer_mix").unwrap().apps(8),
            2,
            "2 beats per tick feed 2 apps"
        );
        assert_eq!(plan("ingest_saturate").unwrap().apps(3), 3);
    }

    #[test]
    fn schedule_splits_the_requested_seconds() {
        let plain = Schedule::new(0, 10_000_000_000, false, false);
        assert_eq!(plain.stream.len(), 1);
        assert_eq!(plain.stream[0].seconds(), 7.0);
        assert_eq!(plain.query.seconds(), 3.0);
        assert_eq!(plain.query.start_ns, plain.stream[0].end_ns);
        assert_eq!(plain.end_ns, plain.query.end_ns);
        assert_eq!(plain.end_ns - plain.stream[0].start_ns, 10_000_000_000);

        let traced = Schedule::new(0, 10_000_000_000, true, true);
        assert_eq!(traced.stream.len(), 2);
        assert!(!traced.stream[0].traced && traced.stream[1].traced);
        assert_eq!(
            traced.stream[0].seconds() + traced.stream[1].seconds(),
            10.0
        );
        assert_eq!(traced.query.start_ns, traced.stream[0].start_ns);
        assert_eq!(traced.segment_of(traced.stream[1].start_ns), Some(1));
        assert_eq!(
            traced.segment_of(traced.grid_start_ns),
            None,
            "warm-up is not measured"
        );
    }

    #[test]
    fn grid_maps_seq_to_due_time() {
        let grid = Grid {
            start_ns: 1_000,
            lanes: vec![Lane {
                app: 0,
                observed_name: "a".into(),
                seq0: 64,
                per_tick: 5,
            }],
        };
        assert_eq!(grid.due_ns(0, 64), 1_000);
        assert_eq!(grid.due_ns(0, 68), 1_000);
        assert_eq!(grid.due_ns(0, 69), 1_000 + TICK_NS);
    }

    #[test]
    fn the_query_cycle_is_seeded() {
        let cycle = query_cycle(&mut Rng::new(3));
        assert_eq!(cycle.len(), 16);
        assert_eq!(cycle.iter().filter(|op| **op == Op::Snapshot).count(), 8);
        assert_eq!(cycle.iter().filter(|op| **op == Op::Metrics).count(), 1);
        assert_eq!(cycle, query_cycle(&mut Rng::new(3)));
        assert_ne!(cycle, query_cycle(&mut Rng::new(4)));
    }
}
