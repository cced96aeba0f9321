//! Set-up: the collectors, producers and observers one workload runs
//! against, all on loopback with default `CollectorConfig`,
//! `TcpBackendConfig` and `UpstreamConfig`.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hb_net::{
    Collector, CollectorConfig, CollectorState, EventPayload, RemoteReader, Subscription,
    TcpBackend, UpstreamConfig, WireBeat,
};
use heartbeats::{
    Backend, BackendStats, BeatScope, BeatThreadId, Heartbeat, HeartbeatBuilder, HeartbeatRecord,
    Interest, ObserveFilter, SharedClock, Tag,
};

use crate::stats::Rng;
use crate::workload::{Load, Plan, STATIC_APPS};

/// Beats each app issues during set-up; set-up ends when the collector has
/// accounted them and every subscription has received them, so lazy
/// first-use work (v3 negotiation, registry entries, subscription
/// propagation) is paid before anything is timed.
pub const FIRST_BEATS: u64 = 64;

/// History samples pre-loaded per static app (a full default ring).
pub const STATIC_HISTORY: u64 = 1024;

/// The federation node name of the leaf collector.
pub const LEAF: &str = "leaf";

/// Name prefix of the apps the load generator drives.
pub const APP: &str = "app";

/// Name prefix of the probe app: a quiet paced app beside a saturating
/// load, the only one the workload's subscription matches.
pub const PROBE: &str = "probe";

const READY_DEADLINE: Duration = Duration::from_secs(20);

/// One `(tag, start_ns, end_ns)` per tagged beat seen by [`SpanBackend`].
pub type OnBeatSpans = Arc<Mutex<Vec<(u64, u64, u64)>>>;

/// The benchmark-side span around `TcpBackend::on_beat`: delegates every
/// call, and times the tagged ones (only a traced run tags beats).
#[derive(Debug)]
struct SpanBackend {
    inner: Arc<TcpBackend>,
    clock: SharedClock,
    spans: OnBeatSpans,
}

impl Backend for SpanBackend {
    fn on_beat(&self, app: &str, record: &HeartbeatRecord, scope: BeatScope) {
        if record.tag == Tag::NONE {
            return self.inner.on_beat(app, record, scope);
        }
        let start = self.clock.now_ns();
        self.inner.on_beat(app, record, scope);
        let end = self.clock.now_ns();
        self.spans
            .lock()
            .expect("span list lock")
            .push((record.tag.value(), start, end));
    }

    fn on_target_change(&self, app: &str, min_bps: f64, max_bps: f64) {
        self.inner.on_target_change(app, min_bps, max_bps);
    }

    fn flush(&self) -> heartbeats::Result<()> {
        self.inner.flush()
    }

    fn stats(&self) -> BackendStats {
        self.inner.stats()
    }
}

/// One live application: its heartbeat handle and the backend behind it.
pub struct App {
    pub name: String,
    pub hb: Heartbeat,
    pub backend: Arc<TcpBackend>,
}

/// How long the parts of one set-up took.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    pub total_s: f64,
    pub backend_connect_ms: f64,
    pub client_connect_us: f64,
    pub subscribe_ack_us: f64,
    pub link_up_ms: f64,
}

pub struct Rig {
    pub clock: SharedClock,
    /// Where producers connect (the leaf when federated).
    pub front: Collector,
    /// Federated only: the parent, where the observers sit.
    pub root: Option<Collector>,
    pub apps: Vec<App>,
    /// Indexes into `apps` of the apps the subscriptions match: all of
    /// them, or only the probe app on a workload that has one (it is then
    /// the last app).
    pub watched: Vec<usize>,
    /// Apps registered on the observed collector through the embedding API,
    /// with a full history ring and no producer.
    pub static_apps: Vec<String>,
    /// The push observers: one connection per subscription.
    pub subscriptions: Vec<Subscription>,
    /// The query connection.
    pub reader: RemoteReader,
    pub on_beat_spans: OnBeatSpans,
    pub times: SetupTimes,
}

impl Rig {
    /// Every collector of the rig, front first.
    pub fn states(&self) -> Vec<Arc<CollectorState>> {
        let mut states = vec![self.front.state()];
        states.extend(self.root.as_ref().map(Collector::state));
        states
    }

    /// Beats set-up pre-loaded into the observed collector.
    pub fn static_beats(&self) -> u64 {
        self.static_apps.len() as u64 * STATIC_HISTORY
    }

    /// Beats the front collector accounted before any producer existed.
    pub fn preloaded(&self) -> u64 {
        if self.root.is_some() {
            0
        } else {
            self.static_beats()
        }
    }

    /// `read` summed over the rig's collectors.
    pub fn total(&self, read: fn(&CollectorState) -> u64) -> u64 {
        self.states().iter().map(|state| read(state)).sum()
    }

    /// The name observers see the producer `app` under.
    pub fn observed_name(&self, app: &str) -> String {
        if self.root.is_some() {
            format!("{LEAF}/{app}")
        } else {
            app.to_string()
        }
    }

    /// Stops producers first so nothing is in flight when the collectors
    /// close their sockets.
    pub fn shutdown(mut self) {
        self.subscriptions.clear();
        self.apps.clear();
        self.front.shutdown();
        if let Some(root) = &mut self.root {
            root.shutdown();
        }
    }
}

fn wait_until(what: &str, mut ready: impl FnMut() -> bool) -> Result<(), String> {
    let deadline = Instant::now() + READY_DEADLINE;
    while !ready() {
        if Instant::now() >= deadline {
            return Err(format!("set-up: timed out waiting for {what}"));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok(())
}

fn bind(config: CollectorConfig) -> Result<Collector, String> {
    Collector::with_config("127.0.0.1:0", "127.0.0.1:0", config)
        .map_err(|err| format!("bind collector: {err}"))
}

/// Registers `count` producer-less apps, each with a full history ring of
/// beats 1 ms apart, through the embedding API.
fn prepopulate(state: &CollectorState, rng: &mut Rng, count: usize) -> Vec<String> {
    (0..count)
        .map(|i| {
            let name = format!("st{:04x}-{i:03}", rng.next_u64() & 0xffff);
            let handle = state.hello(&name, 1, heartbeats::DEFAULT_WINDOW as u32);
            state.ingest_batch_with(
                &handle,
                0,
                (0..STATIC_HISTORY).map(|seq| WireBeat {
                    record: HeartbeatRecord::new(
                        seq,
                        (seq + 1) * 1_000_000,
                        Tag::NONE,
                        BeatThreadId(0),
                    ),
                    scope: BeatScope::Global,
                }),
            );
            name
        })
        .collect()
}

/// Builds the rig for `plan` and returns once it is ready to carry load.
pub fn build(plan: &Plan, seed: u64, napps: usize, spans: bool) -> Result<Rig, String> {
    let started = Instant::now();
    let mut rng = Rng::new(seed);
    let mut times = SetupTimes::default();
    let clock = heartbeats::clock::monotonic();

    let (front, root) = if plan.federated {
        let root = bind(CollectorConfig::default())?;
        let leaf = bind(CollectorConfig {
            upstream: Some(UpstreamConfig::new(root.ingest_addr().to_string(), LEAF)),
            ..CollectorConfig::default()
        })?;
        let link = leaf.state().upstream_stats().expect("leaf has an uplink");
        wait_until("the uplink", || link.connected())?;
        times.link_up_ms = started.elapsed().as_secs_f64() * 1e3;
        (leaf, Some(root))
    } else {
        (bind(CollectorConfig::default())?, None)
    };
    let front_state = front.state();
    let observed = root.as_ref().unwrap_or(&front);
    let query_addr = observed.query_addr().to_string();

    // The static apps live where the observers ask: queries should meet a
    // registry of realistic size, and their histories should not have to
    // cross the uplink first.
    let observed_state = observed.state();
    let static_apps = prepopulate(&observed_state, &mut rng, STATIC_APPS);
    let base = front_state.beats_accounted();
    let observed_base = observed_state.beats_accounted();

    let pattern = if plan.load == Load::Saturate {
        format!("{PROBE}*")
    } else if plan.federated {
        format!("{LEAF}/{APP}*")
    } else {
        format!("{APP}*")
    };
    let mut subscriptions = Vec::with_capacity(plan.subscriptions);
    for _ in 0..plan.subscriptions {
        let at = Instant::now();
        let observer = Arc::new(
            RemoteReader::connect(query_addr.clone()).map_err(|e| format!("observer: {e}"))?,
        );
        times.client_connect_us += at.elapsed().as_secs_f64() * 1e6 / plan.subscriptions as f64;
        let at = Instant::now();
        subscriptions.push(
            observer
                .subscribe(&pattern, &ObserveFilter::new(Interest::BEATS))
                .map_err(|e| format!("subscribe: {e}"))?,
        );
        times.subscribe_ack_us += at.elapsed().as_secs_f64() * 1e6 / plan.subscriptions as f64;
    }
    if plan.federated {
        // The parent acks before the leaf has registered the propagated
        // subscriptions; beats issued in between would never be pushed.
        let leaf_subs = front_state.subscriptions();
        wait_until("subscription propagation", || {
            leaf_subs.active() >= plan.subscriptions
        })?;
    }
    let reader = RemoteReader::connect(query_addr).map_err(|e| format!("reader: {e}"))?;

    let on_beat_spans = OnBeatSpans::default();
    let at = Instant::now();
    let shards = front.io_threads();
    let mut make_app = |prefix: &str, i: usize| -> Result<App, String> {
        // A producer connection lives on the reactor shard its app's name
        // hashes to, and a shard with no producer wakes only on its 20 ms
        // poll timeout, which quadruples push latency for an observer that
        // shares it. Which case a run gets would otherwise depend on the
        // seed, so seeded names are drawn until app i lands on shard i:
        // one producer per shard.
        let name = loop {
            let name = format!("{prefix}{:04x}-{i}", rng.next_u64() & 0xffff);
            if front_state.home_reactor_shard(&front_state.handle(&name)) == i % shards {
                break name;
            }
        };
        let backend = Arc::new(TcpBackend::new(
            front.ingest_addr().to_string(),
            name.clone(),
        ));
        let attached: Arc<dyn Backend> = if spans {
            Arc::new(SpanBackend {
                inner: Arc::clone(&backend),
                clock: Arc::clone(&clock),
                spans: Arc::clone(&on_beat_spans),
            })
        } else {
            Arc::clone(&backend) as Arc<dyn Backend>
        };
        let hb = HeartbeatBuilder::new(name.clone())
            .clock(Arc::clone(&clock))
            .backend(attached)
            .build()
            .map_err(|e| format!("heartbeat {name}: {e}"))?;
        Ok(App { name, hb, backend })
    };
    let mut apps = (0..napps)
        .map(|i| make_app(APP, i))
        .collect::<Result<Vec<App>, String>>()?;
    let watched: Vec<usize> = if plan.load == Load::Saturate {
        apps.push(make_app(PROBE, napps)?);
        vec![napps]
    } else {
        (0..napps).collect()
    };
    // A `TcpBackend` connects when it first has something to send, so the
    // first beats also establish and negotiate every producer connection.
    for app in &apps {
        for _ in 0..FIRST_BEATS {
            app.hb.heartbeat();
        }
    }
    let expected = base + FIRST_BEATS * apps.len() as u64;
    wait_until("the first beats to be accounted", || {
        front_state.beats_accounted() >= expected
    })?;
    times.backend_connect_ms = at.elapsed().as_secs_f64() * 1e3;
    if let Some(app) = apps.iter().find(|app| !app.backend.negotiated_compact()) {
        return Err(format!("set-up: {} did not negotiate wire v3", app.name));
    }
    if root.is_some() {
        let expected = observed_base + FIRST_BEATS * apps.len() as u64;
        wait_until("the first beats to reach the parent", || {
            observed_state.beats_accounted() >= expected
        })?;
    }

    let pushed = FIRST_BEATS * watched.len() as u64;
    for sub in &subscriptions {
        let mut received = 0;
        while received < pushed {
            let event = sub
                .next_timeout(READY_DEADLINE)
                .ok_or("set-up: timed out waiting for the first pushed beats")?;
            if let EventPayload::Beats { beats, .. } = event.payload {
                received += beats.len() as u64;
            }
        }
        if received != pushed {
            return Err(format!(
                "set-up: a subscription received {received} first beats, expected {pushed}"
            ));
        }
    }

    times.total_s = started.elapsed().as_secs_f64();
    Ok(Rig {
        clock,
        front,
        root,
        apps,
        watched,
        static_apps,
        subscriptions,
        reader,
        on_beat_spans,
        times,
    })
}
