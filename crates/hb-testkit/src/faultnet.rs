//! # faultnet — a deterministic in-process chaos proxy
//!
//! Sits between any client (or uplink relay) and a collector and injects
//! network faults on a **seeded, reproducible schedule**: partial
//! writes/fragmentation, byte corruption, frame truncation followed by a
//! reset, bounded delays, connection resets, and hard partitions. The
//! federation hardening tests (`tests/federation_chaos.rs`) run the whole
//! collector tree through these proxies and assert that the exactly-once
//! rollup ledger and the resumable event plane hold regardless of what the
//! network does.
//!
//! Determinism: every forwarding direction of every accepted connection
//! gets its own SplitMix64 stream derived from `(seed, connection index,
//! direction)`. Given the same seed and the same connection arrival order,
//! the fault schedule is identical — a failing chaos run reproduces from
//! its logged seed. (Thread scheduling still jitters *timing*, which is why
//! the tests assert ledger invariants, not byte-exact traces.)
//!
//! The proxy is test infrastructure: it lives in this dev-only crate so the
//! integration tests and soaks of every workspace member can drive it while
//! the shipped collector contains no chaos proxy. It holds no state beyond
//! its own sockets and counters.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// Probabilities are expressed in parts-per-10000 of each forwarded chunk
/// (a `read` result), so integer arithmetic keeps the schedule exact.
const PROB_DENOM: u64 = 10_000;

/// Fault schedule for a [`FaultProxy`]. All probabilities are per forwarded
/// chunk, in parts per 10 000 (`250` = 2.5 %). The default config is a
/// moderately hostile network: frequent fragmentation, occasional
/// corruption and truncating resets, rare outright resets.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Seed for the fault schedule. The same seed (with the same
    /// connection arrival order) replays the same faults.
    pub seed: u64,
    /// Chance of fragmenting a chunk: forward a random prefix, then the
    /// remainder as a separate write (exercises partial-read handling).
    pub fragment_prob: u64,
    /// Chance of flipping one byte of the chunk before forwarding
    /// (exercises CRC rejection — must surface as `NetError`, never apply).
    pub corrupt_prob: u64,
    /// Chance of forwarding only a prefix of the chunk and then resetting
    /// the connection (a frame truncated at an arbitrary boundary).
    pub truncate_prob: u64,
    /// Chance of sleeping up to [`max_delay`](Self::max_delay) before
    /// forwarding the chunk.
    pub delay_prob: u64,
    /// Chance of resetting the connection without forwarding anything.
    pub reset_prob: u64,
    /// Upper bound for injected delays.
    pub max_delay: Duration,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0x5eed_f417,
            fragment_prob: 1_500,
            corrupt_prob: 120,
            truncate_prob: 120,
            delay_prob: 400,
            reset_prob: 40,
            max_delay: Duration::from_millis(5),
        }
    }
}

impl FaultConfig {
    /// A schedule that injects nothing — the proxy becomes a plain relay
    /// (still supports [`FaultProxy::partition`] / [`FaultProxy::sever`]).
    pub fn passthrough(seed: u64) -> Self {
        FaultConfig {
            seed,
            fragment_prob: 0,
            corrupt_prob: 0,
            truncate_prob: 0,
            delay_prob: 0,
            reset_prob: 0,
            max_delay: Duration::ZERO,
        }
    }
}

/// Counters for every fault the proxy actually injected, plus traffic
/// totals. All monotone; readable while the proxy runs.
#[derive(Debug, Default)]
pub struct FaultStats {
    /// Connections accepted (and proxied) so far.
    pub connections: AtomicU64,
    /// Connections refused because the proxy was partitioned.
    pub refused: AtomicU64,
    /// Chunks forwarded in two fragments.
    pub fragments: AtomicU64,
    /// Chunks with a byte flipped.
    pub corruptions: AtomicU64,
    /// Connections reset after forwarding a truncated chunk.
    pub truncations: AtomicU64,
    /// Chunks delayed before forwarding.
    pub delays: AtomicU64,
    /// Connections reset without forwarding.
    pub resets: AtomicU64,
    /// Total bytes forwarded (after any truncation).
    pub bytes: AtomicU64,
}

impl FaultStats {
    /// Total faults of every kind injected so far.
    pub fn total_faults(&self) -> u64 {
        self.fragments.load(Ordering::Relaxed) // ordering: monitoring read; staleness is acceptable
            + self.corruptions.load(Ordering::Relaxed) // ordering: monitoring read; staleness is acceptable
            + self.truncations.load(Ordering::Relaxed) // ordering: monitoring read; staleness is acceptable
            + self.delays.load(Ordering::Relaxed) // ordering: monitoring read; staleness is acceptable
            + self.resets.load(Ordering::Relaxed) // ordering: monitoring read; staleness is acceptable
    }
}

/// A TCP proxy that forwards to `target` while injecting the faults its
/// [`FaultConfig`] schedules. Point a `TcpBackend` or an
/// `UpstreamConfig.parent` at [`addr`](Self::addr) instead of the real
/// collector address.
#[derive(Debug)]
pub struct FaultProxy {
    addr: String,
    config: Arc<FaultConfig>,
    stats: Arc<FaultStats>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
    partitioned: Arc<AtomicBool>,
    shutdown: Arc<AtomicBool>,
}

impl FaultProxy {
    /// Binds an ephemeral local port and starts proxying to `target`.
    pub fn spawn(target: String, config: FaultConfig) -> FaultProxy {
        let listener = TcpListener::bind("127.0.0.1:0").expect("faultnet bind");
        let addr = listener.local_addr().expect("faultnet addr").to_string();
        let config = Arc::new(config);
        let stats = Arc::new(FaultStats::default());
        let conns = Arc::new(Mutex::new(Vec::<TcpStream>::new()));
        let partitioned = Arc::new(AtomicBool::new(false));
        let shutdown = Arc::new(AtomicBool::new(false));
        {
            let config = Arc::clone(&config);
            let stats = Arc::clone(&stats);
            let conns = Arc::clone(&conns);
            let partitioned = Arc::clone(&partitioned);
            let shutdown = Arc::clone(&shutdown);
            thread::spawn(move || {
                let mut index = 0u64;
                for stream in listener.incoming() {
                    if shutdown.load(Ordering::SeqCst) {
                        // ordering: control-plane toggle; SeqCst keeps the rare path simple
                        break;
                    }
                    let Ok(client) = stream else { break };
                    if partitioned.load(Ordering::SeqCst) {
                        // ordering: control-plane toggle; SeqCst keeps the rare path simple
                        stats.refused.fetch_add(1, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
                        let _ = client.shutdown(Shutdown::Both);
                        continue;
                    }
                    let Ok(server) = TcpStream::connect(&target) else {
                        let _ = client.shutdown(Shutdown::Both);
                        continue;
                    };
                    stats.connections.fetch_add(1, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
                    {
                        let mut live = conns.lock().unwrap_or_else(|e| e.into_inner());
                        live.retain(|c| c.peer_addr().is_ok());
                        live.push(client.try_clone().expect("clone"));
                        live.push(server.try_clone().expect("clone"));
                    }
                    let (c2, s2) = (
                        client.try_clone().expect("clone"),
                        server.try_clone().expect("clone"),
                    );
                    // Each direction draws from its own stream so faults on
                    // one leg never perturb the other's schedule.
                    let up = FaultRng::new(config.seed, index, 0);
                    let down = FaultRng::new(config.seed, index, 1);
                    index += 1;
                    let (cfg_a, st_a) = (Arc::clone(&config), Arc::clone(&stats));
                    let (cfg_b, st_b) = (Arc::clone(&config), Arc::clone(&stats));
                    thread::spawn(move || faulty_pipe(client, server, up, cfg_a, st_a));
                    thread::spawn(move || faulty_pipe(s2, c2, down, cfg_b, st_b));
                }
            });
        }
        FaultProxy {
            addr,
            config,
            stats,
            conns,
            partitioned,
            shutdown,
        }
    }

    /// The proxy's listen address (`host:port`), to use as the dial target.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The fault schedule this proxy runs.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Injected-fault and traffic counters.
    pub fn stats(&self) -> &Arc<FaultStats> {
        &self.stats
    }

    /// Hard partition: refuse new connections (and keep refusing until
    /// lifted). Combine with [`sever`](Self::sever) to also kill live ones.
    pub fn partition(&self, on: bool) {
        self.partitioned.store(on, Ordering::SeqCst); // ordering: control-plane toggle; SeqCst keeps the rare path simple
    }

    /// Resets every live proxied connection right now.
    pub fn sever(&self) {
        let mut live = self.conns.lock().unwrap_or_else(|e| e.into_inner());
        for conn in live.drain(..) {
            let _ = conn.shutdown(Shutdown::Both);
        }
    }

    /// Stops accepting, severs everything, and unblocks the accept loop.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst); // ordering: control-plane toggle; SeqCst keeps the rare path simple
        self.sever();
        // Poke the listener so `incoming()` observes the flag.
        let _ = TcpStream::connect(&self.addr);
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// SplitMix64 — tiny, seedable, and plenty for a fault schedule.
#[derive(Debug)]
struct FaultRng(u64);

impl FaultRng {
    fn new(seed: u64, conn: u64, dir: u64) -> FaultRng {
        // Spread (seed, conn, dir) across the state space so nearby
        // connections get unrelated schedules.
        let mut state = seed ^ conn.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (dir << 62);
        let mut rng = FaultRng(0);
        rng.0 = {
            // One warm-up step decorrelates trivially related seeds.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            mix(state)
        };
        rng
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform draw in `[0, bound)`; `bound` must be non-zero.
    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    fn roll(&mut self, prob: u64) -> bool {
        prob > 0 && self.below(PROB_DENOM) < prob
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One proxied direction. Reads chunks and forwards them, rolling the
/// fault dice per chunk. The dice are rolled in a fixed order (reset,
/// truncate, corrupt, delay, fragment) so the consumed random stream — and
/// hence the schedule — is identical run to run.
fn faulty_pipe(
    mut from: TcpStream,
    mut to: TcpStream,
    mut rng: FaultRng,
    config: Arc<FaultConfig>,
    stats: Arc<FaultStats>,
) {
    let mut buf = [0u8; 8192];
    'conn: loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let chunk = &mut buf[..n];
        if rng.roll(config.reset_prob) {
            stats.resets.fetch_add(1, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
            break;
        }
        let truncate = rng.roll(config.truncate_prob);
        let keep = if truncate {
            // Truncation at an arbitrary byte — deliberately not aligned to
            // any frame boundary, so the receiver sees a torn header or a
            // torn payload depending on the draw.
            rng.below(n as u64) as usize
        } else {
            n
        };
        if rng.roll(config.corrupt_prob) && keep > 0 {
            let at = rng.below(keep as u64) as usize;
            let bit = 1u8 << rng.below(8);
            chunk[at] ^= bit;
            stats.corruptions.fetch_add(1, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
        }
        if rng.roll(config.delay_prob) {
            let ns = config.max_delay.as_nanos() as u64;
            if ns > 0 {
                thread::sleep(Duration::from_nanos(rng.below(ns)));
            }
            stats.delays.fetch_add(1, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
        }
        let fragment = rng.roll(config.fragment_prob) && keep > 1;
        let split = if fragment {
            1 + rng.below(keep as u64 - 1) as usize
        } else {
            keep
        };
        for piece in [&chunk[..split.min(keep)], &chunk[split.min(keep)..keep]] {
            if piece.is_empty() {
                continue;
            }
            if to.write_all(piece).is_err() {
                break 'conn;
            }
            stats.bytes.fetch_add(piece.len() as u64, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
            if fragment {
                // A tiny pause between fragments defeats coalescing often
                // enough to actually exercise the partial-read paths.
                thread::sleep(Duration::from_micros(50));
            }
        }
        if fragment {
            stats.fragments.fetch_add(1, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
        }
        if truncate {
            stats.truncations.fetch_add(1, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
            break;
        }
    }
    let _ = to.shutdown(Shutdown::Both);
    let _ = from.shutdown(Shutdown::Both);
}

/// Deterministically mangles a byte stream the way the proxy would —
/// corruption, truncation, or both — for offline decoder fuzzing. Returns
/// the mutated copy. Feeding the result to the frame decoder must produce
/// `NetError`s, never a panic (pinned by the wire proptests).
pub fn mangle(seed: u64, bytes: &[u8]) -> Vec<u8> {
    let mut rng = FaultRng::new(seed, 0, 2);
    let mut out = bytes.to_vec();
    if out.is_empty() {
        return out;
    }
    // Truncate with probability 1/2, at a uniform byte offset.
    if rng.roll(PROB_DENOM / 2) {
        let keep = rng.below(out.len() as u64 + 1) as usize;
        out.truncate(keep);
    }
    // Flip 1..=4 bits at uniform positions.
    if !out.is_empty() {
        for _ in 0..(1 + rng.below(4)) {
            let at = rng.below(out.len() as u64) as usize;
            out[at] ^= 1u8 << rng.below(8);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let mut a = FaultRng::new(7, 3, 0);
        let mut b = FaultRng::new(7, 3, 0);
        let mut c = FaultRng::new(7, 3, 1);
        let left: Vec<u64> = (0..64).map(|_| a.next()).collect();
        let right: Vec<u64> = (0..64).map(|_| b.next()).collect();
        let other: Vec<u64> = (0..64).map(|_| c.next()).collect();
        assert_eq!(left, right, "same (seed, conn, dir) replays identically");
        assert_ne!(left, other, "directions draw from distinct streams");
    }

    #[test]
    fn mangle_is_deterministic_and_mutating() {
        let input: Vec<u8> = (0..128u8).collect();
        let a = mangle(99, &input);
        let b = mangle(99, &input);
        assert_eq!(a, b, "same seed, same mangle");
        assert_ne!(a, input, "mangle must actually mutate");
        assert!(mangle(99, &[]).is_empty());
    }

    #[test]
    fn passthrough_proxy_relays_bytes_untouched() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let target = listener.local_addr().expect("addr").to_string();
        let echo = thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            let mut buf = Vec::new();
            conn.read_to_end(&mut buf).expect("read");
            buf
        });
        let proxy = FaultProxy::spawn(target, FaultConfig::passthrough(1));
        let mut client = TcpStream::connect(proxy.addr()).expect("connect");
        client.write_all(b"heartbeat").expect("write");
        drop(client);
        let seen = echo.join().expect("echo thread");
        assert_eq!(seen, b"heartbeat");
        assert_eq!(proxy.stats().total_faults(), 0);
        assert_eq!(proxy.stats().connections.load(Ordering::Relaxed), 1);
        proxy.shutdown();
    }

    #[test]
    fn partition_refuses_new_connections() {
        // Target that never sees a connection while partitioned.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let target = listener.local_addr().expect("addr").to_string();
        let proxy = FaultProxy::spawn(target, FaultConfig::passthrough(2));
        proxy.partition(true);
        let mut probe = TcpStream::connect(proxy.addr()).expect("dial");
        let mut buf = [0u8; 1];
        probe
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        // The proxy shuts the socket down immediately: read returns 0/err.
        assert!(!matches!(probe.read(&mut buf), Ok(n) if n > 0));
        assert!(proxy.stats().refused.load(Ordering::Relaxed) >= 1);
        proxy.partition(false);
        assert!(TcpStream::connect(proxy.addr()).is_ok());
        proxy.shutdown();
    }
}
