//! File-backed heartbeat log — parity with the paper's reference
//! implementation.
//!
//! Section 4 of the paper: *"When the `HB_heartbeat` function is called, a new
//! entry containing a timestamp, tag and thread ID is written into a file. One
//! file is used to store global heartbeats. When per-thread heartbeats are
//! used, each thread writes to its own individual file. ... The target heart
//! rates are also written into the appropriate file so that the external
//! service can access them."*
//!
//! [`FileBackend`] mirrors every beat and target change into a text log with
//! one record per line; [`FileObserver`] is the external-service side that
//! parses the log and recomputes rates, history and targets without any
//! cooperation from the running process beyond the shared file.

use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use std::sync::atomic::{AtomicU64, Ordering};

use std::sync::Mutex;

use heartbeats::{Backend, BackendStats, BeatScope, BeatThreadId, HeartbeatRecord, Result, Tag};

/// One parsed line of a heartbeat log file.
#[derive(Debug, Clone, PartialEq)]
pub enum LogEntry {
    /// A mirrored heartbeat.
    Beat {
        /// The reconstructed record.
        record: HeartbeatRecord,
        /// Whether it was a global or per-thread beat.
        scope: BeatScope,
    },
    /// A target heart-rate declaration.
    Target {
        /// Minimum target rate in beats/s.
        min_bps: f64,
        /// Maximum target rate in beats/s.
        max_bps: f64,
    },
}

/// Serializes a beat line. Format (whitespace separated):
/// `beat <seq> <timestamp_ns> <tag> <thread> <G|L>`
fn beat_line(record: &HeartbeatRecord, scope: BeatScope) -> String {
    let scope_char = match scope {
        BeatScope::Global => 'G',
        BeatScope::Local => 'L',
    };
    format!(
        "beat {} {} {} {} {}\n",
        record.seq,
        record.timestamp_ns,
        record.tag.value(),
        record.thread.index(),
        scope_char
    )
}

/// Serializes a target line. Format: `target <min_bps> <max_bps>`
fn target_line(min_bps: f64, max_bps: f64) -> String {
    format!("target {min_bps} {max_bps}\n")
}

/// Parses one log line. Returns `None` for blank or unrecognized lines
/// (observers must tolerate partial writes at the tail of a live log).
pub fn parse_line(line: &str) -> Option<LogEntry> {
    let mut parts = line.split_whitespace();
    match parts.next()? {
        "beat" => {
            let seq = parts.next()?.parse().ok()?;
            let timestamp_ns = parts.next()?.parse().ok()?;
            let tag = parts.next()?.parse().ok()?;
            let thread = parts.next()?.parse().ok()?;
            let scope = match parts.next()? {
                "G" => BeatScope::Global,
                "L" => BeatScope::Local,
                _ => return None,
            };
            Some(LogEntry::Beat {
                record: HeartbeatRecord::new(
                    seq,
                    timestamp_ns,
                    Tag::new(tag),
                    BeatThreadId(thread),
                ),
                scope,
            })
        }
        "target" => {
            let min_bps = parts.next()?.parse().ok()?;
            let max_bps = parts.next()?.parse().ok()?;
            Some(LogEntry::Target { min_bps, max_bps })
        }
        _ => None,
    }
}

/// A [`Backend`] that mirrors heartbeats into a text log file.
///
/// Writes are buffered; call [`Heartbeat::flush`](heartbeats::Heartbeat::flush)
/// (or drop the producing `Heartbeat`) before expecting an external process to
/// see the latest beats, or construct the backend with
/// [`FileBackend::with_flush_every`] to bound staleness.
#[derive(Debug)]
pub struct FileBackend {
    path: PathBuf,
    writer: Mutex<BufWriter<File>>,
    flush_every: Option<u64>,
    written: Mutex<u64>,
    mirrored: AtomicU64,
    dropped: AtomicU64,
}

impl FileBackend {
    /// Creates (truncating) the log file at `path`.
    pub fn create(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)?;
        Ok(FileBackend {
            path,
            writer: Mutex::new(BufWriter::new(file)),
            flush_every: None,
            written: Mutex::new(0),
            mirrored: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        })
    }

    /// Creates the log file and flushes it to disk every `n` beats.
    pub fn with_flush_every(path: impl AsRef<Path>, n: u64) -> Result<Self> {
        let mut backend = Self::create(path)?;
        backend.flush_every = Some(n.max(1));
        Ok(backend)
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Backend for FileBackend {
    fn on_beat(&self, _app: &str, record: &HeartbeatRecord, scope: BeatScope) {
        let line = beat_line(record, scope);
        let mut writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        // A failed mirror write must never take down the application; the
        // in-memory history is still intact and the observer will simply see
        // a truncated log. The loss is surfaced through the drop counter.
        match writer.write_all(line.as_bytes()) {
            Ok(()) => self.mirrored.fetch_add(1, Ordering::Relaxed),
            Err(_) => self.dropped.fetch_add(1, Ordering::Relaxed),
        };
        if let Some(every) = self.flush_every {
            let mut written = self.written.lock().unwrap_or_else(|e| e.into_inner());
            *written += 1;
            if (*written).is_multiple_of(every) {
                let _ = writer.flush();
            }
        }
    }

    fn on_target_change(&self, _app: &str, min_bps: f64, max_bps: f64) {
        let mut writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let _ = writer.write_all(target_line(min_bps, max_bps).as_bytes());
        let _ = writer.flush();
    }

    fn flush(&self) -> Result<()> {
        self.writer
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .flush()?;
        Ok(())
    }

    fn stats(&self) -> BackendStats {
        BackendStats {
            mirrored: self.mirrored.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
        }
    }
}

/// External-observer view over a heartbeat log file.
///
/// Every query re-reads the file, so the observer always sees the latest
/// flushed state and needs no shared memory with the producer — exactly the
/// coupling model of the paper's reference implementation.
#[derive(Debug, Clone)]
pub struct FileObserver {
    path: PathBuf,
}

impl FileObserver {
    /// Creates an observer for the log at `path`. The file does not need to
    /// exist yet; queries on a missing file behave as "no beats yet".
    pub fn new(path: impl AsRef<Path>) -> Self {
        FileObserver {
            path: path.as_ref().to_path_buf(),
        }
    }

    /// Parses the whole log.
    pub fn entries(&self) -> Vec<LogEntry> {
        let Ok(file) = File::open(&self.path) else {
            return Vec::new();
        };
        BufReader::new(file)
            .lines()
            .map_while(|line| line.ok())
            .filter_map(|line| parse_line(&line))
            .collect()
    }

    /// All global heartbeat records, in log order.
    pub fn global_beats(&self) -> Vec<HeartbeatRecord> {
        self.entries()
            .into_iter()
            .filter_map(|entry| match entry {
                LogEntry::Beat {
                    record,
                    scope: BeatScope::Global,
                } => Some(record),
                _ => None,
            })
            .collect()
    }

    /// Local heartbeat records of one thread, in log order.
    pub fn local_beats_of(&self, thread: BeatThreadId) -> Vec<HeartbeatRecord> {
        self.entries()
            .into_iter()
            .filter_map(|entry| match entry {
                LogEntry::Beat {
                    record,
                    scope: BeatScope::Local,
                } if record.thread == thread => Some(record),
                _ => None,
            })
            .collect()
    }

    /// The last `n` global beats in chronological order (`HB_get_history`
    /// as seen from outside the process).
    pub fn history(&self, n: usize) -> Vec<HeartbeatRecord> {
        let beats = self.global_beats();
        let start = beats.len().saturating_sub(n);
        beats[start..].to_vec()
    }

    /// Average heart rate over the last `window` global beats.
    pub fn current_rate(&self, window: usize) -> Option<f64> {
        heartbeats::window::windowed_rate(&self.history(window.max(2)))
    }

    /// Total number of global beats logged so far.
    pub fn total_beats(&self) -> u64 {
        self.global_beats().len() as u64
    }

    /// The most recently declared target range, if any.
    pub fn target(&self) -> Option<(f64, f64)> {
        self.entries()
            .into_iter()
            .filter_map(|entry| match entry {
                LogEntry::Target { min_bps, max_bps } => Some((min_bps, max_bps)),
                _ => None,
            })
            .next_back()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heartbeats::{HeartbeatBuilder, ManualClock};
    use std::sync::Arc;

    fn temp_log(name: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("hb-file-test-{}-{}", std::process::id(), name));
        path
    }

    #[test]
    fn beat_line_roundtrip() {
        let record = HeartbeatRecord::new(3, 123_456, Tag::new(9), BeatThreadId(2));
        let line = beat_line(&record, BeatScope::Global);
        match parse_line(&line).unwrap() {
            LogEntry::Beat {
                record: parsed,
                scope,
            } => {
                assert_eq!(parsed, record);
                assert_eq!(scope, BeatScope::Global);
            }
            other => panic!("unexpected entry: {other:?}"),
        }
    }

    #[test]
    fn local_beat_line_roundtrip() {
        let record = HeartbeatRecord::new(0, 1, Tag::NONE, BeatThreadId(7));
        let line = beat_line(&record, BeatScope::Local);
        assert!(matches!(
            parse_line(&line).unwrap(),
            LogEntry::Beat {
                scope: BeatScope::Local,
                ..
            }
        ));
    }

    #[test]
    fn target_line_roundtrip() {
        let line = target_line(2.5, 3.5);
        assert_eq!(
            parse_line(&line).unwrap(),
            LogEntry::Target {
                min_bps: 2.5,
                max_bps: 3.5
            }
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(parse_line(""), None);
        assert_eq!(parse_line("# comment"), None);
        assert_eq!(parse_line("beat 1 2"), None);
        assert_eq!(parse_line("beat x y z w G"), None);
        assert_eq!(parse_line("beat 1 2 3 4 Q"), None);
        assert_eq!(parse_line("target only-one"), None);
    }

    #[test]
    fn backend_and_observer_end_to_end() {
        let path = temp_log("end-to-end");
        let clock = ManualClock::new();
        let backend = Arc::new(FileBackend::create(&path).unwrap());
        let hb = HeartbeatBuilder::new("filetest")
            .window(4)
            .clock(Arc::new(clock.clone()))
            .backend(backend)
            .build()
            .unwrap();

        hb.set_target_rate(5.0, 10.0).unwrap();
        for i in 0..10u64 {
            clock.advance_ns(100_000_000); // 10 beats/s
            hb.heartbeat_tagged(Tag::new(i));
        }
        hb.heartbeat_local(Tag::new(99));
        hb.flush().unwrap();

        let observer = FileObserver::new(&path);
        assert_eq!(observer.total_beats(), 10);
        assert_eq!(observer.target(), Some((5.0, 10.0)));
        let rate = observer.current_rate(4).unwrap();
        assert!((rate - 10.0).abs() < 1e-9);
        let history = observer.history(3);
        assert_eq!(history.len(), 3);
        assert_eq!(history[2].tag, Tag::new(9));
        // The local beat is visible under its thread, not globally.
        let thread = history[0].thread;
        let locals = observer.local_beats_of(thread);
        assert_eq!(locals.len(), 1);
        assert_eq!(locals[0].tag, Tag::new(99));

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn observer_on_missing_file_is_empty() {
        let observer = FileObserver::new(temp_log("never-created"));
        assert_eq!(observer.total_beats(), 0);
        assert!(observer.history(10).is_empty());
        assert_eq!(observer.current_rate(10), None);
        assert_eq!(observer.target(), None);
    }

    #[test]
    fn flush_every_bounds_staleness() {
        let path = temp_log("flush-every");
        let clock = ManualClock::new();
        let backend = Arc::new(FileBackend::with_flush_every(&path, 5).unwrap());
        let hb = HeartbeatBuilder::new("flusher")
            .clock(Arc::new(clock.clone()))
            .backend(backend)
            .build()
            .unwrap();
        let observer = FileObserver::new(&path);
        for _ in 0..5 {
            clock.advance_ns(1_000);
            hb.heartbeat();
        }
        // The fifth beat triggered an automatic flush; no manual flush needed.
        assert_eq!(observer.total_beats(), 5);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn last_target_wins() {
        let path = temp_log("targets");
        let backend = Arc::new(FileBackend::create(&path).unwrap());
        let hb = HeartbeatBuilder::new("retarget")
            .backend(backend)
            .build()
            .unwrap();
        hb.set_target_rate(1.0, 2.0).unwrap();
        hb.set_target_rate(30.0, 35.0).unwrap();
        hb.flush().unwrap();
        assert_eq!(FileObserver::new(&path).target(), Some((30.0, 35.0)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn backend_counts_mirrored_beats() {
        let path = temp_log("stats");
        let clock = ManualClock::new();
        let backend = Arc::new(FileBackend::create(&path).unwrap());
        let hb = HeartbeatBuilder::new("stats")
            .clock(Arc::new(clock.clone()))
            .backend(Arc::clone(&backend) as Arc<dyn Backend>)
            .build()
            .unwrap();
        for _ in 0..7 {
            clock.advance_ns(1_000);
            hb.heartbeat();
        }
        let stats = backend.stats();
        assert_eq!(stats.mirrored, 7);
        assert_eq!(stats.dropped, 0);
        assert_eq!(backend.dropped(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn backend_path_accessor() {
        let path = temp_log("path-accessor");
        let backend = FileBackend::create(&path).unwrap();
        assert_eq!(backend.path(), path.as_path());
        std::fs::remove_file(&path).ok();
    }
}
