//! Live-load telemetry: 64 producers stream beat batches at a real
//! collector while an observer scrapes `/metrics` over the query port.
//! Pins the tentpole end-to-end properties: the ingest histogram's
//! `_count` equals the number of batches actually sent, per-reactor-thread
//! gauges appear, and `HEATMAP` / `TRACE` answer on the same socket.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use hb_net::{BeatBatch, Collector, Frame, Hello, WireBeat};
use heartbeats::{BeatScope, BeatThreadId, HeartbeatRecord, Tag};

const PRODUCERS: u32 = 64;
const BATCHES_PER_PRODUCER: u64 = 8;
const BEATS_PER_BATCH: u64 = 16;

fn beats_frame(batch_index: u64) -> Frame {
    let base = batch_index * BEATS_PER_BATCH;
    Frame::Beats(BeatBatch {
        dropped_total: 0,
        beats: (0..BEATS_PER_BATCH)
            .map(|i| WireBeat {
                record: HeartbeatRecord::new(
                    base + i,
                    (base + i) * 10_000_000, // 10 ms cadence => 100 beats/s
                    Tag::NONE,
                    BeatThreadId(0),
                ),
                scope: BeatScope::Global,
            })
            .collect(),
    })
}

/// Sends one query line and reads the reply through its `END` terminator.
fn query(reader: &mut BufReader<TcpStream>, line: &str) -> String {
    reader.get_mut().write_all(line.as_bytes()).unwrap();
    reader.get_mut().write_all(b"\n").unwrap();
    let mut reply = String::new();
    loop {
        let mut row = String::new();
        assert!(
            reader.read_line(&mut row).unwrap() > 0,
            "query port closed mid-reply to {line}; got so far:\n{reply}"
        );
        let done = row.trim_end() == "END";
        reply.push_str(&row);
        if done {
            return reply;
        }
    }
}

#[test]
fn metrics_heatmap_and_trace_under_64_producer_load() {
    let mut collector = Collector::bind("127.0.0.1:0", "127.0.0.1:0").unwrap();
    let ingest = collector.ingest_addr();
    let state = collector.state();

    let producers: Vec<_> = (0..PRODUCERS)
        .map(|i| {
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(ingest).unwrap();
                stream
                    .write_all(
                        &Frame::Hello(Hello {
                            app: format!("prod-{i:02}"),
                            pid: i,
                            default_window: 20,
                        })
                        .encode(),
                    )
                    .unwrap();
                for batch in 0..BATCHES_PER_PRODUCER {
                    stream.write_all(&beats_frame(batch).encode()).unwrap();
                }
                // A clean goodbye, then drain until the collector closes:
                // closing with the HelloAck unread would turn the close
                // into an RST that can discard frames still in flight.
                stream.write_all(&Frame::Bye.encode()).unwrap();
                let mut sink = [0u8; 256];
                while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
            })
        })
        .collect();
    for producer in producers {
        producer.join().unwrap();
    }

    // Writes have all been accepted by the kernel; wait for the reactor to
    // drain them. Every producer contributed hello + batches + bye frames.
    let expected_batches = u64::from(PRODUCERS) * BATCHES_PER_PRODUCER;
    let expected_frames = u64::from(PRODUCERS) * (BATCHES_PER_PRODUCER + 2);
    let deadline = Instant::now() + Duration::from_secs(10);
    while state.frames_total() < expected_frames {
        assert!(
            Instant::now() < deadline,
            "collector ingested {} of {expected_frames} frames",
            state.frames_total()
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let mut reader = BufReader::new(TcpStream::connect(collector.query_addr()).unwrap());

    // The scrape itself: batch-exact histogram accounting over the wire.
    let metrics = query(&mut reader, "METRICS");
    let ingest_count: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("hb_collector_ingest_latency_seconds_count "))
        .expect("ingest histogram _count series")
        .parse()
        .unwrap();
    assert_eq!(
        ingest_count, expected_batches,
        "one ingest histogram sample per absorbed batch"
    );
    let decode_count: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("hb_collector_decode_latency_seconds_count "))
        .expect("decode histogram _count series")
        .parse()
        .unwrap();
    assert_eq!(
        decode_count, expected_frames,
        "one decode histogram sample per yielded frame"
    );
    let histogram_series = metrics
        .lines()
        .filter(|l| l.starts_with("# TYPE ") && l.ends_with(" histogram"))
        .count();
    assert!(
        histogram_series >= 4,
        "expected at least 4 histogram series, found {histogram_series}"
    );
    assert!(metrics.contains("hb_reactor_thread_busy_seconds_total{thread=\"0\"}"));
    assert!(metrics.contains("hb_reactor_thread_utilization{thread=\"0\"}"));
    assert!(metrics.contains("hb_reactor_thread_wakeups_total{thread=\"0\"}"));
    assert!(metrics.contains("hb_reactor_thread_pumps_total{thread=\"0\",cause=\"wake\"}"));
    assert!(metrics.contains("hb_reactor_thread_pumps_total{thread=\"0\",cause=\"timer\"}"));
    assert!(metrics.contains("hb_collector_protocol_errors_total 0"));

    // HEATMAP: one row per application, bucket count as requested.
    let heatmap = query(&mut reader, "HEATMAP 4 500");
    let header = heatmap.lines().next().unwrap();
    assert_eq!(
        header,
        format!("HEATMAP apps={PRODUCERS} buckets=4 width_ms=500")
    );
    let rows: Vec<&str> = heatmap
        .lines()
        .filter(|l| l.starts_with("R app=prod-"))
        .collect();
    assert_eq!(rows.len(), PRODUCERS as usize);
    for row in rows {
        let rates = row.split("rates=").nth(1).unwrap();
        assert_eq!(rates.split(',').count(), 4, "bad row: {row}");
    }

    // TRACE: the journal replays this load's lifecycle over the same port.
    let trace = query(&mut reader, "TRACE 2000");
    assert!(trace.starts_with("TRACE count="), "got: {trace}");
    assert!(
        trace.contains("hello app=prod-"),
        "journal must hold the producers' hello entries"
    );

    collector.shutdown();
}
