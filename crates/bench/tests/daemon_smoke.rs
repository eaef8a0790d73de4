//! In-process smoke and batch-equivalence tests for the `routed` daemon.
//!
//! The daemon replays a trace through the incremental tick engine while
//! serving queries over a Unix socket; these tests pin (a) the wire
//! protocol — `route?`, `stats`, `metrics`, `snapshot`, `shutdown`, and
//! error replies — and (b) the headline guarantee that a free-running
//! daemon's final report is bit-identical to the batch `Scenario::execute`
//! run of the same scenario and policy.

use std::path::PathBuf;
use std::time::Duration;
use wattroute::engine::EngineSnapshot;
use wattroute::json::{self, JsonValue};
use wattroute::prelude::*;
use wattroute::report::SimulationReport;
use wattroute_bench::daemon::{serve, DaemonClient, DaemonOptions, DEFAULT_MAX_CONNECTIONS};
use wattroute_geo::UsState;
use wattroute_market::generator::path_seed;
use wattroute_market::time::{HourRange, SimHour};

fn short_scenario(hours: u64) -> Scenario {
    let start = SimHour::from_date(2008, 12, 19);
    Scenario::custom_window(42, HourRange::new(start, start.plus_hours(hours)))
}

/// A unique, short socket path (Unix socket paths have a ~100-byte limit,
/// so always anchor in the system temp dir).
fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("wr_{tag}_{}.sock", std::process::id()))
}

#[test]
fn free_running_daemon_matches_the_batch_run_bit_for_bit() {
    let scenario = short_scenario(48);
    let path = socket_path("eq");
    let _ = std::fs::remove_file(&path);

    let mut daemon_policy = PriceConsciousPolicy::with_distance_threshold(1500.0);
    let daemon_report =
        serve(&scenario, &mut daemon_policy, &DaemonOptions::free_run(&path)).expect("serve");

    let mut batch_policy = PriceConsciousPolicy::with_distance_threshold(1500.0);
    let batch_report = scenario.execute(&mut batch_policy, RunOptions::new());

    assert_eq!(
        daemon_report, batch_report,
        "a free-running daemon must reproduce the batch run exactly"
    );
    // And byte-identically through the JSON encoding.
    assert_eq!(daemon_report.to_json_value().to_string(), batch_report.to_json_value().to_string());
    assert!(!path.exists(), "the daemon must remove its socket on shutdown");
}

#[test]
fn wire_protocol_answers_all_commands_mid_run() {
    let scenario = short_scenario(24);
    let path = socket_path("wire");
    let _ = std::fs::remove_file(&path);

    let options = DaemonOptions {
        socket_path: path.clone(),
        // Slow enough that queries land mid-trace: 24h × 12 steps × 3ms ≈ 0.9s.
        step_wait: Duration::from_millis(3),
        linger: true,
        max_connections: DEFAULT_MAX_CONNECTIONS,
    };
    let scenario_ref = &scenario;
    let final_report = std::thread::scope(|scope| {
        let server = scope.spawn(move || {
            let mut policy = PriceConsciousPolicy::with_distance_threshold(1500.0);
            serve(scenario_ref, &mut policy, &options).expect("serve")
        });

        let mut client = DaemonClient::connect(&path, Duration::from_secs(10)).expect("connect");

        // stats: a mid-run report that parses as a SimulationReport.
        let stats = client.command("stats").expect("stats");
        assert_eq!(stats.get("ok").and_then(JsonValue::as_bool), Some(true));
        // ... plus the daemon-health block.
        assert!(stats.get("uptime_secs").and_then(JsonValue::as_f64).expect("uptime") >= 0.0);
        assert!(
            stats.get("connections_total").and_then(JsonValue::as_f64).expect("connections") >= 1.0,
            "this very connection must be counted"
        );
        let verbs = stats.get("requests_by_verb").expect("requests_by_verb object");
        assert!(
            verbs.get("stats").and_then(JsonValue::as_f64).expect("stats verb counter") >= 1.0,
            "this very request must be counted"
        );
        let report = SimulationReport::from_json_value(stats.get("report").expect("report field"))
            .expect("mid-run report decodes");
        assert_eq!(report.policy, "price-conscious");
        // The policy name proves a tick ran, so an allocation is in force
        // and the stats reply carries its tier-level aggregation.
        let tier_load = stats.get("tier_load").expect("tier_load field");
        let total = tier_load.get("total_hits_per_sec").and_then(JsonValue::as_f64).expect("total");
        assert!(total >= 0.0);
        let regions = tier_load.get("regions").expect("regions object");
        assert!(regions.get("US").and_then(JsonValue::as_f64).is_some(), "one-region embedding");

        // route?: the current allocation routes Massachusetts somewhere.
        let route = client
            .request(&json::object([
                ("cmd", JsonValue::String("route?".into())),
                ("state", JsonValue::String("ma".into())),
            ]))
            .expect("route?");
        assert_eq!(route.get("ok").and_then(JsonValue::as_bool), Some(true), "{route}");
        assert_eq!(route.get("state").and_then(JsonValue::as_str), Some("MA"));
        let per_cluster = route.get("hits_per_sec").expect("hits_per_sec");
        let total: f64 = scenario
            .clusters
            .clusters()
            .iter()
            .map(|c| per_cluster.get(&c.label).and_then(JsonValue::as_f64).expect("every cluster"))
            .sum();
        assert!(total >= 0.0);

        // snapshot: losslessly decodable engine state.
        let snap = client.command("snapshot").expect("snapshot");
        assert_eq!(snap.get("ok").and_then(JsonValue::as_bool), Some(true));
        let snapshot = EngineSnapshot::from_json_value(snap.get("snapshot").expect("snapshot"))
            .expect("snapshot decodes");
        assert_eq!(snapshot.policy_name(), Some("price-conscious"));

        // metrics: a Prometheus-style exposition of the obs registry. The
        // daemon's request counters are always-live, so the series are
        // present even with telemetry off (span histograms need
        // --telemetry / WATTROUTE_TELEMETRY=1).
        let metrics = client.command("metrics").expect("metrics");
        assert_eq!(metrics.get("ok").and_then(JsonValue::as_bool), Some(true));
        assert!(metrics.get("uptime_secs").and_then(JsonValue::as_f64).expect("uptime") >= 0.0);
        assert!(metrics.get("telemetry_enabled").and_then(JsonValue::as_bool).is_some());
        let expo = metrics.get("exposition").and_then(JsonValue::as_str).expect("exposition text");
        assert!(
            expo.contains("# TYPE wattroute_daemon_requests_stats_total counter"),
            "exposition must carry the per-verb request counters: {expo}"
        );
        assert!(expo.contains("wattroute_daemon_requests_metrics_total 1"), "{expo}");
        assert!(expo.contains("wattroute_daemon_connections_opened_total"), "{expo}");

        // Errors are replies, not dropped connections.
        let bad = client.command("no-such-command").expect("error reply");
        assert_eq!(bad.get("ok").and_then(JsonValue::as_bool), Some(false));
        let malformed = client.request(&JsonValue::String("not an object".into()));
        assert_eq!(malformed.expect("reply").get("ok").and_then(JsonValue::as_bool), Some(false));
        let unknown_state = client
            .request(&json::object([
                ("cmd", JsonValue::String("route?".into())),
                ("state", JsonValue::String("ZZ".into())),
            ]))
            .expect("reply");
        assert_eq!(unknown_state.get("ok").and_then(JsonValue::as_bool), Some(false));

        // shutdown: acknowledged, then the daemon flushes its final report.
        let ack = client.command("shutdown").expect("shutdown");
        assert_eq!(ack.get("ok").and_then(JsonValue::as_bool), Some(true));
        server.join().expect("server thread")
    });

    assert!(final_report.steps > 0, "the daemon accumulated ticks before shutdown");
    assert_eq!(final_report.policy, "price-conscious");
    assert!(!path.exists(), "socket removed after shutdown");
}

#[test]
fn connections_beyond_the_cap_get_an_error_reply_and_are_closed() {
    use std::io::BufRead;

    let scenario = short_scenario(24);
    let path = socket_path("cap");
    let _ = std::fs::remove_file(&path);

    let options = DaemonOptions {
        socket_path: path.clone(),
        step_wait: Duration::from_millis(3),
        linger: true,
        max_connections: 1,
    };
    std::thread::scope(|scope| {
        let scenario_ref = &scenario;
        let options_ref = &options;
        let server = scope.spawn(move || {
            let mut policy = AkamaiLikePolicy::default();
            serve(scenario_ref, &mut policy, options_ref).expect("serve")
        });

        // The first client occupies the single slot; a served request
        // proves its handler thread is live (not merely queued).
        let mut first = DaemonClient::connect(&path, Duration::from_secs(10)).expect("connect");
        let stats = first.command("stats").expect("stats");
        assert_eq!(stats.get("ok").and_then(JsonValue::as_bool), Some(true));

        // The second connection is rejected with a parseable reply — no
        // request needs to be sent — and then closed.
        let second = std::os::unix::net::UnixStream::connect(&path).expect("connect second");
        let mut reader = std::io::BufReader::new(second);
        let mut line = String::new();
        reader.read_line(&mut line).expect("rejection reply");
        let reply = JsonValue::parse(line.trim()).expect("reply is JSON");
        assert_eq!(reply.get("ok").and_then(JsonValue::as_bool), Some(false), "{reply}");
        let error = reply.get("error").and_then(JsonValue::as_str).expect("error string");
        assert!(error.contains("connection limit"), "unexpected error: {error}");
        line.clear();
        assert_eq!(reader.read_line(&mut line).expect("EOF"), 0, "rejected stream is closed");

        // The rejection is visible in the daemon's health counters: the
        // rejected connection was opened, and its error reply was counted.
        let stats = first.command("stats").expect("stats after rejection");
        assert!(
            stats.get("connections_total").and_then(JsonValue::as_f64).expect("connections") >= 2.0,
            "the rejected connection still counts as opened: {stats}"
        );
        let verbs = stats.get("requests_by_verb").expect("requests_by_verb");
        assert!(
            verbs.get("errors").and_then(JsonValue::as_f64).expect("errors counter") >= 1.0,
            "--max-conns saturation must surface as a counted error: {stats}"
        );

        // The admitted client still works, and freeing its slot admits a
        // successor.
        let ack = first.command("shutdown").expect("shutdown");
        assert_eq!(ack.get("ok").and_then(JsonValue::as_bool), Some(true));
        server.join().expect("server thread")
    });
}

#[test]
fn shutdown_mid_trace_flushes_a_partial_report() {
    let scenario = short_scenario(24);
    let path = socket_path("part");
    let _ = std::fs::remove_file(&path);

    let options = DaemonOptions {
        socket_path: path.clone(),
        step_wait: Duration::from_millis(10),
        linger: false,
        max_connections: DEFAULT_MAX_CONNECTIONS,
    };
    let scenario_ref = &scenario;
    let report = std::thread::scope(|scope| {
        let server = scope.spawn(move || {
            let mut policy = AkamaiLikePolicy::default();
            serve(scenario_ref, &mut policy, &options).expect("serve")
        });
        let mut client = DaemonClient::connect(&path, Duration::from_secs(10)).expect("connect");
        // Give the tick loop a moment, then stop it mid-trace.
        std::thread::sleep(Duration::from_millis(100));
        client.command("shutdown").expect("shutdown");
        server.join().expect("server thread")
    });

    assert!(report.steps > 0, "some ticks ran");
    assert!(report.steps < scenario.trace.num_steps(), "shutdown interrupted the trace");
    assert!(report.total_cost_dollars > 0.0);
}

/// Options for a daemon that lingers until a `shutdown` request.
fn lingering(path: &std::path::Path) -> DaemonOptions {
    DaemonOptions {
        socket_path: path.to_path_buf(),
        step_wait: Duration::from_millis(3),
        linger: true,
        max_connections: DEFAULT_MAX_CONNECTIONS,
    }
}

#[test]
fn a_request_line_split_by_a_pause_is_answered_whole_and_a_binary_line_gets_an_error() {
    use std::io::{BufRead, Write};

    let scenario = short_scenario(24);
    let path = socket_path("split");
    let _ = std::fs::remove_file(&path);
    let options = lingering(&path);
    let (reply, binary) = std::thread::scope(|scope| {
        let (scenario_ref, options_ref) = (&scenario, &options);
        let server = scope.spawn(move || {
            let mut policy = AkamaiLikePolicy::default();
            serve(scenario_ref, &mut policy, options_ref).expect("serve")
        });
        let mut control = DaemonClient::connect(&path, Duration::from_secs(10)).expect("connect");

        // The pause outlasts the handler's 50 ms read timeout, so the
        // daemon's read returns between the two halves.
        let mut stream = std::os::unix::net::UnixStream::connect(&path).expect("connect");
        stream.write_all(br#"{"cmd":"st"#).expect("first half");
        stream.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(120));
        stream.write_all(b"ats\"}\n").expect("second half");
        let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("reply");
        // A line that is not UTF-8 is one more malformed request.
        stream.write_all(b"\xff\xfe\n").expect("binary line");
        let mut binary = String::new();
        reader.read_line(&mut binary).expect("reply");

        // Shut down before asserting, so a failure cannot leave the
        // lingering daemon (and this scope) waiting forever.
        control.command("shutdown").expect("shutdown");
        server.join().expect("server thread");
        let parse = |line: &str| JsonValue::parse(line.trim()).expect("reply is JSON");
        (parse(&line), parse(&binary))
    });
    assert_eq!(reply.get("ok").and_then(JsonValue::as_bool), Some(true), "{reply}");
    assert!(reply.get("report").is_some(), "a stats reply: {reply}");
    assert_eq!(binary.get("ok").and_then(JsonValue::as_bool), Some(false), "{binary}");
}

#[test]
fn an_overlong_request_line_gets_one_error_reply_and_its_connection_closes() {
    use std::io::{BufRead, Write};
    use wattroute_bench::daemon::MAX_REQUEST_LINE;

    let scenario = short_scenario(24);
    let path = socket_path("long");
    let _ = std::fs::remove_file(&path);
    let options = lingering(&path);
    let (reply, after, stats) = std::thread::scope(|scope| {
        let (scenario_ref, options_ref) = (&scenario, &options);
        let server = scope.spawn(move || {
            let mut policy = AkamaiLikePolicy::default();
            serve(scenario_ref, &mut policy, options_ref).expect("serve")
        });
        let mut control = DaemonClient::connect(&path, Duration::from_secs(10)).expect("connect");

        // 1 MiB and no newline. The daemon stops reading at its cap and
        // closes, so this write may fail part way: that is the point.
        let stream = std::os::unix::net::UnixStream::connect(&path).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
        let mut writer = stream.try_clone().expect("clone");
        let flood = scope.spawn(move || {
            let _ = writer.write_all(&vec![b'x'; 1 << 20]);
        });
        let mut reader = std::io::BufReader::new(stream);
        let mut reply = String::new();
        let _ = reader.read_line(&mut reply);
        let mut rest = String::new();
        let after = reader.read_line(&mut rest).map(|n| (n, rest));
        // Closing our end unblocks the flood if the daemon never closed.
        drop(reader);
        flood.join().expect("flood thread");

        // The daemon still answers a fresh connection.
        let mut fresh = DaemonClient::connect(&path, Duration::from_secs(10)).expect("connect");
        let stats = fresh.command("stats");
        control.command("shutdown").expect("shutdown");
        server.join().expect("server thread");
        (reply, after, stats)
    });

    let reply = JsonValue::parse(reply.trim()).expect("the error reply is JSON");
    assert_eq!(reply.get("ok").and_then(JsonValue::as_bool), Some(false), "{reply}");
    let error = reply.get("error").and_then(JsonValue::as_str).expect("error string");
    assert!(error.contains(&MAX_REQUEST_LINE.to_string()), "unexpected error: {error}");
    // One reply, then the connection is closed. The daemon closed with the
    // flood's bytes unread, which a Unix socket reports to the peer as a
    // reset rather than a clean EOF.
    match after {
        Ok((0, _)) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        other => panic!("expected the connection to close, got {other:?}"),
    }
    let stats = stats.expect("stats");
    assert_eq!(stats.get("ok").and_then(JsonValue::as_bool), Some(true), "{stats}");
}

/// The engine's `load_series` rows in a `snapshot` reply.
fn load_rows(reply: &JsonValue) -> Vec<Vec<u64>> {
    let snapshot = reply.get("snapshot").expect("snapshot field");
    let rows = snapshot.get("load_series").and_then(JsonValue::as_array).expect("load_series");
    rows.iter()
        .map(|row| {
            let samples = row.as_array().expect("a row is an array");
            samples.iter().map(|x| x.as_f64().expect("a number").to_bits()).collect()
        })
        .collect()
}

/// The daemon keeps the text of the load samples its earlier snapshots
/// encoded and formats only the ones added since. Three snapshots across
/// a replay must each decode, each row must extend the earlier one, and
/// the last, taken after the replay, must restore into a fresh engine
/// that reports the daemon's flushed report.
#[test]
fn snapshots_across_a_replay_extend_each_other_and_the_last_restores_the_final_report() {
    let scenario = short_scenario(48);
    let path = socket_path("snaps");
    let _ = std::fs::remove_file(&path);
    let options = lingering(&path);
    let steps = scenario.trace.num_steps();
    let (replies, flushed) = std::thread::scope(|scope| {
        let (scenario_ref, options_ref) = (&scenario, &options);
        let server = scope.spawn(move || {
            let mut policy = PriceConsciousPolicy::with_distance_threshold(1500.0);
            serve(scenario_ref, &mut policy, options_ref).expect("serve")
        });
        let mut client = DaemonClient::connect(&path, Duration::from_secs(10)).expect("connect");
        let steps_now = |client: &mut DaemonClient| {
            let stats = client.command("stats").expect("stats");
            stats.get("steps").and_then(JsonValue::as_count).expect("steps") as usize
        };
        let mut replies = vec![client.command("snapshot").expect("first snapshot")];
        // The second once the replay has moved on, the third once it ended.
        let first = replies[0].get("steps").and_then(JsonValue::as_count).expect("steps") as usize;
        for target in [(first + 1).min(steps), steps] {
            while steps_now(&mut client) < target {
                std::thread::sleep(Duration::from_millis(5));
            }
            replies.push(client.command("snapshot").expect("snapshot"));
        }
        client.command("shutdown").expect("shutdown");
        (replies, server.join().expect("server thread"))
    });

    let mut earlier: Option<Vec<Vec<u64>>> = None;
    for (i, reply) in replies.iter().enumerate() {
        assert_eq!(reply.get("ok").and_then(JsonValue::as_bool), Some(true), "snapshot {i}");
        let snapshot = EngineSnapshot::from_json_value(reply.get("snapshot").expect("snapshot"))
            .unwrap_or_else(|e| panic!("snapshot {i} does not decode: {e}"));
        let reply_steps = reply.get("steps").and_then(JsonValue::as_count).expect("steps");
        assert_eq!(snapshot.steps() as u64, reply_steps, "snapshot {i}");
        let rows = load_rows(reply);
        if let Some(earlier) = &earlier {
            for (c, (row, before)) in rows.iter().zip(earlier).enumerate() {
                assert!(
                    row.starts_with(before),
                    "snapshot {i}: cluster {c}'s row rewrote a sample"
                );
            }
        }
        earlier = Some(rows);
    }
    let last = replies.last().expect("three snapshots");
    let last =
        EngineSnapshot::from_json_value(last.get("snapshot").expect("snapshot")).expect("decodes");
    assert_eq!(last.steps(), steps, "the last snapshot follows the whole replay");
    let mut engine = wattroute::engine::SimulationEngine::new(
        &scenario.clusters,
        &scenario.trace.states,
        scenario.config.clone(),
    );
    engine.restore(&last);
    assert_eq!(engine.report(), flushed, "restored report != flushed report");
    assert_eq!(engine.report().to_json(), flushed.to_json());
}

/// Wait until the daemon has ticked, so an allocation is in force and a
/// `route?` for a client state answers.
fn await_first_tick(client: &mut DaemonClient) {
    while client.command("stats").expect("stats").get("steps").and_then(JsonValue::as_count)
        == Some(0)
    {
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The parser recurses once per nesting level. The longest line the
/// daemon reads, 65 535 `[` and a newline, must get one error reply
/// instead of overflowing its handler thread's stack, which would abort
/// the process and every connection with it.
#[test]
fn a_line_nested_past_the_parser_bound_gets_one_error_reply() {
    use std::io::{BufRead, Write};
    use wattroute_bench::daemon::MAX_REQUEST_LINE;

    let scenario = short_scenario(24);
    let path = socket_path("deep");
    let _ = std::fs::remove_file(&path);
    let options = lingering(&path);
    let (deep, route) = std::thread::scope(|scope| {
        let (scenario_ref, options_ref) = (&scenario, &options);
        let server = scope.spawn(move || {
            let mut policy = AkamaiLikePolicy::default();
            serve(scenario_ref, &mut policy, options_ref).expect("serve")
        });
        let mut control = DaemonClient::connect(&path, Duration::from_secs(10)).expect("connect");
        await_first_tick(&mut control);

        let mut stream = std::os::unix::net::UnixStream::connect(&path).expect("connect");
        let mut lines = vec![b'['; MAX_REQUEST_LINE - 1];
        lines.push(b'\n');
        lines.extend_from_slice(b"{\"cmd\":\"route?\",\"state\":\"MA\"}\n");
        stream.write_all(&lines).expect("write both lines");
        let mut reader = std::io::BufReader::new(stream);
        let mut read = || {
            let mut line = String::new();
            reader.read_line(&mut line).map(|_| line)
        };
        let (deep, route) = (read(), read());
        // Shut down before asserting, so a failure cannot leave the
        // lingering daemon (and this scope) waiting forever.
        control.command("shutdown").expect("shutdown");
        server.join().expect("server thread");
        (deep, route)
    });

    let deep = JsonValue::parse(deep.expect("a reply").trim()).expect("the reply is JSON");
    assert_eq!(deep.get("ok").and_then(JsonValue::as_bool), Some(false), "{deep}");
    let error = deep.get("error").and_then(JsonValue::as_str).expect("error string");
    assert!(error.contains("nesting deeper than"), "unexpected error: {error}");
    // The next reply answers the next line: the deep one got exactly one.
    let route = JsonValue::parse(route.expect("a reply").trim()).expect("the reply is JSON");
    assert_eq!(route.get("ok").and_then(JsonValue::as_bool), Some(true), "{route}");
    assert_eq!(route.get("state").and_then(JsonValue::as_str), Some("MA"));
}

/// A deterministic draw source for the wire fuzz: draw `k` of stream
/// `seed` is [`path_seed`]`(seed, k)`, the SplitMix64 stream the price
/// generator seeds its paths from.
struct Draws {
    seed: u64,
    k: u64,
}

impl Draws {
    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        self.k += 1;
        (path_seed(self.seed, self.k) % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

/// JSON scalars the fuzz draws from: every type, edge numbers, escapes,
/// non-ASCII text and near-miss verbs, but never a verb the daemon answers.
const SCALARS: &[&str] = &[
    "null",
    "true",
    "false",
    "0",
    "-0",
    "1e999",
    "-2.5E-3",
    "123456789012345678901234567890",
    r#""""#,
    r#""ma""#,
    r#""STATS""#,
    r#""route""#,
    r#""stats ""#,
    r#""shutdown?""#,
    r#""\u0000\n\"""#,
    r#""\ud83d""#,
    "\"é✓\"",
    r#""{\"cmd\":\"stats\"}""#,
];

/// Object keys the fuzz draws from.
const KEYS: &[&str] = &[r#""cmd""#, r#""state""#, r#""""#, r#""k""#];

/// Append a random JSON value nesting at most `depth` more levels.
fn json_value(d: &mut Draws, depth: usize, out: &mut String) {
    match d.below(if depth == 0 { 2 } else { 4 }) {
        0 => out.push_str(d.pick(SCALARS)),
        1 => out.push_str(d.pick(&["[]", "{}"])),
        2 => {
            out.push('[');
            for i in 0..d.below(4) {
                if i > 0 {
                    out.push(',');
                }
                json_value(d, depth - 1, out);
            }
            out.push(']');
        }
        _ => {
            out.push('{');
            for i in 0..d.below(4) {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(d.pick(KEYS));
                out.push(':');
                json_value(d, depth - 1, out);
            }
            out.push('}');
        }
    }
}

/// Append arrays and objects nested up to and past the parser's bound of
/// 128 levels, closed or left open. At most 6 bytes a level keeps every
/// line under the daemon's 64 KiB cap.
fn deep_value(d: &mut Draws, out: &mut String) {
    let depth = d.pick(&[2, 7, 127, 128, 129, 130, 1_000, 10_000]);
    let mut closers = String::with_capacity(depth);
    for _ in 0..depth {
        if d.below(2) == 0 {
            out.push('[');
            closers.push(']');
        } else {
            out.push_str(r#"{"k":"#);
            closers.push('}');
        }
    }
    if d.below(4) > 0 {
        out.push('0');
        out.extend(closers.chars().rev());
    }
}

/// One generated request line (without its newline) and what its reply
/// must carry: `Some(field)` for an `"ok":true` reply with that field,
/// `None` for an `"ok":false` reply with a string `error`.
fn request_line(d: &mut Draws, clients: &[UsState]) -> (Vec<u8>, Option<&'static str>) {
    let mut text = String::new();
    let expect = match d.below(6) {
        0 => {
            // Random bytes, some of them not UTF-8.
            let bytes = (0..d.below(120))
                .map(|_| d.below(256) as u8)
                .filter(|&byte| byte != b'\n')
                .collect();
            return (bytes, None);
        }
        1 => {
            json_value(d, 4, &mut text);
            None
        }
        2 => {
            deep_value(d, &mut text);
            None
        }
        3 => {
            // A `cmd` of every JSON type, nested past the bound too.
            text.push_str(r#"{"cmd":"#);
            if d.below(4) == 0 {
                deep_value(d, &mut text);
            } else {
                json_value(d, 2, &mut text);
            }
            text.push('}');
            None
        }
        4 => {
            // A state code that is valid, lower-case, unknown or not a
            // string. Valid codes answer only for the scenario's clients.
            text.push_str(r#"{"cmd":"route?","state":"#);
            let expect = match d.below(4) {
                0 | 1 => {
                    let state = d.pick(&UsState::all().collect::<Vec<_>>());
                    let code = state.abbreviation();
                    let code = if d.below(2) == 0 { code.to_string() } else { code.to_lowercase() };
                    text.push_str(&format!("\"{code}\""));
                    clients.contains(&state).then_some("hits_per_sec")
                }
                2 => {
                    text.push_str(d.pick(&[r#""""#, r#""ZZ""#, r#""M""#, r#""MAA""#, r#""m a""#]));
                    None
                }
                _ => {
                    text.push_str(d.pick(&["null", "true", "25", "[]", "{}", r#"["MA"]"#]));
                    None
                }
            };
            text.push('}');
            expect
        }
        _ => {
            // Every verb the daemon answers but `shutdown`, with stray
            // fields and whitespace.
            let (request, field) = d.pick(&[
                (r#"{"cmd":"stats"}"#, "report"),
                (r#" {"cmd" : "metrics", "k": [1, {}]} "#, "exposition"),
                (r#"{"k":null,"cmd":"snapshot"}"#, "snapshot"),
                ("{\"cmd\":\"stats\"}\r", "report"),
            ]);
            if d.below(4) == 0 {
                let state = d.pick(clients).abbreviation();
                text.push_str(&format!(r#"{{"state":"{state}","cmd":"route?"}}"#));
                Some("hits_per_sec")
            } else {
                text.push_str(request);
                Some(field)
            }
        }
    };
    (text.into_bytes(), expect)
}

/// Check one reply line against what its request line must get.
fn check_reply(reply: &str, expect: Option<&str>) -> Result<(), String> {
    let reply = JsonValue::parse(reply.trim()).map_err(|e| format!("not JSON ({e}): {reply:?}"))?;
    let ok = reply.get("ok").and_then(JsonValue::as_bool);
    let matches = match expect {
        Some(field) => ok == Some(true) && reply.get(field).is_some(),
        None => ok == Some(false) && reply.get("error").and_then(JsonValue::as_str).is_some(),
    };
    if matches {
        Ok(())
    } else {
        let reply = reply.to_string();
        Err(format!("expected {expect:?}, got {}", &reply[..reply.len().min(200)]))
    }
}

/// A `routed serve` child process, killed if a test ends without shutting
/// it down.
struct Routed(std::process::Child);

impl Drop for Routed {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Wire fuzz: 128 batches of generated request lines, each written whole
/// and followed by a `stats`, down one connection to one lingering
/// `routed` process. Every line must get exactly one reply, in order,
/// that parses as an object with a boolean `ok` (and a string `error` when
/// false), and the trailing `stats` must still answer. The daemon runs in
/// its own process so that the fuzz's `metrics` requests leave this
/// process's registry, which another test reads, alone.
#[test]
fn every_request_line_gets_one_well_formed_reply_in_order() {
    use std::io::{BufRead, Write};

    let path = socket_path("fuzz");
    let _ = std::fs::remove_file(&path);
    let socket = path.to_str().expect("a UTF-8 socket path");
    let args = ["serve", "--socket", socket, "--hours", "24", "--step-ms", "3", "--linger"];
    let mut routed = Routed(
        std::process::Command::new(env!("CARGO_BIN_EXE_routed"))
            .args(args)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn routed"),
    );
    // `routed serve` replays the scenario of `short_scenario(24)`.
    let clients = short_scenario(24).trace.states;
    let mut control = DaemonClient::connect(&path, Duration::from_secs(30)).expect("connect");
    await_first_tick(&mut control);

    let stream = std::os::unix::net::UnixStream::connect(&path).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(20))).expect("read timeout");
    stream.set_write_timeout(Some(Duration::from_secs(20))).expect("write timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = std::io::BufReader::new(stream);
    let mut draws = Draws { seed: 2009, k: 0 };
    for case in 0..128 {
        let batch: Vec<_> =
            (0..1 + draws.below(12)).map(|_| request_line(&mut draws, &clients)).collect();
        let mut bytes = Vec::new();
        for (line, _) in &batch {
            bytes.extend_from_slice(line);
            bytes.push(b'\n');
        }
        bytes.extend_from_slice(b"{\"cmd\":\"stats\"}\n");
        // Written from a second thread: a batch and its replies can each
        // outgrow a socket buffer.
        let replies: Vec<String> = std::thread::scope(|s| {
            let writing = s.spawn(|| writer.write_all(&bytes));
            let replies = (0..=batch.len())
                .map(|_| {
                    let mut reply = String::new();
                    reader.read_line(&mut reply).map(|_| reply)
                })
                .collect::<std::io::Result<_>>();
            writing.join().expect("writer thread").expect("write the batch");
            replies.unwrap_or_else(|e| panic!("case {case}: reading the replies: {e}"))
        });
        let expects = batch.iter().map(|(_, expect)| *expect).chain([Some("report")]);
        for (i, (reply, expect)) in replies.iter().zip(expects).enumerate() {
            if let Err(e) = check_reply(reply, expect) {
                let line = batch.get(i).map_or(&b"the trailing stats"[..], |(line, _)| line);
                let line = String::from_utf8_lossy(&line[..line.len().min(80)]);
                panic!("case {case}, line {i} ({line:?}): {e}");
            }
        }
    }

    // A fresh connection is served too, and the daemon exits cleanly.
    let mut fresh = DaemonClient::connect(&path, Duration::from_secs(10)).expect("connect");
    let stats = fresh.command("stats").expect("stats");
    assert_eq!(stats.get("ok").and_then(JsonValue::as_bool), Some(true), "{stats}");
    control.command("shutdown").expect("shutdown");
    assert!(routed.0.wait().expect("routed exits").success(), "routed exits cleanly");
}
