//! A long-running router daemon over the incremental tick engine.
//!
//! [`serve`] replays a [`Scenario`]'s trace through a
//! [`SimulationEngine`] in accelerated wall-clock time — one 5-minute
//! simulation step per [`DaemonOptions::step_wait`] — while answering
//! queries over a Unix-domain socket. Prices are not read from a compiled
//! table: each simulated hour's row is ingested into a bounded
//! [`PriceFeed`], exactly as a live deployment would learn market prices,
//! and the engine routes on the feed's delayed view. Fed the same history,
//! the daemon's final report is bit-identical to a batch
//! [`Scenario::execute`] run (pinned by `tests/daemon_smoke.rs`).
//!
//! # Wire protocol
//!
//! Newline-delimited JSON, one request object per line, one reply object
//! per line (see `docs/daemon.md` for the full schema):
//!
//! | request | reply |
//! |---|---|
//! | `{"cmd":"route?","state":"MA"}` | the current per-cluster allocation for that state |
//! | `{"cmd":"stats"}` | the mid-run [`SimulationReport`] plus daemon health (uptime, connection and per-verb request counters) |
//! | `{"cmd":"metrics"}` | the process-wide [`wattroute_obs`] registry as a Prometheus-style text exposition |
//! | `{"cmd":"snapshot"}` | a lossless [`EngineSnapshot`] of the router state |
//! | `{"cmd":"shutdown"}` | acknowledges, then the daemon flushes its final report and exits |
//!
//! Every reply carries `"ok": true` or `"ok": false` plus an `"error"`
//! string; a malformed request line gets an error reply rather than a
//! dropped connection. A request line may arrive in pieces, with pauses
//! between them; one longer than [`MAX_REQUEST_LINE`] bytes gets one error
//! reply, and its connection is closed.
//!
//! Request handling is instrumented on the [`wattroute_obs`] registry:
//! per-verb counters (`daemon.requests.*`), connection counters
//! (`daemon.connections.total` / `.rejected`), and — with telemetry
//! enabled — a `daemon.request` latency histogram. The `stats` reply
//! mirrors the same numbers per daemon instance, so they survive even
//! when telemetry stays off.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use wattroute::engine::{DemandSlice, PriceSlice, SimulationEngine};
use wattroute::json::{self, JsonValue};
use wattroute::prelude::*;
use wattroute::report::SimulationReport;
use wattroute_geo::topology::Topology;
use wattroute_geo::UsState;
use wattroute_market::feed::PriceFeed;
use wattroute_routing::policy::RoutingPolicy;

/// How [`serve`] paces and terminates the replay loop.
#[derive(Debug, Clone)]
pub struct DaemonOptions {
    /// Where to bind the Unix-domain socket. Created on start, removed on
    /// shutdown; serving fails if the path is already bound.
    pub socket_path: PathBuf,
    /// Wall-clock pause per 5-minute simulation step — the replay
    /// acceleration knob. `Duration::ZERO` free-runs the trace (useful for
    /// bit-identity tests); 20ms replays a day of trace in ~5.8 seconds.
    pub step_wait: Duration,
    /// After the trace is exhausted, keep serving queries until a
    /// `shutdown` command arrives (`true`), or flush the final report and
    /// exit immediately (`false`).
    pub linger: bool,
    /// Most query connections served concurrently. A connection beyond the
    /// cap is answered with a single `"ok": false` error reply and closed
    /// instead of being given a handler thread, so a connection flood
    /// cannot exhaust the daemon's threads.
    pub max_connections: usize,
}

/// Default [`DaemonOptions::max_connections`]: generous for interactive
/// use, small enough that a runaway client loop fails fast.
pub const DEFAULT_MAX_CONNECTIONS: usize = 64;

/// Longest request line the daemon reads, in bytes, its newline included.
/// The longest valid request is a few dozen bytes; the cap only bounds
/// what a client that never sends a newline can make a handler buffer.
pub const MAX_REQUEST_LINE: usize = 64 * 1024;

impl DaemonOptions {
    /// Free-running, non-lingering options for a socket path — the
    /// configuration batch-equivalence tests use.
    pub fn free_run(socket_path: impl Into<PathBuf>) -> Self {
        Self {
            socket_path: socket_path.into(),
            step_wait: Duration::ZERO,
            linger: false,
            max_connections: DEFAULT_MAX_CONNECTIONS,
        }
    }
}

/// Per-daemon health counters surfaced in the `stats` reply. The same
/// events are mirrored onto the process-wide [`wattroute_obs`] registry
/// (`daemon.*` series); the instance copy keeps `stats` meaningful when
/// several daemons share one process (tests do) or telemetry is off.
#[derive(Debug, Default)]
struct DaemonMetrics {
    connections_total: AtomicU64,
    connections_rejected: AtomicU64,
    requests_route: AtomicU64,
    requests_stats: AtomicU64,
    requests_metrics: AtomicU64,
    requests_snapshot: AtomicU64,
    requests_shutdown: AtomicU64,
    requests_errors: AtomicU64,
}

impl DaemonMetrics {
    fn record_connection(&self) {
        self.connections_total.fetch_add(1, Ordering::Relaxed);
        wattroute_obs::counter!("daemon.connections.opened").inc();
    }

    fn record_rejected_connection(&self) {
        self.connections_rejected.fetch_add(1, Ordering::Relaxed);
        wattroute_obs::counter!("daemon.connections.rejected").inc();
    }

    fn record_verb(&self, cmd: &str) {
        match cmd {
            "route?" => {
                self.requests_route.fetch_add(1, Ordering::Relaxed);
                wattroute_obs::counter!("daemon.requests.route").inc();
            }
            "stats" => {
                self.requests_stats.fetch_add(1, Ordering::Relaxed);
                wattroute_obs::counter!("daemon.requests.stats").inc();
            }
            "metrics" => {
                self.requests_metrics.fetch_add(1, Ordering::Relaxed);
                wattroute_obs::counter!("daemon.requests.metrics").inc();
            }
            "snapshot" => {
                self.requests_snapshot.fetch_add(1, Ordering::Relaxed);
                wattroute_obs::counter!("daemon.requests.snapshot").inc();
            }
            "shutdown" => {
                self.requests_shutdown.fetch_add(1, Ordering::Relaxed);
                wattroute_obs::counter!("daemon.requests.shutdown").inc();
            }
            _ => {}
        }
    }

    fn record_error(&self) {
        self.requests_errors.fetch_add(1, Ordering::Relaxed);
        wattroute_obs::counter!("daemon.requests.errors").inc();
    }

    fn requests_by_verb(&self) -> JsonValue {
        json::object([
            ("route?", JsonValue::Number(self.requests_route.load(Ordering::Relaxed) as f64)),
            ("stats", JsonValue::Number(self.requests_stats.load(Ordering::Relaxed) as f64)),
            ("metrics", JsonValue::Number(self.requests_metrics.load(Ordering::Relaxed) as f64)),
            ("snapshot", JsonValue::Number(self.requests_snapshot.load(Ordering::Relaxed) as f64)),
            ("shutdown", JsonValue::Number(self.requests_shutdown.load(Ordering::Relaxed) as f64)),
            ("errors", JsonValue::Number(self.requests_errors.load(Ordering::Relaxed) as f64)),
        ])
    }
}

/// What the replay loop shares with every connection handler.
struct Shared<'a> {
    engine: Mutex<SimulationEngine<'a>>,
    /// The deployment embedded as a one-region tree, built once: the
    /// `stats` reply's `tier_load` aggregates the current loads up it.
    tiers: Topology,
    shutdown: AtomicBool,
    metrics: DaemonMetrics,
    started: Instant,
}

/// Replay `scenario` through a tick engine, serving queries on a Unix
/// socket, until the trace ends (and, with [`DaemonOptions::linger`], a
/// `shutdown` command arrives). Returns the final flushed
/// [`SimulationReport`] — bit-identical to the batch run of the same
/// scenario and policy.
///
/// # Errors
/// Returns any socket bind/IO error. Query-connection errors are per
/// connection and never abort the daemon.
pub fn serve(
    scenario: &Scenario,
    policy: &mut dyn RoutingPolicy,
    options: &DaemonOptions,
) -> io::Result<SimulationReport> {
    let listener = UnixListener::bind(&options.socket_path)?;
    listener.set_nonblocking(true)?;

    let hubs = scenario.clusters.hub_ids();
    let series: Vec<_> = hubs
        .iter()
        .map(|hub| scenario.prices.for_hub(*hub).expect("scenario covers every cluster hub"))
        .collect();
    let mut feed = PriceFeed::new(hubs, scenario.config.reaction_delay_hours);

    let shared = Shared {
        engine: Mutex::new(SimulationEngine::new(
            &scenario.clusters,
            &scenario.trace.states,
            scenario.config.clone(),
        )),
        tiers: single_region_of(&scenario.clusters),
        shutdown: AtomicBool::new(false),
        metrics: DaemonMetrics::default(),
        started: Instant::now(),
    };

    // Pre-register the engine series the `metrics` verb promises, so the
    // exposition carries them from the first scrape (at zero) instead of
    // only after the engine happens to take each branch.
    wattroute_obs::counter!("engine.alloc_cache.hits").get();
    wattroute_obs::counter!("engine.alloc_cache.misses").get();
    wattroute_obs::histogram!("engine.tick").count();

    std::thread::scope(|scope| {
        scope.spawn(|| accept_loop(&listener, &shared, options.max_connections));

        let mut row = Vec::with_capacity(series.len());
        for (i, step) in scenario.trace.steps().iter().enumerate() {
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let hour = scenario.trace.step_hour(i);
            if feed.current_hour() != Some(hour) {
                row.clear();
                row.extend(
                    series.iter().map(|s| s.price_at(hour).expect("series covers the trace")),
                );
                feed.ingest(hour, &row).expect("trace hours are contiguous");
            }
            {
                let mut engine = shared.engine.lock().expect("engine lock");
                engine.set_clamped_lead_hours(feed.clamped_lead_hours());
                engine.tick(
                    policy,
                    PriceSlice::new(
                        hour,
                        feed.delayed().expect("ingested above"),
                        feed.billing().expect("ingested above"),
                    ),
                    DemandSlice::new(&step.us_demand),
                );
            }
            if !options.step_wait.is_zero() {
                std::thread::sleep(options.step_wait);
            }
        }
        if options.linger {
            while !shared.shutdown.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(5));
            }
        } else {
            shared.shutdown.store(true, Ordering::SeqCst);
        }
    });

    let report = shared.engine.into_inner().expect("all threads joined").report();
    let _ = std::fs::remove_file(&options.socket_path);
    Ok(report)
}

/// Accept connections until shutdown, answering each request line against
/// the shared engine. At most `max_connections` handler threads are live
/// at once; a connection beyond the cap gets one JSON error reply and is
/// closed.
fn accept_loop(listener: &UnixListener, shared: &Shared<'_>, max_connections: usize) {
    let metrics = &shared.metrics;
    let live = AtomicUsize::new(0);
    let live = &live;
    std::thread::scope(|scope| loop {
        match listener.accept() {
            Ok((mut stream, _)) => {
                // A slow client must not wedge the daemon: each connection
                // gets its own thread, and bounded reads let every thread
                // re-check the shutdown flag.
                let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
                metrics.record_connection();
                if live.fetch_add(1, Ordering::SeqCst) >= max_connections {
                    live.fetch_sub(1, Ordering::SeqCst);
                    // Saturation must be visible, not silent: count the
                    // rejection so `--max-conns` floods show up in stats
                    // and the metrics exposition.
                    metrics.record_rejected_connection();
                    metrics.record_error();
                    let mut reply =
                        error_reply(&format!("connection limit reached ({max_connections})"))
                            .to_string();
                    reply.push('\n');
                    let _ = stream.write_all(reply.as_bytes());
                } else {
                    scope.spawn(move || {
                        let _ = handle_connection(stream, shared);
                        live.fetch_sub(1, Ordering::SeqCst);
                    });
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    });
}

/// Serve one connection: a sequence of newline-delimited request objects,
/// answered in order, until EOF or shutdown.
fn handle_connection(stream: UnixStream, shared: &Shared<'_>) -> io::Result<()> {
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    // One request-line buffer and one reply buffer per connection: at
    // steady state a long-lived client (the poller behind `routed query
    // --watch`) is served with zero per-request allocations on the framing
    // path, however many lines it sends.
    let mut line = Vec::new();
    let mut reply = String::new();
    let mut send = |reply: &mut String| -> io::Result<()> {
        reply.push('\n');
        writer.write_all(reply.as_bytes())?;
        writer.flush()
    };
    loop {
        // A read timeout returns with the bytes read so far kept in
        // `line`, so a request split by a pause is completed by the next
        // read; `line` is cleared only once its request is answered.
        let room = MAX_REQUEST_LINE - line.len();
        match reader.by_ref().take(room as u64).read_until(b'\n', &mut line) {
            Ok(_) if line.is_empty() => return Ok(()), // EOF
            Ok(_) if line.len() == MAX_REQUEST_LINE && line.last() != Some(&b'\n') => {
                shared.metrics.record_error();
                reply.clear();
                error_reply(&format!("request line longer than {MAX_REQUEST_LINE} bytes"))
                    .write_to(&mut reply);
                return send(&mut reply);
            }
            Ok(_) => {
                reply.clear();
                match std::str::from_utf8(&line) {
                    Ok(text) => handle_request(text.trim(), shared, &mut reply),
                    Err(_) => {
                        shared.metrics.record_error();
                        error_reply("request line is not UTF-8").write_to(&mut reply);
                    }
                }
                line.clear();
                send(&mut reply)?;
                if shared.shutdown.load(Ordering::SeqCst) {
                    return Ok(());
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return Ok(());
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// Answer one request line, appending the reply object to `reply`; never
/// panics on malformed input. Wraps the dispatch and the reply's encoding
/// in a `daemon.request` latency span and books the verb / error counters.
fn handle_request(line: &str, shared: &Shared<'_>, reply: &mut String) {
    let _request_span = wattroute_obs::span!("daemon.request");
    if let Err(error) = dispatch_request(line, shared, reply) {
        shared.metrics.record_error();
        error_reply(&error).write_to(reply);
    }
}

/// The verb dispatch behind [`handle_request`]: appends a successful
/// reply to `reply`, or returns the message of an error reply having
/// appended nothing.
fn dispatch_request(line: &str, shared: &Shared<'_>, reply: &mut String) -> Result<(), String> {
    let Shared { engine, tiers, shutdown, metrics, started } = shared;
    if line.is_empty() {
        return Err("empty request line".to_string());
    }
    let request = JsonValue::parse(line).map_err(|e| format!("malformed request: {e}"))?;
    let Some(cmd) = request.get("cmd").and_then(JsonValue::as_str) else {
        return Err("request has no string 'cmd' field".to_string());
    };
    metrics.record_verb(cmd);
    match cmd {
        "route?" => {
            let Some(code) = request.get("state").and_then(JsonValue::as_str) else {
                return Err("route? needs a 'state' field (two-letter postal code)".to_string());
            };
            let Some(state) = UsState::from_abbreviation(code) else {
                return Err(format!("unknown state '{code}'"));
            };
            // The guard is a temporary: the lock, which the tick thread
            // waits on, is released before the reply is encoded.
            let route = route_reply(&engine.lock().expect("engine lock"), state, code)?;
            route.write_to(reply);
        }
        "stats" => {
            let engine = engine.lock().expect("engine lock");
            let stats = json::object_iter(
                [
                    ("ok", JsonValue::Bool(true)),
                    ("steps", JsonValue::Number(engine.steps() as f64)),
                    ("report", engine.report().to_json_value()),
                    ("uptime_secs", JsonValue::Number(started.elapsed().as_secs_f64())),
                    (
                        "connections_total",
                        JsonValue::Number(metrics.connections_total.load(Ordering::Relaxed) as f64),
                    ),
                    ("requests_by_verb", metrics.requests_by_verb()),
                ]
                .into_iter()
                .chain(tier_load_reply(&engine, tiers).map(|tier_load| ("tier_load", tier_load))),
            );
            // Encode the report after releasing the lock.
            drop(engine);
            stats.write_to(reply);
        }
        "metrics" => json::object([
            ("ok", JsonValue::Bool(true)),
            ("uptime_secs", JsonValue::Number(started.elapsed().as_secs_f64())),
            ("telemetry_enabled", JsonValue::Bool(wattroute_obs::Telemetry::enabled())),
            ("exposition", JsonValue::String(wattroute_obs::telemetry().prometheus())),
        ])
        .write_to(reply),
        "snapshot" => {
            // Written in place under the lock, in the key order an object
            // keeps: the engine formats only the load samples added since
            // its last snapshot and copies the rest.
            let mut engine = engine.lock().expect("engine lock");
            reply.push_str(r#"{"ok":true,"snapshot":"#);
            engine.write_snapshot_json(reply);
            reply.push_str(r#","steps":"#);
            JsonValue::Number(engine.steps() as f64).write_to(reply);
            reply.push('}');
        }
        "shutdown" => {
            shutdown.store(true, Ordering::SeqCst);
            json::object([("ok", JsonValue::Bool(true)), ("shutting_down", JsonValue::Bool(true))])
                .write_to(reply);
        }
        other => return Err(format!("unknown command '{other}'")),
    }
    Ok(())
}

/// The `route?` reply: where the allocation in force sends one state's
/// demand, as hits/second per cluster label.
fn route_reply(
    engine: &SimulationEngine<'_>,
    state: UsState,
    code: &str,
) -> Result<JsonValue, String> {
    let Some(allocation) = engine.current_allocation() else {
        return Err("no allocation yet (no tick has run)".to_string());
    };
    let Some(s) = engine.states().iter().position(|x| *x == state) else {
        return Err(format!("state '{code}' is not in this scenario's client set"));
    };
    let hour = engine.last_allocation_hour().expect("allocation implies an hour");
    let per_cluster =
        json::object_iter(
            engine.clusters().clusters().iter().enumerate().map(|(c, cluster)| {
                (cluster.label.as_str(), JsonValue::Number(allocation.row(c)[s]))
            }),
        );
    Ok(json::object([
        ("ok", JsonValue::Bool(true)),
        ("state", JsonValue::String(code.to_uppercase())),
        ("hour", JsonValue::Number(hour.0 as f64)),
        ("hits_per_sec", per_cluster),
    ]))
}

/// The `stats` reply's tier-level view of the allocation in force:
/// [`TierLoads`] aggregating the current per-cluster loads up `tiers`, the
/// daemon's flat deployment embedded as a one-region tree. `None` until
/// the first tick installs an allocation.
fn tier_load_reply(engine: &SimulationEngine<'_>, tiers: &Topology) -> Option<JsonValue> {
    let allocation = engine.current_allocation()?;
    let loads = TierLoads::aggregate(tiers, &allocation.cluster_loads());
    Some(json::object([
        (
            "metros",
            json::object_iter(
                tiers
                    .metro_labels()
                    .iter()
                    .zip(&loads.metro)
                    .map(|(label, load)| (label.as_str(), JsonValue::Number(*load))),
            ),
        ),
        (
            "regions",
            json::object_iter(
                tiers
                    .region_labels()
                    .iter()
                    .zip(&loads.region)
                    .map(|(label, load)| (label.as_str(), JsonValue::Number(*load))),
            ),
        ),
        ("total_hits_per_sec", JsonValue::Number(loads.total)),
    ]))
}

fn error_reply(message: &str) -> JsonValue {
    json::object([
        ("ok", JsonValue::Bool(false)),
        ("error", JsonValue::String(message.to_string())),
    ])
}

/// A minimal blocking client for the daemon's wire protocol — used by the
/// `routed query` subcommand and the smoke tests.
#[derive(Debug)]
pub struct DaemonClient {
    stream: BufReader<UnixStream>,
}

impl DaemonClient {
    /// Connect to a daemon socket, retrying for up to `timeout` while the
    /// daemon starts up.
    pub fn connect(socket_path: &std::path::Path, timeout: Duration) -> io::Result<Self> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            match UnixStream::connect(socket_path) {
                Ok(stream) => return Ok(Self { stream: BufReader::new(stream) }),
                Err(e) => {
                    if std::time::Instant::now() >= deadline {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
    }

    /// Send one request line and read the reply line.
    pub fn request(&mut self, request: &JsonValue) -> io::Result<JsonValue> {
        let inner = self.stream.get_mut();
        inner.write_all(request.to_string().as_bytes())?;
        inner.write_all(b"\n")?;
        inner.flush()?;
        let mut reply = String::new();
        self.stream.read_line(&mut reply)?;
        JsonValue::parse(reply.trim())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad reply: {e}")))
    }

    /// Convenience: send a bare `{"cmd": ...}` request.
    pub fn command(&mut self, cmd: &str) -> io::Result<JsonValue> {
        self.request(&json::object([("cmd", JsonValue::String(cmd.to_string()))]))
    }
}
