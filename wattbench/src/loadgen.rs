//! The daemon-mixed load generator: two threads, two connections.
//!
//! * Connection 1 carries `route?` requests sent open-loop at a fixed rate
//!   for seeded random states. The sending thread sleeps (and spins the
//!   last few µs) until each request is due; a second thread blocks on the
//!   replies and times each one from its request's *due* time, so a stall
//!   is also charged to the requests queued behind it. Socket read
//!   timeouts are not used for pacing: Linux rounds them up to scheduler
//!   ticks, milliseconds apart.
//! * Connection 2 is a closed-loop poller, run by the sending thread
//!   between requests: `stats` and `snapshot` in turn on a fixed cadence.
//!   It notices the end of the replay and, after the idle `route?` phase,
//!   sends the final `snapshot` and `shutdown`.
//!
//! A `route?` counts as loaded when it was due before the last `stats`
//! that found the replay running was sent, and as idle when it was due
//! after the first `stats` reply that found the replay over arrived.
//! Requests due between the two are checked but are samples of neither.

use crate::measure::{thread_cpu, Stopwatch};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use wattroute::json::JsonValue;
use wattroute::prelude::*;
use wattroute_bench::daemon::{serve, DaemonOptions, DEFAULT_MAX_CONNECTIONS};

/// Threads the generator runs.
pub const THREADS: usize = 2;
/// Connections the generator opens.
pub const CONNECTIONS: usize = 2;

const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);
/// A session that runs longer than this has stalled; the generator stops.
const SESSION_LIMIT: Duration = Duration::from_secs(120);
/// The sender spins, instead of sleeping, this close to a due time: a
/// sleep overshoots by tens of µs.
const SPIN: Duration = Duration::from_micros(100);
/// How often the sender looks for the poller's reply while one is due.
const POLL_CHECK: Duration = Duration::from_micros(100);
/// A poll reply is parsed only when the next `route?` is due this far off.
const PARSE_BUDGET: Duration = Duration::from_micros(600);

/// The daemon's pause per 5-minute step: 24 days replay in about 4 s.
pub const STEP_WAIT: Duration = Duration::from_micros(500);
/// `route?` requests per second, while replaying and after.
pub const ROUTE_RPS: f64 = 1000.0;
/// `route?` requests sent once the replay has ended.
pub const IDLE_ROUTES: usize = 1000;
/// Cadence of the poller's requests.
const POLL_EVERY: Duration = Duration::from_millis(50);

/// Seeded state picker (SplitMix64): the same seed asks for the same states.
#[derive(Debug, Clone)]
pub struct Picker(u64);

impl Picker {
    /// A picker for `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// What connection 1 saw.
#[derive(Debug, Default)]
pub struct RouteLog {
    /// Latency from due time, in µs, of the loaded requests (`INFINITY`
    /// for an error or missing reply).
    pub loaded_us: Vec<f64>,
    /// The same for the idle requests.
    pub idle_us: Vec<f64>,
    /// How late each request was sent, in µs.
    pub lag_us: Vec<f64>,
    /// Requests sent.
    pub sent: u64,
    /// Replies received.
    pub answered: u64,
    /// From the first due time to the last reply.
    pub span: Duration,
    /// Error replies and missing replies.
    pub errors: Vec<String>,
    /// CPU time of the generator's two threads.
    pub cpu: Duration,
}

/// What connection 2 saw.
#[derive(Debug, Default)]
pub struct PollLog {
    /// `stats` latency in ms while the replay ran.
    pub stats_ms: Vec<f64>,
    /// `snapshot` latency in ms.
    pub snapshot_ms: Vec<f64>,
    /// Replay pace between the first and last `stats` taken mid-replay.
    pub steps_per_s: Option<f64>,
    /// The final `snapshot` reply line.
    pub final_snapshot: Option<String>,
    /// Requests sent; a failed connection counts as one.
    pub requests: u64,
    /// Error replies and connection failures.
    pub errors: Vec<String>,
}

/// One daemon session: the flushed report and everything the load saw.
#[derive(Debug, Default)]
pub struct Session {
    /// The report `serve` flushed.
    pub report: Option<SimulationReport>,
    /// From `serve` starting to it returning.
    pub wall: Duration,
    /// CPU time the daemon's threads used meanwhile: the process's, less
    /// the load generator's.
    pub cpu: Duration,
    /// Connection 1.
    pub route: RouteLog,
    /// Connection 2.
    pub poll: PollLog,
    /// Failures of `serve` itself.
    pub errors: Vec<String>,
}

impl Session {
    /// Requests sent over both connections.
    pub fn requests(&self) -> u64 {
        self.route.sent + self.poll.requests
    }

    /// Every failure the session saw.
    pub fn errors(&self) -> impl Iterator<Item = &String> {
        self.errors.iter().chain(&self.route.errors).chain(&self.poll.errors)
    }
}

/// A `route?` request in flight: its due time and the state asked for.
type Pending = (Instant, usize);

/// Serve `scenario` with `policy` on `socket` under the load described
/// above, and return once the daemon has flushed its report.
pub fn session(
    scenario: &Scenario,
    policy: &mut dyn RoutingPolicy,
    socket: &Path,
    picker: &mut Picker,
) -> Session {
    let options = DaemonOptions {
        socket_path: socket.to_path_buf(),
        step_wait: STEP_WAIT,
        linger: true,
        max_connections: DEFAULT_MAX_CONNECTIONS,
    };
    let load = Load {
        socket,
        states: scenario.trace.states.iter().map(|s| s.abbreviation()).collect(),
        n_steps: scenario.trace.num_steps(),
        n_clusters: scenario.clusters.len(),
        give_up: AtomicBool::new(false),
    };
    std::thread::scope(|scope| {
        let generator = scope.spawn(|| load.generate(picker));
        let clock = Stopwatch::start();
        let served = serve(scenario, policy, &options);
        let (wall, cpu) = (clock.wall(), clock.cpu());
        let mut session = Session { wall, ..Session::default() };
        match served {
            Ok(report) => session.report = Some(report),
            Err(e) => {
                load.give_up.store(true, SeqCst);
                session.errors.push(format!("serve: {e}"));
            }
        }
        (session.route, session.poll) = generator.join().expect("load generator panicked");
        session.cpu = cpu.saturating_sub(session.route.cpu);
        session
    })
}

/// One session's load: what to send, where, and how much.
struct Load<'a> {
    socket: &'a Path,
    states: Vec<&'static str>,
    n_steps: usize,
    n_clusters: usize,
    /// Set when the daemon failed to start: stop waiting for it.
    give_up: AtomicBool,
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1.0e6
}

fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1.0e3
}

fn invalid(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

fn connect(socket: &Path, give_up: &AtomicBool) -> io::Result<UnixStream> {
    let deadline = Instant::now() + CONNECT_TIMEOUT;
    loop {
        match UnixStream::connect(socket) {
            Ok(stream) => {
                stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
                return Ok(stream);
            }
            Err(e) if Instant::now() >= deadline || give_up.load(SeqCst) => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Wait until `due`: sleep most of the way, spin the rest.
fn wait_until(due: Instant) {
    if let Some(early) = due.checked_sub(SPIN) {
        if let Some(nap) = early.checked_duration_since(Instant::now()) {
            std::thread::sleep(nap);
        }
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

impl Load<'_> {
    /// The generator's sending thread: everything but reading `route?`
    /// replies.
    fn generate(&self, picker: &mut Picker) -> (RouteLog, PollLog) {
        let mut route = RouteLog::default();
        let mut poll = PollLog::default();
        if let Err(e) = self.drive(picker, &mut route, &mut poll) {
            poll.requests += 1;
            poll.errors.push(format!("poll connection: {e}"));
            // The daemon lingers until told to stop: make sure it is told.
            if let Err(e) = shutdown_fresh(self.socket) {
                poll.errors.push(format!("shutdown on a fresh connection: {e}"));
            }
        }
        route.cpu += thread_cpu();
        (route, poll)
    }

    fn drive(
        &self,
        picker: &mut Picker,
        route: &mut RouteLog,
        poll: &mut PollLog,
    ) -> io::Result<()> {
        let mut poller = Poller::new(connect(self.socket, &self.give_up)?);
        // Before the first tick the daemon has no allocation to report.
        while self.stats(&poller.call("stats", poll)?.1)?.0 < 1.0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let routes = connect(self.socket, &self.give_up)?;
        let replies = routes.try_clone()?;
        let (due_tx, due_rx) = mpsc::channel::<Pending>();
        let mut lag_us = Vec::new();
        let mut sent = 0;
        let (result, (log, latencies)) = std::thread::scope(|scope| {
            let reader = scope.spawn(move || self.read_routes(replies, due_rx));
            let result =
                self.send_routes(routes, due_tx, picker, &mut poller, poll, &mut lag_us, &mut sent);
            (result, reader.join().expect("route reader panicked"))
        });
        *route = RouteLog { lag_us, sent, ..log };
        let phases = result?;
        for (due, latency) in latencies {
            if phases.loaded_until.is_some_and(|until| due < until) {
                route.loaded_us.push(latency);
            } else if due >= phases.idle_from {
                route.idle_us.push(latency);
            }
        }
        let (_, line) = poller.call("snapshot", poll)?;
        poll.final_snapshot = Some(line);
        poller.call("shutdown", poll)?;
        Ok(())
    }

    /// Parse a `stats` reply: (steps covered, daemon uptime in seconds).
    fn stats(&self, line: &str) -> io::Result<(f64, f64)> {
        let reply =
            JsonValue::parse(line).map_err(|e| invalid(format!("stats reply is not JSON: {e}")))?;
        let field = |key: &str| reply.get(key).and_then(JsonValue::as_f64);
        match (reply.get("ok").and_then(JsonValue::as_bool), field("steps"), field("uptime_secs")) {
            (Some(true), Some(steps), Some(uptime)) => Ok((steps, uptime)),
            _ => Err(invalid(format!("stats failed: {line}"))),
        }
    }

    /// Send `route?` requests on schedule, counting them in `sent`, and
    /// serve the poller between them. A poll reply is timed as soon as it
    /// has arrived, but parsed only where a request is not due for a
    /// while, so the parse does not make the sender late. Returns where
    /// the replay was last seen running and first seen over.
    #[allow(clippy::too_many_arguments)]
    fn send_routes(
        &self,
        mut routes: UnixStream,
        due_tx: mpsc::Sender<Pending>,
        picker: &mut Picker,
        poller: &mut Poller,
        poll: &mut PollLog,
        lag_us: &mut Vec<f64>,
        sent: &mut u64,
    ) -> io::Result<Phases> {
        let requests: Vec<String> = self
            .states
            .iter()
            .map(|s| format!("{{\"cmd\":\"route?\",\"state\":\"{s}\"}}\n"))
            .collect();
        let period = Duration::from_secs_f64(1.0 / ROUTE_RPS);
        let start = Instant::now();
        let mut next_poll = start;
        let mut stats_turn = true;
        let mut state = PollState::Idle;
        let mut loaded_until = None;
        let mut idle_from = None;
        // (uptime, steps) of each mid-replay `stats`, for the replay pace.
        let mut pace: Vec<(f64, f64)> = Vec::new();
        let mut idle_sent = 0;
        poller.stream.set_nonblocking(true)?;
        for i in 0u32.. {
            if idle_sent >= IDLE_ROUTES {
                break;
            }
            if start.elapsed() > SESSION_LIMIT {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "the replay never ended"));
            }
            let due = start + period * i;
            loop {
                let now = Instant::now();
                if now >= due {
                    break;
                }
                match state {
                    PollState::Waiting(verb, asked) => {
                        if poller.fill()? {
                            state = PollState::Arrived(verb, asked, asked.elapsed());
                        } else if asked.elapsed() > REPLY_TIMEOUT {
                            return Err(invalid(format!("no reply to {verb}")));
                        } else {
                            std::thread::sleep(POLL_CHECK.min(due - now));
                        }
                    }
                    PollState::Arrived(verb, asked, took) if due - now > PARSE_BUDGET => {
                        let line = poller.take_line(verb)?;
                        if verb == "snapshot" {
                            poll.snapshot_ms.push(millis(took));
                        } else {
                            let (steps, uptime) = self.stats(&line)?;
                            if steps < self.n_steps as f64 {
                                poll.stats_ms.push(millis(took));
                                pace.push((uptime, steps));
                                loaded_until = Some(asked);
                            } else {
                                idle_from.get_or_insert(asked + took);
                            }
                        }
                        state = PollState::Idle;
                    }
                    PollState::Arrived(..) => wait_until(due),
                    PollState::Idle if now >= next_poll => {
                        let verb = if stats_turn { "stats" } else { "snapshot" };
                        stats_turn = !stats_turn;
                        poller.send(verb, poll)?;
                        state = PollState::Waiting(verb, now);
                        next_poll += POLL_EVERY;
                    }
                    PollState::Idle => wait_until(due.min(next_poll)),
                }
            }
            let state_idx = picker.below(self.states.len());
            if due_tx.send((due, state_idx)).is_err() {
                return Err(invalid("the route reader stopped".to_string()));
            }
            let sending = Instant::now();
            routes.write_all(requests[state_idx].as_bytes())?;
            lag_us.push(micros(sending.saturating_duration_since(due)));
            *sent += 1;
            idle_sent += usize::from(idle_from.is_some_and(|from| due >= from));
        }
        poller.stream.set_nonblocking(false)?;
        match state {
            PollState::Waiting(verb, _) | PollState::Arrived(verb, ..) => {
                poller.take_line(verb)?;
            }
            PollState::Idle => {}
        }
        if let (Some(first), Some(last)) = (pace.first(), pace.last()) {
            if last.0 > first.0 {
                poll.steps_per_s = Some((last.1 - first.1) / (last.0 - first.0));
            }
        }
        let idle_from = idle_from.expect("the loop ends only after the replay has");
        Ok(Phases { loaded_until, idle_from })
    }

    /// The generator's second thread: block on `route?` replies, matching
    /// each to the oldest request in flight. Returns the log and each
    /// request's (due time, latency from it in µs).
    fn read_routes(
        &self,
        replies: UnixStream,
        due_rx: mpsc::Receiver<Pending>,
    ) -> (RouteLog, Vec<(Instant, f64)>) {
        let mut log = RouteLog::default();
        let mut latencies = Vec::new();
        let mut reader = BufReader::new(replies);
        let mut line = String::new();
        let mut first_due = None;
        let mut last_reply = None;
        for (due, state) in due_rx {
            first_due.get_or_insert(due);
            line.clear();
            let code = self.states[state];
            let latency = match reader.read_line(&mut line) {
                Ok(n) if n > 0 => {
                    let at = Instant::now();
                    last_reply = Some(at);
                    log.answered += 1;
                    match check_route(line.trim_end(), code, self.n_clusters) {
                        Ok(()) => micros(at.saturating_duration_since(due)),
                        Err(e) => {
                            log.errors.push(e);
                            f64::INFINITY
                        }
                    }
                }
                Ok(_) => {
                    log.errors.push(format!("no reply to route? {code}: the daemon hung up"));
                    f64::INFINITY
                }
                Err(e) => {
                    log.errors.push(format!("no reply to route? {code}: {e}"));
                    f64::INFINITY
                }
            };
            latencies.push((due, latency));
        }
        if let (Some(first), Some(last)) = (first_due, last_reply) {
            log.span = last.saturating_duration_since(first);
        }
        log.cpu = thread_cpu();
        (log, latencies)
    }
}

fn check_route(line: &str, state: &str, n_clusters: usize) -> Result<(), String> {
    let reply = JsonValue::parse(line).map_err(|e| format!("route? reply is not JSON: {e}"))?;
    if reply.get("ok").and_then(JsonValue::as_bool) != Some(true) {
        return Err(format!("route? {state} failed: {line}"));
    }
    if reply.get("state").and_then(JsonValue::as_str) != Some(state) {
        return Err(format!("route? {state} was answered for another state: {line}"));
    }
    match reply.get("hits_per_sec") {
        Some(JsonValue::Object(per_cluster))
            if per_cluster.len() == n_clusters
                && per_cluster
                    .values()
                    .all(|v| v.as_f64().is_some_and(|x| x.is_finite() && x >= 0.0)) =>
        {
            Ok(())
        }
        _ => Err(format!("route? {state} has a malformed allocation: {line}")),
    }
}

/// Where the replay was seen running and seen over, from `stats` replies.
struct Phases {
    /// When the last `stats` that found the replay running was sent.
    loaded_until: Option<Instant>,
    /// When the first `stats` reply that found it over arrived.
    idle_from: Instant,
}

/// Where the poller's current exchange stands.
#[derive(Clone, Copy)]
enum PollState {
    /// Nothing in flight.
    Idle,
    /// A request was sent at this instant.
    Waiting(&'static str, Instant),
    /// The request sent at this instant was answered after this long; the
    /// reply is not yet parsed.
    Arrived(&'static str, Instant, Duration),
}

/// The poller's connection, read into its own buffer so it can switch
/// between non-blocking reads (between `route?` sends) and blocking ones.
struct Poller {
    stream: UnixStream,
    buffer: Vec<u8>,
    /// Position of the first newline in `buffer`, once one has arrived.
    line_end: Option<usize>,
    chunk: Vec<u8>,
}

impl Poller {
    fn new(stream: UnixStream) -> Self {
        Self { stream, buffer: Vec::new(), line_end: None, chunk: vec![0; 1 << 16] }
    }

    fn send(&mut self, cmd: &str, poll: &mut PollLog) -> io::Result<()> {
        poll.requests += 1;
        self.stream.write_all(format!("{{\"cmd\":\"{cmd}\"}}\n").as_bytes())
    }

    /// Read what has arrived; whether a whole reply line is now buffered.
    /// Blocks (up to the read timeout) unless the stream is non-blocking.
    fn fill(&mut self) -> io::Result<bool> {
        while self.line_end.is_none() {
            match self.stream.read(&mut self.chunk) {
                Ok(0) => {
                    return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "daemon hung up"))
                }
                Ok(n) => {
                    let old = self.buffer.len();
                    self.buffer.extend_from_slice(&self.chunk[..n]);
                    self.line_end =
                        self.chunk[..n].iter().position(|&b| b == b'\n').map(|i| old + i);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Take the reply to `cmd`, blocking for it unless it is buffered; it
    /// must report `"ok": true`. Replies write their keys in sorted order,
    /// so only `stats` has keys before `ok`, and its parser checks it.
    fn take_line(&mut self, cmd: &str) -> io::Result<String> {
        if !self.fill()? {
            return Err(io::Error::new(io::ErrorKind::TimedOut, format!("no reply to {cmd}")));
        }
        let end = self.line_end.expect("fill found a line");
        let line: Vec<u8> = self.buffer.drain(..=end).collect();
        self.line_end = self.buffer.iter().position(|&b| b == b'\n');
        let line = String::from_utf8_lossy(&line[..end]).into_owned();
        if cmd != "stats" && !line.starts_with("{\"ok\":true") {
            return Err(invalid(format!("{cmd} failed: {line}")));
        }
        Ok(line)
    }

    /// Send `cmd` and block for its reply: (round trip, reply line).
    fn call(&mut self, cmd: &str, poll: &mut PollLog) -> io::Result<(Duration, String)> {
        let asked = Instant::now();
        self.send(cmd, poll)?;
        let line = self.take_line(cmd)?;
        Ok((asked.elapsed(), line))
    }
}

fn shutdown_fresh(socket: &Path) -> io::Result<()> {
    let stream = connect(socket, &AtomicBool::new(false))?;
    (&stream).write_all(b"{\"cmd\":\"shutdown\"}\n")?;
    let mut ack = String::new();
    BufReader::new(&stream).read_line(&mut ack)?;
    Ok(())
}
