//! The golden gate: every fixture in `crates/bench/golden/` is reproduced
//! by the binary that wrote it, run here as a child process with no
//! arguments.
//!
//! * Figure stdout must match its `figNN_stdout.txt` byte for byte.
//! * JSON fixtures compare structurally: numbers within [`REL_TOLERANCE`],
//!   everything else exactly. `sweep_smoke.json` and
//!   `bandwidth_smoke.json` are decoded as a [`SweepReport`] and re-encoded
//!   first, so a fixture the decoder no longer reads fails too.
//!
//! A fixture is its producer's stdout, so re-blessing one after an
//! intentional change is
//! `cargo run --release -p wattroute_bench --bin NAME > crates/bench/golden/FILE`;
//! every failure message prints that command.
//!
//! Each child's `WATTROUTE_TELEMETRY` is set explicitly: every producer
//! runs with it removed, and `sweep_smoke` and `mc_smoke` run once more
//! with it on, since instrumentation must not move a byte of any fixture.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use wattroute::json::JsonValue;
use wattroute::sweep::SweepReport;
use wattroute_obs::TELEMETRY_ENV;

/// Relative tolerance on JSON numbers, with an absolute floor of 1.0 times
/// it. The producers are deterministic, but costs flow through `powf` and
/// trig whose last few ulps may differ across libm implementations (glibc
/// versions, macOS, non-x86 hosts); a change that moves results moves
/// numbers by far more than this.
const REL_TOLERANCE: f64 = 1e-9;

/// How a producer's stdout is compared with its fixture.
enum Compare {
    /// Byte for byte.
    Stdout,
    /// As JSON, the fixture decoded as a [`SweepReport`] and re-encoded.
    SweepReport,
    /// As JSON.
    Json,
}

/// A binary and the fixture its stdout must reproduce.
struct Producer {
    bin: &'static str,
    exe: &'static str,
    fixture: &'static str,
    compare: Compare,
}

/// Declares [`PRODUCERS`] and one telemetry-off `#[test]` per producer,
/// named after its binary, so no table entry goes untested.
macro_rules! producers {
    ($($bin:ident => $fixture:literal as $compare:ident;)*) => {
        const PRODUCERS: &[Producer] = &[$(Producer {
            bin: stringify!($bin),
            exe: env!(concat!("CARGO_BIN_EXE_", stringify!($bin))),
            fixture: $fixture,
            compare: Compare::$compare,
        }),*];

        $(
            #[test]
            fn $bin() {
                check(stringify!($bin), Telemetry::Off);
            }
        )*
    };
}

producers! {
    sweep_smoke => "sweep_smoke.json" as SweepReport;
    bandwidth_smoke => "bandwidth_smoke.json" as SweepReport;
    mc_smoke => "mc_smoke.json" as Json;
    optimize_smoke => "optimize_smoke.json" as Json;
    fig15_elasticity_savings => "fig15_stdout.txt" as Stdout;
    fig16_cost_vs_distance_24d => "fig16_stdout.txt" as Stdout;
    fig17_distance_vs_threshold => "fig17_stdout.txt" as Stdout;
    fig18_cost_vs_distance_39m => "fig18_stdout.txt" as Stdout;
    fig19_per_cluster => "fig19_stdout.txt" as Stdout;
    fig20_reaction_delay => "fig20_stdout.txt" as Stdout;
}

#[test]
fn sweep_smoke_with_telemetry_on() {
    check("sweep_smoke", Telemetry::On);
}

#[test]
fn mc_smoke_with_telemetry_on() {
    check("mc_smoke", Telemetry::On);
}

/// A child's `WATTROUTE_TELEMETRY`: removed, or set to `1`.
enum Telemetry {
    Off,
    On,
}

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("golden")
}

/// Runs `bin` and panics with the first difference between its stdout
/// and its fixture.
fn check(bin: &str, telemetry: Telemetry) {
    let producer = PRODUCERS.iter().find(|p| p.bin == bin).expect("a producer in the table");
    let mut command = Command::new(producer.exe);
    let run = match telemetry {
        Telemetry::Off => {
            command.env_remove(TELEMETRY_ENV);
            bin.to_string()
        }
        Telemetry::On => {
            command.env(TELEMETRY_ENV, "1");
            format!("{bin} with {TELEMETRY_ENV}=1")
        }
    };
    let output = command.output().unwrap_or_else(|e| panic!("cannot run {run}: {e}"));
    assert!(
        output.status.success(),
        "{run} failed with {}; its stderr:\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let got = String::from_utf8(output.stdout).expect("stdout is UTF-8");
    let path = golden_dir().join(producer.fixture);
    let want =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path:?}: {e}"));

    let difference = match producer.compare {
        Compare::Stdout => first_differing_line(&got, &want),
        Compare::SweepReport => {
            let golden = SweepReport::from_json(want.trim())
                .unwrap_or_else(|e| panic!("{} is not a SweepReport: {e}", producer.fixture));
            first_json_difference(&parse(bin, &got), &golden.to_json_value())
        }
        Compare::Json => first_json_difference(&parse(bin, &got), &parse(producer.fixture, &want)),
    };
    if let Some(difference) = difference {
        panic!(
            "{run} no longer reproduces golden/{}: {difference}\n\
             If the change is intentional, re-bless with:\n  \
             cargo run --release -p wattroute_bench --bin {bin} > crates/bench/golden/{}",
            producer.fixture, producer.fixture
        );
    }
}

fn parse(what: &str, text: &str) -> JsonValue {
    JsonValue::parse(text.trim()).unwrap_or_else(|e| panic!("{what} is not JSON: {e}"))
}

/// The first line at which `got` and `want` differ, or `None` when they
/// are the same bytes.
fn first_differing_line(got: &str, want: &str) -> Option<String> {
    if got == want {
        return None;
    }
    let (mut got_lines, mut want_lines) = (got.split('\n'), want.split('\n'));
    (1..).find_map(|line| {
        let (g, w) = (got_lines.next(), want_lines.next());
        (g != w).then(|| {
            let show = |l: Option<&str>| l.map_or("no line".to_string(), |l| format!("{l:?}"));
            format!("line {line}: {} vs golden {}", show(g), show(w))
        })
    })
}

/// The first JSON path at which `got` and `want` differ, with the two
/// values there, or `None` when they match: numbers within
/// [`REL_TOLERANCE`] of the larger magnitude (at least 1.0), everything
/// else exactly.
fn first_json_difference(got: &JsonValue, want: &JsonValue) -> Option<String> {
    difference_at(got, want).map(|(path, detail)| format!("${path}: {detail}"))
}

/// [`first_json_difference`] as a path relative to `got` and `want`.
fn difference_at(got: &JsonValue, want: &JsonValue) -> Option<(String, String)> {
    let nested = |prefix: String, (path, detail): (String, String)| (prefix + &path, detail);
    match (got, want) {
        (JsonValue::Number(x), JsonValue::Number(y)) => {
            let close = x == y || (x - y).abs() <= REL_TOLERANCE * x.abs().max(y.abs()).max(1.0);
            (!close).then(|| (String::new(), format!("{x} vs golden {y}")))
        }
        (JsonValue::Array(xs), JsonValue::Array(ys)) if xs.len() != ys.len() => {
            Some((String::new(), format!("{} elements vs golden {}", xs.len(), ys.len())))
        }
        (JsonValue::Array(xs), JsonValue::Array(ys)) => xs
            .iter()
            .zip(ys)
            .enumerate()
            .find_map(|(i, (x, y))| difference_at(x, y).map(|d| nested(format!("[{i}]"), d))),
        (JsonValue::Object(xs), JsonValue::Object(ys)) => {
            if let Some(key) = xs.keys().find(|k| !ys.contains_key(*k)) {
                return Some((format!(".{key}"), "present vs golden absent".to_string()));
            }
            if let Some(key) = ys.keys().find(|k| !xs.contains_key(*k)) {
                return Some((format!(".{key}"), "absent vs golden present".to_string()));
            }
            xs.iter().find_map(|(key, x)| {
                difference_at(x, &ys[key]).map(|d| nested(format!(".{key}"), d))
            })
        }
        _ => (got != want).then(|| (String::new(), format!("{got} vs golden {want}"))),
    }
}

#[test]
fn every_fixture_has_a_producer() {
    // `golden/examples/` holds the stdout of the `wattroute` examples,
    // which this crate's tests cannot name: the examples loop in CI's
    // release-gates job diffs those.
    let on_disk: BTreeSet<String> = std::fs::read_dir(golden_dir())
        .expect("golden/ is readable")
        .map(|entry| entry.expect("a directory entry").file_name())
        .map(|name| name.into_string().expect("a UTF-8 file name"))
        .filter(|name| name != "examples")
        .collect();
    let checked: BTreeSet<String> = PRODUCERS.iter().map(|p| p.fixture.to_string()).collect();
    assert_eq!(
        on_disk, checked,
        "golden/'s files and the producer table must name the same fixtures"
    );
}

#[test]
fn comparator_holds_numbers_to_one_part_in_a_billion_and_the_rest_exactly() {
    let json = |text: &str| JsonValue::parse(text).expect("test JSON parses");
    let diff = |got: &str, want: &str| first_json_difference(&json(got), &json(want));
    let want = r#"{"runs":[{"cost":1000,"label":"a","ok":true}],"n":2}"#;
    assert_eq!(diff(want, want), None);

    // 1e-10 relative passes, 1e-8 fails, and the message names the path.
    assert_eq!(diff(r#"{"runs":[{"cost":1000.0000001,"label":"a","ok":true}],"n":2}"#, want), None);
    assert_eq!(
        diff(r#"{"runs":[{"cost":1000.00001,"label":"a","ok":true}],"n":2}"#, want).as_deref(),
        Some("$.runs[0].cost: 1000.00001 vs golden 1000")
    );
    // The tolerance has an absolute floor of 1.0 × 1e-9.
    assert_eq!(diff("0.0", "1e-10"), None);
    assert_eq!(diff("0.0", "1e-8").as_deref(), Some("$: 0 vs golden 0.00000001"));

    // Key sets, array lengths, strings and bools compare exactly.
    assert_eq!(
        diff(r#"{"runs":[{"cost":1000,"label":"a","ok":true}],"m":2}"#, want).as_deref(),
        Some("$.m: present vs golden absent")
    );
    assert_eq!(
        diff(r#"{"runs":[{"cost":1000,"label":"a","ok":true}]}"#, want).as_deref(),
        Some("$.n: absent vs golden present")
    );
    assert_eq!(
        diff(r#"{"runs":[],"n":2}"#, want).as_deref(),
        Some("$.runs: 0 elements vs golden 1")
    );
    assert_eq!(
        diff(r#"{"runs":[{"cost":1000,"label":"b","ok":true}],"n":2}"#, want).as_deref(),
        Some(r#"$.runs[0].label: "b" vs golden "a""#)
    );
    assert_eq!(
        diff(r#"{"runs":[{"cost":1000,"label":"a","ok":false}],"n":2}"#, want).as_deref(),
        Some("$.runs[0].ok: false vs golden true")
    );
}

#[test]
fn stdout_differences_name_the_first_differing_line() {
    assert_eq!(first_differing_line("a\nb\n", "a\nb\n"), None);
    assert_eq!(
        first_differing_line("a\nb\nc\n", "a\nx\nc\n").as_deref(),
        Some(r#"line 2: "b" vs golden "x""#)
    );
    assert_eq!(
        first_differing_line("a\n", "a\nb\n").as_deref(),
        Some(r#"line 2: "" vs golden "b""#)
    );
    assert_eq!(
        first_differing_line("a\n", "a").as_deref(),
        Some(r#"line 2: "" vs golden no line"#)
    );
}
