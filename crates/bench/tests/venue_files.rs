//! End-to-end tests of the `itspq` CLI's venue files: `generate` and
//! `convert` write JSON or plan text by the `--out` extension, every reading
//! of one venue answers the same query, and a malformed file is an
//! `error:` with exit status 1 under every command, never a panic.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const QUERY: [&str; 6] = [
    "--from",
    "1:1.0,1.0",
    "--to",
    "59:470.0,525.0",
    "--at",
    "12:00",
];

fn itspq(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_itspq"))
        .args(args)
        .output()
        .unwrap()
}

/// Runs `itspq` and returns its stdout; the run must succeed.
fn ok(args: &[&str]) -> String {
    let out = itspq(args);
    assert!(
        out.status.success(),
        "itspq {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

/// A scratch directory of this test binary, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("itspq-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn path(&self, file: &str) -> String {
        self.0.join(file).to_str().unwrap().to_owned()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn generate(out: &str) {
    ok(&["generate", "--floors", "1", "--seed", "7", "--out", out]);
}

/// The length of the query's answer, as `query` prints it.
fn answer(venue: &str) -> String {
    let mut args = vec!["query", venue];
    args.extend(QUERY);
    let out = ok(&args);
    let first = out.lines().next().unwrap();
    let (_, tail) = first.rsplit_once(" (").unwrap();
    tail.split(',').next().unwrap().to_owned()
}

fn read(path: &str) -> String {
    std::fs::read_to_string(Path::new(path)).unwrap()
}

#[test]
fn generate_writes_by_extension_and_every_reading_answers_alike() {
    let dir = Scratch::new("venue-files");
    let (json, plan) = (dir.path("v.json"), dir.path("v.plan"));
    generate(&json);
    generate(&plan);
    assert!(read(&json).starts_with("{\"partitions\":"));
    assert!(read(&plan).starts_with("# itspq plan text\n"));

    // JSON -> JSON is byte-identical.
    let again = dir.path("again.json");
    ok(&["convert", &json, "--out", &again]);
    assert_eq!(read(&again), read(&json));

    // JSON -> plan -> JSON.
    let (via_plan, back) = (dir.path("via.plan"), dir.path("back.json"));
    ok(&["convert", &json, "--out", &via_plan]);
    ok(&["convert", &via_plan, "--out", &back]);

    for venue in [&json, &plan, &back] {
        assert_eq!(answer(venue), "837.6 m", "{venue}");
    }
}

#[test]
fn a_malformed_venue_is_an_error_under_every_command() {
    let dir = Scratch::new("malformed-venue");
    let json = dir.path("v.json");
    generate(&json);
    let text = read(&json);
    // The first value after `marker` (up to the next `,`, `]` or `}`) set
    // to `value`.
    let set_first = |marker: &str, value: &str| {
        let start = text.find(marker).unwrap() + marker.len();
        let len = text[start..].find([',', ']', '}']).unwrap();
        format!("{}{value}{}", &text[..start], &text[start + len..])
    };
    let cases = [
        (
            "side.json",
            set_first("\"sides\":[", "9999"),
            "unknown partition v9999",
        ),
        (
            "leg.json",
            set_first("\"metres\":", "-2.0"),
            "invalid distance -2",
        ),
    ];
    for (name, body, why) in cases {
        let path = dir.path(name);
        std::fs::write(&path, &body).unwrap();
        let mut query = vec!["query", path.as_str()];
        query.extend(QUERY);
        let mut asyn = query.clone();
        asyn.extend(["--method", "asyn"]);
        for args in [
            vec!["stats", path.as_str()],
            vec!["audit", path.as_str()],
            query,
            asyn,
        ] {
            let out = itspq(&args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
            assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
            assert!(stderr.contains(why), "{args:?}: {stderr}");
        }
    }
}

#[test]
fn an_out_of_range_flag_is_an_error_not_a_panic() {
    let dir = Scratch::new("bad-flags");
    let out = dir.path("v.json");
    let venue = dir.path("venue.json");
    generate(&venue);
    let query = |extra: [&'static str; 2]| {
        let mut args = vec!["query", venue.as_str()];
        args.extend(QUERY);
        args.extend(extra);
        args
    };
    let profile = |step: &'static str| {
        vec![
            "profile",
            venue.as_str(),
            "--from",
            "1:1.0,1.0",
            "--to",
            "59:470.0,525.0",
            "--window",
            "10:00-10:05",
            "--step",
            step,
        ]
    };
    let cases: [(Vec<&str>, &str); 16] = [
        (
            vec!["generate", "--floors", "0", "--out", &out],
            "bad --floors",
        ),
        (
            vec!["generate", "--t-size", "3", "--out", &out],
            "bad --t-size 3",
        ),
        (
            vec!["generate", "--t-size", "0", "--out", &out],
            "bad --t-size 0",
        ),
        (
            vec![
                "profile",
                &venue,
                "--from",
                "1:1.0,1.0",
                "--to",
                "59:470.0,525.0",
                "--window",
                "12:00-10:00",
            ],
            "bad --window 12:00-10:00",
        ),
        // `DurationSecs::new` refuses these; they used to be coerced to a
        // zero wait budget.
        (
            query(["--wait", "-5"]),
            "bad --wait -5: duration must be finite and non-negative",
        ),
        (query(["--wait", "NaN"]), "bad --wait NaN"),
        (query(["--wait", "inf"]), "bad --wait inf"),
        (query(["--wait", "soon"]), "bad --wait `soon`"),
        // It used to answer as `--k 1`.
        (query(["--k", "0"]), "bad --k `0`"),
        // These used to answer with ITG/S.
        (query(["--method", "foo"]), "bad --method `foo`"),
        (query(["--metod", "asyn"]), "`query` takes no flag --metod"),
        // These used to run at a 1 s step.
        (
            profile("NaN"),
            "bad --step NaN: duration must be finite and non-negative",
        ),
        (profile("-5"), "bad --step -5"),
        (profile("soon"), "bad --step `soon`"),
        (
            vec!["stats", &venue, "--origin", "3"],
            "`stats` takes no flag --origin",
        ),
        (
            vec!["generate", "--floor", "2", "--out", &out],
            "`generate` takes no flag --floor",
        ),
    ];
    for (args, why) in cases {
        let run = itspq(&args);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(stderr.contains(why), "{args:?}: {stderr}");
    }
    assert!(!Path::new(&out).exists(), "a refused generate wrote {out}");
}

#[test]
fn a_query_that_fails_validation_is_an_error_before_any_engine_runs() {
    let dir = Scratch::new("bad-query");
    let venue = dir.path("venue.json");
    generate(&venue);
    let cases = [
        ("1:NaN,1.0", "59:470.0,525.0", "source position (NaN, 1)"),
        ("1:inf,1.0", "59:470.0,525.0", "source position (inf, 1)"),
        ("1:1.0,1.0", "59:470.0,-inf", "target position (470, -inf)"),
    ];
    for (from, to, why) in cases {
        let ends = ["--from", from, "--to", to];
        let query = |extra: &[&'static str]| {
            [
                &["query", venue.as_str(), "--at", "12:00"][..],
                &ends,
                extra,
            ]
            .concat()
        };
        // Every engine behind `query`, and `profile`.
        for args in [
            query(&[]),
            query(&["--method", "asyn"]),
            query(&["--k", "2"]),
            query(&["--wait", "5"]),
            [
                &["profile", venue.as_str(), "--window", "10:00-10:05"][..],
                &ends,
            ]
            .concat(),
        ] {
            let run = itspq(&args);
            let stderr = String::from_utf8_lossy(&run.stderr);
            assert_eq!(run.status.code(), Some(1), "{args:?}: {stderr}");
            assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
            assert!(stderr.contains(why), "{args:?}: {stderr}");
            assert!(run.stdout.is_empty(), "{args:?} answered anyway");
        }
    }
}
