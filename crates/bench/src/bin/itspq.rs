//! `itspq` — command-line front-end for the ITSPQ library.
//!
//! ```text
//! itspq generate [--floors N] [--t-size N] [--seed N] --out VENUE
//! itspq convert  VENUE --out VENUE
//! itspq stats    VENUE
//! itspq audit    VENUE [--origin PARTITION]
//! itspq query    VENUE --from PID:X,Y --to PID:X,Y --at H:MM
//!                [--method syn|asyn] [--k N] [--wait MINUTES|unlimited]
//! itspq profile  VENUE --from PID:X,Y --to PID:X,Y
//!                --window H:MM-H:MM [--step SECONDS]
//! ```
//!
//! A venue file is JSON (`IndoorSpace`'s serde layout) or plan text
//! (`indoor_space::plan_text`). Reading tells them apart by a leading `{`;
//! `--out` writes JSON to a path ending in `.json` and plan text to any
//! other. Both are rebuilt through `VenueBuilder`, so a malformed file is an
//! error, never a panic.
//!
//! Points are given as a partition id plus floor-local coordinates; use
//! `stats`/`audit` output and the venue file to discover ids (a
//! partition's id is its position in the file).

use std::collections::BTreeMap;
use std::process::ExitCode;

use indoor_geom::Point;
use indoor_space::{IndoorPoint, IndoorSpace, PartitionId};
use indoor_synthetic::{build_mall, HoursConfig, MallConfig, ShopHours};
use indoor_time::{DurationSecs, TimeOfDay};
use itspq_core::waiting::{earliest_arrival, WaitPolicy};
use itspq_core::{
    k_shortest_paths, profile::departure_profile, AsynEngine, ItGraph, ItspqConfig, Query,
    SynEngine,
};

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("run `itspq help` for usage");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return Err("missing command".into());
    };
    let (positional, flags) = split_args(&args[1..]);
    // Each command with the number of positional arguments it takes (its
    // venue file, if any) and the flags it takes; any other is an error.
    let (files, takes, command): (usize, &[&str], Command) = match cmd.as_str() {
        "help" | "--help" | "-h" => (0, &[], |_, _| {
            println!("{USAGE}");
            Ok(())
        }),
        "generate" => (0, &["floors", "t-size", "seed", "out"], |_, flags| {
            generate(flags)
        }),
        "convert" => (1, &["out"], convert),
        "stats" => (1, &[], |positional, _| stats(positional)),
        "audit" => (1, &["origin"], audit_cmd),
        "query" => (1, &["from", "to", "at", "method", "k", "wait"], query_cmd),
        "profile" => (1, &["from", "to", "window", "step"], profile_cmd),
        other => return Err(format!("unknown command `{other}`")),
    };
    if let Some(stray) = positional.get(files) {
        let what = if files == 0 {
            "no file"
        } else {
            "one venue file"
        };
        return Err(format!("`{cmd}` takes {what}, not also `{stray}`"));
    }
    if let Some(flag) = flags.keys().find(|f| !takes.contains(&f.as_str())) {
        return Err(format!("`{cmd}` takes no flag --{flag}"));
    }
    command(&positional, &flags)
}

/// A command's body, given its positional arguments and its flags.
type Command = fn(&[String], &BTreeMap<String, String>) -> Result<(), String>;

const USAGE: &str = "\
itspq — temporal-variation aware indoor shortest paths (ICDE 2020 reproduction)

  itspq generate [--floors N] [--t-size N] [--seed N] --out VENUE
  itspq convert  VENUE --out VENUE
  itspq stats    VENUE
  itspq audit    VENUE [--origin PARTITION]
  itspq query    VENUE --from PID:X,Y --to PID:X,Y --at H:MM
                 [--method syn|asyn] [--k N] [--wait MINUTES|unlimited]
  itspq profile  VENUE --from PID:X,Y --to PID:X,Y --window H:MM-H:MM
                 [--step SECONDS]

VENUE is a JSON file or plan text; --out writes JSON to a path ending in
.json and plan text to any other.";

fn split_args(rest: &[String]) -> (Vec<String>, BTreeMap<String, String>) {
    let mut positional = Vec::new();
    let mut flags = BTreeMap::new();
    let mut it = rest.iter().peekable();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            let value = it
                .peek()
                .filter(|v| !v.starts_with("--"))
                .map(|v| (*v).clone())
                .unwrap_or_default();
            if !value.is_empty() {
                it.next();
            }
            flags.insert(name.to_owned(), value);
        } else {
            positional.push(a.clone());
        }
    }
    (positional, flags)
}

/// Loads a venue from JSON or plan text (sniffed by the leading character).
fn load_space(positional: &[String]) -> Result<IndoorSpace, String> {
    let path = positional.first().ok_or("missing venue file")?;
    let data = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    if data.trim_start().starts_with('{') {
        serde_json::from_str(&data).map_err(|e| format!("parse {path}: {e}"))
    } else {
        indoor_space::plan_text::parse(&data).map_err(|e| format!("parse {path}: {e}"))
    }
}

/// Writes a venue to `out`: JSON for a path ending in `.json`, plan text
/// otherwise.
fn write_space(space: &IndoorSpace, out: &str) -> Result<(), String> {
    let text = if out.ends_with(".json") {
        serde_json::to_string(space).map_err(|e| e.to_string())?
    } else {
        indoor_space::plan_text::to_plan_text(space)
    };
    std::fs::write(out, text).map_err(|e| format!("write {out}: {e}"))?;
    println!("wrote {out}");
    Ok(())
}

fn convert(positional: &[String], flags: &BTreeMap<String, String>) -> Result<(), String> {
    let out = flags.get("out").ok_or("missing --out")?;
    let space = load_space(positional)?;
    println!("{}", space.stats());
    write_space(&space, out)
}

fn parse_time(s: &str) -> Result<TimeOfDay, String> {
    let parts: Vec<&str> = s.split(':').collect();
    let err = || format!("bad time `{s}` (expected H:MM)");
    match parts.as_slice() {
        [h, m] => {
            let h: u32 = h.parse().map_err(|_| err())?;
            let m: u32 = m.parse().map_err(|_| err())?;
            if h > 23 || m > 59 {
                return Err(err());
            }
            Ok(TimeOfDay::hm(h, m))
        }
        _ => Err(err()),
    }
}

fn parse_point(space: &IndoorSpace, s: &str) -> Result<IndoorPoint, String> {
    let err = || format!("bad point `{s}` (expected PID:X,Y, e.g. 13:4.5,2.0)");
    let (pid, xy) = s.split_once(':').ok_or_else(err)?;
    let (x, y) = xy.split_once(',').ok_or_else(err)?;
    let pid: u32 = pid.parse().map_err(|_| err())?;
    if pid as usize >= space.num_partitions() {
        return Err(format!("partition v{pid} does not exist"));
    }
    Ok(IndoorPoint::new(
        PartitionId(pid),
        Point::new(x.parse().map_err(|_| err())?, y.parse().map_err(|_| err())?),
    ))
}

fn generate(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let floors: u16 = flags
        .get("floors")
        .map_or(Ok(5), |v| v.parse())
        .map_err(|_| "bad --floors")?;
    if floors == 0 {
        return Err("bad --floors: a venue needs at least one floor".into());
    }
    let t_size: usize = flags
        .get("t-size")
        .map_or(Ok(8), |v| v.parse())
        .map_err(|_| "bad --t-size")?;
    let seed: u64 = flags
        .get("seed")
        .map_or(Ok(0x5EED), |v| v.parse())
        .map_err(|_| "bad --seed")?;
    let out = flags.get("out").ok_or("missing --out")?;
    let hours_cfg = HoursConfig::default().with_t_size(t_size).with_seed(seed);
    if !hours_cfg.t_size_is_valid() {
        return Err(format!(
            "bad --t-size {t_size}: |T| must be even and between 2 and {}",
            HoursConfig::MAX_T_SIZE
        ));
    }
    let hours = ShopHours::sample(&hours_cfg);
    let space = build_mall(&MallConfig::paper_default().with_floors(floors), &hours);
    println!("{}", space.stats());
    write_space(&space, out)
}

fn stats(positional: &[String]) -> Result<(), String> {
    let space = load_space(positional)?;
    println!("{}", space.stats());
    println!("checkpoints: {}", space.checkpoints());
    println!("model bytes: {}", space.heap_bytes());
    Ok(())
}

fn audit_cmd(positional: &[String], flags: &BTreeMap<String, String>) -> Result<(), String> {
    let space = load_space(positional)?;
    let origin: u32 = flags
        .get("origin")
        .map_or(Ok(0), |v| v.parse())
        .map_err(|_| "bad --origin")?;
    if origin as usize >= space.num_partitions() {
        return Err(format!("partition v{origin} does not exist"));
    }
    let report = indoor_space::audit::audit(&space, PartitionId(origin));
    println!("{report}");
    Ok(())
}

/// `--wait`: `unlimited`, or a budget in minutes that `DurationSecs::new`
/// accepts (finite and not negative).
fn parse_wait(w: &str) -> Result<WaitPolicy, String> {
    if w == "unlimited" {
        return Ok(WaitPolicy::Unlimited);
    }
    let mins: f64 = w
        .parse()
        .map_err(|_| format!("bad --wait `{w}` (expected MINUTES or unlimited)"))?;
    DurationSecs::new(mins * 60.0)
        .map(WaitPolicy::UpTo)
        .map_err(|e| format!("bad --wait {w}: {e}"))
}

fn query_cmd(positional: &[String], flags: &BTreeMap<String, String>) -> Result<(), String> {
    let space = load_space(positional)?;
    let from = parse_point(&space, flags.get("from").ok_or("missing --from")?)?;
    let to = parse_point(&space, flags.get("to").ok_or("missing --to")?)?;
    let at = parse_time(flags.get("at").ok_or("missing --at")?)?;
    let q = Query::new(from, to, at);
    q.validate(&space).map_err(|e| e.to_string())?;
    let asyn = match flags.get("method").map(String::as_str) {
        None | Some("syn") => false,
        Some("asyn") => true,
        Some(m) => return Err(format!("bad --method `{m}` (expected syn or asyn)")),
    };
    let wait = flags.get("wait").map(|w| parse_wait(w)).transpose()?;
    let k: usize = match flags.get("k") {
        None => 1,
        Some(v) => v
            .parse()
            .ok()
            .filter(|&k| k > 0)
            .ok_or_else(|| format!("bad --k `{v}` (expected a positive integer)"))?,
    };
    let graph = ItGraph::new(space);
    let config = ItspqConfig::default();

    if let Some(policy) = wait {
        match earliest_arrival(&graph, &q, &config, policy) {
            Some(tp) => println!(
                "earliest arrival {} after {:.1} m walk and {} waiting",
                tp.arrival, tp.walking_distance, tp.total_wait
            ),
            None => println!("no such routes (even with waiting)"),
        }
        return Ok(());
    }

    if k > 1 {
        let paths = k_shortest_paths(&graph, &q, &ItspqConfig::full_relax(), k);
        if paths.is_empty() {
            println!("no such routes");
        }
        for (i, p) in paths.iter().enumerate() {
            println!(
                "#{}: {:.1} m  {}",
                i + 1,
                p.length,
                p.format_with(graph.space())
            );
        }
        return Ok(());
    }

    let result = if asyn {
        AsynEngine::new(graph.clone(), config).query(&q)
    } else {
        SynEngine::new(graph.clone(), config).query(&q)
    };
    match result.path {
        Some(p) => {
            println!(
                "{} ({:.1} m, arrive {})",
                p.format_with(graph.space()),
                p.length,
                p.arrival
            );
            for hop in &p.hops {
                println!(
                    "  {:>7.1} m  {}  at {}",
                    hop.distance,
                    graph.space().door(hop.door).name,
                    hop.arrival
                );
            }
        }
        None => println!("no such routes"),
    }
    println!("stats: {}", result.stats);
    Ok(())
}

fn profile_cmd(positional: &[String], flags: &BTreeMap<String, String>) -> Result<(), String> {
    let space = load_space(positional)?;
    let from = parse_point(&space, flags.get("from").ok_or("missing --from")?)?;
    let to = parse_point(&space, flags.get("to").ok_or("missing --to")?)?;
    let window = flags.get("window").ok_or("missing --window")?;
    let (a, b) = window.split_once('-').ok_or("bad --window (H:MM-H:MM)")?;
    let (wa, wb) = (parse_time(a)?, parse_time(b)?);
    if wb < wa {
        return Err(format!("bad --window {window}: it ends before it starts"));
    }
    Query::new(from, to, wa)
        .validate(&space)
        .map_err(|e| e.to_string())?;
    // `DurationSecs::new` refuses NaN, infinite and negative steps.
    let step = flags.get("step").map_or("60", String::as_str);
    let step = step
        .parse()
        .map_err(|_| format!("bad --step `{step}` (expected SECONDS)"))
        .and_then(|s| DurationSecs::new(s).map_err(|e| format!("bad --step {step}: {e}")))?;
    let graph = ItGraph::new(space);
    let profile = departure_profile(&graph, from, to, wa, wb, step, &ItspqConfig::default());
    for p in &profile.points {
        match p.length {
            Some(l) => println!("{:>8}  {l:>9.1} m", p.departure.to_string()),
            None => println!("{:>8}  no route", p.departure.to_string()),
        }
    }
    if let Some(best) = profile.best() {
        println!(
            "best departure: {} ({:.1} m)",
            best.departure,
            best.length.unwrap_or(f64::NAN)
        );
    }
    Ok(())
}
