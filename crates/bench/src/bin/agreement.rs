//! Quantifies the semantic gaps documented in `ARCHITECTURE.md`
//! §"Deviations from the paper" on randomised workloads: how often do the
//! faithful paper algorithms deviate from the corrected variants and from
//! the exhaustive oracle?
//!
//! Usage: `agreement [--cases N]` (default 400; venues are tiny malls so the
//! exponential oracle stays cheap). An unknown argument or a `--cases` value
//! that is not a positive integer prints the usage line and exits with
//! status 2 before any case runs.

use indoor_geom::Point;
use indoor_space::IndoorPoint;
use indoor_synthetic::{build_mall, HoursConfig, MallConfig, ShopHours};
use indoor_time::{TimeOfDay, WALKING_SPEED};
use itspq_core::{
    baselines, validate_path, AsynEngine, ItGraph, ItspqConfig, PathViolation, Query, SynEngine,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

struct Tally {
    cases: usize,
    feasible: usize,
    pruned_longer: usize,
    pruned_missed: usize,
    faithful_missed: usize,
    faithful_invalid: usize,
    engine_missed_vs_oracle: usize,
    engine_longer_vs_oracle: usize,
}

/// The case count: `--cases N` with `N ≥ 1` (the last one given wins),
/// else 400; any other argument, a missing value or a bad one is the error.
fn parse(args: Vec<String>) -> Result<usize, String> {
    let mut cases = 400;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if arg != "--cases" {
            return Err(format!("unknown argument `{arg}`"));
        }
        let value = args.next().ok_or("`--cases` needs a value")?;
        cases = match value.parse() {
            Ok(n) if n > 0 => n,
            _ => {
                return Err(format!(
                    "bad `--cases` value `{value}`: expected a positive integer"
                ))
            }
        };
    }
    Ok(cases)
}

fn main() {
    let cases = itspq_bench::args_or_exit("[--cases N]", parse);

    let mut t = Tally {
        cases,
        feasible: 0,
        pruned_longer: 0,
        pruned_missed: 0,
        faithful_missed: 0,
        faithful_invalid: 0,
        engine_missed_vs_oracle: 0,
        engine_longer_vs_oracle: 0,
    };

    for seed in 0..cases as u64 {
        let hours = ShopHours::sample(&HoursConfig::default().with_seed(seed));
        let space = build_mall(&MallConfig::tiny(), &hours);
        let graph = ItGraph::new(space);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA9EE);

        // Random endpoints and a random time biased towards transitions.
        let pick = |rng: &mut StdRng| -> IndoorPoint {
            let parts = graph.space().partitions();
            loop {
                let p = &parts[rng.random_range(0..parts.len())];
                if let Some(poly) = &p.polygon {
                    let (min, max) = poly.bounding_box();
                    let cand = Point::new(
                        rng.random_range(min.x..=max.x),
                        rng.random_range(min.y..=max.y),
                    );
                    if poly.contains(cand) {
                        return IndoorPoint::new(p.id, cand);
                    }
                }
            }
        };
        let (a, b) = (pick(&mut rng), pick(&mut rng));
        let time = TimeOfDay::from_seconds(f64::from(rng.random_range(0u32..86_400))).unwrap();
        let q = Query::new(a, b, time);

        let cfg_pruned = ItspqConfig::default();
        let cfg_full = ItspqConfig::full_relax();
        let pruned = SynEngine::new(graph.clone(), cfg_pruned).query(&q).path;
        let full = SynEngine::new(graph.clone(), cfg_full).query(&q).path;
        let faithful = AsynEngine::new(graph.clone(), cfg_pruned).query(&q).path;
        let oracle = baselines::exhaustive_shortest(&graph, &q, &cfg_full, 10);

        if oracle.is_some() {
            t.feasible += 1;
        }
        match (&pruned, &full) {
            (Some(p), Some(f)) if p.length > f.length + 1e-6 => t.pruned_longer += 1,
            (None, Some(_)) => t.pruned_missed += 1,
            _ => {}
        }
        match (&faithful, &pruned) {
            (None, Some(_)) => t.faithful_missed += 1,
            (Some(fp), _) => {
                if matches!(
                    validate_path(graph.space(), fp, time, WALKING_SPEED),
                    Err(PathViolation::DoorClosed { .. })
                ) {
                    t.faithful_invalid += 1;
                }
            }
            _ => {}
        }
        match (&full, &oracle) {
            (None, Some(_)) => t.engine_missed_vs_oracle += 1,
            (Some(e), Some(o)) if e.length > o.length + 1e-6 => t.engine_longer_vs_oracle += 1,
            _ => {}
        }
    }

    println!(
        "agreement statistics over {} random (venue, query, time) cases",
        t.cases
    );
    println!(
        "  feasible per oracle:                        {:>5}",
        t.feasible
    );
    println!(
        "  PaperPruned longer than FullRelax:          {:>5}",
        t.pruned_longer
    );
    println!(
        "  PaperPruned missed a FullRelax path:        {:>5}",
        t.pruned_missed
    );
    println!(
        "  ITG/A(Faithful) missed an ITG/S path:       {:>5}",
        t.faithful_missed
    );
    println!(
        "  ITG/A(Faithful) returned an invalid path:   {:>5}",
        t.faithful_invalid
    );
    println!(
        "  engine missed an oracle path (non-FIFO):    {:>5}",
        t.engine_missed_vs_oracle
    );
    println!(
        "  engine longer than oracle (non-FIFO):       {:>5}",
        t.engine_longer_vs_oracle
    );
}

#[cfg(test)]
mod tests {
    use super::parse;

    fn parse_strs(args: &[&str]) -> Result<usize, String> {
        parse(args.iter().map(|a| (*a).to_owned()).collect())
    }

    #[test]
    fn cases_must_be_a_positive_integer() {
        assert_eq!(parse_strs(&[]), Ok(400));
        assert_eq!(parse_strs(&["--cases", "12"]), Ok(12));
        for bad in ["abc", "0", "-3", "1.5", ""] {
            assert_eq!(
                parse_strs(&["--cases", bad]),
                Err(format!(
                    "bad `--cases` value `{bad}`: expected a positive integer"
                )),
            );
        }
        assert_eq!(
            parse_strs(&["--cases"]),
            Err("`--cases` needs a value".to_owned())
        );
        assert_eq!(
            parse_strs(&["--case", "5"]),
            Err("unknown argument `--case`".to_owned())
        );
        assert_eq!(parse_strs(&["12"]), Err("unknown argument `12`".to_owned()));
    }
}
