//! Extension: departure-time profiles.
//!
//! "When should I leave?" is the natural follow-up to a single `ITSPQ`
//! query. A profile evaluates `ITSPQ(ps, pt, t)` across a departure window
//! and reports the valid shortest-path length as a (sampled) function of
//! `t`, annotated with the checkpoint structure that drives its shape: the
//! result can only change when some door's state flips during the walk, so
//! sampling is checkpoint-aligned and then refined down to a user-chosen
//! resolution wherever neighbouring samples disagree.

use indoor_time::{DurationSecs, TimeOfDay};

use crate::ord::cmp_opt_len;
use crate::{ItGraph, ItspqConfig, Query, SynEngine};

/// One sampled point of a departure-time profile.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfilePoint {
    /// Departure time probed.
    pub departure: TimeOfDay,
    /// Valid shortest-path length in metres, or `None` for "no such routes".
    pub length: Option<f64>,
}

/// A departure-time profile over a window.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Sampled points in ascending departure order.
    pub points: Vec<ProfilePoint>,
}

impl Profile {
    /// Departure of the best (shortest) answer in the window, if any route
    /// exists at all.
    #[must_use]
    pub fn best(&self) -> Option<&ProfilePoint> {
        self.points
            .iter()
            .filter(|p| p.length.is_some())
            .min_by(|a, b| cmp_opt_len(a.length, b.length))
    }

    /// The sub-windows (as index ranges into `points`) where a route exists.
    #[must_use]
    pub fn feasible_runs(&self) -> Vec<(usize, usize)> {
        let mut runs = Vec::new();
        let mut start: Option<usize> = None;
        for (i, p) in self.points.iter().enumerate() {
            match (p.length.is_some(), start) {
                (true, None) => start = Some(i),
                (false, Some(s)) => {
                    runs.push((s, i - 1));
                    start = None;
                }
                _ => {}
            }
        }
        if let Some(s) = start {
            runs.push((s, self.points.len() - 1));
        }
        runs
    }
}

/// Computes the profile of `ps → pt` for departures in `[from, to]`.
///
/// Samples every checkpoint inside the window plus the window edges, then
/// bisects any neighbouring pair that disagrees (different feasibility or a
/// length jump above 1 mm) until the gap is below `resolution`. A window
/// that ends before it starts holds no departure: its profile is empty.
#[must_use]
pub fn departure_profile(
    graph: &ItGraph,
    source: indoor_space::IndoorPoint,
    target: indoor_space::IndoorPoint,
    from: TimeOfDay,
    to: TimeOfDay,
    resolution: DurationSecs,
    config: &ItspqConfig,
) -> Profile {
    if to < from {
        return Profile { points: Vec::new() };
    }
    let engine = SynEngine::new(graph.clone(), *config);
    let probe = |t: TimeOfDay| -> ProfilePoint {
        let res = engine.query(&Query::new(source, target, t));
        ProfilePoint {
            departure: t,
            length: res.path.map(|p| p.length),
        }
    };

    // Seed with window edges + interior checkpoints.
    let mut times: Vec<TimeOfDay> = vec![from, to];
    for &cp in graph.space().checkpoints().times() {
        if from < cp && cp < to {
            times.push(cp);
        }
    }
    times.sort();
    times.dedup();
    let mut points: Vec<ProfilePoint> = times.into_iter().map(probe).collect();

    // Refine disagreements down to the resolution.
    let differs = |a: &ProfilePoint, b: &ProfilePoint| -> bool {
        match (a.length, b.length) {
            (None, None) => false,
            (Some(x), Some(y)) => (x - y).abs() > 1e-3,
            _ => true,
        }
    };
    let min_gap = resolution.seconds().max(1.0);
    let mut i = 0;
    while i + 1 < points.len() {
        let gap = points[i + 1].departure.seconds() - points[i].departure.seconds();
        if gap > min_gap && differs(&points[i], &points[i + 1]) {
            // The midpoint of two in-day times is in-day; if float noise ever
            // says otherwise, stop refining this gap rather than panic.
            match TimeOfDay::from_seconds(points[i].departure.seconds() + gap / 2.0) {
                Ok(mid) => points.insert(i + 1, probe(mid)),
                Err(_) => i += 1,
            }
            // On success, re-examine the left half next iteration.
        } else {
            i += 1;
        }
    }
    Profile { points }
}

#[cfg(test)]
mod tests {
    use super::*;
    use indoor_space::paper_example;

    #[test]
    fn example1_profile_shows_the_2300_cutoff() {
        let ex = paper_example::build();
        let graph = ItGraph::new(ex.space.clone());
        let profile = departure_profile(
            &graph,
            ex.p3,
            ex.p4,
            TimeOfDay::hm(20, 0),
            TimeOfDay::hms(23, 59, 0),
            DurationSecs::new(30.0).unwrap(),
            &ItspqConfig::default(),
        );
        // Early in the window the 12 m d18 path exists; late it does not.
        assert_eq!(profile.points.first().unwrap().length, Some(12.0));
        assert_eq!(profile.points.last().unwrap().length, None);
        // The feasibility boundary is located near d18's 23:00 closing,
        // shifted earlier by the sub-minute walking time to the door.
        let runs = profile.feasible_runs();
        assert_eq!(runs.len(), 1);
        let (_, last_ok) = runs[0];
        let boundary = profile.points[last_ok].departure;
        assert!(
            boundary >= TimeOfDay::hm(22, 58),
            "boundary {boundary} too early"
        );
        assert!(
            boundary <= TimeOfDay::hm(23, 0),
            "boundary {boundary} too late"
        );
    }

    #[test]
    fn profile_is_sorted_and_within_window() {
        let ex = paper_example::build();
        let graph = ItGraph::new(ex.space.clone());
        let profile = departure_profile(
            &graph,
            ex.p1,
            ex.p2,
            TimeOfDay::hm(6, 0),
            TimeOfDay::hm(10, 0),
            DurationSecs::new(60.0).unwrap(),
            &ItspqConfig::default(),
        );
        assert!(profile.points.len() >= 3);
        for w in profile.points.windows(2) {
            assert!(w[0].departure < w[1].departure);
        }
        assert_eq!(
            profile.points.first().unwrap().departure,
            TimeOfDay::hm(6, 0)
        );
        assert_eq!(
            profile.points.last().unwrap().departure,
            TimeOfDay::hm(10, 0)
        );
    }

    #[test]
    fn best_picks_the_shortest_feasible_departure() {
        let ex = paper_example::build();
        let graph = ItGraph::new(ex.space.clone());
        // Across the whole day the p3→p4 optimum is the 10 m shortcut? No —
        // v15 is private at every hour, so the best stays the 12 m d18 path.
        let profile = departure_profile(
            &graph,
            ex.p3,
            ex.p4,
            TimeOfDay::hm(0, 0),
            TimeOfDay::hm(23, 0),
            DurationSecs::new(300.0).unwrap(),
            &ItspqConfig::default(),
        );
        let best = profile.best().expect("routes exist during the day");
        assert_eq!(best.length, Some(12.0));
    }

    #[test]
    fn infeasible_window_has_no_best() {
        let ex = paper_example::build();
        let graph = ItGraph::new(ex.space.clone());
        let profile = departure_profile(
            &graph,
            ex.p3,
            ex.p4,
            TimeOfDay::hm(23, 30),
            TimeOfDay::hm(23, 45),
            DurationSecs::new(60.0).unwrap(),
            &ItspqConfig::default(),
        );
        assert!(profile.best().is_none());
        assert!(profile.feasible_runs().is_empty());
    }
}
