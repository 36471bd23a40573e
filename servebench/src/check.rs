//! Answer checks, shared by the untimed verification pass and every timed
//! loop.

use indoor_space::IndoorSpace;
use indoor_time::Velocity;
use itspq_core::{validate_path, BatchStats, Path, Query, QueryError, QueryResult};

/// A query's verified answer: what the server returned on the untimed
/// verification pass, and whether that answer passed every cross-check.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    /// The path the server returned (`None`: no route).
    pub path: Option<Path>,
    /// Whether the answer passed the verification pass.
    pub verified: bool,
}

/// Whether `path` obeys the ITSPQ rules for `query` at `velocity`. "No
/// route" has nothing to violate.
#[must_use]
pub fn valid(space: &IndoorSpace, velocity: Velocity, query: &Query, path: Option<&Path>) -> bool {
    path.is_none_or(|p| validate_path(space, p, query.time, velocity).is_ok())
}

/// The verification-pass verdict on one query. `served` is the answer the
/// workload's own call returned (from a batch, or a single `try_query`),
/// `single` the same server's per-query `try_query` answer and `oracle` the
/// independent ITG/S answer. The query passes when all three are answers,
/// their paths are equal, the path is valid and the batch's books balance.
#[must_use]
pub fn cross_check(
    space: &IndoorSpace,
    velocity: Velocity,
    query: &Query,
    served: &Result<QueryResult, QueryError>,
    single: &Result<QueryResult, QueryError>,
    oracle: &Result<QueryResult, QueryError>,
    books_balance: bool,
) -> Reference {
    match (served, single, oracle) {
        (Ok(s), Ok(p), Ok(o)) => Reference {
            verified: books_balance
                && s.path == p.path
                && s.path == o.path
                && valid(space, velocity, query, s.path.as_ref()),
            path: s.path.clone(),
        },
        _ => Reference {
            path: None,
            verified: false,
        },
    }
}

/// Whether one timed answer passes: it is an answer, not an error, it
/// equals its verified reference, and its path is valid.
#[must_use]
pub fn answer_ok(
    space: &IndoorSpace,
    velocity: Velocity,
    query: &Query,
    got: &Result<QueryResult, QueryError>,
    want: &Reference,
) -> bool {
    match got {
        Ok(r) => {
            want.verified && r.path == want.path && valid(space, velocity, query, r.path.as_ref())
        }
        Err(_) => false,
    }
}

/// Whether a batch report keeps the server's accounting identity and
/// describes the batch that was sent.
#[must_use]
pub fn books_balance(stats: &BatchStats, batch_len: usize) -> bool {
    stats.is_consistent() && stats.queries == batch_len
}

#[cfg(test)]
mod tests {
    use super::*;
    use indoor_space::paper_example;
    use indoor_time::TimeOfDay;
    use itspq_core::{ItGraph, ItspqConfig, SynEngine};

    struct Fixture {
        space: IndoorSpace,
        velocity: Velocity,
        query: Query,
        answer: Result<QueryResult, QueryError>,
    }

    /// The paper's Example 1 at 9:00: a 12 m route through d18.
    fn fixture() -> Fixture {
        let ex = paper_example::build();
        let engine = SynEngine::new(ItGraph::new(ex.space.clone()), ItspqConfig::full_relax());
        let query = Query::new(ex.p3, ex.p4, TimeOfDay::hm(9, 0));
        let answer = engine.try_query(&query);
        assert!(answer.as_ref().is_ok_and(|r| r.path.is_some()));
        Fixture {
            space: ex.space,
            velocity: engine.config().velocity,
            query,
            answer,
        }
    }

    fn reference(f: &Fixture) -> Reference {
        cross_check(
            &f.space, f.velocity, &f.query, &f.answer, &f.answer, &f.answer, true,
        )
    }

    #[test]
    fn a_correct_answer_passes() {
        let f = fixture();
        let want = reference(&f);
        assert!(want.verified);
        assert!(answer_ok(&f.space, f.velocity, &f.query, &f.answer, &want));
    }

    #[test]
    fn a_wrong_length_fails() {
        let f = fixture();
        let want = reference(&f);
        let mut wrong = f.answer.clone();
        if let Ok(QueryResult { path: Some(p), .. }) = &mut wrong {
            p.length += 1.0;
        }
        assert!(!answer_ok(&f.space, f.velocity, &f.query, &wrong, &want));
    }

    #[test]
    fn a_dropped_route_and_an_error_fail() {
        let f = fixture();
        let want = reference(&f);
        let mut none = f.answer.clone();
        if let Ok(r) = &mut none {
            r.path = None;
        }
        assert!(!answer_ok(&f.space, f.velocity, &f.query, &none, &want));
        let err = Err(QueryError::UnknownPartition {
            endpoint: "source",
            index: 999,
            num_partitions: 1,
        });
        assert!(!answer_ok(&f.space, f.velocity, &f.query, &err, &want));
    }

    #[test]
    fn an_invalid_path_fails_even_when_it_matches_the_reference() {
        let f = fixture();
        let mut bad = f.answer.clone();
        if let Ok(QueryResult { path: Some(p), .. }) = &mut bad {
            p.length += 1.0;
        }
        // Reference and answer agree, but the path breaks its own books.
        let want = Reference {
            path: bad.as_ref().ok().and_then(|r| r.path.clone()),
            verified: true,
        };
        assert!(!answer_ok(&f.space, f.velocity, &f.query, &bad, &want));
    }

    #[test]
    fn cross_check_rejects_disagreement_and_unbalanced_books() {
        let f = fixture();
        let mut other = f.answer.clone();
        if let Ok(r) = &mut other {
            r.path = None;
        }
        let (s, v, q, a) = (&f.space, f.velocity, &f.query, &f.answer);
        assert!(!cross_check(s, v, q, a, &other, a, true).verified);
        assert!(!cross_check(s, v, q, a, a, &other, true).verified);
        assert!(!cross_check(s, v, q, a, a, a, false).verified);
        // An answer that failed verification fails every later check too.
        let unverified = cross_check(s, v, q, a, a, a, false);
        assert!(!answer_ok(s, v, q, a, &unverified));
    }

    #[test]
    fn books_must_balance_and_match_the_batch() {
        let ok = BatchStats {
            queries: 4,
            groups: 3,
            shared_queries: 2,
            frontier_reuses: 1,
            ..BatchStats::default()
        };
        assert!(books_balance(&ok, 4));
        assert!(!books_balance(&ok, 5));
        assert!(!books_balance(&BatchStats { groups: 4, ..ok }, 4));
    }
}
