//! Search statistics and memory accounting.

use serde::{Deserialize, Serialize};

/// Counters collected during one ITSPQ search.
///
/// The byte figures implement the paper's *memory cost* metric (Figure 7):
/// they account for the search state (distance/predecessor/visited arrays,
/// priority queue at its peak) and, for ITG/A, for the reduced graphs built or
/// consulted during the query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchStats {
    /// Doors (or the target) pushed into the priority queue.
    pub heap_pushes: usize,
    /// Entries removed from the priority queue (including stale ones).
    pub heap_pops: usize,
    /// Largest number of simultaneous queue entries.
    pub peak_heap: usize,
    /// Doors settled (deheaped with final distance).
    pub doors_settled: usize,
    /// Partitions expanded.
    pub partitions_expanded: usize,
    /// Attempted door relaxations (lines 26–34 of Algorithm 1): unsettled
    /// doors of an expanded partition's door list with a leg to them. ITG/A-Exact walks only
    /// the open doors of an expansion its guard vouches for, so it can count
    /// fewer than ITG/S for the same answer.
    pub relaxations: usize,
    /// Relaxations that improved a door's tentative distance.
    pub improvements: usize,
    /// `TV_Check` invocations: one per relaxation, except in the expansions
    /// ITG/A-Exact's guard vouches for, whose doors are open by
    /// construction of the interval's reduced graph.
    pub tv_checks: usize,
    /// `TV_Check` failures (doors rejected for being closed at arrival).
    pub tv_rejections: usize,
    /// ITG/A: graph refreshes triggered by arrivals past the next checkpoint.
    pub graph_updates: usize,
    /// ITG/A: reduced graphs actually (re)built (cache misses).
    pub views_built: usize,
    /// Estimated bytes of transient search state, in the paper's memory
    /// model: a map entry per door the search reached, the priority queue
    /// at its peak and the door-list buffer. It is not the bytes the
    /// search allocated: the dense label arrays a thread reuses across
    /// searches are not counted.
    pub search_bytes: usize,
    /// ITG/A: bytes of the reduced graphs consulted by this query.
    pub reduced_graph_bytes: usize,
}

impl SearchStats {
    /// Total estimated working-set bytes of the query (search state plus
    /// reduced graphs), the quantity plotted in the paper's Figure 7.
    #[must_use]
    pub fn estimated_bytes(&self) -> usize {
        self.search_bytes + self.reduced_graph_bytes
    }

    /// Same figure in kilobytes.
    #[must_use]
    pub fn estimated_kb(&self) -> f64 {
        self.estimated_bytes() as f64 / 1024.0
    }

    /// Folds another search's counters into this one (sums, except
    /// `peak_heap` which takes the maximum) — used when one logical request
    /// spans several physical searches.
    pub fn merge(&mut self, other: &SearchStats) {
        self.heap_pushes += other.heap_pushes;
        self.heap_pops += other.heap_pops;
        self.peak_heap = self.peak_heap.max(other.peak_heap);
        self.doors_settled += other.doors_settled;
        self.partitions_expanded += other.partitions_expanded;
        self.relaxations += other.relaxations;
        self.improvements += other.improvements;
        self.tv_checks += other.tv_checks;
        self.tv_rejections += other.tv_rejections;
        self.graph_updates += other.graph_updates;
        self.views_built += other.views_built;
        self.search_bytes += other.search_bytes;
        self.reduced_graph_bytes += other.reduced_graph_bytes;
    }
}

impl std::fmt::Display for SearchStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "settled {} doors / {} partitions, {} relax ({} improved), \
             {} tv-checks ({} rejected), {} graph updates, ~{:.1} KB",
            self.doors_settled,
            self.partitions_expanded,
            self.relaxations,
            self.improvements,
            self.tv_checks,
            self.tv_rejections,
            self.graph_updates,
            self.estimated_kb(),
        )
    }
}

/// How a [`crate::VenueServer`] executed one batch: the planner's grouping
/// outcome and the work the shared frontiers saved.
///
/// `groups / queries` is the sharing ratio — 1.0 means no sharing happened
/// (every group was a singleton or fell back); the lower the ratio, the more
/// searches were amortised.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchStats {
    /// Queries in the batch (malformed ones included).
    pub queries: usize,
    /// Physical searches executed: shared groups plus per-query searches.
    /// Equal to `queries - rejected` when nothing groups, as under
    /// `PaperPruned` expansion.
    pub groups: usize,
    /// Queries answered by a shared (≥ 2 member) group frontier.
    pub shared_queries: usize,
    /// Frontier reuses: query answers that did *not* pay their own search
    /// (`queries - groups`, counting malformed queries as zero-cost).
    pub frontier_reuses: usize,
    /// Queries rejected by validation before any search ran.
    pub rejected: usize,
    /// ITG/A reduced views actually built over the whole batch.
    pub views_built: usize,
    /// Always 0. Shared groups are keyed by source point, so no member is
    /// derived from a search that started elsewhere; the field stays
    /// because the serving benchmark (`servebench`) reads it.
    pub replayed: usize,
    /// Members at the lead's source point departing later in the same
    /// checkpoint interval, answered without a search of their own: the
    /// lead's path retimed, for a target in the source's partition or under
    /// the margin certificate.
    pub retimed: usize,
    /// Group members departing later than the lead whose retime the margin
    /// certificate refused, answered by their own per-query search instead
    /// (also counted in `groups`, subtracted from
    /// `shared_queries`/`frontier_reuses`).
    pub fallbacks: usize,
    /// Monotonic nanoseconds spent planning the batch (grouping + keying).
    #[serde(default)]
    pub plan_nanos: u64,
    /// Monotonic nanoseconds spent in physical searches (summed across
    /// workers, so > wall-clock when workers overlap).
    #[serde(default)]
    pub search_nanos: u64,
    /// Monotonic nanoseconds spent scattering group answers to members
    /// (verbatim copies, derivations and certificate-failure fallback
    /// searches; summed across workers).
    #[serde(default)]
    pub scatter_nanos: u64,
}

impl BatchStats {
    /// Physical searches per query (1.0 = no sharing; lower is better).
    #[must_use]
    pub fn sharing_ratio(&self) -> f64 {
        if self.queries == 0 {
            1.0
        } else {
            self.groups as f64 / self.queries as f64
        }
    }

    /// The execution-level accounting identity every batch satisfies: each
    /// non-rejected query either paid a physical search or reused a shared
    /// frontier — `groups + frontier_reuses == queries - rejected`. The
    /// fields are public and deserialisable, so the check is total: a
    /// malformed report whose sums over- or underflow is inconsistent, not
    /// a panic.
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        let Some(accepted) = self.queries.checked_sub(self.rejected) else {
            return false;
        };
        self.groups.checked_add(self.frontier_reuses) == Some(accepted)
            && self
                .replayed
                .checked_add(self.retimed)
                .is_some_and(|derived| derived <= self.frontier_reuses)
            && self.shared_queries <= accepted
    }

    /// A copy with the phase timings zeroed: the deterministic part of the
    /// report. Everything else is a pure sum over plan items, so two runs of
    /// the same batch — any worker count, any scheduling — compare equal
    /// here while the raw struct differs in measured nanoseconds.
    #[must_use]
    pub fn timings_zeroed(&self) -> BatchStats {
        BatchStats {
            plan_nanos: 0,
            search_nanos: 0,
            scatter_nanos: 0,
            ..*self
        }
    }
}

impl std::fmt::Display for BatchStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} queries in {} searches (ratio {:.2}, {} shared, {} reuses \
             [{} replayed, {} retimed], {} fallbacks, {} rejected)",
            self.queries,
            self.groups,
            self.sharing_ratio(),
            self.shared_queries,
            self.frontier_reuses,
            self.replayed,
            self.retimed,
            self.fallbacks,
            self.rejected,
        )?;
        if (self.plan_nanos, self.search_nanos, self.scatter_nanos) != (0, 0, 0) {
            write!(
                f,
                ", phases plan {:.2}ms / search {:.2}ms / scatter {:.2}ms",
                self.plan_nanos as f64 / 1e6,
                self.search_nanos as f64 / 1e6,
                self.scatter_nanos as f64 / 1e6,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_counters_and_maxes_peak() {
        let mut a = SearchStats {
            heap_pushes: 3,
            peak_heap: 5,
            search_bytes: 100,
            ..SearchStats::default()
        };
        let b = SearchStats {
            heap_pushes: 4,
            peak_heap: 2,
            search_bytes: 50,
            ..SearchStats::default()
        };
        a.merge(&b);
        assert_eq!(a.heap_pushes, 7);
        assert_eq!(a.peak_heap, 5);
        assert_eq!(a.search_bytes, 150);
    }

    #[test]
    fn sharing_ratio_counts_searches_per_query() {
        let s = BatchStats {
            queries: 8,
            groups: 2,
            shared_queries: 8,
            frontier_reuses: 6,
            ..BatchStats::default()
        };
        assert!((s.sharing_ratio() - 0.25).abs() < 1e-12);
        assert!(s.to_string().contains("ratio 0.25"));
        // An empty batch shares nothing.
        assert!((BatchStats::default().sharing_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn consistency_identity_checks_books() {
        let ok = BatchStats {
            queries: 10,
            groups: 5,
            shared_queries: 7,
            frontier_reuses: 4,
            rejected: 1,
            replayed: 2,
            retimed: 1,
            ..BatchStats::default()
        };
        assert!(ok.is_consistent());
        // A lost fallback adjustment breaks the identity.
        let bad = BatchStats { groups: 6, ..ok };
        assert!(!bad.is_consistent());
        // Derived answers are a subset of the reuses.
        assert!(!BatchStats { replayed: 4, ..ok }.is_consistent());
        // More rejections than queries (a malformed report) is inconsistent,
        // not an arithmetic overflow.
        let underflow = BatchStats {
            queries: 0,
            rejected: 1,
            ..BatchStats::default()
        };
        assert!(!underflow.is_consistent());
        let overflow = BatchStats {
            groups: usize::MAX,
            replayed: usize::MAX,
            retimed: 1,
            ..ok
        };
        assert!(!overflow.is_consistent());
    }

    #[test]
    fn timings_zeroed_strips_only_the_phase_timings() {
        let s = BatchStats {
            queries: 10,
            groups: 3,
            shared_queries: 8,
            frontier_reuses: 6,
            rejected: 1,
            replayed: 3,
            retimed: 1,
            fallbacks: 1,
            plan_nanos: 1_000,
            search_nanos: 2_000,
            scatter_nanos: 3_000,
            ..BatchStats::default()
        };
        assert!(s.is_consistent());
        // Zeroing strips exactly the timing fields.
        let z = s.timings_zeroed();
        assert_eq!((z.plan_nanos, z.search_nanos, z.scatter_nanos), (0, 0, 0));
        assert_eq!(
            z,
            BatchStats {
                plan_nanos: 0,
                search_nanos: 0,
                scatter_nanos: 0,
                ..s
            }
        );
        // Two runs differing only in measured time agree after zeroing.
        let other = BatchStats {
            plan_nanos: 999,
            ..s
        };
        assert_ne!(s, other);
        assert_eq!(s.timings_zeroed(), other.timings_zeroed());
        let text = s.to_string();
        assert!(text.contains("[3 replayed, 1 retimed], 1 fallbacks"));
        assert!(text.contains("phases plan 0.00ms"));
        // A malformed report with saturated timings still renders.
        let saturated = BatchStats {
            plan_nanos: u64::MAX,
            search_nanos: u64::MAX,
            ..s
        };
        assert!(saturated.to_string().contains("phases plan"));
    }

    #[test]
    fn bytes_aggregate() {
        let s = SearchStats {
            search_bytes: 1024,
            reduced_graph_bytes: 2048,
            ..SearchStats::default()
        };
        assert_eq!(s.estimated_bytes(), 3072);
        assert!((s.estimated_kb() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn display_mentions_counters() {
        let s = SearchStats {
            doors_settled: 7,
            tv_checks: 3,
            ..SearchStats::default()
        };
        let text = s.to_string();
        assert!(text.contains("7 doors"));
        assert!(text.contains("3 tv-checks"));
    }
}
