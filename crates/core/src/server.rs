//! The concurrent batched query front-end: one venue, many workers.
//!
//! A [`VenueServer`] owns a single `Arc<ItGraph>` and answers
//! [`Query`] batches on a configurable number of worker threads
//! ([`ServerConfig::workers`]) via [`VenueServer::query_batch`]. A batch
//! runs through [`indoor_space::fan_out`]: workers pull work items off one
//! atomic counter (dynamic load balancing — an expensive query does not
//! stall the rest of its chunk), the calling thread is worker 0 and keeps
//! its pooled search state, and answers come back in input order.
//!
//! What makes this safe and fast is the ownership model of the rest of the
//! crate: the IT-Graph is immutable and `Arc`-shared, so workers borrow it
//! freely, and the only shared state written after construction is ITG/A's
//! reduced-graph cache: one build-once `OnceLock` slot per checkpoint
//! interval, read with no lock once filled. Each interval's view is built
//! exactly once per server, never per worker (see `AsynEngine::view_for`).
//! Call [`VenueServer::warm`] to precompute every interval before opening
//! the floodgates.
//!
//! By default the server answers with ITG/A in [`AsynMode::Exact`], which is
//! answer-for-answer identical to ITG/S while sharing the cached reduced
//! graphs across queries; [`ServeMethod::Syn`] switches to pure ITG/S.
//!
//! # Example
//!
//! The paper's Example 1 served as a batch:
//!
//! ```
//! use indoor_space::paper_example;
//! use indoor_time::TimeOfDay;
//! use itspq_core::server::VenueServer;
//! use itspq_core::{ItGraph, Query};
//!
//! let ex = paper_example::build();
//! let server = VenueServer::new(ItGraph::shared(ex.space.clone())).with_workers(2);
//!
//! let batch = vec![
//!     Query::new(ex.p3, ex.p4, TimeOfDay::hm(9, 0)),   // 12 m via d18
//!     Query::new(ex.p3, ex.p4, TimeOfDay::hm(23, 30)), // no such routes
//! ];
//! let answers = server.query_batch(&batch);
//! assert!((answers[0].path.as_ref().unwrap().length - 12.0).abs() < 1e-9);
//! assert!(answers[1].path.is_none());
//! ```

use std::ops::Range;
use std::sync::Arc;

use indoor_space::{fan_out, IndoorPoint, PartitionId};

use crate::framework::SweepObserver;
use crate::{
    AsynEngine, AsynMode, BatchStats, DoorHop, ExpandPolicy, ItGraph, ItspqConfig, Path, Query,
    QueryError, QueryResult, SearchStats, SynEngine,
};

/// Rounding slack subtracted from the interval-coalescing margin: a member's
/// departure shift must clear the lead's smallest checkpoint margin by this
/// much before its arrivals are certified to stay in the same intervals.
/// Timeline values are ≤ ~10⁶ s, where an f64 ulp is ~10⁻¹⁰ s — a microsecond
/// of slack is astronomically conservative and costs no real coalescing.
const RETIME_SLACK_SECS: f64 = 1e-6;

/// Which engine answers the server's queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeMethod {
    /// ITG/S: synchronous ATI checks, no shared state at all.
    Syn,
    /// ITG/A: asynchronous checks over the shared reduced-graph cache.
    Asyn,
}

/// How [`VenueServer::query_batch`] executes a batch.
///
/// Both strategies answer byte-identically: `Shared` derives a member's
/// answer from its group's search (verbatim or retimed) only where that is
/// exact, and a member the retime certificate refuses falls back to its own
/// per-query search (see `ARCHITECTURE.md` §Shared execution).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchStrategy {
    /// One search per query, exactly as submitted.
    Independent,
    /// Group queries that leave the same source point (partition and
    /// position bits) inside one [`indoor_time::CheckpointSet`] interval —
    /// the span in which every door's open/closed label is constant — and
    /// answer each ≥ 2-member group from one multi-target search by its
    /// earliest-departing member, the *lead*. Members departing with the
    /// lead take their answer verbatim; later ones get the lead's path
    /// retimed when their target shares the source's partition or their
    /// shift clears a margin certificate, and a member the certificate
    /// refuses runs its own search. Queries from other points of the
    /// partition, singleton groups and shared-ineligible queries run per
    /// query.
    Shared,
}

/// Tunables of a [`VenueServer`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Workers used by [`VenueServer::query_batch`] (at least 1), the
    /// calling thread among them. Clamped to the host's available
    /// parallelism at execution time unless [`ServerConfig::pin_workers`] is
    /// set — see [`ServerConfig::effective_workers`].
    pub workers: usize,
    /// Use exactly [`ServerConfig::workers`] threads even past the host's
    /// available parallelism. Off by default: oversubscribing cores buys
    /// only scheduler churn (answers never depend on the worker count).
    /// Benches that sweep worker counts set this to measure the
    /// oversubscribed configurations they report.
    pub pin_workers: bool,
    /// Which engine answers queries.
    pub method: ServeMethod,
    /// How batches are executed.
    pub strategy: BatchStrategy,
    /// Engine configuration shared by both methods.
    pub itspq: ItspqConfig,
}

impl ServerConfig {
    /// Workers a batch will actually run on, the calling thread among them:
    /// `workers` (at least 1) clamped to the host's available parallelism,
    /// unless [`ServerConfig::pin_workers`] demands the literal count.
    #[must_use]
    pub fn effective_workers(&self) -> usize {
        let w = self.workers.max(1);
        if self.pin_workers {
            w
        } else {
            w.min(host_parallelism())
        }
    }
}

impl Default for ServerConfig {
    /// Workers follow the machine (capped at 8); the method is ITG/A in
    /// [`AsynMode::Exact`] — identical answers to ITG/S, but sharing the
    /// reduced-graph cache across queries and workers. The strategy is
    /// [`BatchStrategy::Shared`]: inert under the default `PaperPruned`
    /// expansion (sharing requires `FullRelax`), free speedup otherwise.
    fn default() -> Self {
        ServerConfig {
            workers: default_workers(),
            pin_workers: false,
            method: ServeMethod::Asyn,
            strategy: BatchStrategy::Shared,
            itspq: ItspqConfig::default().with_asyn_mode(AsynMode::Exact),
        }
    }
}

/// Worker count when none is configured: the machine's available
/// parallelism, capped at 8.
#[must_use]
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(8))
}

/// The host's available parallelism (1 when it cannot be determined).
#[must_use]
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A shared-venue query server: owns one `Arc<ItGraph>`, shares the ITG/A
/// reduced-graph cache across worker threads, and answers query batches in
/// parallel.
///
/// The server is `Sync`; `query` and `query_batch` take `&self`, so one
/// instance can also be driven from externally managed threads.
#[derive(Debug)]
pub struct VenueServer {
    graph: Arc<ItGraph>,
    syn: SynEngine,
    asyn: AsynEngine,
    config: ServerConfig,
}

impl VenueServer {
    /// Creates a server with [`ServerConfig::default`].
    #[must_use]
    pub fn new(graph: impl Into<Arc<ItGraph>>) -> Self {
        Self::with_config(graph, ServerConfig::default())
    }

    /// Creates a server with an explicit configuration.
    #[must_use]
    pub fn with_config(graph: impl Into<Arc<ItGraph>>, config: ServerConfig) -> Self {
        let graph = graph.into();
        VenueServer {
            syn: SynEngine::new(Arc::clone(&graph), config.itspq),
            asyn: AsynEngine::new(Arc::clone(&graph), config.itspq),
            graph,
            config,
        }
    }

    /// Returns the server with the worker count replaced (clamped to ≥ 1).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.config.workers = workers.max(1);
        self
    }

    /// Returns the server with the worker count replaced *and pinned*:
    /// batches use exactly this many threads even beyond the host's
    /// available parallelism (see [`ServerConfig::pin_workers`]).
    #[must_use]
    pub fn with_pinned_workers(mut self, workers: usize) -> Self {
        self.config.workers = workers.max(1);
        self.config.pin_workers = true;
        self
    }

    /// Returns the server with the answering method replaced.
    #[must_use]
    pub fn with_method(mut self, method: ServeMethod) -> Self {
        self.config.method = method;
        self
    }

    /// Returns the server with the batch strategy replaced.
    #[must_use]
    pub fn with_strategy(mut self, strategy: BatchStrategy) -> Self {
        self.config.strategy = strategy;
        self
    }

    /// The shared graph.
    #[must_use]
    pub fn graph(&self) -> &Arc<ItGraph> {
        &self.graph
    }

    /// The server's configuration.
    #[must_use]
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Precomputes the reduced graph of every checkpoint interval, so no
    /// query ever builds a view or waits on another thread's build, and
    /// under `FullRelax` the venue's landmark table
    /// ([`ItGraph::landmarks`]), so no long query waits on its build.
    pub fn warm(&self) {
        self.asyn.precompute_all();
        if self.config.itspq.expand == ExpandPolicy::FullRelax {
            let _ = self.graph.landmarks();
        }
    }

    /// Number of reduced-graph views currently cached.
    #[must_use]
    pub fn cached_views(&self) -> usize {
        self.asyn.cached_views()
    }

    /// Total heap bytes of the cached reduced-graph views.
    #[must_use]
    pub fn cache_bytes(&self) -> usize {
        self.asyn.cache_bytes()
    }

    /// Answers a single query with the configured method.
    #[must_use]
    pub fn query(&self, query: &Query) -> QueryResult {
        match self.config.method {
            ServeMethod::Syn => self.syn.query(query),
            ServeMethod::Asyn => self.asyn.query(query),
        }
    }

    /// Answers a single query after validating it, so malformed input (NaN
    /// coordinates, out-of-range partitions) surfaces as a value instead of
    /// unwinding a worker thread.
    ///
    /// # Errors
    /// [`QueryError`] describing the first malformed endpoint.
    pub fn try_query(&self, query: &Query) -> Result<QueryResult, QueryError> {
        query.validate(self.graph.space())?;
        Ok(self.query(query))
    }

    /// Answers a batch of queries on up to [`ServerConfig::workers`] threads,
    /// the calling thread among them, returning results in input order.
    ///
    /// Under [`BatchStrategy::Shared`] the batch is first planned into work
    /// items — shared groups and per-query fallbacks (see [`plan`]) — and
    /// [`fan_out`]'s workers pull *items* off a shared atomic counter; under
    /// [`BatchStrategy::Independent`] every item is one query. Either way the
    /// answers are the same and independent of the worker count and of
    /// scheduling (the only shared mutable state, the reduced-graph cache,
    /// affects timing, never answers).
    ///
    /// Queries that fail validation are executed raw, exactly as
    /// [`VenueServer::query`] would (degrading to "no such routes" rather
    /// than panicking); use [`VenueServer::try_query_batch`] to surface them
    /// as [`QueryError`] values instead.
    ///
    /// [`plan`]: VenueServer::plan
    #[must_use]
    pub fn query_batch(&self, queries: &[Query]) -> Vec<QueryResult> {
        self.query_batch_with_stats(queries).0
    }

    /// [`VenueServer::query_batch`] plus the batch-level execution report.
    #[must_use]
    pub fn query_batch_with_stats(&self, queries: &[Query]) -> (Vec<QueryResult>, BatchStats) {
        let (results, stats) = self.execute_batch(queries, false);
        #[expect(
            clippy::expect_used,
            reason = "execute_batch only emits Rejected items when reject_malformed is true; this call passes false"
        )]
        let results = results
            .into_iter()
            .map(|r| r.expect("raw batches never reject"))
            .collect();
        (results, stats)
    }

    /// Answers a batch with validation: malformed queries come back as
    /// [`QueryError`] values (no search runs for them), well-formed ones as
    /// their [`QueryResult`], all in input order.
    #[must_use = "the per-query errors must be inspected"]
    pub fn try_query_batch(&self, queries: &[Query]) -> Vec<Result<QueryResult, QueryError>> {
        self.try_query_batch_with_stats(queries).0
    }

    /// [`VenueServer::try_query_batch`] plus the batch-level execution report.
    #[must_use = "the per-query errors must be inspected"]
    pub fn try_query_batch_with_stats(
        &self,
        queries: &[Query],
    ) -> (Vec<Result<QueryResult, QueryError>>, BatchStats) {
        self.execute_batch(queries, true)
    }

    /// Plans a batch into work items. Exposed for tests and capacity
    /// dashboards; [`VenueServer::query_batch`] calls it internally.
    ///
    /// A query joins a shared group only when every sharing precondition
    /// holds (strategy, `FullRelax` expansion, validity, traversable-or-same
    /// target partition — see [`BatchStrategy`]); groups are keyed by source
    /// partition, the departure's checkpoint interval and the source
    /// position's bits. One sort of `(key, index)` pairs brings each key's
    /// queries together in input order. Per-query items come first, in input
    /// order, then one item per key in the order of its first query. A key
    /// with a single query is a per-query item, so a plan's groups always
    /// amortise at least two queries. Each group's first member — its
    /// *lead*, whose search the others derive from — is rotated to the
    /// earliest departure so every member's time shift is ≥ 0.
    #[must_use]
    pub fn plan(&self, queries: &[Query], reject_malformed: bool) -> BatchPlan {
        let space = self.graph.space();
        let sharing = self.config.strategy == BatchStrategy::Shared
            && self.config.itspq.expand == ExpandPolicy::FullRelax;

        let mut items: Vec<WorkItem> = Vec::with_capacity(queries.len());
        let mut keyed: Vec<(GroupKey, usize)> = Vec::with_capacity(queries.len());
        for (i, q) in queries.iter().enumerate() {
            match q.validate(space) {
                Err(e) if reject_malformed => {
                    items.push(WorkItem::Rejected(i, e));
                    continue;
                }
                Err(_) => {
                    // Raw mode: run it unvalidated like `query` would, but
                    // never share it (a NaN source would alias distinct
                    // searches).
                    items.push(WorkItem::Single(i));
                    continue;
                }
                Ok(()) => {}
            }
            let tp = q.target.partition;
            let sharable =
                sharing && (tp == q.source.partition || space.partition(tp).kind.traversable());
            if !sharable {
                items.push(WorkItem::Single(i));
                continue;
            }
            let interval = space.checkpoints().interval_index(q.time);
            keyed.push(((q.source.partition, interval, pos_bits(q)), i));
        }

        // The sorted indices are the plan's `members` arena: each key's run
        // is one range of it. A run is filed under its first query, so the
        // items follow first-query order whatever the keys' order.
        keyed.sort_unstable();
        let mut members: Vec<usize> = keyed.iter().map(|&(_, i)| i).collect();
        let mut run_at: Vec<Option<Range<usize>>> = vec![None; queries.len()];
        let mut start = 0;
        for run in keyed.chunk_by(|a, b| a.0 == b.0) {
            run_at[run[0].1] = Some(start..start + run.len());
            start += run.len();
        }
        for run in run_at.into_iter().flatten() {
            if run.len() == 1 {
                items.push(WorkItem::Single(members[run.start]));
            } else {
                rotate_earliest_lead(queries, &mut members[run.clone()]);
                items.push(WorkItem::Group(run));
            }
        }
        BatchPlan {
            queries: queries.len(),
            items,
            members,
        }
    }

    /// Runs one planned work item, returning its `(input index, answer)`
    /// pairs and its execution report (views counted once per physical
    /// search, so batch totals do not double-count group members; fallbacks
    /// so the batch books can be corrected after the fact).
    fn run_item(
        &self,
        queries: &[Query],
        plan: &BatchPlan,
        item: &WorkItem,
    ) -> (Vec<(usize, Answer)>, ItemReport) {
        match item {
            WorkItem::Rejected(i, e) => (vec![(*i, Err(*e))], ItemReport::default()),
            WorkItem::Single(i) => {
                let (r, search_nanos) = timed(|| self.query(&queries[*i]));
                let report = ItemReport {
                    views: r.stats.views_built,
                    search_nanos,
                    ..ItemReport::default()
                };
                (vec![(*i, Ok(r))], report)
            }
            WorkItem::Group(members) => self.run_group(queries, &plan.members[members.clone()]),
        }
    }

    /// One sweep from the group's source point toward every member's target,
    /// then per-member scatter: members departing with the lead take its
    /// answer verbatim, later ones get the lead's path retimed where that is
    /// exact (a target in the source's partition, or a shift that clears the
    /// margin certificate), and a member the certificate refuses runs its
    /// own per-query search. See `framework.rs` for the byte-identity
    /// argument of the shared sweep.
    fn run_group(
        &self,
        queries: &[Query],
        members: &[usize],
    ) -> (Vec<(usize, Answer)>, ItemReport) {
        let lead = &queries[members[0]];
        let lead_time = time_bits(lead);
        // Track checkpoint margins only if some member departs at another
        // time than the lead; a group of exact duplicates pays no observer
        // work at all. Retiming holds for every engine, the paper-faithful
        // ITG/A cursor included: a member at the lead's point relaxes the
        // identical sequence in the identical windows, which preserves even
        // the cursor's states.
        let mut observer =
            SweepObserver::new(members.iter().any(|&i| time_bits(&queries[i]) != lead_time));
        let targets: Vec<IndoorPoint> = members.iter().map(|&i| queries[i].target).collect();
        let ((paths, stats), search_nanos) =
            timed(|| self.query_targets(&lead.source, lead.time, &targets, &mut observer));
        let mut report = ItemReport {
            views: stats.views_built,
            search_nanos,
            ..ItemReport::default()
        };
        let config = &self.config.itspq;
        let mut out = Vec::with_capacity(members.len());
        // Scatter (timed as a phase; a refused member's own search runs
        // inside it and is attributed here, not to the search phase).
        let scatter_start = PhaseTimer::start();
        for (&i, path) in members.iter().zip(paths) {
            let q = &queries[i];
            if time_bits(q) == lead_time {
                // Every member reports the group's (single) search: the
                // work its answer actually cost. Summing member stats
                // therefore overcounts a shared batch — sum per *search*
                // via `BatchStats` instead.
                out.push((i, Ok(QueryResult { path, stats })));
                continue;
            }
            // A target in the source's partition is the straight segment,
            // which no checkpoint touches: retiming the sweep's segment
            // gives the member's own bit for bit. Any other later departure
            // is retimed iff its shift clears the smallest margin every lead
            // arrival had to its next checkpoint — then every TV verdict
            // provably transfers. The lead departs first by construction;
            // the ordering guard keeps that an explicit precondition,
            // because `Timestamp` subtraction saturates at zero and an
            // earlier departure would masquerade as a zero shift.
            let retimed = q.target.partition == q.source.partition
                || (q.departure() >= lead.departure()
                    && (q.departure() - lead.departure()).seconds() + RETIME_SLACK_SECS
                        < observer.min_margin_secs);
            if retimed {
                report.retimed += 1;
                let path = retime(path.as_ref(), q, config);
                out.push((i, Ok(QueryResult { path, stats })));
            } else {
                let r = self.query(q);
                report.fallbacks += 1;
                report.views += r.stats.views_built;
                out.push((i, Ok(r)));
            }
        }
        report.scatter_nanos = scatter_start.elapsed_nanos();
        (out, report)
    }

    /// One shared frontier for a whole group (see `framework.rs` for the
    /// target-independence argument that makes this byte-identical to
    /// per-query execution).
    fn query_targets(
        &self,
        source: &IndoorPoint,
        time: indoor_time::TimeOfDay,
        targets: &[IndoorPoint],
        observer: &mut SweepObserver,
    ) -> (Vec<Option<Path>>, SearchStats) {
        match self.config.method {
            ServeMethod::Syn => self.syn.query_targets(source, time, targets, observer),
            ServeMethod::Asyn => self.asyn.query_targets(source, time, targets, observer),
        }
    }

    /// The planner + scatter behind every batch entry point.
    fn execute_batch(
        &self,
        queries: &[Query],
        reject_malformed: bool,
    ) -> (Vec<Answer>, BatchStats) {
        let (plan, plan_nanos) = timed(|| self.plan(queries, reject_malformed));
        let mut stats = plan.stats();
        stats.plan_nanos = plan_nanos;
        let items = &plan.items;
        let done = fan_out(items.len(), self.config.effective_workers(), |k| {
            self.run_item(queries, &plan, &items[k])
        });
        let mut report = ItemReport::default();
        let mut indexed = Vec::with_capacity(queries.len());
        for (answers, item_report) in done {
            indexed.extend(answers);
            report.absorb(item_report);
        }
        // Correct the plan-derived books for execution-time fallbacks: each
        // one paid its own search (a group) and stopped being a reuse. The
        // report is a sum over items, so the totals are independent of how
        // items were spread across workers (the phase timings sum each
        // worker's busy time and are the only scheduling-dependent fields).
        stats.views_built += report.views;
        stats.retimed += report.retimed;
        stats.fallbacks += report.fallbacks;
        stats.search_nanos += report.search_nanos;
        stats.scatter_nanos += report.scatter_nanos;
        stats.groups += report.fallbacks;
        stats.shared_queries -= report.fallbacks;
        stats.frontier_reuses -= report.fallbacks;
        indexed.sort_unstable_by_key(|&(i, _)| i);
        (indexed.into_iter().map(|(_, r)| r).collect(), stats)
    }
}

/// A shared group's key: source partition, the departure's checkpoint
/// interval and the source position's bits.
type GroupKey = (PartitionId, usize, (u64, u64));

/// One query's batch answer: its result, or why validation refused it.
type Answer = Result<QueryResult, QueryError>;

/// One unit of batch work: a single query or a shared group.
#[derive(Debug, Clone, PartialEq)]
enum WorkItem {
    /// Run `queries[i]` on its own (unvalidated, like [`VenueServer::query`]).
    Single(usize),
    /// `queries[i]` failed validation; answer with the error, run nothing.
    Rejected(usize, QueryError),
    /// Answer all member queries (a range of [`BatchPlan::members`]) with
    /// one shared frontier. Invariants: ≥ 2 members, all shared-eligible,
    /// one source point and checkpoint interval, earliest departure leading.
    Group(Range<usize>),
}

/// Swaps the member with the earliest departure (first occurrence on ties)
/// into slot 0, so retime deltas within the roster are non-negative.
fn rotate_earliest_lead(queries: &[Query], roster: &mut [usize]) {
    let lead = roster
        .iter()
        .enumerate()
        .min_by_key(|&(pos, &i)| (queries[i].time, pos))
        .map_or(0, |(pos, _)| pos);
    roster.swap(0, lead);
}

/// Monotonic phase-timer reads for [`BatchStats`] attribution — the only
/// wall-clock touches in core's library code, confined here and feeding
/// telemetry only, never answers.
#[expect(
    clippy::disallowed_types,
    reason = "monotonic phase timing for BatchStats telemetry; never feeds answers"
)]
struct PhaseTimer(std::time::Instant);

impl PhaseTimer {
    #[expect(
        clippy::disallowed_types,
        reason = "monotonic phase timing for BatchStats telemetry; never feeds answers"
    )]
    fn start() -> Self {
        Self(std::time::Instant::now())
    }

    fn elapsed_nanos(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Runs `f`, returning its result and the elapsed monotonic nanoseconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = PhaseTimer::start();
    let out = f();
    (out, start.elapsed_nanos())
}

/// What one work item cost and how its members were answered; summed into
/// the batch's [`BatchStats`] after execution. Pure sums over items, so the
/// batch totals cannot depend on worker count or scheduling.
#[derive(Debug, Clone, Copy, Default)]
struct ItemReport {
    views: usize,
    retimed: usize,
    fallbacks: usize,
    search_nanos: u64,
    scatter_nanos: u64,
}

impl ItemReport {
    fn absorb(&mut self, other: ItemReport) {
        self.views += other.views;
        self.retimed += other.retimed;
        self.fallbacks += other.fallbacks;
        self.search_nanos += other.search_nanos;
        self.scatter_nanos += other.scatter_nanos;
    }
}

/// The source-point identity of the planner's group key: bitwise, so
/// `-0.0 ≠ 0.0` and only bit-identical sources share a search.
fn pos_bits(q: &Query) -> (u64, u64) {
    (q.source.position.x.to_bits(), q.source.position.y.to_bits())
}

/// The departure-time identity used by group scatter: bitwise like
/// [`pos_bits`], so only bit-identical departures take the lead's answer
/// verbatim.
fn time_bits(q: &Query) -> u64 {
    q.time.seconds().to_bits()
}

/// Re-times the lead's answer for a member departing `delta ≥ 0` later whose
/// arrivals are all certified to stay in the lead's checkpoint intervals:
/// door labels, hop distances and the total length are departure-independent,
/// so only the timestamps move — recomputed exactly as `reconstruct` would
/// have from the member's own `t0`.
fn retime(path: Option<&Path>, q: &Query, config: &ItspqConfig) -> Option<Path> {
    let p = path?;
    let t0 = q.departure();
    Some(Path {
        source: q.source,
        target: q.target,
        hops: p
            .hops
            .iter()
            .map(|h| DoorHop {
                arrival: t0 + config.velocity.travel_time(h.distance),
                ..*h
            })
            .collect(),
        length: p.length,
        departure: t0,
        arrival: t0 + config.velocity.travel_time(p.length),
    })
}

/// The planner's output: how a batch will be executed.
///
/// Produced by [`VenueServer::plan`]; mostly useful for asserting sharing
/// behaviour in tests and for capacity telemetry.
#[derive(Debug, Clone)]
pub struct BatchPlan {
    queries: usize,
    items: Vec<WorkItem>,
    /// Arena of group member indices; each [`WorkItem::Group`] holds a range
    /// into it (one allocation per plan instead of one per group).
    members: Vec<usize>,
}

impl BatchPlan {
    /// Number of physical searches this plan will run (groups + singles).
    #[must_use]
    pub fn searches(&self) -> usize {
        self.items
            .iter()
            .filter(|i| !matches!(i, WorkItem::Rejected(..)))
            .count()
    }

    /// Number of shared (≥ 2 member) groups.
    #[must_use]
    pub fn shared_groups(&self) -> usize {
        self.items
            .iter()
            .filter(|i| matches!(i, WorkItem::Group(_)))
            .count()
    }

    /// Number of queries answered by shared groups.
    #[must_use]
    pub fn shared_queries(&self) -> usize {
        self.items
            .iter()
            .map(|i| match i {
                WorkItem::Group(members) => members.len(),
                _ => 0,
            })
            .sum()
    }

    /// The batch-level report this plan implies (`views_built`, the derived
    /// answer counters and the phase timings are filled in during
    /// execution).
    #[must_use]
    pub fn stats(&self) -> BatchStats {
        let rejected = self
            .items
            .iter()
            .filter(|i| matches!(i, WorkItem::Rejected(..)))
            .count();
        BatchStats {
            queries: self.queries,
            groups: self.searches(),
            shared_queries: self.shared_queries(),
            frontier_reuses: self.shared_queries() - self.shared_groups(),
            rejected,
            ..BatchStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use indoor_space::paper_example;
    use indoor_time::TimeOfDay;

    fn example_batch(ex: &paper_example::PaperExample) -> Vec<Query> {
        let mut batch = Vec::new();
        for (h, m) in [(9, 0), (12, 0), (15, 59), (22, 0), (23, 30), (5, 30)] {
            for (s, t) in [(ex.p3, ex.p4), (ex.p1, ex.p2), (ex.p2, ex.p3)] {
                batch.push(Query::new(s, t, TimeOfDay::hm(h, m)));
            }
        }
        batch
    }

    #[test]
    fn server_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<VenueServer>();
    }

    #[test]
    fn batch_matches_sequential_itg_s() {
        let ex = paper_example::build();
        let graph = ItGraph::shared(ex.space.clone());
        let server = VenueServer::new(graph.clone()).with_pinned_workers(4);
        let syn = SynEngine::new(graph, ItspqConfig::default());
        let batch = example_batch(&ex);
        let answers = server.query_batch(&batch);
        assert_eq!(answers.len(), batch.len());
        for (q, a) in batch.iter().zip(&answers) {
            let s = syn.query(q);
            assert_eq!(
                s.path.as_ref().map(|p| p.doors().collect::<Vec<_>>()),
                a.path.as_ref().map(|p| p.doors().collect::<Vec<_>>()),
                "batch answer diverges from ITG/S at {}",
                q.time
            );
        }
    }

    #[test]
    fn engines_share_one_graph() {
        let ex = paper_example::build();
        let graph = ItGraph::shared(ex.space);
        let server = VenueServer::new(graph.clone());
        assert!(Arc::ptr_eq(server.graph(), &graph));
        assert!(Arc::ptr_eq(&server.syn.graph_arc(), &graph));
        assert!(Arc::ptr_eq(&server.asyn.graph_arc(), &graph));
    }

    #[test]
    fn empty_batch_and_worker_clamping() {
        let ex = paper_example::build();
        let server = VenueServer::new(ItGraph::new(ex.space)).with_workers(0);
        assert_eq!(server.config().workers, 1); // clamped
        assert!(server.query_batch(&[]).is_empty());
        // More workers than queries is fine too.
        let server = server.with_workers(16);
        let one = [Query::new(ex.p3, ex.p4, TimeOfDay::hm(9, 0))];
        assert_eq!(server.query_batch(&one).len(), 1);
    }

    #[test]
    fn effective_workers_clamp_to_host_unless_pinned() {
        let host = host_parallelism();
        // A wildly oversubscribed request follows the machine …
        let config = ServerConfig {
            workers: 4096,
            ..ServerConfig::default()
        };
        assert_eq!(config.effective_workers(), host.clamp(1, 4096));
        assert!(config.effective_workers() <= host);
        // … unless explicitly pinned (bench worker sweeps measure these).
        let pinned = ServerConfig {
            workers: 4096,
            pin_workers: true,
            ..ServerConfig::default()
        };
        assert_eq!(pinned.effective_workers(), 4096);
        // Zero still clamps up to one either way.
        let zero = ServerConfig {
            workers: 0,
            pin_workers: true,
            ..ServerConfig::default()
        };
        assert_eq!(zero.effective_workers(), 1);
        // The builder pins.
        let ex = paper_example::build();
        let server = VenueServer::new(ItGraph::new(ex.space)).with_pinned_workers(12);
        assert!(server.config().pin_workers);
        assert_eq!(server.config().effective_workers(), 12);
    }

    #[test]
    fn syn_method_answers_identically() {
        let ex = paper_example::build();
        let graph = ItGraph::shared(ex.space.clone());
        let asyn_server = VenueServer::new(graph.clone()).with_pinned_workers(3);
        let syn_server = VenueServer::new(graph)
            .with_pinned_workers(3)
            .with_method(ServeMethod::Syn);
        let batch = example_batch(&ex);
        let a = asyn_server.query_batch(&batch);
        let s = syn_server.query_batch(&batch);
        for (x, y) in a.iter().zip(&s) {
            assert_eq!(
                x.path.as_ref().map(|p| p.length),
                y.path.as_ref().map(|p| p.length)
            );
        }
        // Only the asyn method touches the reduced-graph cache.
        assert!(asyn_server.cached_views() > 0);
        assert_eq!(syn_server.cached_views(), 0);
    }

    #[test]
    fn warm_precomputes_every_interval() {
        let ex = paper_example::build();
        let server = VenueServer::new(ItGraph::shared(ex.space.clone()));
        server.warm();
        assert_eq!(server.cached_views(), ex.space.checkpoints().len());
        assert!(server.cache_bytes() > 0);
        // A warmed server builds nothing during the batch.
        let answers = server.query_batch(&example_batch(&ex));
        assert!(answers.iter().all(|r| r.stats.views_built == 0));
    }

    #[test]
    fn cold_batch_builds_each_view_once() {
        let ex = paper_example::build();
        let server = VenueServer::new(ItGraph::shared(ex.space.clone())).with_pinned_workers(4);
        let answers = server.query_batch(&example_batch(&ex));
        let built: usize = answers.iter().map(|r| r.stats.views_built).sum();
        assert_eq!(
            built,
            server.cached_views(),
            "each checkpoint interval must be built exactly once server-wide"
        );
    }

    /// A server with sharing actually engaged: `FullRelax` expansion.
    fn sharing_server(ex: &paper_example::PaperExample) -> VenueServer {
        let config = ServerConfig {
            itspq: ItspqConfig::full_relax().with_asyn_mode(AsynMode::Exact),
            ..ServerConfig::default()
        };
        VenueServer::with_config(ItGraph::shared(ex.space.clone()), config)
    }

    /// Four queries sharing p3@9:00, one singleton and one private-partition
    /// fallback.
    fn skewed_batch(ex: &paper_example::PaperExample) -> Vec<Query> {
        let nine = TimeOfDay::hm(9, 0);
        let private = indoor_space::IndoorPoint::new(ex.v(15), indoor_geom::Point::new(5.0, 0.0));
        vec![
            Query::new(ex.p3, ex.p4, nine),
            Query::new(ex.p3, ex.p2, nine),
            Query::new(ex.p1, ex.p2, TimeOfDay::hm(12, 0)), // singleton source
            Query::new(ex.p3, private, nine),               // private target: fallback
            Query::new(ex.p3, ex.p1, nine),
            Query::new(ex.p3, ex.p4, nine), // duplicate (source, target) pair
        ]
    }

    #[test]
    fn plan_groups_one_partition_and_interval() {
        let ex = paper_example::build();
        let server = sharing_server(&ex);
        let plan = server.plan(&skewed_batch(&ex), false);
        // One 4-member group (p3@9:00 with traversable targets), plus the
        // singleton source and the private-target fallback.
        assert_eq!(plan.shared_groups(), 1);
        assert_eq!(plan.shared_queries(), 4);
        assert_eq!(plan.searches(), 3);
        let stats = plan.stats();
        assert_eq!(stats.frontier_reuses, 3);
        assert!((stats.sharing_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn paper_pruned_config_never_shares() {
        // The default server config keeps the paper's pruned expansion, under
        // which sharing is inert: every query plans as its own search.
        let ex = paper_example::build();
        let server = VenueServer::new(ItGraph::shared(ex.space.clone()));
        let plan = server.plan(&skewed_batch(&ex), false);
        assert_eq!(plan.shared_groups(), 0);
        assert_eq!(plan.searches(), 6);
    }

    #[test]
    fn shared_answers_are_byte_identical_to_independent() {
        let ex = paper_example::build();
        let shared = sharing_server(&ex).with_pinned_workers(3);
        let mut config = *shared.config();
        config.strategy = BatchStrategy::Independent;
        let independent = VenueServer::with_config(ItGraph::shared(ex.space.clone()), config);
        let batch = skewed_batch(&ex);
        let a = shared.query_batch(&batch);
        let b = independent.query_batch(&batch);
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_eq!(x.path, y.path, "paths diverge at batch index {i}");
        }
    }

    #[test]
    fn batch_stats_report_sharing_and_views() {
        let ex = paper_example::build();
        let server = sharing_server(&ex);
        let (answers, stats) = server.query_batch_with_stats(&skewed_batch(&ex));
        assert_eq!(answers.len(), 6);
        assert_eq!(stats.queries, 6);
        assert_eq!(stats.groups, 3);
        assert_eq!(stats.shared_queries, 4);
        // Views are counted once per physical search, never per group member.
        assert_eq!(stats.views_built, server.cached_views());
    }

    /// Compares a batch answered with `strategy` against per-query
    /// `try_query` answers, byte-for-byte (Debug rendering keeps NaN total).
    fn assert_parity(server: &VenueServer, batch: &[Query]) {
        let got = server.try_query_batch(batch);
        for (i, (q, g)) in batch.iter().zip(&got).enumerate() {
            let want = server.try_query(q);
            assert_eq!(
                format!("{:?}", g.as_ref().map(|r| &r.path)),
                format!("{:?}", want.as_ref().map(|r| &r.path)),
                "strategy {:?} diverges from per-query at batch index {i}",
                server.config().strategy,
            );
        }
    }

    /// Same-partition sources at spread-out points, plus spread-out times
    /// inside one checkpoint interval.
    fn door_batch(ex: &paper_example::PaperExample) -> Vec<Query> {
        let p3 = ex.p3.partition;
        let at = |x: f64, y: f64| indoor_space::IndoorPoint::new(p3, indoor_geom::Point::new(x, y));
        vec![
            Query::new(ex.p3, ex.p4, TimeOfDay::hm(9, 0)),
            Query::new(at(1.0, 1.0), ex.p4, TimeOfDay::hm(9, 0)),
            Query::new(at(2.5, 0.5), ex.p2, TimeOfDay::hm(9, 0)),
            Query::new(at(0.5, 2.0), ex.p1, TimeOfDay::hm(9, 0)),
            Query::new(ex.p3, ex.p2, TimeOfDay::hm(9, 0)),
        ]
    }

    fn interval_batch(ex: &paper_example::PaperExample) -> Vec<Query> {
        let p3 = ex.p3.partition;
        let at = |x: f64, y: f64| indoor_space::IndoorPoint::new(p3, indoor_geom::Point::new(x, y));
        vec![
            Query::new(ex.p3, ex.p4, TimeOfDay::hm(9, 0)),
            Query::new(ex.p3, ex.p4, TimeOfDay::hm(9, 20)),
            Query::new(ex.p3, ex.p2, TimeOfDay::hm(10, 45)),
            Query::new(at(1.0, 1.0), ex.p1, TimeOfDay::hm(9, 0)),
            Query::new(ex.p3, ex.p1, TimeOfDay::hm(14, 0)),
        ]
    }

    #[test]
    fn plan_groups_one_point_across_its_interval() {
        let ex = paper_example::build();
        let server = sharing_server(&ex);
        // Distinct points of p3 at one instant plan apart: only the two
        // queries from `ex.p3` share a search …
        let plan = server.plan(&door_batch(&ex), false);
        assert_eq!(plan.shared_groups(), 1);
        assert_eq!(plan.shared_queries(), 2);
        assert_eq!(plan.searches(), 4);
        // … while departures from one point spread across one checkpoint
        // interval merge.
        let batch = interval_batch(&ex);
        let plan = server.plan(&batch, false);
        assert_eq!(plan.shared_groups(), 1);
        assert_eq!(plan.shared_queries(), 4);
        assert_eq!(plan.searches(), 2);
        // Independent execution plans one search per query.
        let independent = sharing_server(&ex).with_strategy(BatchStrategy::Independent);
        assert_eq!(independent.plan(&batch, false).searches(), batch.len());
    }

    #[test]
    fn group_lead_is_earliest_departure() {
        let ex = paper_example::build();
        let server = sharing_server(&ex);
        // Later departures submitted first: the lead must still be 9:00.
        let batch = vec![
            Query::new(ex.p3, ex.p4, TimeOfDay::hm(10, 30)),
            Query::new(ex.p3, ex.p2, TimeOfDay::hm(9, 0)),
            Query::new(ex.p3, ex.p1, TimeOfDay::hm(9, 45)),
        ];
        let plan = server.plan(&batch, false);
        let leads: Vec<usize> = plan
            .items
            .iter()
            .filter_map(|it| match it {
                WorkItem::Group(members) => Some(plan.members[members.start]),
                _ => None,
            })
            .collect();
        assert_eq!(leads, vec![1], "the 9:00 query must lead its group");
    }

    #[test]
    fn derived_answers_match_per_query() {
        let ex = paper_example::build();
        for method in [ServeMethod::Asyn, ServeMethod::Syn] {
            let server = sharing_server(&ex).with_method(method).with_workers(1);
            assert_parity(&server, &door_batch(&ex));
            assert_parity(&server, &interval_batch(&ex));
        }
    }

    #[test]
    fn both_strategies_keep_consistent_books() {
        let ex = paper_example::build();
        let mut batch = skewed_batch(&ex);
        batch.extend(door_batch(&ex));
        batch.extend(interval_batch(&ex));
        for strategy in [BatchStrategy::Independent, BatchStrategy::Shared] {
            let server = sharing_server(&ex).with_strategy(strategy);
            let (_, stats) = server.query_batch_with_stats(&batch);
            assert!(
                stats.is_consistent(),
                "strategy {strategy:?} broke the accounting identity: {stats}"
            );
            assert_parity(&server, &batch);
        }
    }

    #[test]
    fn derived_members_report_retimes() {
        let ex = paper_example::build();
        let server = sharing_server(&ex);
        let mut batch = door_batch(&ex);
        batch.extend(interval_batch(&ex));
        let (_, stats) = server.query_batch_with_stats(&batch);
        // A group from `ex.p3` (9:00 lead, two verbatim members and three
        // later departures, all retimed), a verbatim pair from (1, 1) at
        // 9:00, and two singles from the other points.
        assert_eq!(
            (stats.groups, stats.replayed, stats.retimed, stats.fallbacks),
            (4, 0, 3, 0),
            "{stats}"
        );
    }

    #[test]
    fn a_same_partition_member_is_retimed_past_the_margin() {
        let ex = paper_example::build();
        let server = sharing_server(&ex);
        let nine = TimeOfDay::hm(9, 0);
        // One second before the next checkpoint: the lead's arrivals come
        // later than that after 9:00, so the margin refuses this shift.
        let next = ex.space.checkpoints().next(nine).unwrap();
        let late = TimeOfDay::from_seconds(next.seconds() - 1.0).unwrap();
        let near =
            indoor_space::IndoorPoint::new(ex.p3.partition, indoor_geom::Point::new(1.0, 1.0));
        let batch = vec![
            Query::new(ex.p3, ex.p4, nine),
            Query::new(ex.p3, near, late),
            Query::new(ex.p3, ex.p2, late),
        ];
        let (_, stats) = server.query_batch_with_stats(&batch);
        assert_eq!((stats.retimed, stats.fallbacks), (1, 1), "{stats}");
        assert_parity(&server, &batch);
    }

    #[test]
    fn spread_points_and_instants_group_per_point() {
        let ex = paper_example::build();
        let server = sharing_server(&ex);
        let p3 = ex.p3.partition;
        let at = |x: f64, y: f64| indoor_space::IndoorPoint::new(p3, indoor_geom::Point::new(x, y));
        // Three instants (9:00, 9:20 and a lone 9:40) from distinct p3
        // points, all inside one checkpoint interval: the two points that
        // recur at 9:00 and 9:20 each form a group whose 9:00 lead retimes
        // its 9:20 member, and the lone points run their own searches.
        let batch = vec![
            Query::new(ex.p3, ex.p4, TimeOfDay::hm(9, 0)),
            Query::new(at(1.0, 1.0), ex.p4, TimeOfDay::hm(9, 0)),
            Query::new(at(2.5, 0.5), ex.p2, TimeOfDay::hm(9, 0)),
            Query::new(ex.p3, ex.p2, TimeOfDay::hm(9, 20)),
            Query::new(at(1.0, 1.0), ex.p1, TimeOfDay::hm(9, 20)),
            Query::new(at(0.5, 2.0), ex.p1, TimeOfDay::hm(9, 40)),
        ];
        let plan = server.plan(&batch, false);
        assert_eq!(plan.shared_groups(), 2);
        assert_eq!(plan.shared_queries(), 4);
        assert_eq!(plan.searches(), 4);
        let (_, stats) = server.query_batch_with_stats(&batch);
        assert!(stats.is_consistent(), "{stats}");
        assert_eq!((stats.retimed, stats.fallbacks), (2, 0), "{stats}");
        assert_parity(&server, &batch);
    }

    #[test]
    fn try_query_batch_rejects_in_place() {
        let ex = paper_example::build();
        let server = sharing_server(&ex);
        let nan =
            indoor_space::IndoorPoint::new(ex.p3.partition, indoor_geom::Point::new(f64::NAN, 2.0));
        let batch = vec![
            Query::new(ex.p3, ex.p4, TimeOfDay::hm(9, 0)),
            Query::new(nan, ex.p4, TimeOfDay::hm(9, 0)),
            Query::new(ex.p3, ex.p2, TimeOfDay::hm(9, 0)),
        ];
        let (results, stats) = server.try_query_batch_with_stats(&batch);
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
        assert!(results[2].is_ok());
        assert_eq!(stats.rejected, 1);
        // The two well-formed queries still share one frontier.
        assert_eq!(stats.groups, 1);
        assert_eq!(stats.frontier_reuses, 1);
    }
}
