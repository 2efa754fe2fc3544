//! The two serving workloads, driven through `rs_serve::serve` with the
//! default `ServerConfig`:
//!
//! * `serve-p2p-unique` — distinct point-to-point pairs, open loop at a
//!   fixed rate, then a closed-loop capacity phase with `nproc` clients.
//!   The cache can never hit.
//! * `serve-mixed-hot` — mostly point-to-point plus one-to-many (8
//!   goals), 4×4 tables and a few single-source solves, keys drawn
//!   Zipf-skewed from a population larger than the default cache, with
//!   the whole cache invalidated (`Server::invalidate_epoch`) at a fixed
//!   interval; open loop, then a closed-loop capacity phase.
//!
//! Open-loop latency runs from each request's due time to the client's
//! receipt of its reply, so a stall also counts against the requests
//! queued behind it.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

use rs_core::{BatchStats, Query, SolverScratch};
use rs_graph::VertexId;
use rs_serve::{Rejection, Reply, Server, ServerConfig, ServerStats};

use crate::inputs::{Rng, Spread, Zipf, GOLDEN, SILVER};
use crate::reference::{self, Expected, References};
use crate::report::{median, percentile, ratio};
use crate::trace::Tracer;
use crate::{engine_layer, overhead_frac, timed_solve, Ctx, Outcome, Tally, SAMPLE};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    P2p,
    Fanout,
    Table,
    Sssp,
}

impl Kind {
    /// Per-shape latency limit for `slo_frac`: about twice the seed-era
    /// p95 of the shape at the workloads' rates on 2 cores (p2p ≈ 37 ms,
    /// one-to-many ≈ 50 ms, 4×4 table ≈ 120 ms, single-source ≈ 45 ms).
    pub fn limit_ms(self) -> f64 {
        match self {
            Kind::P2p => 75.0,
            Kind::Fanout => 100.0,
            Kind::Table => 250.0,
            Kind::Sssp => 100.0,
        }
    }
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct Req {
    pub query: Query,
    pub kind: Kind,
}

/// Open-loop rate of both serving workloads (requests per second), well
/// below the ~100 req/s knee of point-to-point serving on 2 cores, so a
/// slow spell on a shared host queues few requests.
const OPEN_RATE: f64 = 20.0;
/// Whole-cache invalidation period on `serve-mixed-hot`.
const INVALIDATE_EVERY: Duration = Duration::from_secs(3);
/// Share of a run's traffic time spent in the open-loop phase; the rest
/// is the closed-loop capacity phase.
const OPEN_SHARE: f64 = 0.7;
/// How long the client waits for replies once it stops sending.
const DRAIN: Duration = Duration::from_secs(30);
/// A generator that ran this late behind its schedule makes the run
/// invalid: its latencies no longer describe the offered rate.
const GEN_LAG_LIMIT_MS: f64 = 100.0;
/// Upper bounds on closed-loop throughput, sizing the pre-generated
/// request lists (a phase that runs out of requests ends early).
const UNIQUE_CLOSED_CAP_QPS: f64 = 400.0;
const MIXED_CLOSED_CAP_QPS: f64 = 3000.0;

/// Sources of the serving workloads, with their settle orders.
fn source_pool(ctx: &Ctx, refs: &mut References, salt: u64, count: usize) -> Vec<VertexId> {
    let mut rng = Rng::new(ctx.cfg.seed, salt);
    let n = ctx.g.num_vertices();
    let mut seen = HashSet::new();
    let pool: Vec<VertexId> =
        (0..count * 4).map(|_| rng.vertex(n)).filter(|&v| seen.insert(v)).take(count).collect();
    for &s in &pool {
        refs.compute(ctx.g, s);
    }
    pool
}

/// The goal `u` of the way along `source`'s settle order (its Dijkstra
/// rank), so goals cover near and far pairs evenly.
fn goal_at(refs: &References, source: VertexId, u: f64) -> VertexId {
    let order = refs.order(source);
    order[((u * order.len() as f64) as usize).min(order.len() - 1)]
}

fn phase_counts(seconds: f64, closed_cap: f64) -> (usize, usize) {
    let open = ((seconds * OPEN_SHARE * OPEN_RATE).ceil() as usize).max(1);
    let closed = ((seconds * (1.0 - OPEN_SHARE) * closed_cap).ceil() as usize).max(1);
    (open, closed)
}

/// Requests of the open-loop phase, of the closed-loop phase, and the
/// answers both are checked against.
type Generated = (Vec<Req>, Vec<Req>, Expected);

fn expected(ctx: &Ctx, open: &[Req], closed: &[Req]) -> Expected {
    Expected::for_queries(ctx.g, open.iter().chain(closed).map(|r| &r.query))
}

/// The `serve-p2p-unique` pairs of a seed, open-loop phase then
/// closed-loop phase, all distinct; goal ranks follow a [`Spread`].
fn unique_pairs(ctx: &Ctx) -> Generated {
    let (open_n, closed_n) = phase_counts(ctx.cfg.seconds, UNIQUE_CLOSED_CAP_QPS);
    let mut refs = References::default();
    let pool = source_pool(ctx, &mut refs, 2, 64);
    let mut rng = Rng::new(ctx.cfg.seed, 3);
    let mut seen = HashSet::new();
    let mut phase = |count: usize| -> Vec<Req> {
        let mut ranks = Spread::new(&mut rng, GOLDEN);
        (0..count)
            .map(|_| {
                let u = ranks.draw();
                // A repeated pair takes another source at the same rank.
                let mut tries = 0;
                loop {
                    let source = pool[rng.below(pool.len())];
                    let goal = goal_at(&refs, source, u);
                    tries += 1;
                    if seen.insert((source, goal)) || tries > 4 * pool.len() {
                        break Req { query: Query::point_to_point(source, goal), kind: Kind::P2p };
                    }
                }
            })
            .collect()
    };
    let open = phase(open_n);
    let closed = phase(closed_n);
    drop(refs);
    let expected = expected(ctx, &open, &closed);
    (open, closed, expected)
}

/// The `serve-mixed-hot` key population and its two request streams.
/// Goal ranks, shapes and each shape's Zipf ranks follow fixed
/// [`Spread`]s, so every seed (and every prefix of a stream) offers the
/// same keys by rank, shape and popularity, in the same order, over
/// different vertices: the few hottest keys carry much of the traffic,
/// and their goal ranks must not change with the seed.
fn mixed_requests(ctx: &Ctx) -> Generated {
    let (open_n, closed_n) = phase_counts(ctx.cfg.seconds, MIXED_CLOSED_CAP_QPS);
    let mut refs = References::default();
    let pool = source_pool(ctx, &mut refs, 4, 64);
    let mut rng = Rng::new(ctx.cfg.seed, 5);
    let n = ctx.g.num_vertices();
    let mut ranks = Spread::fixed(GOLDEN);
    let p2p: Vec<Query> = (0..2400)
        .map(|_| {
            let source = pool[rng.below(pool.len())];
            Query::point_to_point(source, goal_at(&refs, source, ranks.draw()))
        })
        .collect();
    let fanout: Vec<Query> = (0..200)
        .map(|_| {
            let source = pool[rng.below(pool.len())];
            let goals: Vec<VertexId> =
                (0..8).map(|_| goal_at(&refs, source, ranks.draw())).collect();
            Query::one_to_many(source, goals)
        })
        .collect();
    let tables: Vec<Query> = (0..64)
        .map(|_| {
            let mut sources = pool.clone();
            rng.shuffle(&mut sources);
            sources.truncate(4);
            Query::many_to_many(sources, (0..4).map(|_| rng.vertex(n)).collect::<Vec<_>>())
        })
        .collect();
    let sssp: Vec<Query> = pool.iter().take(32).map(|&s| Query::single_source(s)).collect();
    // Shape, share of requests, Zipf exponent, keys.
    let population = [
        (Kind::P2p, 0.83, 1.0, p2p),
        (Kind::Fanout, 0.12, 1.2, fanout),
        (Kind::Table, 0.03, 1.2, tables),
        (Kind::Sssp, 0.02, 1.2, sssp),
    ];
    let zipfs: Vec<Zipf> =
        population.iter().map(|(_, _, s, keys)| Zipf::new(keys.len(), *s)).collect();
    // One stream, split into the open-loop and the closed-loop phase.
    let mut shapes = Spread::fixed(SILVER);
    let mut popularity: Vec<Spread> = population.iter().map(|_| Spread::fixed(GOLDEN)).collect();
    let mut stream = |count: usize| -> Vec<Req> {
        (0..count)
            .map(|_| {
                let mut x = shapes.draw();
                let mut i = 0;
                while i + 1 < population.len() && x >= population[i].1 {
                    x -= population[i].1;
                    i += 1;
                }
                let (kind, _, _, keys) = &population[i];
                Req { query: keys[zipfs[i].quantile(popularity[i].draw())].clone(), kind: *kind }
            })
            .collect()
    };
    let open = stream(open_n);
    let closed = stream(closed_n);
    drop(refs);
    let expected = expected(ctx, &open, &closed);
    (open, closed, expected)
}

/// What the client saw of one reply, checked on receipt.
struct Got {
    at: Instant,
    reply_us: u64,
    cached: bool,
    wrong: u64,
    max_substeps: usize,
    answered: Query,
}

fn inspect(expected: &Expected, reply: &Reply, at: Instant) -> Got {
    let response = &reply.response;
    Got {
        at,
        reply_us: reply.latency_us,
        cached: reply.cached,
        wrong: reference::wrong_cells(expected, response),
        max_substeps: reference::max_substeps(response),
        answered: response.query.clone(),
    }
}

/// One submit as the client made it.
struct Sent {
    /// Due time (open loop) or send time (closed loop).
    start: Instant,
    submit_end: Instant,
    submit_us: f64,
    lag_ms: f64,
    ticket: Result<u64, Rejection>,
    span: u64,
    traced: bool,
}

/// What a client thread needs: the run, the server, the answers its
/// replies are checked against.
#[derive(Clone, Copy)]
struct Client<'c> {
    ctx: &'c Ctx<'c>,
    server: &'c Server<'c>,
    expected: &'c Expected,
}

fn submit(c: Client, req: &Req, tx: &Sender<Reply>, start: Instant, traced: bool) -> Sent {
    let tracer = c.ctx.tracer;
    let span = tracer.id();
    let (query, reply) = (req.query.clone(), tx.clone());
    let a = Instant::now();
    let ticket = c.server.submit(query, reply);
    let b = Instant::now();
    if traced {
        tracer.record(tracer.id(), Some(span), span, "serve.submit", a, b);
    }
    Sent {
        start,
        submit_end: b,
        submit_us: (b - a).as_secs_f64() * 1e6,
        lag_ms: (a - start).as_secs_f64() * 1e3,
        ticket,
        span,
        traced,
    }
}

/// One offered request, once it has ended.
#[derive(Debug, Clone)]
struct Record {
    index: usize,
    kind: Kind,
    /// `None` when rejected or never answered.
    latency_ms: Option<f64>,
    cached: bool,
    reply_ms: f64,
    submit_us: f64,
    lag_ms: f64,
}

impl Record {
    fn within_limit(&self) -> bool {
        self.latency_ms.is_some_and(|ms| ms <= self.kind.limit_ms())
    }
}

/// Books a request's end in `tally`: answered (and checked), rejected,
/// or unanswered (the client stopped waiting at `gave_up`). A reply
/// counts as received no earlier than its submit call returned. A traced
/// request's span is recorded whatever its end, so its `serve.submit`
/// child always has a parent.
fn finish(
    tracer: &Tracer,
    tally: &mut Tally,
    index: usize,
    req: &Req,
    sent: Sent,
    got: Option<Got>,
    gave_up: Instant,
) -> Record {
    tally.attempted += 1;
    let mut record = Record {
        index,
        kind: req.kind,
        latency_ms: None,
        cached: false,
        reply_ms: 0.0,
        submit_us: sent.submit_us,
        lag_ms: sent.lag_ms,
    };
    let end = match (&sent.ticket, got) {
        (Err(_), _) => {
            tally.rejected += 1;
            sent.submit_end
        }
        (Ok(_), None) => {
            tally.unanswered += 1;
            gave_up.max(sent.submit_end)
        }
        (Ok(_), Some(got)) => {
            let wrong = got.wrong + !reference::answers(&req.query, &got.answered) as u64;
            tally.check(|| format!("{:?}", req.query.shape), wrong, got.max_substeps);
            let end = got.at.max(sent.submit_end);
            record.latency_ms = Some((end - sent.start).as_secs_f64() * 1e3);
            record.cached = got.cached;
            record.reply_ms = got.reply_us as f64 / 1e3;
            end
        }
    };
    if sent.traced {
        tracer.record(sent.span, None, sent.span, "request", sent.start, end);
    }
    record
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Collects replies until every sender is gone, or [`DRAIN`] after the
/// generator finished.
fn receive(rx: Receiver<Reply>, expected: &Expected, done: &AtomicBool) -> Vec<(u64, Got)> {
    let mut got = Vec::new();
    let mut drain_until = None;
    loop {
        match rx.recv_timeout(Duration::from_millis(20)) {
            Ok(reply) => {
                let at = Instant::now();
                got.push((reply.id, inspect(expected, &reply, at)));
            }
            Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => {
                if done.load(Ordering::SeqCst) {
                    let until = *drain_until.get_or_insert_with(|| Instant::now() + DRAIN);
                    if Instant::now() >= until {
                        break;
                    }
                }
            }
        }
    }
    got
}

/// Sends `reqs` on a fixed schedule at `rate` per second from one
/// generator thread, invalidating the cache every `invalidate` if given.
fn open_loop(
    c: Client,
    reqs: &[Req],
    rate: f64,
    invalidate: Option<Duration>,
    tally: &mut Tally,
) -> Vec<Record> {
    let (ctx, server) = (c.ctx, c.server);
    let (tx, rx) = mpsc::channel::<Reply>();
    let done = AtomicBool::new(false);
    let (sent, got) = std::thread::scope(|s| {
        let receiver = s.spawn(|| receive(rx, c.expected, &done));
        let tx = tx;
        let start = Instant::now() + Duration::from_millis(10);
        let mut next_invalidation = invalidate.map(|every| start + every);
        let mut sent = Vec::with_capacity(reqs.len());
        for (i, req) in reqs.iter().enumerate() {
            let due = start + Duration::from_secs_f64(i as f64 / rate);
            while let (Some(at), Some(every)) = (next_invalidation, invalidate) {
                if at > due {
                    break;
                }
                sleep_until(at);
                ctx.tracer
                    .time("serve.invalidate", None, ctx.tracer.id(), || server.invalidate_epoch());
                next_invalidation = Some(at + every);
            }
            sleep_until(due);
            // A traced run traces every other request; the rest measure
            // the tracing overhead.
            sent.push(submit(c, req, &tx, due, ctx.tracer.on() && i.is_multiple_of(2)));
        }
        drop(tx);
        done.store(true, Ordering::SeqCst);
        (sent, receiver.join().expect("reply receiver"))
    });
    let gave_up = Instant::now();
    let mut by_id: std::collections::HashMap<u64, Got> = got.into_iter().collect();
    sent.into_iter()
        .zip(reqs)
        .enumerate()
        .map(|(i, (sent, req))| {
            let got = sent.ticket.as_ref().ok().and_then(|id| by_id.remove(id));
            finish(ctx.tracer, tally, i, req, sent, got, gave_up)
        })
        .collect()
}

/// `clients` callers that each wait for their reply before sending the
/// next request, for `duration`. Returns the records and the phase's
/// length in seconds.
fn closed_loop(
    c: Client,
    reqs: &[Req],
    clients: usize,
    duration: Duration,
    invalidate: Option<Duration>,
    tally: &mut Tally,
) -> (Vec<Record>, f64) {
    let (ctx, server) = (c.ctx, c.server);
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let deadline = start + duration;
    let (ended, ended_at) = std::thread::scope(|s| {
        let invalidator = invalidate.map(|every| {
            s.spawn(move || {
                let mut at = start + every;
                while at < deadline {
                    sleep_until(at);
                    ctx.tracer.time("serve.invalidate", None, ctx.tracer.id(), || {
                        server.invalidate_epoch()
                    });
                    at += every;
                }
            })
        });
        let workers: Vec<_> = (0..clients.max(1))
            .map(|_| {
                s.spawn(|| {
                    let (tx, rx) = mpsc::channel::<Reply>();
                    let mut ended = Vec::new();
                    while Instant::now() < deadline {
                        // Relaxed: the counter only hands out indices.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = reqs.get(i) else { break };
                        let traced = ctx.tracer.on() && i.is_multiple_of(2);
                        let sent = submit(c, req, &tx, Instant::now(), traced);
                        let got = match &sent.ticket {
                            Ok(_) => rx
                                .recv_timeout(DRAIN)
                                .ok()
                                .map(|r| inspect(c.expected, &r, Instant::now())),
                            Err(rejection) => {
                                let back_off = rejection.retry_after_us.min(10_000);
                                std::thread::sleep(Duration::from_micros(back_off));
                                None
                            }
                        };
                        ended.push((i, sent, got, Instant::now()));
                    }
                    (ended, Instant::now())
                })
            })
            .collect();
        let mut all = Vec::new();
        let mut last = start;
        for w in workers {
            let (ended, at) = w.join().expect("closed-loop client");
            all.extend(ended);
            last = last.max(at);
        }
        if let Some(h) = invalidator {
            h.join().expect("invalidator");
        }
        (all, last)
    });
    let records = ended
        .into_iter()
        .map(|(i, sent, got, gave_up)| finish(ctx.tracer, tally, i, &reqs[i], sent, got, gave_up))
        .collect();
    (records, (ended_at - start).as_secs_f64())
}

fn latencies(records: &[Record], kind: Kind) -> Vec<f64> {
    records.iter().filter(|r| r.kind == kind).filter_map(|r| r.latency_ms).collect()
}

/// Open-loop p2p latency, `slo_frac`, and closed-loop capacity: the
/// end-to-end metrics of both serving workloads.
fn serving_e2e(out: &mut Outcome, open: &[Record], closed: &[Record], closed_s: f64) {
    let p2p = latencies(open, Kind::P2p);
    let (p50, p95) = (percentile(&p2p, 0.5), percentile(&p2p, 0.95));
    let within = open.iter().filter(|r| r.within_limit()).count();
    let slo = ratio(within as f64, open.len() as f64);
    let completed = closed.iter().filter(|r| r.latency_ms.is_some()).count();
    let capacity = ratio(completed as f64, closed_s);
    out.e2e.set_n("latency_ms_p50", p50, "ms", p2p.len());
    out.e2e.set_n("latency_ms_tail", p95, "ms", p2p.len());
    out.e2e.set_n("slo_frac", slo, "frac", open.len());
    out.e2e.set_n("capacity_qps", capacity, "1/s", completed);
}

/// Re-runs a sample of the uncached open-loop requests directly
/// (isolated, on `scratch`). Returns their solve times, the paired
/// `latency − isolated solve time` per request, and their counters.
fn isolated(
    ctx: &Ctx,
    scratch: &mut SolverScratch,
    expected: &Expected,
    reqs: &[Req],
    open: &[Record],
    tally: &mut Tally,
) -> (Vec<f64>, Vec<f64>, BatchStats) {
    let candidates: Vec<&Record> =
        open.iter().filter(|r| r.latency_ms.is_some() && !r.cached).collect();
    let want = SAMPLE * 5;
    let step = (candidates.len() / want.max(1)).max(1);
    let mut ledger = BatchStats::default();
    let (mut solve_ms, mut waits) = (Vec::new(), Vec::new());
    for r in candidates.iter().step_by(step).take(want) {
        let query = &reqs[r.index].query;
        let (response, ms) = timed_solve(ctx, scratch, query, true, &mut ledger);
        tally.attempted += 1;
        tally.check(
            || format!("isolated {:?}", query.shape),
            reference::wrong_cells(expected, &response),
            reference::max_substeps(&response),
        );
        solve_ms.push(ms);
        waits.push(r.latency_ms.unwrap_or(0.0) - ms);
    }
    (solve_ms, waits, ledger)
}

/// `serve.*` and `solver.*` from the records (`open` first), the
/// server's final statistics and the paired waits.
fn serve_layers(
    out: &mut Outcome,
    open: &[Record],
    closed: &[Record],
    stats: &ServerStats,
    waits: &[f64],
) {
    let all = || open.iter().chain(closed);
    let submits: Vec<f64> = all().map(|r| r.submit_us).collect();
    let replies: Vec<f64> = all().filter(|r| r.latency_ms.is_some()).map(|r| r.reply_ms).collect();
    let lag = open.iter().map(|r| r.lag_ms).fold(0.0, f64::max);
    let t = &stats.totals;
    let layers = &mut out.layers;
    layers.set_n("serve.submit_us_p50", percentile(&submits, 0.5), "us", submits.len());
    layers.set_n("serve.submit_us_p99", percentile(&submits, 0.99), "us", submits.len());
    layers.set_n("serve.wait_ms_p50", median(waits), "ms", waits.len());
    layers.set_n("serve.reply_ms_p50", median(&replies), "ms", replies.len());
    layers.set("serve.cache_hit_rate", stats.cache.hit_rate(), "frac");
    layers.set("serve.cache_evictions", stats.cache.evictions as f64, "count");
    layers.set("serve.rejected", stats.rejected() as f64, "count");
    layers.set("serve.gen_lag_ms_max", lag, "ms");
    layers.set("solver.executed_per_request", t.mean_solves_per_query(), "ratio");
    let deduped = t.solves.saturating_sub(t.unique_solves + stats.cache.hits as usize);
    layers.set("solver.dedup_saved", deduped as f64, "count");
    layers.set("solver.cold_solves", t.cold_solves as f64, "count");
}

/// Tracing overhead of a serving run: traced (even) against untraced
/// (odd) open-loop point-to-point requests that missed the cache, so
/// both sides are the same kind of work.
fn serving_overhead(out: &mut Outcome, open: &[Record]) {
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    for r in open.iter().filter(|r| r.kind == Kind::P2p && !r.cached) {
        if let Some(ms) = r.latency_ms {
            if r.index.is_multiple_of(2) {
                traced.push(ms)
            } else {
                untraced.push(ms)
            }
        }
    }
    out.layers.set("trace.overhead_frac", overhead_frac(&traced, &untraced), "frac");
}

/// A serving workload's generated traffic.
struct Traffic {
    open: Vec<Req>,
    closed: Vec<Req>,
    expected: Expected,
    invalidate: Option<Duration>,
}

/// Runs both phases in one server session and reports the end-to-end
/// metrics (and, traced, the per-layer ones). Returns the open-loop
/// records and the server statistics.
fn serve_traffic(
    ctx: &Ctx,
    scratch: &mut SolverScratch,
    traffic: &Traffic,
    out: &mut Outcome,
) -> (Vec<Record>, ServerStats) {
    let clients = std::thread::available_parallelism().map_or(2, |n| n.get());
    let closed_for = Duration::from_secs_f64(ctx.cfg.seconds * (1.0 - OPEN_SHARE));
    let ((open, closed, closed_s), stats) =
        rs_serve::serve(ctx.solver, &ServerConfig::default(), |server| {
            let c = Client { ctx, server, expected: &traffic.expected };
            let tally = &mut out.tally;
            let open = open_loop(c, &traffic.open, OPEN_RATE, traffic.invalidate, tally);
            let (closed, closed_s) =
                closed_loop(c, &traffic.closed, clients, closed_for, traffic.invalidate, tally);
            ctx.tracer.time("serve.stats", None, ctx.tracer.id(), || server.stats());
            (open, closed, closed_s)
        });
    let lag = open.iter().map(|r| r.lag_ms).fold(0.0, f64::max);
    out.extra.set("gen_lag_ms_max", lag, "ms");
    if lag > GEN_LAG_LIMIT_MS {
        out.invalid = Some(format!("the generator ran {lag:.1} ms behind its schedule"));
    }
    serving_e2e(out, &open, &closed, closed_s);
    if ctx.tracer.on() {
        let (solve_ms, waits, ledger) =
            isolated(ctx, scratch, &traffic.expected, &traffic.open, &open, &mut out.tally);
        serve_layers(out, &open, &closed, &stats, &waits);
        engine_layer(&mut out.layers, &solve_ms, &ledger);
        serving_overhead(out, &open);
    }
    (open, stats)
}

/// Names the serving workloads' open-loop p2p percentiles were
/// specified with.
const SERVE_ALIASES: [(&str, &str); 2] =
    [("latency_ms_p50", "p2p_ms_p50"), ("latency_ms_tail", "p2p_ms_p95")];

pub fn run_unique(ctx: &Ctx, scratch: &mut SolverScratch, out: &mut Outcome) {
    let (open, closed, expected) = unique_pairs(ctx);
    let traffic = Traffic { open, closed, expected, invalidate: None };
    serve_traffic(ctx, scratch, &traffic, out);
    out.aliases.extend(SERVE_ALIASES);
    out.aliases.push(("capacity_qps", "p2p_capacity_qps"));
}

pub fn run_mixed(ctx: &Ctx, scratch: &mut SolverScratch, out: &mut Outcome) {
    let (open, closed, expected) = mixed_requests(ctx);
    let invalidate = Some(INVALIDATE_EVERY);
    let traffic = Traffic { open, closed, expected, invalidate };
    let (open, stats) = serve_traffic(ctx, scratch, &traffic, out);
    for (name, kind) in [("fanout_ms_p50", Kind::Fanout), ("table_ms_p50", Kind::Table)] {
        let ms = latencies(&open, kind);
        out.extra.set_n(name, median(&ms), "ms", ms.len());
    }
    out.extra.set("hit_rate", stats.cache.hit_rate(), "frac");
    out.aliases.extend(SERVE_ALIASES);
}

/// The `serve` layer for traffic that is not otherwise served (the
/// analytics sources): one closed-loop client, one pass over `reqs`.
pub fn serve_layer_closed(
    ctx: &Ctx,
    scratch: &mut SolverScratch,
    expected: &Expected,
    reqs: &[Req],
    out: &mut Outcome,
) {
    let (recs, stats) = rs_serve::serve(ctx.solver, &ServerConfig::default(), |server| {
        let c = Client { ctx, server, expected };
        let (recs, _) = closed_loop(c, reqs, 1, Duration::from_secs(3600), None, &mut out.tally);
        ctx.tracer.time("serve.stats", None, ctx.tracer.id(), || server.stats());
        recs
    });
    let (_, waits, _) = isolated(ctx, scratch, expected, reqs, &recs, &mut out.tally);
    serve_layers(out, &recs, &[], &stats, &waits);
}

/// The `p2p` layer: point-to-point solves executed directly on the
/// `serve-p2p-unique` pairs of the seed.
pub fn p2p_layer(ctx: &Ctx, scratch: &mut SolverScratch, out: &mut Outcome) {
    let (open, _, expected) = unique_pairs(ctx);
    let (mut times, mut edges) = (Vec::new(), 0u64);
    for req in open.iter().take(SAMPLE * 5) {
        let (response, secs) = ctx
            .tracer
            .time("p2p.execute", None, ctx.tracer.id(), || ctx.solver.execute(&req.query, scratch));
        times.push(secs * 1e3);
        edges += response.stats().relaxed_edges;
        out.tally.attempted += 1;
        out.tally.check(
            || format!("direct {:?}", req.query.shape),
            reference::wrong_cells(&expected, &response),
            response.stats().max_substeps_in_step,
        );
    }
    let total_ns = times.iter().sum::<f64>() * 1e6;
    out.layers.set_n("p2p.solve_ms_p50", median(&times), "ms", times.len());
    out.layers.set("p2p.relaxed_edges_mean", ratio(edges as f64, times.len() as f64), "count");
    out.layers.set("p2p.ns_per_relaxed_edge", ratio(total_ns, edges as f64), "ns");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace;

    /// A traced request that never got a reply, with its `serve.submit`
    /// span recorded as [`submit`] records it.
    fn unreplied(tracer: &Tracer, ticket: Result<u64, Rejection>) -> Sent {
        let span = tracer.id();
        let (a, b) = (Instant::now(), Instant::now());
        tracer.record(tracer.id(), Some(span), span, "serve.submit", a, b);
        Sent { start: a, submit_end: b, submit_us: 0.0, lag_ms: 0.0, ticket, span, traced: true }
    }

    #[test]
    fn rejected_and_unanswered_traced_requests_keep_the_span_tree_whole() {
        let tracer = Tracer::new(true);
        let req = Req { query: Query::point_to_point(0, 1), kind: Kind::P2p };
        let rejection = Rejection {
            shape: rs_serve::Shape::PointToPoint,
            closed: false,
            queued: 8,
            retry_after_us: 100,
        };
        let mut tally = Tally::default();
        let rejected = unreplied(&tracer, Err(rejection));
        let unanswered = unreplied(&tracer, Ok(7));
        for (i, sent) in [rejected, unanswered].into_iter().enumerate() {
            let record = finish(&tracer, &mut tally, i, &req, sent, None, Instant::now());
            assert!(record.latency_ms.is_none() && !record.within_limit());
        }
        assert_eq!((tally.attempted, tally.rejected, tally.unanswered), (2, 1, 1));
        assert_eq!(tally.failed(), 2);
        let spans = tracer.into_spans();
        assert_eq!(spans.iter().filter(|s| s.name == "request").count(), 2);
        trace::validate(&spans).unwrap();
    }
}
