//! The serve workloads: `portnum-serve` in this process, driven over
//! TCP by two closed-loop clients (the repository's blocking `Client`,
//! one connection each, matching a two-core host).
//!
//! - `serve_hot`: 8 resident 2048-world `G(n, p)` models; every request
//!   checks 16 of 64 formulas, all cached after warm-up, so the request
//!   path (codec, parse, shard hop, admission pricing) is what costs.
//!   Responses stay under 8 KiB and the memory budget holds everything.
//! - `serve_churn`: 8 models of 16384 worlds, 4 owned by each client,
//!   Check and Delta requests 1:1. A check asks for 7 of 3584 GML
//!   formulas and 1 of 512 µ/ν fixpoints, so most are cold; a delta
//!   removes 4 undirected edges and re-adds the previous 4. Responses
//!   are 16 KiB and the memory budget is below the working set, so
//!   models are evicted and a `NoSuchModel` answer makes the client
//!   reload the model and retry.
//!
//! Every answer is logged (as digests) and checked after the timed
//! window against `evaluate_packed_recursive` on a client-side mirror
//! that applies the same deltas and resets on reload. A traced run also
//! replays each logged request through the public functions the shard
//! calls, against the mirror, and attributes the client-observed time.

use crate::engine::{self, gnp_p, RoundModels};
use crate::hostprobe::HostProbe;
use crate::oracle::digest;
use crate::stats::{self, Report};
use crate::{formulas, layers, E2e, Opts};
use portnum_bench::workloads;
use portnum_logic::{
    evaluate_packed_recursive, parse, CheckerCache, Formula, Kripke, ModalIndex, ModelChecker,
};
use portnum_serve::{
    admission, Client, DeltaSpec, ErrorCode, ModelSpec, Request, Response, ServeConfig, Server,
    ServerStats,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::io::Write as _;
use std::thread;
use std::time::Instant;

const SHARDS: usize = 2;
/// One client per shard (see [`owner`]).
const CLIENTS: usize = SHARDS;
const QUEUE: usize = 128;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Round trips per side of the 8 KiB step probe.
const STEP_PROBE_REPS: usize = 15;
/// Segments of the timed window (an even count, so a traced run splits
/// it evenly).
const SEGMENTS: usize = 8;
/// Single-edge flips per engine round on the mirror.
const PROBE_FLIPS: usize = 8;

/// The shape of one serve workload.
#[derive(Debug, Clone, Copy)]
struct Params {
    worlds: u64,
    models: u64,
    pool: usize,
    /// Formulas per Check request.
    batch: usize,
    /// Every `fixpoint_every`-th pool formula is a µ/ν fixpoint, and a
    /// batch carries exactly one of them (0: no fixpoints).
    fixpoint_every: usize,
    /// Check and Delta 1:1 on owned models (else checks on any model).
    churn: bool,
    /// Undirected edges each delta removes (and re-adds).
    flip_edges: usize,
    mem_budget: usize,
    /// Deltas per client in the pauses between window segments
    /// (`serve_hot` has none in the segments themselves).
    delta_probe: usize,
    /// Engine rounds on a mirror model for the library metrics.
    probe_rounds: usize,
    /// Untimed traffic between set-up and the window, in seconds.
    warmup_s: f64,
}

fn params(workload: &str, smoke: bool) -> Params {
    let hot = Params {
        worlds: 2048,
        models: 8,
        pool: 64,
        batch: 16,
        fixpoint_every: 0,
        churn: false,
        flip_edges: 4,
        mem_budget: 256 << 20,
        delta_probe: 8192,
        probe_rounds: 64,
        warmup_s: 0.0,
    };
    let churn = Params {
        worlds: 16384,
        models: 8,
        pool: 4096,
        batch: 8,
        fixpoint_every: 8,
        churn: true,
        flip_edges: 4,
        mem_budget: 12 << 20,
        delta_probe: 0,
        probe_rounds: 24,
        warmup_s: 3.0,
    };
    match (workload, smoke) {
        ("serve_hot", false) => hot,
        ("serve_hot", true) => Params {
            worlds: 512,
            delta_probe: 32,
            probe_rounds: 2,
            ..hot
        },
        ("serve_churn", false) => churn,
        ("serve_churn", true) => Params {
            worlds: 8192,
            pool: 512,
            mem_budget: 4 << 20,
            probe_rounds: 2,
            warmup_s: 0.5,
            ..churn
        },
        _ => unreachable!("not a serve workload: {workload}"),
    }
}

/// Which part of the run an operation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Setup,
    Untraced,
    Traced,
    /// Between window segments: `serve_hot`'s deltas and full checks.
    Probe,
    /// After the window: the 8 KiB step probe of a traced `serve_churn`.
    Step,
}

#[derive(Debug, Clone)]
enum Req {
    Check(Vec<u16>),
    Delta(DeltaSpec),
    Load,
}

#[derive(Debug, Clone)]
enum Answer {
    Truths { digests: Vec<u64>, bytes: usize },
    Applied { version: u64, touched: u64 },
    Loaded,
    Missing,
    Failed(String),
}

/// One request/response round trip.
#[derive(Debug, Clone)]
struct Step {
    req: Req,
    answer: Answer,
    /// Client-observed round trip.
    ns: u64,
}

/// One client operation: a check or delta, including any
/// `NoSuchModel` → reload → retry it needed.
#[derive(Debug, Clone)]
struct Op {
    phase: Phase,
    model: u64,
    delta: bool,
    start_ns: u64,
    end_ns: u64,
    steps: Vec<Step>,
}

impl Op {
    fn ok(&self) -> bool {
        matches!(
            self.steps.last().map(|s| &s.answer),
            Some(Answer::Truths { .. } | Answer::Applied { .. } | Answer::Loaded)
        )
    }

    fn reloads(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s.req, Req::Load))
            .count()
    }
}

/// Body size of a `Truths` response: opcode, world count, vector count,
/// then each vector's length prefix and words.
fn truths_bytes(vectors: &[Vec<u64>]) -> usize {
    1 + 8 + 4 + vectors.iter().map(|v| 4 + 8 * v.len()).sum::<usize>()
}

/// Everything the clients share, read-only.
struct Shared<'a> {
    p: Params,
    pool: &'a [Formula],
    specs: &'a [ModelSpec],
    /// Each model's undirected edges `(v, w)`, `v < w`, before any delta.
    edges: &'a [Vec<(u32, u32)>],
    epoch: Instant,
}

struct Worker<'a> {
    shared: &'a Shared<'a>,
    client: Client,
    rng: StdRng,
    /// Owned models and the edges each currently has removed.
    owned: Vec<(u64, Vec<(u32, u32)>)>,
    /// Edges the delta in flight removes; they become the model's
    /// removed set once it applies.
    pending: Vec<(u32, u32)>,
    log: Vec<Op>,
}

impl<'a> Worker<'a> {
    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.shared.epoch).as_nanos() as u64
    }

    /// Sends one request; returns the answer and when it was sent and
    /// answered. Digesting a `Truths` answer happens after the clock
    /// stops.
    fn step(&mut self, model: u64, req: Req) -> (Step, Instant, Instant) {
        let request = match &req {
            Req::Check(idx) => Request::Check {
                model,
                formulas: idx
                    .iter()
                    .map(|&i| self.shared.pool[i as usize].clone())
                    .collect(),
            },
            Req::Delta(spec) => Request::Delta {
                model,
                delta: spec.clone(),
            },
            Req::Load => Request::Load {
                model,
                spec: self.shared.specs[model as usize].clone(),
            },
        };
        let sent = Instant::now();
        let result = self.client.call(&request);
        let answered = Instant::now();
        let answer = match result {
            Ok(Response::Truths { vectors, .. }) => Answer::Truths {
                digests: vectors.iter().map(|v| digest(v)).collect(),
                bytes: truths_bytes(&vectors),
            },
            Ok(Response::DeltaApplied {
                version, touched, ..
            }) => Answer::Applied { version, touched },
            Ok(Response::Loaded { .. }) => Answer::Loaded,
            Ok(Response::Error(e)) if e.code == ErrorCode::NoSuchModel => Answer::Missing,
            Ok(Response::Error(e)) => Answer::Failed(format!("error frame: {e}")),
            Ok(other) => Answer::Failed(format!("unexpected response {other:?}")),
            Err(e) => Answer::Failed(format!("client error: {e}")),
        };
        let ns = answered.duration_since(sent).as_nanos() as u64;
        (Step { req, answer, ns }, sent, answered)
    }

    fn owned_removed(&mut self, model: u64) -> &mut Vec<(u32, u32)> {
        &mut self
            .owned
            .iter_mut()
            .find(|(id, _)| *id == model)
            .expect("deltas go to owned models")
            .1
    }

    /// Removes `flip_edges` edges not currently removed and re-adds the
    /// ones the previous delta removed.
    fn next_delta(&mut self, model: u64) -> (DeltaSpec, Vec<(u32, u32)>) {
        let base = &self.shared.edges[model as usize];
        let k = self.shared.p.flip_edges;
        let removed = self.owned_removed(model).clone();
        let mut fresh: Vec<(u32, u32)> = Vec::with_capacity(k);
        while fresh.len() < k {
            let e = base[self.rng.random_range(0..base.len())];
            if !removed.contains(&e) && !fresh.contains(&e) {
                fresh.push(e);
            }
        }
        let arcs = |edges: &[(u32, u32)]| -> Vec<(ModalIndex, u32, u32)> {
            edges
                .iter()
                .flat_map(|&(v, w)| [(ModalIndex::Any, v, w), (ModalIndex::Any, w, v)])
                .collect()
        };
        let spec = DeltaSpec {
            add: arcs(&removed),
            remove: arcs(&fresh),
            ..DeltaSpec::default()
        };
        (spec, fresh)
    }

    fn draw_batch(&mut self) -> Vec<u16> {
        let p = self.shared.p;
        let mut idx: Vec<u16> = Vec::with_capacity(p.batch);
        let fixpoints = usize::from(p.fixpoint_every > 0);
        while idx.len() < p.batch - fixpoints {
            let i = self.rng.random_range(0..p.pool);
            let is_fixpoint = p.fixpoint_every > 0 && i % p.fixpoint_every == p.fixpoint_every - 1;
            if !is_fixpoint && !idx.contains(&(i as u16)) {
                idx.push(i as u16);
            }
        }
        if fixpoints == 1 {
            let k = self.rng.random_range(0..p.pool / p.fixpoint_every);
            idx.push((k * p.fixpoint_every + p.fixpoint_every - 1) as u16);
        }
        idx
    }

    /// Runs one operation, reloading and retrying (at most twice) on
    /// `NoSuchModel`.
    fn op(&mut self, phase: Phase, model: u64, first: Req) {
        let delta = matches!(first, Req::Delta(_));
        let mut req = first;
        let mut steps = Vec::with_capacity(1);
        let mut start = None;
        let mut end = Instant::now();
        for attempt in 0..3 {
            let (s, sent, answered) = self.step(model, req.clone());
            start.get_or_insert(sent);
            end = answered;
            let missing = matches!(s.answer, Answer::Missing);
            steps.push(s);
            if !missing || attempt == 2 {
                break;
            }
            let (s, _, answered) = self.step(model, Req::Load);
            end = answered;
            let loaded = matches!(s.answer, Answer::Loaded);
            steps.push(s);
            if !loaded {
                break;
            }
            // The reload restored every edge.
            if let Some((_, removed)) = self.owned.iter_mut().find(|(id, _)| *id == model) {
                removed.clear();
            }
            if delta {
                let (spec, fresh) = self.next_delta(model);
                self.pending = fresh;
                req = Req::Delta(spec);
            }
        }
        if delta
            && matches!(
                steps.last().map(|s| &s.answer),
                Some(Answer::Applied { .. })
            )
        {
            let fresh = std::mem::take(&mut self.pending);
            *self.owned_removed(model) = fresh;
        }
        let start = start.expect("at least one attempt");
        let op = Op {
            phase,
            model,
            delta,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            steps,
        };
        self.log.push(op);
    }

    fn check(&mut self, phase: Phase, model: u64) {
        let idx = self.draw_batch();
        self.op(phase, model, Req::Check(idx));
    }

    fn delta(&mut self, phase: Phase, model: u64) {
        let (spec, fresh) = self.next_delta(model);
        self.pending = fresh;
        self.op(phase, model, Req::Delta(spec));
    }

    /// Loads every owned model; `serve_hot` also checks the whole pool
    /// on each, so every later request is a cache hit.
    fn setup(&mut self) {
        let owned: Vec<u64> = self.owned.iter().map(|(id, _)| *id).collect();
        for &model in &owned {
            let (s, sent, answered) = self.step(model, Req::Load);
            let (start_ns, end_ns) = (self.ns(sent), self.ns(answered));
            self.log.push(Op {
                phase: Phase::Setup,
                model,
                delta: false,
                start_ns,
                end_ns,
                steps: vec![s],
            });
        }
        if !self.shared.p.churn {
            self.full_checks(Phase::Setup, &owned);
        }
    }

    fn full_checks(&mut self, phase: Phase, models: &[u64]) {
        let p = self.shared.p;
        for &model in models {
            for chunk in (0..p.pool as u16).collect::<Vec<_>>().chunks(p.batch) {
                self.op(phase, model, Req::Check(chunk.to_vec()));
            }
        }
    }

    /// Closed-loop traffic until `until`.
    fn window(&mut self, phase: Phase, until: Instant) {
        let mut i = 0usize;
        while Instant::now() < until {
            if self.shared.p.churn {
                let model = self.owned[self.rng.random_range(0..self.owned.len())].0;
                if i.is_multiple_of(2) {
                    self.check(phase, model);
                } else {
                    self.delta(phase, model);
                }
            } else {
                let model = self.rng.random_range(0..self.shared.p.models);
                self.check(phase, model);
            }
            i += 1;
        }
    }

    /// `count` of `serve_hot`'s deltas on owned models, then a full
    /// check of each, which proves the repaired caches against the
    /// oracle.
    fn delta_probe(&mut self, count: usize) {
        let owned: Vec<u64> = self.owned.iter().map(|(id, _)| *id).collect();
        for i in 0..count {
            self.delta(Phase::Probe, owned[i % owned.len()]);
        }
        self.full_checks(Phase::Probe, &owned);
    }
}

impl Worker<'_> {
    /// Formulas per check whose response body, with its 4-byte length
    /// prefix, still fits the server's 8 KiB write buffer.
    fn under_8k(&self) -> usize {
        let words = (self.shared.p.worlds as usize).div_ceil(64);
        (8192 - 4 - 13) / (4 + 8 * words)
    }

    /// Alternates cached checks whose response is just under and just
    /// over 8 KiB: the step between them is the write-path stall.
    fn step_probe(&mut self, reps: usize) {
        let model = self.owned[0].0;
        let under = self.under_8k();
        for i in 0..2 * (reps + 1) {
            let k = under + i % 2;
            self.op(Phase::Step, model, Req::Check((0..k as u16).collect()));
        }
    }
}

/// Runs `f` on every worker, one thread each, and returns them.
fn par<'a>(workers: Vec<Worker<'a>>, f: impl Fn(&mut Worker<'a>) + Sync) -> Vec<Worker<'a>> {
    thread::scope(|s| {
        let handles: Vec<_> = workers
            .into_iter()
            .map(|mut w| {
                let f = &f;
                s.spawn(move || {
                    f(&mut w);
                    w
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Client `c` owns the models on shard `c`, so a client's requests never
/// queue behind the other client's on a shard: a `serve_churn` tail is
/// the client's own reloads, not a collision of the two.
fn owner(model: u64) -> usize {
    (model % SHARDS as u64) as usize
}

fn config(p: &Params) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: SHARDS,
        mem_budget: p.mem_budget,
        max_cost: None,
        deadline_ms: None,
        queue_cap: QUEUE,
    }
}

/// Starts a server and brings it to steady state: loads (and for
/// `serve_hot` warms) every model.
fn start<'a>(shared: &'a Shared<'a>, seed: u64) -> (Server, Vec<Worker<'a>>) {
    let server = Server::start(config(&shared.p)).expect("binding a loopback port");
    let workers: Vec<Worker<'a>> = (0..CLIENTS)
        .map(|c| Worker {
            shared,
            client: Client::connect(server.addr()).expect("connecting to the in-process server"),
            rng: StdRng::seed_from_u64(seed ^ (0xc11e ^ c as u64).wrapping_mul(0x9e37_79b9)),
            owned: (0..shared.p.models)
                .filter(|&m| owner(m) == c)
                .map(|m| (m, Vec::new()))
                .collect(),
            log: Vec::new(),
            pending: Vec::new(),
        })
        .collect();
    let workers = par(workers, Worker::setup);
    (server, workers)
}

fn stats_of(worker: &mut Worker<'_>) -> ServerStats {
    worker.client.stats().expect("the Stats request answers")
}

/// Server counters accumulated between two snapshots.
fn stats_delta(a: &ServerStats, b: &ServerStats) -> ServerStats {
    ServerStats {
        evictions: b.evictions - a.evictions,
        cache_trims: b.cache_trims - a.cache_trims,
        loads: b.loads - a.loads,
        shed: b.shed - a.shed,
        interrupted: b.interrupted - a.interrupted,
        internal_errors: b.internal_errors - a.internal_errors,
        mem_bytes: b.mem_bytes,
        ..ServerStats::default()
    }
}

/// Per-model mirror state during verification and replay.
struct Mirror {
    model: Kripke,
    /// Bumped on every delta and reload: keys the oracle memo.
    state: u64,
    cache: Option<CheckerCache>,
}

/// Span names of the replay, one per public function the shard (or the
/// client) calls.
const REQUEST_ENCODE: &str = "serve.protocol.request_encode";
const REQUEST_DECODE: &str = "serve.protocol.request_decode";
const PARSE: &str = "logic.parser.parse";
const RESUME: &str = "logic.plan.resume";
const ESTIMATE: &str = "serve.admission.estimate";
const CHECK_SUITE: &str = "logic.plan.check_suite";
const DETACH: &str = "logic.plan.detach";
const ACCOUNT: &str = "serve.cache.account";
const RESPONSE_ENCODE: &str = "serve.protocol.response_encode";
const RESPONSE_DECODE: &str = "serve.protocol.response_decode";
const APPLY_DELTA: &str = "logic.kripke.apply_delta";
const REPAIR: &str = "logic.plan.repair";
const SPEC_BUILD: &str = "logic.kripke.spec_build";
const CLIENT_OP: &str = "client.op";
const CLIENT_STEP: &str = "client.step";

/// Which kind of answered step a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum StepKind {
    Check,
    Delta,
    /// Loads, `NoSuchModel` answers, client spans.
    #[default]
    Other,
}

/// One recorded span. Client spans are on the run's clock; replay spans
/// on the replay's, parented to the client step they explain.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: usize,
    kind: StepKind,
}

impl Span {
    fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Counters the replay reads off the engine.
#[derive(Debug, Default, Clone, Copy)]
struct EngineCounts {
    formulas: usize,
    computed: usize,
    dedup_hits: usize,
    csc_diamonds: usize,
    forward_diamonds: usize,
    repaired_vectors: usize,
    repaired_worlds: usize,
    rebuilt_vectors: usize,
}

#[derive(Default)]
struct Replay {
    /// Spans and counts are kept only for traced operations; the others
    /// are replayed just to keep the mirror's cache in step.
    recording: bool,
    /// The kind of step being replayed, stamped on its spans.
    kind: StepKind,
    spans: Vec<Span>,
    epoch: Option<Instant>,
    /// Counted over traced operations only.
    counts: EngineCounts,
    check_steps: usize,
    delta_steps: usize,
    /// Per traced op: client-observed minus replayed, in µs.
    residual_us: Vec<f64>,
    observed_us: Vec<f64>,
    replayed_us: Vec<f64>,
    spec_build_ms: Vec<f64>,
}

impl Replay {
    fn now(&mut self) -> u64 {
        self.epoch
            .get_or_insert_with(Instant::now)
            .elapsed()
            .as_nanos() as u64
    }

    /// Times `f` as a span named `name` under `parent`.
    fn time<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        request: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        self.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            request,
            kind: self.kind,
        });
        out
    }

    /// Records `span` when recording; returns its index.
    fn push(&mut self, span: Span) -> usize {
        if self.recording {
            self.spans.push(span);
        }
        self.spans.len().wrapping_sub(1)
    }

    /// Mean µs of the spans named `name` in steps of `kind`, over
    /// `steps` such steps.
    fn mean_us(&self, name: &str, kind: StepKind, steps: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.kind == kind)
            .map(Span::us)
            .sum::<f64>()
            / steps.max(1) as f64
    }
}

/// What verification found.
#[derive(Default)]
struct Verdict {
    wrong_ops: usize,
    problems: Vec<String>,
}

fn wrong(v: &mut Verdict, what: String) {
    v.wrong_ops += 1;
    if v.problems.len() < 20 {
        v.problems.push(what);
    }
}

/// Replays the shard's handling of one `Check` on the mirror, timing
/// each public call; returns the digests the replay computed.
fn replay_check(
    replay: &mut Replay,
    cfg: &ServeConfig,
    mirror: &mut Mirror,
    model: u64,
    formulas: &[Formula],
    parent: usize,
    request: usize,
) -> Vec<u64> {
    let strings: Vec<String> = formulas.iter().map(ToString::to_string).collect();
    let req = Request::Check {
        model,
        formulas: formulas.to_vec(),
    };
    let bytes = replay.time(REQUEST_ENCODE, parent, request, || req.encode());
    let decode_span = replay.spans.len();
    let decoded = replay.time(REQUEST_DECODE, parent, request, || Request::decode(&bytes));
    // The decode above parsed every formula; time the parse alone too,
    // as the decode span's child.
    replay.time(PARSE, decode_span, request, || {
        for s in &strings {
            std::hint::black_box(parse(s).expect("served formulas parse"));
        }
    });
    let Ok(Request::Check {
        formulas: decoded, ..
    }) = decoded
    else {
        panic!("a Check request round-trips")
    };
    // Like the shard, a traced check lowers the freshly decoded formulas,
    // which the checker then keeps alive. An untraced one, replayed only
    // to keep the mirror's cache in step, reuses the pool's formulas, so
    // the replay does not double the memory that retention costs.
    let formulas = if replay.recording {
        decoded
    } else {
        formulas.to_vec()
    };
    let cache = mirror.cache.take();
    let mut checker = replay.time(RESUME, parent, request, || match cache {
        Some(c) => ModelChecker::resume(&mirror.model, c, &[]),
        None => ModelChecker::new(&mirror.model),
    });
    let before = checker.stats();
    let ctl = replay.time(ESTIMATE, parent, request, || {
        let estimate = checker
            .estimate_work(&formulas)
            .expect("served formulas lower") as u64;
        assert_eq!(
            admission::admit(cfg, estimate),
            admission::Admission::Admit,
            "no cost cap is set"
        );
        admission::control_for(cfg).0
    });
    let vectors = replay.time(CHECK_SUITE, parent, request, || {
        let half = formulas.len() / 2;
        let mut v = checker
            .check_suite_controlled(&formulas[..half], &ctl)
            .expect("unbounded check");
        v.extend(
            checker
                .check_suite_controlled(&formulas[half..], &ctl)
                .expect("unbounded check"),
        );
        v.iter().map(|b| b.words().to_vec()).collect::<Vec<_>>()
    });
    let after = checker.stats();
    let cache = replay.time(DETACH, parent, request, || checker.detach());
    replay.time(ACCOUNT, parent, request, || {
        std::hint::black_box(cache.cached_words())
    });
    mirror.cache = Some(cache);
    let digests: Vec<u64> = vectors.iter().map(|v| digest(v)).collect();
    let worlds = mirror.model.len() as u64;
    let resp = Response::Truths { worlds, vectors };
    let body = replay.time(RESPONSE_ENCODE, parent, request, || resp.encode());
    replay.time(RESPONSE_DECODE, parent, request, || {
        std::hint::black_box(Response::decode(&body).is_ok())
    });
    if replay.recording {
        let c = &mut replay.counts;
        c.formulas += formulas.len();
        c.computed += after.computed - before.computed;
        c.dedup_hits += after.dedup_hits - before.dedup_hits;
        c.csc_diamonds += after.csc_diamonds - before.csc_diamonds;
        c.forward_diamonds += after.forward_diamonds - before.forward_diamonds;
        replay.check_steps += 1;
    }
    digests
}

/// Replays request and response coding around a step whose shard work
/// is not replayed separately (`NoSuchModel`, `Load`).
fn replay_codec(
    replay: &mut Replay,
    req: &Request,
    resp: &Response,
    parent: usize,
    request: usize,
) {
    let bytes = replay.time(REQUEST_ENCODE, parent, request, || req.encode());
    replay.time(REQUEST_DECODE, parent, request, || {
        std::hint::black_box(Request::decode(&bytes).is_ok())
    });
    let body = replay.time(RESPONSE_ENCODE, parent, request, || resp.encode());
    replay.time(RESPONSE_DECODE, parent, request, || {
        std::hint::black_box(Response::decode(&body).is_ok())
    });
}

/// Checks every logged answer against the oracle on the mirrors, in the
/// order the server answered; with `replay`, also re-runs each request
/// through the shard's public calls and records spans.
#[allow(clippy::too_many_lines)]
fn verify(
    shared: &Shared<'_>,
    ops: &[&Op],
    base: &[Kripke],
    mut replay: Option<&mut Replay>,
) -> Verdict {
    let cfg = config(&shared.p);
    let mut v = Verdict::default();
    let mut state_ids = 0u64;
    let mut mirrors: Vec<Mirror> = base
        .iter()
        .map(|m| Mirror {
            model: m.clone(),
            state: u64::MAX,
            cache: None,
        })
        .collect();
    let mut memo: HashMap<(u64, u64, u16), u64> = HashMap::new();
    for (request, op) in ops.iter().enumerate() {
        let id = op.model as usize;
        let counted = traced_phase(op.phase);
        let op_span = replay.as_deref_mut().map(|r| {
            r.recording = counted;
            r.push(Span {
                name: CLIENT_OP,
                start_ns: op.start_ns,
                end_ns: op.end_ns,
                parent: None,
                request,
                kind: StepKind::Other,
            })
        });
        let first_replay_span = replay.as_deref().map_or(0, |r| r.spans.len());
        let mut bad = false;
        for step in &op.steps {
            let step_span = replay.as_deref_mut().zip(op_span).map(|(r, parent)| {
                r.push(Span {
                    name: CLIENT_STEP,
                    start_ns: 0,
                    end_ns: step.ns,
                    parent: Some(parent),
                    request,
                    kind: StepKind::Other,
                })
            });
            let mirror = &mut mirrors[id];
            if let Some(r) = replay.as_deref_mut() {
                r.kind = match (&step.req, &step.answer) {
                    (Req::Check(_), Answer::Truths { .. }) => StepKind::Check,
                    (Req::Delta(_), Answer::Applied { .. }) => StepKind::Delta,
                    _ => StepKind::Other,
                };
            }
            match (&step.req, &step.answer) {
                (_, Answer::Failed(why)) => {
                    bad = true;
                    wrong(&mut v, format!("model {id}: {why}"));
                }
                (Req::Load, Answer::Loaded) => {
                    let fresh = match replay.as_deref_mut().zip(step_span) {
                        Some((r, parent)) => {
                            let spec = &shared.specs[id];
                            let t = Instant::now();
                            let model = r.time(SPEC_BUILD, parent, request, || {
                                spec.build().expect("specs build")
                            });
                            r.spec_build_ms.push(t.elapsed().as_secs_f64() * 1e3);
                            let req = Request::Load {
                                model: op.model,
                                spec: spec.clone(),
                            };
                            let resp = Response::Loaded {
                                model: op.model,
                                worlds: model.len() as u64,
                                version: 0,
                            };
                            replay_codec(r, &req, &resp, parent, request);
                            model
                        }
                        None => base[id].clone(),
                    };
                    state_ids += 1;
                    *mirror = Mirror {
                        model: fresh,
                        state: state_ids,
                        cache: None,
                    };
                }
                (Req::Check(idx), Answer::Truths { digests, bytes }) => {
                    let formulas: Vec<Formula> = idx
                        .iter()
                        .map(|&i| shared.pool[i as usize].clone())
                        .collect();
                    if let Some((r, parent)) = replay.as_deref_mut().zip(step_span) {
                        let replayed =
                            replay_check(r, &cfg, mirror, op.model, &formulas, parent, request);
                        if &replayed != digests {
                            bad = true;
                            wrong(
                                &mut v,
                                format!(
                                    "model {id}: replayed verdicts differ from the served ones"
                                ),
                            );
                        }
                    }
                    let words = (mirror.model.len() as u64).div_ceil(64) as usize;
                    if *bytes != 13 + idx.len() * (4 + 8 * words) || digests.len() != idx.len() {
                        bad = true;
                        wrong(
                            &mut v,
                            format!("model {id}: a Truths answer has the wrong shape"),
                        );
                    }
                    for (j, (&i, &got)) in idx.iter().zip(digests).enumerate() {
                        let want = *memo.entry((op.model, mirror.state, i)).or_insert_with(|| {
                            digest(
                                evaluate_packed_recursive(&mirror.model, &formulas[j])
                                    .expect("oracle evaluates")
                                    .words(),
                            )
                        });
                        if got != want {
                            bad = true;
                            wrong(
                                &mut v,
                                format!("model {id}: wrong verdict for {}", formulas[j]),
                            );
                        }
                    }
                }
                (Req::Delta(spec), Answer::Applied { version, touched }) => {
                    let delta = spec.to_delta();
                    let changed = match replay.as_deref_mut().zip(step_span) {
                        Some((r, parent)) => {
                            let req = Request::Delta {
                                model: op.model,
                                delta: spec.clone(),
                            };
                            let bytes = r.time(REQUEST_ENCODE, parent, request, || req.encode());
                            r.time(REQUEST_DECODE, parent, request, || {
                                std::hint::black_box(Request::decode(&bytes).is_ok())
                            });
                            let changed = r.time(APPLY_DELTA, parent, request, || {
                                mirror.model.apply_delta(&delta)
                            });
                            if let (Ok(t), Some(cache)) = (&changed, mirror.cache.take()) {
                                let checker = r.time(REPAIR, parent, request, || {
                                    ModelChecker::resume(&mirror.model, cache, t)
                                });
                                if r.recording {
                                    if let Some(rep) = checker.last_repair() {
                                        r.counts.repaired_vectors += rep.repaired_vectors;
                                        r.counts.repaired_worlds += rep.repaired_worlds;
                                        r.counts.rebuilt_vectors += rep.rebuilt_vectors;
                                    }
                                }
                                mirror.cache =
                                    Some(r.time(DETACH, parent, request, || checker.detach()));
                            }
                            if r.recording {
                                r.delta_steps += 1;
                            }
                            let resp = Response::DeltaApplied {
                                model: op.model,
                                version: mirror.model.version(),
                                touched: changed.as_ref().map_or(0, |t| t.len() as u64),
                            };
                            let body = r.time(RESPONSE_ENCODE, parent, request, || resp.encode());
                            r.time(RESPONSE_DECODE, parent, request, || {
                                std::hint::black_box(Response::decode(&body).is_ok())
                            });
                            changed
                        }
                        None => mirror.model.apply_delta(&delta),
                    };
                    state_ids += 1;
                    mirror.state = state_ids;
                    match changed {
                        Ok(t)
                            if t.len() as u64 == *touched && mirror.model.version() == *version => {
                        }
                        Ok(t) => {
                            bad = true;
                            wrong(&mut v, format!(
                                "model {id}: delta answered version {version}, {touched} touched; mirror says {}, {}",
                                mirror.model.version(),
                                t.len()
                            ));
                        }
                        Err(e) => {
                            bad = true;
                            wrong(
                                &mut v,
                                format!("model {id}: the mirror rejects a served delta: {e}"),
                            );
                        }
                    }
                }
                (req, Answer::Missing) => {
                    if let Some((r, parent)) = replay.as_deref_mut().zip(step_span) {
                        let req = match req {
                            Req::Check(idx) => Request::Check {
                                model: op.model,
                                formulas: idx
                                    .iter()
                                    .map(|&i| shared.pool[i as usize].clone())
                                    .collect(),
                            },
                            Req::Delta(spec) => Request::Delta {
                                model: op.model,
                                delta: spec.clone(),
                            },
                            Req::Load => Request::Evict { model: op.model },
                        };
                        let resp = Response::error(
                            ErrorCode::NoSuchModel,
                            format!("model {id} is not loaded"),
                        );
                        replay_codec(r, &req, &resp, parent, request);
                    }
                }
                (req, answer) => {
                    bad = true;
                    wrong(
                        &mut v,
                        format!("model {id}: {answer:?} does not answer {req:?}"),
                    );
                }
            }
        }
        if let Some(r) = replay.as_deref_mut() {
            if counted {
                let observed = (op.end_ns - op.start_ns) as f64 / 1e3;
                let replayed: f64 = r.spans[first_replay_span..]
                    .iter()
                    .filter(|s| s.name != CLIENT_STEP && s.name != PARSE)
                    .map(Span::us)
                    .sum();
                r.observed_us.push(observed);
                r.replayed_us.push(replayed);
                r.residual_us.push(observed - replayed);
            }
        }
        if bad {
            v.wrong_ops = v.wrong_ops.max(1);
        }
    }
    v
}

/// Check and delta latencies of one phase's operations, as (start ns,
/// latency µs), and the share of them that succeeded.
type Samples = Vec<(u64, f64)>;

fn phase_samples(ops: &[&Op], phase: Phase) -> (Samples, Samples, f64) {
    let mine: Vec<&&Op> = ops.iter().filter(|o| o.phase == phase).collect();
    let lat = |delta: bool| -> Samples {
        mine.iter()
            .filter(|o| o.delta == delta)
            .map(|o| (o.start_ns, (o.end_ns - o.start_ns) as f64 / 1e3))
            .collect()
    };
    let ok = mine.iter().filter(|o| o.ok()).count() as f64 / mine.len().max(1) as f64;
    (lat(false), lat(true), ok)
}

/// Samples a window part needs before its own p99 counts.
const PART_P99_MIN: usize = 1000;

/// The p99 a run reports. The run splits into parts at the segment
/// starts `marks` (a pause belongs to the segment before it). When every
/// part with samples holds at least [`PART_P99_MIN`] of them, the p99
/// is the median of the parts' p99s, so one slow spell of the host sets
/// at most its own part's; otherwise it is the p99 of all samples.
fn run_p99(samples: &[(u64, f64)], marks: &[u64]) -> f64 {
    let mut parts: Vec<Vec<f64>> = vec![Vec::new(); marks.len().max(1)];
    for &(start, v) in samples {
        let part = marks.partition_point(|&m| m <= start).saturating_sub(1);
        parts[part].push(v);
    }
    parts.retain(|p| !p.is_empty());
    if parts.len() >= 2 && parts.iter().all(|p| p.len() >= PART_P99_MIN) {
        let p99s: Vec<f64> = parts.iter().map(|p| stats::summarize(p).p99).collect();
        stats::median(&p99s)
    } else {
        let all: Vec<f64> = samples.iter().map(|&(_, v)| v).collect();
        stats::summarize(&all).p99
    }
}

fn undirected_edges(model: &Kripke) -> Vec<(u32, u32)> {
    (0..model.len())
        .flat_map(|v| {
            model
                .successors_dense(0, v)
                .iter()
                .filter(move |&&w| (v as u32) < w)
                .map(move |&w| (v as u32, w))
        })
        .collect()
}

/// The engine rounds a serve workload runs on a mirror of its model 0.
struct Prober {
    suite: Vec<Formula>,
    model: Kripke,
    fix: Kripke,
    refine: Kripke,
    rounds: Vec<engine::Round>,
}

impl Prober {
    /// Runs `count` recorded rounds after one unrecorded one: the
    /// segment before left the caches full of the server's data, and
    /// the first round after it would time the refill.
    fn run(&mut self, count: usize, fixpoint: &Formula, rng: &mut StdRng) {
        for i in 0..=count {
            let oracle = i == 1 && self.rounds.is_empty();
            let models = RoundModels {
                suite: &mut self.model,
                fixpoint: &self.fix,
                refine: &self.refine,
            };
            let r = engine::round(models, &self.suite, fixpoint, PROBE_FLIPS, rng, oracle);
            if i > 0 {
                self.rounds.push(r);
            }
        }
    }
}

/// Runs `serve_hot` or `serve_churn`.
#[allow(clippy::too_many_lines)]
pub fn run(opts: &Opts, workload: &str, report: &mut Report) {
    let p = params(workload, opts.smoke);
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x5e7e);
    let pool = formulas::pool(&mut rng, p.pool, p.fixpoint_every);
    let specs: Vec<ModelSpec> = (0..p.models)
        .map(|m| {
            ModelSpec::gnp(
                p.worlds,
                gnp_p(p.worlds as usize),
                opts.seed.wrapping_mul(31).wrapping_add(m),
            )
        })
        .collect();

    // Client-side mirrors, built by the same `ModelSpec::build` a Load
    // runs (two at a time).
    let mut spec_build_ms = Vec::new();
    let mut base: Vec<Kripke> = Vec::new();
    for pair in specs.chunks(CLIENTS) {
        let built: Vec<(Kripke, f64)> = thread::scope(|s| {
            let hs: Vec<_> = pair
                .iter()
                .map(|spec| {
                    s.spawn(move || {
                        let t = Instant::now();
                        let m = spec.build().expect("gnp specs build");
                        (m, t.elapsed().as_secs_f64() * 1e3)
                    })
                })
                .collect();
            hs.into_iter()
                .map(|h| h.join().expect("mirror build"))
                .collect()
        });
        for (m, ms) in built {
            base.push(m);
            spec_build_ms.push(ms);
        }
    }
    let edges: Vec<Vec<(u32, u32)>> = base.iter().map(undirected_edges).collect();
    let shared = Shared {
        p,
        pool: &pool,
        specs: &specs,
        edges: &edges,
        epoch: Instant::now(),
    };

    // Library metrics on a mirror of model 0: the engine round at this
    // workload's model size, the first one checked against the oracle.
    // The rounds run in chunks between the window's segments.
    let model = base[0].clone();
    let t = Instant::now();
    model.predecessors_csc(0);
    let csc_build_ms = t.elapsed().as_secs_f64() * 1e3;
    let fixpoint = workloads::reachability_formula();
    let mut prober = Prober {
        suite: engine::suite_for(opts.seed),
        fix: workloads::huge_reachability(p.worlds as usize, engine::GOAL_EVERY),
        refine: base[0].clone(),
        model,
        rounds: Vec::new(),
    };
    let chunk = p.probe_rounds.div_ceil(SEGMENTS);

    // Dropped servers' threads exit on their own; wait for them, so no
    // teardown overlaps what is measured next.
    portnum_graph::pool::WorkerPool::global();
    let baseline = layers::thread_count();
    let mut setup_s = Vec::new();
    let mut running = None;
    for _ in 0..SETUPS {
        drop(running.take());
        layers::settle_threads(baseline);
        let t = Instant::now();
        running = Some(start(&shared, opts.seed));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (mut server, mut workers) = running.expect("at least one set-up");
    if p.churn {
        // Caches grow until their shard evicts, so serve_churn reaches
        // its steady state only after some eviction cycles.
        let start = Instant::now();
        let until = start + std::time::Duration::from_secs_f64(p.warmup_s);
        workers = par(workers, |w| w.window(Phase::Setup, until));
    }

    // The timed window, in segments. Between two segments the clients
    // pause, a chunk of the mirror's engine rounds runs, and `serve_hot`
    // sends a share of its deltas (then re-checks the pool, so the next
    // segment's checks hit the cache again). Both therefore sample the
    // host's speed across the whole run, the rounds while no request is
    // in flight. A traced run alternates untraced and traced
    // segments, so drift over the run cancels out of their difference.
    let before = stats_of(&mut workers[0]);
    let phases: &[Phase] = if opts.trace {
        &[Phase::Untraced, Phase::Traced]
    } else {
        &[Phase::Untraced]
    };
    let mut phase_s = [0.0f64; 2];
    let mut probe = HostProbe::new();
    let mut marks = Vec::with_capacity(SEGMENTS);
    for segment in 0..SEGMENTS {
        let k = segment % phases.len();
        let start = Instant::now();
        marks.push(start.duration_since(shared.epoch).as_nanos() as u64);
        let until = start + std::time::Duration::from_secs_f64(opts.seconds / SEGMENTS as f64);
        workers = par(workers, |w| w.window(phases[k], until));
        phase_s[k] += start.elapsed().as_secs_f64();
        probe.sample();
        prober.run(chunk, &fixpoint, &mut rng);
        if p.delta_probe > 0 {
            workers = par(workers, |w| w.delta_probe(p.delta_probe / SEGMENTS));
        }
    }
    let window_rss = layers::peak_rss_mb();
    probe.report(report);
    let window = stats_delta(&before, &stats_of(&mut workers[0]));
    let under_8k = workers[0].under_8k();
    if p.churn && opts.trace {
        workers[0].step_probe(STEP_PROBE_REPS);
    }
    let final_stats = stats_of(&mut workers[0]);

    // Close the connections and the server before the heavy checking.
    let logs: Vec<Vec<Op>> = workers.into_iter().map(|w| w.log).collect();
    server.shutdown();
    drop(server);
    layers::settle_threads(baseline);
    let rounds = prober.rounds;
    for r in &rounds {
        report.attempted += r.ops;
        if !r.problems.is_empty() {
            report.failed += r.ops;
            r.problems
                .iter()
                .for_each(|p| report.problem(format!("mirror engine round: {p}")));
        }
    }
    let digests: Vec<(u64, u64, u64)> = rounds
        .iter()
        .map(|r| (r.suite_digest, r.fixpoint_digest, r.refine_digest))
        .collect();
    if digests.windows(2).any(|w| w[0] != w[1]) {
        report.problem("mirror engine rounds disagree with each other".to_string());
    }

    let mut ops: Vec<&Op> = logs.iter().flatten().collect();
    ops.sort_by_key(|o| (o.end_ns, o.start_ns));

    // Verification, and the replay in a traced run.
    let mut replay = Replay::default();
    let verdict = verify(&shared, &ops, &base, opts.trace.then_some(&mut replay));
    verdict
        .problems
        .iter()
        .for_each(|p| report.problem(p.clone()));

    let measured: Vec<&Op> = ops
        .iter()
        .copied()
        .filter(|o| o.phase != Phase::Setup)
        .collect();
    report.attempted += measured.len() as u64;
    let failed_ops = measured.iter().filter(|o| !o.ok()).count();
    report.failed += (failed_ops + verdict.wrong_ops).min(measured.len()) as u64;
    if failed_ops > 0 {
        report.problem(format!("{failed_ops} operations failed"));
    }

    let suite: Vec<f64> = rounds.iter().map(|r| r.suite_ms).collect();
    let fix: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.fixpoint_ms.iter().copied())
        .collect();
    let refine: Vec<f64> = rounds.iter().map(|r| r.refine_ms).collect();
    let update: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.update_ms.iter().copied())
        .collect();
    let library = (
        report.timing("suite_ms", "ms", &suite).p50,
        report.timing("fixpoint_ms", "ms", &fix).p50,
        report.timing("refine_ms", "ms", &refine).p50,
        report.timing("update_ms", "ms", &update).p50,
    );
    let probe_deltas: Samples = ops
        .iter()
        .filter(|o| o.phase == Phase::Probe && o.delta)
        .map(|o| (o.start_ns, (o.end_ns - o.start_ns) as f64 / 1e3))
        .collect();
    // A latency's timing row (the provenance line) keeps the whole run's
    // percentiles; the reported p99 is `run_p99`'s.
    let mut timing = |name: &str, samples: &Samples| {
        let values: Vec<f64> = samples.iter().map(|&(_, v)| v).collect();
        let mut summary = report.timing(name, "us", &values);
        summary.p99 = run_p99(samples, &marks);
        summary
    };
    let probe_delta = timing("probe_delta_us", &probe_deltas);
    let e2es: Vec<E2e> = phases
        .iter()
        .enumerate()
        .map(|(k, &phase)| {
            let tag = if k == 0 { "" } else { "traced_" };
            let (checks, deltas, ok) = phase_samples(&ops, phase);
            let check = timing(&format!("{tag}check_us"), &checks);
            let delta = if p.churn {
                timing(&format!("{tag}delta_us"), &deltas)
            } else {
                probe_delta
            };
            let throughput = (checks.len() + deltas.len()) as f64 / phase_s[k];
            E2e {
                throughput,
                check,
                delta,
                ok,
                suite: library.0,
                fixpoint: library.1,
                refine: library.2,
                update: library.3,
                // The traced side's memory includes the replay's.
                rss_mb: if k == 0 {
                    window_rss
                } else {
                    layers::peak_rss_mb()
                },
            }
        })
        .collect();
    report.timing("setup_s", "s", &setup_s);
    e2es[0].emit(stats::median(&setup_s), report);

    let reloads: usize = measured.iter().map(|o| o.reloads()).sum();
    // The workload's own traffic: the 8 KiB step probe is excluded.
    let bytes: Vec<f64> = measured
        .iter()
        .filter(|o| matches!(o.phase, Phase::Untraced | Phase::Traced))
        .flat_map(|o| o.steps.iter())
        .filter_map(|s| match s.answer {
            Answer::Truths { bytes, .. } => Some(bytes as f64),
            _ => None,
        })
        .collect();
    let bytes = stats::summarize(&bytes);
    report.fact("worlds", p.worlds as f64);
    report.fact("evictions", window.evictions as f64);
    report.fact("reloads", reloads as f64);
    report.fact("cache_trims", window.cache_trims as f64);
    report.fact("response_bytes_min", bytes.min);
    report.fact("response_bytes_max", bytes.max);
    report.fact("check_ops", e2es[0].check.samples as f64);
    report.fact("delta_ops", e2es[0].delta.samples as f64);
    report.fact("final_mem_bytes", final_stats.mem_bytes as f64);

    if opts.trace {
        e2es[0].overhead_against(&e2es[1], report);
        // Server counters cover the whole window, both slice kinds.
        let window_reloads: usize = measured
            .iter()
            .filter(|o| matches!(o.phase, Phase::Untraced | Phase::Traced))
            .map(|o| o.reloads())
            .sum();
        let (check_steps, delta_steps) = (replay.check_steps, replay.delta_steps);
        let checks = check_steps.max(1) as f64;
        let deltas = delta_steps.max(1) as f64;
        let per_check = |name: &str| replay.mean_us(name, StepKind::Check, check_steps);
        let per_delta = |name: &str| replay.mean_us(name, StepKind::Delta, delta_steps);
        report.layer(
            "serve.protocol.request_decode_us",
            per_check(REQUEST_DECODE),
            "us",
        );
        report.layer(
            "serve.protocol.response_encode_us",
            per_check(RESPONSE_ENCODE),
            "us",
        );
        report.layer("serve.protocol.response_bytes", bytes.mean, "bytes");
        report.layer("logic.parser.parse_us", per_check(PARSE), "us");
        report.layer("serve.admission.estimate_us", per_check(ESTIMATE), "us");
        report.layer(
            "serve.residual_us",
            stats::summarize(&replay.residual_us).mean,
            "us",
        );
        report.layer("serve.cache.evictions", window.evictions as f64, "count");
        report.layer("serve.cache.trims", window.cache_trims as f64, "count");
        report.layer("serve.cache.reloads", window_reloads as f64, "count");
        report.layer("serve.cache.mem_bytes", window.mem_bytes as f64, "bytes");
        report.layer("serve.shard.shed", window.shed as f64, "count");
        report.layer(
            "serve.shard.interrupted",
            window.interrupted as f64,
            "count",
        );
        report.layer(
            "serve.shard.internal_errors",
            window.internal_errors as f64,
            "count",
        );
        report.layer("logic.plan.resume_us", per_check(RESUME), "us");
        report.layer("logic.plan.check_suite_us", per_check(CHECK_SUITE), "us");
        report.layer("logic.plan.detach_us", per_check(DETACH), "us");
        let c = replay.counts;
        report.layer(
            "logic.plan.computed_per_formula",
            c.computed as f64 / c.formulas.max(1) as f64,
            "ratio",
        );
        report.layer(
            "logic.plan.dedup_hits",
            c.dedup_hits as f64 / checks,
            "count",
        );
        report.layer(
            "logic.plan.csc_diamonds",
            c.csc_diamonds as f64 / checks,
            "count",
        );
        report.layer(
            "logic.plan.forward_diamonds",
            c.forward_diamonds as f64 / checks,
            "count",
        );
        let exec = engine::fixpoint_exec_stats(&prober.fix, &fixpoint);
        report.layer(
            "logic.plan.fixpoint_iters",
            exec.fixpoint_iters as f64,
            "count",
        );
        report.layer(
            "logic.plan.fixpoint_frontier_worlds",
            exec.fixpoint_frontier_worlds as f64,
            "count",
        );
        report.layer(
            "logic.plan.fixpoint_dense_passes",
            exec.fixpoint_dense_passes as f64,
            "count",
        );
        report.layer("logic.plan.repair_us", per_delta(REPAIR), "us");
        report.layer(
            "logic.plan.repaired_vectors",
            c.repaired_vectors as f64 / deltas,
            "count",
        );
        report.layer(
            "logic.plan.repaired_worlds",
            c.repaired_worlds as f64 / deltas,
            "count",
        );
        report.layer(
            "logic.plan.rebuilt_vectors",
            c.rebuilt_vectors as f64 / deltas,
            "count",
        );
        report.layer("logic.kripke.apply_delta_us", per_delta(APPLY_DELTA), "us");
        spec_build_ms.extend(&replay.spec_build_ms);
        report.layer(
            "logic.kripke.spec_build_ms",
            stats::median(&spec_build_ms),
            "ms",
        );
        // The streamed G(n, p) build a Load could use instead of the
        // pairwise one, at this workload's size.
        let t = Instant::now();
        std::hint::black_box(workloads::huge_gnp(
            p.worlds as usize,
            gnp_p(p.worlds as usize),
            opts.seed,
        ));
        report.layer(
            "logic.kripke.stream_build_ms",
            t.elapsed().as_secs_f64() * 1e3,
            "ms",
        );
        report.layer("graph.csc.build_ms", csc_build_ms, "ms");
        let last = rounds.last().expect("a probe round");
        report.layer("logic.bisim.rounds", last.refine.rounds as f64, "count");
        report.layer("logic.bisim.encoded", last.refine.encoded as f64, "count");
        report.layer("logic.bisim.moved", last.refine.moved as f64, "count");
        layers::substrate(report);

        // Accounting: per request, replayed spans plus the residual are
        // the client-observed latency; so are their sums.
        let observed: f64 = replay.observed_us.iter().sum();
        let parts: f64 =
            replay.replayed_us.iter().sum::<f64>() + replay.residual_us.iter().sum::<f64>();
        let traced_ops = measured.iter().filter(|o| traced_phase(o.phase)).count();
        if replay.observed_us.len() != traced_ops
            || (observed - parts).abs() > 1e-6 * observed.max(1.0)
        {
            report.problem(format!(
                "trace accounting: {} of {traced_ops} requests attributed, {observed} µs observed vs {parts} µs",
                replay.observed_us.len()
            ));
        }
        report.fact("traced_requests", traced_ops as f64);
        if p.churn {
            // The first check of each size fills the cache; skip them.
            let step = |k: usize| -> f64 {
                let rtts: Vec<f64> = ops
                    .iter()
                    .filter(|o| o.phase == Phase::Step && o.steps.len() == 1)
                    .filter(|o| matches!(&o.steps[0].req, Req::Check(idx) if idx.len() == k))
                    .skip(1)
                    .map(|o| (o.end_ns - o.start_ns) as f64 / 1e3)
                    .collect();
                stats::median(&rtts)
            };
            report.fact("step.under_8k_us", step(under_8k));
            report.fact("step.over_8k_us", step(under_8k + 1));
        }
        self_times(&replay, traced_ops, report);
        write_trace(workload, &replay);
    }
    report.timing("spec_build_ms", "ms", &spec_build_ms);
}

/// Whether a traced run reports an operation's spans: the traced slices,
/// and `serve_hot`'s post-window deltas (its only ones).
fn traced_phase(phase: Phase) -> bool {
    matches!(phase, Phase::Traced | Phase::Probe)
}

/// Self time per layer over the traced requests: each span's duration
/// minus its children's, summed by layer (the name up to its last
/// dot); `client` is the residual.
fn self_times(replay: &Replay, requests: usize, report: &mut Report) {
    let mut child_us = vec![0.0; replay.spans.len()];
    for s in &replay.spans {
        if let Some(p) = s.parent {
            if s.name != CLIENT_STEP {
                child_us[p] += s.us();
            }
        }
    }
    let mut by_layer: HashMap<&str, f64> = HashMap::new();
    for (i, s) in replay.spans.iter().enumerate() {
        if s.name == CLIENT_STEP {
            continue;
        }
        let layer = s.name.rsplit_once('.').map_or(s.name, |(l, _)| l);
        *by_layer.entry(layer).or_default() += s.us() - child_us[i];
    }
    let mut layers: Vec<_> = by_layer.into_iter().collect();
    layers.sort_by(|a, b| a.0.cmp(b.0));
    for (layer, us) in layers {
        report.fact(
            &format!("self_us_per_request.{layer}"),
            us / requests.max(1) as f64,
        );
    }
}

/// Writes the spans, tab-separated, to `perfbench/out/trace-<workload>.tsv`.
fn write_trace(workload: &str, replay: &Replay) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{workload}.tsv"));
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(&dir)?;
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(out, "span\tparent\trequest\tname\tstart_ns\tend_ns")?;
        for (i, s) in replay.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    };
    if let Err(e) = write() {
        eprintln!("could not write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_p99_takes_the_median_part_when_every_part_is_large() {
        let marks = [0, 100, 200];
        // Parts 0 and 2 are fast; part 1 has a slow spell in its top 5%.
        let samples: Samples = (0..3u64)
            .flat_map(|part| {
                (0..PART_P99_MIN).map(move |i| {
                    let slow = part == 1 && i >= PART_P99_MIN * 95 / 100;
                    (part * 100 + 1, if slow { 1000.0 } else { i as f64 / 100.0 })
                })
            })
            .collect();
        assert!(run_p99(&samples, &marks) < 10.0);
        // Too few samples per part: the whole run's p99.
        let few: Samples = samples.iter().step_by(2).copied().collect();
        assert_eq!(run_p99(&few, &marks), 1000.0);
    }
}
