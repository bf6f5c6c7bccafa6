//! The two serve workloads, driven through an in-process `serve::Server`
//! by one closed-loop client on one keep-alive connection.
//!
//! * `serve-fresh`: every request is a never-seen `/v1/infer/characterize`
//!   target, so each op runs the whole cold path (reactor, pool, memo miss
//!   and insert with eviction, a new `InferEngine` instance, single-point
//!   eval, serialize, bytes-cache insert).
//! * `serve-hot`: set-up primes one target per memoized endpoint; each op
//!   is a bytes-cache hit on one of them.
//!
//! The traced run replays each op's layers from public calls before sending
//! the request (see [`fresh_traced_op`] and [`hot_traced_op`]).

use std::sync::Arc;
use std::time::{Duration, Instant};

use analysis::{characterize_infer, kv_cache_id, InferConfig, InferEngine, InferPoint};
use cgraph::InternedForwardStats;
use frontier::QueryKey;
use modelzoo::{
    build_transformer_decode_dims, build_transformer_prefill_dims, BATCH_SYM, CTX_SYM, HEADS_SYM,
    HEAD_DIM_SYM, PROMPT_SYM,
};
use serve::cache::{BytesCache, CachedBytes, MemoCache};
use serve::http::{self, Feed};
use serve::json::Json;
use serve::query::Query;
use serve::routes;
use serve::trace::RequestTrace;
use serve::{AppState, ServeConfig, Server};
use symath::{intern_stats, Bindings, Expr, ExprId};

use crate::client::{Client, Reply};
use crate::gen::{self, FreshTarget};
use crate::stats::{peak_rss_mb, Digest};
use crate::tracer::Tracer;
use crate::{interner_growth, Metric, Outcome, Pacer, Workload};

/// Server worker threads, pinned rather than read from the machine.
pub const SERVER_WORKERS: usize = 2;
/// Memo-cache capacity (the bytes cache sizes itself to match).
pub const CACHE_ENTRIES: usize = 256;
/// Timed `serve-fresh` ops whose bodies are checked against the brute-force
/// `characterize_infer`.
const BRUTE_SAMPLE: usize = 8;

fn start_server() -> (Server, Client) {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: SERVER_WORKERS,
        cache_entries: CACHE_ENTRIES,
        deadline: Duration::from_secs(60),
        ..ServeConfig::default()
    };
    let server = Server::start(&config).expect("bind a loopback port");
    let client = Client::connect(server.local_addr()).expect("connect to the server");
    (server, client)
}

/// Replay caches shaped like the server's (same capacity, same shards).
fn replay_caches() -> (MemoCache, BytesCache) {
    let shards = SERVER_WORKERS.clamp(1, 16);
    (
        MemoCache::new(CACHE_ENTRIES, shards),
        BytesCache::new(CACHE_ENTRIES, shards),
    )
}

fn cached(endpoint: &'static str, body: &str) -> CachedBytes {
    let head = |keep_alive| {
        http::render_head(200, body.len(), Some("hit"), "application/json", keep_alive).into_bytes()
    };
    CachedBytes {
        status: 200,
        endpoint,
        body: Arc::new(body.to_string()),
        head_keep_alive: head(true),
        head_close: head(false),
    }
}

/// Counters scraped from `/v1/metrics`.
struct Scrape {
    bytes_hits: f64,
    bytes_misses: f64,
    memo_hits: f64,
    memo_misses: f64,
    epoll_wakeups: f64,
}

fn scrape(client: &mut Client) -> Scrape {
    let reply = client.get("/v1/metrics").expect("scrape /v1/metrics");
    let doc = Json::parse(std::str::from_utf8(&reply.body).expect("UTF-8 metrics"))
        .expect("metrics JSON");
    let num = |path: &str| doc.path(path).and_then(Json::as_f64).expect(path);
    Scrape {
        bytes_hits: num("reactor.bytes_cache_hits"),
        bytes_misses: num("reactor.bytes_cache_misses"),
        memo_hits: num("cache.hits"),
        memo_misses: num("cache.misses"),
        epoll_wakeups: num("reactor.epoll_wakeups"),
    }
}

fn share(hits: f64, misses: f64) -> f64 {
    if hits + misses == 0.0 {
        0.0
    } else {
        hits / (hits + misses)
    }
}

/// Per-layer counters of an untraced serve run: the `/v1/metrics` deltas
/// over the timed ops and the interner growth.
fn counters(
    before: &Scrape,
    after: &Scrape,
    ops: usize,
    interned: (symath::InternStats, symath::InternStats),
) -> Vec<Metric> {
    let (b, a) = interned;
    let mut metrics = vec![
        Metric::new(
            "serve.bytes_cache_hit_share",
            share(
                after.bytes_hits - before.bytes_hits,
                after.bytes_misses - before.bytes_misses,
            ),
            "share",
        ),
        Metric::new(
            "serve.memo_hit_share",
            share(
                after.memo_hits - before.memo_hits,
                after.memo_misses - before.memo_misses,
            ),
            "share",
        ),
        Metric::new(
            "serve.epoll_wakeups_per_op",
            (after.epoll_wakeups - before.epoll_wakeups) / ops.max(1) as f64,
            "count/op",
        ),
    ];
    metrics.extend(interner_growth(&b, &a));
    metrics
}

// ------------------------------------------------------------ serve-fresh

/// `InferEngine::characterize` redone from public calls: the family build
/// once, then per op one instance bind and one single-point eval.
struct InferReplica {
    cfg: InferConfig,
    prefill: InternedForwardStats,
    decode: InternedForwardStats,
    kv: ExprId,
}

impl InferReplica {
    fn build(cfg: InferConfig, t: &mut Tracer) -> InferReplica {
        let tcfg = cfg.transformer();
        let d = Expr::sym(HEADS_SYM) * Expr::sym(HEAD_DIM_SYM);
        let (prefill, decode) = t.span("modelzoo.build_family", |_| {
            (
                build_transformer_prefill_dims(&tcfg, Expr::sym(PROMPT_SYM), d.clone()),
                build_transformer_decode_dims(&tcfg, Expr::sym(CTX_SYM), d),
            )
        });
        let (prefill, decode) = t.span("cgraph.stats_interned", |_| {
            (
                prefill.graph.stats_interned().forward_view(),
                decode.graph.stats_interned().forward_view(),
            )
        });
        InferReplica {
            cfg,
            prefill: prefill.expect("prefill graph is forward-only"),
            decode: decode.expect("decode graph is forward-only"),
            kv: kv_cache_id(cfg.layers),
        }
    }

    fn characterize(&self, target: &FreshTarget, t: &mut Tracer) -> InferPoint {
        let widths = Bindings::new()
            .with(PROMPT_SYM, target.prompt as f64)
            .with(CTX_SYM, target.context as f64)
            .with(HEADS_SYM, self.cfg.heads as f64)
            .with(HEAD_DIM_SYM, self.cfg.head_dim as f64);
        let (prefill, decode, kv) = t.span("symath.bind", |_| {
            (
                self.prefill.bind_all(&widths),
                self.decode.bind_all(&widths),
                self.kv.bind_all(&widths),
            )
        });
        let at = Bindings::new().with(BATCH_SYM, target.batch as f64);
        let (prefill, decode, kv) = t.span("symath.eval_point", |_| {
            (
                prefill.eval(&at).expect("all symbols bound"),
                decode.eval(&at).expect("all symbols bound"),
                kv.eval(&at).expect("all symbols bound"),
            )
        });
        InferPoint {
            batch: target.batch,
            prompt: target.prompt,
            context: target.context,
            params: decode.params,
            weight_bytes: 4.0 * decode.params,
            kv_cache_bytes: kv,
            prefill_flops: prefill.flops,
            prefill_bytes: prefill.bytes,
            prefill_intensity: prefill.operational_intensity(),
            decode_flops: decode.flops,
            decode_bytes: decode.bytes,
            decode_intensity: decode.operational_intensity(),
        }
    }
}

/// Does `body` carry exactly `point`, field for field?
fn body_matches(body: &[u8], point: &InferPoint) -> bool {
    let Some(doc) = std::str::from_utf8(body)
        .ok()
        .and_then(|s| Json::parse(s).ok())
    else {
        return false;
    };
    let num = |path: &str| doc.path(path).and_then(Json::as_f64);
    [
        ("point.batch", point.batch as f64),
        ("point.prompt", point.prompt as f64),
        ("point.context", point.context as f64),
        ("point.params", point.params),
        ("point.weight_bytes", point.weight_bytes),
        ("point.kv_cache_bytes", point.kv_cache_bytes),
        ("point.serving_bytes", point.serving_bytes()),
        ("point.prefill.flops", point.prefill_flops),
        ("point.prefill.bytes", point.prefill_bytes),
        ("point.prefill.op_intensity", point.prefill_intensity),
        ("point.decode.flops", point.decode_flops),
        ("point.decode.bytes", point.decode_bytes),
        ("point.decode.op_intensity", point.decode_intensity),
    ]
    .iter()
    .all(|&(path, want)| num(path) == Some(want))
}

/// The memo key `/v1/infer/characterize` builds for `target`.
fn fresh_key(cfg: &InferConfig, target: &FreshTarget) -> QueryKey {
    QueryKey::new("infer_characterize")
        .field("vocab", cfg.vocab)
        .field("heads", cfg.heads)
        .field("head_dim", cfg.head_dim)
        .field("layers", cfg.layers)
        .field("ff", cfg.ff_mult)
        .field("tied", cfg.tied_embedding)
        .field("batch", target.batch)
        .field("prompt", target.prompt)
        .field("context", target.context)
}

/// Shadow structures of one traced `serve-fresh` run.
struct FreshReplay {
    infer: InferReplica,
    memo: MemoCache,
    bytes: BytesCache,
}

/// One traced `serve-fresh` op: parse, key, the analysis layer (cold: the
/// replica binds first, so the symath bind memo misses here as it does in
/// an untraced op), dispatch on the server's state, the memo and bytes
/// caches replayed on shadows of the server's size, serialize, then the
/// request itself over TCP. Returns the reply and whether every replayed
/// layer agreed with it.
fn fresh_traced_op(
    replay: &FreshReplay,
    state: &AppState,
    client: &mut Client,
    target: &FreshTarget,
    t: &mut Tracer,
) -> (Reply, bool) {
    let path = target.target();
    let raw = Client::request_bytes(&path);
    let head = match t.span("serve.http_parse", |_| http::parse_head(&raw)) {
        Ok(Feed::Parsed(head)) => head,
        other => panic!("the benchmark's own request must parse: {other:?}"),
    };
    t.span("serve.query_parse", |_| Query::parse(&head.req.query))
        .expect("the benchmark's own query must parse");
    let key = t.span("frontier.querykey", |_| {
        fresh_key(&replay.infer.cfg, target).hash128()
    });
    let point = t.span("analysis.infer_characterize", |t| {
        replay.infer.characterize(target, t)
    });
    let routed = t.span("serve.dispatch", |_| {
        routes::dispatch(
            state,
            &head.req,
            &mut RequestTrace::new(0, Instant::now(), false),
        )
    });
    let (memo, _, _) = t.span("serve.memo_lookup", |_| {
        replay
            .memo
            .get_or_compute_timed(key, || Ok(routed.body.clone()))
    });
    let doc = Json::parse(&routed.body).expect("response body is JSON");
    let rendered = t.span("serve.serialize", |_| doc.render());
    let entry = cached(routed.endpoint, &routed.body);
    t.span("serve.bytes_cache_insert", |_| {
        replay.bytes.insert(path.clone(), entry)
    });
    let reply = t.span("serve.transport", |_| client.get(&path));
    let reply = reply.expect("serve-fresh request");
    let agree = memo.is_ok()
        && rendered == routed.body
        && reply.body == routed.body.as_bytes()
        && body_matches(&reply.body, &point);
    (reply, agree)
}

/// Run the `serve-fresh` workload: `ops` never-seen targets.
pub fn run_fresh(
    seed: u64,
    ops: usize,
    mut tracer: Option<&mut Tracer>,
    ready: impl FnOnce(),
) -> Outcome {
    // Enough set-up requests to fill the memo and bytes caches and the
    // engine's instance cache, so every timed op evicts from all three.
    let warm_ops = InferEngine::global().instance_capacity().max(CACHE_ENTRIES);
    let (warm, stream) = gen::fresh_stream(seed, warm_ops, ops);
    let replay = tracer.as_deref_mut().map(|t| {
        let (memo, bytes) = replay_caches();
        FreshReplay {
            infer: InferReplica::build(InferConfig::default(), t),
            memo,
            bytes,
        }
    });
    let (server, mut client) = start_server();
    let mut failed = 0u64;
    for target in &warm {
        let path = target.target();
        let reply = client.get(&path).expect("serve-fresh warm-up request");
        assert_eq!(reply.status, 200, "warm-up request {path} failed");
        if let Some(r) = &replay {
            let body = std::str::from_utf8(&reply.body).expect("UTF-8 body");
            let key = fresh_key(&r.infer.cfg, target).hash128();
            let _ = r.memo.get_or_compute(key, || Ok(body.to_string()));
            r.bytes.insert(path, cached("infer_characterize", body));
        }
    }
    let before = scrape(&mut client);
    let interned_before = intern_stats();
    ready();

    let sample = gen::sample_indices(seed, stream.len(), BRUTE_SAMPLE);
    let mut sampled: Vec<(usize, Vec<u8>)> = Vec::new();
    let mut lat_us = Vec::with_capacity(ops);
    let mut pacer = Pacer::new(Workload::ServeFresh, ops);
    let mut digest = Digest::default();
    for (op, target) in stream.iter().enumerate() {
        pacer.before(op);
        let start = Instant::now();
        let (reply, agree) = match (tracer.as_deref_mut(), &replay) {
            (Some(t), Some(r)) => {
                t.set_op(op as u64);
                t.span("op", |t| {
                    fresh_traced_op(r, server.state(), &mut client, target, t)
                })
            }
            _ => {
                let reply = client.get(&target.target()).expect("serve-fresh request");
                let cold = reply.x_cache.as_deref() == Some("miss");
                (reply, cold)
            }
        };
        lat_us.push(start.elapsed().as_secs_f64() * 1e6);
        failed += u64::from(reply.status != 200 || !agree);
        digest.add(&reply.body);
        if sample.contains(&op) {
            sampled.push((op, reply.body));
        }
    }
    let rss_mb = peak_rss_mb();
    let interned_after = intern_stats();
    let after = scrape(&mut client);

    let cfg = InferConfig::default();
    for (op, body) in &sampled {
        let t = stream[*op];
        let brute = characterize_infer(&cfg, t.batch, t.prompt, t.context);
        failed += u64::from(!body_matches(body, &brute));
    }
    drop(client);
    drop(server);
    let mut metrics = counters(&before, &after, ops, (interned_before, interned_after));
    if let Some(t) = tracer {
        // The analysis layer's own share: the replayed call minus its bind
        // and eval children.
        metrics.push(Metric::new(
            "analysis.self_us",
            t.mean_self_us("analysis.infer_characterize"),
            "us",
        ));
    }
    Outcome {
        lat_us,
        rss_mb,
        attempted: (ops + sampled.len()) as u64,
        failed,
        digest: digest.value(),
        metrics,
    }
}

// -------------------------------------------------------------- serve-hot

/// A generic memo key over a target's query pairs: the cost a key-based
/// lookup would add to the hot path.
fn hot_key(path: &str, query: &str) -> u128 {
    query
        .split('&')
        .filter_map(|pair| pair.split_once('='))
        .fold(QueryKey::new(path), |key, (k, v)| key.field(k, v))
        .hash128()
}

/// One traced `serve-hot` op: parse, key, bytes-cache probe on a shadow
/// primed like the server's, dispatch on the server's state (a memo hit),
/// then the request itself over TCP (a bytes-cache hit).
fn hot_traced_op(
    shadow: &BytesCache,
    state: &AppState,
    client: &mut Client,
    target: &str,
    primed: &[u8],
    t: &mut Tracer,
) -> (Reply, bool) {
    let raw = Client::request_bytes(target);
    let head = match t.span("serve.http_parse", |_| http::parse_head(&raw)) {
        Ok(Feed::Parsed(head)) => head,
        other => panic!("the benchmark's own request must parse: {other:?}"),
    };
    t.span("serve.query_parse", |_| Query::parse(&head.req.query))
        .expect("the benchmark's own query must parse");
    t.span("frontier.querykey", |_| {
        hot_key(&head.req.path, &head.req.query)
    });
    let hit = t.span("serve.bytes_cache_get", |_| shadow.get(target));
    let routed = t.span("serve.dispatch", |_| {
        routes::dispatch(
            state,
            &head.req,
            &mut RequestTrace::new(0, Instant::now(), false),
        )
    });
    let reply = t.span("serve.transport", |_| client.get(target));
    let reply = reply.expect("serve-hot request");
    let agree = hit.is_some_and(|h| h.body.as_bytes() == primed)
        && routed.body.as_bytes() == primed
        && reply.body == primed;
    (reply, agree)
}

/// Run the `serve-hot` workload: prime every target, then `ops` hits.
pub fn run_hot(
    seed: u64,
    ops: usize,
    mut tracer: Option<&mut Tracer>,
    ready: impl FnOnce(),
) -> Outcome {
    let stream = gen::hot_stream(seed, ops);
    let (server, mut client) = start_server();
    let shadow = replay_caches().1;
    let primed: Vec<Vec<u8>> = gen::HOT_TARGETS
        .iter()
        .map(|target| {
            let reply = client.get(target).expect("serve-hot priming request");
            assert_eq!(reply.status, 200, "priming request {target} failed");
            let body = std::str::from_utf8(&reply.body).expect("UTF-8 body");
            shadow.insert(target.to_string(), cached("primed", body));
            reply.body
        })
        .collect();
    let before = scrape(&mut client);
    let interned_before = intern_stats();
    ready();

    let mut lat_us = Vec::with_capacity(ops);
    let mut pacer = Pacer::new(Workload::ServeHot, ops);
    let mut failed = 0u64;
    let mut digest = Digest::default();
    for (op, &i) in stream.iter().enumerate() {
        pacer.before(op);
        let target = gen::HOT_TARGETS[i];
        let start = Instant::now();
        let (reply, agree) = match tracer.as_deref_mut() {
            Some(t) => {
                t.set_op(op as u64);
                t.span("op", |t| {
                    hot_traced_op(&shadow, server.state(), &mut client, target, &primed[i], t)
                })
            }
            None => {
                let reply = client.get(target).expect("serve-hot request");
                let hit = reply.x_cache.as_deref() == Some("hit");
                (reply, hit)
            }
        };
        lat_us.push(start.elapsed().as_secs_f64() * 1e6);
        failed += u64::from(reply.status != 200 || !agree || reply.body != primed[i]);
        digest.add(&reply.body);
    }
    let rss_mb = peak_rss_mb();
    let interned_after = intern_stats();
    let after = scrape(&mut client);
    drop(client);
    drop(server);
    Outcome {
        lat_us,
        rss_mb,
        attempted: ops as u64,
        failed,
        digest: digest.value(),
        metrics: counters(&before, &after, ops, (interned_before, interned_after)),
    }
}
