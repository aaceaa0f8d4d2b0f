//! The two serving workloads: `recommend_large_catalog` (the cache-miss
//! path: retrieval, gather, tower scoring, top-k) and
//! `recommend_hot_cache` (the hit path: HTTP codec, router hop, LRU).
//!
//! Both run the shipped configuration — `ServeConfig::default()` on two
//! replicas behind a `RouterConfig::default()` router — in this
//! process, and load it from a closed loop of [`CLIENTS`] keep-alive
//! connections to the router: the callers of this tier are app servers
//! that each wait for their reply.

use crate::fixture::{self, Kind};
use crate::reference::{ReferenceScorer, SCORE_TOLERANCE};
use crate::stats::{self, Tally};
use crate::trace::Tracer;
use crate::{set_up_repeatedly, sys, Outcome, RunCtx};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use st_data::{CityId, CrossingCitySplit, Dataset, PoiId, UserId};
use st_router::{Fleet, FleetConfig, RouteKey, Router, RouterConfig, RouterServer};
use st_serve::batcher::rank_top_k;
use st_serve::snapshot::Reloader;
use st_serve::{
    http, render_recommend_body, BatchConfig, BatchRequest, Engine, HttpClient, LruCache, Metrics,
    MicroBatcher, ModelCell, ServeConfig, Server,
};
use st_transrec_core::{InferCtx, RetrievalConfig, RetrievalIndex};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Replicas behind the router.
const REPLICAS: usize = 2;
/// Closed-loop client connections. One: with two, the load generator
/// and the tier's threads oversubscribe a 2-core host, and scheduler
/// stalls (3% of hot-cache requests held half the run's time) made
/// same-seed throughput range from 5.3k to 10k requests/s; with one it
/// stays within a few percent.
pub const CLIENTS: usize = 1;
/// Responses whose every score is checked against the reference scorer:
/// one in this many.
const SCORE_CHECK_EVERY: usize = 25;
/// Responses whose top 10 is compared with the exact ranking.
const RECALL_SAMPLES: usize = 48;
/// Most requests the traced replay sends through the layer functions.
const REPLAY_CAP: usize = 20_000;
/// Windows a timed phase is split into; figures are medians over them.
const WINDOWS: usize = 10;
/// Paired router/direct requests that measure the router hop.
const HOP_PAIRS: usize = 300;

/// One `/recommend` question.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key {
    /// Asking user.
    pub user: u32,
    /// City asked about.
    pub city: u16,
    /// Recommendations asked for.
    pub k: usize,
}

impl Key {
    /// Request target of this question.
    pub fn path(&self) -> String {
        format!(
            "/recommend?user={}&city={}&k={}",
            self.user, self.city, self.k
        )
    }
}

/// Every `(user, city, k)` over `users` users, all cities and `ks`, in
/// a seeded order.
fn keys(dataset: &Dataset, users: usize, ks: &[usize], seed: u64) -> Vec<Key> {
    let mut keys = Vec::new();
    for user in 0..users.min(dataset.num_users()) as u32 {
        for city in dataset.cities() {
            for &k in ks {
                keys.push(Key {
                    user,
                    city: city.id.0,
                    k,
                });
            }
        }
    }
    keys.shuffle(&mut SmallRng::seed_from_u64(seed ^ 0x005E_ED0F_4E75));
    keys
}

/// Replicas and router, all on loopback ports of this process.
pub struct Tier {
    replicas: Vec<Server>,
    router: RouterServer,
    fleet: Arc<Fleet>,
}

/// Starts one replica the way `st-serve --checkpoint` does: the frozen
/// generation is mapped from the checkpoint and indexed.
pub fn start_replica(
    dataset: &Arc<Dataset>,
    split: &Arc<CrossingCitySplit>,
    ckpt: &Path,
    seed: u64,
) -> std::io::Result<Server> {
    let config = ServeConfig::default();
    let reloader = Reloader::new(
        dataset.clone(),
        split.clone(),
        fixture::model_config(seed),
        ckpt,
    );
    let (frozen, bytes) = reloader.load_frozen()?;
    let engine = Engine::new_frozen(dataset.clone(), frozen, bytes, Some(reloader), &config);
    Server::start(engine, &config)
}

impl Tier {
    fn start(
        dataset: &Arc<Dataset>,
        split: &Arc<CrossingCitySplit>,
        ckpt: &Path,
        seed: u64,
    ) -> std::io::Result<Self> {
        // Replicas boot in parallel: each builds its own retrieval index.
        let booted: Vec<std::io::Result<Server>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..REPLICAS)
                .map(|_| s.spawn(|| start_replica(dataset, split, ckpt, seed)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("replica boot panicked"))
                .collect()
        });
        let replicas = booted.into_iter().collect::<std::io::Result<Vec<_>>>()?;
        let addrs: Vec<SocketAddr> = replicas.iter().map(Server::local_addr).collect();
        let fleet = Arc::new(Fleet::new(&addrs, FleetConfig::default()));
        if fleet.probe_all() != REPLICAS {
            return Err(std::io::Error::other(
                "a replica failed its first health probe",
            ));
        }
        let router = RouterServer::start(Router::new(fleet.clone(), RouterConfig::default()))?;
        Ok(Self {
            replicas,
            router,
            fleet,
        })
    }

    fn router_addr(&self) -> SocketAddr {
        self.router.local_addr()
    }

    fn replica_addrs(&self) -> Vec<SocketAddr> {
        self.replicas.iter().map(Server::local_addr).collect()
    }

    /// Address of the replica that owns `user`'s keys.
    fn owner(&self, user: u32) -> SocketAddr {
        let id = self
            .fleet
            .static_owner(RouteKey::User(user))
            .expect("a fleet with replicas has an owner for every key");
        self.replicas[id.0 as usize].local_addr()
    }

    fn shutdown(self) {
        self.router.shutdown();
        for r in self.replicas {
            r.shutdown();
        }
    }
}

/// `/metrics` of `addr` as `series → value`.
pub fn scrape(addr: SocketAddr) -> std::io::Result<BTreeMap<String, f64>> {
    let resp = st_serve::client::get(addr, "/metrics")?;
    if resp.status != 200 {
        return Err(std::io::Error::other(format!(
            "/metrics returned {}",
            resp.status
        )));
    }
    Ok(resp
        .body
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            Some((series.to_string(), value.parse().ok()?))
        })
        .collect())
}

/// Sum of one series over several `/metrics` endpoints.
fn scrape_sum(addrs: &[SocketAddr], series: &str) -> std::io::Result<f64> {
    let mut total = 0.0;
    for &a in addrs {
        total += scrape(a)?.get(series).copied().unwrap_or(0.0);
    }
    Ok(total)
}

/// `(poi, score)` pairs of a `/recommend` body, in served order.
pub fn parse_recommendations(body: &str) -> Option<Vec<(u32, f32)>> {
    const FIELD: &str = "\"recommendations\":[";
    let start = body.find(FIELD)? + FIELD.len();
    let list = body[start..].strip_suffix("]}")?;
    if list.is_empty() {
        return Some(Vec::new());
    }
    list.split("},{")
        .map(|item| {
            let item = item.trim_start_matches('{').trim_end_matches('}');
            let (poi, score) = item.split_once(',')?;
            Some((
                poi.strip_prefix("\"poi\":")?.parse().ok()?,
                score.strip_prefix("\"score\":")?.parse().ok()?,
            ))
        })
        .collect()
}

/// What one closed loop saw.
#[derive(Default)]
struct LoopResult {
    /// `(completed at s since the loop started, latency ms)` per
    /// successful request.
    samples: Vec<(f64, f64)>,
    tally: Tally,
    elapsed_s: f64,
    /// `(key index, body)` of each successful response, when kept.
    bodies: Vec<(usize, String)>,
    /// Responses whose body differed from the expected one.
    mismatches: u64,
    /// `(key index, start, end)` per request, when traced.
    spans: Vec<(usize, Instant, Instant)>,
}

/// How a closed loop walks its request targets.
struct LoopPlan<'a> {
    paths: &'a [String],
    /// Start over after the last target (hot keys) instead of stopping
    /// (keys that must not repeat).
    cycle: bool,
    /// Body each target must return, by index.
    expect: Option<&'a [String]>,
    keep_bodies: bool,
    traced: bool,
}

/// Sends requests from [`CLIENTS`] threads, each waiting for its
/// reply before the next, until `seconds` pass or the targets run out.
fn closed_loop(addr: SocketAddr, plan: &LoopPlan<'_>, seconds: f64) -> std::io::Result<LoopResult> {
    let cursor = AtomicUsize::new(0);
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let parts: Vec<std::io::Result<LoopResult>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| -> std::io::Result<LoopResult> {
                    let mut out = LoopResult::default();
                    let mut client = HttpClient::connect(addr)?;
                    while Instant::now() < deadline {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let idx = if plan.cycle {
                            i % plan.paths.len()
                        } else if i < plan.paths.len() {
                            i
                        } else {
                            break;
                        };
                        let t0 = Instant::now();
                        let resp = client.get(&plan.paths[idx]);
                        let t1 = Instant::now();
                        match resp {
                            Ok(r) if r.status == 200 => {
                                out.tally.record(true);
                                out.samples.push((
                                    (t1 - started).as_secs_f64(),
                                    (t1 - t0).as_secs_f64() * 1e3,
                                ));
                                if plan.expect.is_some_and(|e| e[idx] != r.body) {
                                    out.mismatches += 1;
                                }
                                if plan.keep_bodies {
                                    out.bodies.push((idx, r.body));
                                }
                                if plan.traced {
                                    out.spans.push((idx, t0, t1));
                                }
                            }
                            Ok(_) => out.tally.record(false),
                            Err(_) => {
                                out.tally.record(false);
                                client = HttpClient::connect(addr)?;
                            }
                        }
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut total = LoopResult {
        elapsed_s: started.elapsed().as_secs_f64(),
        ..LoopResult::default()
    };
    for part in parts {
        let part = part?;
        total.samples.extend(part.samples);
        total.tally.absorb(part.tally);
        total.bodies.extend(part.bodies);
        total.mismatches += part.mismatches;
        total.spans.extend(part.spans);
    }
    Ok(total)
}

/// One set-up serving tier plus what its checks need.
struct Setup {
    dataset: Arc<Dataset>,
    split: Arc<CrossingCitySplit>,
    ckpt: PathBuf,
    tier: Tier,
}

/// Fixture checkpoint (child process), dataset synthesis, tier bring-up.
fn set_up(kind: Kind, ctx: &RunCtx) -> std::io::Result<Setup> {
    let ckpt = fixture::spawn_build(kind, ctx.seed, &ctx.work)?;
    let (dataset, split) = fixture::dataset(kind, ctx.seed);
    let (dataset, split) = (Arc::new(dataset), Arc::new(split));
    let tier = Tier::start(&dataset, &split, &ckpt, ctx.seed)?;
    Ok(Setup {
        dataset,
        split,
        ckpt,
        tier,
    })
}

/// Sets up the tier [`crate::SETUPS`] times with `warm` as part of each
/// set-up, keeping the last tier. Returns the tier, the warm-up's result
/// and the median set-up time.
fn set_up_warmed<W>(
    kind: Kind,
    ctx: &RunCtx,
    warm: impl Fn(&Setup) -> std::io::Result<W>,
) -> std::io::Result<(Setup, W, f64)> {
    let ((setup, warmed), setup_s) = set_up_repeatedly(
        || {
            let setup = set_up(kind, ctx)?;
            let warmed = warm(&setup)?;
            Ok((setup, warmed))
        },
        |(setup, _)| setup.tier.shutdown(),
    )?;
    Ok((setup, warmed, setup_s))
}

fn get_all(addr: SocketAddr, paths: &[String]) -> std::io::Result<Vec<String>> {
    let mut client = HttpClient::connect(addr)?;
    let mut bodies = Vec::with_capacity(paths.len());
    for p in paths {
        let r = client.get(p)?;
        if r.status != 200 {
            return Err(std::io::Error::other(format!("{p} returned {}", r.status)));
        }
        bodies.push(r.body);
    }
    Ok(bodies)
}

/// Structural checks of one response: `k` distinct POIs (fewer only if
/// the city has fewer), all in the asked city, scores non-increasing.
fn check_response(
    out: &mut Outcome,
    dataset: &Dataset,
    key: Key,
    body: &str,
) -> Option<Vec<(u32, f32)>> {
    let Some(recs) = parse_recommendations(body) else {
        out.check(false, || format!("{key:?}: unparsable body {body}"));
        return None;
    };
    let city = CityId(key.city);
    let want = key.k.min(dataset.pois_in_city(city).len());
    out.check(recs.len() == want, || {
        format!("{key:?}: {} recommendations, want {want}", recs.len())
    });
    let mut seen: Vec<u32> = recs.iter().map(|r| r.0).collect();
    seen.sort_unstable();
    seen.dedup();
    out.check(seen.len() == recs.len(), || {
        format!("{key:?}: repeated POI")
    });
    out.check(
        recs.iter()
            .all(|&(p, _)| (p as usize) < dataset.num_pois() && dataset.poi(PoiId(p)).city == city),
        || format!("{key:?}: POI outside city {}", key.city),
    );
    out.check(recs.windows(2).all(|w| w[0].1 >= w[1].1), || {
        format!("{key:?}: scores increase")
    });
    Some(recs)
}

/// Checks sampled scores against the reference scorer and measures
/// recall@10 against the exact full-catalog ranking; returns recall.
fn check_against_reference(
    out: &mut Outcome,
    dataset: &Dataset,
    reference: &ReferenceScorer,
    responses: &[(Key, Vec<(u32, f32)>)],
) -> f64 {
    out.check(
        reference.num_users() == dataset.num_users() && reference.num_pois() == dataset.num_pois(),
        || "the checkpoint's tables do not match the dataset".into(),
    );
    let mut checked = 0usize;
    for (i, (key, recs)) in responses.iter().enumerate() {
        if i % SCORE_CHECK_EVERY != 0 {
            continue;
        }
        for &(poi, score) in recs {
            let want = reference.score(key.user as usize, poi as usize);
            checked += 1;
            out.check((f64::from(score) - want).abs() <= SCORE_TOLERANCE, || {
                format!("{key:?}: POI {poi} served score {score}, reference {want}")
            });
        }
    }
    let mut overlaps = Vec::new();
    for (key, recs) in responses
        .iter()
        .filter(|(k, _)| k.k >= 10)
        .take(RECALL_SAMPLES)
    {
        let catalog: Vec<usize> = dataset
            .pois_in_city(CityId(key.city))
            .iter()
            .map(|p| p.idx())
            .collect();
        let exact = reference.top_k(key.user as usize, &catalog, 10);
        let served: Vec<usize> = recs.iter().take(10).map(|r| r.0 as usize).collect();
        let hits = exact.iter().filter(|p| served.contains(p)).count();
        overlaps.push(hits as f64 / exact.len().max(1) as f64);
    }
    out.check(!overlaps.is_empty(), || {
        "no response to measure recall on".into()
    });
    let recall = stats::mean(&overlaps);
    out.detail(
        "reference",
        format!(
            "{checked} scores checked; recall@10 {recall:.4} over {} responses",
            overlaps.len()
        ),
    );
    recall
}

/// `recommend_large_catalog`.
pub fn large_catalog(ctx: &RunCtx) -> std::io::Result<Outcome> {
    let kind = Kind::LargeCatalog;
    // Warm-up asks k=5, a k the timed keys never use, so the cache
    // holds none of them.
    let warm = |s: &Setup| {
        let paths: Vec<String> = (0..64)
            .map(|u| {
                Key {
                    user: u,
                    city: 1,
                    k: 5,
                }
                .path()
            })
            .collect();
        get_all(s.tier.router_addr(), &paths).map(drop)
    };
    let (setup, (), setup_s) = set_up_warmed(kind, ctx, warm)?;
    let keys = keys(
        &setup.dataset,
        setup.dataset.num_users(),
        &[10, 15, 20],
        ctx.seed,
    );
    let paths: Vec<String> = keys.iter().map(Key::path).collect();
    let mut out = Outcome::default();
    out.detail(
        "inputs",
        format!(
            "{} POIs ({} per city), {} users, {} distinct keys, fixture trained {} steps",
            setup.dataset.num_pois(),
            setup.dataset.pois_in_city(CityId(1)).len(),
            setup.dataset.num_users(),
            keys.len(),
            kind.train_steps()
        ),
    );
    if ctx.trace {
        traced_serving(ctx, kind, setup, &keys, &paths, out)
    } else {
        let plan = LoopPlan {
            paths: &paths,
            cycle: false,
            expect: None,
            keep_bodies: true,
            traced: false,
        };
        let cpu0 = sys::cpu_s();
        let run = closed_loop(setup.tier.router_addr(), &plan, ctx.seconds)?;
        out.set(
            "cpu_ms_per_op",
            (sys::cpu_s() - cpu0) * 1e3 / run.tally.ok.max(1) as f64,
        );
        out.set("peak_rss_mb", sys::peak_rss_mb());
        out.set("setup_s", setup_s);
        out.tally = run.tally;
        out.check(run.tally.ok < keys.len() as u64, || {
            "ran out of distinct keys".into()
        });
        let w = out.set_windowed(
            "request round trip",
            &run.samples,
            ctx.seconds,
            WINDOWS,
            0.99,
        );
        out.set("throughput_per_s", w.throughput);
        let hits = scrape_sum(&setup.tier.replica_addrs(), "st_serve_cache_hits_total")?;
        out.check(hits == 0.0, || {
            format!("replicas counted {hits} cache hits")
        });
        // Loaded after the RSS read, so the tier's peak is not the
        // reference scorer's.
        let reference = ReferenceScorer::from_checkpoint(&setup.ckpt)?;
        let responses = parse_all(&mut out, &setup.dataset, &keys, &run.bodies);
        check_against_reference(&mut out, &setup.dataset, &reference, &responses);
        setup.tier.shutdown();
        Ok(out)
    }
}

fn parse_all(
    out: &mut Outcome,
    dataset: &Dataset,
    keys: &[Key],
    bodies: &[(usize, String)],
) -> Vec<(Key, Vec<(u32, f32)>)> {
    let mut sorted: Vec<&(usize, String)> = bodies.iter().collect();
    sorted.sort_by_key(|(i, _)| *i);
    sorted
        .into_iter()
        .filter_map(|(i, body)| Some((keys[*i], check_response(out, dataset, keys[*i], body)?)))
        .collect()
}

/// `recommend_hot_cache`.
pub fn hot_cache(ctx: &RunCtx) -> std::io::Result<Outcome> {
    let kind = Kind::HotCache;
    let warm = |s: &Setup| {
        // 256 users x 2 cities x k=10: 512 keys, well inside the default
        // 4096-entry cache of each replica. The first pass fills the
        // caches, the second must be answered from them.
        let keys = keys(&s.dataset, 256, &[10], ctx.seed);
        let paths: Vec<String> = keys.iter().map(Key::path).collect();
        let first = get_all(s.tier.router_addr(), &paths)?;
        let second = get_all(s.tier.router_addr(), &paths)?;
        Ok((keys, paths, first, second))
    };
    let (setup, (keys, paths, first, warmed), setup_s) = set_up_warmed(kind, ctx, warm)?;
    let mut out = Outcome::default();
    out.check(first == warmed, || {
        "a cached answer differs from the answer that filled the cache".into()
    });
    out.detail(
        "inputs",
        format!(
            "{} POIs ({} per city), {} hot keys cycled in seeded order",
            setup.dataset.num_pois(),
            setup.dataset.pois_in_city(CityId(1)).len(),
            keys.len()
        ),
    );
    let replicas = setup.tier.replica_addrs();

    if ctx.trace {
        return traced_serving(ctx, kind, setup, &keys, &paths, out);
    }
    let misses_before = scrape_sum(&replicas, "st_serve_cache_misses_total")?;
    let plan = LoopPlan {
        paths: &paths,
        cycle: true,
        expect: Some(&warmed),
        keep_bodies: false,
        traced: false,
    };
    let cpu0 = sys::cpu_s();
    let run = closed_loop(setup.tier.router_addr(), &plan, ctx.seconds)?;
    out.set(
        "cpu_ms_per_op",
        (sys::cpu_s() - cpu0) * 1e3 / run.tally.ok.max(1) as f64,
    );
    out.set("peak_rss_mb", sys::peak_rss_mb());
    let misses = scrape_sum(&replicas, "st_serve_cache_misses_total")? - misses_before;
    out.set("setup_s", setup_s);
    out.tally = run.tally;
    let w = out.set_windowed(
        "request round trip",
        &run.samples,
        ctx.seconds,
        WINDOWS,
        0.99,
    );
    out.set("throughput_per_s", w.throughput);
    out.check(misses == 0.0, || {
        format!("{misses} cache misses in the timed phase")
    });
    out.check(run.mismatches == 0, || {
        format!(
            "{} responses differ from their warm-up answer",
            run.mismatches
        )
    });
    // The same requests sent straight to the owning replica.
    let mut direct_mismatch = 0;
    for (key, (path, want)) in keys.iter().zip(paths.iter().zip(&warmed)) {
        let r = st_serve::client::get(setup.tier.owner(key.user), path)?;
        if r.status != 200 || &r.body != want {
            direct_mismatch += 1;
        }
    }
    out.check(direct_mismatch == 0, || {
        format!("{direct_mismatch} direct replica answers differ from the routed ones")
    });
    let reference = ReferenceScorer::from_checkpoint(&setup.ckpt)?;
    let bodies: Vec<(usize, String)> = warmed.iter().cloned().enumerate().collect();
    let responses = parse_all(&mut out, &setup.dataset, &keys, &bodies);
    check_against_reference(&mut out, &setup.dataset, &reference, &responses);
    setup.tier.shutdown();
    Ok(out)
}

/// The traced run of a serving workload:
/// 1. a quarter of the time untraced and a quarter traced against the
///    tier (the throughput gap is the tracing overhead; `/metrics`
///    deltas over the traced quarter give the tier's own counters);
/// 2. paired router and direct requests for the router hop;
/// 3. half the time replaying the seeded keys through the layer
///    functions, in the order `Engine` calls them.
fn traced_serving(
    ctx: &RunCtx,
    kind: Kind,
    setup: Setup,
    keys: &[Key],
    paths: &[String],
    mut out: Outcome,
) -> std::io::Result<Outcome> {
    let reference = ReferenceScorer::from_checkpoint(&setup.ckpt)?;
    let hot = kind == Kind::HotCache;
    let router = setup.tier.router_addr();
    let replicas = setup.tier.replica_addrs();
    // Large catalog: three disjoint thirds of the keys, so no phase hits
    // a key another phase cached.
    let third = paths.len() / 3;
    let (untraced_paths, traced_paths, traced_keys, hop_keys) = if hot {
        (paths, paths, keys, keys)
    } else {
        (
            &paths[..third],
            &paths[third..2 * third],
            &keys[third..2 * third],
            &keys[2 * third..],
        )
    };
    let loop_plan = |p, traced| LoopPlan {
        paths: p,
        cycle: hot,
        expect: None,
        keep_bodies: traced,
        traced,
    };
    let untraced = closed_loop(router, &loop_plan(untraced_paths, false), ctx.seconds / 4.0)?;

    let counters = || -> std::io::Result<[f64; 6]> {
        Ok([
            scrape_sum(&replicas, "st_serve_cache_hits_total")?,
            scrape_sum(&replicas, "st_serve_cache_misses_total")?,
            scrape_sum(&replicas, "st_serve_batches_total")?,
            scrape_sum(&replicas, "st_serve_batched_requests_total")?,
            scrape_sum(&[router], "st_router_forwarded_total")?,
            scrape_sum(&[router], "st_router_conn_retries_total")?,
        ])
    };
    let before = counters()?;
    let traced = closed_loop(router, &loop_plan(traced_paths, true), ctx.seconds / 4.0)?;
    let after = counters()?;
    let delta: Vec<f64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
    out.set("serve.cache_hits", delta[0]);
    out.set("serve.cache_misses", delta[1]);
    out.set(
        "serve.cache_hit_ratio",
        delta[0] / (delta[0] + delta[1]).max(1.0),
    );
    out.set(
        "serve.batch_size_mean",
        if delta[2] > 0.0 {
            delta[3] / delta[2]
        } else {
            0.0
        },
    );
    out.set("router.forwarded", delta[4]);
    out.set("router.conn_retries", delta[5]);
    let (t_untraced, t_traced) = (
        untraced.tally.ok as f64 / untraced.elapsed_s,
        traced.tally.ok as f64 / traced.elapsed_s,
    );
    out.set("trace.overhead_pct", (t_untraced / t_traced - 1.0) * 100.0);
    out.detail(
        "tracing",
        format!("untraced {t_untraced:.1} req/s, traced {t_traced:.1} req/s"),
    );
    out.tally = untraced.tally;
    out.tally.absorb(traced.tally);

    let responses = parse_all(&mut out, &setup.dataset, traced_keys, &traced.bodies);
    let recall = check_against_reference(&mut out, &setup.dataset, &reference, &responses);
    out.set("core.recall_at_10", recall);

    let mut tracer = Tracer::new();
    for (idx, t0, t1) in &traced.spans {
        tracer.record("client.request", *idx as u64, None, *t0, *t1);
    }

    // Router hop: the same request (hot: cached on both paths) or a
    // request of the same shape (large: each key once) through the
    // router and straight to its owner, alternating.
    let mut via_router = Vec::with_capacity(HOP_PAIRS);
    let mut direct = Vec::with_capacity(HOP_PAIRS);
    let mut router_client = HttpClient::connect(router)?;
    let mut replica_clients: BTreeMap<SocketAddr, HttpClient> = BTreeMap::new();
    for pair in 0..HOP_PAIRS {
        let (rk, dk) = if hot {
            (keys[pair % keys.len()], keys[pair % keys.len()])
        } else {
            (hop_keys[2 * pair], hop_keys[2 * pair + 1])
        };
        let t0 = Instant::now();
        let a = router_client.get(&rk.path())?;
        via_router.push(t0.elapsed().as_secs_f64() * 1e6);
        let owner = setup.tier.owner(dk.user);
        let client = match replica_clients.entry(owner) {
            std::collections::btree_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::btree_map::Entry::Vacant(e) => e.insert(HttpClient::connect(owner)?),
        };
        let t0 = Instant::now();
        let b = client.get(&dk.path())?;
        direct.push(t0.elapsed().as_secs_f64() * 1e6);
        out.tally.record(a.status == 200);
        out.tally.record(b.status == 200);
    }
    out.set(
        "router.hop_us",
        stats::median(&mut via_router) - stats::median(&mut direct),
    );

    replay(ctx, &setup, keys, hot, &mut tracer, &mut out)?;
    let self_times = tracer.self_times();
    for (metric, span) in [
        ("serve.http_parse_us", "serve.http_parse"),
        ("serve.cache_lookup_us", "serve.cache_lookup"),
        ("serve.render_us", "serve.render"),
        ("serve.submit_us", "serve.submit"),
        ("core.retrieval_us", "core.retrieval"),
        ("core.score_us", "core.score"),
        ("core.topk_us", "core.topk"),
    ] {
        out.set(metric, self_times.get(span).map_or(0.0, |s| s.mean_us()));
    }
    out.set("trace.spans", tracer.spans().len() as f64);
    out.tracer = Some(tracer);
    setup.tier.shutdown();
    Ok(out)
}

/// Replays seeded keys through the layer functions, recording spans,
/// and sets the per-query counts of the miss path.
fn replay(
    ctx: &RunCtx,
    setup: &Setup,
    keys: &[Key],
    hot: bool,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> std::io::Result<()> {
    let dataset = &setup.dataset;
    let reloader = Reloader::new(
        dataset.clone(),
        setup.split.clone(),
        fixture::model_config(ctx.seed),
        &setup.ckpt,
    );
    let t0 = Instant::now();
    let (frozen, bytes) = reloader.load_frozen()?;
    tracer.record("serve.load_frozen", 0, None, t0, Instant::now());
    let cell = Arc::new(ModelCell::from_frozen(frozen, Some(bytes), None));
    let generation = cell.current();
    let t0 = Instant::now();
    let index = RetrievalIndex::build(&generation.frozen, dataset, RetrievalConfig::default());
    tracer.record("core.index_build", 0, None, t0, Instant::now());
    let self_times = tracer.self_times();
    out.set(
        "serve.load_frozen_ms",
        self_times["serve.load_frozen"].mean_us() / 1e3,
    );
    out.set(
        "core.index_build_ms",
        self_times["core.index_build"].mean_us() / 1e3,
    );

    let mut batcher = MicroBatcher::start(
        cell.clone(),
        Arc::new(Metrics::new()),
        BatchConfig::default(),
    );
    let mut cache: LruCache<(u32, u16, usize, u64), Arc<str>> =
        LruCache::new(ServeConfig::default().cache_capacity);
    let mut score_ctx = InferCtx::new();
    let dim = generation.frozen.poi_table().cols();
    let pair_bytes = 2 * generation.frozen.encoding().bytes_per_row(dim);
    let (mut queries, mut candidates, mut fallbacks, mut grows, mut pairs) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut sink: Vec<u8> = Vec::with_capacity(4096);
    // The replay's cache starts empty. Large catalog: every key once, so
    // each is a miss. Hot: the hot set, cycled (only the first pass
    // misses).
    let sequence: Box<dyn Iterator<Item = Key>> = if hot {
        Box::new(keys.iter().copied().cycle())
    } else {
        Box::new(keys.iter().copied())
    };
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds / 2.0);
    for (id, key) in sequence.enumerate().take(REPLAY_CAP) {
        if Instant::now() >= deadline {
            break;
        }
        let id = id as u64;
        let root = tracer.begin("serve.request", id, None);
        let raw = format!("GET {} HTTP/1.1\r\nHost: st-serve\r\n\r\n", key.path());
        let parsed = tracer.time("serve.http_parse", id, Some(root), || {
            http::read_request(&mut std::io::Cursor::new(raw.as_bytes()))
        });
        let parsed_ok =
            matches!(&parsed, Ok(Some(r)) if r.query_param("user") == Some(&key.user.to_string()));
        out.tally.record(parsed_ok);
        let (user, city) = (UserId(key.user), CityId(key.city));
        let cache_key = (key.user, key.city, key.k, generation.epoch);
        let cached = tracer.time("serve.cache_lookup", id, Some(root), || {
            cache.get(&cache_key).cloned()
        });
        match cached {
            Some(body) => {
                tracer.time("serve.render", id, Some(root), || {
                    sink.clear();
                    http::Response::json(200, body.as_bytes().to_vec())
                        .with_header("X-Cache", "HIT")
                        .with_header("X-Model-Epoch", &generation.epoch.to_string())
                        .write_to(&mut sink, true)
                })?;
            }
            None => {
                let mut ctx = InferCtx::new();
                let retrieved = tracer.time("core.retrieval", id, Some(root), || {
                    index.candidates(&generation.frozen, &mut ctx, dataset, user, city)
                });
                grows += ctx.grow_events() as u64;
                let pois = match retrieved {
                    Some(c) => c.pois,
                    None => {
                        fallbacks += 1;
                        dataset.pois_in_city(city).to_vec()
                    }
                };
                queries += 1;
                candidates += pois.len() as u64;
                let pois = Arc::new(pois);
                let reply = tracer.time("serve.submit", id, Some(root), || {
                    batcher.submit(BatchRequest {
                        user,
                        candidates: pois.clone(),
                        k: key.k,
                    })
                });
                let Ok(reply) = reply else {
                    out.check(false, || format!("{key:?}: batcher refused the request"));
                    tracer.end(root);
                    continue;
                };
                let users = vec![user; pois.len()];
                let scores = tracer.time("core.score", id, Some(root), || {
                    generation
                        .frozen
                        .try_score_pairs_with(&mut score_ctx, &users, &pois)
                });
                let Ok(scores) = scores else {
                    out.check(false, || format!("{key:?}: scoring refused the pairs"));
                    tracer.end(root);
                    continue;
                };
                pairs += pois.len() as u64;
                let recs = tracer.time("core.topk", id, Some(root), || {
                    rank_top_k(&pois, &scores, key.k)
                });
                let same = recs.len() == reply.recs.len()
                    && recs
                        .iter()
                        .zip(&reply.recs)
                        .all(|(a, b)| a.poi == b.poi && a.score.to_bits() == b.score.to_bits());
                out.check(same, || {
                    format!("{key:?}: batcher ranking differs from direct scoring")
                });
                let body: Arc<str> = tracer.time("serve.render", id, Some(root), || {
                    let body: Arc<str> =
                        render_recommend_body(user, city, key.k, reply.epoch, &reply.recs).into();
                    sink.clear();
                    http::Response::json(200, body.as_bytes().to_vec())
                        .with_header("X-Cache", "MISS")
                        .with_header("X-Model-Epoch", &reply.epoch.to_string())
                        .write_to(&mut sink, true)
                        .map(|()| body)
                })?;
                cache.insert(cache_key, body);
            }
        }
        tracer.end(root);
    }
    batcher.shutdown();
    let per_query = |v: u64| {
        if queries > 0 {
            v as f64 / queries as f64
        } else {
            0.0
        }
    };
    out.set("core.candidates_per_query", per_query(candidates));
    out.set("core.retrieval_fallbacks", fallbacks as f64);
    out.set("tensor.infer_ctx_grows_per_query", per_query(grows));
    out.set(
        "tensor.bytes_gathered_per_query",
        per_query(candidates) * pair_bytes as f64,
    );
    let score_s = tracer
        .self_times()
        .get("core.score")
        .map_or(0.0, |s| s.total_ns as f64 / 1e9);
    out.set(
        "core.pairs_scored_per_s",
        if score_s > 0.0 {
            pairs as f64 / score_s
        } else {
            0.0
        },
    );
    out.detail(
        "replay",
        format!(
            "{} requests, {queries} scored",
            tracer
                .spans()
                .iter()
                .filter(|s| s.name == "serve.request")
                .count()
        ),
    );
    Ok(())
}
