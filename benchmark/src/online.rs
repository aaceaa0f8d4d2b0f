//! `online_publish`: `run_online_loop` cycles (ingest → micro-batch
//! train → gate → publish → reload) against one replica while a read
//! connection cycles a fixed key set on the same replica.
//!
//! The catalog is above the index's `min_catalog`, so each publish
//! rebuilds a retrieval index, and each publish invalidates the result
//! cache. The loop runs in rounds of [`CYCLES_PER_ROUND`] fault-free
//! cycles; between rounds the trainer's model is restored from the
//! served checkpoint, like an online trainer restarted from the last
//! published generation, which bounds the memory its training pool
//! accumulates.

use crate::fixture::{self, Kind};
use crate::reference::{ReferenceScorer, SCORE_TOLERANCE};
use crate::serving::{parse_recommendations, scrape, start_replica, Key};
use crate::stats::{self, Tally};
use crate::trace::Tracer;
use crate::{set_up_repeatedly, sys, Outcome, RunCtx};
use st_data::synth::CheckinStream;
use st_data::{CrossingCitySplit, Dataset};
use st_online::{
    gate, run_online_loop, CycleOutcome, FaultPlan, GateConfig, IncrementalTrainer,
    OnlineLoopConfig, ShadowWindow,
};
use st_serve::snapshot::Reloader;
use st_serve::{HttpClient, Server};
use st_tensor::StorageEncoding;
use st_transrec_core::{RetrievalConfig, RetrievalIndex, STTransRec};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Publish cycles per `run_online_loop` call.
const CYCLES_PER_ROUND: usize = 16;
/// Streamed events per training micro-batch.
const MICRO_BATCH: usize = 128;
/// Training micro-batches per cycle.
const BATCHES_PER_CYCLE: usize = 3;
/// Events held out into the shadow window per cycle.
const SHADOW_BATCH: usize = 64;
/// Negatives per streamed positive.
const NEGATIVES: usize = 4;
/// Users whose keys the read connection cycles (times both cities).
/// Few enough that one pass, misses included, ends well within a cycle,
/// so every publish costs the reader the same re-scoring work.
const READ_USERS: usize = 4;
/// Pause between reads: the reader is one app server asking at a steady
/// pace, not a second saturating load on the loop's two cores.
const READ_THINK: Duration = Duration::from_millis(2);

struct Setup {
    dataset: Arc<Dataset>,
    split: Arc<CrossingCitySplit>,
    ckpt: PathBuf,
    server: Server,
    model: STTransRec,
    read_keys: Vec<Key>,
    read_paths: Vec<String>,
}

/// The model the server is serving, as a trainable model.
fn restore(
    dataset: &Dataset,
    split: &CrossingCitySplit,
    ckpt: &Path,
    seed: u64,
) -> std::io::Result<STTransRec> {
    let mut model = STTransRec::new(dataset, split, fixture::model_config(seed));
    model.restore(std::fs::File::open(ckpt)?)?;
    Ok(model)
}

fn set_up(ctx: &RunCtx) -> std::io::Result<Setup> {
    let ckpt = fixture::spawn_build(Kind::Online, ctx.seed, &ctx.work)?;
    let (dataset, split) = fixture::dataset(Kind::Online, ctx.seed);
    let (dataset, split) = (Arc::new(dataset), Arc::new(split));
    let server = start_replica(&dataset, &split, &ckpt, ctx.seed)?;
    let model = restore(&dataset, &split, &ckpt, ctx.seed)?;
    let read_keys: Vec<Key> = (0..READ_USERS as u32)
        .flat_map(|user| {
            dataset.cities().iter().map(move |c| Key {
                user,
                city: c.id.0,
                k: 10,
            })
        })
        .collect();
    let read_paths: Vec<String> = read_keys.iter().map(Key::path).collect();
    let mut client = HttpClient::connect(server.local_addr())?;
    for p in &read_paths {
        let r = client.get(p)?;
        if r.status != 200 {
            return Err(std::io::Error::other(format!(
                "warm-up {p} returned {}",
                r.status
            )));
        }
    }
    Ok(Setup {
        dataset,
        split,
        ckpt,
        server,
        model,
        read_keys,
        read_paths,
    })
}

fn gate_config() -> GateConfig {
    // The shipped smoke loop's gate: three hit-rate quanta of slack on a
    // 64-event window, so clean candidates are not vetoed by one event.
    GateConfig {
        tolerance: 0.05,
        ..GateConfig::default()
    }
}

fn loop_config(seed: u64, round: usize) -> OnlineLoopConfig {
    OnlineLoopConfig {
        seed: seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ round as u64,
        model: fixture::model_config(seed),
        warmup_epochs: 0,
        micro_batch: MICRO_BATCH,
        train_batches_per_cycle: BATCHES_PER_CYCLE,
        shadow_batch: SHADOW_BATCH,
        shadow_capacity: 2 * SHADOW_BATCH,
        negatives: NEGATIVES,
        gate: gate_config(),
        faults: FaultPlan::none(CYCLES_PER_ROUND),
        snapshot_format: StorageEncoding::F32,
    }
}

/// What the read connection saw.
#[derive(Default)]
struct Reads {
    latencies_ms: Vec<f64>,
    tally: Tally,
    /// Responses whose `X-Model-Epoch` was below an earlier one.
    regressions: u64,
    elapsed_s: f64,
}

/// Cycles `paths` on one keep-alive connection until `stop` is set.
fn read_loop(addr: SocketAddr, paths: &[String], stop: &AtomicBool) -> std::io::Result<Reads> {
    let mut reads = Reads::default();
    let mut client = HttpClient::connect(addr)?;
    let mut last_epoch = 0u64;
    let started = Instant::now();
    for path in paths.iter().cycle() {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let t0 = Instant::now();
        let resp = client.get(path);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        match resp {
            Ok(r) if r.status == 200 => {
                reads.tally.record(true);
                reads.latencies_ms.push(ms);
                let epoch: u64 = r
                    .header("x-model-epoch")
                    .and_then(|e| e.parse().ok())
                    .unwrap_or(0);
                if epoch < last_epoch {
                    reads.regressions += 1;
                }
                last_epoch = last_epoch.max(epoch);
            }
            Ok(_) => reads.tally.record(false),
            Err(_) => {
                reads.tally.record(false);
                client = HttpClient::connect(addr)?;
            }
        }
        std::thread::sleep(READ_THINK);
    }
    reads.elapsed_s = started.elapsed().as_secs_f64();
    Ok(reads)
}

/// Runs `body` while a read connection cycles `paths` on `addr`.
fn with_reads<T>(
    addr: SocketAddr,
    paths: &[String],
    body: impl FnOnce() -> std::io::Result<T>,
) -> std::io::Result<(T, Reads)> {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let reader = s.spawn(|| read_loop(addr, paths, &stop));
        let result = body();
        stop.store(true, Ordering::Relaxed);
        let reads = reader.join().expect("reader panicked");
        Ok((result?, reads?))
    })
}

/// Totals over the loop rounds.
#[derive(Default)]
struct Rounds {
    loop_s: f64,
    events: usize,
    cycles: usize,
    published: usize,
    publish_ms: Vec<f64>,
}

/// Runs `run_online_loop` rounds for `seconds`.
fn loop_rounds(
    setup: &mut Setup,
    ctx: &RunCtx,
    seconds: f64,
    out: &mut Outcome,
) -> std::io::Result<Rounds> {
    let mut r = Rounds::default();
    let started = Instant::now();
    let mut round = 0;
    while started.elapsed().as_secs_f64() < seconds {
        let cfg = loop_config(ctx.seed, round);
        let t0 = Instant::now();
        let report = run_online_loop(
            &setup.dataset,
            &setup.split,
            &setup.server,
            &setup.ckpt,
            &mut setup.model,
            &cfg,
        )?;
        r.loop_s += t0.elapsed().as_secs_f64();
        let want = report.cycles.len() * BATCHES_PER_CYCLE * MICRO_BATCH;
        out.check(report.events_ingested == want, || {
            format!(
                "round {round}: {} events consumed, want {want}",
                report.events_ingested
            )
        });
        for c in &report.cycles {
            out.tally.record(c.outcome != CycleOutcome::Crashed);
            if let Some(us) = c.publish_latency_us {
                r.publish_ms.push(us as f64 / 1e3);
            }
        }
        r.events += report.events_ingested;
        r.cycles += report.cycles.len();
        r.published += report.count(CycleOutcome::Published);
        setup.model = restore(&setup.dataset, &setup.split, &setup.ckpt, ctx.seed)?;
        round += 1;
    }
    Ok(r)
}

fn served_epoch(addr: SocketAddr) -> std::io::Result<f64> {
    scrape(addr)?
        .get("st_serve_model_epoch")
        .copied()
        .ok_or_else(|| std::io::Error::other("no st_serve_model_epoch"))
}

/// Reads every key once more and checks the answers come from the last
/// published generation: its epoch, and its scores by the reference
/// scorer over the checkpoint on disk.
fn check_final_answers(setup: &Setup, epoch: f64, out: &mut Outcome) -> std::io::Result<()> {
    let reference = ReferenceScorer::from_checkpoint(&setup.ckpt)?;
    let mut client = HttpClient::connect(setup.server.local_addr())?;
    for (key, path) in setup.read_keys.iter().zip(&setup.read_paths) {
        let r = client.get(path)?;
        let served = r
            .header("x-model-epoch")
            .and_then(|e| e.parse::<f64>().ok());
        out.check(r.status == 200 && served == Some(epoch), || {
            format!("{path}: status {} epoch {served:?}, want {epoch}", r.status)
        });
        let recs = parse_recommendations(&r.body).unwrap_or_default();
        out.check(!recs.is_empty(), || format!("{path}: no recommendations"));
        for (poi, score) in recs {
            let want = reference.score(key.user as usize, poi as usize);
            out.check((f64::from(score) - want).abs() <= SCORE_TOLERANCE, || {
                format!("{path}: POI {poi} served {score}, reference {want}")
            });
        }
    }
    Ok(())
}

/// `online_publish`.
pub fn run(ctx: &RunCtx) -> std::io::Result<Outcome> {
    let (mut setup, setup_s) = set_up_repeatedly(|| set_up(ctx), |s| s.server.shutdown())?;
    let mut out = Outcome::default();
    out.detail(
        "inputs",
        format!(
            "{} POIs, {} users; fixture trained {} steps; {CYCLES_PER_ROUND} cycles per round of {BATCHES_PER_CYCLE}x{MICRO_BATCH} events; {} read keys",
            setup.dataset.num_pois(),
            setup.dataset.num_users(),
            Kind::Online.train_steps(),
            setup.read_paths.len()
        ),
    );
    let addr = setup.server.local_addr();
    let start_epoch = served_epoch(addr)?;

    if ctx.trace {
        return traced(ctx, setup, start_epoch, out);
    }
    let paths = setup.read_paths.clone();
    let cpu0 = sys::cpu_s();
    let (rounds, mut reads) = with_reads(addr, &paths, || {
        loop_rounds(&mut setup, ctx, ctx.seconds, &mut out)
    })?;
    out.set(
        "cpu_ms_per_op",
        (sys::cpu_s() - cpu0) * 1e3 / rounds.cycles.max(1) as f64,
    );
    out.set("peak_rss_mb", sys::peak_rss_mb());
    out.set("setup_s", setup_s);
    out.set("throughput_per_s", rounds.events as f64 / rounds.loop_s);
    out.set_latency("publish to serve", &mut rounds.publish_ms.clone(), 0.9);
    out.tally.absorb(reads.tally);
    out.detail(
        "cycles",
        format!(
            "{} cycles, {} published, {} events in {:.3} s of loop time",
            rounds.cycles, rounds.published, rounds.events, rounds.loop_s
        ),
    );
    let read = stats::Summary::of(&mut reads.latencies_ms, 0.99);
    out.detail(
        "reads",
        format!(
            "n={} p50={:.4} ms {}={:.4} ms",
            read.n,
            read.p50,
            read.tail_label(),
            read.tail
        ),
    );
    finish_checks(&setup, start_epoch, rounds.published, &reads, &mut out)?;
    setup.server.shutdown();
    Ok(out)
}

/// Checks shared by both runs: epochs never go back on the read
/// connection, the served epoch counts every publish, and the final
/// answers are the last published generation's.
fn finish_checks(
    setup: &Setup,
    start_epoch: f64,
    published: usize,
    reads: &Reads,
    out: &mut Outcome,
) -> std::io::Result<()> {
    out.check(reads.regressions == 0, || {
        format!("X-Model-Epoch went back {} times", reads.regressions)
    });
    let epoch = served_epoch(setup.server.local_addr())?;
    out.check(epoch == start_epoch + published as f64, || {
        format!("served epoch {epoch}, want {start_epoch} + {published} published")
    });
    check_final_answers(setup, epoch, out)
}

/// What the traced cycles did.
#[derive(Default)]
struct Manual {
    events: usize,
    cycle_s: f64,
    published: usize,
    rss_growth_mb: Vec<f64>,
}

/// The loop's cycle driven through its public pieces under spans, plus
/// the reload path's own pieces (`load_frozen`, the index build) timed
/// on the checkpoint each publish wrote.
fn manual_cycles(
    setup: &mut Setup,
    ctx: &RunCtx,
    seconds: f64,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> std::io::Result<Manual> {
    let mut m = Manual::default();
    let seed = ctx.seed ^ 0x007E_ACED;
    let mut stream = CheckinStream::new(&setup.dataset, seed);
    let mut trainer = IncrementalTrainer::new(&setup.dataset, NEGATIVES, seed);
    let mut shadow = ShadowWindow::new(2 * SHADOW_BATCH);
    let mut baseline = restore(&setup.dataset, &setup.split, &setup.ckpt, ctx.seed)?;
    let reloader = Reloader::new(
        setup.dataset.clone(),
        setup.split.clone(),
        fixture::model_config(ctx.seed),
        &setup.ckpt,
    );
    let mut client = HttpClient::connect(setup.server.local_addr())?;
    let gate_cfg = gate_config();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut cycle = 0u64;
    while Instant::now() < deadline {
        let t0 = Instant::now();
        let root = tracer.begin("online.cycle", cycle, None);
        for _ in 0..BATCHES_PER_CYCLE {
            let events = stream.next_batch(MICRO_BATCH);
            let batch = tracer.time("online.build_batch", cycle, Some(root), || {
                trainer.build_batch(&setup.dataset, &events)
            });
            let rss0 = sys::rss_mb();
            let loss = tracer.time("online.train_batch", cycle, Some(root), || {
                setup.model.train_on_interactions(&batch)
            });
            m.rss_growth_mb.push(sys::rss_mb() - rss0);
            out.check(loss.is_finite(), || {
                format!("cycle {cycle}: non-finite loss")
            });
            m.events += events.len();
        }
        shadow.extend(&stream.next_batch(SHADOW_BATCH));
        let decision = tracer.time("online.gate", cycle, Some(root), || {
            gate(
                &setup.model,
                &baseline,
                &setup.dataset,
                &shadow,
                &gate_cfg,
                cycle,
            )
        });
        let mut ok = true;
        if decision.accept {
            tracer.time("online.checkpoint_write", cycle, Some(root), || {
                st_tensor::save_params_atomic_as(
                    setup.model.params(),
                    &setup.ckpt,
                    StorageEncoding::F32,
                )
            })?;
            let resp = tracer.time("serve.reload", cycle, Some(root), || {
                client.post("/admin/reload")
            })?;
            ok = resp.status == 200;
            tracer.time("online.baseline_restore", cycle, Some(root), || {
                baseline.restore(std::fs::File::open(&setup.ckpt)?)
            })?;
            m.published += usize::from(ok);
        }
        tracer.end(root);
        m.cycle_s += t0.elapsed().as_secs_f64();
        out.tally.record(ok);
        if decision.accept {
            let t0 = Instant::now();
            let (frozen, _) = reloader.load_frozen()?;
            tracer.record("serve.load_frozen", cycle, None, t0, Instant::now());
            tracer.time("core.index_build", cycle, None, || {
                RetrievalIndex::build(&frozen, &setup.dataset, RetrievalConfig::default())
            });
        }
        cycle += 1;
    }
    Ok(m)
}

/// The traced run: half the time untraced loop rounds, half traced
/// manual cycles; the gap in events/s is the tracing overhead.
fn traced(
    ctx: &RunCtx,
    mut setup: Setup,
    start_epoch: f64,
    mut out: Outcome,
) -> std::io::Result<Outcome> {
    let addr = setup.server.local_addr();
    let paths = setup.read_paths.clone();
    let half = ctx.seconds / 2.0;
    let (rounds, reads_a) = with_reads(addr, &paths, || {
        loop_rounds(&mut setup, ctx, half, &mut out)
    })?;
    out.tally.absorb(reads_a.tally);

    let mut tracer = Tracer::new();
    let series = |name: &str| -> std::io::Result<f64> {
        Ok(scrape(addr)?.get(name).copied().unwrap_or(0.0))
    };
    let (hits0, misses0) = (
        series("st_serve_cache_hits_total")?,
        series("st_serve_cache_misses_total")?,
    );
    let (manual, mut reads) = with_reads(addr, &paths, || {
        manual_cycles(&mut setup, ctx, half, &mut tracer, &mut out)
    })?;
    let (hits, misses) = (
        series("st_serve_cache_hits_total")? - hits0,
        series("st_serve_cache_misses_total")? - misses0,
    );
    out.tally.absorb(reads.tally);
    out.set("serve.cache_hits", hits);
    out.set("serve.cache_misses", misses);
    out.set("serve.cache_hit_ratio", hits / (hits + misses).max(1.0));
    out.set(
        "online.reads_per_s",
        reads.tally.ok as f64 / reads.elapsed_s,
    );
    out.set("online.read_p50_ms", stats::median(&mut reads.latencies_ms));
    out.set(
        "tensor.rss_growth_mb_per_step",
        stats::mean(&manual.rss_growth_mb),
    );

    let self_times = tracer.self_times();
    let mean = |name: &str| self_times.get(name).map_or(0.0, |s| s.mean_us());
    out.set("online.build_batch_us", mean("online.build_batch"));
    out.set("online.train_batch_ms", mean("online.train_batch") / 1e3);
    out.set("online.gate_ms", mean("online.gate") / 1e3);
    out.set(
        "online.checkpoint_write_ms",
        mean("online.checkpoint_write") / 1e3,
    );
    out.set(
        "online.baseline_restore_ms",
        mean("online.baseline_restore") / 1e3,
    );
    out.set("serve.reload_ms", mean("serve.reload") / 1e3);
    out.set("serve.load_frozen_ms", mean("serve.load_frozen") / 1e3);
    out.set("core.index_build_ms", mean("core.index_build") / 1e3);
    let (untraced, traced) = (
        rounds.events as f64 / rounds.loop_s,
        manual.events as f64 / manual.cycle_s,
    );
    out.set("trace.overhead_pct", (untraced / traced - 1.0) * 100.0);
    out.set("trace.spans", tracer.spans().len() as f64);
    out.detail(
        "tracing",
        format!("untraced loop {untraced:.0} events/s, traced cycles {traced:.0} events/s"),
    );
    finish_checks(
        &setup,
        start_epoch,
        rounds.published + manual.published,
        &reads,
        &mut out,
    )?;
    out.tracer = Some(tracer);
    setup.server.shutdown();
    Ok(out)
}
