//! `train_table2`: the paper's Table 2 on the Foursquare configuration —
//! the same seeded model and data trained with `ParallelTrainer` at 2
//! workers (the timed configuration) and at 1 worker (the baseline the
//! traced run and the loss-parity check use).
//!
//! Training runs in rounds of one warm-up step plus [`ROUND_STEPS`]
//! counted steps, each round on a fresh trainer: every step leaves its
//! worker pools holding more buffers than before, so resident memory
//! grows with the steps one trainer has run, and a round bounds it.

use crate::stats::{self, Tally};
use crate::trace::Tracer;
use crate::{set_up_repeatedly, sys, Outcome, RunCtx};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use st_data::synth::SynthConfig;
use st_data::{CityId, CrossingCitySplit, Dataset};
use st_tensor::{GradSlot, Gradients, MatrixPool};
use st_transrec_core::{ModelConfig, ParallelTrainer, STTransRec, StepLosses};
use std::time::Instant;

/// Counted steps per round, after one warm-up step.
const ROUND_STEPS: usize = 16;
/// Workers of the timed configuration.
const WORKERS: usize = 2;
/// Windows the timed phase is split into; figures are medians over them.
const WINDOWS: usize = 4;
/// Largest accepted gap, relative to the 1-worker loss, between the
/// 1- and 2-worker mean loss over the last quarter of equal example
/// budgets. Two workers take half as many optimizer steps at the same
/// learning rate for the same examples, so their loss trails: gaps of
/// 2.6-7.4% were measured over 35 seeds.
const PARITY_TOLERANCE: f64 = 0.10;

struct Setup {
    dataset: Dataset,
    model: STTransRec,
}

fn set_up(seed: u64) -> Setup {
    let cfg = SynthConfig::foursquare_like().with_seed(seed);
    let (dataset, _) = st_data::synth::generate(&cfg);
    let split = CrossingCitySplit::build(&dataset, CityId(cfg.target_city as u16));
    let config = ModelConfig {
        seed,
        ..ModelConfig::foursquare()
    };
    let model = STTransRec::new(&dataset, &split, config);
    Setup { dataset, model }
}

/// Examples one `train_step` consumes: `batch_size x (1 + negatives)`
/// per worker.
fn examples_per_step(model: &STTransRec, workers: usize) -> f64 {
    let c = model.config();
    (workers * c.batch_size * (1 + c.negatives)) as f64
}

fn total(l: &StepLosses, model: &STTransRec) -> f64 {
    f64::from(l.total(model.config().lambda))
}

/// One round on a fresh `ParallelTrainer`: returns every step's loss
/// (warm-up first) and, per counted step, when it ended (s since
/// `origin`) and how long it took (ms).
fn round(
    setup: &mut Setup,
    workers: usize,
    seed: u64,
    origin: Instant,
    tally: &mut Tally,
) -> (Vec<f64>, Vec<(f64, f64)>) {
    let mut trainer = ParallelTrainer::new(workers);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut losses = Vec::with_capacity(ROUND_STEPS + 1);
    let mut steps = Vec::with_capacity(ROUND_STEPS);
    for step in 0..=ROUND_STEPS {
        let t0 = Instant::now();
        let l = trainer.train_step(&mut setup.model, &setup.dataset, &mut rng);
        let t1 = Instant::now();
        let loss = total(&l, &setup.model);
        tally.record(loss.is_finite());
        losses.push(loss);
        if step > 0 {
            steps.push(((t1 - origin).as_secs_f64(), (t1 - t0).as_secs_f64() * 1e3));
        }
    }
    (losses, steps)
}

/// Step times in ms of `round`'s counted steps.
fn times(steps: &[(f64, f64)]) -> Vec<f64> {
    steps.iter().map(|s| s.1).collect()
}

fn round_seed(seed: u64, round: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ round as u64
}

/// Mean of the last quarter of `v`.
fn tail_mean(v: &[f64]) -> f64 {
    stats::mean(&v[v.len() - v.len() / 4..])
}

/// `train_table2`.
pub fn run(ctx: &RunCtx) -> std::io::Result<Outcome> {
    // Two identical models are enough: the last set-up trains in the
    // timed phase, the one before it replays the first round at 1 worker.
    let mut spare = None;
    let (mut setup, setup_s) = set_up_repeatedly(|| Ok(set_up(ctx.seed)), |s| spare = Some(s))?;
    let mut parity_setup = spare.expect("SETUPS is at least 2");
    let mut out = Outcome::default();
    out.detail(
        "inputs",
        format!(
            "Foursquare-like scale 1.0: {} users, {} POIs, {} check-ins; ModelConfig::foursquare; rounds of 1+{ROUND_STEPS} steps",
            setup.dataset.num_users(),
            setup.dataset.num_pois(),
            setup.dataset.checkins().len()
        ),
    );
    if ctx.trace {
        return traced(ctx, &mut setup, out);
    }

    let started = Instant::now();
    let cpu0 = sys::cpu_s();
    let mut counted_losses = Vec::new();
    let mut steps = Vec::new();
    let mut first_round = Vec::new();
    let mut rounds = 0;
    while started.elapsed().as_secs_f64() < ctx.seconds {
        let seed = round_seed(ctx.seed, rounds);
        let (losses, round_steps) = round(&mut setup, WORKERS, seed, started, &mut out.tally);
        if rounds == 0 {
            first_round = losses.clone();
        }
        counted_losses.extend_from_slice(&losses[1..]);
        steps.extend(round_steps);
        rounds += 1;
    }
    let all_steps = (rounds * (ROUND_STEPS + 1)).max(1) as f64;
    out.set("cpu_ms_per_op", (sys::cpu_s() - cpu0) * 1e3 / all_steps);
    out.set("peak_rss_mb", sys::peak_rss_mb());
    out.set("setup_s", setup_s);
    let w = out.set_windowed("2-worker train_step", &steps, ctx.seconds, WINDOWS, 0.9);
    out.set(
        "throughput_per_s",
        w.busy_rate * examples_per_step(&setup.model, WORKERS),
    );
    out.detail(
        "rounds",
        format!("{rounds} rounds, {} counted steps", counted_losses.len()),
    );

    out.check(!setup.model.params().has_non_finite(), || {
        "non-finite parameters".into()
    });
    let tenth = (counted_losses.len() / 10).max(1);
    let (head, tail) = (
        stats::mean(&counted_losses[..tenth]),
        stats::mean(&counted_losses[counted_losses.len() - tenth..]),
    );
    out.check(tail < head, || {
        format!("loss did not fall: first tenth {head:.4}, last tenth {tail:.4}")
    });
    out.detail(
        "loss",
        format!("first tenth {head:.4}, last tenth {tail:.4}"),
    );

    // Parity: the first round's example budget at 1 worker, on an
    // identical model.
    let mut w1_losses = Vec::new();
    for half in 0..WORKERS {
        let seed = round_seed(ctx.seed, half);
        let (losses, _) = round(&mut parity_setup, 1, seed, started, &mut out.tally);
        w1_losses.extend(losses);
    }
    let (w2, w1) = (tail_mean(&first_round), tail_mean(&w1_losses));
    let gap = (w2 - w1).abs() / w1;
    out.check(gap <= PARITY_TOLERANCE, || {
        format!("2-worker loss {w2:.4} vs 1-worker {w1:.4}: gap {gap:.4} above {PARITY_TOLERANCE}")
    });
    out.detail(
        "parity",
        format!(
            "after {} examples: 1 worker {w1:.4}, 2 workers {w2:.4}, gap {gap:.4}",
            examples_per_step(&setup.model, WORKERS) * first_round.len() as f64
        ),
    );
    Ok(out)
}

/// Rows a gradient buffer holds: touched rows of sparse slots, all rows
/// of dense ones.
fn touched_rows(grads: &Gradients, model: &STTransRec) -> usize {
    model
        .params()
        .ids()
        .filter_map(|id| grads.slot(id))
        .map(|slot| match slot {
            GradSlot::Sparse(rows) => rows.touched_rows(),
            GradSlot::Dense(m) => m.rows(),
        })
        .sum()
}

/// The traced run: rounds of (a) `ParallelTrainer` at 2 workers and
/// (b) at 1 worker, both untraced, then (c) the same 2-worker step
/// driven through `accumulate_step_with_pool`, `merge_from`/`scale` and
/// `apply` with the benchmark's own pools, under spans.
fn traced(ctx: &RunCtx, setup: &mut Setup, mut out: Outcome) -> std::io::Result<Outcome> {
    let mut tracer = Tracer::new();
    let (mut pt2_ms, mut pt1_ms) = (Vec::new(), Vec::new());
    let (mut own_step_ms, mut overhead_ms) = (Vec::new(), Vec::new());
    let (mut pool_growth, mut pool_misses, mut rss_growth, mut touched) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    let mut rounds = 0usize;
    let mut step_id = 0u64;
    while started.elapsed().as_secs_f64() < ctx.seconds {
        let seed = round_seed(ctx.seed, rounds);
        pt2_ms.extend(times(
            &round(setup, WORKERS, seed, started, &mut out.tally).1,
        ));
        pt1_ms.extend(times(&round(setup, 1, seed, started, &mut out.tally).1));

        let mut rng = SmallRng::seed_from_u64(seed);
        let mut pools: Vec<MatrixPool> = (0..WORKERS).map(|_| MatrixPool::new()).collect();
        let mut grads: Vec<Gradients> = (0..WORKERS)
            .map(|_| setup.model.new_grad_buffer())
            .collect();
        for step in 0..=ROUND_STEPS {
            step_id += 1;
            let lens0: usize = pools.iter().map(MatrixPool::len).sum();
            let misses0: usize = pools.iter().map(|p| p.stats().1).sum();
            let rss0 = sys::rss_mb();
            let root = tracer.begin("core.step", step_id, None);
            let seeds: Vec<u64> = (0..WORKERS).map(|_| rng.gen()).collect();
            let model = &setup.model;
            let dataset = &setup.dataset;
            let results: Vec<(StepLosses, Instant, Instant)> = std::thread::scope(|s| {
                let handles: Vec<_> = seeds
                    .iter()
                    .zip(pools.iter_mut())
                    .zip(grads.iter_mut())
                    .map(|((&seed, pool), g)| {
                        s.spawn(move || {
                            let mut rng = SmallRng::seed_from_u64(seed);
                            let t0 = Instant::now();
                            let l = model.accumulate_step_with_pool(dataset, g, &mut rng, pool);
                            (l, t0, Instant::now())
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("worker panicked"))
                    .collect()
            });
            let mut worst = 0.0f64;
            for (l, t0, t1) in &results {
                tracer.record("core.fwd_bwd", step_id, Some(root), *t0, *t1);
                worst = worst.max((*t1 - *t0).as_secs_f64() * 1e3);
                out.tally.record(total(l, &setup.model).is_finite());
            }
            let t0 = Instant::now();
            let mut merged = std::mem::take(&mut grads[0]);
            for g in &mut grads[1..] {
                merged.merge_from(std::mem::take(g));
            }
            merged.scale(1.0 / WORKERS as f32);
            let t1 = Instant::now();
            tracer.record("core.grad_merge", step_id, Some(root), t0, t1);
            let rows = touched_rows(&merged, &setup.model);
            let t2 = Instant::now();
            setup.model.apply(&merged);
            let t3 = Instant::now();
            tracer.record("core.optimizer_apply", step_id, Some(root), t2, t3);
            merged.clear();
            grads[0] = merged;
            for g in &mut grads[1..] {
                *g = setup.model.new_grad_buffer();
            }
            tracer.record(
                "core.buffer_reprime",
                step_id,
                Some(root),
                t3,
                Instant::now(),
            );
            tracer.end(root);
            let rss1 = sys::rss_mb();
            if step > 0 {
                let lens1: usize = pools.iter().map(MatrixPool::len).sum();
                let misses1: usize = pools.iter().map(|p| p.stats().1).sum();
                pool_growth.push((lens1 as f64 - lens0 as f64) / WORKERS as f64);
                pool_misses.push((misses1 - misses0) as f64 / WORKERS as f64);
                rss_growth.push((rss1 - rss0) / WORKERS as f64);
                touched.push(rows as f64);
                let s = tracer.spans()[root];
                let step_ms = (s.end_ns - s.start_ns) as f64 / 1e6;
                own_step_ms.push(step_ms);
                let (merge, apply) = ((t1 - t0).as_secs_f64(), (t3 - t2).as_secs_f64());
                overhead_ms.push(step_ms - worst - (merge + apply) * 1e3);
            }
        }
        rounds += 1;
    }
    out.check(!setup.model.params().has_non_finite(), || {
        "non-finite parameters".into()
    });

    let self_times = tracer.self_times();
    let ms = |name: &str| self_times.get(name).map_or(0.0, |s| s.mean_us() / 1e3);
    let step2 = stats::mean(&pt2_ms);
    out.set("core.train_step_ms", step2);
    out.set("core.fwd_bwd_ms", ms("core.fwd_bwd"));
    out.set("core.grad_merge_ms", ms("core.grad_merge"));
    out.set("core.optimizer_apply_ms", ms("core.optimizer_apply"));
    out.set("core.buffer_reprime_ms", ms("core.buffer_reprime"));
    out.set("core.step_overhead_ms", stats::mean(&overhead_ms));
    out.set("core.touched_rows_per_step", stats::mean(&touched));
    let per_s =
        |workers, v: &[f64]| examples_per_step(&setup.model, workers) / (stats::mean(v) / 1e3);
    out.set("core.examples_per_s_w1", per_s(1, &pt1_ms));
    out.set("core.examples_per_s_w2", per_s(WORKERS, &pt2_ms));
    out.set("tensor.pool_growth_per_step", stats::mean(&pool_growth));
    out.set("tensor.pool_misses_per_step", stats::mean(&pool_misses));
    out.set("tensor.rss_growth_mb_per_step", stats::mean(&rss_growth));
    out.set(
        "trace.overhead_pct",
        (stats::mean(&own_step_ms) / step2 - 1.0) * 100.0,
    );
    out.set("trace.spans", tracer.spans().len() as f64);
    out.detail(
        "steps",
        format!(
            "{rounds} rounds; ParallelTrainer {:.2} ms/step at 1 worker, {step2:.2} at 2; traced own step {:.2}",
            stats::mean(&pt1_ms),
            stats::mean(&own_step_ms)
        ),
    );
    out.tracer = Some(tracer);
    Ok(out)
}
