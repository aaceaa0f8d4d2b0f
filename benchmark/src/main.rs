//! Repository benchmark: crossing-city top-k serving (large catalog and
//! hot cache), the online train→publish→serve loop, and the paper's
//! Table 2 training at 1 and 2 workers.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run prints its provenance and metrics by name with their units,
//! then, as the last line of standard output, one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` runs the workload again
//! with spans around each layer call and reports the per-layer metrics.
//! See `benchmark/README.md`.

mod fixture;
mod online;
mod reference;
mod serving;
mod stats;
mod sys;
mod trace;
mod train;

use stats::Tally;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use trace::Tracer;

/// Workloads in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = [
    "recommend_large_catalog",
    "recommend_hot_cache",
    "online_publish",
    "train_table2",
];

/// End-to-end metrics with a bound, reported by every untraced run.
///
/// Wall-clock latency and throughput are measured and printed too (see
/// [`UNBOUNDED`]) but carry no bound: on a shared 2-core virtual machine
/// the CPU time the host steals moved them by 4-58% (quartile spread
/// over seeds) between runs of the same code, while the CPU time per
/// operation and the peak RSS stayed within 2-18%.
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("cpu_ms_per_op", "ms"),
];

/// End-to-end figures printed with the bounded ones but not part of
/// the result line.
const UNBOUNDED: [(&str, &str); 3] = [
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
];

/// Per-layer metrics, reported by every traced run; a layer the
/// workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 44] = [
    ("router.hop_us", "us"),
    ("router.forwarded", "count"),
    ("router.conn_retries", "count"),
    ("serve.http_parse_us", "us"),
    ("serve.cache_lookup_us", "us"),
    ("serve.render_us", "us"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.submit_us", "us"),
    ("serve.batch_size_mean", "count"),
    ("serve.reload_ms", "ms"),
    ("serve.load_frozen_ms", "ms"),
    ("core.retrieval_us", "us"),
    ("core.candidates_per_query", "count"),
    ("core.retrieval_fallbacks", "count"),
    ("core.score_us", "us"),
    ("core.pairs_scored_per_s", "1/s"),
    ("core.topk_us", "us"),
    ("core.index_build_ms", "ms"),
    ("core.recall_at_10", "ratio"),
    ("core.train_step_ms", "ms"),
    ("core.fwd_bwd_ms", "ms"),
    ("core.grad_merge_ms", "ms"),
    ("core.optimizer_apply_ms", "ms"),
    ("core.buffer_reprime_ms", "ms"),
    ("core.step_overhead_ms", "ms"),
    ("core.touched_rows_per_step", "count"),
    ("core.examples_per_s_w1", "1/s"),
    ("core.examples_per_s_w2", "1/s"),
    ("tensor.pool_growth_per_step", "count"),
    ("tensor.pool_misses_per_step", "count"),
    ("tensor.rss_growth_mb_per_step", "MiB"),
    ("tensor.infer_ctx_grows_per_query", "count"),
    ("tensor.bytes_gathered_per_query", "B"),
    ("online.build_batch_us", "us"),
    ("online.train_batch_ms", "ms"),
    ("online.gate_ms", "ms"),
    ("online.checkpoint_write_ms", "ms"),
    ("online.baseline_restore_ms", "ms"),
    ("online.reads_per_s", "1/s"),
    ("online.read_p50_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// Times each workload sets up per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Runs `set_up` [`SETUPS`] times, handing every result but the last to
/// `tear_down` as soon as it is made and returning the freed memory to
/// the system, so no two set-ups are resident at once and the discarded
/// ones do not raise the peak RSS. Returns the last result and the
/// median set-up time in s.
pub fn set_up_repeatedly<S>(
    mut set_up: impl FnMut() -> std::io::Result<S>,
    mut tear_down: impl FnMut(S),
) -> std::io::Result<(S, f64)> {
    let mut times = Vec::with_capacity(SETUPS);
    loop {
        let t0 = std::time::Instant::now();
        let s = set_up()?;
        times.push(t0.elapsed().as_secs_f64());
        if times.len() >= SETUPS {
            return Ok((s, stats::median(&mut times)));
        }
        tear_down(s);
        sys::release_free_memory();
    }
}

/// What one run is asked to do.
pub struct RunCtx {
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Scratch directory for checkpoints, inside the checkout.
    pub work: PathBuf,
}

/// What one run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted, by outcome.
    pub tally: Tally,
    /// Failed output checks; empty when every check passed.
    pub problems: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable facts for the report: sample counts, tail
    /// percentiles, input sizes.
    pub details: Vec<(String, String)>,
    /// Spans of a traced run.
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// Records an output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Adds a report line.
    pub fn detail(&mut self, key: &str, value: impl std::fmt::Display) {
        self.details.push((key.to_string(), value.to_string()));
    }

    /// Sets `latency_p50_ms` / `latency_tail_ms` from samples in ms,
    /// the tail read at most at `max_q`, and records the sample count
    /// and tail percentile.
    pub fn set_latency(&mut self, what: &str, samples: &mut [f64], max_q: f64) {
        if samples.is_empty() {
            self.problems.push(format!("no {what} samples"));
            return;
        }
        let s = stats::Summary::of(samples, max_q);
        self.set("latency_p50_ms", s.p50);
        self.set("latency_tail_ms", s.tail);
        self.detail(
            "latency",
            format!(
                "{what}: n={} p50={:.4} ms {}={:.4} ms",
                s.n,
                s.p50,
                s.tail_label(),
                s.tail
            ),
        );
    }
}

impl Outcome {
    /// Sets `latency_p50_ms` and `latency_tail_ms` from `(completed at
    /// s, latency ms)` samples as medians over `windows` windows of a
    /// `seconds`-long phase, and returns the windowed figures (the
    /// caller picks its throughput from them).
    pub fn set_windowed(
        &mut self,
        what: &str,
        samples: &[(f64, f64)],
        seconds: f64,
        windows: usize,
        max_q: f64,
    ) -> stats::Windowed {
        let w = stats::windowed(samples, seconds, windows, max_q);
        self.set("latency_p50_ms", w.p50);
        self.set("latency_tail_ms", w.tail);
        let label = stats::Summary {
            n: samples.len(),
            p50: w.p50,
            tail_q: w.tail_q,
            tail: w.tail,
        }
        .tail_label();
        self.detail(
            "latency",
            format!(
                "{what}: n={} in {windows} windows (fewest {}); medians over windows: p50 {:.4} ms, {label} {:.4} ms, {:.2}/s, {:.2}/s busy",
                samples.len(),
                w.min_window_n,
                w.p50,
                w.tail,
                w.throughput,
                w.busy_rate
            ),
        );
        w
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    role: Option<String>,
    dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 1,
        seconds: 10,
        trace: false,
        role: None,
        dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--role" => args.role = Some(value()?),
            "--dir" => args.dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {}; expected one of {} or all",
            args.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn run_workload(name: &str, ctx: &RunCtx) -> std::io::Result<Outcome> {
    match name {
        "recommend_large_catalog" => serving::large_catalog(ctx),
        "recommend_hot_cache" => serving::hot_cache(ctx),
        "online_publish" => online::run(ctx),
        "train_table2" => train::run(ctx),
        other => unreachable!("workload {other} was validated"),
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// Prints the report lines and the final JSON line, and writes the
/// report (and spans) under `.bench_out/`.
fn report(name: &str, args: &Args, ctx: &RunCtx, outcome: &Outcome) -> std::io::Result<()> {
    let catalogue: &[(&str, &str)] = if ctx.trace { &PER_LAYER } else { &END_TO_END };
    let mut values = Vec::new();
    for &(metric, unit) in catalogue {
        let value = match outcome.metrics.get(metric) {
            Some(&v) => v,
            None if ctx.trace => 0.0,
            None => {
                return Err(std::io::Error::other(format!(
                    "{name} did not measure {metric}"
                )));
            }
        };
        values.push((metric, value, unit));
    }
    let correct = outcome.problems.is_empty();
    let revision = sys::git_revision();
    let cores = sys::host_cores();
    let mut out = std::io::stdout().lock();
    writeln!(
        out,
        "# {name}: seed={} seconds={} trace={} cores={cores} clients={} git={revision}",
        args.seed,
        args.seconds,
        u8::from(ctx.trace),
        serving::CLIENTS
    )?;
    writeln!(
        out,
        "# attempted={} failed={} correct={correct}",
        outcome.tally.attempted(),
        outcome.tally.failed
    )?;
    for (k, v) in &outcome.details {
        writeln!(out, "#   {k}: {v}")?;
    }
    for p in &outcome.problems {
        writeln!(out, "# CHECK FAILED: {p}")?;
    }
    for (metric, value, unit) in &values {
        writeln!(out, "{metric} = {value:.6} {unit}")?;
    }
    if !ctx.trace {
        for (metric, unit) in UNBOUNDED {
            if let Some(value) = outcome.metrics.get(metric) {
                writeln!(out, "# {metric} = {value:.6} {unit} (no bound)")?;
            }
        }
    }

    let metrics_json: Vec<String> = values
        .iter()
        .map(|(m, v, u)| {
            format!(
                "\"{m}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(*v)
            )
        })
        .collect();
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.tally.attempted(),
        outcome.tally.failed,
        metrics_json.join(", ")
    );

    let out_dir = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&out_dir)?;
    let stem = format!("{name}-seed{}-trace{}", args.seed, u8::from(ctx.trace));
    let details: Vec<String> = outcome
        .details
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace('"', "'")))
        .collect();
    let problems: Vec<String> = outcome
        .problems
        .iter()
        .map(|p| format!("\"{}\"", p.replace('"', "'")))
        .collect();
    std::fs::write(
        out_dir.join(format!("{stem}.json")),
        format!(
            "{{\"workload\": \"{name}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host_cores\": {cores}, \"clients\": {}, \"git_revision\": \"{revision}\", \"details\": {{{}}}, \"problems\": [{}], \"result\": {result}}}\n",
            args.seed,
            args.seconds,
            ctx.trace,
            serving::CLIENTS,
            details.join(", "),
            problems.join(", ")
        ),
    )?;
    if let Some(tracer) = &outcome.tracer {
        tracer.write_jsonl(&out_dir.join(format!("{stem}.spans.jsonl")))?;
    }
    writeln!(out, "{result}")
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("st-repo-bench: {e}");
            std::process::exit(2);
        }
    };
    if args.role.as_deref() == Some("fixture") {
        let (Some(kind), Some(dir)) = (fixture::Kind::from_workload(&args.workload), &args.dir)
        else {
            eprintln!("st-repo-bench: --role fixture needs a serving workload and --dir");
            std::process::exit(2);
        };
        if let Err(e) = fixture::build_checkpoint(kind, args.seed, dir) {
            eprintln!("st-repo-bench: fixture: {e}");
            std::process::exit(1);
        }
        return;
    }

    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    for name in names {
        let work = PathBuf::from(".bench_work").join(format!("{name}-{}", std::process::id()));
        let ctx = RunCtx {
            seed: args.seed,
            seconds: args.seconds as f64,
            trace: args.trace,
            work: work.clone(),
        };
        let result = std::fs::create_dir_all(&work)
            .and_then(|()| run_workload(name, &ctx))
            .and_then(|outcome| report(name, &args, &ctx, &outcome));
        let _ = std::fs::remove_dir_all(&work);
        if let Err(e) = result {
            eprintln!("st-repo-bench: {name}: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_up_repeatedly_keeps_the_last_and_tears_down_the_rest() {
        let mut made = 0;
        let mut torn_down = Vec::new();
        let (kept, setup_s) = set_up_repeatedly(
            || {
                made += 1;
                Ok(made)
            },
            |s| torn_down.push(s),
        )
        .expect("set-up cannot fail here");
        assert_eq!(kept, SETUPS);
        assert_eq!(torn_down, (1..SETUPS).collect::<Vec<_>>());
        assert!(setup_s >= 0.0);
    }

    #[test]
    fn set_up_repeatedly_stops_at_the_first_error() {
        let mut calls = 0;
        let result = set_up_repeatedly(
            || {
                calls += 1;
                if calls == 2 {
                    Err(std::io::Error::other("boom"))
                } else {
                    Ok(())
                }
            },
            |()| {},
        );
        assert!(result.is_err());
        assert_eq!(calls, 2);
    }
}
