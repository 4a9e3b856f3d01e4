//! `navbench`: the end-to-end benchmark of the navft workspace.
//!
//! ```text
//! navbench --workload <serve_guarded|drone_campaign|grid_training> \
//!          --seed <n> --seconds <s> --trace <0|1>
//! navbench compare <record-a.json> <record-b.json>
//! ```
//!
//! A run sets the workload up five times (reporting the median set-up
//! time), measures it for `--seconds`, checks its outputs against the
//! library's serial oracles, and prints a table of the workload's metrics
//! followed by one JSON line: `correct`, `attempted`, `failed` and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! A traced run measures the workload twice, untraced then traced, to
//! report the tracing overhead; it writes its spans and self-time rollup
//! under `.navbench/`. See `README.md` beside this file for the workloads
//! and the layer → end-to-end map.

mod drone_campaign;
mod grid_training;
mod hist;
mod host;
mod loadgen;
mod serve_guarded;
mod trace;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use navft_core::sweep::json::Json;

use crate::host::Fingerprint;
use crate::trace::Tracer;

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_mean_us", "us"),
    ("latency_p99_us", "us"),
    ("decisions_per_s", "1/s"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`; a layer
/// the workload does not run reads 0.
const PER_LAYER: [(&str, &str); 42] = [
    ("serve.submit_us_p50.steady", "us"),
    ("serve.queue_wait_us_p50.steady", "us"),
    ("serve.queue_wait_us_p99.steady", "us"),
    ("serve.sweep_us_p50.steady", "us"),
    ("serve.reply_us_p50.steady", "us"),
    ("serve.batch_rows_mean.steady", "rows"),
    ("serve.busy_rejects.steady", "count"),
    ("fault.strike_ns_per_row.steady", "ns"),
    ("fault.bits_struck.steady", "count"),
    ("mitigation.scrub_ns_per_row.steady", "ns"),
    ("mitigation.values_scrubbed.steady", "count"),
    ("loadgen.lag_us_p99.steady", "us"),
    ("serve.submit_us_p50.saturate", "us"),
    ("serve.queue_wait_us_p50.saturate", "us"),
    ("serve.queue_wait_us_p99.saturate", "us"),
    ("serve.sweep_us_p50.saturate", "us"),
    ("serve.reply_us_p50.saturate", "us"),
    ("serve.batch_rows_mean.saturate", "rows"),
    ("serve.busy_rejects.saturate", "count"),
    ("fault.strike_ns_per_row.saturate", "ns"),
    ("fault.bits_struck.saturate", "count"),
    ("mitigation.scrub_ns_per_row.saturate", "ns"),
    ("mitigation.values_scrubbed.saturate", "count"),
    ("loadgen.lag_us_p99.saturate", "us"),
    ("nn.conv_us_per_row", "us"),
    ("nn.pool_us_per_row", "us"),
    ("nn.fc_us_per_row", "us"),
    ("dronesim.step_us", "us"),
    ("dronesim.steps", "count"),
    ("rl.rollout_self_us_per_row", "us"),
    ("rl.rows_per_sweep_mean", "rows"),
    ("fault.sample_us", "us"),
    ("fault.corrupt_us", "us"),
    ("mitigation.scrub_us", "us"),
    ("rl.agent_us_per_step", "us"),
    ("gridworld.step_us", "us"),
    ("gridworld.steps", "count"),
    ("mitigation.observe_us_per_episode", "us"),
    ("rl.eval_s_per_run", "s"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.self_time_coverage", "ratio"),
    ("bench.root_self_frac", "ratio"),
];

/// Set-ups per run; the median is reported as `setup_s`.
const SETUP_REPEATS: usize = 5;

/// Spans kept in memory per traced run (the rollup covers all of them).
const SPAN_CAP: usize = 100_000;

/// Where records and traces go, relative to the working directory.
const OUT_DIR: &str = ".navbench";

/// What one measurement of a workload produced.
pub struct Measured {
    /// Operations attempted (decisions, trials, training runs).
    pub attempted: u64,
    /// Operations that errored, went unserved or failed their output check.
    pub failed: u64,
    pub latency_mean_us: f64,
    pub latency_p99_us: f64,
    /// Policy decisions per second over the whole measurement: served
    /// decisions (`saturate`), flight steps or training steps.
    pub decisions_per_s: f64,
    /// Wall time of the measured work.
    pub wall_s: f64,
    /// The end-to-end quantities under the workload's own names.
    pub named: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metrics (traced measurements only).
    pub layers: Vec<(String, f64)>,
}

/// One benchmark workload.
pub trait Workload {
    type Setup;
    /// Whether the traced run's spans tile its wall time (one trial or run
    /// after another, each under one root span), so that the named layers'
    /// self time can be set against the wall time.
    const SPANS_TILE: bool;
    /// Builds everything the measurement needs from the seed.
    fn setup(seed: u64) -> Self::Setup;
    /// Measures for about `seconds`; traced when a tracer is given.
    fn measure(
        setup: &Self::Setup,
        seed: u64,
        seconds: f64,
        tracer: Option<&mut Tracer>,
    ) -> Measured;
}

/// A 64-bit mix of two words (SplitMix64 finalizer), for deriving
/// independent per-session and per-trial seeds from the workload seed.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Nanoseconds to microseconds.
pub fn us(ns: f64) -> f64 {
    ns / 1e3
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| format!("bad --seconds {value}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if parsed.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(parsed)
}

/// The median of `values` (sorted in place).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Runs `W` end to end; returns the result line's `correct`, `attempted`,
/// `failed` and metrics.
fn run<W: Workload>(args: &Args) -> (bool, u64, u64, Vec<(String, f64, &'static str)>) {
    let mut setup_times = Vec::with_capacity(SETUP_REPEATS);
    let mut setup = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous set-up first so its memory is not counted twice.
        drop(setup.take());
        let start = Instant::now();
        setup = Some(W::setup(args.seed));
        setup_times.push(start.elapsed().as_secs_f64());
    }
    let setup = setup.expect("at least one set-up");
    let setup_s = median(&mut setup_times);

    // A traced run splits its time between the untraced and the traced
    // measurement, so both modes take about `--seconds`.
    let seconds = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let base = W::measure(&setup, args.seed, seconds, None);
    let peak_rss = host::peak_rss_mb();
    print_table("measured", &base);
    let (mut attempted, mut failed) = (base.attempted, base.failed);

    let metrics: Vec<(String, f64, &'static str)> = if args.trace {
        let mut tracer = Tracer::new(Instant::now(), SPAN_CAP);
        let traced = W::measure(&setup, args.seed, seconds, Some(&mut tracer));
        print_table("traced", &traced);
        attempted += traced.attempted;
        failed += traced.failed;
        let overhead = base.decisions_per_s / traced.decisions_per_s - 1.0;
        let mut layers: BTreeMap<String, f64> = traced.layers.into_iter().collect();
        layers.insert("bench.trace_overhead_frac".to_string(), overhead);
        if W::SPANS_TILE {
            // Root spans only hold what no layer span covers, so they stay
            // out of the coverage and are reported on their own.
            let wall_ns = traced.wall_s * 1e9;
            let (roots, named) = tracer
                .layer_self_ns()
                .into_iter()
                .partition::<Vec<_>, _>(|&(layer, _)| layer == trace::ROOT_LAYER);
            let share = |spans: Vec<(&str, u64)>| {
                spans.iter().map(|&(_, ns)| ns as f64).sum::<f64>() / wall_ns
            };
            layers.insert("bench.self_time_coverage".to_string(), share(named));
            layers.insert("bench.root_self_frac".to_string(), share(roots));
        }
        write_trace(args, &tracer, traced.wall_s);
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name.to_string(), layers.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    } else {
        let values =
            [setup_s, peak_rss, base.latency_mean_us, base.latency_p99_us, base.decisions_per_s];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name.to_string(), v, unit))
            .collect()
    };
    println!("setup_s {setup_s:.4} s (median of {SETUP_REPEATS})");
    println!("peak_rss_mb {peak_rss:.3} MB");
    let error_rate = failed as f64 / attempted.max(1) as f64;
    println!("error_rate {error_rate} ({failed} of {attempted} operations failed)");
    (failed == 0, attempted, failed, metrics)
}

fn print_table(label: &str, measured: &Measured) {
    for (name, value, unit) in &measured.named {
        println!("{name} {value:.4} {unit} ({label})");
    }
}

/// Writes the traced run's spans and per-name / per-layer self-time
/// rollup under [`OUT_DIR`]; a write failure is reported, not fatal.
fn write_trace(args: &Args, tracer: &Tracer, wall_s: f64) {
    let stem = format!("{OUT_DIR}/{}-seed{}", args.workload, args.seed);
    let layers = tracer.layer_self_ns();
    let total: u64 = layers.values().sum();
    let rollup = Json::obj([
        ("workload", Json::Str(args.workload.clone())),
        ("wall_s", Json::num(wall_s)),
        ("spans_kept", Json::num(tracer.spans().len() as f64)),
        ("spans_dropped", Json::num(tracer.dropped() as f64)),
        (
            "by_name",
            Json::Obj(
                tracer
                    .rollups()
                    .iter()
                    .map(|(name, r)| {
                        let entry = Json::obj([
                            ("count", Json::num(r.count as f64)),
                            ("total_s", Json::num(r.total_ns as f64 / 1e9)),
                            ("self_s", Json::num(r.self_ns as f64 / 1e9)),
                        ]);
                        (name.to_string(), entry)
                    })
                    .collect(),
            ),
        ),
        (
            "by_layer_self_share",
            Json::Obj(
                layers
                    .iter()
                    .map(|(layer, ns)| {
                        (layer.to_string(), Json::num(*ns as f64 / total.max(1) as f64))
                    })
                    .collect(),
            ),
        ),
    ]);
    eprintln!("[navbench] self time by layer (share of {:.3} s):", total as f64 / 1e9);
    for (layer, ns) in &layers {
        eprintln!("[navbench]   {layer:<12} {:6.2}%", 100.0 * *ns as f64 / total.max(1) as f64);
    }
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(format!("{stem}.spans.jsonl"), tracer.spans_jsonl()))
        .and_then(|()| std::fs::write(format!("{stem}.rollup.json"), rollup.render()));
    if let Err(error) = written {
        eprintln!("[navbench] could not write the trace under {OUT_DIR}: {error}");
    }
}

/// The record of one run: the result line plus the host fingerprint.
fn record(args: &Args, fingerprint: &Fingerprint, result: &Json) -> Json {
    Json::obj([
        ("workload", Json::Str(args.workload.clone())),
        ("seed", Json::num(args.seed as f64)),
        ("trace", Json::Bool(args.trace)),
        ("host", Json::Str(fingerprint.render())),
        ("result", result.clone()),
    ])
}

/// `compare a b`: per-metric ratio b/a of two records, refused when the
/// records come from different hosts or workloads.
fn compare(a: &Path, b: &Path) -> Result<(), String> {
    let load = |path: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let (a, b) = (load(a)?, load(b)?);
    let field =
        |json: &Json, key: &str| json.get(key).and_then(Json::as_str).unwrap_or("").to_string();
    if field(&a, "host") != field(&b, "host") {
        return Err(format!(
            "refusing to compare runs from different hosts:\n  {}\n  {}",
            field(&a, "host"),
            field(&b, "host")
        ));
    }
    if field(&a, "workload") != field(&b, "workload") {
        return Err("refusing to compare different workloads".to_string());
    }
    let metrics = |json: &Json| json.get("result").and_then(|r| r.get("metrics")).cloned();
    let (Some(Json::Obj(ma)), Some(mb)) = (metrics(&a), metrics(&b)) else {
        return Err("a record has no metrics".to_string());
    };
    for (name, value) in ma {
        let va = value.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let vb = mb.get(&name).and_then(|m| m.get("value")).and_then(Json::as_f64);
        match vb {
            Some(vb) => println!("{name:<40} {va:>14.4} {vb:>14.4} {:>8.3}x", vb / va),
            None => println!("{name:<40} {va:>14.4} {:>14}", "missing"),
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match args.as_slice() {
            [_, a, b] => match compare(Path::new(a), Path::new(b)) {
                Ok(()) => ExitCode::SUCCESS,
                Err(message) => {
                    eprintln!("navbench compare: {message}");
                    ExitCode::FAILURE
                }
            },
            _ => {
                eprintln!("usage: navbench compare <record-a.json> <record-b.json>");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("navbench: {message}");
            eprintln!(
                "usage: navbench --workload <serve_guarded|drone_campaign|grid_training> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let fingerprint = Fingerprint::current();
    println!("host {}", fingerprint.render());
    let (correct, attempted, failed, metrics) = match args.workload.as_str() {
        "serve_guarded" => run::<serve_guarded::ServeGuarded>(&args),
        "drone_campaign" => run::<drone_campaign::DroneCampaign>(&args),
        "grid_training" => run::<grid_training::GridTraining>(&args),
        other => {
            eprintln!("navbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::num(attempted as f64)),
        ("failed", Json::num(failed as f64)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .into_iter()
                    .map(|(name, value, unit)| {
                        let entry = Json::obj([
                            ("value", Json::num(value)),
                            ("unit", Json::Str(unit.to_string())),
                        ]);
                        (name, entry)
                    })
                    .collect(),
            ),
        ),
    ]);
    let path =
        format!("{OUT_DIR}/{}-seed{}-trace{}.json", args.workload, args.seed, u8::from(args.trace));
    let saved = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, record(&args, &fingerprint, &result).render()));
    if let Err(error) = saved {
        eprintln!("[navbench] could not write {path}: {error}");
    }
    println!("{}", result.render());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in the repository's `BENCHMARK.json` must
    /// name the same metrics with the same units.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(&path) else {
            return;
        };
        let spec = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(names("end_to_end"), owned(&END_TO_END));
        assert_eq!(names("per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn arguments_parse_and_reject_bad_values() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let ok = parse_args(&args(&[
            "--workload",
            "w",
            "--seed",
            "5",
            "--seconds",
            "2",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!((ok.workload.as_str(), ok.seed, ok.seconds, ok.trace), ("w", 5, 2.0, true));
        assert!(parse_args(&args(&["--seed", "5"])).is_err(), "workload required");
        assert!(parse_args(&args(&["--workload", "w", "--trace", "2"])).is_err());
        assert!(parse_args(&args(&["--workload", "w", "--seconds", "0"])).is_err());
        assert!(parse_args(&args(&["--workload", "w", "--bogus", "1"])).is_err());
        assert!(parse_args(&args(&["--workload"])).is_err());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn mix_separates_neighbouring_inputs() {
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(0, 1), mix(1, 0));
        assert_eq!(mix(7, 9), mix(7, 9));
    }
}
