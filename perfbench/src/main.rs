//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <locked-read|snapshot-write|sharded-txn|remote>
//!           [--seed <n>] [--seconds <n>] [--trace <0|1>]
//! ```
//!
//! Runs one workload against the three-engine panel and prints every
//! metric with its unit and sample count, then one JSON result line. With
//! `--trace 0` the metrics are the end-to-end ones, measured with
//! observability off; with `--trace 1` the same workload runs again with
//! phase spans, registry counters and the trace recorder on, followed by
//! single-thread probes of each layer, and the metrics are the per-layer
//! ones. Exits 1 when an output check fails and 2 on a usage error. See
//! `perfbench/README.md`.

mod probes;
mod record;
mod stats;
mod timed;
mod workloads;

use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use gm_obs::{ObsMode, Phase, TraceMode};

use crate::stats::{median, ratio, success_rate, Metric};
use crate::workloads::{run_pass, Pass, Workload, PANEL};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <locked-read|snapshot-write|sharded-txn|remote> \
                     [--seed <n>] [--seconds <n>] [--trace <0|1>]";

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 42, 24, false);
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    // The benchmark sets every knob itself: no GM_* variable may reach the
    // library code that reads one.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("GM_") {
            std::env::remove_var(key);
        }
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("perfbench: {why}");
            ExitCode::from(1)
        }
    }
}

fn set_observability(on: bool) {
    gm_obs::set_mode(if on { ObsMode::Phases } else { ObsMode::Off });
    gm_obs::trace::set_mode(if on { TraceMode::Tail } else { TraceMode::Off });
}

/// Run the invocation; `Ok(false)` when an output check failed.
fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let budget = Duration::from_secs(args.seconds);
    set_observability(false);
    let untraced = run_pass(w, args.seed, budget).map_err(|e| e.to_string())?;
    let mut failures = untraced.failures.clone();
    let (metrics, traced) = if args.trace {
        set_observability(true);
        let traced = run_pass(w, args.seed, budget).map_err(|e| e.to_string());
        set_observability(false);
        let traced = traced?;
        failures.extend(traced.failures.iter().cloned());
        failures.extend(phase_checks(&traced));
        let probes = probes::run(&w.generate()).map_err(|e| e.to_string())?;
        (per_layer(&untraced, &traced, probes), Some(traced))
    } else {
        (end_to_end(&untraced), None)
    };
    stats::validate_metrics(&metrics)?;

    let passes = [Some(&untraced), traced.as_ref()];
    let tallies = passes
        .iter()
        .flatten()
        .flat_map(|p| &p.engines)
        .flat_map(|e| [&e.kept.tally, &e.discarded.tally]);
    let (attempted, failed) =
        tallies.fold((0, 0), |(a, f), t| (a + t.ops + t.errors, f + t.errors));

    println!(
        "perfbench {} seed {}: {} engines, {} s measured per pass{}",
        w.name(),
        args.seed,
        PANEL.len(),
        args.seconds,
        if args.trace { " (traced run)" } else { "" }
    );
    println!(
        "{:<40} {:>16}  {:<6} {:>9}",
        "metric", "value", "unit", "samples"
    );
    for m in &metrics {
        println!(
            "{:<40} {:>16.4}  {:<6} {:>9}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for (label, note) in tail_notes(&untraced, args.trace) {
        println!("note: p99_us.{label} {note}");
    }
    println!("output checks: {} failed", failures.len());
    for f in &failures {
        println!("  FAILED {f}");
    }

    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let info = record::RunInfo {
        workload: w,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        untraced: &untraced,
        traced: traced.as_ref(),
        metrics: &metrics,
    };
    let text = record::render(&info, root.parent().unwrap_or(root));
    let path = root.join("runs").join(format!(
        "{}-seed{}-trace{}.md",
        w.name(),
        args.seed,
        u8::from(args.trace)
    ));
    match std::fs::create_dir_all(root.join("runs")).and_then(|_| std::fs::write(&path, text)) {
        Ok(()) => println!("run record: {}", path.display()),
        Err(e) => eprintln!(
            "perfbench: could not write the run record {}: {e}",
            path.display()
        ),
    }
    let correct = failures.is_empty();
    println!(
        "{}",
        stats::result_json(correct, attempted, failed, &metrics)
    );
    Ok(correct)
}

/// Where a panel engine had too few samples for p99 and a lower tail
/// quantile was reported instead.
fn tail_notes(pass: &Pass, trace: bool) -> Vec<(&'static str, String)> {
    if trace {
        return Vec::new();
    }
    pass.engines
        .iter()
        .filter_map(|e| match e.kept.tally.hist.supported_tail(0.99) {
            (_, Some(q)) if q >= 0.99 => None,
            (_, Some(q)) => Some((
                e.label,
                format!("reports p{:.2}: too few samples", q * 100.0),
            )),
            (_, None) => Some((e.label, "reports the maximum: too few samples".into())),
        })
        .collect()
}

/// The end-to-end metrics of an untraced pass.
fn end_to_end(pass: &Pass) -> Vec<Metric> {
    let mut out = Vec::new();
    for e in &pass.engines {
        let hist = &e.kept.tally.hist;
        let n = hist.count();
        out.push(Metric::new(
            format!("ops_per_s.{}", e.label),
            "1/s",
            e.kept.ops_per_s(),
            e.kept.tally.ops,
        ));
        out.push(Metric::new(
            format!("p50_us.{}", e.label),
            "us",
            hist.quantile(0.5) as f64 / 1e3,
            n,
        ));
        let (p99, _) = hist.supported_tail(0.99);
        out.push(Metric::new(
            format!("p99_us.{}", e.label),
            "us",
            p99 as f64 / 1e3,
            n,
        ));
    }
    let setups: Vec<f64> = pass.setups.iter().map(|s| s.total_s).collect();
    out.push(Metric::new(
        "setup_s",
        "s",
        median(&setups),
        setups.len() as u64,
    ));
    out.push(Metric::new("peak_rss_mb", "MB", pass.peak_rss_mb, 1));
    let (ops, errors) = pass.engines.iter().fold((0, 0), |(o, e), run| {
        let (kept, discarded) = (&run.kept.tally, &run.discarded.tally);
        (
            o + kept.ops + discarded.ops,
            e + kept.errors + discarded.errors,
        )
    });
    out.push(Metric::new(
        "success_rate",
        "ratio",
        success_rate(ops, errors),
        ops + errors,
    ));
    out
}

/// The per-layer metrics: the traced pass's phase split and counter
/// deltas, the tracing overhead against the untraced pass, set-up timings,
/// and the probes.
fn per_layer(untraced: &Pass, traced: &Pass, probes: Vec<Metric>) -> Vec<Metric> {
    let mut out = Vec::new();
    for (i, (plain, e)) in untraced.engines.iter().zip(&traced.engines).enumerate() {
        let t = &e.kept.tally;
        let l = e.label;
        let per_op = |p: Phase| ratio(t.phases.get(p) as f64, t.ops as f64);
        let d = |name: &str| e.kept.delta(name) as f64;
        let mut push = |name: &str, unit: &'static str, value: f64, samples: u64| {
            out.push(Metric::new(format!("{name}.{l}"), unit, value, samples));
        };
        push(
            "workload.lock_wait_ns",
            "ns",
            per_op(Phase::LockWait),
            t.ops,
        );
        push("engine.exec_ns", "ns", per_op(Phase::EngineExec), t.ops);
        push("mvcc.pin_ns", "ns", per_op(Phase::SnapshotPin), t.ops);
        push("mvcc.publish_ns", "ns", per_op(Phase::ClonePublish), t.ops);
        push("net.encode_ns", "ns", per_op(Phase::WireEncode), t.ops);
        push("net.io_ns", "ns", per_op(Phase::WireIo), t.ops);
        let overhead = 100.0 * (1.0 - e.kept.ops_per_s() / plain.kept.ops_per_s());
        push(
            "obs.overhead_pct",
            "%",
            overhead,
            t.ops + plain.kept.tally.ops,
        );
        let publishes = d("mvcc.cow.publishes") + d("mvcc.native.publishes");
        push(
            "mvcc.publishes_per_write",
            "ratio",
            ratio(publishes, t.writes as f64),
            t.writes,
        );
        let pins = d("mvcc.cow.pins") + d("mvcc.native.pins");
        let stale = d("mvcc.cow.stale_pins") + d("mvcc.native.stale_pins");
        push(
            "mvcc.stale_pin_share",
            "ratio",
            ratio(stale, pins),
            pins as u64,
        );
        let aborts = ratio(e.kept.txn_conflicts as f64, t.commits as f64);
        push("mvcc.txn_abort_share", "ratio", aborts, t.commits);
        let retries = ratio(d("shard.seqlock_retries"), d("shard.pins"));
        push(
            "shard.seqlock_retries_per_pin",
            "ratio",
            retries,
            e.kept.delta("shard.pins"),
        );
        let loads: Vec<f64> = untraced.setups.iter().map(|s| s.load_s[i]).collect();
        push("engine.load_s", "s", median(&loads), loads.len() as u64);
    }
    let gens: Vec<f64> = untraced.setups.iter().map(|s| s.generate_s).collect();
    out.push(Metric::new(
        "datasets.generate_s",
        "s",
        median(&gens),
        gens.len() as u64,
    ));
    out.extend(probes);
    out
}

/// Phase totals must never exceed the latency they split.
fn phase_checks(traced: &Pass) -> Vec<String> {
    traced
        .engines
        .iter()
        .filter_map(|e| {
            let mut t = e.kept.tally.clone();
            t.merge(&e.discarded.tally);
            (t.phase_overruns > 0 || t.phases.total() > t.latency_ns).then(|| {
                format!(
                    "{}: {} ops had phase totals above their latency \
                     (phases {} ns against {} ns end to end)",
                    e.label,
                    t.phase_overruns,
                    t.phases.total(),
                    t.latency_ns
                )
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_parse_with_defaults() {
        let a = parse("--workload remote").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Remote, 42, 24, false)
        );
        let a = parse("--workload sharded-txn --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::ShardedTxn, 7, 3, true)
        );
        for bad in [
            "",
            "--workload",
            "--workload nope",
            "--workload remote --trace 2",
            "--seed x",
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn the_benchmark_file_names_known_workloads_and_valid_metrics() {
        let file = include_str!("../../BENCHMARK.json");
        let names = |text: &str| -> Vec<String> {
            let pieces = text.split("\"name\": \"").skip(1);
            pieces
                .map(|p| p[..p.find('"').unwrap()].to_string())
                .collect()
        };
        let (workloads, metrics) = file.split_at(file.find("\"end_to_end\"").unwrap());
        let workloads = names(workloads);
        assert!(workloads.len() >= 2);
        for name in &workloads {
            assert!(Workload::parse(name).is_some(), "{name}");
        }
        let metrics = names(metrics);
        assert!(metrics.len() > 12);
        for name in &metrics {
            assert!(stats::valid_name(name), "{name}");
        }
    }
}
