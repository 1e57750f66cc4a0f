//! The run record: everything needed to explain a result without a rerun —
//! source revision, host, seed, every knob, observability modes, per-engine
//! op counts and the dataset — written as Markdown next to the results.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use crate::stats::Metric;
use crate::workloads::{Pass, Workload, OP_TIMEOUT, PANEL, STEAL_LIMIT, STEAL_RETRY};

/// Peak resident memory of this process so far, in MB (`VmHWM`); 0 where
/// the kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host as the record describes it.
pub struct Host {
    /// Available parallelism.
    pub nproc: usize,
    /// CPU model name.
    pub cpu: String,
    /// Cache sizes by level, as the kernel reports them (`L2 4096K`).
    pub caches: Vec<String>,
}

impl Host {
    /// Read what the platform reports; unknown fields say so.
    pub fn probe() -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let mut caches = Vec::new();
        for i in 0..8 {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let read = |f: &str| std::fs::read_to_string(Path::new(&dir).join(f)).ok();
            let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
            else {
                continue;
            };
            if kind.trim() != "Instruction" && level.trim() != "1" {
                caches.push(format!("L{} {}", level.trim(), size.trim()));
            }
        }
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            caches,
        }
    }
}

/// The source revision: the checked-out commit when the benchmark runs
/// from a git work tree, else `unknown (not a git checkout)`.
pub fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown (not a git checkout)".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(git.join(reference))
        .or_else(|| {
            read(git.join("packed-refs")).and_then(|packed| {
                packed
                    .lines()
                    .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
            })
        })
        .unwrap_or_else(|| format!("unknown ({head})"))
}

/// Everything the record needs about one invocation.
pub struct RunInfo<'a> {
    /// The workload.
    pub workload: Workload,
    /// Run seed.
    pub seed: u64,
    /// Measured seconds requested.
    pub seconds: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// The untraced pass.
    pub untraced: &'a Pass,
    /// The traced pass (traced runs only).
    pub traced: Option<&'a Pass>,
    /// The reported metrics.
    pub metrics: &'a [Metric],
}

/// Render the run record.
pub fn render(info: &RunInfo<'_>, root: &Path) -> String {
    let w = info.workload;
    let host = Host::probe();
    let (dataset, scale) = w.dataset();
    let mut out = String::new();
    let _ = writeln!(out, "# Run record: {} (seed {})\n", w.name(), info.seed);
    let _ = writeln!(out, "## Source\n\n* Revision: {}\n", git_rev(root));
    let _ = writeln!(
        out,
        "## Host\n\n* CPUs available: {}\n* CPU: {}\n* Caches (cpu0): {}\n",
        host.nproc,
        host.cpu,
        if host.caches.is_empty() {
            "unknown".to_string()
        } else {
            host.caches.join(", ")
        }
    );
    let _ = writeln!(out, "## Configuration\n");
    let knobs = [
        ("workload", w.name().to_string()),
        ("seed", info.seed.to_string()),
        (
            "measured seconds (whole panel, per pass)",
            info.seconds.to_string(),
        ),
        ("mix", w.mix().name().to_string()),
        ("pacing", "closed loop".to_string()),
        ("clients", w.threads().to_string()),
        ("hosting", w.hosting().to_string()),
        ("shards", w.shards().to_string()),
        ("writes per transaction", w.txn_ops().to_string()),
        ("per-op read deadline", format!("{:?}", OP_TIMEOUT)),
        ("dataset", format!("{dataset} at scale {}", scale.name)),
        ("set-up repetitions", info.untraced.setups.len().to_string()),
        (
            "observability",
            if info.trace {
                "untraced pass: obs off, trace off; traced pass: obs phases, trace tail".into()
            } else {
                "obs off, trace off".to_string()
            },
        ),
        ("GM_* environment", "ignored (removed at start)".to_string()),
    ];
    let _ = writeln!(out, "| knob | value |\n|---|---|");
    for (k, v) in knobs {
        let _ = writeln!(out, "| {k} | {v} |");
    }
    let (v, e) = info.untraced.dataset;
    let _ = writeln!(
        out,
        "\n## Dataset\n\n| dataset | vertices | edges |\n|---|---|---|"
    );
    let _ = writeln!(out, "| {dataset} ({}) | {v} | {e} |", scale.name);
    let passes = [
        Some(("untraced", info.untraced)),
        info.traced.map(|p| ("traced", p)),
    ];
    for (name, pass) in passes.into_iter().flatten() {
        let _ = writeln!(
            out,
            "\n## Engines, {name} pass\n\n\
             Kept cycles give the metrics; a cycle is discarded and measured again when \
             the hypervisor stole more than {:.0}% of the host's CPU time while it ran, \
             up to {}x the engine's time; then the cycles with the least stolen time are kept.\n\n\
             | engine | rounds | kept cycles | discarded cycles | ops/client/round | ops | \
             writes | errors | commits | conflicts | measured s | host CPU stolen | \
             stolen in discarded | space bytes | load s (median) |\n\
             |---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|",
            STEAL_LIMIT * 100.0,
            STEAL_RETRY
        );
        for (i, run) in pass.engines.iter().enumerate() {
            let loads: Vec<f64> = pass.setups.iter().map(|s| s.load_s[i]).collect();
            let (kept, discarded) = (&run.kept, &run.discarded);
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {:.3} | {:.1}% | {:.1}% | {} | {:.4} |",
                run.engine,
                run.rounds,
                kept.cycles,
                discarded.cycles,
                run.ops_per_worker,
                kept.tally.ops,
                kept.tally.writes,
                kept.tally.errors + discarded.tally.errors,
                kept.tally.commits,
                kept.txn_conflicts,
                kept.wall_ns as f64 / 1e9,
                100.0 * kept.steal_share(),
                100.0 * discarded.steal_share(),
                run.space_bytes,
                crate::stats::median(&loads),
            );
        }
        let _ = writeln!(
            out,
            "\nPeak RSS after the measured rounds: {:.1} MB. Output checks failed: {}.",
            pass.peak_rss_mb,
            pass.failures.len()
        );
        for f in &pass.failures {
            let _ = writeln!(out, "* {f}");
        }
    }
    let _ = writeln!(
        out,
        "\n## Metrics\n\n| metric | value | unit | samples |\n|---|---|---|---|"
    );
    for m in info.metrics {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} |",
            m.name, m.value, m.unit, m.samples
        );
    }
    let labels: Vec<&str> = PANEL.iter().map(|(_, l)| *l).collect();
    let _ = writeln!(
        out,
        "\nEngine labels in metric names: {}.",
        labels.join(", ")
    );
    out
}
