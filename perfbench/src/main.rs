//! Repository benchmark. One process runs one workload:
//!
//! ```text
//! perfbench --workload <chat|offload> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! and prints, as its last stdout line, `{"correct", "attempted", "failed",
//! "metrics"}` with every end-to-end metric (`--trace 0`) or every
//! per-layer metric (`--trace 1`). It exits non-zero when an output check
//! fails. `perfbench --spec` prints the repository's `BENCHMARK.json`.
//! See `NOTES.md` for what each metric means on each workload and which
//! end-to-end metric each per-layer metric should move.

mod host;
mod inputs;
mod replay;
mod rng;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

pub const RUN_SECONDS: u32 = 45;

/// (name, why): each workload and the reason it was chosen.
pub const WORKLOADS: &[(&str, &str)] = &[
    ("chat", "Open loop, 4 req/s in seeded slots, shared 16-token prefix, half one-token calls: admission, continuous scheduler, paged KV, f32 prompt passes; where prefix sharing shows"),
    ("offload", "Offline waves through the streamed server with 3 of 8 panels resident: the only path through zero::offload and model::io; unshared prompts, so prefix sharing moves nothing"),
];

/// (name, unit, better, bound): measured on every workload with tracing off.
pub const END_TO_END: &[(&str, &str, &str, f64)] = &[
    ("setup_s", "s", "lower", 0.25),
    ("ok_share", "share", "higher", 0.01),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("tok_s", "tok/s", "higher", 0.2),
    ("ttft_ms_p50", "ms", "lower", 0.25),
    ("tpot_ms_p50", "ms", "lower", 0.25),
];

const KERNEL_REGIONS: [&str; 6] = [
    "ln_qkv",
    "attention",
    "wo_residual",
    "ln_ff1_gelu",
    "ff2_residual",
    "logits",
];
const KERNEL_SHAPES: [&str; 4] = ["int8_m1", "f32_m1", "f32_m8", "f32_prefill"];

/// (name, unit, better, the end-to-end metric and workload it should move).
pub fn per_layer() -> Vec<(String, &'static str, &'static str, String)> {
    let mut v: Vec<(String, &str, &str, String)> = [
        ("serve.submit_us_p50", "us", "lower", "ttft_ms_p50 on chat"),
        (
            "serve.occupancy_mean",
            "count",
            "higher",
            "tpot_ms_p50 on chat; tok_s on offload",
        ),
        (
            "serve.tokens_per_step_mean",
            "count",
            "higher",
            "tpot_ms_p50 on chat; tok_s on offload",
        ),
        ("serve.prefills", "count", "lower", "ttft_ms_p50 on chat"),
        (
            "serve.pages_high_water_share",
            "share",
            "lower",
            "ttft_ms_p50 on chat",
        ),
        (
            "serve.page_evictions",
            "count",
            "lower",
            "ok_share on chat and offload",
        ),
        (
            "serve.rejected_share",
            "share",
            "lower",
            "ok_share on chat and offload",
        ),
        (
            "serve.recoveries",
            "count",
            "lower",
            "ok_share on chat and offload",
        ),
        (
            "model.prefill_ms_per_tok",
            "ms",
            "lower",
            "ttft_ms_p50 on chat",
        ),
        (
            "model.decode_step_ms.m1",
            "ms",
            "lower",
            "tpot_ms_p50 on chat",
        ),
        (
            "model.decode_step_ms.m2",
            "ms",
            "lower",
            "tpot_ms_p50 on chat",
        ),
        (
            "model.decode_step_ms.m4",
            "ms",
            "lower",
            "tpot_ms_p50 on chat",
        ),
        (
            "model.decode_step_ms.m8",
            "ms",
            "lower",
            "tpot_ms_p50 on chat",
        ),
        (
            "model.int8_step_ms",
            "ms",
            "lower",
            "none: no workload runs INT8 batch-1 decode (decode-b1 was dropped as unsteady)",
        ),
        (
            "model.nonkernel_share.int8_m1",
            "share",
            "lower",
            "none: no workload runs INT8 batch-1 decode (decode-b1 was dropped as unsteady)",
        ),
        ("model.pack_ms", "ms", "lower", "setup_s on chat"),
        (
            "model.quantize_ms",
            "ms",
            "lower",
            "none: no workload runs INT8 batch-1 decode (decode-b1 was dropped as unsteady)",
        ),
        ("io.load_ms", "ms", "lower", "setup_s on chat"),
        (
            "model.repack_ms",
            "ms",
            "lower",
            "tok_s and ttft_ms_p50 on offload",
        ),
        (
            "zero.acquire_wait_ms_p50",
            "ms",
            "lower",
            "tok_s on offload",
        ),
        (
            "zero.acquire_wait_ms_p90",
            "ms",
            "lower",
            "tok_s and tpot_ms_p50 on offload",
        ),
        ("zero.hit_share", "share", "higher", "tok_s on offload"),
        (
            "zero.bytes_read_per_tok",
            "B/tok",
            "lower",
            "tok_s on offload",
        ),
        (
            "zero.evictions_per_step",
            "count",
            "lower",
            "tok_s on offload",
        ),
        ("zero.open_ms", "ms", "lower", "setup_s on offload"),
        (
            "io.copy_ms",
            "ms",
            "lower",
            "tok_s and ttft_ms_p50 on offload",
        ),
        (
            "io.crc_ms",
            "ms",
            "lower",
            "tok_s and ttft_ms_p50 on offload",
        ),
        (
            "io.parse_ms",
            "ms",
            "lower",
            "tok_s and ttft_ms_p50 on offload",
        ),
        (
            "loadgen.lag_ms_p90",
            "ms",
            "lower",
            "none: harness health (0 on closed loops)",
        ),
        ("host.steal_share", "share", "lower", "none: harness health"),
        (
            "trace.overhead_share",
            "share",
            "lower",
            "none: harness health",
        ),
    ]
    .iter()
    .map(|&(n, u, b, m)| (n.to_string(), u, b, m.to_string()))
    .collect();
    for region in KERNEL_REGIONS {
        for shape in KERNEL_SHAPES {
            let moves = match shape {
                "int8_m1" => {
                    "none: no workload runs INT8 batch-1 decode (decode-b1 was dropped as unsteady)"
                }
                "f32_prefill" => "ttft_ms_p50 on chat",
                _ => "tpot_ms_p50 on chat",
            };
            for (stat, unit, better) in [
                ("us", "us", "lower"),
                ("gbps", "GB/s", "higher"),
                ("gflops", "GFLOP/s", "higher"),
            ] {
                v.push((
                    format!("kernels.{region}.{stat}.{shape}"),
                    unit,
                    better,
                    moves.to_string(),
                ));
            }
        }
    }
    v
}

/// The repository's `BENCHMARK.json`.
pub fn spec_json() -> String {
    let mut s = String::from("{\n");
    s += "  \"command\": [\"cargo\", \"run\", \"--quiet\", \"--release\", \"--offline\", \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n";
    s += "  \"paths\": [\"perfbench\"],\n";
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    let rows = |items: Vec<String>| items.join(",\n");
    let w = WORKLOADS
        .iter()
        .map(|(n, why)| format!("    {{\"name\": \"{n}\", \"why\": \"{why}\"}}"))
        .collect();
    let _ = writeln!(s, "  \"workloads\": [\n{}\n  ],", rows(w));
    let e = END_TO_END
        .iter()
        .map(|(n, u, b, bound)| format!("    {{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{b}\", \"bound\": {bound}}}"))
        .collect();
    let _ = writeln!(s, "  \"end_to_end\": [\n{}\n  ],", rows(e));
    let p = per_layer()
        .iter()
        .map(|(n, u, b, _)| {
            format!("    {{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{b}\"}}")
        })
        .collect();
    let _ = writeln!(s, "  \"per_layer\": [\n{}\n  ]", rows(p));
    s + "}\n"
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: RUN_SECONDS as f64,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {val:?} for {flag}");
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = val.parse().map_err(|_| bad())?,
            "--trace" => a.trace = val.parse::<u8>().map_err(|_| bad())? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.iter().any(|(n, _)| *n == a.workload) {
        return Err(format!("unknown workload {:?}", a.workload));
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// Write a seeded model's weight file in a child process, so the
/// workload's own time and peak RSS exclude harness preparation.
fn prepare(model: &str, seed: u64, path: &Path) {
    let exe = std::env::current_exe().expect("own executable");
    let status = Command::new(exe)
        .args(["--prepare", model, &seed.to_string()])
        .arg(path)
        .status()
        .expect("spawn weight-file preparation");
    assert!(status.success(), "weight-file preparation failed");
}

/// The end-to-end metrics of one run, named and ordered as [`END_TO_END`].
fn e2e_values(m: &workloads::Measured) -> Vec<(&'static str, f64)> {
    let ok = (m.attempted - m.failed) as f64 / m.attempted as f64;
    let values = [
        m.setup_s,
        ok,
        m.peak_rss_mb,
        m.tok_s,
        stats::median(&m.ttft_ms),
        stats::median(&m.tpot_ms),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(e, v)| (e.0, v))
        .collect()
}

/// Deletes the run's weight files however the run ends.
struct RemoveOnDrop([PathBuf; 2]);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        for f in &self.0 {
            let _ = std::fs::remove_file(f);
        }
    }
}

/// (name, value, unit)
type Metric = (String, f64, String);

/// One run's printed result.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Report {
    fn json(&self) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

fn run(a: &Args) -> Result<Report, String> {
    let steal0 = host::cpu_jiffies();
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let file = |model: &str| dir.join(format!("{model}-{}-{}.dsi", a.seed, std::process::id()));
    let (chat_file, offload_file) = (file("bench-384"), file("bench-256"));
    let _cleanup = RemoveOnDrop([chat_file.clone(), offload_file.clone()]);
    let needs_chat = a.trace || a.workload == "chat";
    let needs_offload = a.trace || a.workload == "offload";
    if needs_chat {
        prepare("bench-384", a.seed, &chat_file);
    }
    if needs_offload {
        prepare("bench-256", a.seed, &offload_file);
    }

    let mut tracer = a.trace.then(trace::Tracer::new);
    let m = match a.workload.as_str() {
        "chat" => workloads::chat(&chat_file, a.seed, a.seconds, tracer.as_mut()),
        _ => workloads::offload(&offload_file, a.seed, a.seconds, tracer.as_mut()),
    };
    let mut metrics: Vec<Metric> = Vec::new();
    if let Some(t) = tracer.as_mut() {
        let mut layer: replay::Metrics = m.layer.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        replay::model(t, &chat_file, &mut layer);
        replay::kernels(t, &chat_file, &mut layer);
        replay::zero(t, &offload_file, &mut layer);
        layer.insert(
            "host.steal_share".into(),
            host::steal_share(steal0, host::cpu_jiffies()),
        );
        let spans = dir.join(format!("spans-{}-{}.jsonl", a.workload, a.seed));
        t.write(&spans).map_err(|e| e.to_string())?;
        eprintln!(
            "perfbench: {} spans written to {}",
            t.spans.len(),
            spans.display()
        );
        for (name, unit, _, _) in per_layer() {
            // A closed loop has no schedule to lag behind: its lag reads 0.
            let not_called = a.workload != "chat" && name == "loadgen.lag_ms_p90";
            let v = match layer.get(&name) {
                Some(v) => *v,
                None if not_called => 0.0,
                None => return Err(format!("per-layer metric {name} was not measured")),
            };
            metrics.push((name, v, unit.to_string()));
        }
    } else {
        for ((name, v), e) in e2e_values(&m).into_iter().zip(END_TO_END) {
            metrics.push((name.to_string(), v, e.1.to_string()));
        }
    }
    if let Some((name, _, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("metric {name} is not a finite number"));
    }
    let steal = host::steal_share(steal0, host::cpu_jiffies());
    if steal > 0.05 {
        eprintln!(
            "perfbench: noisy run, {:.1}% of CPU time stolen",
            steal * 100.0
        );
    }
    let report = Report {
        correct: m.failed == 0,
        attempted: m.attempted,
        failed: m.failed,
        metrics,
    };
    record(&dir, a, steal, &report);
    Ok(report)
}

/// Append the run and its host facts to `out/runs.jsonl`.
fn record(dir: &Path, a: &Args, steal: f64, report: &Report) {
    let line = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"cpu\": \"{}\", \"nproc\": {}, \"rustc\": \"{}\", \"git_rev\": \"{}\", \"steal_share\": {steal}, \"result\": {}}}",
        a.workload,
        a.seed,
        a.seconds,
        a.trace,
        host::cpu_model(),
        host::nproc(),
        host::command_line("rustc", &["--version"]),
        host::command_line("git", &["rev-parse", "--short", "HEAD"]),
        report.json(),
    );
    eprintln!("perfbench: {line}");
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("runs.jsonl"))
    {
        let _ = writeln!(f, "{line}");
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--spec") => {
            print!("{}", spec_json());
            return ExitCode::SUCCESS;
        }
        Some("--prepare") => {
            let cfg = if argv[1] == "bench-256" {
                inputs::offload_model()
            } else {
                inputs::bench384()
            };
            inputs::write_weights(cfg, argv[2].parse().expect("seed"), Path::new(&argv[3]));
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let a = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <chat|offload> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&a) {
        Ok(report) => {
            println!("{}", report.json());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "perfbench: {} of {} outputs failed their check",
                    report.failed, report.attempted
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_matches_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            spec_json(),
            "regenerate with `perfbench --spec > BENCHMARK.json`"
        );
    }

    #[test]
    fn every_workload_emits_each_end_to_end_metric_once_and_no_per_rate_copies() {
        let m = workloads::Measured {
            attempted: 200,
            ttft_ms: vec![1.0, 2.0],
            tpot_ms: vec![1.0, 2.0],
            ..Default::default()
        };
        let names: Vec<&str> = e2e_values(&m).iter().map(|(n, _)| *n).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|e| e.0).collect();
        assert_eq!(names, want);
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
        assert!(names
            .iter()
            .all(|n| !n.ends_with(".low") && !n.ends_with(".high")));
    }

    #[test]
    fn spec_respects_the_benchmark_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(WORKLOADS
            .iter()
            .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
        assert!(END_TO_END.iter().all(|e| e.3 <= 0.25));
        let layers = per_layer();
        assert!((1..=128).contains(&layers.len()));
        let mut names: Vec<&str> = layers.iter().map(|l| l.0.as_str()).collect();
        names.extend(END_TO_END.iter().map(|e| e.0));
        names.extend(WORKLOADS.iter().map(|w| w.0));
        let ok = |n: &&str| {
            n.len() <= 64
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        assert!(names.iter().all(ok));
        let before = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), before, "names are used once");
    }

    #[test]
    fn notes_name_every_per_layer_prediction() {
        let notes = include_str!("../NOTES.md");
        for (name, _, _, moves) in per_layer().iter().filter(|l| !l.0.starts_with("kernels.")) {
            assert!(
                notes.contains(&format!("| `{name}` | {moves} |")),
                "NOTES.md lacks {name}"
            );
        }
    }
}
