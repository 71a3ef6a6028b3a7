//! The workloads, driven only through public APIs: `Server` (chat,
//! offload), `model::io` and, inside `Server::start_streamed`,
//! `OffloadStore::open`.
//!
//! Each run sets up [`SETUP_REPS`] times and reports the median set-up
//! time, warms up untimed, measures for `--seconds`, then checks every
//! output. A traced run measures the first half untraced and the second
//! half traced, so the difference in the headline metric is the tracing
//! overhead.

use crate::inputs::{self, Output, Stream, Timed};
use crate::stats::{median, p90, served_rate};
use crate::trace::{Tracer, NO_PARENT};
use dsi_model::io;
use dsi_serve::{ContinuousConfig, EngineMode, Outcome, Request, ServeConfig, ServeReport, Server};
use dsi_zero::offload::OffloadConfig;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// How often the load generator polls outstanding tickets: well under one
/// decode step (2 ms and up on bench-384).
const POLL: Duration = Duration::from_micros(500);
/// Longest an open loop waits for stragglers after its last send.
const STRAGGLER_S: f64 = 60.0;

/// What one workload run measured.
#[derive(Default)]
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub tok_s: f64,
    pub ttft_ms: Vec<f64>,
    pub tpot_ms: Vec<f64>,
    /// Live per-layer values (serve counters, load-generator lag, tracing
    /// overhead); filled in traced runs.
    pub layer: BTreeMap<&'static str, f64>,
}

/// Relative cost of tracing on a headline metric (positive = slower).
fn overhead(untraced: f64, traced: f64, higher_is_better: bool) -> f64 {
    if higher_is_better {
        (untraced - traced) / untraced
    } else {
        (traced - untraced) / untraced
    }
}

// ---------------------------------------------------------------------------
// Load generator: one thread, sleeps until each send time, polls outcomes.
// ---------------------------------------------------------------------------

/// One request as the load generator saw it (seconds from loop start).
struct Obs {
    due_s: f64,
    submit_s: f64,
    n_tokens: usize,
    done_s: Option<f64>,
    tokens: Option<Vec<usize>>,
    latency_s: f64,
}

/// Send `sched` on time, poll every [`POLL`], and time each request from
/// its due time to the poll that observes its outcome. Requests due at or
/// after `trace_from_s` are recorded as spans.
fn drive(
    srv: &Server,
    sched: &[Timed],
    mut tracer: Option<&mut Tracer>,
    trace_from_s: f64,
) -> Vec<Obs> {
    let start = Instant::now();
    let base_ns = tracer.as_ref().map_or(0, |t| t.at_ns(start));
    let ns = |s: f64| base_ns + (s * 1e9) as u64;
    let mut obs: Vec<Obs> = sched
        .iter()
        .map(|r| Obs {
            due_s: r.due_s,
            submit_s: 0.0,
            n_tokens: r.n_tokens,
            done_s: None,
            tokens: None,
            latency_s: 0.0,
        })
        .collect();
    let mut pending = Vec::new();
    let mut spans: Vec<usize> = vec![NO_PARENT; sched.len()];
    let last_due = sched.last().map_or(0.0, |r| r.due_s);
    let mut next = 0;
    loop {
        while next < sched.len() && sched[next].due_s <= start.elapsed().as_secs_f64() {
            let r = &sched[next];
            let t0 = start.elapsed().as_secs_f64();
            let sent = srv.submit(Request {
                prompt: r.prompt.clone(),
                n_tokens: r.n_tokens,
                deadline: None,
            });
            let t1 = start.elapsed().as_secs_f64();
            obs[next].submit_s = t0;
            if let Some(t) = tracer.as_deref_mut().filter(|_| r.due_s >= trace_from_s) {
                let id = t.spans.len() as u64 + 1;
                spans[next] = t.record("request", ns(r.due_s), ns(t1), NO_PARENT, id);
                t.record("submit", ns(t0), ns(t1), spans[next], id);
            }
            if let Ok(ticket) = sent {
                pending.push((next, ticket));
            }
            next += 1;
        }
        let now = start.elapsed().as_secs_f64();
        pending.retain(|(i, ticket)| match ticket.try_wait() {
            None => true,
            Some(out) => {
                let o = &mut obs[*i];
                o.done_s = Some(now);
                if let Outcome::Completed { tokens, latency_s } = out {
                    o.tokens = Some(tokens);
                    o.latency_s = latency_s;
                }
                if let Some(t) = tracer.as_deref_mut().filter(|_| spans[*i] != NO_PARENT) {
                    let req = &mut t.spans[spans[*i]];
                    let (from, id) = (req.end_ns, req.req);
                    req.end_ns = ns(now);
                    t.record("outcome", from, ns(now), spans[*i], id);
                }
                false
            }
        });
        if next == sched.len() && pending.is_empty() {
            break;
        }
        if now > last_due + STRAGGLER_S {
            for (_, ticket) in &pending {
                ticket.cancel();
            }
            break;
        }
        let until_due = sched
            .get(next)
            .map_or(POLL.as_secs_f64(), |r| r.due_s - now);
        std::thread::sleep(Duration::from_secs_f64(
            until_due.clamp(0.0, POLL.as_secs_f64()),
        ));
    }
    obs
}

/// Completed requests whose serve-side latency (admission to completion)
/// exceeds the one the load generator observed by more than two poll
/// intervals: a cross-check of the client-side timing.
fn latency_crosscheck(obs: &[Obs]) {
    let bad = obs
        .iter()
        .filter(|o| o.tokens.is_some())
        .filter(|o| o.latency_s > o.done_s.unwrap_or(0.0) - o.due_s + 2.0 * POLL.as_secs_f64())
        .count();
    if bad > 0 {
        eprintln!("perfbench: {bad} requests report a serve latency above the observed one");
    }
}

fn outputs(sched: &[Timed], obs: &[Obs]) -> Vec<Output> {
    sched
        .iter()
        .zip(obs)
        .map(|(r, o)| Output {
            prompt: r.prompt.clone(),
            n_tokens: r.n_tokens,
            tokens: o.tokens.clone().unwrap_or_default(),
        })
        .collect()
}

/// Per-layer values read from the serving report at drain.
fn serve_layer(rep: &ServeReport, tracer: &Tracer, m: &mut Measured) {
    let submit_us: Vec<f64> = tracer
        .durations_ms("submit")
        .iter()
        .map(|v| v * 1e3)
        .collect();
    if !submit_us.is_empty() {
        m.layer.insert("serve.submit_us_p50", median(&submit_us));
    }
    if let Some(s) = &rep.scheduler {
        let steps: u64 = s.tokens_per_step_hist.iter().sum();
        let tokens: u64 = s
            .tokens_per_step_hist
            .iter()
            .enumerate()
            .map(|(t, &c)| t as u64 * c)
            .sum();
        m.layer.insert("serve.occupancy_mean", s.mean_occupancy);
        m.layer.insert(
            "serve.tokens_per_step_mean",
            tokens as f64 / steps.max(1) as f64,
        );
        m.layer.insert("serve.prefills", s.prefills as f64);
        m.layer.insert(
            "serve.pages_high_water_share",
            s.pages.high_water as f64 / s.pages.pages_total as f64,
        );
        m.layer
            .insert("serve.page_evictions", s.page_evictions as f64);
        m.layer.insert("serve.recoveries", s.recoveries as f64);
    }
    m.layer.insert(
        "serve.rejected_share",
        rep.rejected_total() as f64 / rep.submitted.max(1) as f64,
    );
}

fn count_failed(ok: &[bool]) -> u64 {
    ok.iter().filter(|&&v| !v).count() as u64
}

// ---------------------------------------------------------------------------
// chat
// ---------------------------------------------------------------------------

fn chat_cfg() -> ServeConfig {
    let mut cfg = ServeConfig::new(1);
    cfg.mode = EngineMode::Continuous(ContinuousConfig {
        max_slots: 8,
        pages_total: 160,
        page_tokens: 16,
        trace: false,
        ..ContinuousConfig::default()
    });
    cfg.max_prompt = inputs::CHAT_MAX_PROMPT;
    cfg.queue_capacity = 1024;
    cfg.default_deadline = None;
    cfg
}

/// Open loop at [`inputs::CHAT_RATE_RPS`] through the continuous-batching
/// server (paged KV, f32).
pub fn chat(file: &Path, seed: u64, seconds: f64, tracer: Option<&mut Tracer>) -> Measured {
    let mut setups = Vec::new();
    let mut live = None;
    let warm = inputs::chat_schedule(seed ^ 0x5eed, 1.0);
    for _ in 0..SETUP_REPS {
        if let Some((_, srv)) = live.take() {
            Server::drain(srv, Duration::from_secs(10));
        }
        let t0 = Instant::now();
        let model = Arc::new(io::load(file).expect("load chat weights"));
        let srv = Server::start(Arc::clone(&model), chat_cfg());
        let first = warm
            .iter()
            .find(|r| r.n_tokens > 1)
            .expect("warm-up request");
        let req = Request {
            prompt: first.prompt.clone(),
            n_tokens: 2,
            deadline: None,
        };
        srv.submit(req).expect("warm-up admitted").wait();
        setups.push(t0.elapsed().as_secs_f64());
        live = Some((model, srv));
    }
    let (model, srv) = live.expect("set up at least once");
    // Untimed warm-up: a burst that fills every slot once.
    let burst: Vec<Timed> = warm
        .iter()
        .take(8)
        .map(|r| Timed {
            due_s: 0.0,
            ..r.clone()
        })
        .collect();
    drive(&srv, &burst, None, f64::INFINITY);

    let sched = inputs::chat_schedule(seed, seconds);
    let window = sched.len() as f64 / inputs::CHAT_RATE_RPS;
    let traced = tracer.is_some();
    let half = if traced { window / 2.0 } else { f64::INFINITY };
    let mut tracer = tracer;
    let obs = drive(&srv, &sched, tracer.as_deref_mut(), half);
    let mut m = Measured {
        setup_s: median(&setups),
        peak_rss_mb: crate::host::peak_rss_mb(),
        ..Default::default()
    };
    let rep = srv.drain(Duration::from_secs(10));
    latency_crosscheck(&obs);

    let ok = inputs::check_f32_solo(&model, &outputs(&sched, &obs));
    m.attempted = sched.len() as u64;
    m.failed = count_failed(&ok);
    let done: Vec<(&Obs, bool)> = obs
        .iter()
        .zip(ok)
        .filter(|(o, ok)| *ok && o.tokens.is_some())
        .collect();
    let tokens: u64 = done.iter().map(|(o, _)| o.n_tokens as u64).sum();
    let last = obs.iter().filter_map(|o| o.done_s).fold(0.0, f64::max);
    m.tok_s = served_rate(tokens, window, last);
    let latency = |o: &Obs| o.done_s.expect("completed") - o.due_s;
    m.ttft_ms = done
        .iter()
        .filter(|(o, _)| o.n_tokens == 1)
        .map(|(o, _)| latency(o) * 1e3)
        .collect();
    m.tpot_ms = done
        .iter()
        .filter(|(o, _)| o.n_tokens > 1)
        .map(|(o, _)| latency(o) * 1e3 / o.n_tokens as f64)
        .collect();
    if let Some(t) = tracer {
        let lag: Vec<f64> = obs.iter().map(|o| (o.submit_s - o.due_s) * 1e3).collect();
        m.layer
            .insert("loadgen.lag_ms_p90", p90(&lag).unwrap_or(f64::NAN));
        let half_tpot = |traced: bool| {
            let v: Vec<f64> = done
                .iter()
                .filter(|(o, _)| o.n_tokens > 1 && (o.due_s >= half) == traced)
                .map(|(o, _)| latency(o) * 1e3 / o.n_tokens as f64)
                .collect();
            median(&v)
        };
        m.layer.insert(
            "trace.overhead_share",
            overhead(half_tpot(false), half_tpot(true), false),
        );
        serve_layer(&rep, t, &mut m);
    }
    m
}

// ---------------------------------------------------------------------------
// offload
// ---------------------------------------------------------------------------

pub fn offload_store_cfg() -> OffloadConfig {
    let c = inputs::offload_model();
    OffloadConfig {
        resident_budget_bytes: inputs::OFFLOAD_BUDGET_PANELS * inputs::panel_bytes(&c) + (64 << 10),
        prefetch_depth: inputs::OFFLOAD_DEPTH,
        ..OffloadConfig::default()
    }
}

fn offload_serve_cfg() -> ServeConfig {
    let mut cfg = ServeConfig::new(1);
    cfg.mode = EngineMode::Streamed(ContinuousConfig {
        max_slots: inputs::OFFLOAD_SLOTS,
        pages_total: 512,
        page_tokens: 1,
        trace: false,
        ..ContinuousConfig::default()
    });
    cfg.max_prompt = inputs::OFFLOAD_PROMPT.1;
    cfg.queue_capacity = 64;
    cfg.default_deadline = None;
    cfg
}

/// Offline batches through the streamed server: waves of
/// [`inputs::OFFLOAD_SLOTS`] equal-length requests, alternating one-token
/// scoring waves and generation waves, each sent when the last completes.
pub fn offload(file: &Path, seed: u64, seconds: f64, tracer: Option<&mut Tracer>) -> Measured {
    let mut setups = Vec::new();
    let mut live = None;
    let warm = Request {
        prompt: vec![1, 2, 3, 4],
        n_tokens: 2,
        deadline: None,
    };
    for _ in 0..SETUP_REPS {
        if let Some(srv) = live.take() {
            Server::drain(srv, Duration::from_secs(10));
        }
        let t0 = Instant::now();
        let srv = Server::start_streamed(file, offload_store_cfg(), offload_serve_cfg())
            .expect("open offload store");
        srv.submit(warm.clone()).expect("warm-up admitted").wait();
        setups.push(t0.elapsed().as_secs_f64());
        live = Some(srv);
    }
    let srv = live.expect("set up at least once");

    let mut stream = Stream::offload(seed);
    let mut tracer = tracer;
    let half = if tracer.is_some() {
        seconds / 2.0
    } else {
        f64::INFINITY
    };
    let (mut outs, mut obs) = (Vec::new(), Vec::new());
    let mut halves = [(0u64, 0.0f64); 2];
    let start = Instant::now();
    let mut wave = 0;
    while start.elapsed().as_secs_f64() < seconds {
        let n = if wave % 2 == 0 {
            1
        } else {
            inputs::OFFLOAD_GEN_TOKENS
        };
        let sched: Vec<Timed> = (0..inputs::OFFLOAD_SLOTS)
            .map(|_| Timed {
                due_s: 0.0,
                prompt: stream.next(),
                n_tokens: n,
            })
            .collect();
        let in_trace = start.elapsed().as_secs_f64() >= half;
        let w0 = Instant::now();
        let wave_obs = drive(
            &srv,
            &sched,
            tracer.as_deref_mut(),
            if in_trace { 0.0 } else { f64::INFINITY },
        );
        let h = &mut halves[in_trace as usize];
        h.0 += (n * sched.len()) as u64;
        h.1 += w0.elapsed().as_secs_f64();
        outs.extend(outputs(&sched, &wave_obs));
        obs.extend(wave_obs);
        wave += 1;
    }
    let wall = start.elapsed().as_secs_f64();
    let mut m = Measured {
        setup_s: median(&setups),
        peak_rss_mb: crate::host::peak_rss_mb(),
        ..Default::default()
    };
    let rep = srv.drain(Duration::from_secs(10));
    latency_crosscheck(&obs);

    let model = io::load(file).expect("load offload weights for the check");
    let ok = inputs::check_f32_solo(&model, &outs);
    m.attempted = outs.len() as u64;
    m.failed = count_failed(&ok);
    let done: Vec<&Obs> = obs
        .iter()
        .zip(&ok)
        .filter(|(o, ok)| **ok && o.tokens.is_some())
        .map(|(o, _)| o)
        .collect();
    m.tok_s = done.iter().map(|o| o.n_tokens).sum::<usize>() as f64 / wall;
    let latency = |o: &Obs| o.done_s.expect("completed") - o.due_s;
    m.ttft_ms = done
        .iter()
        .filter(|o| o.n_tokens == 1)
        .map(|o| latency(o) * 1e3)
        .collect();
    m.tpot_ms = done
        .iter()
        .filter(|o| o.n_tokens > 1)
        .map(|o| latency(o) * 1e3 / o.n_tokens as f64)
        .collect();
    if let Some(t) = tracer {
        let rate = |h: (u64, f64)| h.0 as f64 / h.1;
        m.layer.insert(
            "trace.overhead_share",
            overhead(rate(halves[0]), rate(halves[1]), true),
        );
        serve_layer(&rep, t, &mut m);
    }
    m
}
