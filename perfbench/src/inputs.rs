//! Model shapes, weight files and seeded request streams of the three
//! workloads, plus the output checks run after each timed phase.

use crate::rng::SplitMix64;
use dsi_model::fast::PackedModel;
use dsi_model::reference::GptModel;
use dsi_model::GptConfig;
use std::path::Path;

/// The chat model, also replayed for the INT8 per-layer shapes: bench-384 (hidden 384, 8 layers, the
/// DRAM-bound shape of `bench_decode`), with a longer `max_seq` so chat
/// contexts reach real lengths.
pub fn bench384() -> GptConfig {
    GptConfig {
        name: "bench-384".into(),
        hidden: 384,
        layers: 8,
        heads: 8,
        vocab: 512,
        max_seq: 256,
    }
}

/// The offload model: eight layers of hidden 256. Each prompt costs the
/// streamed engine one full pass over the weight file, so a narrower
/// panel fits enough waves in a run for steady medians.
pub fn offload_model() -> GptConfig {
    GptConfig {
        name: "bench-256".into(),
        hidden: 256,
        layers: 8,
        heads: 8,
        vocab: 512,
        max_seq: 128,
    }
}

/// INT8 group size of the replayed INT8 model (as in `bench_decode`).
pub const INT8_GROUP: usize = 64;

/// Write the seeded model's v2 weight file: harness preparation, run in a
/// separate process so neither its time nor its memory is charged to the
/// workload.
pub fn write_weights(cfg: GptConfig, seed: u64, path: &Path) {
    let model = GptModel::random(cfg, seed);
    dsi_model::io::save(&model, path).expect("write weight file");
}

// ---------------------------------------------------------------------------
// chat: open loop, shared system prefix, half one-token scoring calls.
// ---------------------------------------------------------------------------

pub const CHAT_RATE_RPS: f64 = 4.0;
pub const CHAT_PREFIX: usize = 16;
pub const CHAT_SUFFIX: (usize, usize) = (2, 6);
pub const CHAT_OUTPUT: (usize, usize) = (16, 32);
pub const CHAT_MAX_PROMPT: usize = CHAT_PREFIX + CHAT_SUFFIX.1;

#[derive(Clone, Debug, PartialEq)]
pub struct Timed {
    /// Send time, seconds after the timed phase starts.
    pub due_s: f64,
    pub prompt: Vec<usize>,
    pub n_tokens: usize,
}

/// The chat schedule: `rate × seconds` requests (at least 100, the
/// load-generator lag's p90 needs them), one arrival placed uniformly at
/// random in each `1 / rate` slot of the window, half of them one-token
/// scoring calls. Slotted arrivals keep the seeded randomness of send times
/// without Poisson's chance bursts, which with a hundred-odd requests
/// decide by themselves how much a run queues.
pub fn chat_schedule(seed: u64, seconds: f64) -> Vec<Timed> {
    let mut rng = SplitMix64::new(seed ^ 0xc4a7);
    let vocab = bench384().vocab;
    let prefix = rng.tokens(CHAT_PREFIX, vocab);
    let n = ((CHAT_RATE_RPS * seconds).round() as usize).max(100);
    let due: Vec<f64> = (0..n)
        .map(|i| (i as f64 + rng.unit()) / CHAT_RATE_RPS)
        .collect();
    let mut one_token: Vec<bool> = (0..n).map(|i| i < n / 2).collect();
    for i in (1..n).rev() {
        one_token.swap(i, rng.below(i + 1));
    }
    due.into_iter()
        .zip(one_token)
        .map(|(due_s, one)| {
            let mut prompt = prefix.clone();
            let suffix = rng.range(CHAT_SUFFIX.0, CHAT_SUFFIX.1);
            prompt.extend(rng.tokens(suffix, vocab));
            let n_tokens = if one {
                1
            } else {
                rng.range(CHAT_OUTPUT.0, CHAT_OUTPUT.1)
            };
            Timed {
                due_s,
                prompt,
                n_tokens,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// offload: closed loop over short unshared prompts.
// ---------------------------------------------------------------------------

/// Endless seeded stream of offload prompts.
pub struct Stream {
    rng: SplitMix64,
}

impl Stream {
    pub fn offload(seed: u64) -> Self {
        Stream {
            rng: SplitMix64::new(seed ^ 0x0ff1),
        }
    }

    /// Next prompt, 4–8 unshared tokens.
    pub fn next(&mut self) -> Vec<usize> {
        let len = self.rng.range(OFFLOAD_PROMPT.0, OFFLOAD_PROMPT.1);
        self.rng.tokens(len, offload_model().vocab)
    }
}

/// Offload waves alternate one-token scoring waves (the TTFT samples) and
/// generation waves of this many tokens; every wave fills all slots with
/// equal-length requests.
pub const OFFLOAD_SLOTS: usize = 8;
pub const OFFLOAD_GEN_TOKENS: usize = 8;
pub const OFFLOAD_PROMPT: (usize, usize) = (4, 8);
/// Resident budget in layer panels (of 8): well under the weight file.
pub const OFFLOAD_BUDGET_PANELS: usize = 3;
pub const OFFLOAD_DEPTH: usize = 2;

/// Packed bytes of one layer panel of `c` (f32 GEMM operands plus the
/// bias and layer-norm vectors), the unit of the offload budget.
pub fn panel_bytes(c: &GptConfig) -> usize {
    let h = c.hidden;
    4 * (12 * h * h + 13 * h)
}

// ---------------------------------------------------------------------------
// Output checks (after the timed phase, never inside it).
// ---------------------------------------------------------------------------

/// One generated output to check.
pub struct Output {
    pub prompt: Vec<usize>,
    pub n_tokens: usize,
    pub tokens: Vec<usize>,
}

/// Run `check` over `items` on up to `nproc` threads; per-item verdicts in
/// order.
fn par_check<T: Sync>(items: &[T], check: impl Fn(&[T]) -> Vec<bool> + Sync) -> Vec<bool> {
    let threads = crate::host::nproc().clamp(1, 2);
    let chunk = items.len().div_ceil(threads).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = items.chunks(chunk).map(|c| s.spawn(|| check(c))).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("check thread"))
            .collect()
    })
}

/// f32 relation (chat, offload): every output is token-identical to a
/// solo f32 `FastSession` generation of the same prompt.
pub fn check_f32_solo(model: &GptModel, outputs: &[Output]) -> Vec<bool> {
    let pm = PackedModel::pack(model);
    let max_prompt = outputs.iter().map(|o| o.prompt.len()).max().unwrap_or(1);
    par_check(outputs, |chunk| {
        let mut sess = pm.session(max_prompt);
        chunk
            .iter()
            .map(|o| {
                sess.reset();
                sess.generate(&o.prompt, o.n_tokens) == o.tokens
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_same_request_stream() {
        assert_eq!(chat_schedule(3, 45.0), chat_schedule(3, 45.0));
        assert_ne!(chat_schedule(3, 45.0), chat_schedule(4, 45.0));
        let take = |mut s: Stream| (0..8).map(|_| s.next()).collect::<Vec<_>>();
        assert_eq!(take(Stream::offload(3)), take(Stream::offload(3)));
        assert_ne!(take(Stream::offload(3)), take(Stream::offload(4)));
    }

    #[test]
    fn chat_schedule_fits_the_window_with_half_one_token_calls() {
        for seed in 0..20 {
            let s = chat_schedule(seed, 30.0);
            let window = s.len() as f64 / CHAT_RATE_RPS;
            assert!(s.windows(2).all(|w| w[0].due_s <= w[1].due_s));
            assert!(s.iter().all(|r| (0.0..window).contains(&r.due_s)));
            assert!(s.iter().all(|r| r.prompt.len() <= CHAT_MAX_PROMPT));
            assert!(s
                .iter()
                .all(|r| r.prompt[..CHAT_PREFIX] == s[0].prompt[..CHAT_PREFIX]));
            let one = s.iter().filter(|r| r.n_tokens == 1).count();
            assert_eq!(one, s.len() / 2, "seed {seed}");
        }
    }
}
