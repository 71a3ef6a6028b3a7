//! Property tests for streamed decode: across model shapes × prefetch
//! depths × resident budgets (including budgets so tight every layer step
//! evicts the previous panel mid-stream) × KV page sizes, greedy decode
//! through [`PagedEngine`] over an [`OffloadStore`] is **bit-identical** to
//! the fully-resident [`FastSession`] oracle. This is the correctness half
//! of the streaming weight offload: the engine and its layer body are the
//! resident ones and the panels round-trip bit-exactly through the
//! checksummed v2 file, so any divergence here is a prefetch/eviction bug,
//! not a numerics question.
//!
//! [`FastSession`]: dsi_model::fast::FastSession

use dsi_core::{OffloadConfig, OffloadStore};
use dsi_core::batch::BatchEngine;
use dsi_model::fast::PackedModel;
use dsi_model::paged::PagedEngine;
use dsi_model::reference::GptModel;
use dsi_model::zoo;
use proptest::prelude::*;
use std::path::PathBuf;

/// KV page sizes the engine is exercised at: one token per page, a size
/// that misaligns pages with the AVX 8-block, and the serving default.
const PAGE_TOKENS: [usize; 3] = [1, 3, 16];

/// A streamed engine over `store` whose pool holds `max_slots` full-length
/// sequences at `page_tokens` tokens per page.
fn streamed(store: OffloadStore, max_slots: usize, page_tokens: usize) -> PagedEngine<OffloadStore> {
    let pages = max_slots * store.config().max_seq.div_ceil(page_tokens);
    PagedEngine::new(store, max_slots, pages, page_tokens)
}

/// Save a fresh random model to a uniquely-named v2 weight file.
fn saved(layers: usize, seed: u64, tag: &str) -> (GptModel, PathBuf) {
    let m = GptModel::random(zoo::tiny(layers), seed);
    let path = std::env::temp_dir().join(format!(
        "dsi_offload_prop_{tag}_{}_{seed}_{layers}.bin",
        std::process::id()
    ));
    dsi_model::io::save(&m, &path).expect("save weight file");
    (m, path)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Single-stream decode matches the resident oracle at every prefetch
    /// depth and budget — including `budget = 1 panel` (effective depth 0:
    /// pure demand fetch, evicting the previous layer every step).
    #[test]
    fn streamed_decode_is_oracle_identical(
        seed in 0u64..10_000,
        layers in 1usize..5,
        depth in 0usize..5,
        budget_panels_sel in 0usize..3,
        prompt_len in 1usize..6,
        page_sel in 0usize..3,
    ) {
        let (m, path) = saved(layers, seed, "solo");
        let prompt: Vec<usize> = (0..prompt_len).map(|i| (seed as usize + 7 * i) % 101).collect();
        let n = 6;
        let want = PackedModel::pack(&m).session(prompt.len()).generate(&prompt, n);

        let probe = OffloadStore::open(&path, OffloadConfig::default()).expect("probe open");
        let panel = probe.panel_bytes();
        let file = probe.file_bytes();
        drop(probe);
        // 1 panel (thrash), 2 panels (double-buffer), everything resident.
        let budget = [panel, panel * 2, file][budget_panels_sel];

        let cfg = OffloadConfig {
            resident_budget_bytes: budget,
            prefetch_depth: depth,
            ..OffloadConfig::default()
        };
        let store = OffloadStore::open(&path, cfg).expect("open");
        let page_tokens = PAGE_TOKENS[page_sel];
        let mut eng = streamed(store, 1, page_tokens);
        let mut got = vec![eng.prefill(0, &prompt).expect("prefill")];
        for _ in 1..n {
            eng.decode_step(&[0], &mut got).expect("decode");
        }
        let stats = eng.weights().stats();
        let _ = std::fs::remove_file(&path);

        prop_assert_eq!(
            &got, &want,
            "streamed diverged (seed={}, layers={}, depth={}, budget={}B, page_tokens={})",
            seed, layers, depth, budget, page_tokens
        );
        // The budget is honoured even while panels churn mid-stream.
        prop_assert!(
            stats.peak_resident_bytes <= budget,
            "peak {} exceeds budget {}", stats.peak_resident_bytes, budget
        );
        if budget_panels_sel == 0 && layers > 1 {
            prop_assert!(stats.evictions > 0, "one-panel budget must evict");
        }
    }

    /// Ragged multi-slot decode under a tight budget matches per-prompt
    /// solo oracles: eviction churn from interleaved slots never leaks one
    /// stream's state into another.
    #[test]
    fn streamed_batch_is_oracle_identical_per_slot(
        seed in 0u64..10_000,
        layers in 2usize..5,
        depth in 0usize..3,
        page_sel in 0usize..3,
    ) {
        let (m, path) = saved(layers, seed, "batch");
        let probe = OffloadStore::open(&path, OffloadConfig::default()).expect("probe open");
        let budget = probe.panel_bytes() * 2;
        drop(probe);
        let cfg = OffloadConfig {
            resident_budget_bytes: budget,
            prefetch_depth: depth,
            ..OffloadConfig::default()
        };
        let store = OffloadStore::open(&path, cfg).expect("open");
        prop_assert!(store.file_bytes() > budget, "model must exceed the resident budget");

        let page_tokens = PAGE_TOKENS[page_sel];
        let mut eng = streamed(store, 3, page_tokens);
        let prompts: Vec<Vec<usize>> = (0..3)
            .map(|s| (0..=s + 1).map(|i| (seed as usize + 13 * s + i) % 101).collect())
            .collect();
        let n = 5;
        let mut streams: Vec<Vec<usize>> = prompts
            .iter()
            .enumerate()
            .map(|(s, p)| vec![eng.prefill(s, p).expect("prefill")])
            .collect();
        for _ in 1..n {
            let mut out = Vec::new();
            eng.decode_step(&[0, 1, 2], &mut out).expect("decode");
            for (s, t) in out.into_iter().enumerate() {
                streams[s].push(t);
            }
        }
        let _ = std::fs::remove_file(&path);

        let pm = PackedModel::pack(&m);
        for (s, p) in prompts.iter().enumerate() {
            let want = pm.session(p.len()).generate(p, n);
            prop_assert_eq!(
                &streams[s], &want,
                "slot {} diverged (seed={}, layers={}, depth={}, page_tokens={})",
                s, seed, layers, depth, page_tokens
            );
        }
    }
}

#[test]
fn streamed_decode_matches_resident_oracle() {
    let (m, path) = saved(3, 41, "oracle");
    let pm = PackedModel::pack(&m);
    let want = pm.session(4).generate(&[1, 2, 3, 4], 8);
    for page_tokens in PAGE_TOKENS {
        let store = OffloadStore::open(&path, OffloadConfig::default()).expect("open");
        let mut eng = streamed(store, 1, page_tokens);
        let mut got = vec![eng.prefill(0, &[1, 2, 3, 4]).expect("prefill")];
        for _ in 1..8 {
            eng.decode_step(&[0], &mut got).expect("decode");
        }
        assert_eq!(got, want, "page_tokens {page_tokens}");
    }
    let _ = std::fs::remove_file(path);
}

#[test]
fn streamed_batch_matches_solo_sessions_under_tight_budget() {
    let (m, path) = saved(4, 43, "tight");
    let probe = OffloadStore::open(&path, OffloadConfig::default()).expect("probe");
    let budget = probe.panel_bytes() * 2;
    drop(probe);
    let prompts = [vec![1usize, 2, 3], vec![9, 8], vec![4, 5, 6, 7]];
    let pm = PackedModel::pack(&m);
    for page_tokens in PAGE_TOKENS {
        let cfg = OffloadConfig { resident_budget_bytes: budget, ..OffloadConfig::default() };
        let store = OffloadStore::open(&path, cfg).expect("open");
        assert!(store.file_bytes() > budget, "model bigger than the budget");
        let mut eng = streamed(store, 3, page_tokens);
        let mut streams: Vec<Vec<usize>> = prompts
            .iter()
            .enumerate()
            .map(|(s, p)| vec![eng.prefill(s, p).expect("prefill")])
            .collect();
        for _ in 1..6 {
            let mut out = Vec::new();
            eng.decode_step(&[0, 1, 2], &mut out).expect("decode");
            for (s, t) in out.into_iter().enumerate() {
                streams[s].push(t);
            }
        }
        for (s, p) in prompts.iter().enumerate() {
            let want = pm.session(p.len()).generate(p, 6);
            assert_eq!(streams[s], want, "slot {s}, page_tokens {page_tokens}");
        }
        assert!(eng.weights().stats().evictions > 0, "tight budget must evict");
    }
    let _ = std::fs::remove_file(path);
}

#[test]
fn release_frees_the_slot_for_reuse() {
    let (m, path) = saved(2, 47, "reuse");
    let pm = PackedModel::pack(&m);
    for page_tokens in PAGE_TOKENS {
        let store = OffloadStore::open(&path, OffloadConfig::default()).expect("open");
        let mut eng = streamed(store, 1, page_tokens);
        let first = eng.prefill(0, &[5, 6]).expect("prefill");
        BatchEngine::release(&mut eng, 0);
        assert_eq!(eng.kv_stats().unwrap().pages_in_use, 0);
        let again = eng.prefill(0, &[5, 6]).expect("prefill again");
        assert_eq!(first, again);
        assert_eq!(again, pm.session(2).generate(&[5, 6], 1)[0]);
    }
    let _ = std::fs::remove_file(path);
}
