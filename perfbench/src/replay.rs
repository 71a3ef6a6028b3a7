//! Per-layer replays for the traced run: each workload's shapes sent
//! straight into the public functions of `model`, `kernels`, `zero` and
//! `model::io`, every call recorded as a span (step → layer → region).
//!
//! Kernel bytes and FLOPs are computed from tensor sizes (weight storage
//! plus activation rows read and written; attention reads K and V over the
//! context), not measured by hardware counters.

use crate::inputs::{self, CHAT_PREFIX};
use crate::stats::{median, p90};
use crate::trace::{Tracer, NO_PARENT};
use crate::workloads::offload_store_cfg;
use dsi_core::batch::BatchEngine;
use dsi_kernels::blocked::{self, PanelWeights};
use dsi_kernels::fused::{self, PagedKvView};
use dsi_kernels::tensor::Tensor;
use dsi_model::fast::{
    embed_rows_into, layer_rows_step, logits_into, PackedLayer, PackedModel, QuantizedPackedModel,
    Scratch, StepRow,
};
use dsi_model::paged::{PagePool, PagedEngine, PagedSeq};
use dsi_model::reference::KvCache;
use dsi_model::{io, GptConfig};
use dsi_zero::offload::OffloadStore;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

pub type Metrics = BTreeMap<String, f64>;

/// Context length of a chat decode step (shared prefix, suffix, a dozen
/// generated tokens) and of an INT8 batch-1 step (an 8-token prompt plus
/// 40 generated tokens).
const CHAT_CTX: usize = CHAT_PREFIX + 6 + 12;
const CHAT_PROMPT: usize = CHAT_PREFIX + 6;
const INT8_PROMPT: usize = 8;
const INT8_CTX: usize = INT8_PROMPT + 40;

/// Run `f` `reps` times, each as a span named `name` under `parent`;
/// returns the durations in ms.
fn timed(
    t: &mut Tracer,
    parent: usize,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut(usize),
) -> Vec<f64> {
    (0..reps)
        .map(|i| {
            let s = t.open(name, parent, 0);
            f(i);
            t.close(s);
            let sp = &t.spans[s];
            (sp.end_ns - sp.start_ns) as f64 / 1e6
        })
        .collect()
}

/// `model`: set-up pieces, BatchEngine prefill/decode at chat shapes, and
/// the INT8 batch-1 step split into its embed/layer/logits calls.
pub fn model(t: &mut Tracer, chat_file: &Path, out: &mut Metrics) {
    let root = t.open("replay.model", NO_PARENT, 0);
    let load = timed(t, root, "io.load", 3, |_| {
        drop(black_box(io::load(chat_file).expect("load")))
    });
    out.insert("io.load_ms".into(), median(&load));
    let model = io::load(chat_file).expect("load");
    let c = model.config.clone();
    let pack = timed(t, root, "model.pack", 3, |_| {
        drop(black_box(PackedModel::pack(&model)))
    });
    out.insert("model.pack_ms".into(), median(&pack));
    let quant = timed(t, root, "model.quantize", 3, |_| {
        drop(black_box(QuantizedPackedModel::quantize_pack(
            &model,
            inputs::INT8_GROUP,
        )))
    });
    out.insert("model.quantize_ms".into(), median(&quant));

    let pm = PackedModel::pack(&model);
    let prompts: Vec<Vec<usize>> = (0..8)
        .map(|i| {
            (0..CHAT_PROMPT)
                .map(|j| (i * 31 + j * 7) % c.vocab)
                .collect()
        })
        .collect();
    let mut eng = PagedEngine::new(&pm, 8, 160, 16);
    let prefill = timed(t, root, "engine.prefill", 16, |i| {
        black_box(BatchEngine::prefill(&mut eng, 0, &prompts[i % 8]).expect("pages"));
        BatchEngine::release(&mut eng, 0);
    });
    out.insert(
        "model.prefill_ms_per_tok".into(),
        median(&prefill) / CHAT_PROMPT as f64,
    );
    for (m, name) in [
        (1, "engine.decode_step.m1"),
        (2, "engine.decode_step.m2"),
        (4, "engine.decode_step.m4"),
        (8, "engine.decode_step.m8"),
    ] {
        let slots: Vec<usize> = (0..m).collect();
        let mut steps = Vec::new();
        for _ in 0..3 {
            for &s in &slots {
                BatchEngine::prefill(&mut eng, s, &prompts[s]).expect("pages");
            }
            let mut toks = Vec::with_capacity(m);
            steps.extend(timed(t, root, name, CHAT_CTX - CHAT_PROMPT + 12, |_| {
                toks.clear();
                BatchEngine::decode_step(&mut eng, &slots, &mut toks).expect("pages");
            }));
            for &s in &slots {
                BatchEngine::release(&mut eng, s);
            }
        }
        out.insert(format!("model.decode_step_ms.m{m}"), median(&steps));
    }
    drop(eng);

    // INT8 batch-1: FastSession steps interleaved with the same step made
    // of the free functions it is built from; the difference is the time
    // the step spends outside the embed, layer and logits calls.
    let q = QuantizedPackedModel::quantize_pack(&model, inputs::INT8_GROUP);
    let mut sess = q.session(INT8_PROMPT);
    let mut s = Scratch::new(&c, 1);
    let (mut whole, mut parts) = (Vec::new(), Vec::new());
    for round in 0..3 {
        let prompt: Vec<usize> = (0..INT8_PROMPT)
            .map(|j| (round * 17 + j * 5) % c.vocab)
            .collect();
        sess.reset();
        sess.begin(&prompt);
        let mut tok = sess.generate_step();
        let mut cache: KvCache = sess.cache.clone();
        for _ in 0..64 {
            let st = t.open("int8.generate_step", root, 0);
            let next = sess.generate_step();
            t.close(st);
            whole.push(t.spans[st].end_ns - t.spans[st].start_ns);
            let step = t.open("int8.step_parts", root, 0);
            let mut rows = [StepRow {
                token: tok,
                cache: &mut cache,
            }];
            t.span("embed_rows_into", step, || {
                embed_rows_into(&c, &model.wte, &model.wpe, &rows, &mut s)
            });
            for (l, pl) in q.layers.iter().enumerate() {
                t.span("layer_rows_step", step, || {
                    layer_rows_step(&c, &mut s, pl, &mut rows, l)
                });
            }
            t.span("logits_into", step, || {
                logits_into(
                    &c,
                    &mut s,
                    1,
                    model.lnf_g.data(),
                    model.lnf_b.data(),
                    &q.wte_packed,
                )
            });
            t.close(step);
            let sum: u64 = t
                .spans
                .iter()
                .rev()
                .take_while(|sp| sp.parent == step)
                .map(|sp| sp.end_ns - sp.start_ns)
                .sum();
            parts.push(sum);
            tok = next;
        }
    }
    let whole: Vec<f64> = whole.iter().map(|&n| n as f64 / 1e6).collect();
    let parts: Vec<f64> = parts.iter().map(|&n| n as f64 / 1e6).collect();
    let step = median(&whole);
    out.insert("model.int8_step_ms".into(), step);
    out.insert(
        "model.nonkernel_share.int8_m1".into(),
        (step - median(&parts)) / step,
    );
    t.close(root);
}

/// One region's measured cost, from computed bytes and FLOPs.
fn region(out: &mut Metrics, region: &str, shape: &str, ms: &[f64], bytes: f64, flops: f64) {
    let s = median(ms) / 1e3;
    out.insert(format!("kernels.{region}.us.{shape}"), s * 1e6);
    out.insert(format!("kernels.{region}.gbps.{shape}"), bytes / s / 1e9);
    out.insert(format!("kernels.{region}.gflops.{shape}"), flops / s / 1e9);
}

/// K/V for one attention shape: `ctx[i]` context rows per query row,
/// either paged (chat's engine) or contiguous (`FastSession`'s cache).
enum Kv {
    Paged { pool: PagePool, seqs: Vec<PagedSeq> },
    Contiguous { k: Tensor, v: Tensor },
}

/// The Fig. 1(c) regions plus logits on `m` rows over `layers`, cycling
/// through every layer so each call streams its weights from memory as
/// decode does.
#[allow(clippy::too_many_arguments)]
fn regions<B: PanelWeights>(
    t: &mut Tracer,
    c: &GptConfig,
    layers: &[PackedLayer<B>],
    wte_packed: &B,
    lnf: (&[f32], &[f32]),
    shape: &'static str,
    m: usize,
    kv: &Kv,
    ctx: &[usize],
    out: &mut Metrics,
) {
    let (h, v) = (c.hidden, c.vocab);
    let reps = 6 * layers.len();
    let x = Tensor::randn(&[m, h], 1.0, 11).data().to_vec();
    let ff_in = Tensor::randn(&[m, 4 * h], 1.0, 12).data().to_vec();
    let (mut normed, mut qkv, mut attn, mut y) = (
        vec![0.0; m * h],
        vec![0.0; m * 3 * h],
        vec![0.0; m * h],
        vec![0.0; m * h],
    );
    let (mut ff, mut logits) = (vec![0.0; m * 4 * h], vec![0.0; m * v]);
    let root = t.open(shape, NO_PARENT, 0);
    let l = |i: usize| &layers[i % layers.len()];
    let act = |cols: usize| (4 * m * cols) as f64;
    let gemm = |w: &B, k: usize, n: usize, extra: usize| {
        (
            w.storage_bytes() as f64 + act(k + n + extra),
            2.0 * (m * k * n) as f64,
        )
    };

    let d = timed(t, root, "ln_qkv", reps, |i| {
        let pl = l(i);
        fused::ln_matmul_bias_into(
            &x,
            m,
            &pl.ln1_g,
            &pl.ln1_b,
            1e-5,
            &pl.w_qkv,
            &pl.b_qkv,
            &mut normed,
            &mut qkv,
        );
    });
    let (b, f) = gemm(&layers[0].w_qkv, h, 3 * h, 0);
    region(out, "ln_qkv", shape, &d, b, f);

    let q = Tensor::randn(&[m, h], 1.0, 13).data().to_vec();
    let d = timed(t, root, "attention", reps, |_| {
        for r in 0..m {
            let (qr, o) = (&q[r * h..(r + 1) * h], &mut attn[r * h..(r + 1) * h]);
            match kv {
                Kv::Paged { pool, seqs } => {
                    let seq = &seqs[r.min(seqs.len() - 1)];
                    let (ka, va) = pool.arenas(0);
                    let view = PagedKvView {
                        k: ka,
                        v: va,
                        pages: seq.pages(),
                        page_tokens: pool.page_tokens(),
                        len: ctx[r],
                        offset: ctx[r] - 1,
                    };
                    fused::attention_row_paged_into(qr, &view, c.heads, o);
                }
                Kv::Contiguous { k, v } => {
                    fused::attention_row_into(qr, k, v, c.heads, ctx[r] - 1, o)
                }
            }
        }
    });
    let ctx_sum: usize = ctx.iter().sum();
    region(
        out,
        "attention",
        shape,
        &d,
        (8 * ctx_sum * h) as f64 + act(2 * h),
        (4 * ctx_sum * h) as f64,
    );

    let d = timed(t, root, "wo_residual", reps, |i| {
        let pl = l(i);
        blocked::matmul_bias_add_into(&x, m, &pl.w_o, &pl.b_o, &x, &mut y);
    });
    let (b, f) = gemm(&layers[0].w_o, h, h, h);
    region(out, "wo_residual", shape, &d, b, f);

    let d = timed(t, root, "ln_ff1_gelu", reps, |i| {
        let pl = l(i);
        fused::ln_matmul_bias_gelu_into(
            &x,
            m,
            &pl.ln2_g,
            &pl.ln2_b,
            1e-5,
            &pl.w_ff1,
            &pl.b_ff1,
            &mut normed,
            &mut ff,
        );
    });
    let (b, f) = gemm(&layers[0].w_ff1, h, 4 * h, 0);
    region(out, "ln_ff1_gelu", shape, &d, b, f);

    let d = timed(t, root, "ff2_residual", reps, |i| {
        let pl = l(i);
        blocked::matmul_bias_add_into(&ff_in, m, &pl.w_ff2, &pl.b_ff2, &x, &mut y);
    });
    let (b, f) = gemm(&layers[0].w_ff2, 4 * h, h, h);
    region(out, "ff2_residual", shape, &d, b, f);

    let d = timed(t, root, "logits", reps, |_| {
        for r in 0..m {
            fused::layernorm_row_into(
                &x[r * h..(r + 1) * h],
                lnf.0,
                lnf.1,
                1e-5,
                &mut normed[r * h..(r + 1) * h],
            );
        }
        blocked::matmul_into(&normed, m, wte_packed, &mut logits);
    });
    let (b, f) = gemm(wte_packed, h, v, 0);
    region(out, "logits", shape, &d, b, f);
    black_box((&qkv, &attn, &y, &ff, &logits));
    t.close(root);
}

/// Paged K/V for `ctx.len()` sequences in a one-layer pool.
fn paged_kv(c: &GptConfig, ctx: &[usize]) -> Kv {
    let h = c.hidden;
    let pages: usize = ctx.iter().map(|&n| n.div_ceil(16)).sum();
    let mut pool = PagePool::new(1, h, pages, 16);
    let row = Tensor::randn(&[2, h], 1.0, 14);
    let seqs = ctx
        .iter()
        .map(|&n| {
            let mut seq = PagedSeq::new();
            pool.reserve(&mut seq, n)
                .expect("pool sized for every sequence");
            for pos in 0..n {
                pool.write_row(&seq, 0, pos, row.row(0), row.row(1));
            }
            seq
        })
        .collect();
    Kv::Paged { pool, seqs }
}

/// `kernels`: every region at the shapes int8_m1 (INT8 batch-1), f32_m1 and
/// f32_m8 (chat decode) and f32_prefill (chat prompt pass).
pub fn kernels(t: &mut Tracer, chat_file: &Path, out: &mut Metrics) {
    let model = io::load(chat_file).expect("load");
    let c = model.config.clone();
    let lnf = (model.lnf_g.data(), model.lnf_b.data());
    let q = QuantizedPackedModel::quantize_pack(&model, inputs::INT8_GROUP);
    let ctx = [INT8_CTX];
    let kv = Kv::Contiguous {
        k: Tensor::randn(&[INT8_CTX, c.hidden], 1.0, 15),
        v: Tensor::randn(&[INT8_CTX, c.hidden], 1.0, 16),
    };
    regions(
        t,
        &c,
        &q.layers,
        &q.wte_packed,
        lnf,
        "int8_m1",
        1,
        &kv,
        &ctx,
        out,
    );
    drop(q);

    let pm = PackedModel::pack(&model);
    let shapes: [(&'static str, Vec<usize>, Vec<usize>); 3] = [
        ("f32_m1", vec![CHAT_CTX], vec![CHAT_CTX]),
        ("f32_m8", vec![CHAT_CTX; 8], vec![CHAT_CTX; 8]),
        // The prompt pass: one sequence, row r attends over r + 1 keys.
        (
            "f32_prefill",
            vec![CHAT_PROMPT],
            (1..=CHAT_PROMPT).collect(),
        ),
    ];
    for (shape, seq_ctx, row_ctx) in shapes {
        let kv = paged_kv(&c, &seq_ctx);
        regions(
            t,
            &c,
            &pm.layers,
            &pm.wte_packed,
            lnf,
            shape,
            row_ctx.len(),
            &kv,
            &row_ctx,
            out,
        );
    }
}

/// `zero`/`io`: a store opened on the offload file with the offload
/// workload's budget and depth, driven through M-row decode passes, plus
/// direct calls to the four parts of a panel fetch.
pub fn zero(t: &mut Tracer, offload_file: &Path, out: &mut Metrics) {
    let root = t.open("replay.zero", NO_PARENT, 0);
    let open = timed(t, root, "OffloadStore::open", 5, |_| {
        drop(black_box(
            OffloadStore::open(offload_file, offload_store_cfg()).expect("open"),
        ))
    });
    out.insert("zero.open_ms".into(), median(&open));

    let store = OffloadStore::open(offload_file, offload_store_cfg()).expect("open");
    let c = store.config().clone();
    let m = inputs::OFFLOAD_SLOTS;
    let passes = 24;
    let mut caches: Vec<KvCache> = (0..m)
        .map(|_| KvCache::with_capacity(c.layers, c.hidden, c.max_seq))
        .collect();
    let mut s = Scratch::new(&c, m);
    let before = store.stats();
    let mut waits = Vec::new();
    for _ in 0..passes {
        let pass = t.open("pass", root, 0);
        let rg = store.resident();
        let mut rows: Vec<StepRow> = caches
            .iter_mut()
            .map(|cache| StepRow { token: 1, cache })
            .collect();
        embed_rows_into(&c, &rg.wte, &rg.wpe, &rows, &mut s);
        for l in 0..c.layers {
            let a0 = Instant::now();
            let w = t.open("acquire", pass, 0);
            let panel = store.acquire(l).expect("acquire");
            t.close(w);
            waits.push(a0.elapsed().as_secs_f64() * 1e3);
            store.prefetch_ahead(l + 1);
            t.span("layer_rows_step", pass, || {
                layer_rows_step(&c, &mut s, &panel, &mut rows, l)
            });
        }
        logits_into(&c, &mut s, m, &rg.lnf_g, &rg.lnf_b, &rg.wte_packed);
        t.close(pass);
    }
    let after = store.stats();
    let hits = (after.hits - before.hits) as f64;
    let demand = (after.demand_fetches - before.demand_fetches) as f64;
    out.insert("zero.acquire_wait_ms_p50".into(), median(&waits));
    out.insert(
        "zero.acquire_wait_ms_p90".into(),
        p90(&waits).expect("passes × layers ≥ 100 acquires"),
    );
    out.insert("zero.hit_share".into(), hits / (hits + demand));
    out.insert(
        "zero.bytes_read_per_tok".into(),
        (after.bytes_read - before.bytes_read) as f64 / (passes * m) as f64,
    );
    out.insert(
        "zero.evictions_per_step".into(),
        (after.evictions - before.evictions) as f64 / passes as f64,
    );
    drop(store);

    let bytes = std::fs::read(offload_file).expect("read offload file");
    let dir = io::read_directory(&bytes).expect("directory");
    let (mut copy, mut crc, mut parse, mut repack) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for i in 0..3 * dir.layers() {
        let e = *dir.layer_panel(i % dir.layers());
        let mut buf = Vec::new();
        copy.extend(timed(t, root, "io.copy", 1, |_| {
            buf = bytes[e.offset..e.offset + e.len].to_vec()
        }));
        crc.extend(timed(t, root, "io::crc32", 1, |_| {
            assert_eq!(io::crc32(&buf), e.crc, "panel checksum")
        }));
        let mut lw = None;
        parse.extend(timed(t, root, "io::parse_layer_panel", 1, |_| {
            lw = Some(io::parse_layer_panel(&buf, &dir.config).expect("parse"))
        }));
        let lw = lw.expect("parsed");
        repack.extend(timed(t, root, "PackedLayer::pack", 1, |_| {
            drop(black_box(PackedLayer::pack(&lw)))
        }));
    }
    out.insert("io.copy_ms".into(), median(&copy));
    out.insert("io.crc_ms".into(), median(&crc));
    out.insert("io.parse_ms".into(), median(&parse));
    out.insert("model.repack_ms".into(), median(&repack));
    t.close(root);
}
