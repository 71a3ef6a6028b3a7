//! The executed Deep-Fusion decode path: packed weights + fused kernels +
//! amortized KV + scratch reuse.
//!
//! [`GptModel`] (the reference) is written for clarity: every operator
//! allocates its output, the KV cache is rebuilt per token, and GEMMs run
//! against the row-major weight layout. This module is the performance
//! counterpart the paper's Sec. III argues for, built from four ingredients:
//!
//! 1. **Pack once, reuse every token** — [`PackedModel`] pre-transposes each
//!    layer's four weight matrices into the panel layout of
//!    `dsi_kernels::blocked` at construction, including the tied embedding
//!    (stored `[vocab, h]`, i.e. already transposed for the logits
//!    projection — `PackedB::from_pre_transposed` only re-panels it).
//! 2. **Fused region kernels** — each transformer layer executes as the four
//!    Fig. 1(c) small-batch fused regions (`dsi_kernels::fused`): interior
//!    activations live in scratch rows, never in fresh tensors.
//! 3. **Amortized KV cache** — the session reserves the full
//!    prompt+generation KV budget up front and appends rows in place
//!    ([`LayerKv::append_row_slices`]), replacing the seed's O(T²) per-token
//!    `cat_rows` rebuild.
//! 4. **Scratch reuse** — [`Scratch`] owns every intermediate buffer; the
//!    steady-state one-token decode loop performs **zero heap allocations**
//!    (asserted by `Scratch::alloc_guard` in tests).
//!
//! Numerically the path tracks the reference within f32 reassociation noise
//! (the packed GEMM sums in a different order); greedy decode is verified
//! token-for-token against [`GptModel::generate`] in the property suite.

use crate::config::GptConfig;
use crate::reference::{GptModel, KvCache, LayerKv, LayerWeights};
use dsi_kernels::blocked::{self, PackedB, PanelWeights};
use dsi_kernels::fused;
use dsi_kernels::quant::QuantizedPackedB;
use dsi_kernels::tensor::Tensor;
use std::convert::Infallible;
use std::ops::Deref;

/// One layer's weights in execution layout: GEMM operands packed (FP32
/// panels by default, group-quantized INT8 panels for the
/// [`QuantizedPackedModel`] fast path), vectors as plain slices.
#[derive(Debug, Clone)]
pub struct PackedLayer<B = PackedB> {
    pub ln1_g: Vec<f32>,
    pub ln1_b: Vec<f32>,
    /// `[h, 3h]` QKV projection, packed.
    pub w_qkv: B,
    pub b_qkv: Vec<f32>,
    /// `[h, h]` attention output projection, packed.
    pub w_o: B,
    pub b_o: Vec<f32>,
    pub ln2_g: Vec<f32>,
    pub ln2_b: Vec<f32>,
    /// `[h, 4h]`, packed.
    pub w_ff1: B,
    pub b_ff1: Vec<f32>,
    /// `[4h, h]`, packed.
    pub w_ff2: B,
    pub b_ff2: Vec<f32>,
}

impl<B> PackedLayer<B> {
    /// Pack one layer with an arbitrary weight-packing function (FP32
    /// panels, INT8 quantize-and-pack, ...).
    pub fn pack_with(lw: &LayerWeights, f: impl Fn(&Tensor) -> B) -> Self {
        PackedLayer {
            ln1_g: lw.ln1_g.data().to_vec(),
            ln1_b: lw.ln1_b.data().to_vec(),
            w_qkv: f(&lw.w_qkv),
            b_qkv: lw.b_qkv.data().to_vec(),
            w_o: f(&lw.w_o),
            b_o: lw.b_o.data().to_vec(),
            ln2_g: lw.ln2_g.data().to_vec(),
            ln2_b: lw.ln2_b.data().to_vec(),
            w_ff1: f(&lw.w_ff1),
            b_ff1: lw.b_ff1.data().to_vec(),
            w_ff2: f(&lw.w_ff2),
            b_ff2: lw.b_ff2.data().to_vec(),
        }
    }
}

impl PackedLayer<PackedB> {
    pub fn pack(lw: &LayerWeights) -> Self {
        Self::pack_with(lw, PackedB::pack)
    }
}

/// A reference model plus its packed execution layout. Embedding lookups and
/// final layer-norm parameters are borrowed from the model; the tied
/// embedding is additionally panel-packed once as the logits operand.
///
/// Generic over the packed weight storage `B`: `PackedModel<'m>` is the
/// FP32 fast path, [`QuantizedPackedModel`] streams ~¼ the weight bytes via
/// INT8 panels dequantized in registers (Sec. III-D).
pub struct PackedModel<'m, B = PackedB> {
    pub model: &'m GptModel,
    pub layers: Vec<PackedLayer<B>>,
    /// `wteᵀ` as the packed `[h, vocab]` logits projection.
    pub wte_packed: B,
}

/// The INT8 weight-only fast path: group-quantized panels, FP32
/// activations, dequantization in registers inside the GEMM microkernels —
/// the FP32 weights are never materialized.
pub type QuantizedPackedModel<'m> = PackedModel<'m, QuantizedPackedB>;

/// A [`FastSession`] decoding over INT8 packed weights.
pub type QuantizedFastSession<'p, 'm> = FastSession<'p, 'm, QuantizedPackedB>;

impl<'m> PackedModel<'m> {
    /// One-time packing pass over all layers.
    pub fn pack(model: &'m GptModel) -> Self {
        PackedModel {
            layers: model.layers.iter().map(PackedLayer::pack).collect(),
            wte_packed: PackedB::from_pre_transposed(&model.wte),
            model,
        }
    }
}

impl<'m> QuantizedPackedModel<'m> {
    /// One-time group-quantize + pack pass over all layers (`group_size`
    /// input rows share one scale).
    pub fn quantize_pack(model: &'m GptModel, group_size: usize) -> Self {
        PackedModel {
            layers: model
                .layers
                .iter()
                .map(|lw| PackedLayer::pack_with(lw, |w| QuantizedPackedB::quantize_pack(w, group_size)))
                .collect(),
            wte_packed: QuantizedPackedB::quantize_pack_pre_transposed(&model.wte, group_size),
            model,
        }
    }
}

impl<'m, B: PanelWeights> PackedModel<'m, B> {
    pub fn config(&self) -> &GptConfig {
        &self.model.config
    }

    /// Bytes of packed weight storage streamed by one full forward pass
    /// (all four layer GEMM operands plus the logits projection) — the
    /// denominator of the decode bench's effective-bandwidth number.
    pub fn weight_stream_bytes(&self) -> usize {
        self.layers
            .iter()
            .map(|l| {
                l.w_qkv.storage_bytes()
                    + l.w_o.storage_bytes()
                    + l.w_ff1.storage_bytes()
                    + l.w_ff2.storage_bytes()
            })
            .sum::<usize>()
            + self.wte_packed.storage_bytes()
    }

    /// Start a decode session with all scratch and KV capacity sized for
    /// `max_prompt` prompt tokens plus generation up to the model's
    /// `max_seq`.
    pub fn session(&self, max_prompt: usize) -> FastSession<'_, 'm, B> {
        let c = self.config();
        FastSession {
            pm: self,
            cache: KvCache::with_capacity(c.layers, c.hidden, c.max_seq),
            scratch: Scratch::new(c, max_prompt.max(1)),
            last_m: 0,
            to_feed: None,
        }
    }

    /// Start a batched decode session stepping `prompts.len()` sequences
    /// per forward pass (the `Engine`-step surface of ROADMAP item 1).
    pub fn batched_session(
        &self,
        prompts: &[Vec<usize>],
        max_new_tokens: usize,
    ) -> BatchedFastSession<'_, 'm, B> {
        assert!(!prompts.is_empty());
        let c = self.config();
        let max_prompt = prompts.iter().map(Vec::len).max().unwrap_or(1);
        let seqs = prompts
            .iter()
            .map(|p| {
                assert!(!p.is_empty(), "empty prompt");
                BatchedSeq {
                    cache: KvCache::with_capacity(c.layers, c.hidden, c.max_seq),
                    tokens: p.clone(),
                    prompt_len: p.len(),
                    generated: 0,
                    finished: false,
                }
            })
            .collect();
        BatchedFastSession {
            pm: self,
            seqs,
            scratch: Scratch::new(c, max_prompt.max(prompts.len()).max(1)),
            eos: None,
            max_new_tokens,
            active_idx: Vec::with_capacity(prompts.len()),
        }
    }

    /// Forward `ids` as consecutive positions of **one** sequence over
    /// `cache`, leaving `[ids.len(), vocab]` logits in `scratch`. The
    /// engine core shared by [`FastSession::forward`] and the batched
    /// prompt phase.
    pub fn forward_seq(&self, s: &mut Scratch, cache: &mut KvCache, ids: &[usize]) {
        let c = self.config();
        let m = ids.len();
        let offset = cache.context_len();
        assert!(offset + m <= c.max_seq, "sequence exceeds max_seq");
        s.ensure(c, m);
        let rows = ids.iter().enumerate().map(|(i, &id)| (id, offset + i));
        embed_into(c, &self.model.wte, &self.model.wpe, rows, s);
        for (l, pl) in self.layers.iter().enumerate() {
            layer_seq_step(c, s, pl, &mut cache.layers[l], m, offset);
        }
        logits_into(c, s, m, self.model.lnf_g.data(), self.model.lnf_b.data(), &self.wte_packed);
    }

    /// Forward one token of **each of `rows.len()` independent sequences**
    /// in a single ragged-batch pass: dense M-row GEMMs for regions 1/3/4/5
    /// and the logits projection, per-row KV append and online-softmax
    /// attention over each row's own cache (per-row lengths). Leaves
    /// `[rows.len(), vocab]` logits in `scratch`, row `i` belonging to
    /// `rows[i]`.
    ///
    /// Because every microkernel accumulates like the M=1 kernel, the
    /// logits of row `i` are **bit-identical** to stepping that sequence
    /// alone through [`PackedModel::forward_seq`].
    pub fn forward_rows(&self, s: &mut Scratch, rows: &mut [StepRow<'_>]) {
        let c = self.config();
        let m = rows.len();
        assert!(m > 0, "forward_rows: empty batch");
        s.ensure(c, m);
        embed_rows_into(c, &self.model.wte, &self.model.wpe, rows, s);
        for (l, pl) in self.layers.iter().enumerate() {
            layer_rows_step(c, s, pl, rows, l);
        }
        logits_into(c, s, m, self.model.lnf_g.data(), self.model.lnf_b.data(), &self.wte_packed);
    }
}

/// The weights every forward pass touches at both ends of the layer stack:
/// embeddings on the way in, final layer-norm and the packed logits operand
/// on the way out. Always resident, whatever the layer panels' tier.
pub struct EndWeights<'a, B> {
    pub wte: &'a Tensor,
    pub wpe: &'a Tensor,
    pub lnf_g: &'a [f32],
    pub lnf_b: &'a [f32],
    /// `wteᵀ` as the packed `[h, vocab]` logits projection.
    pub wte_packed: &'a B,
}

/// Where a decode engine's weights come from: the only thing that differs
/// between resident decode and ZeRO-Inference-style streamed decode
/// (Sec. VI). A forward pass walks the stack as
///
/// ```text
///   for l in 0..L {
///       panel = source.layer(l)?          // borrow, or resident hit / fetch
///       source.prefetch_ahead(l + 1)      // a streamed tier reads ahead
///       layer_step(panel, ...)            // the shared fused layer body
///       drop(panel)                       // release before the next checkout
///   }
/// ```
///
/// `&PackedModel` is the resident source (a plain borrow that never fails);
/// `dsi-zero`'s `OffloadStore` hands out `Arc`-pinned panels and fails
/// typed when the tier does.
pub trait WeightSource {
    /// Packed GEMM operand storage (FP32 or INT8 panels).
    type Panel: PanelWeights;
    /// A checked-out layer; dropping it releases any pin the source holds.
    type Layer<'a>: Deref<Target = PackedLayer<Self::Panel>>
    where
        Self: 'a;
    /// Why a layer could not be checked out.
    type Error;

    fn config(&self) -> &GptConfig;

    fn ends(&self) -> EndWeights<'_, Self::Panel>;

    /// Check out layer `l`'s panel.
    fn layer(&self, l: usize) -> Result<Self::Layer<'_>, Self::Error>;

    /// Hint that the pass will want layers from `next` on soon; called right
    /// after layer `next - 1` is checked out. Resident sources ignore it.
    fn prefetch_ahead(&self, _next: usize) {}
}

impl<'p, B: PanelWeights> WeightSource for &'p PackedModel<'_, B> {
    type Panel = B;
    type Layer<'a>
        = &'p PackedLayer<B>
    where
        Self: 'a;
    type Error = Infallible;

    fn config(&self) -> &GptConfig {
        &self.model.config
    }

    fn ends(&self) -> EndWeights<'_, B> {
        EndWeights {
            wte: &self.model.wte,
            wpe: &self.model.wpe,
            lnf_g: self.model.lnf_g.data(),
            lnf_b: self.model.lnf_b.data(),
            wte_packed: &self.wte_packed,
        }
    }

    fn layer(&self, l: usize) -> Result<&'p PackedLayer<B>, Infallible> {
        let pm = *self;
        Ok(&pm.layers[l])
    }
}

// ---------------------------------------------------------------------------
// The fused forward pass, one free function per stage.
//
// These are the single source of the Deep-Fusion kernel sequence: the
// contiguous-KV [`PackedModel`] passes and the paged engine
// (`crate::paged::PagedEngine`, over resident or streamed weights) drive the
// same functions, so every engine is token-identical to the resident oracle
// by construction — the paths differ only in where the KV rows live
// (region 2) and where the `PackedLayer` came from, never in the kernels.
// ---------------------------------------------------------------------------

/// Embedding stage for `(token, position)` rows: token row + position row
/// fused into one write of `s.x` per row. Caller has run
/// `s.ensure(c, rows)`.
pub fn embed_into(
    c: &GptConfig,
    wte: &Tensor,
    wpe: &Tensor,
    rows: impl IntoIterator<Item = (usize, usize)>,
    s: &mut Scratch,
) {
    let h = c.hidden;
    for (i, (token, pos)) in rows.into_iter().enumerate() {
        assert!(pos < c.max_seq, "sequence exceeds max_seq");
        assert!(token < c.vocab, "token id {token} out of vocab");
        let te = wte.row(token);
        let pe = wpe.row(pos);
        for (x, (&t, &p)) in s.x[i * h..(i + 1) * h].iter_mut().zip(te.iter().zip(pe)) {
            *x = t + p;
        }
    }
}

/// Embedding stage for one token of each of `rows.len()` independent
/// sequences, each at its own cache position.
pub fn embed_rows_into(c: &GptConfig, wte: &Tensor, wpe: &Tensor, rows: &[StepRow<'_>], s: &mut Scratch) {
    embed_into(c, wte, wpe, rows.iter().map(|r| (r.token, r.cache.context_len())), s);
}

/// The layer body every engine shares: fused regions 1, 3, 4 and 5 of one
/// transformer layer over `m` rows of `s.x`, with region 2 — KV append and
/// attention, the only step that depends on the KV layout — supplied by
/// the caller as `attend(qkv, attn)`: it reads the `[m, 3h]` fused QKV rows
/// and writes the `[m, h]` attention context.
pub fn layer_step<B: PanelWeights>(
    c: &GptConfig,
    s: &mut Scratch,
    pl: &PackedLayer<B>,
    m: usize,
    attend: impl FnOnce(&[f32], &mut [f32]),
) {
    let h = c.hidden;
    // Region 1: layer-norm rows → one M-row QKV GEMM → bias.
    fused::ln_matmul_bias_into(
        &s.x[..m * h], m, &pl.ln1_g, &pl.ln1_b, 1e-5,
        &pl.w_qkv, &pl.b_qkv, &mut s.normed[..m * h], &mut s.qkv[..m * 3 * h],
    );
    // Region 2: the caller's KV append + attention, queries read in place
    // from the QKV block (stride 3h) — no gather.
    attend(&s.qkv[..m * 3 * h], &mut s.attn[..m * h]);
    // Region 3: output projection GEMM + bias + residual.
    blocked::matmul_bias_add_into(
        &s.attn[..m * h], m, &pl.w_o, &pl.b_o, &s.x[..m * h], &mut s.y[..m * h],
    );
    std::mem::swap(&mut s.x, &mut s.y);
    // Region 4: layer-norm → FF1 GEMM → bias → GeLU.
    fused::ln_matmul_bias_gelu_into(
        &s.x[..m * h], m, &pl.ln2_g, &pl.ln2_b, 1e-5,
        &pl.w_ff1, &pl.b_ff1, &mut s.normed[..m * h], &mut s.ff[..m * 4 * h],
    );
    // Region 5: FF2 GEMM + bias + residual.
    blocked::matmul_bias_add_into(
        &s.ff[..m * 4 * h], m, &pl.w_ff2, &pl.b_ff2, &s.x[..m * h],
        &mut s.y[..m * h],
    );
    std::mem::swap(&mut s.x, &mut s.y);
}

/// One transformer layer over `m` consecutive rows of a single sequence
/// whose prior context length is `offset` (the `forward_seq` layer body):
/// KV appended in place to `kv` (amortized; no reallocation at steady
/// state), then streaming-softmax attention over the cache.
pub fn layer_seq_step<B: PanelWeights>(
    c: &GptConfig,
    s: &mut Scratch,
    pl: &PackedLayer<B>,
    kv: &mut LayerKv,
    m: usize,
    offset: usize,
) {
    let (h, heads) = (c.hidden, c.heads);
    layer_step(c, s, pl, m, |qkv, attn| {
        for row in qkv.chunks_exact(3 * h) {
            kv.append_row_slices(&row[h..2 * h], &row[2 * h..]);
        }
        fused::attention_seq_into(qkv, 3 * h, m, &kv.k, &kv.v, heads, offset, attn);
    });
}

/// One transformer layer (`layer`) over a ragged batch (the `forward_rows`
/// layer body): each row appends to and attends over its own cache at its
/// own position.
pub fn layer_rows_step<B: PanelWeights>(
    c: &GptConfig,
    s: &mut Scratch,
    pl: &PackedLayer<B>,
    rows: &mut [StepRow<'_>],
    layer: usize,
) {
    let (h, heads) = (c.hidden, c.heads);
    layer_step(c, s, pl, rows.len(), |qkv, attn| {
        for (i, row) in rows.iter_mut().enumerate() {
            let kv = &mut row.cache.layers[layer];
            let off = kv.len();
            let q = &qkv[i * 3 * h..(i + 1) * 3 * h];
            kv.append_row_slices(&q[h..2 * h], &q[2 * h..]);
            fused::attention_row_into(&q[..h], &kv.k, &kv.v, heads, off, &mut attn[i * h..(i + 1) * h]);
        }
    });
}

/// Final stage: layer-norm each of the `m` rows, then one M-row
/// tied-embedding logits GEMM via the pre-packed `wteᵀ` into `s.logits`.
pub fn logits_into<B: PanelWeights>(
    c: &GptConfig,
    s: &mut Scratch,
    m: usize,
    lnf_g: &[f32],
    lnf_b: &[f32],
    wte_packed: &B,
) {
    let h = c.hidden;
    for i in 0..m {
        fused::layernorm_row_into(
            &s.x[i * h..(i + 1) * h],
            lnf_g, lnf_b, 1e-5,
            &mut s.normed[i * h..(i + 1) * h],
        );
    }
    blocked::matmul_into(&s.normed[..m * h], m, wte_packed, &mut s.logits[..m * c.vocab]);
}

/// One sequence's contribution to a batched decode step: the token to feed
/// and the KV cache it extends.
pub struct StepRow<'a> {
    pub token: usize,
    pub cache: &'a mut KvCache,
}

/// Preallocated intermediate buffers for the fused layer loop. Sized for
/// `m` concurrent rows (the prompt length; steady-state decode uses `m=1`
/// slices of the same buffers).
#[derive(Debug)]
pub struct Scratch {
    /// `[h]` layer-norm output row (interior of fused regions 1 and 4).
    pub(crate) normed: Vec<f32>,
    /// `[m, h]` current activations.
    pub(crate) x: Vec<f32>,
    /// `[m, 3h]` fused QKV projection output.
    pub(crate) qkv: Vec<f32>,
    /// `[m, h]` attention context output.
    pub(crate) attn: Vec<f32>,
    /// `[m, h]` block output (regions 3/5 write here, then swap with `x`).
    pub(crate) y: Vec<f32>,
    /// `[m, 4h]` FF1 activation.
    pub(crate) ff: Vec<f32>,
    /// `[m, vocab]` logits.
    pub(crate) logits: Vec<f32>,
}

/// The scratch arena's layout: `(buffer name, capacity in floats)` for `m`
/// concurrent rows, in declaration order. [`Scratch::new`] allocates from
/// this table and the static verifier (`dsi-verify::scratch`) analyses
/// aliasing/lifetimes against it, so the two cannot drift apart.
pub fn scratch_layout(c: &GptConfig, m: usize) -> [(&'static str, usize); 7] {
    let h = c.hidden;
    [
        ("normed", m * h),
        ("x", m * h),
        ("qkv", m * 3 * h),
        ("attn", m * h),
        ("y", m * h),
        ("ff", m * 4 * h),
        ("logits", m * c.vocab),
    ]
}

impl Scratch {
    /// Allocate for `m` concurrent rows (public so batched front-ends in
    /// sibling modules can own their scratch).
    pub fn new(c: &GptConfig, m: usize) -> Self {
        let [normed, x, qkv, attn, y, ff, logits] =
            scratch_layout(c, m).map(|(_, len)| vec![0.0; len]);
        Scratch { normed, x, qkv, attn, y, ff, logits }
    }

    /// Grow (never shrink) to fit `m` rows.
    pub fn ensure(&mut self, c: &GptConfig, m: usize) {
        let h = c.hidden;
        if self.x.len() < m * h {
            *self = Scratch::new(c, m);
        }
    }

    /// Logits row `i` of the most recent `m`-row forward.
    pub fn logits_row(&self, i: usize, vocab: usize) -> &[f32] {
        &self.logits[i * vocab..(i + 1) * vocab]
    }

    /// Capacity fingerprint: total reserved floats across all buffers. The
    /// zero-allocation invariant of steady-state decode is "this value and
    /// every buffer pointer are unchanged across tokens".
    pub fn reserved_len(&self) -> usize {
        self.normed.len()
            + self.x.len()
            + self.qkv.len()
            + self.attn.len()
            + self.y.len()
            + self.ff.len()
            + self.logits.len()
    }
}

/// A generation session over a packed model: owns the KV cache and scratch.
pub struct FastSession<'p, 'm, B = PackedB> {
    pm: &'p PackedModel<'m, B>,
    pub cache: KvCache,
    scratch: Scratch,
    /// Row count of the most recent [`FastSession::forward`] call; selects
    /// the sampling row inside the scratch logits buffer.
    last_m: usize,
    /// The token emitted by the last [`FastSession::generate_step`] that has
    /// not been fed through the model yet. Feeding is deferred to the start
    /// of the *next* step so a caller that stops early (deadline,
    /// cancellation) never pays for a forward pass whose logits it will not
    /// sample.
    to_feed: Option<usize>,
}

impl<B: PanelWeights> FastSession<'_, '_, B> {
    /// Context length consumed so far.
    pub fn context_len(&self) -> usize {
        self.cache.context_len()
    }

    /// The `[vocab]` logits row of the most recently forwarded position —
    /// the row greedy sampling reads. Centralizes the
    /// `(m - 1) * vocab` slice math so session front-ends (this one and
    /// `dsi-parallel`'s `TpSession`) never duplicate it.
    ///
    /// Panics if no `forward` has run yet.
    pub fn last_logits(&self) -> &[f32] {
        assert!(self.last_m > 0, "last_logits() before any forward()");
        let vocab = self.pm.config().vocab;
        &self.scratch.logits[(self.last_m - 1) * vocab..self.last_m * vocab]
    }

    /// Forward `ids` through all layers, extending the KV cache; leaves
    /// `[ids.len(), vocab]` logits in scratch and returns them as a slice.
    pub fn forward(&mut self, ids: &[usize]) -> &[f32] {
        let m = ids.len();
        self.pm.forward_seq(&mut self.scratch, &mut self.cache, ids);
        self.last_m = m;
        &self.scratch.logits[..m * self.pm.config().vocab]
    }

    /// Ingest `prompt` and arm step-wise generation: after `begin`, each
    /// [`FastSession::generate_step`] emits the next greedy token. The
    /// step-wise pair is token-identical to one-shot
    /// [`FastSession::generate`] (which is implemented on top of it).
    pub fn begin(&mut self, prompt: &[usize]) {
        self.forward(prompt);
        self.to_feed = None;
    }

    /// Emit the next greedy token. The previous step's token (if any) is fed
    /// through the model first, then the fresh logits row is sampled — so a
    /// caller can stop between any two steps (deadline, cancellation) with
    /// the tokens emitted so far forming an exact prefix of the full
    /// generation.
    ///
    /// Panics if no [`FastSession::begin`] / [`FastSession::forward`] has
    /// run yet.
    pub fn generate_step(&mut self) -> usize {
        if let Some(t) = self.to_feed.take() {
            self.forward(&[t]);
        }
        let tok = argmax(self.last_logits());
        self.to_feed = Some(tok);
        tok
    }

    /// Drop all decode state (KV context, pending token), keeping every
    /// buffer's capacity: the session is ready for a fresh prompt with zero
    /// reallocation — the single-slot engine's `release` path.
    pub fn reset(&mut self) {
        self.cache.clear();
        self.to_feed = None;
        self.last_m = 0;
    }

    /// Greedy generation: process `prompt`, then emit `n_tokens` tokens
    /// (`n_tokens == 0` ingests the prompt and returns no tokens). Matches
    /// [`GptModel::generate`] token-for-token (up to f32 reassociation in
    /// the GEMMs).
    pub fn generate(&mut self, prompt: &[usize], n_tokens: usize) -> Vec<usize> {
        self.begin(prompt);
        (0..n_tokens).map(|_| self.generate_step()).collect()
    }

    /// Scratch capacity fingerprint (see [`Scratch::reserved_len`]).
    pub fn scratch_reserved(&self) -> usize {
        self.scratch.reserved_len()
    }

    /// Data pointers of every scratch buffer and KV tensor — unchanged
    /// pointers across decode steps prove the loop ran allocation-free.
    pub fn buffer_fingerprint(&self) -> Vec<usize> {
        let s = &self.scratch;
        let mut f = vec![
            s.normed.as_ptr() as usize,
            s.qkv.as_ptr() as usize,
            s.attn.as_ptr() as usize,
            s.ff.as_ptr() as usize,
            s.logits.as_ptr() as usize,
        ];
        // x and y swap per layer, so fingerprint them as an unordered pair.
        let (a, b) = (s.x.as_ptr() as usize, s.y.as_ptr() as usize);
        f.push(a.min(b));
        f.push(a.max(b));
        for l in &self.cache.layers {
            f.push(l.k.data().as_ptr() as usize);
            f.push(l.v.data().as_ptr() as usize);
        }
        f
    }
}

/// State of one sequence inside a [`BatchedFastSession`].
#[derive(Debug, Clone)]
pub struct BatchedSeq {
    pub cache: KvCache,
    /// All tokens so far (prompt + generated).
    pub tokens: Vec<usize>,
    pub prompt_len: usize,
    /// Tokens generated so far.
    pub generated: usize,
    pub finished: bool,
}

/// Greedy batched decode over a packed model: **M sequences advance per
/// forward pass** through the M-row microkernels, each over its own KV
/// cache (ragged lengths, early EOS). Construct via
/// [`PackedModel::batched_session`].
///
/// Token streams are bit-identical to running each sequence alone through a
/// [`FastSession`] — the microkernel accumulation-order invariant makes the
/// batch decomposition invisible to the numerics. Scratch and KV storage
/// are preallocated; steady-state steps reuse them (the only per-step
/// allocation is the transient `StepRow` pointer list).
pub struct BatchedFastSession<'p, 'm, B = PackedB> {
    pm: &'p PackedModel<'m, B>,
    pub seqs: Vec<BatchedSeq>,
    scratch: Scratch,
    /// Token id that terminates a sequence, if any.
    pub eos: Option<usize>,
    /// Per-sequence generation cap.
    pub max_new_tokens: usize,
    /// Reused per-step list of unfinished sequence indices.
    active_idx: Vec<usize>,
}

impl<B: PanelWeights> BatchedFastSession<'_, '_, B> {
    /// Prompt phase: ingest every sequence's prompt (one `forward_seq`
    /// each — prompts are ragged, so they cannot share a dense batch) and
    /// emit each sequence's first greedy token.
    pub fn prompt(&mut self) {
        let c = self.pm.config();
        for sq in &mut self.seqs {
            self.pm.forward_seq(&mut self.scratch, &mut sq.cache, &sq.tokens.clone());
            let next = argmax(self.scratch.logits_row(sq.prompt_len - 1, c.vocab));
            sq.tokens.push(next);
            sq.generated = 1;
            sq.finished = Some(next) == self.eos || sq.generated >= self.max_new_tokens;
        }
    }

    /// One batched generation step: every unfinished sequence's pending
    /// token is fed through a single M-row forward pass and its next greedy
    /// token sampled. Returns how many sequences advanced.
    pub fn step(&mut self) -> usize {
        let vocab = self.pm.config().vocab;
        self.active_idx.clear();
        self.active_idx
            .extend(self.seqs.iter().enumerate().filter(|(_, s)| !s.finished).map(|(i, _)| i));
        if self.active_idx.is_empty() {
            return 0;
        }
        let mut rows: Vec<StepRow<'_>> = self
            .seqs
            .iter_mut()
            .filter(|s| !s.finished)
            .map(|s| StepRow {
                token: *s.tokens.last().expect("non-empty prompt"),
                cache: &mut s.cache,
            })
            .collect();
        self.pm.forward_rows(&mut self.scratch, &mut rows);
        drop(rows);
        let advanced = self.active_idx.len();
        for r in 0..advanced {
            let i = self.active_idx[r];
            let next = argmax(self.scratch.logits_row(r, vocab));
            let sq = &mut self.seqs[i];
            sq.tokens.push(next);
            sq.generated += 1;
            if Some(next) == self.eos || sq.generated >= self.max_new_tokens {
                sq.finished = true;
            }
        }
        advanced
    }

    /// Run prompt + steps to completion; returns total generated tokens.
    pub fn run(&mut self) -> usize {
        self.prompt();
        let mut guard = 0;
        while self.step() > 0 {
            guard += 1;
            assert!(guard <= self.max_new_tokens + 1, "runaway generation");
        }
        self.seqs.iter().map(|s| s.generated).sum()
    }

    /// Generated suffix of sequence `i`.
    pub fn output(&self, i: usize) -> &[usize] {
        let s = &self.seqs[i];
        &s.tokens[s.prompt_len..]
    }

    /// Scratch + KV data pointers; unchanged values across steps prove the
    /// steady-state loop reuses its buffers.
    pub fn buffer_fingerprint(&self) -> Vec<usize> {
        let mut f = self.scratch_fingerprint();
        for sq in &self.seqs {
            for l in &sq.cache.layers {
                f.push(l.k.data().as_ptr() as usize);
                f.push(l.v.data().as_ptr() as usize);
            }
        }
        f
    }

    fn scratch_fingerprint(&self) -> Vec<usize> {
        let s = &self.scratch;
        let (a, b) = (s.x.as_ptr() as usize, s.y.as_ptr() as usize);
        vec![
            s.normed.as_ptr() as usize,
            s.qkv.as_ptr() as usize,
            s.attn.as_ptr() as usize,
            s.ff.as_ptr() as usize,
            s.logits.as_ptr() as usize,
            a.min(b),
            a.max(b),
        ]
    }
}

/// Greedy sampling over one logits row, shared by every session front-end
/// (fast path, TP engine, benches) so tie-breaking cannot drift.
#[inline]
pub fn argmax(row: &[f32]) -> usize {
    let mut best = 0;
    let mut bv = f32::NEG_INFINITY;
    // `>=` keeps the *last* maximum on exact ties, matching the reference
    // `ops::argmax_rows` (Iterator::max_by returns the last of equals).
    for (i, &v) in row.iter().enumerate() {
        if v >= bv {
            bv = v;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;
    use dsi_kernels::tensor::Tensor;

    fn model(layers: usize, seed: u64) -> GptModel {
        GptModel::random(zoo::tiny(layers), seed)
    }

    #[test]
    fn fast_logits_match_reference() {
        let m = model(2, 42);
        let pm = PackedModel::pack(&m);
        let mut sess = pm.session(4);
        let got = sess.forward(&[1, 2, 3, 4]).to_vec();
        let want = m.forward_full(&[1, 2, 3, 4]);
        let gt = Tensor::from_vec(&[4, 101], got);
        assert!(
            gt.allclose(&want, 1e-3),
            "max diff {}",
            gt.max_abs_diff(&want)
        );
    }

    #[test]
    fn fast_incremental_matches_fast_full() {
        let m = model(3, 7);
        let pm = PackedModel::pack(&m);
        let mut inc = pm.session(3);
        inc.forward(&[5, 6, 7]);
        let got = inc.forward(&[8]).to_vec();
        let mut full = pm.session(4);
        let all = full.forward(&[5, 6, 7, 8]);
        let last = &all[3 * 101..4 * 101];
        let diff = got
            .iter()
            .zip(last)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(diff < 1e-3, "max diff {diff}");
    }

    #[test]
    fn fast_generate_matches_reference_generate() {
        for seed in [1u64, 9, 33] {
            let m = model(2, seed);
            let pm = PackedModel::pack(&m);
            let mut sess = pm.session(4);
            let want = m.generate(&[1, 2, 3, 4], 8);
            let got = sess.generate(&[1, 2, 3, 4], 8);
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn steady_state_decode_does_not_allocate() {
        let m = model(2, 5);
        let pm = PackedModel::pack(&m);
        let mut sess = pm.session(4);
        // Prompt + one decode step to reach steady state.
        sess.forward(&[1, 2, 3, 4]);
        sess.forward(&[7]);
        let fp = sess.buffer_fingerprint();
        let reserved = sess.scratch_reserved();
        // Every further token must reuse the same buffers: identical data
        // pointers for all scratch and KV storage.
        for t in 0..20 {
            sess.forward(&[(t * 13 + 2) % 101]);
            assert_eq!(sess.buffer_fingerprint(), fp, "token {t} reallocated");
            assert_eq!(sess.scratch_reserved(), reserved);
        }
    }

    #[test]
    fn batched_decode_token_identical_to_per_sequence() {
        // The acceptance gate: batched FP32 decode must be *token-identical*
        // (in fact bit-identical in logits) to per-sequence FastSession runs.
        let m = model(2, 17);
        let pm = PackedModel::pack(&m);
        let prompts = vec![vec![1, 2, 3], vec![9usize, 8, 7, 6], vec![4], vec![5, 5]];
        let mut bs = pm.batched_session(&prompts, 6);
        bs.run();
        for (i, p) in prompts.iter().enumerate() {
            let mut solo = pm.session(p.len());
            let want = solo.generate(p, 6);
            assert_eq!(bs.output(i), &want[..], "sequence {i}");
        }
    }

    #[test]
    fn batched_eos_and_caps_respected() {
        let m = model(2, 23);
        let pm = PackedModel::pack(&m);
        let first = pm.session(3).generate(&[1, 2, 3], 1)[0];
        let mut bs = pm.batched_session(&[vec![1, 2, 3], vec![4, 5]], 10);
        bs.eos = Some(first);
        bs.run();
        assert_eq!(bs.seqs[0].generated, 1, "eos must stop sequence 0");
        assert!(bs.seqs[1].generated <= 10);
        assert!(bs.seqs.iter().all(|s| s.finished));
    }

    #[test]
    fn batched_steady_state_reuses_buffers() {
        let m = model(2, 29);
        let pm = PackedModel::pack(&m);
        let mut bs = pm.batched_session(&[vec![1, 2], vec![3, 4, 5], vec![6]], 16);
        bs.prompt();
        bs.step();
        let fp = bs.buffer_fingerprint();
        for _ in 0..6 {
            bs.step();
            assert_eq!(bs.buffer_fingerprint(), fp, "batched step reallocated");
        }
    }

    #[test]
    fn quantized_packed_model_decodes() {
        // Fidelity bounds live in the root proptest suite; here: the INT8
        // session runs end-to-end and mostly agrees with FP32 greedy decode
        // on a well-separated tiny model.
        let m = model(2, 31);
        let qm = QuantizedPackedModel::quantize_pack(&m, 32);
        let fp = PackedModel::pack(&m);
        let got = qm.session(4).generate(&[1, 2, 3, 4], 8);
        let want = fp.session(4).generate(&[1, 2, 3, 4], 8);
        let agree = got.iter().zip(&want).filter(|(a, b)| a == b).count();
        assert!(agree * 2 >= want.len(), "agreement {agree}/{}", want.len());
    }

    #[test]
    fn int8_weight_stream_is_under_half_of_fp32() {
        let m = model(2, 37);
        let fp = PackedModel::pack(&m);
        let qm = QuantizedPackedModel::quantize_pack(&m, 64);
        assert!(
            qm.weight_stream_bytes() * 2 < fp.weight_stream_bytes(),
            "int8 {} vs fp32 {}",
            qm.weight_stream_bytes(),
            fp.weight_stream_bytes()
        );
    }

    #[test]
    fn session_reuse_across_prompts() {
        let m = model(2, 11);
        let pm = PackedModel::pack(&m);
        let mut a = pm.session(3);
        let first = a.generate(&[1, 2, 3], 4);
        // A fresh session over the same packed model reproduces it.
        let mut b = pm.session(3);
        assert_eq!(b.generate(&[1, 2, 3], 4), first);
    }
}
