//! Paged KV allocator + multi-slot decode engine — the executed analog of
//! the paper's Sec. IV memory-pressure story, replacing the contiguous
//! per-sequence KV growth of [`crate::reference::KvCache`] with vLLM-style
//! fixed-size token pages.
//!
//! * [`PagePool`] owns per-layer K/V arenas carved into pages of
//!   `page_tokens` context rows. A page id names the same slot in **every**
//!   layer's arena, so one page allocation covers a token's K/V across the
//!   whole stack. Pages are recycled through a LIFO free list — zero
//!   external fragmentation by construction (any free page serves any
//!   sequence), and the always-on accounting identity
//!   `pages_total == pages_in_use + pages_free` is asserted on every
//!   transition.
//! * [`PagedSeq`] is one sequence's page table: position `j` lives in page
//!   `pages[j / page_tokens]`, slot `j % page_tokens`. Attention reads
//!   resolve through the table via `fused::attention_row_paged_into`, whose
//!   FLOP sequence is shared with the contiguous kernel — paged decode is
//!   **bit-identical** to [`crate::fast::FastSession`], not merely close.
//! * [`PagedEngine`] hosts up to `max_slots` concurrent sequences over one
//!   [`WeightSource`] and one scratch arena: `prefill` admits a prompt into
//!   a free slot (reserving its prompt pages up front, all-or-nothing),
//!   `decode` advances any subset of slots one token through a single
//!   ragged M-row pass (reserving at page granularity *per step*), and
//!   `release` returns a retired sequence's pages to the free list. The
//!   source is `&PackedModel` for resident weights or `dsi-zero`'s
//!   `OffloadStore` for weights streamed from a slower tier — one engine,
//!   so resident and streamed serving share admission, page accounting and
//!   shedding. This is the execution surface `dsi-serve`'s
//!   continuous-batching scheduler drives.

use crate::config::GptConfig;
use crate::fast::{argmax, embed_into, layer_step, logits_into, Scratch, WeightSource};
use dsi_kernels::fused::{self, PagedKvView};

/// A page reservation failed: the pool has fewer free pages than the
/// request needs. Nothing was allocated (reservations are all-or-nothing),
/// so the caller can evict and retry, or surface typed memory pressure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PagesExhausted {
    /// Pages the reservation needed.
    pub needed: usize,
    /// Pages that were free.
    pub free: usize,
}

impl std::fmt::Display for PagesExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "kv pages exhausted: need {}, {} free", self.needed, self.free)
    }
}

impl std::error::Error for PagesExhausted {}

/// One sequence's page table plus its committed context length.
#[derive(Debug, Default, Clone)]
pub struct PagedSeq {
    pages: Vec<u32>,
    len: usize,
}

impl PagedSeq {
    pub fn new() -> Self {
        Self::default()
    }

    /// Context rows committed so far.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The page table, in position order.
    pub fn pages(&self) -> &[u32] {
        &self.pages
    }
}

/// Fixed-size-page KV arena shared by every resident sequence.
///
/// Storage is `layers × 2` arenas of `pages_total × page_tokens` rows of
/// `hidden` floats, allocated once; page allocation/release never touches
/// the heap.
#[derive(Debug)]
pub struct PagePool {
    hidden: usize,
    page_tokens: usize,
    pages_total: usize,
    /// Per-layer K arenas, `[pages_total * page_tokens, hidden]` row-major.
    k: Vec<Vec<f32>>,
    /// Per-layer V arenas, same shape.
    v: Vec<Vec<f32>>,
    /// LIFO free list (most recently released page is reused first — the
    /// warmest rows in cache).
    free: Vec<u32>,
    in_use: usize,
    high_water: usize,
}

/// Point-in-time allocator statistics for reports and benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageStats {
    pub pages_total: usize,
    pub pages_in_use: usize,
    pub pages_free: usize,
    pub high_water: usize,
    pub page_tokens: usize,
}

impl PagePool {
    pub fn new(layers: usize, hidden: usize, pages_total: usize, page_tokens: usize) -> Self {
        assert!(layers > 0 && hidden > 0 && pages_total > 0 && page_tokens > 0);
        let rows = pages_total * page_tokens;
        let pool = PagePool {
            hidden,
            page_tokens,
            pages_total,
            k: (0..layers).map(|_| vec![0.0; rows * hidden]).collect(),
            v: (0..layers).map(|_| vec![0.0; rows * hidden]).collect(),
            // Reverse order so page 0 is handed out first (LIFO pop).
            free: (0..pages_total as u32).rev().collect(),
            in_use: 0,
            high_water: 0,
        };
        pool.assert_identity();
        pool
    }

    /// The always-on accounting identity: every page is exactly one of
    /// in-use or free. Runs on every allocation/release transition.
    fn assert_identity(&self) {
        assert_eq!(
            self.pages_total,
            self.in_use + self.free.len(),
            "page pool identity violated: {} total != {} in_use + {} free",
            self.pages_total,
            self.in_use,
            self.free.len()
        );
    }

    pub fn page_tokens(&self) -> usize {
        self.page_tokens
    }

    pub fn stats(&self) -> PageStats {
        PageStats {
            pages_total: self.pages_total,
            pages_in_use: self.in_use,
            pages_free: self.free.len(),
            high_water: self.high_water,
            page_tokens: self.page_tokens,
        }
    }

    /// Pages needed to hold `tokens` context rows.
    pub fn pages_for(&self, tokens: usize) -> usize {
        tokens.div_ceil(self.page_tokens)
    }

    /// Grow `seq`'s table to cover `additional` more tokens. All-or-nothing:
    /// on `Err` no page moved and the sequence is untouched.
    pub fn reserve(&mut self, seq: &mut PagedSeq, additional: usize) -> Result<(), PagesExhausted> {
        let target = self.pages_for(seq.len + additional);
        let need = target.saturating_sub(seq.pages.len());
        if need > self.free.len() {
            return Err(PagesExhausted { needed: need, free: self.free.len() });
        }
        for _ in 0..need {
            seq.pages.push(self.free.pop().expect("checked above"));
        }
        self.in_use += need;
        self.high_water = self.high_water.max(self.in_use);
        self.assert_identity();
        Ok(())
    }

    /// Return every page of `seq` to the free list (reverse order, so the
    /// most recently used page is reallocated first) and reset the
    /// sequence. Debug builds also reject double-frees: a page already on
    /// the free list means two page tables claimed the same page (the
    /// recovery/replay path releases possibly-poisoned sequences, so this
    /// is exactly where an aliasing bug would corrupt a survivor's KV).
    pub fn release(&mut self, seq: &mut PagedSeq) {
        let n = seq.pages.len();
        while let Some(p) = seq.pages.pop() {
            debug_assert!((p as usize) < self.pages_total, "foreign page released");
            debug_assert!(
                !self.free.contains(&p),
                "double free: page {p} is already on the free list"
            );
            self.free.push(p);
        }
        self.in_use -= n;
        seq.len = 0;
        self.assert_identity();
    }

    /// Write one context row (`layer`, position `pos`) of `seq` through its
    /// page table. The position must already be reserved.
    pub fn write_row(&mut self, seq: &PagedSeq, layer: usize, pos: usize, k: &[f32], v: &[f32]) {
        let h = self.hidden;
        assert_eq!(k.len(), h);
        assert_eq!(v.len(), h);
        assert!(
            pos < seq.pages.len() * self.page_tokens,
            "write past reservation: pos {pos}, {} pages",
            seq.pages.len()
        );
        let r = seq.pages[pos / self.page_tokens] as usize * self.page_tokens
            + pos % self.page_tokens;
        self.k[layer][r * h..(r + 1) * h].copy_from_slice(k);
        self.v[layer][r * h..(r + 1) * h].copy_from_slice(v);
    }

    /// One layer's K/V arenas (attention read operands).
    pub fn arenas(&self, layer: usize) -> (&[f32], &[f32]) {
        (&self.k[layer], &self.v[layer])
    }
}

/// Why a [`PagedEngine`] step did not run to completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PagedError<E> {
    /// The step's page reservation failed before any compute: no slot
    /// advanced and no page moved, so the caller can retire a victim and
    /// retry.
    Pages(PagesExhausted),
    /// The weight source failed mid-pass (a streamed tier's typed fault).
    /// A failed prefill holds nothing; the KV of a failed decode's slots
    /// is unspecified, so they must be released (and replayed).
    Weights(E),
}

impl<E> From<PagesExhausted> for PagedError<E> {
    fn from(e: PagesExhausted) -> Self {
        PagedError::Pages(e)
    }
}

/// One resident sequence of a [`PagedEngine`].
#[derive(Debug)]
struct PagedSlot {
    seq: PagedSeq,
    /// The last emitted token, pending feed on the next decode step.
    last: usize,
}

/// Multi-slot decode engine over one [`WeightSource`] and one
/// [`PagePool`]: `&PackedModel` for resident weights, a streamed store for
/// models bigger than memory. See the module docs for the slot lifecycle.
pub struct PagedEngine<W> {
    weights: W,
    pool: PagePool,
    slots: Vec<Option<PagedSlot>>,
    scratch: Scratch,
}

impl<W: WeightSource> PagedEngine<W> {
    /// An engine with `max_slots` sequence slots over a pool of
    /// `pages_total` pages of `page_tokens` tokens each.
    pub fn new(weights: W, max_slots: usize, pages_total: usize, page_tokens: usize) -> Self {
        assert!(max_slots > 0);
        let c = weights.config();
        PagedEngine {
            pool: PagePool::new(c.layers, c.hidden, pages_total, page_tokens),
            slots: (0..max_slots).map(|_| None).collect(),
            scratch: Scratch::new(c, max_slots),
            weights,
        }
    }

    /// The weight source (a streamed store's counters and health).
    pub fn weights(&self) -> &W {
        &self.weights
    }

    pub fn max_slots(&self) -> usize {
        self.slots.len()
    }

    pub fn pool_stats(&self) -> PageStats {
        self.pool.stats()
    }

    /// Pages a `tokens`-long context will pin.
    pub fn pages_for(&self, tokens: usize) -> usize {
        self.pool.pages_for(tokens)
    }

    pub fn slot_in_use(&self, slot: usize) -> bool {
        self.slots[slot].is_some()
    }

    /// Committed context length of an occupied slot.
    pub fn context_len(&self, slot: usize) -> usize {
        self.slots[slot].as_ref().expect("slot not in use").seq.len()
    }

    /// Every occupied slot's page table (aliasing-audit operand: the tables
    /// must be pairwise disjoint, which `dsi-verify`'s page-alias check
    /// asserts in the test suites).
    pub fn page_tables(&self) -> Vec<&[u32]> {
        self.slots
            .iter()
            .filter_map(|s| s.as_ref().map(|s| s.seq.pages()))
            .collect()
    }

    pub fn config(&self) -> &GptConfig {
        self.weights.config()
    }

    /// Admit a prompt into free `slot`: reserve its prompt pages
    /// (all-or-nothing), run the prompt pass, and return the first greedy
    /// token. On `Err` the slot stays free and no page is held.
    pub fn prefill(&mut self, slot: usize, prompt: &[usize]) -> Result<usize, PagedError<W::Error>> {
        assert!(self.slots[slot].is_none(), "prefill into occupied slot {slot}");
        assert!(!prompt.is_empty(), "empty prompt");
        let mut seq = PagedSeq::new();
        self.pool.reserve(&mut seq, prompt.len())?;
        let rows = prompt.iter().enumerate().map(|(pos, &t)| (t, &seq, pos));
        if let Err(e) = forward(&self.weights, &mut self.pool, &mut self.scratch, rows) {
            self.pool.release(&mut seq);
            return Err(PagedError::Weights(e));
        }
        seq.len = prompt.len();
        let tok = argmax(self.scratch.logits_row(prompt.len() - 1, self.config().vocab));
        self.slots[slot] = Some(PagedSlot { seq, last: tok });
        Ok(tok)
    }

    /// Advance the given occupied slots (strictly ascending) one token each
    /// in a single ragged M-row pass, pushing each new token to `out` in
    /// `slots` order. Page reservation for the step happens **before any
    /// compute**, atomically across the batch: on `Err(Pages)` no slot
    /// advanced and no page moved, so the scheduler can retire a victim and
    /// retry.
    pub fn decode(&mut self, slots: &[usize], out: &mut Vec<usize>) -> Result<(), PagedError<W::Error>> {
        assert!(!slots.is_empty(), "decode: empty batch");
        assert!(
            slots.windows(2).all(|w| w[0] < w[1]),
            "decode: slots must be strictly ascending"
        );
        // Atomic page reservation for the whole step.
        let mut needed = 0;
        for &si in slots {
            let slot = self.slots[si].as_ref().expect("decode of free slot");
            needed += self
                .pool
                .pages_for(slot.seq.len + 1)
                .saturating_sub(slot.seq.pages.len());
        }
        if needed > self.pool.free.len() {
            return Err(PagesExhausted { needed, free: self.pool.free.len() }.into());
        }
        for &si in slots {
            let slot = self.slots[si].as_mut().expect("decode of free slot");
            self.pool.reserve(&mut slot.seq, 1).expect("reservation pre-checked");
        }
        let PagedEngine { weights, pool, slots: resident, scratch } = self;
        let rows = slots.iter().map(|&si| {
            let slot = resident[si].as_ref().expect("occupied");
            (slot.last, &slot.seq, slot.seq.len)
        });
        forward(weights, pool, scratch, rows).map_err(PagedError::Weights)?;
        let vocab = weights.config().vocab;
        for (r, &si) in slots.iter().enumerate() {
            let slot = resident[si].as_mut().expect("occupied");
            slot.seq.len += 1;
            slot.last = argmax(scratch.logits_row(r, vocab));
            out.push(slot.last);
        }
        Ok(())
    }

    /// Retire `slot`: return its pages to the free list.
    pub fn release(&mut self, slot: usize) {
        let mut s = self.slots[slot].take().expect("release of free slot");
        self.pool.release(&mut s.seq);
    }
}

/// One forward pass over `(token, sequence, position)` rows — the M rows of
/// a prompt, or one row per stepped slot — leaving their logits in `s`.
/// Layers are checked out of `w` one at a time (prefetching the next) and
/// run through the shared [`layer_step`]; region 2 writes each row's K/V at
/// its position through the sequence's page table, then attends over
/// positions `..=pos` (a prompt row never reads the rows after it). Same
/// fused-region sequence and per-row attention core as the contiguous
/// path, so logits are bit-identical to it.
fn forward<'a, W: WeightSource>(
    w: &W,
    pool: &mut PagePool,
    s: &mut Scratch,
    rows: impl Iterator<Item = (usize, &'a PagedSeq, usize)> + Clone,
) -> Result<(), W::Error> {
    let c = w.config();
    let (h, heads, pt) = (c.hidden, c.heads, pool.page_tokens);
    let m = rows.clone().count();
    s.ensure(c, m);
    let ends = w.ends();
    embed_into(c, ends.wte, ends.wpe, rows.clone().map(|(t, _, pos)| (t, pos)), s);
    for l in 0..c.layers {
        let pl = w.layer(l)?;
        w.prefetch_ahead(l + 1);
        layer_step(c, s, &pl, m, |qkv, attn| {
            for (i, (_, seq, pos)) in rows.clone().enumerate() {
                let q = &qkv[i * 3 * h..(i + 1) * 3 * h];
                pool.write_row(seq, l, pos, &q[h..2 * h], &q[2 * h..]);
                let (k, v) = pool.arenas(l);
                let kv = PagedKvView { k, v, pages: seq.pages(), page_tokens: pt, len: pos + 1, offset: pos };
                fused::attention_row_paged_into(&q[..h], &kv, heads, &mut attn[i * h..(i + 1) * h]);
            }
        });
        // `pl` drops here: a streamed source gets the panel's budget back
        // before the next checkout needs room.
    }
    logits_into(c, s, m, ends.lnf_g, ends.lnf_b, ends.wte_packed);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fast::PackedModel;
    use crate::reference::GptModel;
    use crate::zoo;

    fn model(layers: usize, seed: u64) -> GptModel {
        GptModel::random(zoo::tiny(layers), seed)
    }

    /// A page table holding a page that is already back on the free list
    /// (the double-free shape a buggy replay-release would produce) must
    /// trip the debug assert instead of silently aliasing a survivor.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double free")]
    fn double_free_is_caught_in_debug_builds() {
        let mut pool = PagePool::new(1, 4, 4, 2);
        let mut a = PagedSeq::new();
        pool.reserve(&mut a, 3).unwrap(); // 2 pages
        let mut alias = PagedSeq { pages: a.pages().to_vec(), len: a.len() };
        pool.release(&mut a);
        pool.release(&mut alias);
    }

    #[test]
    fn pool_identity_and_lifo_reuse() {
        let mut pool = PagePool::new(2, 8, 6, 4);
        let mut a = PagedSeq::new();
        let mut b = PagedSeq::new();
        pool.reserve(&mut a, 9).unwrap(); // 3 pages
        pool.reserve(&mut b, 4).unwrap(); // 1 page
        assert_eq!(pool.stats().pages_in_use, 4);
        assert_eq!(pool.stats().high_water, 4);
        let a_pages = a.pages().to_vec();
        pool.release(&mut a);
        assert_eq!(pool.stats().pages_in_use, 1);
        assert_eq!(pool.stats().high_water, 4, "high water survives release");
        // LIFO: the next reservation reuses a's first page, released last.
        let mut c = PagedSeq::new();
        pool.reserve(&mut c, 1).unwrap();
        assert_eq!(c.pages()[0], a_pages[0]);
    }

    #[test]
    fn pool_exhaustion_is_all_or_nothing() {
        let mut pool = PagePool::new(1, 8, 3, 4);
        let mut a = PagedSeq::new();
        pool.reserve(&mut a, 8).unwrap(); // 2 of 3 pages
        let mut b = PagedSeq::new();
        let err = pool.reserve(&mut b, 12).unwrap_err(); // needs 3, 1 free
        assert_eq!(err, PagesExhausted { needed: 3, free: 1 });
        assert!(b.pages().is_empty(), "failed reservation must not hold pages");
        assert_eq!(pool.stats().pages_in_use, 2);
        // Growing a into the free page still works (len is 0 until a
        // forward commits rows, so the target is the full 12 tokens).
        pool.reserve(&mut a, 12).unwrap();
        assert_eq!(a.pages().len(), 3);
        assert_eq!(pool.stats().pages_free, 0);
    }

    #[test]
    fn paged_engine_matches_fast_session_tokens() {
        // The tentpole identity: paged decode through scattered page tables
        // is bit-identical (hence token-identical) to solo contiguous runs.
        let m = model(2, 17);
        let pm = PackedModel::pack(&m);
        // page_tokens=3 deliberately misaligns pages with the AVX 8-block.
        let mut eng = PagedEngine::new(&pm, 4, 64, 3);
        let prompts = [vec![1usize, 2, 3], vec![9, 8, 7, 6], vec![4], vec![5, 5]];
        let mut outs: Vec<Vec<usize>> = prompts
            .iter()
            .enumerate()
            .map(|(i, p)| vec![eng.prefill(i, p).unwrap()])
            .collect();
        let all = [0usize, 1, 2, 3];
        for _ in 0..5 {
            let mut step = Vec::new();
            eng.decode(&all, &mut step).unwrap();
            for (i, &t) in step.iter().enumerate() {
                outs[i].push(t);
            }
        }
        for (i, p) in prompts.iter().enumerate() {
            let want = pm.session(p.len()).generate(p, 6);
            assert_eq!(outs[i], want, "slot {i}");
        }
    }

    #[test]
    fn ragged_join_and_retire_keep_identity() {
        // Sequences join and leave mid-stream; released pages are recycled
        // by later admissions without perturbing residents.
        let m = model(2, 23);
        let pm = PackedModel::pack(&m);
        let mut eng = PagedEngine::new(&pm, 3, 32, 4);
        let p0 = vec![1usize, 2, 3];
        let p1 = vec![7usize, 6];
        let p2 = vec![11usize, 12, 13, 14];
        let mut o0 = vec![eng.prefill(0, &p0).unwrap()];
        let mut step = Vec::new();
        eng.decode(&[0], &mut step).unwrap();
        o0.push(step[0]);
        // Slot 1 joins; both advance together.
        let mut o1 = vec![eng.prefill(1, &p1).unwrap()];
        step.clear();
        eng.decode(&[0, 1], &mut step).unwrap();
        o0.push(step[0]);
        o1.push(step[1]);
        // Slot 0 retires; its pages go back; slot 2 joins reusing them.
        eng.release(0);
        let mut o2 = vec![eng.prefill(2, &p2).unwrap()];
        for _ in 0..3 {
            step.clear();
            eng.decode(&[1, 2], &mut step).unwrap();
            o1.push(step[0]);
            o2.push(step[1]);
        }
        assert_eq!(o0, pm.session(3).generate(&p0, 3));
        assert_eq!(o1, pm.session(2).generate(&p1, 5));
        assert_eq!(o2, pm.session(4).generate(&p2, 4));
        // All tables disjoint throughout (spot-check final state).
        let tables = eng.page_tables();
        let mut seen = std::collections::HashSet::new();
        for t in &tables {
            for &p in *t {
                assert!(seen.insert(p), "page {p} aliased across slots");
            }
        }
    }

    #[test]
    fn decode_out_of_pages_is_typed_and_non_destructive() {
        let m = model(1, 31);
        let pm = PackedModel::pack(&m);
        // 2 pages of 2 tokens: a 3-token prompt takes both.
        let mut eng = PagedEngine::new(&pm, 2, 2, 2);
        eng.prefill(0, &[1, 2, 3]).unwrap();
        let before = eng.context_len(0);
        let mut out = Vec::new();
        // Position 3 fits page 1 (capacity 4): first decode succeeds.
        eng.decode(&[0], &mut out).unwrap();
        // Position 4 needs a third page: typed failure, nothing advanced.
        let PagedError::Pages(err) = eng.decode(&[0], &mut out).unwrap_err();
        assert_eq!(err.needed, 1);
        assert_eq!(err.free, 0);
        assert_eq!(eng.context_len(0), before + 1);
        assert_eq!(out.len(), 1);
        // Releasing the resident frees everything.
        eng.release(0);
        assert_eq!(eng.pool_stats().pages_in_use, 0);
        assert_eq!(eng.pool_stats().pages_free, 2);
    }

    #[test]
    fn prefill_rejects_oversized_prompt_without_leak() {
        let m = model(1, 37);
        let pm = PackedModel::pack(&m);
        let mut eng = PagedEngine::new(&pm, 1, 2, 2);
        let err = eng.prefill(0, &[1, 2, 3, 4, 5]).unwrap_err();
        assert_eq!(err, PagedError::Pages(PagesExhausted { needed: 3, free: 2 }));
        assert!(!eng.slot_in_use(0));
        assert_eq!(eng.pool_stats().pages_in_use, 0);
    }
}
