//! Continuous (iteration-level) batching — the natural extension of the
//! paper's token-queue schedule (Fig. 2b) from micro-batches to *requests*.
//!
//! Static batching (the [`crate::serving`] baseline) admits a batch, runs it
//! to completion, and only then admits the next one: late arrivals wait out
//! the whole generation of strangers. Continuous batching re-forms the
//! running batch at every token step — new requests join as soon as their
//! prompt is processed, finished requests leave immediately — which is the
//! scheduling discipline production engines adopted after the paper. It is
//! executed by `dsi-serve`'s scheduler; this module holds its admission
//! policy.

/// The iteration-level slot policy the executed continuous scheduler in
/// `dsi-serve` (`dsi_serve::scheduler`) admits by: a sequence may join
/// whenever a slot is free, and retires the moment it finishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotPolicy {
    /// Maximum sequences resident in the running batch.
    pub max_slots: usize,
}

impl SlotPolicy {
    pub fn new(max_slots: usize) -> Self {
        assert!(max_slots > 0, "SlotPolicy: max_slots must be positive");
        SlotPolicy { max_slots }
    }

    /// May another sequence join a batch currently holding `resident`?
    pub fn can_admit(&self, resident: usize) -> bool {
        resident < self.max_slots
    }

    /// Slots free for admission with `resident` sequences in flight.
    pub fn free_slots(&self, resident: usize) -> usize {
        self.max_slots.saturating_sub(resident)
    }
}
