//! The executed tiered weight store: memory-mapped panel file, bounded
//! resident cache, prefetch worker — ZeRO-Inference's "pin the weights in a
//! big slow tier, stream layers into compute memory" (Sec. VI), made real
//! and fault-hardened.
//!
//! [`OffloadStore`] opens a v2 `model::io` weight file (version header +
//! per-panel CRC32, see `dsi_model::io`), keeps the small always-needed
//! group resident (embeddings + final layer-norm + the packed logits
//! operand), and serves transformer layers as [`PackedLayer`] panels on
//! demand under a **resident-byte budget**: at most
//! `resident_budget_bytes` of packed layer panels live in memory at once,
//! so a model whose weight file dwarfs the budget still decodes. The store
//! is a [`WeightSource`], so `dsi_model::paged::PagedEngine` decodes over it
//! exactly as over a resident `PackedModel` — same engine, same layer body,
//! token-identical by construction.
//!
//! ## Concurrency shape
//!
//! One background worker owns the prefetch queue. The decode thread calls
//! [`OffloadStore::acquire`] for layer `l` and immediately
//! [`OffloadStore::prefetch_ahead`] for `l+1`, so the worker reads,
//! checksums, and packs upcoming panels while the GEMMs of the current
//! layer run — the overlap the analytical model in [`crate::engine`] costs
//! out. Panels are handed out as `Arc`s; a panel still held by the decode
//! loop is *pinned* (strong count > 1) and never evicted. Eviction picks
//! the unpinned panel with the **furthest next use under the cyclic layer
//! schedule** (decode touches layers `0..L` round-robin, which is LRU's
//! pathological case; distance-to-next-use is Belady-optimal here).
//!
//! ## Fault surface
//!
//! Every tier read is a seam for `dsi_sim::fault::IoFaultInjector`:
//! * **slow reads** stall the worker; the decode thread's `acquire` carries
//!   a fetch deadline measured on the injected [`Clock`] and fails typed
//!   (`FetchTimeout` — `Timeout` breaker class) instead of wedging;
//! * **short reads** and **corrupt panels** are detected (byte count /
//!   CRC32 against the panel directory) and re-read with backoff up to
//!   `read_retries` times before the typed `Corruption`-class error;
//! * **failed open / handle loss** kills the prefetch worker; the store
//!   degrades to synchronous demand fetch on the decode thread — decode
//!   slows, it never wedges and never returns wrong bytes.
//!
//! The error `Display` strings are written to land in the right
//! `dsi_core::batch::FaultClass` bins, which is how a dying weight tier
//! trips the serving runtime's per-class circuit breakers.

use dsi_kernels::blocked::{PackedB, PanelWeights};
use dsi_kernels::tensor::Tensor;
use dsi_model::config::GptConfig;
use dsi_model::fast::{EndWeights, PackedLayer, WeightSource};
use dsi_model::io::{self, IoError, PanelDirectory};
use dsi_sim::fault::{apply_stall, IoFaultInjector, IoFaultKind};
use dsi_sim::Clock;
use serde::Serialize;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

/// Typed failures of the tiered weight store. The `Display` strings are
/// deliberate: `dsi_core::batch::FaultClass::classify` bins faults by
/// keyword, so a fetch timeout says "timed out" (`Timeout` breaker), a
/// checksum failure says "corrupt" (`Corruption`), and a budget failure
/// says "memory" (`Memory`).
#[derive(Debug)]
pub enum OffloadError {
    /// The weight file could not be opened / mapped.
    FailedOpen { path: String, detail: String },
    /// The file is structurally bad (bad magic/version/shape/checksum at
    /// open time).
    Io(IoError),
    /// A layer panel failed its CRC32 against the directory on every
    /// attempt.
    ChecksumFailed { layer: usize, attempts: usize },
    /// A layer panel read came back short on every attempt.
    ShortReadFailed { layer: usize, attempts: usize },
    /// The reader lost the weight-file handle mid-read (injected
    /// `FailOpen` at a read site): whoever was reading dies cleanly.
    HandleLost { layer: usize },
    /// The fetch deadline elapsed (on the configured clock) before the
    /// panel became resident.
    FetchTimeout { layer: usize, waited_ms: u64 },
    /// The resident budget cannot hold even one layer panel.
    BudgetExhausted { need: usize, budget: usize },
}

impl std::fmt::Display for OffloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OffloadError::FailedOpen { path, detail } => {
                write!(f, "offload open failed: {path}: {detail}")
            }
            OffloadError::Io(e) => write!(f, "offload weight file: {e}"),
            OffloadError::ChecksumFailed { layer, attempts } => {
                write!(f, "layer {layer} panel corrupt after {attempts} reads (checksum mismatch)")
            }
            OffloadError::ShortReadFailed { layer, attempts } => {
                write!(f, "layer {layer} panel corrupt after {attempts} reads (short reads)")
            }
            OffloadError::HandleLost { layer } => {
                write!(f, "offload handle lost reading layer {layer} panel")
            }
            OffloadError::FetchTimeout { layer, waited_ms } => {
                write!(f, "layer {layer} panel fetch timed out after {waited_ms} ms")
            }
            OffloadError::BudgetExhausted { need, budget } => {
                write!(f, "offload memory budget {budget} B cannot hold a {need} B layer panel")
            }
        }
    }
}

impl std::error::Error for OffloadError {}

impl From<IoError> for OffloadError {
    fn from(e: IoError) -> Self {
        OffloadError::Io(e)
    }
}

/// Store configuration. `Default` is an unbounded resident budget with a
/// depth-2 prefetch and generous wall-clock deadlines.
#[derive(Debug, Clone)]
pub struct OffloadConfig {
    /// Byte budget for resident **layer panels** (packed execution layout).
    /// The always-resident group (embeddings, final layer-norm, packed
    /// logits operand) is excluded: it is the part ZeRO-Inference never
    /// streams.
    pub resident_budget_bytes: usize,
    /// How many layer panels to fetch ahead of the decode loop. Clamped at
    /// open time to what the budget can hold beyond the in-use panel.
    pub prefetch_depth: usize,
    /// Deadline for one `acquire`, measured on `clock`.
    pub fetch_timeout: Duration,
    /// Bounded re-reads after a short or checksum-failing read.
    pub read_retries: usize,
    /// Wall-clock backoff between re-reads (multiplied by the attempt
    /// number).
    pub retry_backoff: Duration,
    /// Deadline time source (manual in chaos tests, wall in production).
    pub clock: Clock,
    /// Seeded I/O fault injection; `None` in production.
    pub faults: Option<Arc<IoFaultInjector>>,
}

impl Default for OffloadConfig {
    fn default() -> Self {
        OffloadConfig {
            resident_budget_bytes: usize::MAX,
            prefetch_depth: 2,
            fetch_timeout: Duration::from_secs(10),
            read_retries: 2,
            retry_backoff: Duration::from_millis(1),
            clock: Clock::wall(),
            faults: None,
        }
    }
}

/// Counters for benches and the chaos suite's books (all monotonic).
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct OffloadStats {
    /// `acquire` calls answered straight from the resident cache.
    pub hits: u64,
    /// `acquire` calls that had to wait for (or perform) a fetch.
    pub demand_fetches: u64,
    /// Panels the background worker fetched because `prefetch_ahead` queued
    /// them (fetches queued by a waiting `acquire` count as demand).
    pub prefetch_fetches: u64,
    /// Panels fetched synchronously on the decode thread because the
    /// prefetcher was dead.
    pub sync_fallbacks: u64,
    /// Panels evicted to fit a newcomer under the budget.
    pub evictions: u64,
    /// Prefetched panels dropped because nothing evictable made room.
    pub prefetch_dropped: u64,
    /// Fetches that ended in a typed error.
    pub fetch_errors: u64,
    /// Re-reads forced by short reads.
    pub short_read_retries: u64,
    /// Re-reads forced by checksum mismatches.
    pub checksum_retries: u64,
    /// Reads that hit an injected stall.
    pub slow_reads: u64,
    /// Wall milliseconds spent in injected stalls.
    pub stall_ms: u64,
    /// Payload bytes read from the backing tier (including re-reads).
    pub bytes_read: u64,
    /// High-water mark of resident layer-panel bytes.
    pub peak_resident_bytes: usize,
}

// ---------------------------------------------------------------------------
// Backing: the mapped (or heap-loaded) weight file.
// ---------------------------------------------------------------------------

/// The weight file's bytes. On x86-64 Linux this is a read-only private
/// `mmap` — the OS pages panels in and out on demand, which is what lets
/// the *file* exceed physical memory while the store's own budget bounds
/// the packed panels. Elsewhere it degrades to a heap load (correct, but
/// the bigger-than-RAM property is lost).
enum Backing {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    Mapped { ptr: *const u8, len: usize },
    Heap(Vec<u8>),
}

// SAFETY: the mapped region is PROT_READ + MAP_PRIVATE over a file this
// process opened; it is never written through `ptr` and stays valid until
// `Drop` unmaps it. Shared `&[u8]` access from several threads is sound.
unsafe impl Send for Backing {}
// SAFETY: as above — the region is immutable for the mapping's lifetime.
unsafe impl Sync for Backing {}

impl Backing {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    fn map(path: &Path) -> std::io::Result<Backing> {
        use std::os::fd::AsRawFd;
        let file = std::fs::File::open(path)?;
        let len = file.metadata()?.len() as usize;
        if len == 0 {
            return Ok(Backing::Heap(Vec::new()));
        }
        let fd = file.as_raw_fd();
        let ret: isize;
        // Raw syscall 9 (mmap) on x86-64 Linux: addr=NULL, PROT_READ (1),
        // MAP_PRIVATE (2), offset 0 — the repo links no libc crate (same
        // idiom as `dsi_parallel::tp_exec::pin_current_thread`).
        //
        // SAFETY: all six arguments follow the mmap ABI; the kernel either
        // returns a fresh page-aligned mapping or a negative errno, and the
        // register clobbers (rcx/r11) plus `nostack` match the syscall
        // calling convention. `r10`/`r8`/`r9` carry args 4–6.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") 9isize => ret,
                in("rdi") 0usize,
                in("rsi") len,
                in("rdx") 1usize, // PROT_READ
                in("r10") 2usize, // MAP_PRIVATE
                in("r8") fd as usize,
                in("r9") 0usize,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        if (-4095..0).contains(&ret) {
            return Err(std::io::Error::from_raw_os_error(-ret as i32));
        }
        // The mapping outlives `file`: munmap, not close, tears it down.
        Ok(Backing::Mapped { ptr: ret as *const u8, len })
    }

    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    fn map(path: &Path) -> std::io::Result<Backing> {
        Ok(Backing::Heap(std::fs::read(path)?))
    }

    fn bytes(&self) -> &[u8] {
        match self {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            // SAFETY: `ptr` is a live PROT_READ mapping of exactly `len`
            // bytes (established in `map`, released only in `Drop`).
            Backing::Mapped { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            Backing::Heap(v) => v,
        }
    }
}

impl Drop for Backing {
    fn drop(&mut self) {
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        if let Backing::Mapped { ptr, len } = *self {
            let ret: isize;
            // SAFETY: syscall 11 (munmap) over the exact region `map`
            // created; after this the pointer is never read again (we are
            // in `Drop`). Register usage per the syscall ABI.
            unsafe {
                std::arch::asm!(
                    "syscall",
                    inlateout("rax") 11isize => ret,
                    in("rdi") ptr as usize,
                    in("rsi") len,
                    lateout("rcx") _,
                    lateout("r11") _,
                    options(nostack),
                );
            }
            debug_assert_eq!(ret, 0, "munmap failed");
        }
    }
}

// ---------------------------------------------------------------------------
// The store.
// ---------------------------------------------------------------------------

/// The always-resident group: what every token touches at both ends of the
/// layer stack, parsed once at open.
pub struct ResidentGroup {
    pub wte: Tensor,
    pub wpe: Tensor,
    pub lnf_g: Vec<f32>,
    pub lnf_b: Vec<f32>,
    /// `wteᵀ` pre-packed as the logits GEMM operand.
    pub wte_packed: PackedB,
}

struct CacheEntry {
    panel: Arc<PackedLayer<PackedB>>,
    bytes: usize,
}

#[derive(Default)]
struct CacheState {
    resident: HashMap<usize, CacheEntry>,
    /// Layers a fetch is in flight for (worker-owned once queued).
    inflight: Vec<usize>,
    /// Typed failures parked for the next `acquire(layer)` to consume.
    failed: HashMap<usize, OffloadError>,
    resident_bytes: usize,
    /// The layer most recently acquired — anchors the cyclic
    /// distance-to-next-use eviction order.
    last_acquired: usize,
    worker_dead: bool,
    stats: OffloadStats,
}

struct Inner {
    backing: Backing,
    dir: PanelDirectory,
    cfg: OffloadConfig,
    /// Prefetch depth after clamping to the budget.
    depth: usize,
    state: Mutex<CacheState>,
    cv: Condvar,
    /// Global read-call counter — the coordinate `IoFaultSite::Read`
    /// addresses. Call 0 is the open-time probe fetch of layer 0.
    read_calls: AtomicU64,
    /// `(layer, queued by prefetch_ahead)` fetch requests for the worker.
    queue: Sender<(usize, bool)>,
}

/// Sentinel the drop/kill paths enqueue to stop the worker.
const SHUTDOWN: (usize, bool) = (usize::MAX, false);

/// A fault-hardened tiered weight store over a v2 panel file. See the
/// module docs for the design; `dsi_model::paged::PagedEngine` is the
/// decode loop on top (through the [`WeightSource`] impl below).
pub struct OffloadStore {
    inner: Arc<Inner>,
    resident: ResidentGroup,
    /// Packed bytes of one layer panel (measured on layer 0 at open; all
    /// layers share one geometry).
    panel_bytes: usize,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl OffloadStore {
    /// Open (map) a weight file and start the prefetch worker. Fails typed
    /// on an unopenable path, a structurally bad file, a corrupt resident
    /// panel, or a budget too small for a single layer panel.
    pub fn open(path: impl AsRef<Path>, cfg: OffloadConfig) -> Result<OffloadStore, OffloadError> {
        let path = path.as_ref();
        // The open itself is fault site `Open { call: 0 }`: a scripted
        // failure here models the tier refusing the handle.
        if let Some(f) = cfg.faults.as_ref() {
            match f.at_open(0) {
                Some(IoFaultKind::SlowRead { millis }) => apply_stall(millis),
                Some(_) => {
                    return Err(OffloadError::FailedOpen {
                        path: path.display().to_string(),
                        detail: "injected open failure".into(),
                    })
                }
                None => {}
            }
        }
        let backing = Backing::map(path).map_err(|e| OffloadError::FailedOpen {
            path: path.display().to_string(),
            detail: e.to_string(),
        })?;
        let dir = io::read_directory(backing.bytes())?;
        // The resident group is loaded once and verified here, not per
        // decode step.
        let p0 = dir.panels[0];
        let payload = &backing.bytes()[p0.offset..p0.offset + p0.len];
        if io::crc32(payload) != p0.crc {
            return Err(OffloadError::Io(IoError::ChecksumMismatch { panel: 0 }));
        }
        let (wte, wpe, lnf_g, lnf_b) = io::parse_resident_panel(payload, &dir.config)?;
        let resident = ResidentGroup {
            wte_packed: PackedB::from_pre_transposed(&wte),
            lnf_g: lnf_g.data().to_vec(),
            lnf_b: lnf_b.data().to_vec(),
            wte,
            wpe,
        };

        let (tx, rx) = mpsc::channel::<(usize, bool)>();
        let inner = Arc::new(Inner {
            backing,
            dir,
            cfg,
            depth: 0, // set below once panel_bytes is known
            state: Mutex::new(CacheState::default()),
            cv: Condvar::new(),
            read_calls: AtomicU64::new(0),
            queue: tx,
        });

        // Probe fetch of layer 0: measures the packed panel size (uniform
        // across layers), validates the budget, and warms the cache.
        let fetched = inner.fetch_panel(0)?;
        let panel_bytes = fetched.bytes;
        let budget = inner.cfg.resident_budget_bytes;
        if budget < panel_bytes {
            return Err(OffloadError::BudgetExhausted { need: panel_bytes, budget });
        }
        // Depth is bounded by what fits beyond the panel the decode loop
        // holds pinned.
        let depth = inner.cfg.prefetch_depth.min((budget / panel_bytes).saturating_sub(1));
        // SAFETY-free interior update: `Arc::get_mut` is sound here — the
        // worker has not been spawned, so this Arc is unique.
        let inner = {
            let mut inner = inner;
            Arc::get_mut(&mut inner).expect("unique before worker spawn").depth = depth;
            inner
        };
        {
            let mut st = inner.state.lock().unwrap();
            let stats = fetched.stats;
            merge_stats(&mut st.stats, stats);
            st.stats.demand_fetches += 1;
            insert_with_evict(&mut st, &inner.dir, 0, fetched.panel, fetched.bytes, budget);
        }

        let worker_inner = Arc::clone(&inner);
        let worker = std::thread::Builder::new()
            .name("dsi-offload-prefetch".into())
            .spawn(move || worker_loop(worker_inner, rx))
            .expect("spawn prefetch worker");

        Ok(OffloadStore { inner, resident, panel_bytes, worker: Some(worker) })
    }

    pub fn config(&self) -> &GptConfig {
        &self.inner.dir.config
    }

    pub fn layers(&self) -> usize {
        self.inner.dir.layers()
    }

    /// The always-resident embedding / final-norm group.
    pub fn resident(&self) -> &ResidentGroup {
        &self.resident
    }

    /// Packed bytes of one layer panel.
    pub fn panel_bytes(&self) -> usize {
        self.panel_bytes
    }

    /// Bytes of the backing weight file.
    pub fn file_bytes(&self) -> usize {
        self.inner.backing.bytes().len()
    }

    /// The effective prefetch depth after budget clamping.
    pub fn effective_depth(&self) -> usize {
        self.inner.depth
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> OffloadStats {
        self.inner.state.lock().unwrap().stats
    }

    /// Whether the background prefetcher is still serving the queue.
    pub fn prefetcher_alive(&self) -> bool {
        !self.inner.state.lock().unwrap().worker_dead
    }

    /// Test hook: kill the prefetch worker as if its handle died. Every
    /// subsequent `acquire` falls back to synchronous fetch on the calling
    /// thread.
    pub fn kill_prefetcher(&self) {
        {
            let mut st = self.inner.state.lock().unwrap();
            st.worker_dead = true;
            self.inner.cv.notify_all();
        }
        let _ = self.inner.queue.send(SHUTDOWN);
    }

    /// Enqueue the next `effective_depth` layers (cyclically from `next`)
    /// for background fetch. Cheap and non-blocking; already-resident,
    /// in-flight, and failed layers are skipped.
    pub fn prefetch_ahead(&self, next: usize) {
        let layers = self.layers();
        let depth = self.inner.depth.min(layers.saturating_sub(1));
        if depth == 0 {
            return;
        }
        let mut st = self.inner.state.lock().unwrap();
        if st.worker_dead {
            return;
        }
        for i in 0..depth {
            let l = (next + i) % layers;
            if st.resident.contains_key(&l) || st.inflight.contains(&l) || st.failed.contains_key(&l)
            {
                continue;
            }
            st.inflight.push(l);
            if self.inner.queue.send((l, true)).is_err() {
                st.inflight.retain(|&x| x != l);
                st.worker_dead = true;
                return;
            }
        }
    }

    /// Check out layer `l`'s packed panel, fetching it if needed. Blocks
    /// (bounded by `fetch_timeout` on the configured clock) while a fetch
    /// is in flight; performs the fetch inline when the prefetcher is
    /// dead. The returned `Arc` pins the panel against eviction — drop it
    /// before acquiring the next layer (release-before-refetch), or the
    /// budget loses a panel's worth of headroom.
    pub fn acquire(&self, l: usize) -> Result<Arc<PackedLayer<PackedB>>, OffloadError> {
        assert!(l < self.layers(), "layer {l} out of range");
        let inner = &*self.inner;
        let deadline =
            inner.cfg.clock.now_ns().saturating_add(inner.cfg.fetch_timeout.as_nanos() as u64);
        let mut waited_demand = false;
        let mut st = inner.state.lock().unwrap();
        loop {
            if let Some(panel) = st.resident.get(&l).map(|e| Arc::clone(&e.panel)) {
                st.last_acquired = l;
                if waited_demand {
                    st.stats.demand_fetches += 1;
                } else {
                    st.stats.hits += 1;
                }
                return Ok(panel);
            }
            if let Some(err) = st.failed.remove(&l) {
                st.stats.fetch_errors += 1;
                return Err(err);
            }
            waited_demand = true;
            if st.worker_dead {
                // Degraded mode: fetch on the calling thread, without the
                // lock held.
                drop(st);
                let fetched = inner.fetch_panel(l)?;
                st = inner.state.lock().unwrap();
                merge_stats(&mut st.stats, fetched.stats);
                st.stats.sync_fallbacks += 1;
                insert_with_evict(
                    &mut st,
                    &inner.dir,
                    l,
                    fetched.panel,
                    fetched.bytes,
                    inner.cfg.resident_budget_bytes,
                );
                continue;
            }
            if !st.inflight.contains(&l) {
                st.inflight.push(l);
                if inner.queue.send((l, false)).is_err() {
                    st.inflight.retain(|&x| x != l);
                    st.worker_dead = true;
                    continue;
                }
            }
            // Wait in short wall slices; the deadline is measured on the
            // injected clock so chaos tests control it deterministically.
            let (guard, _) = inner.cv.wait_timeout(st, Duration::from_millis(2)).unwrap();
            st = guard;
            if st.resident.contains_key(&l) || st.failed.contains_key(&l) || st.worker_dead {
                continue;
            }
            let now = inner.cfg.clock.now_ns();
            if now >= deadline {
                st.stats.fetch_errors += 1;
                return Err(OffloadError::FetchTimeout {
                    layer: l,
                    waited_ms: inner.cfg.fetch_timeout.as_millis() as u64,
                });
            }
        }
    }
}

/// The streamed weight source: layers are `Arc`-pinned panels checked out
/// through [`OffloadStore::acquire`] (a resident hit or a bounded-wait
/// fetch), and each checkout queues the next `effective_depth` layers for
/// the prefetch worker — the acquire → prefetch-ahead → step → drop order
/// `dsi_verify::runtime::prefetch_program` model-checks.
impl WeightSource for OffloadStore {
    type Panel = PackedB;
    type Layer<'a> = Arc<PackedLayer<PackedB>>;
    type Error = OffloadError;

    fn config(&self) -> &GptConfig {
        OffloadStore::config(self)
    }

    fn ends(&self) -> EndWeights<'_, PackedB> {
        let r = &self.resident;
        EndWeights { wte: &r.wte, wpe: &r.wpe, lnf_g: &r.lnf_g, lnf_b: &r.lnf_b, wte_packed: &r.wte_packed }
    }

    fn layer(&self, l: usize) -> Result<Arc<PackedLayer<PackedB>>, OffloadError> {
        self.acquire(l)
    }

    fn prefetch_ahead(&self, next: usize) {
        OffloadStore::prefetch_ahead(self, next)
    }
}

impl Drop for OffloadStore {
    fn drop(&mut self) {
        let _ = self.inner.queue.send(SHUTDOWN);
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
    }
}

struct Fetched {
    panel: Arc<PackedLayer<PackedB>>,
    bytes: usize,
    stats: OffloadStats,
}

impl Inner {
    /// Read, verify, parse, and pack one layer panel, re-reading (bounded,
    /// with backoff) on short or checksum-failing reads. Every read
    /// consumes one global `read_calls` coordinate for fault addressing.
    fn fetch_panel(&self, layer: usize) -> Result<Fetched, OffloadError> {
        let entry = *self.dir.layer_panel(layer);
        let src = &self.backing.bytes()[entry.offset..entry.offset + entry.len];
        let mut stats = OffloadStats::default();
        let mut short = 0usize;
        let mut crc_bad = 0usize;
        let attempts = self.cfg.read_retries + 1;
        for attempt in 0..attempts {
            if attempt > 0 {
                let backoff = self.cfg.retry_backoff.as_millis() as u64 * attempt as u64;
                apply_stall(backoff);
            }
            let call = self.read_calls.fetch_add(1, Ordering::SeqCst);
            let fault = self.cfg.faults.as_ref().and_then(|f| f.at_read(call));
            let mut buf: Vec<u8>;
            match fault {
                Some(IoFaultKind::SlowRead { millis }) => {
                    apply_stall(millis);
                    stats.slow_reads += 1;
                    stats.stall_ms += millis;
                    buf = src.to_vec();
                }
                Some(IoFaultKind::ShortRead) => {
                    buf = src[..entry.len / 2].to_vec();
                }
                Some(IoFaultKind::CorruptPanel) => {
                    buf = src.to_vec();
                    let mid = buf.len() / 2;
                    buf[mid] ^= 0x40;
                }
                Some(IoFaultKind::FailOpen) => {
                    return Err(OffloadError::HandleLost { layer });
                }
                None => buf = src.to_vec(),
            }
            stats.bytes_read += buf.len() as u64;
            if buf.len() < entry.len {
                short += 1;
                stats.short_read_retries += 1;
                continue;
            }
            if io::crc32(&buf) != entry.crc {
                crc_bad += 1;
                stats.checksum_retries += 1;
                continue;
            }
            let lw = io::parse_layer_panel(&buf, &self.dir.config)?;
            let panel = PackedLayer::pack(&lw);
            let bytes = packed_layer_bytes(&panel);
            return Ok(Fetched { panel: Arc::new(panel), bytes, stats });
        }
        Err(if crc_bad >= short {
            OffloadError::ChecksumFailed { layer, attempts }
        } else {
            OffloadError::ShortReadFailed { layer, attempts }
        })
    }
}

/// Packed in-memory footprint of one layer panel.
fn packed_layer_bytes(pl: &PackedLayer<PackedB>) -> usize {
    pl.w_qkv.storage_bytes()
        + pl.w_o.storage_bytes()
        + pl.w_ff1.storage_bytes()
        + pl.w_ff2.storage_bytes()
        + 4 * (pl.ln1_g.len()
            + pl.ln1_b.len()
            + pl.b_qkv.len()
            + pl.b_o.len()
            + pl.ln2_g.len()
            + pl.ln2_b.len()
            + pl.b_ff1.len()
            + pl.b_ff2.len())
}

fn merge_stats(into: &mut OffloadStats, from: OffloadStats) {
    into.short_read_retries += from.short_read_retries;
    into.checksum_retries += from.checksum_retries;
    into.slow_reads += from.slow_reads;
    into.stall_ms += from.stall_ms;
    into.bytes_read += from.bytes_read;
}

/// Insert a fetched panel, evicting unpinned panels (furthest next use
/// under the cyclic layer schedule first) until it fits. Returns `false`
/// (and drops the panel) if nothing evictable makes room — possible only
/// for a prefetched panel racing a pinned one.
fn insert_with_evict(
    st: &mut CacheState,
    dir: &PanelDirectory,
    layer: usize,
    panel: Arc<PackedLayer<PackedB>>,
    bytes: usize,
    budget: usize,
) -> bool {
    let layers = dir.layers();
    while st.resident_bytes + bytes > budget {
        // Next layer the decode loop will ask for, under the cyclic
        // schedule (forward passes touch 0..L in order, repeatedly).
        let next = (st.last_acquired + 1) % layers;
        let victim = st
            .resident
            .iter()
            .filter(|(_, e)| Arc::strong_count(&e.panel) == 1)
            .max_by_key(|(&l, _)| (l + layers - next) % layers)
            .map(|(&l, _)| l);
        match victim {
            Some(v) => {
                let e = st.resident.remove(&v).expect("victim resident");
                st.resident_bytes -= e.bytes;
                st.stats.evictions += 1;
            }
            None => {
                st.stats.prefetch_dropped += 1;
                return false;
            }
        }
    }
    st.resident_bytes += bytes;
    st.stats.peak_resident_bytes = st.stats.peak_resident_bytes.max(st.resident_bytes);
    st.resident.insert(layer, CacheEntry { panel, bytes });
    true
}

fn worker_loop(inner: Arc<Inner>, rx: Receiver<(usize, bool)>) {
    while let Ok((layer, prefetch)) = rx.recv() {
        if (layer, prefetch) == SHUTDOWN {
            break;
        }
        {
            let st = inner.state.lock().unwrap();
            if st.worker_dead {
                break;
            }
            if st.resident.contains_key(&layer) {
                drop(st);
                let mut st = inner.state.lock().unwrap();
                st.inflight.retain(|&x| x != layer);
                inner.cv.notify_all();
                continue;
            }
        }
        match inner.fetch_panel(layer) {
            Ok(fetched) => {
                let mut st = inner.state.lock().unwrap();
                st.inflight.retain(|&x| x != layer);
                merge_stats(&mut st.stats, fetched.stats);
                if insert_with_evict(
                    &mut st,
                    &inner.dir,
                    layer,
                    fetched.panel,
                    fetched.bytes,
                    inner.cfg.resident_budget_bytes,
                ) && prefetch
                {
                    st.stats.prefetch_fetches += 1;
                }
                inner.cv.notify_all();
            }
            Err(e) => {
                let fatal = matches!(e, OffloadError::HandleLost { .. });
                let mut st = inner.state.lock().unwrap();
                st.inflight.retain(|&x| x != layer);
                if fatal {
                    // The handle died under the worker: die cleanly. The
                    // decode thread degrades to synchronous fetch — no
                    // parked error, the layer is still servable.
                    st.worker_dead = true;
                    st.inflight.clear();
                    inner.cv.notify_all();
                    break;
                }
                st.stats.fetch_errors += 1;
                st.failed.insert(layer, e);
                inner.cv.notify_all();
            }
        }
    }
    let mut st = inner.state.lock().unwrap();
    st.worker_dead = true;
    st.inflight.clear();
    inner.cv.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsi_model::reference::GptModel;
    use dsi_model::zoo;
    use dsi_sim::fault::{IoFaultPlan, IoFaultSite, IoFaultSpec};

    fn save_model(layers: usize, seed: u64, tag: &str) -> (GptModel, std::path::PathBuf) {
        let m = GptModel::random(zoo::tiny(layers), seed);
        let path = std::env::temp_dir().join(format!("dsi_offload_{tag}_{seed}_{layers}.bin"));
        dsi_model::io::save(&m, &path).expect("save");
        (m, path)
    }

    fn tight_budget(path: &Path) -> usize {
        // Probe: open unbounded once to learn the panel size, then budget
        // for exactly two panels (in-use + one prefetch).
        let store = OffloadStore::open(path, OffloadConfig::default()).expect("probe open");
        store.panel_bytes() * 2
    }

    #[test]
    fn panels_roundtrip_through_the_store() {
        let (m, path) = save_model(3, 11, "rt");
        let store = OffloadStore::open(&path, OffloadConfig::default()).expect("open");
        assert_eq!(store.layers(), 3);
        for l in 0..3 {
            let p = store.acquire(l).expect("acquire");
            assert_eq!(p.ln1_g, m.layers[l].ln1_g.data());
            assert_eq!(p.b_ff2, m.layers[l].b_ff2.data());
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn budget_below_one_panel_is_typed_at_open() {
        let (_m, path) = save_model(2, 13, "budget");
        let cfg = OffloadConfig { resident_budget_bytes: 1024, ..OffloadConfig::default() };
        match OffloadStore::open(&path, cfg) {
            Err(OffloadError::BudgetExhausted { need, budget }) => {
                assert!(need > budget);
            }
            other => panic!("expected BudgetExhausted, got {:?}", other.map(|_| ())),
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn tight_budget_evicts_and_still_serves_every_layer() {
        let (m, path) = save_model(4, 17, "evict");
        let budget = tight_budget(&path);
        let cfg = OffloadConfig {
            resident_budget_bytes: budget,
            prefetch_depth: 4,
            ..OffloadConfig::default()
        };
        let store = OffloadStore::open(&path, cfg).expect("open");
        assert!(store.file_bytes() > budget, "file must exceed the resident budget");
        assert_eq!(store.effective_depth(), 1, "budget clamps depth to one ahead");
        // Three full passes over the layers — forced eviction every pass.
        for _ in 0..3 {
            for l in 0..4 {
                let p = store.acquire(l).expect("acquire");
                store.prefetch_ahead(l + 1);
                assert_eq!(p.ln2_b, m.layers[l].ln2_b.data());
            }
        }
        let st = store.stats();
        assert!(st.evictions > 0, "tight budget must evict");
        assert!(st.peak_resident_bytes <= budget, "budget respected");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn corrupt_read_is_retried_then_clean() {
        let (m, path) = save_model(2, 19, "crc");
        // Read call 0 is the open-time probe of layer 0: corrupt it and
        // the bounded re-read must recover without surfacing an error.
        let plan = IoFaultPlan::new(vec![IoFaultSpec {
            site: IoFaultSite::Read { call: 0 },
            kind: IoFaultKind::CorruptPanel,
        }]);
        let cfg = OffloadConfig {
            faults: Some(Arc::new(plan.injector())),
            ..OffloadConfig::default()
        };
        let store = OffloadStore::open(&path, cfg).expect("open survives one corrupt read");
        let p = store.acquire(0).expect("layer 0");
        assert_eq!(p.ln1_g, m.layers[0].ln1_g.data());
        assert_eq!(store.stats().checksum_retries, 1);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn persistent_corruption_is_typed_after_bounded_retries() {
        let (_m, path) = save_model(2, 23, "crc2");
        // Corrupt every one of the open probe's attempts (retries = 2 →
        // 3 attempts, calls 0..3).
        let specs = (0..3)
            .map(|c| IoFaultSpec {
                site: IoFaultSite::Read { call: c },
                kind: IoFaultKind::CorruptPanel,
            })
            .collect();
        let cfg = OffloadConfig {
            faults: Some(Arc::new(IoFaultPlan::new(specs).injector())),
            read_retries: 2,
            retry_backoff: Duration::from_millis(0),
            ..OffloadConfig::default()
        };
        match OffloadStore::open(&path, cfg) {
            Err(OffloadError::ChecksumFailed { layer: 0, attempts: 3 }) => {}
            other => panic!("expected ChecksumFailed, got {:?}", other.map(|_| ())),
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn acquire_queued_fetches_count_as_demand_not_prefetch() {
        let (_m, path) = save_model(3, 37, "depth0");
        let cfg = OffloadConfig { prefetch_depth: 0, ..OffloadConfig::default() };
        let store = OffloadStore::open(&path, cfg).expect("open");
        for _ in 0..2 {
            for l in 0..3 {
                let _panel = store.acquire(l).expect("acquire");
                store.prefetch_ahead(l + 1); // no-op at depth 0
            }
        }
        let st = store.stats();
        // Layer 0 comes from the open-time probe; the worker fetched layers
        // 1 and 2 because `acquire` queued them and waited.
        assert_eq!(st.demand_fetches, 3, "probe + two waited fetches");
        assert_eq!(st.prefetch_fetches, 0, "depth 0 never prefetches");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn dead_prefetcher_degrades_to_synchronous_fetch() {
        let (m, path) = save_model(3, 29, "sync");
        let store = OffloadStore::open(&path, OffloadConfig::default()).expect("open");
        store.kill_prefetcher();
        assert!(!store.prefetcher_alive());
        for l in 0..3 {
            let p = store.acquire(l).expect("sync acquire");
            store.prefetch_ahead(l + 1); // harmless no-op when dead
            assert_eq!(p.b_qkv, m.layers[l].b_qkv.data());
        }
        assert!(store.stats().sync_fallbacks >= 2, "layers 1/2 fetched inline");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn injected_open_failure_is_typed() {
        let (_m, path) = save_model(2, 31, "open");
        let plan = IoFaultPlan::new(vec![IoFaultSpec {
            site: IoFaultSite::Open { call: 0 },
            kind: IoFaultKind::FailOpen,
        }]);
        let cfg = OffloadConfig {
            faults: Some(Arc::new(plan.injector())),
            ..OffloadConfig::default()
        };
        assert!(matches!(
            OffloadStore::open(&path, cfg).map(|_| ()),
            Err(OffloadError::FailedOpen { .. })
        ));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn error_strings_land_in_the_right_breaker_classes() {
        // The breaker bridge is Display-text based; pin the keywords.
        let timeout = OffloadError::FetchTimeout { layer: 3, waited_ms: 10 }.to_string();
        assert!(timeout.contains("timed out"));
        let crc = OffloadError::ChecksumFailed { layer: 1, attempts: 3 }.to_string();
        assert!(crc.contains("corrupt"));
        let short = OffloadError::ShortReadFailed { layer: 1, attempts: 3 }.to_string();
        assert!(short.contains("corrupt"));
        let mem = OffloadError::BudgetExhausted { need: 10, budget: 5 }.to_string();
        assert!(mem.contains("memory"));
    }
}
