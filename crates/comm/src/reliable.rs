//! Reliable delivery under both transports: sequence-numbered, checksummed
//! envelope framing with receiver-side dedup, end-of-tick gap audit, and a
//! bounded retransmit path.
//!
//! # Why the tick audit is possible at all
//!
//! Compass's Network phase already contains the invariant this module
//! enforces. On the MPI backend every tick ends with a Reduce-scatter of
//! send flags, so each rank knows *exactly* how many messages to expect;
//! on the PGAS backend the commit barrier orders every put of an epoch
//! before the drain that consumes it. Either way, by the time a rank
//! finishes tick `T`'s Network phase, every frame any sender addressed to
//! it at ticks `<= T` is either in hand or provably missing. Large-scale
//! SNN simulators treat exactly this per-timestep delivery-count
//! reconciliation as the core correctness invariant (Pastorelli et al.,
//! arXiv:1511.09325).
//!
//! # Wire format
//!
//! Every application payload is wrapped in a `RELY` frame before the
//! fault injector (and the real network it stands in for) can touch it:
//!
//! ```text
//! offset  size  field
//!      0     4  magic  b"RELY"
//!      4     8  seq    u64 LE   per-(src, dst) sequence number
//!     12     4  tick   u32 LE   sender's tick epoch at frame time
//!     16     4  len    u32 LE   payload length in bytes
//!     20     4  crc    u32 LE   CRC-32 (IEEE) of the payload
//!     24   len  payload
//! ```
//!
//! Frames are concatenated back-to-back inside one transport message, so
//! a `Duplicate` fault (payload doubled in place) becomes two identical
//! frames and a `Delay` fault (payload prepended to the pair's next send)
//! becomes an old frame riding in a newer message — both are recognized
//! by sequence number and dropped idempotently. A `Corrupt` fault fails
//! the CRC (or tears the header); the parser then abandons the rest of
//! that message, because a corrupted length field makes every later frame
//! boundary untrustworthy — the audit re-delivers whatever was lost.
//!
//! # Sender-side retention and the retransmit path
//!
//! The sender keeps every framed payload in a bounded per-pair ring until
//! the tick it belongs to has been audited. When the receiver's audit
//! finds a sequence number missing, it issues up to
//! [`ReliableConfig::max_retransmits`] recovery attempts against that
//! ring — the in-process analogue of a NACK/retransmit exchange — with a
//! deterministic virtual-time timeout doubling per attempt
//! ([`AuditOutcome::backoff_ticks`] accounts the simulated wait). Tests
//! inject *deterministic interference* ([`ReliableConfig::interference`])
//! so retransmissions themselves can be lost; when the budget is
//! exhausted (or the ring has evicted the frame) the gap is declared
//! unrecoverable and the engine's rollback-recovery loop takes over.
//!
//! Sequence state is intentionally **not** rolled back: sequence numbers
//! only ever advance, so frames from an abandoned timeline (e.g. a
//! delayed copy surfacing after a rollback) arrive below the receiver's
//! watermark and are dropped as duplicates, while replayed application
//! sends get fresh sequence numbers and flow through untouched.

use crate::fault::fault_hash;
use crate::metrics::TransportMetrics;
use crate::sync::Mutex;
use crate::{FaultPlan, Rank};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Leading magic of a reliable frame.
pub const RELY_MAGIC: [u8; 4] = *b"RELY";

/// Size of the frame header preceding each payload.
pub const RELY_HEADER_BYTES: usize = 24;

/// Slicing-by-8 tables for the reflected IEEE polynomial `0xEDB8_8320`,
/// built at compile time. `CRC_TABLES[0]` is the classic bytewise table;
/// `CRC_TABLES[k][b]` is the CRC state after byte `b` followed by `k`
/// zero bytes, so eight lookups — one per table — advance eight bytes.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// The portable kernel: advances the raw CRC register `c` over `bytes`,
/// eight table lookups per eight bytes instead of a serial lookup per
/// byte, over unaligned little-endian loads.
fn crc_sliced(mut c: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// Inputs shorter than this stay on the portable kernel: the folding
/// kernel's fixed reduction costs about what slicing this many bytes does.
#[cfg(target_arch = "x86_64")]
const FOLD_MIN_BYTES: usize = 128;

/// The folding kernel (Gopal et al., "Fast CRC Computation for Generic
/// Polynomials Using PCLMULQDQ", reflected form): advances the raw CRC
/// register `c` over the whole 64-byte blocks of `bytes` and returns it
/// with the unconsumed tail. Four 128-bit lanes each carry-less-multiply
/// their content forward by 512 bits per block and absorb the next 16
/// bytes; the lanes then fold into one, which is reduced 128 → 64 → 32
/// bits (Barrett). The constants are `x^n mod P` for the fold distances.
///
/// Needs at least one block; the caller passes `FOLD_MIN_BYTES` or more.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
fn crc_fold_pclmulqdq(c: u32, bytes: &[u8]) -> (u32, &[u8]) {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };
    const FOLD_512: (i64, i64) = (0x0001_5444_2bd4, 0x0001_c6e4_1596);
    const FOLD_128: (i64, i64) = (0x0001_7519_97d0, 0x0000_ccaa_009e);
    const FOLD_64: i64 = 0x0001_63cd_6124;
    const POLY: i64 = 0x0001_db71_0641;
    const MU: i64 = 0x0001_f701_1641;

    #[target_feature(enable = "sse4.1")]
    fn lane(b: &[u8]) -> __m128i {
        let lo = u64::from_le_bytes(b[..8].try_into().expect("16-byte lane"));
        let hi = u64::from_le_bytes(b[8..16].try_into().expect("16-byte lane"));
        _mm_set_epi64x(hi as i64, lo as i64)
    }
    /// `acc` multiplied forward by the distance `keys` encode, plus `next`.
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    fn fold(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
        let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    let mut blocks = bytes.chunks_exact(64);
    let first = blocks.next().expect("caller passes at least one block");
    let mut x = [
        _mm_xor_si128(lane(&first[..16]), _mm_cvtsi32_si128(c as i32)),
        lane(&first[16..32]),
        lane(&first[32..48]),
        lane(&first[48..]),
    ];
    let keys = _mm_set_epi64x(FOLD_512.1, FOLD_512.0);
    for block in &mut blocks {
        for (i, x) in x.iter_mut().enumerate() {
            *x = fold(*x, lane(&block[16 * i..16 * i + 16]), keys);
        }
    }
    let keys = _mm_set_epi64x(FOLD_128.1, FOLD_128.0);
    let x = fold(fold(fold(x[0], x[1], keys), x[2], keys), x[3], keys);

    let low32 = _mm_set_epi32(0, 0, 0, !0);
    let x = _mm_xor_si128(_mm_clmulepi64_si128(x, keys, 0x10), _mm_srli_si128(x, 8));
    let x = _mm_xor_si128(
        _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, FOLD_64), 0x00),
        _mm_srli_si128(x, 4),
    );
    let poly_mu = _mm_set_epi64x(MU, POLY);
    let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly_mu, 0x10);
    let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), poly_mu, 0x00);
    let c = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
    (c, blocks.remainder())
}

/// Streaming CRC-32 (IEEE 802.3): feed the input in any number of
/// [`Crc32::update`] calls, cut anywhere, then [`Crc32::finish`]. The
/// result does not depend on where the slices start or end.
///
/// Two kernels, one value. The portable one is slicing-by-8; on an
/// x86-64 CPU seen to have `pclmulqdq`, inputs of 128 bytes or more go
/// through a carry-less-multiply folding kernel first and leave only
/// their sub-block tail to the sliced one. The choice is made from the
/// CPU and the input length alone.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// A checksum over no bytes yet.
    pub const fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Folds `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        let bytes = if bytes.len() >= FOLD_MIN_BYTES
            && std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
        {
            // SAFETY: the CPU was just seen to support `pclmulqdq` and
            // `sse4.1`, the two features the kernel is compiled for.
            let (state, tail) = unsafe { crc_fold_pclmulqdq(self.state, bytes) };
            self.state = state;
            tail
        } else {
            bytes
        };
        self.state = crc_sliced(self.state, bytes);
    }

    /// The checksum of everything fed so far.
    pub fn finish(self) -> u32 {
        !self.state
    }
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB8_8320`) of `bytes` in
/// one shot — the checksum carried by every `RELY` frame and every
/// durable store file. See [`Crc32`] for the kernel.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// Encodes one payload into its `RELY` frame.
pub fn encode_frame(seq: u64, tick: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(RELY_HEADER_BYTES + payload.len());
    out.extend_from_slice(&RELY_MAGIC);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&tick.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Tuning knobs for the reliable layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReliableConfig {
    /// Recovery attempts per missing frame before the gap is declared
    /// unrecoverable. Zero turns every gap into an immediate rollback.
    pub max_retransmits: u32,
    /// Virtual-time timeout (in ticks) before the first retransmission;
    /// doubles on every further attempt.
    pub backoff_base_ticks: u32,
    /// Retained frames per (src, dst) pair. The ring is pruned after every
    /// audited tick, so this only needs to cover one tick's traffic; an
    /// evicted frame makes its gap unrecoverable.
    pub ring_capacity: usize,
    /// Deterministic retransmission loss, `(seed, rate_per_mille)`: an
    /// attempt whose hash lands under the rate is itself lost. `None`
    /// means retransmissions always succeed (first attempt recovers).
    pub interference: Option<(u64, u32)>,
}

impl Default for ReliableConfig {
    fn default() -> Self {
        Self {
            max_retransmits: 4,
            backoff_base_ticks: 1,
            ring_capacity: 1024,
            interference: None,
        }
    }
}

impl ReliableConfig {
    /// A config whose retransmission path suffers the same seeded loss
    /// rate as `plan` inflicts on first transmissions — the honest setup
    /// for recovery tests (retries are not magically immune).
    pub fn against(plan: &FaultPlan) -> Self {
        Self {
            interference: Some((plan.seed ^ 0x5EED_BA11_CAFE_F00D, plan.rate_per_mille)),
            ..Self::default()
        }
    }
}

/// What one rank's end-of-tick audit found and did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuditOutcome {
    /// Frames the ledger expected that never arrived (or arrived torn).
    pub missing: u64,
    /// Missing frames successfully re-delivered from the sender's ring.
    pub recovered: u64,
    /// Missing frames the retransmit budget could not recover — the
    /// engine must roll back (or abort) when this is nonzero.
    pub unrecovered: u64,
    /// Deterministic virtual time (ticks) spent in retransmission
    /// timeouts, doubling per attempt.
    pub backoff_ticks: u64,
}

impl AuditOutcome {
    /// True when every expected frame is accounted for.
    pub fn clean(&self) -> bool {
        self.unrecovered == 0
    }

    fn merge(&mut self, other: AuditOutcome) {
        self.missing += other.missing;
        self.recovered += other.recovered;
        self.unrecovered += other.unrecovered;
        self.backoff_ticks += other.backoff_ticks;
    }
}

/// Point-in-time copy of one rank's reliable-layer counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RelyCounts {
    /// Recovery attempts issued by this rank's audits.
    pub retransmits: u64,
    /// Duplicate frames this rank discarded.
    pub dedup_drops: u64,
    /// Torn/corrupt messages this rank rejected.
    pub crc_rejects: u64,
}

#[derive(Debug, Default)]
struct RankCounters {
    retransmits: AtomicU64,
    dedup_drops: AtomicU64,
    crc_rejects: AtomicU64,
}

/// One payload retained for possible retransmission.
#[derive(Debug)]
struct Retained {
    seq: u64,
    tick: u32,
    payload: Vec<u8>,
}

/// Receiver-side dedup state for one (src, dst) pair: everything below
/// `watermark` is settled; `seen` holds delivered sequence numbers at or
/// above it.
#[derive(Debug, Default)]
struct RecvState {
    watermark: u64,
    seen: Vec<u64>,
}

impl RecvState {
    fn is_duplicate(&self, seq: u64) -> bool {
        seq < self.watermark || self.seen.contains(&seq)
    }

    fn mark(&mut self, seq: u64) {
        self.seen.push(seq);
        while let Some(pos) = self.seen.iter().position(|&s| s == self.watermark) {
            self.seen.swap_remove(pos);
            self.watermark += 1;
        }
    }

    /// Settles everything below `floor` (audit passed over it): later
    /// stragglers with those sequence numbers are duplicates by decree.
    fn settle(&mut self, floor: u64) {
        self.watermark = self.watermark.max(floor);
        let w = self.watermark;
        self.seen.retain(|&s| s >= w);
    }
}

/// Shared reliable-delivery state for every (src, dst) pair of a world.
///
/// One instance serves all ranks of an in-process world, mirroring how
/// [`TransportMetrics`] and [`crate::FaultInjector`] are shared. The
/// transports call [`ReliableWorld::frame`] on send;
/// [`ReliableWorld::receive`] parses, validates, and dedups on the way
/// in; the engine calls [`ReliableWorld::begin_tick`] at the top of each
/// tick and [`ReliableWorld::audit`] once the tick's Network phase has
/// fully drained.
pub struct ReliableWorld {
    ranks: usize,
    cfg: ReliableConfig,
    metrics: Arc<TransportMetrics>,
    /// Next sequence number per (src, dst) pair, `src * ranks + dst`.
    send_seq: Vec<AtomicU64>,
    /// Current tick epoch per sending rank (stamped into frames).
    tick_of: Vec<AtomicU32>,
    /// Send-side retained payloads per pair, pruned after each audit.
    ring: Vec<Mutex<VecDeque<Retained>>>,
    /// `(tick, seq)` of every frame sent, per pair, in send order —
    /// drained by the receiver's audit of that tick.
    ledger: Vec<Mutex<Vec<(u32, u64)>>>,
    /// Receiver dedup state per pair.
    recv: Vec<Mutex<RecvState>>,
    /// Per-receiving-rank event counters.
    counters: Vec<RankCounters>,
}

impl ReliableWorld {
    /// Creates the reliable layer for a world of `ranks` ranks.
    pub fn new(ranks: usize, metrics: Arc<TransportMetrics>, cfg: ReliableConfig) -> Self {
        Self {
            ranks,
            cfg,
            metrics,
            send_seq: (0..ranks * ranks).map(|_| AtomicU64::new(0)).collect(),
            tick_of: (0..ranks).map(|_| AtomicU32::new(0)).collect(),
            ring: (0..ranks * ranks)
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            ledger: (0..ranks * ranks).map(|_| Mutex::new(Vec::new())).collect(),
            recv: (0..ranks * ranks)
                .map(|_| Mutex::new(RecvState::default()))
                .collect(),
            counters: (0..ranks).map(|_| RankCounters::default()).collect(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &ReliableConfig {
        &self.cfg
    }

    /// Declares that `rank`'s sends now belong to tick `tick`.
    pub fn begin_tick(&self, rank: Rank, tick: u32) {
        self.tick_of[rank].store(tick, Ordering::Relaxed);
    }

    /// Frames one payload for the wire, retaining a copy for
    /// retransmission and recording the expectation in the pair's ledger.
    ///
    /// Called by the transports *before* the fault injector, so faults hit
    /// framed bytes — exactly what a lossy network corrupts.
    pub fn frame(&self, src: Rank, dst: Rank, payload: Vec<u8>) -> Vec<u8> {
        let pair = src * self.ranks + dst;
        let tick = self.tick_of[src].load(Ordering::Relaxed);
        // Sequence assignment and ledger append share the lock so the
        // ledger stays in ascending (tick, seq) order even under
        // concurrent senders.
        let (seq, framed) = {
            let mut ledger = self.ledger[pair].lock();
            let seq = self.send_seq[pair].fetch_add(1, Ordering::Relaxed);
            ledger.push((tick, seq));
            (seq, encode_frame(seq, tick, &payload))
        };
        let mut ring = self.ring[pair].lock();
        if ring.len() >= self.cfg.ring_capacity {
            ring.pop_front();
        }
        ring.push_back(Retained { seq, tick, payload });
        framed
    }

    /// Parses one received transport message (a concatenation of frames
    /// from a single `src → dst` pair), delivering each new valid payload
    /// through `deliver` and dropping duplicates.
    ///
    /// Any header or CRC violation abandons the remainder of the message:
    /// a torn length field makes later frame boundaries untrustworthy, and
    /// the audit path re-delivers anything lost that way.
    pub fn receive(&self, src: Rank, dst: Rank, bytes: &[u8], mut deliver: impl FnMut(&[u8])) {
        let pair = src * self.ranks + dst;
        let mut off = 0;
        while off < bytes.len() {
            let rest = &bytes[off..];
            if rest.len() < RELY_HEADER_BYTES || rest[0..4] != RELY_MAGIC {
                self.reject(dst);
                return;
            }
            let seq = u64::from_le_bytes(rest[4..12].try_into().expect("len"));
            let len = u32::from_le_bytes(rest[16..20].try_into().expect("len")) as usize;
            let crc = u32::from_le_bytes(rest[20..24].try_into().expect("len"));
            let Some(payload) = rest.get(RELY_HEADER_BYTES..RELY_HEADER_BYTES + len) else {
                self.reject(dst);
                return;
            };
            if crc32(payload) != crc {
                self.reject(dst);
                return;
            }
            let fresh = {
                let mut st = self.recv[pair].lock();
                if st.is_duplicate(seq) {
                    false
                } else {
                    st.mark(seq);
                    true
                }
            };
            if fresh {
                deliver(payload);
            } else {
                self.counters[dst]
                    .dedup_drops
                    .fetch_add(1, Ordering::Relaxed);
                self.metrics.record_dedup_drop();
            }
            off += RELY_HEADER_BYTES + len;
        }
    }

    fn reject(&self, dst: Rank) {
        self.counters[dst]
            .crc_rejects
            .fetch_add(1, Ordering::Relaxed);
        self.metrics.record_crc_reject();
    }

    /// End-of-tick audit for rank `me`: reconciles every pair's ledger
    /// against what actually arrived for ticks `<= tick`, re-delivering
    /// missing payloads from the senders' retained rings through
    /// `deliver(src, payload)`.
    ///
    /// Must be called after the tick's Network phase has fully drained on
    /// `me` — the Reduce-scatter (MPI) or commit barrier (PGAS) then
    /// guarantees every ledger entry for this tick is visible. Returns a
    /// non-[`clean`](AuditOutcome::clean) outcome when the retransmit
    /// budget could not close a gap; the caller must then roll back or
    /// abort, because the missing data is gone for good.
    pub fn audit(&self, me: Rank, tick: u32, mut deliver: impl FnMut(Rank, &[u8])) -> AuditOutcome {
        let mut total = AuditOutcome::default();
        for src in 0..self.ranks {
            if src == me {
                continue;
            }
            total.merge(self.audit_pair(src, me, tick, &mut deliver));
        }
        total
    }

    fn audit_pair(
        &self,
        src: Rank,
        me: Rank,
        tick: u32,
        deliver: &mut impl FnMut(Rank, &[u8]),
    ) -> AuditOutcome {
        let mut out = AuditOutcome::default();
        let pair = src * self.ranks + me;
        let due: Vec<u64> = {
            let mut ledger = self.ledger[pair].lock();
            let cut = ledger.partition_point(|&(t, _)| t <= tick);
            ledger.drain(..cut).map(|(_, seq)| seq).collect()
        };
        let Some(&max_seq) = due.iter().max() else {
            return out;
        };
        let missing: Vec<u64> = {
            let st = self.recv[pair].lock();
            due.into_iter().filter(|&s| !st.is_duplicate(s)).collect()
        };
        for seq in missing {
            out.missing += 1;
            if self.recover(src, me, seq, deliver, &mut out) {
                out.recovered += 1;
            } else {
                out.unrecovered += 1;
            }
        }
        // Everything audited is settled: stragglers below this floor are
        // duplicates, and the ring no longer needs this tick's payloads.
        self.recv[pair].lock().settle(max_seq + 1);
        self.ring[pair].lock().retain(|f| f.tick > tick);
        out
    }

    /// The bounded NACK/retransmit exchange for one missing frame.
    fn recover(
        &self,
        src: Rank,
        me: Rank,
        seq: u64,
        deliver: &mut impl FnMut(Rank, &[u8]),
        out: &mut AuditOutcome,
    ) -> bool {
        let pair = src * self.ranks + me;
        for attempt in 0..self.cfg.max_retransmits {
            self.counters[me]
                .retransmits
                .fetch_add(1, Ordering::Relaxed);
            self.metrics.record_retransmit();
            out.backoff_ticks += u64::from(self.cfg.backoff_base_ticks) << attempt.min(32) as u64;
            if let Some((iseed, irate)) = self.cfg.interference {
                let salt = iseed.wrapping_add(u64::from(attempt).wrapping_mul(0x9E37_79B9));
                if fault_hash(salt, src, me, seq) % 1000 < u64::from(irate) {
                    continue; // this retransmission was itself lost
                }
            }
            let payload = self.ring[pair]
                .lock()
                .iter()
                .find(|f| f.seq == seq)
                .map(|f| f.payload.clone());
            return match payload {
                Some(p) => {
                    self.recv[pair].lock().mark(seq);
                    deliver(src, &p);
                    true
                }
                // Evicted from the ring: no number of retries can help.
                None => false,
            };
        }
        false
    }

    /// Forgets every expectation involving a dead rank: its pair ledgers,
    /// retained rings, and receiver dedup state are cleared so survivor
    /// audits never wait on (or retransmit toward) a rank that will never
    /// speak again. Idempotent — clearing empty state is a no-op, so a
    /// double verdict (each survivor retires the victim, and a verdict
    /// can race an in-flight admission of another rank) is harmless.
    pub fn retire_rank(&self, dead: Rank) {
        for other in 0..self.ranks {
            for pair in [dead * self.ranks + other, other * self.ranks + dead] {
                self.ledger[pair].lock().clear();
                self.ring[pair].lock().clear();
                *self.recv[pair].lock() = RecvState::default();
            }
        }
    }

    /// The inverse of [`ReliableWorld::retire_rank`]: resets every pair
    /// involving `rank` to a pristine stream — sequence numbers restart at
    /// zero in *both* directions and the receiver dedup state forgets the
    /// old watermark, so the admitted rank's first frame (seq 0) is not
    /// dropped as a duplicate of a retired stream. Also clears the pair
    /// ledgers and retained rings (a retired rank's were already empty;
    /// admission makes that unconditional). Idempotent.
    pub fn admit_rank(&self, rank: Rank) {
        self.tick_of[rank].store(0, Ordering::Relaxed);
        for other in 0..self.ranks {
            for pair in [rank * self.ranks + other, other * self.ranks + rank] {
                self.send_seq[pair].store(0, Ordering::Relaxed);
                self.ledger[pair].lock().clear();
                self.ring[pair].lock().clear();
                *self.recv[pair].lock() = RecvState::default();
            }
        }
    }

    /// This rank's reliable-layer event counters so far.
    pub fn counts(&self, rank: Rank) -> RelyCounts {
        let c = &self.counters[rank];
        RelyCounts {
            retransmits: c.retransmits.load(Ordering::Relaxed),
            dedup_drops: c.dedup_drops.load(Ordering::Relaxed),
            crc_rejects: c.crc_rejects.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for ReliableWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReliableWorld")
            .field("ranks", &self.ranks)
            .field("cfg", &self.cfg)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world(ranks: usize, cfg: ReliableConfig) -> ReliableWorld {
        ReliableWorld::new(ranks, Arc::new(TransportMetrics::new()), cfg)
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
        // Long enough for the folding kernel where there is one; the
        // value is zlib's.
        let long: Vec<u8> = (0..1000u32).map(|i| (i * 7 + 3) as u8).collect();
        assert_eq!(crc32(&long), 0x17BC_2A46);
    }

    /// The definition, one bit at a time and with no table at all: what
    /// the sliced kernel is pinned to.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        !c
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Any input, at every offset 0..8 from an 8-aligned address, fed
        /// whole or cut at up to four arbitrary points: one checksum from
        /// the dispatching kernel and from the portable one, and it is the
        /// bitwise reference's. Swapping two slice tables, dropping the
        /// tail loop or touching a fold constant fails this.
        #[test]
        fn crc32_is_split_and_alignment_invariant(
            data in proptest::collection::vec(proptest::num::u8::ANY, 0..=4096usize),
            cuts in proptest::collection::vec(0usize..=4096, 0..=4usize),
        ) {
            let want = crc32_bitwise(&data);
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
            cuts.sort_unstable();
            let mut arena = vec![0u8; data.len() + 16];
            let aligned = arena.as_ptr().align_offset(8);
            for off in 0..8 {
                let span = aligned + off..aligned + off + data.len();
                arena[span.clone()].copy_from_slice(&data);
                let bytes = &arena[span];
                proptest::prop_assert_eq!(crc32(bytes), want, "one-shot at offset {}", off);
                // Whichever kernel the dispatch picked above, the portable
                // one agrees with it.
                proptest::prop_assert_eq!(!crc_sliced(!0, bytes), want, "sliced at offset {}", off);
                let mut crc = Crc32::new();
                let mut from = 0;
                for &cut in &cuts {
                    crc.update(&bytes[from..cut]);
                    from = cut;
                }
                crc.update(&bytes[from..]);
                proptest::prop_assert_eq!(crc.finish(), want, "cuts {:?} at offset {}", cuts, off);
            }
        }
    }

    /// The frame layout and its checksum are wire format: the expected
    /// bytes were produced outside this crate (header by hand, CRC by
    /// zlib) and must never move.
    #[test]
    fn golden_rely_frame_bytes_are_unchanged() {
        let payload: Vec<u8> = (0..37u32).map(|i| (i * 7 + 3) as u8).collect();
        let frame = encode_frame(0x01_0203_0405, 77, &payload);
        let mut want = vec![
            b'R', b'E', b'L', b'Y', // magic
            0x05, 0x04, 0x03, 0x02, 0x01, 0x00, 0x00, 0x00, // seq
            0x4d, 0x00, 0x00, 0x00, // tick 77
            0x25, 0x00, 0x00, 0x00, // len 37
            0xb4, 0x97, 0xa3, 0x39, // crc 0x39a397b4
        ];
        want.extend_from_slice(&payload);
        assert_eq!(frame, want);
    }

    #[test]
    fn frame_receive_roundtrip_preserves_payloads_in_order() {
        let rw = world(2, ReliableConfig::default());
        rw.begin_tick(0, 3);
        let a = rw.frame(0, 1, vec![1, 2, 3]);
        let b = rw.frame(0, 1, vec![4, 5]);
        let mut wire = a;
        wire.extend_from_slice(&b);
        let mut got = Vec::new();
        rw.receive(0, 1, &wire, |p| got.push(p.to_vec()));
        assert_eq!(got, vec![vec![1, 2, 3], vec![4, 5]]);
        assert_eq!(rw.counts(1), RelyCounts::default());
        // The audit finds nothing missing and the outcome is clean.
        let out = rw.audit(1, 3, |_, _| panic!("nothing to re-deliver"));
        assert_eq!(out, AuditOutcome::default());
        assert!(out.clean());
    }

    #[test]
    fn duplicate_frames_are_dropped_idempotently() {
        let rw = world(2, ReliableConfig::default());
        let f = rw.frame(0, 1, vec![9; 8]);
        let mut wire = f.clone();
        wire.extend_from_slice(&f); // the Duplicate fault: doubled in place
        let mut got = 0;
        rw.receive(0, 1, &wire, |_| got += 1);
        assert_eq!(got, 1, "one delivery");
        assert_eq!(rw.counts(1).dedup_drops, 1);
        // A third copy in a later message is also recognized.
        rw.receive(0, 1, &f, |_| panic!("must dedup"));
        assert_eq!(rw.counts(1).dedup_drops, 2);
    }

    #[test]
    fn corrupt_frames_are_rejected_then_audit_recovers_them() {
        let rw = world(2, ReliableConfig::default());
        rw.begin_tick(0, 0);
        let mut wire = rw.frame(0, 1, vec![7; 40]);
        wire[30] ^= 0x10; // payload bit flip
        rw.receive(0, 1, &wire, |_| panic!("corrupt frame delivered"));
        assert_eq!(rw.counts(1).crc_rejects, 1);
        let mut redelivered = Vec::new();
        let out = rw.audit(1, 0, |src, p| {
            assert_eq!(src, 0);
            redelivered.push(p.to_vec());
        });
        assert_eq!(redelivered, vec![vec![7; 40]]);
        assert_eq!((out.missing, out.recovered, out.unrecovered), (1, 1, 0));
        assert!(out.clean());
        assert_eq!(rw.counts(1).retransmits, 1);
    }

    #[test]
    fn a_torn_header_abandons_the_rest_of_the_message() {
        let rw = world(2, ReliableConfig::default());
        rw.begin_tick(0, 0);
        let mut wire = rw.frame(0, 1, vec![1; 4]);
        let good = rw.frame(0, 1, vec![2; 4]);
        wire[17] ^= 0xFF; // tear the length field of the first frame
        wire.extend_from_slice(&good);
        rw.receive(0, 1, &wire, |_| panic!("nothing should parse"));
        // Both frames come back through the audit.
        let mut n = 0;
        let out = rw.audit(1, 0, |_, _| n += 1);
        assert_eq!(n, 2);
        assert!(out.clean());
    }

    #[test]
    fn dropped_frames_are_recovered_by_the_audit() {
        let rw = world(2, ReliableConfig::default());
        rw.begin_tick(0, 5);
        let _lost = rw.frame(0, 1, vec![3, 1, 4]); // never received
        let kept = rw.frame(0, 1, vec![1, 5, 9]);
        let mut got = Vec::new();
        rw.receive(0, 1, &kept, |p| got.push(p.to_vec()));
        let out = rw.audit(1, 5, |_, p| got.push(p.to_vec()));
        assert_eq!((out.missing, out.recovered), (1, 1));
        got.sort();
        assert_eq!(got, vec![vec![1, 5, 9], vec![3, 1, 4]]);
        // Late arrival of the "lost" frame after the audit: duplicate.
        let late = encode_frame(0, 5, &[3, 1, 4]);
        rw.receive(0, 1, &late, |_| panic!("settled frame delivered"));
        assert_eq!(rw.counts(1).dedup_drops, 1);
    }

    #[test]
    fn out_of_order_delivery_compacts_the_watermark() {
        let rw = world(2, ReliableConfig::default());
        let f0 = rw.frame(0, 1, vec![0]);
        let f1 = rw.frame(0, 1, vec![1]);
        let mut got = Vec::new();
        rw.receive(0, 1, &f1, |p| got.push(p.to_vec()));
        rw.receive(0, 1, &f0, |p| got.push(p.to_vec()));
        assert_eq!(got, vec![vec![1], vec![0]]);
        let st = rw.recv[1].lock();
        assert_eq!(st.watermark, 2, "contiguous prefix settled");
        assert!(st.seen.is_empty());
    }

    #[test]
    fn exhausted_retransmit_budget_reports_unrecoverable() {
        // Interference at rate 1000 loses every retransmission.
        let cfg = ReliableConfig {
            max_retransmits: 3,
            interference: Some((42, 1000)),
            ..ReliableConfig::default()
        };
        let rw = world(2, cfg);
        rw.begin_tick(0, 0);
        let _lost = rw.frame(0, 1, vec![8; 4]);
        let out = rw.audit(1, 0, |_, _| panic!("cannot recover"));
        assert_eq!((out.missing, out.recovered, out.unrecovered), (1, 0, 1));
        assert!(!out.clean());
        assert_eq!(rw.counts(1).retransmits, 3, "budget fully spent");
        // Exponential virtual-time backoff: 1 + 2 + 4 base ticks.
        assert_eq!(out.backoff_ticks, 7);
    }

    #[test]
    fn zero_retransmit_budget_fails_immediately() {
        let cfg = ReliableConfig {
            max_retransmits: 0,
            ..ReliableConfig::default()
        };
        let rw = world(2, cfg);
        let _lost = rw.frame(0, 1, vec![1]);
        let out = rw.audit(1, 0, |_, _| panic!("no attempts allowed"));
        assert_eq!(out.unrecovered, 1);
        assert_eq!(rw.counts(1).retransmits, 0);
    }

    #[test]
    fn ring_eviction_makes_a_gap_unrecoverable() {
        let cfg = ReliableConfig {
            ring_capacity: 2,
            ..ReliableConfig::default()
        };
        let rw = world(2, cfg);
        let _f0 = rw.frame(0, 1, vec![0]); // evicted by the third frame
        let f1 = rw.frame(0, 1, vec![1]);
        let f2 = rw.frame(0, 1, vec![2]);
        rw.receive(0, 1, &f1, |_| {});
        rw.receive(0, 1, &f2, |_| {});
        let out = rw.audit(1, 0, |_, _| panic!("frame 0 was evicted"));
        assert_eq!((out.missing, out.unrecovered), (1, 1));
    }

    #[test]
    fn audit_only_covers_ticks_up_to_the_argument() {
        let rw = world(2, ReliableConfig::default());
        rw.begin_tick(0, 0);
        let f0 = rw.frame(0, 1, vec![0]);
        rw.begin_tick(0, 1);
        let _f1 = rw.frame(0, 1, vec![1]); // tick 1: not yet due
        rw.receive(0, 1, &f0, |_| {});
        let out = rw.audit(1, 0, |_, _| panic!("tick 0 fully delivered"));
        assert!(out.clean());
        assert_eq!(out.missing, 0);
        // Tick 1's frame becomes due — and missing — at the next audit.
        let mut n = 0;
        let out = rw.audit(1, 1, |_, _| n += 1);
        assert_eq!((out.missing, n), (1, 1));
    }

    #[test]
    fn admit_rank_restarts_the_pair_streams_from_seq_zero() {
        let rw = world(2, ReliableConfig::default());
        rw.begin_tick(0, 7);
        // A pre-departure stream advances the seq and the dedup watermark.
        for i in 0..3u8 {
            let f = rw.frame(0, 1, vec![i]);
            rw.receive(0, 1, &f, |_| {});
        }
        assert!(rw.audit(1, 7, |_, _| {}).clean());
        rw.retire_rank(0);
        rw.admit_rank(0);
        // The re-admitted rank's first frame carries seq 0 again and must
        // deliver — not dedup against the retired stream's watermark.
        let f = rw.frame(0, 1, vec![42]);
        let mut got = Vec::new();
        rw.receive(0, 1, &f, |p| got.push(p.to_vec()));
        assert_eq!(got, vec![vec![42]], "fresh seq-0 stream must deliver");
        assert_eq!(rw.counts(1).dedup_drops, 0);
        assert!(rw.audit(1, 0, |_, _| panic!("fully delivered")).clean());
    }

    #[test]
    fn double_verdict_racing_an_admission_is_idempotent() {
        // Regression for the elastic double-verdict race: every survivor
        // retires the victim independently, and a retire can interleave
        // with an in-flight admission of a *different* rank. Neither the
        // repeated retire nor the interleaving may corrupt pair state.
        let rw = world(3, ReliableConfig::default());
        let _ = rw.frame(2, 1, vec![9]); // victim traffic, never received
        rw.retire_rank(2);
        rw.admit_rank(0); // admission of another rank, mid-verdict
        rw.retire_rank(2); // second survivor's verdict lands late
                           // The victim's abandoned ledger entry must be gone: the audit has
                           // nothing to wait on and reports clean.
        assert!(rw.audit(1, 0, |_, _| panic!("retired")).clean());
        // The admitted rank's streams are pristine in both directions.
        let f = rw.frame(0, 1, vec![1]);
        let mut n = 0;
        rw.receive(0, 1, &f, |_| n += 1);
        assert_eq!(n, 1);
        // And a second admission of the same rank is a no-op.
        rw.retire_rank(2);
        rw.admit_rank(2);
        rw.admit_rank(2);
        let f = rw.frame(2, 1, vec![3]);
        rw.receive(2, 1, &f, |_| n += 1);
        assert_eq!(n, 2);
    }

    #[test]
    fn interference_is_deterministic_and_retries_can_succeed() {
        // Rate 500: some attempts lost, but 4 attempts nearly always land.
        let run = || {
            let cfg = ReliableConfig {
                interference: Some((7, 500)),
                ..ReliableConfig::default()
            };
            let rw = world(2, cfg);
            for i in 0..20u8 {
                let _ = rw.frame(0, 1, vec![i]);
            }
            let mut got = Vec::new();
            let out = rw.audit(1, 0, |_, p| got.push(p.to_vec()));
            (out, got, rw.counts(1).retransmits)
        };
        let (out_a, got_a, tx_a) = run();
        let (out_b, got_b, tx_b) = run();
        assert_eq!(out_a, out_b, "same seed, same recovery outcome");
        assert_eq!(got_a, got_b);
        assert_eq!(tx_a, tx_b);
        assert!(out_a.recovered > 0);
        assert!(tx_a > out_a.recovered, "some attempts must have been lost");
    }
}
