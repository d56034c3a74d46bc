use crate::nuca::BankMapping;
use crate::policies::{Belady, BitPlru};
use crate::{
    AccessMeta, AccessOutcome, CacheStats, ControlEvent, HierarchyConfig, HierarchyStats,
    NucaConfig, ReplacementPolicy, SetAssocCache,
};
use popt_trace::{AccessKind, AddressSpace, RegionClass, SiteId, TraceEvent, TraceSink};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::time::{Duration, Instant};

impl BankMapping {
    /// Renumbers `line` into a bank-local dense line index, so consecutive
    /// lines landing in one bank spread across all of its sets.
    fn local_line(&self, line: u64, num_banks: usize) -> u64 {
        match *self {
            BankMapping::LineInterleave => line / num_banks as u64,
            BankMapping::BlockInterleave { block_shift } => {
                let block = line >> block_shift;
                let offset = line & ((1 << block_shift) - 1);
                ((block / num_banks as u64) << block_shift) | offset
            }
        }
    }
}

/// Per-bank counters in [`HierarchyStats::bank_accesses`]; construction
/// refuses NUCA configurations with more banks.
const MAX_BANKS: usize = 16;

/// Ops in a recording's first chunk. Each later chunk doubles the one
/// before it up to [`LLC_CHUNK`], so a group's LLC thread starts on a
/// short stream early, and a long stream's handoffs stay few.
const FIRST_CHUNK: usize = 512;

/// Ops per chunk once a recording's chunks have grown (64 KiB of 16-byte
/// ops).
const LLC_CHUNK: usize = 4096;

/// Chunks [`Hierarchy::group`]'s channel holds between its two threads:
/// the handoff stays within `PIPELINE_DEPTH * LLC_CHUNK` ops (512 KiB)
/// however long the run.
const PIPELINE_DEPTH: usize = 8;

/// One request the private levels send below L2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LlcOp {
    /// A demand access that missed L2 (an [`AccessMeta`], flattened so the
    /// op packs into 16 bytes).
    Access {
        /// The global line number.
        line: u64,
        /// The issuing instruction.
        site: SiteId,
        /// Read or write.
        kind: AccessKind,
        /// The line's region class.
        class: RegionClass,
    },
    /// A dirty private-level victim forwarded below L2.
    Writeback {
        /// The victim's line number.
        line: u64,
        /// The victim's region class.
        class: RegionClass,
    },
    /// A prefetch fill ([`PrivateLevels::prefetch_fill`]) of `line`.
    Prefetch {
        /// The line to install.
        line: u64,
        /// The line's region class.
        class: RegionClass,
    },
    /// A control event for every LLC bank.
    Control(ControlEvent),
    /// The bank flush of a [`PrivateLevels::context_switch`] (its
    /// `ContextSwitch` control event follows as its own op).
    Flush,
}

/// What the private levels send every request below L2 into. The edge is
/// one-way: `push` returns nothing, so no LLC decision can reach L1 or L2.
pub trait LlcSink {
    /// Takes the next request below L2.
    fn push(&mut self, op: LlcOp);
}

/// The statistics of the levels above the LLC, which no LLC policy can
/// influence.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct PrivateStats {
    l1: CacheStats,
    l2: CacheStats,
    instructions: u64,
    coherence_invalidations: u64,
}

/// One LLC of a [`Hierarchy::group`] run.
#[derive(Debug)]
pub enum GroupLlc<B> {
    /// An LLC that `B` builds on the group's LLC thread and that takes
    /// each chunk of the stream as it arrives.
    Live(B),
    /// Belady's MIN under this configuration, which must have a single
    /// LLC bank: its oracle needs the whole demand stream, so the group
    /// keeps every chunk and replays them into it once the recording
    /// ends. The stats are exactly those of re-running the recorded
    /// events under the oracle.
    Belady(HierarchyConfig),
}

/// What one LLC of a [`Hierarchy::group`] run came to.
#[derive(Debug)]
pub struct MemberRun {
    /// The run's stats under this LLC, or the payload of the panic that
    /// building or applying it raised.
    pub stats: std::thread::Result<HierarchyStats>,
    /// Time the LLC thread spent building this LLC and applying the
    /// stream to it.
    pub busy: Duration,
}

/// What a [`Hierarchy::group`] run came to.
#[derive(Debug)]
pub struct GroupRun {
    /// One entry per LLC, in the order they were given.
    pub members: Vec<MemberRun>,
    /// Time the calling thread spent driving the feed through the private
    /// levels, less the time it waited for room in the LLC thread's
    /// channel.
    pub record: Duration,
}

/// One LLC on a group's LLC thread, with the time spent on it so far.
struct Member {
    state: MemberState,
    busy: Duration,
}

enum MemberState {
    /// Built, taking chunks.
    Live(Llc),
    /// Waiting for the whole stream.
    Belady(HierarchyConfig),
    /// Its build or a chunk panicked with this payload.
    Failed(Box<dyn Any + Send>),
}

impl Member {
    /// Builds `llc`, timing the build and catching its panic.
    fn build<B: FnOnce() -> Llc>(llc: GroupLlc<B>) -> Self {
        let started = Instant::now();
        let state = match llc {
            GroupLlc::Live(build) => match catch_unwind(AssertUnwindSafe(build)) {
                Ok(llc) => MemberState::Live(llc),
                Err(payload) => MemberState::Failed(payload),
            },
            GroupLlc::Belady(cfg) => MemberState::Belady(cfg),
        };
        Member {
            state,
            busy: started.elapsed(),
        }
    }

    /// Applies the next chunk of the stream to a live LLC; a panic fails
    /// this member alone.
    fn apply(&mut self, ops: &[LlcOp]) {
        let MemberState::Live(llc) = &mut self.state else {
            return;
        };
        let started = Instant::now();
        let applied = catch_unwind(AssertUnwindSafe(|| {
            ops.iter().for_each(|&op| llc.push(op));
        }));
        self.busy += started.elapsed();
        if let Err(payload) = applied {
            self.state = MemberState::Failed(payload);
        }
    }

    /// The member's stats over the whole stream, whose private-level
    /// stats are `private` and whose chunks are `kept` (only when the
    /// group has a Belady member).
    fn finish(self, kept: &[Vec<LlcOp>], private: PrivateStats) -> MemberRun {
        let started = Instant::now();
        let stats = match self.state {
            MemberState::Live(llc) => Ok(llc.stats(private)),
            MemberState::Belady(cfg) => {
                catch_unwind(AssertUnwindSafe(|| Self::belady(&cfg, kept, private)))
            }
            MemberState::Failed(payload) => Err(payload),
        };
        MemberRun {
            stats,
            busy: self.busy + started.elapsed(),
        }
    }

    /// Belady's MIN under `cfg` over the whole stream: builds the oracle
    /// from the stream's demand lines and applies the stream to an LLC
    /// alone.
    ///
    /// # Panics
    ///
    /// Panics if the LLC has more than one bank: the oracle needs one
    /// globally ordered LLC stream.
    fn belady(cfg: &HierarchyConfig, kept: &[Vec<LlcOp>], private: PrivateStats) -> HierarchyStats {
        assert_eq!(cfg.nuca.num_banks(), 1, "Belady needs a single-bank LLC");
        let lines: Vec<u64> = kept
            .iter()
            .flatten()
            .filter_map(|op| match *op {
                LlcOp::Access { line, .. } => Some(line),
                _ => None,
            })
            .collect();
        let mut llc = Llc::new(cfg, |sets, ways| {
            Box::new(Belady::from_trace(sets, ways, &lines))
        });
        kept.iter().flatten().for_each(|&op| llc.push(op));
        llc.stats(private)
    }
}

/// The body of a group's LLC thread: builds every member, applies each
/// chunk to the live ones as it arrives (keeping it when a Belady member
/// waits for the whole stream), and finishes them all once the recorder
/// hangs up.
fn serve_group<B: FnOnce() -> Llc>(
    llcs: Vec<GroupLlc<B>>,
    handoffs: Receiver<Handoff>,
) -> Vec<MemberRun> {
    let mut members: Vec<Member> = llcs.into_iter().map(Member::build).collect();
    let keep = members
        .iter()
        .any(|m| matches!(m.state, MemberState::Belady(_)));
    let (mut kept, mut private) = (Vec::new(), PrivateStats::default());
    for handoff in handoffs {
        match handoff {
            Handoff::Chunk(ops) => {
                members.iter_mut().for_each(|m| m.apply(&ops));
                if keep {
                    kept.push(ops);
                }
            }
            Handoff::Done(stats) => private = stats,
        }
    }
    members
        .into_iter()
        .map(|m| m.finish(&kept, private))
        .collect()
}

/// A scoped thread that runs the LLC side of one [`Hierarchy::group`] run
/// after another. It ends once its handle is dropped and its last
/// group is done.
pub struct LlcThread<'scope> {
    jobs: mpsc::Sender<Box<dyn FnOnce() + Send + 'scope>>,
}

impl<'scope> LlcThread<'scope> {
    /// Starts the thread in `scope`.
    pub fn spawn<'env>(scope: &'scope std::thread::Scope<'scope, 'env>) -> Self {
        let (jobs, queue) = mpsc::channel::<Box<dyn FnOnce() + Send + 'scope>>();
        scope.spawn(move || queue.into_iter().for_each(|job| job()));
        LlcThread { jobs }
    }
}

impl std::fmt::Debug for LlcThread<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LlcThread").finish_non_exhaustive()
    }
}

/// One message from [`Hierarchy::group`]'s recorder to its LLC thread.
enum Handoff {
    /// The next chunk of the post-L2 stream.
    Chunk(Vec<LlcOp>),
    /// The run's private-level stats, sent after its last chunk.
    Done(PrivateStats),
}

/// The sink below a [`Recorder`]'s private levels: it fills a chunk of
/// requests and sends each full one to a group's LLC thread. Chunks
/// start at 512 ops and double up to 4096.
pub struct ChunkRecorder {
    chunk: Vec<LlcOp>,
    limit: usize,
    sender: SyncSender<Handoff>,
    /// Time the sends have waited for room in the channel.
    stalled: Duration,
}

impl ChunkRecorder {
    fn new(sender: SyncSender<Handoff>) -> Self {
        ChunkRecorder {
            chunk: Vec::with_capacity(FIRST_CHUNK),
            limit: FIRST_CHUNK,
            sender,
            stalled: Duration::ZERO,
        }
    }

    /// Sends `handoff` to the LLC thread, timing any wait for room.
    #[inline(never)]
    fn send(&mut self, handoff: Handoff) {
        // The LLC thread catches its members' panics and receives until
        // the recorder hangs up, so a send cannot fail.
        if let Err(TrySendError::Full(handoff)) = self.sender.try_send(handoff) {
            let started = Instant::now();
            let _ = self.sender.send(handoff);
            self.stalled += started.elapsed();
        }
    }

    /// Sends the last, partial chunk and then `private`. Returns the time
    /// the sends waited for room.
    fn finish(mut self, private: PrivateStats) -> Duration {
        if !self.chunk.is_empty() {
            let tail = std::mem::take(&mut self.chunk);
            self.send(Handoff::Chunk(tail));
        }
        self.send(Handoff::Done(private));
        self.stalled
    }
}

impl LlcSink for ChunkRecorder {
    #[inline(always)]
    fn push(&mut self, op: LlcOp) {
        self.chunk.push(op);
        if self.chunk.len() == self.limit {
            self.limit = (2 * self.limit).min(LLC_CHUNK);
            let full = std::mem::replace(&mut self.chunk, Vec::with_capacity(self.limit));
            self.send(Handoff::Chunk(full));
        }
    }
}

/// One core's private cache levels. Their policy is always Bit-PLRU
/// (Table I), so it is a concrete type the per-access path inlines.
struct Core {
    l1: SetAssocCache<BitPlru>,
    l2: SetAssocCache<BitPlru>,
}

impl Core {
    /// Invalidates `line` in both private levels; returns whether any copy
    /// existed (dirty copies are dropped — the writer's fill supersedes
    /// them, as under MESI the modified copy would be transferred).
    fn invalidate_line(&mut self, line: u64) -> bool {
        let a = self.l1.invalidate_line(line);
        let b = self.l2.invalidate_line(line);
        a || b
    }
}

/// The cores' private levels of Table I: per-core L1 and L2 with Bit-PLRU,
/// region classification, write-invalidate coherence, the active core and
/// the instruction count. Every request that leaves L2 is pushed into the
/// sink `S` below them: an [`Llc`] in a live [`Hierarchy`], a
/// [`ChunkRecorder`] in a [`Recorder`].
///
/// The levels consume [`TraceEvent`]s (they implement [`TraceSink`]), so a
/// kernel's instrumented run drives them directly. Multi-threaded traces
/// switch the active core with [`TraceEvent::Core`] (paper Section V-F);
/// single-threaded traces use core 0 implicitly. Fills are
/// write-allocate; every miss installs into the missing level.
pub struct PrivateLevels<S> {
    cores: Vec<Core>,
    active_core: usize,
    irreg_ranges: Vec<(u64, u64)>,
    instructions: u64,
    coherence_invalidations: u64,
    below: S,
}

/// The simulated hierarchy of Table I: [`PrivateLevels`] above a shared,
/// NUCA-banked [`Llc`] with a pluggable policy. Dirty LLC evictions count
/// as DRAM writebacks.
///
/// # Example
///
/// ```
/// use popt_sim::{Hierarchy, HierarchyConfig, PolicyKind};
/// use popt_trace::{TraceSink, TraceEvent};
///
/// let mut h = Hierarchy::new(&HierarchyConfig::scaled_table1(),
///                            |sets, ways| PolicyKind::Drrip.build(sets, ways));
/// h.event(TraceEvent::read(0x1000, 0));
/// h.event(TraceEvent::read(0x1000, 0));
/// assert_eq!(h.stats().l1.hits, 1);
/// ```
pub type Hierarchy = PrivateLevels<Llc>;

/// Private levels recording the post-L2 stream, with no LLC below them:
/// what [`Hierarchy::group`] drives.
pub type Recorder = PrivateLevels<ChunkRecorder>;

impl<S> std::fmt::Debug for PrivateLevels<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrivateLevels")
            .field("cores", &self.cores.len())
            .finish_non_exhaustive()
    }
}

impl Hierarchy {
    /// Builds a single-core hierarchy; `make_llc_policy(sets, data_ways)`
    /// is invoked once per NUCA bank with the bank's geometry (after
    /// subtracting reserved ways).
    pub fn new(
        cfg: &HierarchyConfig,
        make_llc_policy: impl FnMut(usize, usize) -> Box<dyn ReplacementPolicy>,
    ) -> Self {
        Self::with_cores(cfg, 1, make_llc_policy)
    }

    /// Builds a hierarchy with `num_cores` private L1/L2 pairs sharing the
    /// LLC (the paper's 8-core configuration).
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is zero, or if the LLC has more NUCA banks
    /// than [`HierarchyStats::bank_accesses`] has slots.
    pub fn with_cores(
        cfg: &HierarchyConfig,
        num_cores: usize,
        make_llc_policy: impl FnMut(usize, usize) -> Box<dyn ReplacementPolicy>,
    ) -> Self {
        PrivateLevels::over(cfg, num_cores, Llc::new(cfg, make_llc_policy))
    }

    /// Builds `num_cores` private L1/L2 pairs of `cfg` above `llc`.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is zero.
    pub fn with_llc(cfg: &HierarchyConfig, num_cores: usize, llc: Llc) -> Self {
        PrivateLevels::over(cfg, num_cores, llc)
    }

    /// One run of `drive`'s events through `num_cores` cores' L1 and L2
    /// of `cfg` above each LLC of `llcs` at once, on two threads. The
    /// calling thread runs `drive` into a [`Recorder`], whose private
    /// levels have no LLC below them, so their post-L2 stream serves any
    /// LLC configuration and policy. `llc_thread` builds every
    /// [`GroupLlc::Live`] LLC (the policies are built where they run) and
    /// applies each chunk of the stream to all of them as it arrives over
    /// a bounded channel, so the LLCs keep pace with the kernel and the
    /// handoff never holds more than a few hundred KiB. Only a
    /// [`GroupLlc::Belady`] member makes the thread keep the whole stream,
    /// which it replays into the oracle once the recording ends. The
    /// thread serves one group after another, so a caller running many
    /// groups starts one thread, not one per group.
    ///
    /// A panic while building or applying one LLC fails that member
    /// alone: its [`MemberRun::stats`] carries the payload, and the other
    /// members still see the whole stream.
    ///
    /// # Errors
    ///
    /// Returns `drive`'s error. Its recorder is dropped first, which ends
    /// the LLC side.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is zero. A panic in `drive` ends the LLC
    /// side and propagates.
    pub fn group<'scope, B: FnOnce() -> Llc + Send + 'scope, E>(
        llc_thread: &LlcThread<'scope>,
        cfg: &HierarchyConfig,
        num_cores: usize,
        llcs: Vec<GroupLlc<B>>,
        drive: impl FnOnce(&mut Recorder) -> Result<(), E>,
    ) -> Result<GroupRun, E> {
        let (sender, handoffs) = mpsc::sync_channel(PIPELINE_DEPTH);
        let (reply, replied) = mpsc::sync_channel(1);
        // The thread runs every job it is given, so the reply comes.
        let _ = llc_thread.jobs.send(Box::new(move || {
            let served = catch_unwind(AssertUnwindSafe(|| serve_group(llcs, handoffs)));
            let _ = reply.send(served);
        }));
        let started = Instant::now();
        let mut recorder = Recorder::recording(cfg, num_cores, sender);
        let driven = drive(&mut recorder);
        // Either way the recorder's sender goes, closing the channel: the
        // LLC thread drains it and replies.
        let stalled = if driven.is_ok() {
            recorder.finish()
        } else {
            drop(recorder);
            Duration::ZERO
        };
        let record = started.elapsed().saturating_sub(stalled);
        // Every member's panic is caught in `serve_group`, so a payload
        // here is a bug of the LLC side's own.
        let members = match replied.recv() {
            Ok(Ok(members)) => members,
            Ok(Err(payload)) => resume_unwind(payload),
            Err(gone) => resume_unwind(Box::new(gone)),
        };
        driven.map(|()| GroupRun { members, record })
    }

    /// Aggregated statistics. Private-level stats are summed across cores.
    pub fn stats(&self) -> HierarchyStats {
        self.below.stats(self.private_stats())
    }
}

impl Recorder {
    /// `num_cores` private levels under `cfg` sending their chunks to
    /// `sender`.
    fn recording(cfg: &HierarchyConfig, num_cores: usize, sender: SyncSender<Handoff>) -> Self {
        PrivateLevels::over(cfg, num_cores, ChunkRecorder::new(sender))
    }

    /// Ends the recording: sends its last chunk and its private-level
    /// stats. Returns the time the sends waited for room in the channel.
    fn finish(self) -> Duration {
        let private = self.private_stats();
        self.below.finish(private)
    }
}

impl<S: LlcSink> PrivateLevels<S> {
    /// `num_cores` L1/L2 pairs under `cfg`, above `below`.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is zero.
    fn over(cfg: &HierarchyConfig, num_cores: usize, below: S) -> Self {
        assert!(num_cores > 0, "need at least one core");
        let cores = (0..num_cores)
            .map(|_| Core {
                l1: SetAssocCache::with_policy(
                    cfg.l1,
                    BitPlru::new(cfg.l1.num_sets(), cfg.l1.ways()),
                ),
                l2: SetAssocCache::with_policy(
                    cfg.l2,
                    BitPlru::new(cfg.l2.num_sets(), cfg.l2.ways()),
                ),
            })
            .collect();
        PrivateLevels {
            cores,
            active_core: 0,
            irreg_ranges: Vec::new(),
            instructions: 0,
            coherence_invalidations: 0,
            below,
        }
    }

    /// Registers the kernel's address space so irregular regions are
    /// classified (the `irreg_base`/`irreg_bound` register writes of
    /// Section V-B).
    pub fn set_address_space(&mut self, space: &AddressSpace) {
        self.irreg_ranges = space
            .irregular_regions()
            .map(|(_, r)| (r.base(), r.bound()))
            .collect();
    }

    /// Private-level stats summed across cores.
    fn private_stats(&self) -> PrivateStats {
        let mut l1 = CacheStats::default();
        let mut l2 = CacheStats::default();
        for core in &self.cores {
            l1 = l1.merged(*core.l1.stats());
            l2 = l2.merged(*core.l2.stats());
        }
        PrivateStats {
            l1,
            l2,
            instructions: self.instructions,
            coherence_invalidations: self.coherence_invalidations,
        }
    }

    fn classify(&self, addr: u64) -> RegionClass {
        if self
            .irreg_ranges
            .iter()
            .any(|&(b, e)| addr >= b && addr < e)
        {
            RegionClass::Irregular
        } else {
            RegionClass::Streaming
        }
    }

    /// Sends a dirty victim line below L2, where the LLC absorbs it or
    /// passes it to DRAM (writebacks never allocate).
    fn writeback_below_l2(&mut self, line: u64) {
        let class = self.classify(line << popt_trace::LINE_SHIFT);
        self.below.push(LlcOp::Writeback { line, class });
    }

    /// Performs one demand access from the active core, sending it below
    /// L2 if it misses both private levels.
    ///
    /// Writes from one core invalidate the line in every other core's
    /// private levels (write-invalidate coherence, the effect of Table I's
    /// MESI protocol that matters to a locality study).
    pub fn access(&mut self, addr: u64, kind: AccessKind, site: SiteId) {
        self.instructions += 1;
        let class = self.classify(addr);
        let line = addr >> popt_trace::LINE_SHIFT;
        let meta = AccessMeta {
            line,
            site,
            kind,
            class,
        };
        if kind == AccessKind::Write && self.cores.len() > 1 {
            let writer = self.active_core;
            for (i, other) in self.cores.iter_mut().enumerate() {
                if i != writer && other.invalidate_line(line) {
                    self.coherence_invalidations += 1;
                }
            }
        }
        // `active_core` is below the core count (0, or a core id taken
        // modulo it), so the lookup always finds the core.
        let Some(core) = self.cores.get_mut(self.active_core) else {
            return;
        };
        let out1 = core.l1.access(&meta);
        if out1.is_hit() {
            return;
        }
        let out2 = core.l2.access(&meta);
        // Propagate the L1 victim's writeback: absorbed by L2 if resident,
        // else it continues toward the LLC/DRAM, ahead of L2's own victim.
        let l1_victim = match out1 {
            AccessOutcome::Miss {
                evicted: Some(victim),
                evicted_dirty: true,
            } if !core.l2.absorb_writeback(victim) => Some(victim),
            _ => None,
        };
        let l2_victim = match out2 {
            AccessOutcome::Miss {
                evicted: Some(victim),
                evicted_dirty: true,
            } => Some(victim),
            _ => None,
        };
        for victim in [l1_victim, l2_victim].into_iter().flatten() {
            self.writeback_below_l2(victim);
        }
        if out2.is_hit() {
            return;
        }
        self.below.push(LlcOp::Access {
            line,
            site,
            kind,
            class,
        });
    }

    /// Installs `addr`'s line into the LLC without touching demand
    /// statistics — the hook for Rereference-Matrix-driven prefetching
    /// (paper Section VIII). Evictions triggered by the fill go through the
    /// bank's policy as usual.
    pub fn prefetch_fill(&mut self, addr: u64) {
        let class = self.classify(addr);
        self.below.push(LlcOp::Prefetch {
            line: addr >> popt_trace::LINE_SHIFT,
            class,
        });
    }

    /// Models a context switch (paper Section V-F): the co-running process
    /// evicts all demand data from every level; on resumption P-OPT's
    /// registers are restored and its columns refetched (policies receive
    /// [`ControlEvent::ContextSwitch`] and charge accordingly). Reserved
    /// ways are way-partitioned per process, so their *capacity* survives;
    /// the refetch cost is what the policy accounts.
    pub fn context_switch(&mut self) {
        for core in &mut self.cores {
            core.l1.invalidate_all();
            core.l2.invalidate_all();
        }
        self.below.push(LlcOp::Flush);
        self.control(ControlEvent::ContextSwitch);
    }

    /// Forwards a control event to every LLC bank policy.
    pub fn control(&mut self, event: ControlEvent) {
        self.below.push(LlcOp::Control(event));
    }
}

impl<S: LlcSink> TraceSink for PrivateLevels<S> {
    fn event(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::Access(a) => self.access(a.addr, a.kind, a.site),
            TraceEvent::CurrentVertex(v) => self.control(ControlEvent::CurrentVertex(v)),
            TraceEvent::EpochBoundary => self.control(ControlEvent::EpochBoundary),
            TraceEvent::IterationBegin => self.control(ControlEvent::IterationBegin),
            TraceEvent::Instructions(n) => self.instructions += n as u64,
            TraceEvent::Core(c) => {
                self.active_core = (c as usize) % self.cores.len();
            }
        }
    }
}

/// The shared LLC of Table I: NUCA banks, each with its own instance of a
/// pluggable policy, behind [`PrivateLevels`] in a live [`Hierarchy`] or
/// alone on a [`Hierarchy::group`]'s LLC thread, taking a recorded
/// post-L2 stream with no L1 or L2.
pub struct Llc {
    banks: Vec<SetAssocCache>,
    nuca: NucaConfig,
    bank_accesses: [u64; MAX_BANKS],
    prefetch_fills: u64,
    dram_writebacks: u64,
}

impl std::fmt::Debug for Llc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Llc")
            .field("banks", &self.banks.len())
            .finish_non_exhaustive()
    }
}

impl Llc {
    /// Builds `cfg`'s LLC; `make_llc_policy(sets, data_ways)` is invoked
    /// once per NUCA bank with the bank's geometry (after subtracting
    /// reserved ways).
    ///
    /// # Panics
    ///
    /// Panics if the LLC has more NUCA banks than
    /// [`HierarchyStats::bank_accesses`] has slots.
    pub fn new(
        cfg: &HierarchyConfig,
        mut make_llc_policy: impl FnMut(usize, usize) -> Box<dyn ReplacementPolicy>,
    ) -> Self {
        assert!(
            cfg.nuca.num_banks() <= MAX_BANKS,
            "{} NUCA banks exceed the {MAX_BANKS} per-bank access counters",
            cfg.nuca.num_banks()
        );
        let bank_cfg = cfg.llc_bank();
        let data_ways = bank_cfg.ways() - cfg.llc_reserved_ways;
        let banks = (0..cfg.nuca.num_banks())
            .map(|_| {
                SetAssocCache::with_reserved_ways(
                    bank_cfg,
                    make_llc_policy(bank_cfg.num_sets(), data_ways),
                    cfg.llc_reserved_ways,
                )
            })
            .collect();
        Llc {
            banks,
            nuca: cfg.nuca,
            bank_accesses: [0; MAX_BANKS],
            prefetch_fills: 0,
            dram_writebacks: 0,
        }
    }

    /// The bank serving `line` and its bank-local line. The bank is below
    /// the configured bank count, which construction gives `banks` and
    /// caps at `bank_accesses`' length, so the `get_mut`s of
    /// [`push`](LlcSink::push) always find it.
    fn route(&self, line: u64, class: RegionClass) -> (usize, u64) {
        if self.banks.len() == 1 {
            return (0, line);
        }
        let irregular = class == RegionClass::Irregular;
        let bank = self.nuca.bank_of(line, irregular);
        let mapping = if irregular {
            self.nuca.irreg_mapping
        } else {
            self.nuca.default_mapping
        };
        (bank, mapping.local_line(line, self.nuca.num_banks()))
    }

    /// The whole run's stats: `private` from the levels above, the rest
    /// from the banks.
    fn stats(&self, private: PrivateStats) -> HierarchyStats {
        let mut llc = CacheStats::default();
        let mut overheads = crate::PolicyOverheads::default();
        for bank in &self.banks {
            llc = llc.merged(*bank.stats());
            overheads = overheads.merged(bank.policy().overheads());
        }
        HierarchyStats {
            l1: private.l1,
            l2: private.l2,
            llc,
            instructions: private.instructions,
            bank_accesses: self.bank_accesses,
            prefetch_fills: self.prefetch_fills,
            dram_writebacks: self.dram_writebacks,
            coherence_invalidations: private.coherence_invalidations,
            overheads,
        }
    }
}

impl LlcSink for Llc {
    #[inline(always)]
    fn push(&mut self, op: LlcOp) {
        match op {
            LlcOp::Access {
                line,
                site,
                kind,
                class,
            } => {
                let (bank, local) = self.route(line, class);
                if let (Some(cache), Some(accesses)) =
                    (self.banks.get_mut(bank), self.bank_accesses.get_mut(bank))
                {
                    *accesses += 1;
                    let meta = AccessMeta {
                        line,
                        site,
                        kind,
                        class,
                    };
                    // Placement (set selection) uses the bank-local
                    // renumbering; the policy keeps seeing the global line.
                    let _ = cache.access_placed(&meta, local);
                }
            }
            LlcOp::Writeback { line, class } => {
                let (bank, local) = self.route(line, class);
                if self
                    .banks
                    .get_mut(bank)
                    .is_some_and(|bank| !bank.absorb_writeback(local))
                {
                    self.dram_writebacks += 1;
                }
            }
            LlcOp::Prefetch { line, class } => {
                let (bank, local) = self.route(line, class);
                let meta = AccessMeta {
                    line,
                    site: SiteId(u32::MAX),
                    kind: AccessKind::Read,
                    class,
                };
                if self
                    .banks
                    .get_mut(bank)
                    .is_some_and(|bank| bank.prefetch_placed(&meta, local))
                {
                    self.prefetch_fills += 1;
                }
            }
            LlcOp::Control(event) => {
                for bank in &mut self.banks {
                    bank.control(&event);
                }
            }
            LlcOp::Flush => {
                for bank in &mut self.banks {
                    bank.invalidate_all();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::Belady;
    use crate::{NucaConfig, PolicyKind};
    use popt_trace::RegionClass;
    use std::convert::Infallible;

    fn lru_hierarchy(cfg: &HierarchyConfig) -> Hierarchy {
        Hierarchy::new(cfg, |sets, ways| PolicyKind::Lru.build(sets, ways))
    }

    #[test]
    fn l1_filters_before_llc() {
        let mut h = lru_hierarchy(&HierarchyConfig::scaled_table1());
        for _ in 0..10 {
            h.event(TraceEvent::read(0x4000, 0));
        }
        let s = h.stats();
        assert_eq!(s.l1.hits, 9);
        assert_eq!(s.llc.demand_accesses(), 1);
        assert_eq!(s.instructions, 10);
    }

    #[test]
    fn irregular_ranges_classify_accesses() {
        let mut space = AddressSpace::new();
        let _oa = space.alloc("oa", 64, 8, RegionClass::Streaming);
        let src = space.alloc("src", 64, 4, RegionClass::Irregular);
        let mut h = lru_hierarchy(&HierarchyConfig::scaled_table1());
        h.set_address_space(&space);
        h.event(TraceEvent::read(space.addr_of(src, 0), 0));
        let s = h.stats();
        assert_eq!(s.llc.irregular_misses, 1);
    }

    #[test]
    fn local_line_renumbering_spreads_sets() {
        // Line interleave across 8 banks: lines 0,8,16.. land in bank 0 with
        // local lines 0,1,2..
        let m = BankMapping::LineInterleave;
        assert_eq!(m.local_line(0, 8), 0);
        assert_eq!(m.local_line(8, 8), 1);
        assert_eq!(m.local_line(16, 8), 2);
        // Block interleave keeps intra-block offsets.
        let b = BankMapping::POPT_IRREG;
        assert_eq!(b.local_line(0, 8), 0);
        assert_eq!(b.local_line(63, 8), 63);
        assert_eq!(b.local_line(8 * 64, 8), 64); // next block in same bank
    }

    #[test]
    fn nuca_banks_split_traffic() {
        let mut cfg = HierarchyConfig::scaled_table1();
        cfg.nuca = NucaConfig::uniform(4);
        let mut h = lru_hierarchy(&cfg);
        // Touch many distinct lines; traffic must hit every bank.
        for i in 0..4096u64 {
            h.event(TraceEvent::read(0x10_0000 + i * 64, 0));
        }
        let s = h.stats();
        let used = s.bank_accesses.iter().filter(|&&c| c > 0).count();
        assert_eq!(used, 4);
        assert_eq!(s.llc.demand_accesses(), 4096);
    }

    /// Feeds `events` to any private levels.
    fn feed<S: LlcSink>(h: &mut PrivateLevels<S>, events: &[TraceEvent]) {
        events.iter().for_each(|&e| h.event(e));
    }

    /// A sink that collects every request below L2 in order.
    impl LlcSink for Vec<LlcOp> {
        fn push(&mut self, op: LlcOp) {
            Vec::push(self, op);
        }
    }

    /// The demand-access lines that `drive`'s events send below one
    /// core's L2 of `cfg`, in order: what a Belady oracle is built from.
    fn demand_lines(
        cfg: &HierarchyConfig,
        drive: impl FnOnce(&mut PrivateLevels<Vec<LlcOp>>),
    ) -> Vec<u64> {
        let mut h = PrivateLevels::over(cfg, 1, Vec::new());
        drive(&mut h);
        h.below
            .into_iter()
            .filter_map(|op| match op {
                LlcOp::Access { line, .. } => Some(line),
                _ => None,
            })
            .collect()
    }

    /// A [`Hierarchy::group`] run on an [`LlcThread`] of its own.
    fn run_group<B: FnOnce() -> Llc + Send, E>(
        cfg: &HierarchyConfig,
        num_cores: usize,
        llcs: Vec<GroupLlc<B>>,
        drive: impl FnOnce(&mut Recorder) -> Result<(), E>,
    ) -> Result<GroupRun, E> {
        std::thread::scope(|scope| {
            Hierarchy::group(&LlcThread::spawn(scope), cfg, num_cores, llcs, drive)
        })
    }

    /// A member's stats, re-raising the panic that failed it.
    fn member_stats(member: MemberRun) -> HierarchyStats {
        member
            .stats
            .unwrap_or_else(|payload| resume_unwind(payload))
    }

    /// The message of a panic's payload.
    fn panic_text(payload: &(dyn Any + Send)) -> Option<&str> {
        payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
    }

    /// A member's LLC builder, boxed so that members built by different
    /// closures share one type.
    type BoxedLlc<'a> = Box<dyn FnOnce() -> Llc + Send + 'a>;

    /// A group member running `kind` under `cfg`.
    fn policy_member(cfg: &HierarchyConfig, kind: PolicyKind) -> GroupLlc<BoxedLlc<'_>> {
        GroupLlc::Live(Box::new(move || Llc::new(cfg, |s, w| kind.build(s, w))))
    }

    #[test]
    fn belady_replay_round_trip() {
        // Pass 1 records a dirty-heavy, mixed read/write walk over a
        // footprint 4x the LLC, with control events between accesses.
        let cfg = HierarchyConfig::small_test();
        let footprint = 4 * cfg.llc.size_bytes() as u64;
        let mut events = vec![TraceEvent::IterationBegin];
        for i in 0..40_000u32 {
            let x = u64::from(i).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let addr = 0x100_0000 + (x % footprint) / 64 * 64;
            events.push(if x >> 62 == 0 {
                TraceEvent::read(addr, i % 7)
            } else {
                TraceEvent::write(addr, i % 7)
            });
            if i % 64 == 0 {
                events.push(TraceEvent::CurrentVertex(i / 64));
            }
        }
        let lines = demand_lines(&cfg, |h| feed(h, &events));
        let mut live_lru = lru_hierarchy(&cfg);
        feed(&mut live_lru, &events);
        let lru = live_lru.stats();
        assert_eq!(lines.len() as u64, lru.llc.demand_accesses());
        assert!(
            lru.llc.writebacks > 1000 && lru.dram_writebacks > 100,
            "not dirty-heavy: {lru:?}"
        );

        // One group runs the recording into the oracle and a learned
        // policy as they arrive, into the group's own Belady member once
        // it ends, and into an oracle built from one line too few.
        let bank = cfg.llc_bank();
        let oracle = |sets: usize, ways: usize| -> Box<dyn ReplacementPolicy> {
            assert_eq!((sets, ways), (bank.num_sets(), bank.ways()));
            Box::new(Belady::from_trace(sets, ways, &lines))
        };
        let drrip = |s, w| PolicyKind::Drrip.build(s, w);
        let short = |sets, ways| -> Box<dyn ReplacementPolicy> {
            Box::new(Belady::from_trace(sets, ways, &lines[..lines.len() - 1]))
        };
        let cfg = &cfg;
        let llcs: Vec<GroupLlc<BoxedLlc<'_>>> = vec![
            GroupLlc::Live(Box::new(|| Llc::new(cfg, oracle))),
            GroupLlc::Live(Box::new(|| Llc::new(cfg, drrip))),
            GroupLlc::Belady(cfg.clone()),
            GroupLlc::Live(Box::new(|| Llc::new(cfg, short))),
        ];
        let Ok(run) = run_group(cfg, 1, llcs, |h| {
            feed(h, &events);
            Ok::<(), Infallible>(())
        });
        let [oracle_run, drrip_run, belady_run, short_run] =
            <[MemberRun; 4]>::try_from(run.members).unwrap();

        // Each LLC gives exactly the stats of re-running the events under
        // it, the oracle and a learned policy alike; the private levels
        // report the LRU run's stats.
        let makes: [&dyn Fn(usize, usize) -> Box<dyn ReplacementPolicy>; 2] = [&oracle, &drrip];
        for (member, make) in [oracle_run, drrip_run].into_iter().zip(makes) {
            let mut rerun = Hierarchy::new(cfg, make);
            feed(&mut rerun, &events);
            let replay = member_stats(member);
            assert_eq!(replay, rerun.stats());
            assert_eq!(
                (replay.l1, replay.l2, replay.instructions),
                (lru.l1, lru.l2, lru.instructions)
            );
            assert_eq!(replay.check(), Ok(()));
        }

        // The Belady member agrees, and OPT never loses to LRU.
        let two_pass = member_stats(belady_run);
        let mut rerun = Hierarchy::new(cfg, oracle);
        feed(&mut rerun, &events);
        assert_eq!(two_pass, rerun.stats());
        let opt_misses = two_pass.llc.misses;
        assert!(
            opt_misses <= lru.llc.misses,
            "OPT misses {opt_misses} exceed LRU misses {}",
            lru.llc.misses
        );

        // An oracle built from a shorter stream than the one applied to
        // it still refuses to run past its trace.
        let panic = short_run
            .stats
            .expect_err("replaying past the oracle's trace must panic");
        let message = panic_text(panic.as_ref());
        assert!(
            message.is_some_and(|m| m.contains("replayed past its recorded trace")),
            "{message:?}"
        );
    }

    #[test]
    fn recorded_ops_stay_small() {
        // Sixteen bytes per recorded request keeps a Belady cell's stream
        // far smaller than its kernel's event stream.
        assert!(std::mem::size_of::<LlcOp>() <= 16);
    }

    /// Writes, prefetch fills and a context switch from one core.
    fn prefetching_drive<S: LlcSink>(h: &mut PrivateLevels<S>) {
        for i in 0..6000u64 {
            let addr = 0x40_0000 + (i.wrapping_mul(0x9e37_79b9) % 4000) * 64;
            if i % 5 == 0 {
                h.event(TraceEvent::write(addr, 0));
            } else {
                h.event(TraceEvent::read(addr, 0));
            }
            if i % 7 == 0 {
                h.prefetch_fill(addr + 64);
            }
            if i == 3000 {
                h.context_switch();
            }
        }
    }

    #[test]
    fn replay_carries_prefetches_and_context_switches() {
        let mut cfg = HierarchyConfig::small_test();
        cfg.nuca = NucaConfig::uniform(2);
        let mut rerun = Hierarchy::new(&cfg, |s, w| PolicyKind::Srrip.build(s, w));
        prefetching_drive(&mut rerun);
        let piped = pipelined(
            &cfg,
            1,
            || Llc::new(&cfg, |s, w| PolicyKind::Srrip.build(s, w)),
            |h| {
                prefetching_drive(h);
                Ok::<(), Infallible>(())
            },
        );
        assert!(rerun.stats().prefetch_fills > 0);
        assert_eq!(piped, Ok(rerun.stats()));
    }

    /// Two cores sharing a small footprint, so writes invalidate the other
    /// core's copies, with prefetch fills and a context switch.
    fn two_core_drive<S: LlcSink>(h: &mut PrivateLevels<S>) {
        for i in 0..6000u64 {
            let addr = 0x40_0000 + (i.wrapping_mul(0x9e37_79b9) % 400) * 64;
            h.event(TraceEvent::Core(u32::from(i % 3 == 0)));
            if i % 5 == 0 {
                h.event(TraceEvent::write(addr, 0));
            } else {
                h.event(TraceEvent::read(addr, 0));
            }
            if i % 7 == 0 {
                h.prefetch_fill(addr + 64);
            }
            if i == 3000 {
                h.context_switch();
            }
        }
    }

    #[test]
    fn two_core_recordings_replay_to_the_live_stats() {
        // Nothing flows up from the LLC, so the two cores' recorded stream
        // (coherence, prefetches and a context switch included) gives any
        // LLC of one group the live two-core run of that LLC.
        let mut cfg = HierarchyConfig::small_test();
        cfg.nuca = NucaConfig::uniform(2);
        let kinds = [PolicyKind::Lru, PolicyKind::Drrip, PolicyKind::Hawkeye];
        let llcs = kinds
            .iter()
            .map(|&kind| policy_member(&cfg, kind))
            .collect();
        let Ok(run) = run_group(&cfg, 2, llcs, |h| {
            two_core_drive(h);
            Ok::<(), Infallible>(())
        });
        for (member, kind) in run.members.into_iter().zip(kinds) {
            let mut live = Hierarchy::with_cores(&cfg, 2, |s, w| kind.build(s, w));
            two_core_drive(&mut live);
            let live = live.stats();
            assert!(
                live.coherence_invalidations > 0 && live.prefetch_fills > 0,
                "{live:?}"
            );
            assert_eq!(member_stats(member), live, "{kind:?}");
        }
    }

    #[test]
    fn one_recording_serves_every_llc_configuration() {
        // The recording has no LLC at all; the group's members vary the
        // LLC's size, associativity, reserved ways, banking and policy.
        let recorded = HierarchyConfig::small_test();
        fn drive<S: LlcSink>(h: &mut PrivateLevels<S>) {
            h.event(TraceEvent::IterationBegin);
            for i in 0..20_000u32 {
                let addr = 0x40_0000 + (u64::from(i).wrapping_mul(0x9e37_79b9) % 3000) * 64;
                h.event(if i % 3 == 0 {
                    TraceEvent::write(addr, i % 5)
                } else {
                    TraceEvent::read(addr, i % 5)
                });
            }
        }
        let mut banked = HierarchyConfig::scaled_with_llc(64 * 1024, 8);
        banked.nuca = NucaConfig::uniform(4);
        let llcs = [
            recorded.clone(),
            HierarchyConfig::scaled_with_llc(32 * 1024, 4),
            HierarchyConfig::scaled_with_llc(32 * 1024, 16).with_reserved_ways(3),
            banked,
        ];
        let cfgs: Vec<HierarchyConfig> = llcs
            .into_iter()
            .map(|llc| HierarchyConfig {
                l1: recorded.l1,
                l2: recorded.l2,
                ..llc
            })
            .collect();
        // Every (geometry, policy) pair, then Belady on each single-bank
        // geometry (`None`).
        let kinds = [PolicyKind::Lru, PolicyKind::Drrip, PolicyKind::Hawkeye];
        let pairs: Vec<(&HierarchyConfig, Option<PolicyKind>)> = cfgs
            .iter()
            .flat_map(|cfg| kinds.iter().map(move |&kind| (cfg, Some(kind))))
            .chain(
                cfgs.iter()
                    .filter(|cfg| cfg.nuca.num_banks() == 1)
                    .map(|cfg| (cfg, None)),
            )
            .collect();
        let members = pairs
            .iter()
            .map(|&(cfg, kind)| match kind {
                Some(kind) => policy_member(cfg, kind),
                None => GroupLlc::Belady(cfg.clone()),
            })
            .collect();
        let Ok(run) = run_group(&recorded, 1, members, |h| {
            drive(h);
            Ok::<(), Infallible>(())
        });
        assert_eq!(run.members.len(), 4 * 3 + 3);
        for (member, (cfg, kind)) in run.members.into_iter().zip(pairs) {
            let mut rerun = match kind {
                Some(kind) => Hierarchy::new(cfg, |s, w| kind.build(s, w)),
                None => {
                    let lines = demand_lines(cfg, drive);
                    Hierarchy::new(cfg, |sets, ways| {
                        Box::new(Belady::from_trace(sets, ways, &lines))
                    })
                }
            };
            drive(&mut rerun);
            assert_eq!(
                member_stats(member),
                rerun.stats(),
                "{kind:?} under {cfg:?}"
            );
        }
    }

    /// A one-LLC [`Hierarchy::group`] run: the stats of `drive`'s events
    /// through `num_cores` cores' L1 and L2 of `cfg` above `build_llc`'s
    /// LLC, re-raising the LLC's panic with its own payload.
    fn pipelined<E>(
        cfg: &HierarchyConfig,
        num_cores: usize,
        build_llc: impl FnOnce() -> Llc + Send,
        drive: impl FnOnce(&mut Recorder) -> Result<(), E>,
    ) -> Result<HierarchyStats, E> {
        let run = run_group(cfg, num_cores, vec![GroupLlc::Live(build_llc)], drive)?;
        let [member] = <[MemberRun; 1]>::try_from(run.members).unwrap();
        Ok(member_stats(member))
    }

    /// Sends exactly `ops` requests below L2: control events, and reads of
    /// distinct lines, each missing both private levels.
    fn exact_ops<S: LlcSink>(h: &mut PrivateLevels<S>, ops: usize) -> Result<(), String> {
        for i in 0..u32::try_from(ops).unwrap() {
            if i % 3 == 0 {
                h.control(ControlEvent::CurrentVertex(i));
            } else {
                h.event(TraceEvent::read(0x40_0000 + u64::from(i) * 64, i % 5));
            }
        }
        Ok(())
    }

    /// The lengths of the chunks a recording of `ops` requests from
    /// [`exact_ops`] under `cfg` sends to its LLC thread.
    fn sent_chunk_lens(cfg: &HierarchyConfig, ops: usize) -> Vec<usize> {
        // Room for every chunk and the closing stats, so no send waits.
        let (sender, handoffs) = mpsc::sync_channel(ops + 2);
        let mut recorder = Recorder::recording(cfg, 1, sender);
        exact_ops(&mut recorder, ops).unwrap();
        recorder.finish();
        handoffs
            .into_iter()
            .filter_map(|handoff| match handoff {
                Handoff::Chunk(chunk) => Some(chunk.len()),
                Handoff::Done(_) => None,
            })
            .collect()
    }

    /// The chunk lengths a recording of `ops` requests hands on: the
    /// first chunk holds [`FIRST_CHUNK`] ops, each next one twice the one
    /// before up to [`LLC_CHUNK`], and the last holds what is left.
    fn chunk_lens(mut ops: usize) -> Vec<usize> {
        let (mut lens, mut limit) = (Vec::new(), FIRST_CHUNK);
        while ops > 0 {
            lens.push(limit.min(ops));
            ops -= limit.min(ops);
            limit = (2 * limit).min(LLC_CHUNK);
        }
        lens
    }

    #[test]
    fn pipelined_runs_match_live_runs_at_every_chunk_edge() {
        let mut cfg = HierarchyConfig::small_test();
        cfg.nuca = NucaConfig::uniform(2);
        // The edges of the first, growing chunks and of the full-size ones.
        let grown = FIRST_CHUNK + 2 * FIRST_CHUNK + 4 * FIRST_CHUNK;
        assert_eq!(2 * 4 * FIRST_CHUNK, LLC_CHUNK, "three chunks grow");
        for ops in [
            0,
            FIRST_CHUNK - 1,
            FIRST_CHUNK,
            FIRST_CHUNK + 1,
            grown - 1,
            grown,
            grown + LLC_CHUNK,
            grown + LLC_CHUNK + 1,
            grown + 3 * LLC_CHUNK + 7,
        ] {
            let lens = sent_chunk_lens(&cfg, ops);
            assert_eq!(lens, chunk_lens(ops), "{ops} ops");
            assert_eq!(lens.iter().sum::<usize>(), ops, "{ops} ops");
            assert!(lens.iter().all(|&n| n > 0), "{ops} ops: {lens:?}");
            for kind in [PolicyKind::Lru, PolicyKind::Drrip] {
                let mut live = Hierarchy::new(&cfg, |s, w| kind.build(s, w));
                exact_ops(&mut live, ops).unwrap();
                let piped = pipelined(
                    &cfg,
                    1,
                    || Llc::new(&cfg, |s, w| kind.build(s, w)),
                    |h| exact_ops(h, ops),
                );
                assert_eq!(piped, Ok(live.stats()), "{kind:?}, {ops} ops");
            }
        }
    }

    /// Picks one way past the last replaceable one, as a buggy policy might.
    struct RogueVictim;

    impl ReplacementPolicy for RogueVictim {
        fn name(&self) -> String {
            "rogue".to_string()
        }
        fn on_hit(&mut self, _set: usize, _way: usize, _meta: &AccessMeta) {}
        fn on_fill(&mut self, _set: usize, _way: usize, _meta: &AccessMeta) {}
        fn victim(&mut self, ctx: &crate::VictimCtx<'_>) -> usize {
            ctx.ways.len()
        }
    }

    /// Runs `f` on its own thread and returns its result or its panic's
    /// message, failing the test if it has not settled within a minute.
    fn settles<T: Send + 'static>(
        f: impl FnOnce() -> T + Send + 'static,
    ) -> Result<T, Option<String>> {
        let (sender, outcome) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = sender.send(std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)));
        });
        let settled = outcome
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the pipelined run hung");
        settled.map_err(|panic| {
            panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
        })
    }

    fn lru_llc(cfg: &HierarchyConfig) -> Llc {
        Llc::new(cfg, |sets, ways| PolicyKind::Lru.build(sets, ways))
    }

    #[test]
    fn a_panic_on_the_llc_thread_reaches_the_caller() {
        // The stream is many times the channel's depth, so the recorder
        // keeps sending long after the LLC thread has died.
        let outcome = settles(|| {
            let cfg = HierarchyConfig::small_test();
            pipelined(
                &cfg,
                1,
                || Llc::new(&cfg, |_, _| Box::new(RogueVictim)),
                |h| exact_ops(h, 20 * PIPELINE_DEPTH * LLC_CHUNK),
            )
        });
        let message = outcome.expect_err("a rogue victim must panic");
        assert!(
            message
                .as_deref()
                .is_some_and(|m| m.contains("beyond data ways")),
            "{message:?}"
        );
    }

    #[test]
    fn a_failed_drive_returns_its_error() {
        let outcome = settles(|| {
            let cfg = HierarchyConfig::small_test();
            pipelined(
                &cfg,
                1,
                || lru_llc(&cfg),
                |h| {
                    exact_ops(h, 5 * LLC_CHUNK)?;
                    Err("trace ended early".to_string())
                },
            )
        });
        assert_eq!(outcome, Ok(Err("trace ended early".to_string())));
    }

    #[test]
    fn one_llc_thread_serves_groups_after_failed_and_panicking_drives() {
        // A session worker's LLC thread outlives each group it serves,
        // including one whose drive failed and one whose drive panicked.
        let outcome = settles(|| {
            let cfg = HierarchyConfig::small_test();
            let ops = 3 * LLC_CHUNK + 5;
            std::thread::scope(|scope| {
                let llc_thread = LlcThread::spawn(scope);
                let group = |drive: &dyn Fn(&mut Recorder) -> Result<(), String>| {
                    let llcs = vec![GroupLlc::Live(|| lru_llc(&cfg))];
                    Hierarchy::group(&llc_thread, &cfg, 1, llcs, drive)
                };
                let failed = group(&|h| {
                    exact_ops(h, ops)?;
                    Err("trace ended early".to_string())
                });
                let panicked = catch_unwind(AssertUnwindSafe(|| {
                    group(&|h| {
                        exact_ops(h, ops)?;
                        panic!("kernel bug")
                    })
                }));
                let run = group(&|h| exact_ops(h, ops)).unwrap();
                let stats = run.members.into_iter().map(|m| m.stats.ok());
                (failed.err(), panicked.is_err(), stats.collect::<Vec<_>>())
            })
        });
        let cfg = HierarchyConfig::small_test();
        let mut live = lru_hierarchy(&cfg);
        exact_ops(&mut live, 3 * LLC_CHUNK + 5).unwrap();
        assert_eq!(
            outcome,
            Ok((
                Some("trace ended early".to_string()),
                true,
                vec![Some(live.stats())]
            ))
        );
    }

    #[test]
    fn a_panicking_drive_propagates_its_panic() {
        let outcome = settles(|| {
            let cfg = HierarchyConfig::small_test();
            pipelined(
                &cfg,
                1,
                || lru_llc(&cfg),
                |h| -> Result<(), String> {
                    exact_ops(h, 5 * LLC_CHUNK)?;
                    panic!("kernel bug")
                },
            )
        });
        assert_eq!(outcome, Err(Some("kernel bug".to_string())));
    }

    #[test]
    fn a_group_serves_every_llc_and_fails_a_panicking_one_alone() {
        // One recording feeds LRU, a rogue policy, Belady and DRRIP at
        // once: the rogue LLC's panic fails it alone, and every other
        // member reports the stats of its own live run.
        let cfg = HierarchyConfig::small_test();
        fn drive<S: LlcSink>(h: &mut PrivateLevels<S>) -> Result<(), Infallible> {
            for i in 0..30_000u32 {
                let addr = 0x40_0000 + (u64::from(i).wrapping_mul(0x9e37_79b9) % 5000) * 64;
                h.event(if i % 3 == 0 {
                    TraceEvent::write(addr, i % 5)
                } else {
                    TraceEvent::read(addr, i % 5)
                });
            }
            Ok(())
        }
        // `None` builds the rogue LLC.
        let cfg = &cfg;
        let live = |kind: Option<PolicyKind>| {
            GroupLlc::Live(move || match kind {
                Some(kind) => Llc::new(cfg, |s, w| kind.build(s, w)),
                None => Llc::new(cfg, |_, _| Box::new(RogueVictim)),
            })
        };
        let llcs = vec![
            live(Some(PolicyKind::Lru)),
            live(None),
            GroupLlc::Belady(cfg.clone()),
            live(Some(PolicyKind::Drrip)),
        ];
        let Ok(run) = run_group(cfg, 1, llcs, drive);
        let [lru, rogue, belady, drrip] = <[MemberRun; 4]>::try_from(run.members).unwrap();
        for (member, kind) in [(lru, PolicyKind::Lru), (drrip, PolicyKind::Drrip)] {
            let mut rerun = Hierarchy::new(cfg, |s, w| kind.build(s, w));
            let Ok(()) = drive(&mut rerun);
            assert_eq!(member.stats.ok(), Some(rerun.stats()), "{kind:?}");
        }
        let lines = demand_lines(cfg, |h| {
            let Ok(()) = drive(h);
        });
        let mut rerun = Hierarchy::new(cfg, |sets, ways| {
            Box::new(Belady::from_trace(sets, ways, &lines))
        });
        let Ok(()) = drive(&mut rerun);
        assert_eq!(belady.stats.ok(), Some(rerun.stats()));
        let payload = rogue.stats.expect_err("a rogue victim must panic");
        let message = panic_text(payload.as_ref());
        assert!(
            message.is_some_and(|m| m.contains("beyond data ways")),
            "{message:?}"
        );
    }

    #[test]
    #[should_panic(expected = "Belady needs a single-bank LLC")]
    fn belady_refuses_a_banked_llc() {
        let mut cfg = HierarchyConfig::small_test();
        cfg.nuca = NucaConfig::uniform(2);
        let llcs = vec![GroupLlc::<fn() -> Llc>::Belady(cfg.clone())];
        let Ok(run) = run_group(&cfg, 1, llcs, |_| Ok::<(), Infallible>(()));
        for member in run.members {
            member_stats(member);
        }
    }

    #[test]
    fn reserved_ways_reduce_capacity() {
        let cfg = HierarchyConfig::scaled_with_llc(16 * 1024, 8);
        let reserved = cfg.clone().with_reserved_ways(4);
        let addrs: Vec<u64> = (0..40u64).map(|i| 0x20_0000 + i * 64).collect();
        let run = |c: &HierarchyConfig| {
            let mut h = lru_hierarchy(c);
            for _ in 0..50 {
                for &a in &addrs {
                    h.event(TraceEvent::read(a, 0));
                }
            }
            h.stats().llc.misses
        };
        assert!(run(&reserved) >= run(&cfg));
    }

    #[test]
    fn cores_have_private_l1s_but_share_the_llc() {
        let cfg = HierarchyConfig::scaled_table1();
        let mut h = Hierarchy::with_cores(&cfg, 2, |s, w| PolicyKind::Lru.build(s, w));
        // Core 0 touches a line; core 1 touching it misses L1 but hits LLC.
        h.event(TraceEvent::read(0x9000, 0));
        h.event(TraceEvent::Core(1));
        h.event(TraceEvent::read(0x9000, 0));
        let s = h.stats();
        assert_eq!(s.l1.hits, 0, "private L1s cannot share");
        assert_eq!(s.llc.hits, 1, "the LLC is shared");
        assert_eq!(s.llc.misses, 1);
    }

    #[test]
    fn core_ids_wrap_modulo_core_count() {
        let cfg = HierarchyConfig::scaled_table1();
        let mut h = Hierarchy::with_cores(&cfg, 2, |s, w| PolicyKind::Lru.build(s, w));
        h.event(TraceEvent::Core(5)); // 5 % 2 == 1
        h.event(TraceEvent::read(0x9000, 0));
        h.event(TraceEvent::Core(1));
        h.event(TraceEvent::read(0x9000, 0));
        assert_eq!(h.stats().l1.hits, 1, "both events hit core 1's L1");
    }

    #[test]
    fn prefetch_fills_warm_the_llc_without_demand_stats() {
        let cfg = HierarchyConfig::scaled_table1();
        let mut h = lru_hierarchy(&cfg);
        h.prefetch_fill(0x7000);
        let s = h.stats();
        assert_eq!(s.llc.demand_accesses(), 0);
        assert_eq!(s.prefetch_fills, 1);
        // A later demand access hits in the LLC (missing both L1 and L2).
        h.event(TraceEvent::read(0x7000, 0));
        assert_eq!(h.stats().llc.hits, 1);
        // Prefetching a resident line is a no-op.
        h.prefetch_fill(0x7000);
        assert_eq!(h.stats().prefetch_fills, 1);
    }

    #[test]
    fn writes_invalidate_other_cores_copies() {
        let cfg = HierarchyConfig::scaled_table1();
        let mut h = Hierarchy::with_cores(&cfg, 2, |s, w| PolicyKind::Lru.build(s, w));
        // Core 0 reads a line; core 1 writes it; core 0's next read must
        // miss its private levels again.
        h.event(TraceEvent::read(0x9000, 0));
        h.event(TraceEvent::Core(1));
        h.event(TraceEvent::write(0x9000, 0));
        h.event(TraceEvent::Core(0));
        h.event(TraceEvent::read(0x9000, 0));
        let s = h.stats();
        assert_eq!(s.coherence_invalidations, 1);
        assert_eq!(s.l1.hits, 0, "the stale copy must not hit");
        assert!(s.llc.hits >= 2, "re-reads are served by the shared LLC");
    }

    #[test]
    fn single_core_never_pays_coherence() {
        let cfg = HierarchyConfig::scaled_table1();
        let mut h = lru_hierarchy(&cfg);
        for i in 0..100u64 {
            h.event(TraceEvent::write(0x9000 + i * 64, 0));
        }
        assert_eq!(h.stats().coherence_invalidations, 0);
    }

    #[test]
    fn dirty_victims_propagate_toward_dram() {
        // Write lines until L1 and L2 overflow; every dirty victim must end
        // up either dirtying an LLC line or counted as a DRAM writeback —
        // none may vanish.
        let cfg = HierarchyConfig::small_test();
        let mut h = lru_hierarchy(&cfg);
        let lines = 4096u64; // 256 KB of distinct dirty lines >> hierarchy
        for i in 0..lines {
            h.event(TraceEvent::write(0x40_0000 + i * 64, 0));
        }
        // Second pass of reads evicts more dirty lines from the LLC.
        for i in 0..lines {
            h.event(TraceEvent::read(0x80_0000 + i * 64, 0));
        }
        let s = h.stats();
        assert!(
            s.llc.writebacks + s.dram_writebacks > 0,
            "dirty data must reach DRAM eventually"
        );
        // Conservation: every line written was dirtied exactly once, so
        // total writebacks cannot exceed the dirty-line count.
        assert!(s.llc.writebacks + s.dram_writebacks <= lines);
    }

    #[test]
    fn clean_victims_produce_no_writebacks() {
        let cfg = HierarchyConfig::small_test();
        let mut h = lru_hierarchy(&cfg);
        for i in 0..4096u64 {
            h.event(TraceEvent::read(0x40_0000 + i * 64, 0));
        }
        let s = h.stats();
        assert_eq!(s.llc.writebacks, 0);
        assert_eq!(s.dram_writebacks, 0);
    }

    #[test]
    #[should_panic(expected = "17 NUCA banks exceed the 16 per-bank access counters")]
    fn more_banks_than_counters_are_refused() {
        let mut cfg = HierarchyConfig::scaled_table1();
        cfg.llc = crate::CacheConfig::new(17 * 16 * 64, 16);
        cfg.nuca = NucaConfig::uniform(17);
        let _ = lru_hierarchy(&cfg);
    }

    #[test]
    fn sixteen_banks_each_keep_their_own_counter() {
        let mut cfg = HierarchyConfig::scaled_table1();
        cfg.nuca = NucaConfig::uniform(16);
        let mut h = lru_hierarchy(&cfg);
        for i in 0..4096u64 {
            h.event(TraceEvent::read(0x10_0000 + i * 64, 0));
        }
        let s = h.stats();
        assert_eq!(s.bank_accesses, [256; 16]);
        assert_eq!(s.check(), Ok(()));
    }

    #[test]
    fn paper_table1_banks_index_sets_by_modulo() {
        // Table I: 8 banks of 3072 sets (not a power of two), line
        // interleaved, so line `k * 8 * 3072` is bank 0's local line
        // `k * 3072`: set 0 of bank 0 for every k. The same lines also
        // share set 0 of L1 (64 sets) and L2 (512 sets), so every access
        // reaches the LLC.
        let cfg = HierarchyConfig::paper_table1();
        assert_eq!(cfg.llc_bank().num_sets(), 3072);
        let run = |distinct: u64| {
            let mut h = lru_hierarchy(&cfg);
            for _ in 0..2 {
                for k in 0..distinct {
                    h.event(TraceEvent::read(k * 8 * 3072 * 64, 0));
                }
            }
            let s = h.stats();
            assert_eq!(s.check(), Ok(()));
            assert_eq!(s.bank_accesses[0], 2 * distinct, "bank 0 takes them all");
            s.llc
        };
        // 16 lines fit the 16-way set: the second pass hits throughout.
        let fits = run(16);
        assert_eq!((fits.hits, fits.misses, fits.evictions), (16, 16, 0));
        // A 17th line in the same set makes cyclic LRU miss every time.
        let thrashes = run(17);
        assert_eq!((thrashes.hits, thrashes.misses), (0, 34));
        assert_eq!(thrashes.evictions, 34 - 16);
    }

    #[test]
    fn simulated_runs_obey_the_conservation_laws() {
        // Dirty traffic, two cores and coherence, a context switch and
        // prefetch fills on a banked LLC: every law still holds.
        let mut cfg = HierarchyConfig::small_test();
        cfg.nuca = NucaConfig::uniform(2);
        let mut h = Hierarchy::with_cores(&cfg, 2, |s, w| PolicyKind::Drrip.build(s, w));
        two_core_drive(&mut h);
        let s = h.stats();
        assert!(
            s.prefetch_fills > 0 && s.coherence_invalidations > 0,
            "{s:?}"
        );
        assert_eq!(s.check(), Ok(()));
    }

    #[test]
    fn context_switch_flushes_demand_data() {
        let cfg = HierarchyConfig::scaled_table1();
        let mut h = lru_hierarchy(&cfg);
        h.event(TraceEvent::read(0x5000, 0));
        h.context_switch();
        h.event(TraceEvent::read(0x5000, 0));
        let s = h.stats();
        assert_eq!(
            s.llc.misses, 2,
            "the line must be refetched after the switch"
        );
        assert_eq!(s.l1.hits + s.l2.hits + s.llc.hits, 0);
    }
}
