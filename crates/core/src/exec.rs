//! The schedule executor: runs any [`Schedule`] over the multicomputer.
//!
//! Every method uses this single code path, so cross-method comparisons
//! measure schedules, not implementation accidents. Per step, a rank:
//!
//! 1. encodes each span it sends straight off the frame's span slice
//!    (charging the codec's bytes to the `Encode` compute account);
//! 2. receives each incoming span and streams it through the codec's fused
//!    [`rt_compress::Codec::decode_over`] kernel directly into the
//!    destination slice, charging `To` per composited pixel (`Over`);
//! 3. at each flush point ([`crate::schedule::Step::flush`], and after the
//!    last step), flushes deferred back accumulators;
//! 4. finally, the owners ship their fully-composited spans to the gather
//!    root, which assembles the output frame.
//!
//! Phase marks ([`rt_comm::mark`]: `compose:start`, `step:K`,
//! `flush:start`, `compose:end`, `gather:end`) delimit the stages for the
//! virtual-clock replay and let both clocks attribute every charge to a
//! step and phase; every message tag comes from [`rt_comm::tag`].
//!
//! Deferred-back accumulators and gather staging reuse buffers from a
//! per-rank [`Scratch`], so the steady state of an animation allocates
//! nothing per transfer. The encode → charge → send and receive → charge →
//! merge sequences live once, in `Stage`, and the tail every plan family
//! ends with (ownership count, root or wall gather, output) in `finish` —
//! the tile executor calls the same two.

use crate::display::{span_cell_segments, DisplayWall};
use crate::repair::{agree_on_failures, repair, DegradedInfo};
use crate::schedule::{MergeDir, Schedule};
use crate::CoreError;
use rt_comm::{tag, CommError, ComputeKind, FaultPlan, Mark, Multicomputer, RankCtx, Trace};
use rt_compress::{Codec, CodecKind, OverDir};
use rt_imaging::pixel::{OverStats, Pixel};
use rt_imaging::{Image, Span};
use rt_net::TcpMulticomputer;
use rt_obs::{Observer, Phase};
use std::any::Any;
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Which communication backend carries the composition's messages.
///
/// The choice is invisible to the algorithm: the reliable-delivery
/// envelope, fault injection and event tracing all live above the
/// transport in `rt-comm`, so the composed frames **and the trace** are
/// bit-identical across backends. Only wall-clock behavior differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// In-process channels between threads of one address space
    /// (default): fastest, zero-copy payload hand-off.
    #[default]
    InProc,
    /// Loopback TCP sockets (`rt-net`): every transfer crosses a real
    /// socket with length-prefixed framing, exercising the path a
    /// distributed deployment takes. Multi-process worlds use the same
    /// backend through `rt-net`'s rendezvous instead of this selector.
    TcpLoopback,
}

/// Execution options for [`crate::compose_plan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComposeConfig {
    /// Message codec applied to every transfer (and the gather).
    pub codec: CodecKind,
    /// Rank that assembles the final frame.
    pub root: usize,
    /// Whether to run the final gather (the paper's collection stage).
    /// When `false`, the composed pieces stay distributed and only the
    /// owners' local frames are meaningful.
    pub gather: bool,
    /// Degrade gracefully on confirmed rank failures instead of erroring:
    /// skip dead peers' contributions, re-pair the survivors via
    /// [`crate::repair()`], and report what is missing in
    /// [`ComposeOutput::degraded`]. A span schedule's ranks each keep a copy
    /// of their partial for the frame, so only dead ranks' data can go.
    pub resilient: bool,
    /// Receive-deadline override for the harnesses that build their own
    /// machine ([`crate::Run`] and `rt-pvr`'s pipeline). `None` keeps the
    /// comm layer's default.
    pub timeout: Option<Duration>,
    /// Which communication backend the execution harnesses build
    /// ([`crate::Run`], `rt-pvr`'s pipeline). Frames and traces are
    /// identical on either setting.
    pub transport: TransportKind,
    /// Frame-namespace bits OR'd into every message tag of this compose
    /// (see [`rt_comm::tag::frame_base`]). `0` (the default, and frame 0 of
    /// a stream) reproduces the classic single-frame tags exactly; a
    /// streaming pipeline sets a distinct base per in-flight frame so two
    /// frames' transfers, repairs and gathers never collide in the tag
    /// space while sharing one live multicomputer.
    pub frame_tag: u64,
    /// Gather to a tiled display wall instead of the single root: each
    /// display rank assembles its own cell of the virtual framebuffer
    /// (see [`crate::display::DisplayWall`]). `None` (default) keeps the
    /// classic root gather. Ignored when [`ComposeConfig::gather`] is off.
    pub display: Option<DisplayWall>,
}

impl Default for ComposeConfig {
    fn default() -> Self {
        Self {
            codec: CodecKind::Raw,
            root: 0,
            gather: true,
            resilient: false,
            timeout: None,
            transport: TransportKind::default(),
            frame_tag: 0,
            display: None,
        }
    }
}

impl ComposeConfig {
    /// Set the message codec.
    pub fn with_codec(mut self, codec: CodecKind) -> Self {
        self.codec = codec;
        self
    }

    /// Set the gather root.
    pub fn with_root(mut self, root: usize) -> Self {
        self.root = root;
        self
    }

    /// Enable or disable the final gather.
    pub fn with_gather(mut self, gather: bool) -> Self {
        self.gather = gather;
        self
    }

    /// Enable graceful degradation on rank failures.
    pub fn resilient(mut self, on: bool) -> Self {
        self.resilient = on;
        self
    }

    /// Override the receive deadline used by the execution harnesses.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Select the communication backend the harnesses build.
    pub fn with_transport(mut self, transport: TransportKind) -> Self {
        self.transport = transport;
        self
    }

    /// Namespace this compose's tags as frame `frame` of a stream (frame 0
    /// is the identity — identical tags to a non-streaming run).
    pub fn with_frame(mut self, frame: u64) -> Self {
        self.frame_tag = tag::frame_base(frame);
        self
    }

    /// Gather to a tiled display wall instead of the single root (also
    /// re-enables the gather stage).
    pub fn with_display_wall(mut self, wall: DisplayWall) -> Self {
        self.display = Some(wall);
        self.gather = true;
        self
    }
}

/// A backend-selected machine: one constructor call instead of a
/// `match` at every harness, so [`crate::Run`] and `rt-pvr`'s pipeline
/// swap transports by flipping [`ComposeConfig::transport`].
pub enum Machine {
    /// Threads joined by in-process channels ([`rt_comm::Multicomputer`]).
    InProc(Multicomputer),
    /// The same machine over loopback TCP sockets
    /// ([`rt_net::TcpMulticomputer`]).
    Tcp(TcpMulticomputer),
}

impl Machine {
    /// Build a machine of `p` ranks on the backend `config.transport`
    /// selects, with the config's timeout, the given fault plan, and an
    /// optional wall-clock observer installed.
    pub fn build(
        p: usize,
        config: &ComposeConfig,
        faults: FaultPlan,
        observer: Option<Arc<Observer>>,
    ) -> Machine {
        Machine::build_with_topology(p, config, faults, observer, None)
    }

    /// [`Machine::build`] with an optional connection [`rt_net::Topology`]
    /// for the TCP backend: a plan that knows its communication graph
    /// restricts establishment to exactly those links (`O(edges)` sockets
    /// instead of the full `O(P²)` mesh). Ignored by the in-process
    /// backend, which has no sockets to save.
    pub fn build_with_topology(
        p: usize,
        config: &ComposeConfig,
        faults: FaultPlan,
        observer: Option<Arc<Observer>>,
        topology: Option<rt_net::Topology>,
    ) -> Machine {
        let mut ranks = Multicomputer::new(p).with_faults(faults);
        if let Some(timeout) = config.timeout {
            ranks = ranks.with_timeout(timeout);
        }
        if let Some(observer) = observer {
            ranks = ranks.with_observer(observer);
        }
        match config.transport {
            TransportKind::InProc => Machine::InProc(ranks),
            TransportKind::TcpLoopback => {
                let tcp = TcpMulticomputer::from(ranks);
                Machine::Tcp(match topology {
                    Some(topology) => tcp.with_topology(topology),
                    None => tcp,
                })
            }
        }
    }

    /// Run `f` on every rank concurrently; returns the per-rank results
    /// and the merged event trace. Either backend launches the ranks
    /// through [`rt_comm::Multicomputer::run_on`].
    pub fn run<T, F>(&self, f: F) -> (Vec<T>, Trace)
    where
        T: Send,
        F: Fn(&mut RankCtx) -> T + Send + Sync,
    {
        match self {
            Machine::InProc(mc) => mc.run(f),
            Machine::Tcp(mc) => mc.run(f),
        }
    }
}

/// Per-rank reusable buffers for the executors.
///
/// Holding one `Scratch` across [`crate::compose_plan`] calls (one per
/// frame of an animation) lets deferred-back accumulators and the gather
/// staging buffer reach a steady state where no per-transfer allocation
/// happens at all. A fresh `Scratch` is still correct — the first frame
/// merely pays the allocations once.
#[derive(Debug)]
pub struct Scratch<P: Pixel> {
    /// Staging for concatenated spans about to be encoded (gathers, tiles).
    gather_pixels: Vec<P>,
    /// Retired deferred-back accumulators awaiting reuse.
    spare_accs: Vec<Vec<P>>,
}

impl<P: Pixel> Default for Scratch<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: Pixel> Scratch<P> {
    /// An empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self {
            gather_pixels: Vec::new(),
            spare_accs: Vec::new(),
        }
    }

    /// A blank-filled accumulator of `len` pixels, reusing a retired
    /// buffer when one is available. Reuses and fresh allocations are
    /// tallied as pool hits/misses on observed runs.
    pub(crate) fn take_acc(&mut self, len: usize, ctx: &mut RankCtx) -> Vec<P> {
        let reused = !self.spare_accs.is_empty();
        ctx.obs_counters(|c| {
            if reused {
                c.pool_hits += 1;
            } else {
                c.pool_misses += 1;
            }
        });
        let mut buf = self.spare_accs.pop().unwrap_or_default();
        buf.clear();
        buf.resize(len, P::blank());
        buf
    }

    /// Retire an accumulator for later reuse.
    pub(crate) fn put_acc(&mut self, buf: Vec<P>) {
        self.spare_accs.push(buf);
    }
}

/// A shared store of per-rank [`Scratch`] buffers, for harnesses that run
/// many composes (the animation pipeline): each rank checks its scratch
/// out for the duration of a frame and back in afterwards, so buffers
/// persist across frames without any cross-rank sharing.
///
/// Besides the scratch the pool has one *carried slot*: a single
/// type-erased value its caller keeps from frame to frame (rt-pvr puts a
/// session's generated volume and classified slabs there — a type this
/// crate cannot name). The pool never reads it; [`ScratchPool::carry`]
/// replaces whatever was there, so a pool holds at most one.
#[derive(Debug, Default)]
pub struct ScratchPool<P: Pixel> {
    slots: Mutex<HashMap<usize, Scratch<P>>>,
    fresh: std::sync::atomic::AtomicU64,
    carried: Mutex<Option<Arc<dyn Any + Send + Sync>>>,
}

impl<P: Pixel> ScratchPool<P> {
    /// An empty pool.
    pub fn new() -> Self {
        Self {
            slots: Mutex::new(HashMap::new()),
            fresh: std::sync::atomic::AtomicU64::new(0),
            carried: Mutex::new(None),
        }
    }

    /// Take rank `rank`'s scratch (fresh if none was checked in yet).
    pub fn checkout(&self, rank: usize) -> Scratch<P> {
        match self
            .slots
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&rank)
        {
            Some(scratch) => scratch,
            None => {
                self.fresh
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                Scratch::new()
            }
        }
    }

    /// How many checkouts found no checked-in scratch and allocated a
    /// fresh one. In a steady-state animation this counts the first
    /// frame's `p` checkouts and then stays flat — the pool-reuse
    /// invariant the orbit and streaming paths assert.
    pub fn fresh_checkouts(&self) -> u64 {
        self.fresh.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Return rank `rank`'s scratch for the next frame.
    pub fn checkin(&self, rank: usize, scratch: Scratch<P>) {
        self.slots
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(rank, scratch);
    }

    /// The carried value, if there is one and it is a `T`.
    pub fn carried<T: Any + Send + Sync>(&self) -> Option<Arc<T>> {
        let value = self
            .carried
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()?;
        value.downcast().ok()
    }

    /// Carry `value` from now on, in place of whatever was carried before.
    pub fn carry<T: Any + Send + Sync>(&self, value: Arc<T>) {
        *self.carried.lock().unwrap_or_else(|e| e.into_inner()) = Some(value);
    }
}

/// What one rank gets back from [`crate::compose_plan`].
#[derive(Debug, Clone, PartialEq)]
pub struct ComposeOutput<P: Pixel> {
    /// The assembled frame (root only, and only if `gather` was requested).
    pub frame: Option<Image<P>>,
    /// Pixels this rank finally owned (its contribution to the gather).
    pub owned_pixels: usize,
    /// The final ownership map the run actually used — the schedule's
    /// `final_owners` after any failure repair reassignments. Rank ids are
    /// world-local (the machine the schedule ran on). Empty when this rank
    /// itself crashed. Callers that skip the gather can use it to collect
    /// the distributed result themselves.
    pub owners: Vec<(Span, usize)>,
    /// This rank's working image after composition, returned so a caller
    /// running a larger protocol (a custom collection) can read the spans
    /// `owners` assigns to this rank. `None` only when this rank crashed.
    pub residual: Option<Image<P>>,
    /// `Some` when the run completed without the full set of
    /// contributions: rank failures occurred and the frame is the exact
    /// composite of the survivors (or this rank itself crashed).
    pub degraded: Option<DegradedInfo>,
}

impl<P: Pixel> ComposeOutput<P> {
    /// What a rank reports about itself after stopping: nothing owned, no
    /// residual, and `degraded` (usually [`DegradedInfo::self_crash`]).
    pub(crate) fn dead(degraded: DegradedInfo) -> Self {
        ComposeOutput {
            frame: None,
            owned_pixels: 0,
            owners: Vec::new(),
            residual: None,
            degraded: Some(degraded),
        }
    }

    /// Fail-stop this rank at its planned crash `step`: announce the death
    /// to the peers, close the timeline and report the self-crash.
    pub(crate) fn crash(ctx: &mut RankCtx, step: usize) -> Self {
        ctx.announce_death(step);
        ctx.mark(Mark::ComposeCrashed);
        Self::dead(DegradedInfo::self_crash(ctx.rank(), step))
    }
}

/// What every stage of one compose call shares: the config and the built
/// codec. It owns the two sequences every executor repeats — encode →
/// charge → count → send, and charge → fused decode → count — so each
/// virtual-clock charge is written once for all plan families.
pub(crate) struct Stage<'a, P: Pixel> {
    /// The compose call's options.
    pub config: &'a ComposeConfig,
    codec: Box<dyn Codec<P>>,
    /// Raw buffers carry no blank structure, so `over` is charged for the
    /// full span and the codec accounts stay empty.
    pub raw: bool,
}

impl<'a, P: Pixel> Stage<'a, P> {
    pub fn new(config: &'a ComposeConfig) -> Self {
        Stage {
            config,
            codec: config.codec.build::<P>(),
            raw: config.codec == CodecKind::Raw,
        }
    }

    /// Encode `pixels` and charge the codec's work: the sending half of
    /// every message. `started` opens the wall-clock `Encode` span (callers
    /// that stage the pixels first start it before the copy).
    pub fn encode(&self, ctx: &mut RankCtx, started: Option<Instant>, pixels: &[P]) -> Vec<u8> {
        let encoded = self.codec.encode(pixels);
        ctx.obs_span(Phase::Encode, started);
        if !self.raw {
            ctx.compute(ComputeKind::Encode, encoded.raw_bytes as u64);
        }
        let wire = encoded.bytes.len() as u64;
        ctx.obs_counters(|c| c.add_wire_bytes(self.config.codec.name(), wire));
        encoded.bytes
    }

    /// [`Stage::encode`] `pixels` and send the codec's buffer, uncopied, to
    /// `dst`.
    pub fn ship(
        &self,
        ctx: &mut RankCtx,
        pixels: &[P],
        dst: usize,
        tag: u64,
    ) -> Result<(), CoreError> {
        let started = ctx.obs_start();
        let bytes = self.encode(ctx, started, pixels);
        ctx.send(dst, tag, bytes)?;
        Ok(())
    }

    /// [`Stage::encode`] for several `spans` of `local` as ONE stream: the
    /// spans are concatenated, in order, in the reusable staging buffer.
    pub fn encode_spans(
        &self,
        ctx: &mut RankCtx,
        scratch: &mut Scratch<P>,
        local: &Image<P>,
        spans: impl IntoIterator<Item = Span>,
    ) -> Result<Vec<u8>, CoreError> {
        let started = ctx.obs_start();
        scratch.gather_pixels.clear();
        for span in spans {
            scratch
                .gather_pixels
                .extend_from_slice(local.span_pixels(span)?);
        }
        Ok(self.encode(ctx, started, &scratch.gather_pixels))
    }

    /// Decoding walks the *encoded* stream, so the compute charge is the
    /// wire size, not the decompressed size — a compressed message must
    /// cost less to decode, or the paper's claim that compression cuts
    /// composition time (Section 3) is mispriced.
    pub fn charge_decode(&self, ctx: &mut RankCtx, bytes: &[u8]) {
        if !self.raw {
            ctx.compute(ComputeKind::Decode, bytes.len() as u64);
        }
    }

    /// Stream a received message through the fused decode+`over` kernel
    /// directly into `dst` — no decoded `Vec` — and charge it.
    ///
    /// Blank pixels are the identity of `over`; the structured codecs
    /// (TRLE templates, RLE runs, bounding intervals) identify blank
    /// regions during decode, so — as the paper argues in Section 1 —
    /// compression reduces the composition *computation* as well as the
    /// traffic: only the non-blank pixels cost an `over`. Raw buffers
    /// carry no such structure and are charged for the full span.
    pub fn merge(
        &self,
        ctx: &mut RankCtx,
        bytes: &[u8],
        dst: &mut [P],
        dir: OverDir,
    ) -> Result<(), CoreError> {
        self.charge_decode(ctx, bytes);
        let started = ctx.obs_start();
        let stats = self.codec.decode_over(bytes, dst, dir)?;
        ctx.obs_span(Phase::Over, started);
        self.count_stream(ctx, &stats, stats.non_blank);
        let over_units = if self.raw { dst.len() } else { stats.non_blank };
        ctx.compute(ComputeKind::Over, over_units as u64);
        Ok(())
    }

    /// Decode a received message as an exact copy into the blank `dst`
    /// (`over` in front of a blank destination copies) — the gather and
    /// placement receive: a decode charge, no `over` charge.
    pub fn unpack(&self, ctx: &mut RankCtx, bytes: &[u8], dst: &mut [P]) -> Result<(), CoreError> {
        self.charge_decode(ctx, bytes);
        let stats = self.codec.decode_over(bytes, dst, OverDir::Front)?;
        self.count_stream(ctx, &stats, 0);
        Ok(())
    }

    /// Tally one decoded stream on the observability kernel counters;
    /// `merged` of its non-blank pixels were composited (none when the
    /// stream was only copied).
    fn count_stream(&self, ctx: &mut RankCtx, stats: &OverStats, merged: usize) {
        ctx.obs_counters(|c| {
            c.non_blank_merged += merged as u64;
            c.blank_skipped += stats.blank_skipped as u64;
            c.opaque_fast += stats.opaque_fast as u64;
        });
    }
}

/// Copy the concatenated `pixels` back out to `spans` of `image`, in order
/// — the inverse of the staging [`Stage::encode_spans`] does.
pub(crate) fn scatter<P: Pixel>(
    image: &mut Image<P>,
    spans: impl IntoIterator<Item = Span>,
    pixels: &[P],
) -> Result<(), CoreError> {
    let mut at = 0usize;
    for span in spans {
        image.insert(span, &pixels[at..at + span.len])?;
        at += span.len;
    }
    Ok(())
}

/// Execute `schedule` on this rank with `local` as the rank's rendered
/// partial image. Depth order is rank order (rank 0 nearest the viewer);
/// callers with a different depth order permute ranks beforehand (see
/// `rt-pvr`). The caller ([`crate::compose_plan`]) has checked the shapes.
pub(crate) fn compose_schedule<P: Pixel>(
    ctx: &mut RankCtx,
    stage: &Stage<P>,
    schedule: &Schedule,
    mut local: Image<P>,
    scratch: &mut Scratch<P>,
) -> Result<ComposeOutput<P>, CoreError> {
    let me = ctx.rank();
    let config = stage.config;

    // Fail-stop point for this rank, if the fault plan crashes it within
    // this schedule (a step index, or `steps.len()` for "after the last
    // step, before the gather"). Only honored in resilient mode.
    let steps_len = schedule.steps.len();
    let my_crash = if config.resilient {
        ctx.my_crash_step().filter(|k| *k <= steps_len)
    } else {
        None
    };

    ctx.mark(Mark::ComposeStart);

    // Deferred back accumulators, keyed by span start.
    let mut back_acc: HashMap<usize, (Span, Vec<P>)> = HashMap::new();
    // A resilient rank keeps its rendered partial aside: its own content on
    // spans it never shipped is the one thing no send-time archive holds,
    // and a merge behind a dead relay's hole would bury it (see
    // `crate::repair`).
    let own = config.resilient.then(|| local.clone());

    for (k, step) in schedule.steps.iter().enumerate() {
        if my_crash == Some(k) {
            return Ok(ComposeOutput::crash(ctx, k));
        }
        // Step boundary for phase attribution (wall and virtual spans
        // alike).
        ctx.mark(Mark::Step(k as u32));
        // Ship all sends first (non-blocking), then consume receives: the
        // pairwise exchanges of every method progress without deadlock.
        for t in step.sends_of(me) {
            let tag = tag::step(config.frame_tag, k, t.span.start);
            stage.ship(ctx, local.span_pixels(t.span)?, t.dst, tag)?;
        }
        for t in step.recvs_of(me) {
            let bytes = match ctx.recv(t.src, tag::step(config.frame_tag, k, t.span.start)) {
                Ok(bytes) => bytes,
                // A confirmed-dead peer's contribution is skipped: `over`
                // is associative, so the composite of the remaining
                // members stays exact (see `crate::repair`).
                Err(CommError::RankFailed { .. }) if config.resilient => continue,
                Err(e) => return Err(e.into()),
            };
            match t.dir {
                MergeDir::Front => {
                    stage.merge(ctx, &bytes, local.span_pixels_mut(t.span)?, OverDir::Front)?
                }
                MergeDir::Back => {
                    stage.merge(ctx, &bytes, local.span_pixels_mut(t.span)?, OverDir::Back)?
                }
                MergeDir::BackDefer => {
                    let (acc_span, acc) = match back_acc.entry(t.span.start) {
                        std::collections::hash_map::Entry::Vacant(e) => {
                            // Blank is the identity of `over`, so streaming
                            // the first arrival in front of a blank
                            // accumulator reproduces it exactly.
                            &mut *e.insert((t.span, scratch.take_acc(t.span.len, ctx)))
                        }
                        std::collections::hash_map::Entry::Occupied(e) => &mut *e.into_mut(),
                    };
                    if *acc_span != t.span {
                        return Err(CoreError::InvalidSchedule {
                            why: format!("deferred-back span mismatch: {acc_span} vs {}", t.span),
                        });
                    }
                    // Arriving pieces are deepest-first: the new piece goes
                    // in front of the accumulated deeper ones.
                    stage.merge(ctx, &bytes, acc, OverDir::Front)?;
                }
                MergeDir::Place => {
                    // What the buffer still shows here is this rank's own
                    // send-time copy; the message replaces it.
                    let started = ctx.obs_start();
                    let placed = local.span_pixels_mut(t.span)?;
                    placed.fill(P::blank());
                    stage.unpack(ctx, &bytes, placed)?;
                    ctx.obs_span(Phase::Decode, started);
                }
            }
        }
        if step.flush {
            flush_deferred(ctx, stage, scratch, &mut back_acc, &mut local)?;
        }
    }
    flush_deferred(ctx, stage, scratch, &mut back_acc, &mut local)?;

    if my_crash == Some(steps_len) {
        return Ok(ComposeOutput::crash(ctx, steps_len));
    }

    ctx.mark(Mark::ComposeEnd);

    // --- Failure handling: agree on the dead, then re-pair survivors ----
    let mut owners: Vec<(Span, usize)> = schedule.final_owners.clone();
    let (root, degraded) =
        agree_on_failures(ctx, config, schedule.p, steps_len, |ctx, crashed| {
            let plan = repair(schedule, crashed)?;

            // Phase 1: copy every piece this rank keeps for the plan *before*
            // any insert can overwrite it, and ship the remote-bound ones (all
            // sends precede all receives: no deadlock on the buffered
            // channels).
            let mut own_pieces: HashMap<(usize, usize), Vec<P>> = HashMap::new();
            for (ei, e) in plan.entries.iter().enumerate() {
                for (fi, fetch) in e.fetches.iter().enumerate() {
                    if fetch.holder != me {
                        continue;
                    }
                    // `own` is kept whenever a repair can run (resilient).
                    let source = own.as_ref().filter(|_| fetch.own).unwrap_or(&local);
                    if e.owner == me {
                        own_pieces.insert((ei, fi), source.extract(e.span)?);
                    } else {
                        let tag = tag::repair(config.frame_tag, ei, fi);
                        stage.ship(ctx, source.span_pixels(e.span)?, e.owner, tag)?;
                    }
                }
            }
            // Phase 2: assemble the spans this rank now owns, merging the
            // fetched pieces front-to-back.
            for (ei, e) in plan.entries.iter().enumerate() {
                if e.owner != me {
                    continue;
                }
                let mut acc: Option<Vec<P>> = None;
                for (fi, fetch) in e.fetches.iter().enumerate() {
                    let pixels: Vec<P> = if fetch.holder == me {
                        match own_pieces.remove(&(ei, fi)) {
                            Some(px) => px,
                            None => {
                                return Err(CoreError::InvalidSchedule {
                                    why: format!(
                                    "repair plan fetch ({ei},{fi}) was not extracted in phase 1"
                                ),
                                })
                            }
                        }
                    } else {
                        let bytes =
                            ctx.recv(fetch.holder, tag::repair(config.frame_tag, ei, fi))?;
                        stage.charge_decode(ctx, &bytes);
                        stage.codec.decode(&bytes, e.span.len)?
                    };
                    acc = Some(match acc {
                        None => pixels,
                        Some(mut front) => {
                            ctx.compute(ComputeKind::Over, e.span.len as u64);
                            for (f, b) in front.iter_mut().zip(&pixels) {
                                *f = f.over(b);
                            }
                            front
                        }
                    });
                }
                if let Some(acc) = acc {
                    local.insert(e.span, &acc)?;
                }
            }

            owners = plan.final_owners;
            Ok(plan.info)
        })?;

    // Gather tags sit one step past the last exchange.
    finish(ctx, stage, scratch, local, owners, root, degraded, |slot| {
        tag::step(config.frame_tag, steps_len, slot)
    })
}

/// A flush point: apply every deferred back accumulator (`local over
/// deferred`), in span order. The mark lets replay attribute the `over`
/// computes that follow to the flush phase.
fn flush_deferred<P: Pixel>(
    ctx: &mut RankCtx,
    stage: &Stage<P>,
    scratch: &mut Scratch<P>,
    back_acc: &mut HashMap<usize, (Span, Vec<P>)>,
    local: &mut Image<P>,
) -> Result<(), CoreError> {
    ctx.mark(Mark::FlushStart);
    let mut flushes: Vec<(Span, Vec<P>)> = back_acc.drain().map(|(_, acc)| acc).collect();
    flushes.sort_by_key(|(span, _)| span.start);
    for (span, acc) in flushes {
        // Mirror the per-step charging rule: under a structured codec only
        // the non-blank accumulated pixels cost an `over`; charging the
        // full span here would price the flush as if the codec had found
        // no blank structure at all.
        let over_units = if stage.raw {
            span.len
        } else {
            acc.iter().filter(|p| !p.is_blank()).count()
        };
        let flush_started = ctx.obs_start();
        ctx.compute(ComputeKind::Over, over_units as u64);
        local.over_back(span, &acc)?;
        ctx.obs_span(Phase::Flush, flush_started);
        scratch.put_acc(acc);
    }
    Ok(())
}

/// The tail every plan family ends with: count what this rank finally
/// owns, run the gather stage if requested — to `root`, or to the config's
/// display wall — and package the output. `owners` is the (possibly
/// repaired) ownership map, `local` holds this rank's owned spans, and
/// `gather_tag` maps a sender slot to the family's gather tag namespace.
#[allow(clippy::too_many_arguments)]
pub(crate) fn finish<P: Pixel>(
    ctx: &mut RankCtx,
    stage: &Stage<P>,
    scratch: &mut Scratch<P>,
    local: Image<P>,
    owners: Vec<(Span, usize)>,
    root: usize,
    degraded: Option<DegradedInfo>,
    gather_tag: impl Fn(usize) -> u64,
) -> Result<ComposeOutput<P>, CoreError> {
    let me = ctx.rank();
    let owned_pixels = owners
        .iter()
        .filter(|(_, owner)| *owner == me)
        .map(|(span, _)| span.len)
        .sum();
    let mut frame = None;
    if stage.config.gather {
        // Spans per owner, in (possibly repaired) ownership order.
        let mut spans_of = vec![Vec::<Span>::new(); ctx.size()];
        for (span, owner) in &owners {
            if !span.is_empty() {
                spans_of[*owner].push(*span);
            }
        }
        frame = match stage.config.display {
            None => gather_to_root(ctx, stage, scratch, &spans_of, &local, root, &gather_tag)?,
            Some(wall) => {
                let dead: BTreeSet<usize> = degraded
                    .iter()
                    .flat_map(|d| d.failed.iter().map(|(r, _)| *r))
                    .collect();
                gather_to_wall(
                    ctx,
                    stage,
                    scratch,
                    &spans_of,
                    &local,
                    wall,
                    &dead,
                    &gather_tag,
                )?
            }
        };
        ctx.mark(Mark::GatherEnd);
    }
    Ok(ComposeOutput {
        frame,
        owned_pixels,
        owners,
        residual: Some(local),
        degraded,
    })
}

/// Root gather: each owner ships ONE message carrying all its final spans
/// concatenated in span order (the coalesced collection a real system
/// would do with `MPI_Gatherv`); the root assembles the frame. Returns the
/// frame at the root, `None` elsewhere. Ranks owning nothing send nothing.
fn gather_to_root<P: Pixel>(
    ctx: &mut RankCtx,
    stage: &Stage<P>,
    scratch: &mut Scratch<P>,
    spans_of: &[Vec<Span>],
    local: &Image<P>,
    root: usize,
    gather_tag: &impl Fn(usize) -> u64,
) -> Result<Option<Image<P>>, CoreError> {
    let me = ctx.rank();
    if me != root {
        if !spans_of[me].is_empty() {
            let mine = spans_of[me].iter().copied();
            let bytes = stage.encode_spans(ctx, scratch, local, mine)?;
            ctx.send(root, gather_tag(me), bytes)?;
        }
        return Ok(None);
    }
    let mut frame = Image::blank(local.width(), local.height());
    for (owner, owner_spans) in spans_of.iter().enumerate() {
        if owner_spans.is_empty() {
            continue;
        }
        if owner == me {
            // The root's own spans copy straight from its local frame.
            for span in owner_spans {
                frame.insert(*span, local.span_pixels(*span)?)?;
            }
            continue;
        }
        let bytes = ctx.recv(owner, gather_tag(owner))?;
        let started = ctx.obs_start();
        if let [span] = owner_spans.as_slice() {
            // One span: stream straight into the blank frame.
            stage.unpack(ctx, &bytes, frame.span_pixels_mut(*span)?)?;
        } else {
            let total: usize = owner_spans.iter().map(|s| s.len).sum();
            let mut staged = scratch.take_acc(total, ctx);
            stage.unpack(ctx, &bytes, &mut staged)?;
            scatter(&mut frame, owner_spans.iter().copied(), &staged)?;
            scratch.put_acc(staged);
        }
        ctx.obs_span(Phase::Decode, started);
    }
    Ok(Some(frame))
}

/// Display-wall gather: each final owner ships, per display cell its spans
/// overlap, one message with the overlap segments concatenated in span
/// order; each display rank assembles its own cell-sized framebuffer.
/// Returns the cell image on display ranks, `None` elsewhere. Dead ranks
/// (post-repair) neither send nor receive.
#[allow(clippy::too_many_arguments)]
fn gather_to_wall<P: Pixel>(
    ctx: &mut RankCtx,
    stage: &Stage<P>,
    scratch: &mut Scratch<P>,
    spans_of: &[Vec<Span>],
    local: &Image<P>,
    wall: DisplayWall,
    dead: &BTreeSet<usize>,
    gather_tag: &impl Fn(usize) -> u64,
) -> Result<Option<Image<P>>, CoreError> {
    let me = ctx.rank();
    let width = local.width();
    // Overlap of `owner`'s final spans with a cell, in deterministic span
    // order: sender and receiver compute the same segment list locally.
    let segments = |owner: usize, cell: rt_imaging::Rect| -> Vec<(Span, usize)> {
        let mut segs = Vec::new();
        for span in &spans_of[owner] {
            segs.extend(span_cell_segments(*span, width, cell));
        }
        segs
    };
    for d in 0..wall.count() {
        let drank = wall.rank_of(d);
        if drank == me || spans_of[me].is_empty() || dead.contains(&drank) {
            continue;
        }
        let segs = segments(me, wall.cell_rect(d, width, local.height()));
        if segs.is_empty() {
            continue;
        }
        let mine = segs.iter().map(|(seg, _)| *seg);
        let bytes = stage.encode_spans(ctx, scratch, local, mine)?;
        ctx.send(drank, gather_tag(tag::wall_slot(d, me)), bytes)?;
    }
    let Some(d) = wall.display_of(me) else {
        return Ok(None);
    };
    let cell = wall.cell_rect(d, width, local.height());
    let mut out = Image::blank(cell.width(), cell.height());
    for owner in 0..spans_of.len() {
        if dead.contains(&owner) {
            continue;
        }
        let segs = segments(owner, cell);
        if segs.is_empty() {
            continue;
        }
        if owner == me {
            for (seg, at) in &segs {
                out.insert(Span::new(*at, seg.len), local.span_pixels(*seg)?)?;
            }
            continue;
        }
        let bytes = ctx.recv(owner, gather_tag(tag::wall_slot(d, owner)))?;
        let total: usize = segs.iter().map(|(s, _)| s.len).sum();
        let started = ctx.obs_start();
        let mut staged = scratch.take_acc(total, ctx);
        stage.unpack(ctx, &bytes, &mut staged)?;
        let cell_spans = segs.iter().map(|(seg, at)| Span::new(*at, seg.len));
        scatter(&mut out, cell_spans, &staged)?;
        scratch.put_acc(staged);
        ctx.obs_span(Phase::Decode, started);
    }
    Ok(Some(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::CompositionMethod;
    use crate::schedule::{Step, Transfer};
    use crate::{ComposePlan, Run};
    use rt_imaging::pixel::Provenance;
    use rt_imaging::synth::provenance_partials;

    type Outputs<P> = (Vec<Result<ComposeOutput<P>, CoreError>>, Trace);

    fn run<P: Pixel>(s: &Schedule, partials: Vec<Image<P>>, config: &ComposeConfig) -> Outputs<P> {
        run_faulty(s, partials, config, FaultPlan::none())
    }

    fn run_faulty<P: Pixel>(
        s: &Schedule,
        partials: Vec<Image<P>>,
        config: &ComposeConfig,
        faults: FaultPlan,
    ) -> Outputs<P> {
        Run::new(&ComposePlan::Schedule(s.clone()), config)
            .faults(faults)
            .execute(partials)
    }

    fn two_rank_swap(a: usize) -> Schedule {
        let (first, second) = Span::whole(a).halve();
        Schedule {
            p: 2,
            image_len: a,
            steps: vec![Step {
                transfers: vec![
                    Transfer {
                        src: 1,
                        dst: 0,
                        span: first,
                        dir: MergeDir::Back,
                    },
                    Transfer {
                        src: 0,
                        dst: 1,
                        span: second,
                        dir: MergeDir::Front,
                    },
                ],
                flush: false,
            }],
            final_owners: vec![(first, 0), (second, 1)],
            method: "swap2".into(),
            depth_of_rank: None,
        }
    }

    #[test]
    fn swap_produces_complete_frame_at_root() {
        let schedule = two_rank_swap(24);
        let partials = provenance_partials(2, 6, 4);
        let (results, trace) = run(&schedule, partials, &ComposeConfig::default());
        let out0 = results[0].as_ref().unwrap();
        let frame = out0.frame.as_ref().unwrap();
        assert!(frame
            .pixels()
            .iter()
            .all(|px| *px == Provenance::complete(2)));
        assert!(results[1].as_ref().unwrap().frame.is_none());
        // 2 swap messages + 1 gather message.
        assert_eq!(trace.message_count(), 3);
    }

    #[test]
    fn owned_pixels_reported() {
        let schedule = two_rank_swap(25);
        let partials = provenance_partials(2, 5, 5);
        let (results, _) = run(&schedule, partials, &ComposeConfig::default());
        let owned: Vec<usize> = results
            .iter()
            .map(|r| r.as_ref().unwrap().owned_pixels)
            .collect();
        assert_eq!(owned.iter().sum::<usize>(), 25);
        assert_eq!(owned, schedule.owned_pixels());
    }

    #[test]
    fn no_gather_returns_no_frame() {
        let schedule = two_rank_swap(24);
        let partials = provenance_partials(2, 6, 4);
        let config = ComposeConfig {
            gather: false,
            ..Default::default()
        };
        let (results, trace) = run(&schedule, partials, &config);
        assert!(results.iter().all(|r| r.as_ref().unwrap().frame.is_none()));
        assert_eq!(trace.message_count(), 2);
    }

    #[test]
    fn codecs_are_transparent() {
        for codec in CodecKind::ALL {
            let schedule = two_rank_swap(24);
            let partials = provenance_partials(2, 6, 4);
            let config = ComposeConfig {
                codec,
                ..Default::default()
            };
            let (results, _) = run(&schedule, partials, &config);
            let frame = results[0].as_ref().unwrap().frame.clone().unwrap();
            assert!(
                frame
                    .pixels()
                    .iter()
                    .all(|px| *px == Provenance::complete(2)),
                "codec {codec:?}"
            );
        }
    }

    #[test]
    fn frame_namespaced_tags_change_nothing_but_the_tags() {
        // A compose tagged as frame k of a stream produces the same frame
        // and the same traffic shape as the classic single-frame compose;
        // only the tag values move into the frame namespace.
        let schedule = two_rank_swap(24);
        let (base_results, base_trace) = run(
            &schedule,
            provenance_partials(2, 6, 4),
            &ComposeConfig::default(),
        );
        let config = ComposeConfig::default().with_frame(3);
        assert_eq!(config.frame_tag, tag::frame_base(3));
        let (results, trace) = run(&schedule, provenance_partials(2, 6, 4), &config);
        let frame = results[0].as_ref().unwrap().frame.clone().unwrap();
        let base_frame = base_results[0].as_ref().unwrap().frame.clone().unwrap();
        assert_eq!(frame.pixels(), base_frame.pixels());
        assert_eq!(trace.message_count(), base_trace.message_count());
        assert_eq!(trace.bytes_sent(), base_trace.bytes_sent());
        // Frame 0 is the identity: bit-identical trace, tags included.
        let zero = ComposeConfig::default().with_frame(0);
        let (_, zero_trace) = run(&schedule, provenance_partials(2, 6, 4), &zero);
        assert_eq!(zero_trace, base_trace);
    }

    #[test]
    fn scratch_pool_counts_fresh_checkouts() {
        let pool = ScratchPool::<Provenance>::new();
        assert_eq!(pool.fresh_checkouts(), 0);
        let s0 = pool.checkout(0);
        let s1 = pool.checkout(1);
        assert_eq!(pool.fresh_checkouts(), 2);
        pool.checkin(0, s0);
        pool.checkin(1, s1);
        // Steady state: checked-in scratches are reused, the counter is flat.
        let s0 = pool.checkout(0);
        pool.checkin(0, s0);
        assert_eq!(pool.fresh_checkouts(), 2);
    }

    #[test]
    fn non_root_gather_target_works() {
        let schedule = two_rank_swap(24);
        let partials = provenance_partials(2, 6, 4);
        let config = ComposeConfig {
            root: 1,
            ..Default::default()
        };
        let (results, _) = run(&schedule, partials, &config);
        assert!(results[0].as_ref().unwrap().frame.is_none());
        let frame = results[1].as_ref().unwrap().frame.clone().unwrap();
        assert!(frame
            .pixels()
            .iter()
            .all(|px| *px == Provenance::complete(2)));
    }

    #[test]
    fn size_mismatch_is_rejected() {
        let schedule = two_rank_swap(24);
        let partials = provenance_partials(2, 5, 4); // 20 px, schedule wants 24
        let (results, _) = run(&schedule, partials, &ComposeConfig::default());
        assert!(matches!(results[0], Err(CoreError::InvalidSchedule { .. })));
    }

    #[test]
    fn marks_are_emitted() {
        let schedule = two_rank_swap(24);
        let partials = provenance_partials(2, 6, 4);
        let (_, trace) = run(&schedule, partials, &ComposeConfig::default());
        let report = rt_comm::replay(&trace, &rt_comm::CostModel::PAPER_EXAMPLE).unwrap();
        assert!(report.phase("compose:start", "compose:end").unwrap() > 0.0);
        assert!(report.phase("compose:start", "gather:end").unwrap() > 0.0);
    }

    #[test]
    fn dropped_messages_recover_bit_exact() {
        // Message loss is absorbed by the comm layer's retransmission:
        // the composite is bit-identical to the clean run.
        let schedule = crate::RotateTiling::two_n(2).build(4, 256).unwrap();
        let faults = FaultPlan::none()
            .with_seed(7)
            .drop_rate(0.10)
            .corrupt_rate(0.05);
        let (results, trace) = run_faulty(
            &schedule,
            provenance_partials(4, 16, 16),
            &ComposeConfig::default(),
            faults,
        );
        let frame = results[0].as_ref().unwrap().frame.as_ref().unwrap();
        assert!(frame
            .pixels()
            .iter()
            .all(|px| *px == Provenance::complete(4)));
        assert!(
            trace.retransmit_count() > 0,
            "the seed should lose something"
        );
    }

    #[test]
    fn crash_of_deepest_rank_degrades_to_exact_survivor_composite() {
        // Killing the deepest rank keeps the survivors depth-contiguous,
        // so the Provenance algebra stays exact: every pixel must be the
        // survivors' range [0, 3).
        for (label, schedule) in [
            ("bs", crate::BinarySwap::new().build(4, 256).unwrap()),
            ("pp", crate::ParallelPipelined::new().build(4, 256).unwrap()),
            ("rt", crate::RotateTiling::two_n(2).build(4, 256).unwrap()),
        ] {
            let config = ComposeConfig::default().resilient(true);
            let faults = FaultPlan::none().crash_rank_at_step(3, 0);
            let (results, _) =
                run_faulty(&schedule, provenance_partials(4, 16, 16), &config, faults);
            let out0 = results[0].as_ref().unwrap();
            let frame = out0.frame.as_ref().unwrap();
            assert!(
                frame
                    .pixels()
                    .iter()
                    .all(|px| *px == Provenance { lo: 0, hi: 3 }),
                "{label}: degraded frame must be the survivors' exact composite"
            );
            let info = out0.degraded.as_ref().expect("must be flagged degraded");
            assert_eq!(info.failed, vec![(3, 0)], "{label}");
            assert_eq!(info.lost_contributions, vec![3], "{label}");
            assert_eq!(info.lost_pixels, 256, "{label}");
            // The crashed rank reports its own demise.
            let out3 = results[3].as_ref().unwrap();
            assert_eq!(
                out3.degraded.as_ref().unwrap().failed,
                vec![(3, 0)],
                "{label}"
            );
        }
    }

    #[test]
    fn crash_of_the_root_reassigns_the_gather() {
        let schedule = crate::BinarySwap::new().build(4, 256).unwrap();
        let config = ComposeConfig::default().resilient(true);
        let faults = FaultPlan::none().crash_rank_at_step(0, 1);
        let (results, _) = run_faulty(&schedule, provenance_partials(4, 16, 16), &config, faults);
        // Root (rank 0) died: the lowest survivor assembles instead.
        let out1 = results[1].as_ref().unwrap();
        let info = out1.degraded.as_ref().unwrap();
        assert_eq!(info.root_reassigned_to, Some(1));
        assert!(out1.frame.is_some(), "new root must hold the frame");
        assert!(results[2].as_ref().unwrap().frame.is_none());
    }

    #[test]
    fn decode_charge_equals_received_wire_bytes() {
        // Decode walks the encoded stream: its compute charge must equal
        // the wire size of the message just received — not the decompressed
        // size, which would price compressed and raw messages identically.
        use rt_comm::Event;
        use rt_imaging::pixel::GrayAlpha8;
        let schedule = crate::RotateTiling::two_n(2).build(4, 1024).unwrap();
        let partials: Vec<Image<GrayAlpha8>> = (0..4)
            .map(|r| {
                Image::from_fn(32, 32, |x, y| {
                    // Blank-heavy bands so the structured codecs compress.
                    if (x + y + r) % 3 == 0 {
                        GrayAlpha8::new((40 * r + x) as u8, 200)
                    } else {
                        GrayAlpha8::blank()
                    }
                })
            })
            .collect();
        // What the old bug would have charged in total: span.len · P::BYTES
        // for every step transfer plus every non-root gather message.
        let step_pixels: usize = schedule
            .steps
            .iter()
            .flat_map(|s| s.transfers.iter())
            .map(|t| t.span.len)
            .sum();
        let gather_pixels: usize = schedule
            .final_owners
            .iter()
            .filter(|(_, owner)| *owner != 0)
            .map(|(span, _)| span.len)
            .sum();
        let old_charge = ((step_pixels + gather_pixels) * GrayAlpha8::BYTES) as u64;
        for codec in [CodecKind::Rle, CodecKind::Trle] {
            let config = ComposeConfig::default().with_codec(codec);
            let (_, trace) = run(&schedule, partials.clone(), &config);
            let mut decodes = 0u64;
            let mut total_units = 0u64;
            for events in &trace.ranks {
                let mut last_recv: Option<u64> = None;
                for e in events {
                    match e {
                        Event::Recv { bytes, .. } => last_recv = Some(*bytes),
                        Event::Compute {
                            kind: ComputeKind::Decode,
                            units,
                        } => {
                            let wire = last_recv
                                .take()
                                .expect("every Decode follows the Recv it prices");
                            assert_eq!(*units, wire, "{codec:?}: decode charged off-wire");
                            decodes += 1;
                            total_units += units;
                        }
                        _ => {}
                    }
                }
            }
            assert!(decodes > 0, "{codec:?}: no decode events traced");
            // These blank-heavy frames compress, so the wire total must sit
            // strictly below the decompressed total the old accounting used.
            assert!(
                total_units < old_charge,
                "{codec:?}: decode total {total_units} not below old span-based charge {old_charge}"
            );
        }
    }

    #[test]
    fn resilient_clean_run_is_not_flagged_degraded() {
        let schedule = two_rank_swap(24);
        let config = ComposeConfig::default().resilient(true);
        let (results, _) = run(&schedule, provenance_partials(2, 6, 4), &config);
        for r in &results {
            assert!(r.as_ref().unwrap().degraded.is_none());
        }
    }
}
