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
//!    target — the root (a one-cell [`DisplayWall`]) or a wall of display
//!    ranks — which assembles the output frame.
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
//! ends with (ownership count, the one gather, output) in `finish` —
//! the tile executor calls the same two.

use crate::display::{span_cell_segments, DisplayWall};
use crate::repair::{agree_on_failures, repair, DegradedInfo, RepairFetch};
use crate::schedule::{MergeDir, Schedule};
use crate::tile::TileLists;
use crate::CoreError;
use rt_comm::{
    tag, CommError, ComputeKind, FaultPlan, InProc, Mark, Multicomputer, RankCtx, Trace, Transport,
};
use rt_compress::{Codec, CodecKind, OverDir};
use rt_imaging::pixel::{OverStats, Pixel};
use rt_imaging::{Image, ImagingError, Rect, Span};
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
    /// Rank that assembles the final frame: the base of the one-cell wall
    /// the gather targets when [`ComposeConfig::display`] is `None`.
    pub root: usize,
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
    /// (see [`crate::display::DisplayWall`]). `None` (default) gathers to
    /// [`DisplayWall::root`]`(root)`.
    pub display: Option<DisplayWall>,
}

impl Default for ComposeConfig {
    fn default() -> Self {
        Self {
            codec: CodecKind::Raw,
            root: 0,
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

    /// Gather to a tiled display wall instead of the single root.
    pub fn with_display_wall(mut self, wall: DisplayWall) -> Self {
        self.display = Some(wall);
        self
    }

    /// Where the gather goes before any failure: the display wall, or
    /// else the one-cell wall at the root. Validation, tag widths and the
    /// connection topology all read this one target.
    pub fn gather_target(&self) -> DisplayWall {
        self.display.unwrap_or(DisplayWall::root(self.root))
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

    /// One transport per rank on this machine's backend, for a harness that
    /// runs its own rank threads and builds each run's [`RankCtx`] over
    /// them (rt-pvr's resident session). The machine's fault plan and
    /// observer stay with it: such a harness installs its own per run.
    pub fn mesh(&self) -> Result<Vec<Box<dyn Transport>>, rt_net::NetError> {
        fn boxed<X: Transport + 'static>(mesh: Vec<X>) -> Vec<Box<dyn Transport>> {
            mesh.into_iter()
                .map(|x| Box::new(x) as Box<dyn Transport>)
                .collect()
        }
        Ok(match self {
            Machine::InProc(mc) => boxed(InProc::mesh(mc.size())),
            Machine::Tcp(mc) => boxed(mc.mesh()?),
        })
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
    /// The tile families' per-frame lists.
    pub(crate) tiles: TileLists,
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
            tiles: TileLists::default(),
        }
    }

    /// A blank-filled accumulator of `len` pixels: [`Scratch::take_buf`],
    /// blanked.
    pub(crate) fn take_acc(&mut self, len: usize, ctx: &mut RankCtx) -> Vec<P> {
        let mut buf = self.take_buf(len, ctx);
        buf.fill(P::blank());
        buf
    }

    /// A buffer of `len` pixels holding whatever its last use left, for a
    /// receiver that writes every pixel (`Stage::unpack`), reusing a
    /// retired buffer when one is available. Reuses and fresh allocations
    /// are tallied as pool hits/misses on observed runs.
    pub(crate) fn take_buf(&mut self, len: usize, ctx: &mut RankCtx) -> Vec<P> {
        let reused = !self.spare_accs.is_empty();
        ctx.obs_counters(|c| {
            if reused {
                c.pool_hits += 1;
            } else {
                c.pool_misses += 1;
            }
        });
        let mut buf = self.spare_accs.pop().unwrap_or_default();
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
    /// The assembled frame, or this rank's cell of the display wall; `None`
    /// on every rank the gather does not target.
    pub frame: Option<Image<P>>,
    /// Pixels this rank finally owned (its contribution to the gather).
    pub owned_pixels: usize,
    /// `Some` when the run completed without the full set of
    /// contributions: rank failures occurred and the frame is the exact
    /// composite of the survivors (or this rank itself crashed).
    pub degraded: Option<DegradedInfo>,
}

impl<P: Pixel> ComposeOutput<P> {
    /// What a rank reports about itself after stopping: nothing owned and
    /// `degraded` (usually [`DegradedInfo::self_crash`]).
    pub(crate) fn dead(degraded: DegradedInfo) -> Self {
        ComposeOutput {
            frame: None,
            owned_pixels: 0,
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

/// What every stage of one compose call shares: the config, the planned
/// crashes and the built codec. It owns the two sequences every executor
/// repeats — encode → charge → count → send, and charge → fused decode →
/// count — so each virtual-clock charge is written once for all plan
/// families.
pub(crate) struct Stage<'a, P: Pixel> {
    /// The compose call's options.
    pub config: &'a ComposeConfig,
    /// The fault plan's crashes within this compose, `(rank, step)`. The
    /// compose repairs exactly when there is one: the survivors skip dead
    /// peers' data, re-pair via [`crate::repair()`] and report what is
    /// missing in [`ComposeOutput::degraded`]. Any other death is a typed
    /// [`CommError::RankFailed`].
    pub crashes: Vec<(usize, usize)>,
    codec: Box<dyn Codec<P>>,
    /// Raw buffers carry no blank structure, so `over` is charged for the
    /// full span and the codec accounts stay empty.
    raw: bool,
}

impl<'a, P: Pixel> Stage<'a, P> {
    pub fn new(config: &'a ComposeConfig, crashes: Vec<(usize, usize)>) -> Self {
        Stage {
            config,
            crashes,
            codec: config.codec.build::<P>(),
            raw: config.codec == CodecKind::Raw,
        }
    }

    /// Encode `pixels` onto the end of `out` and charge the codec's work:
    /// the sending half of every message. `started` opens the wall-clock
    /// `Encode` span (callers that stage the pixels first start it before
    /// the copy).
    pub fn encode_into(
        &self,
        ctx: &mut RankCtx,
        started: Option<Instant>,
        pixels: &[P],
        out: &mut Vec<u8>,
    ) {
        let at = out.len();
        self.codec.encode_into(pixels, out);
        ctx.obs_span(Phase::Encode, started);
        if !self.raw {
            ctx.compute(ComputeKind::Encode, (pixels.len() * P::BYTES) as u64);
        }
        let wire = (out.len() - at) as u64;
        ctx.obs_counters(|c| c.add_wire_bytes(self.config.codec.name(), wire));
    }

    /// [`Stage::encode_into`] `pixels` to a buffer of their own and send it,
    /// uncopied, to `dst`.
    pub fn ship(
        &self,
        ctx: &mut RankCtx,
        pixels: &[P],
        dst: usize,
        tag: u64,
    ) -> Result<(), CoreError> {
        let mut bytes = Vec::new();
        self.encode_into(ctx, ctx.obs_start(), pixels, &mut bytes);
        ctx.send(dst, tag, bytes)?;
        Ok(())
    }

    /// [`Stage::encode_into`] for several `spans` of `local` as ONE stream:
    /// the spans are concatenated, in order, in the reusable staging buffer.
    pub fn encode_spans_into(
        &self,
        ctx: &mut RankCtx,
        started: Option<Instant>,
        scratch: &mut Scratch<P>,
        local: &Image<P>,
        spans: impl IntoIterator<Item = Span>,
        out: &mut Vec<u8>,
    ) -> Result<(), CoreError> {
        let staged = &mut scratch.gather_pixels;
        staged.clear();
        // Internal iteration runs a chained segment walk as one loop, where
        // a `for` loop would test the chain again on every span.
        spans
            .into_iter()
            .try_for_each(|span| -> Result<(), CoreError> {
                staged.extend_from_slice(local.span_pixels(span)?);
                Ok(())
            })?;
        self.encode_into(ctx, started, staged, out);
        Ok(())
    }

    /// Decoding walks the *encoded* stream, so the compute charge is the
    /// wire size, not the decompressed size — a compressed message must
    /// cost less to decode, or the paper's claim that compression cuts
    /// composition time (Section 3) is mispriced.
    fn charge_decode(&self, ctx: &mut RankCtx, bytes: &[u8]) {
        if !self.raw {
            ctx.compute(ComputeKind::Decode, bytes.len() as u64);
        }
    }

    /// Stream a received message through the fused decode+`over` kernel
    /// directly into `dst` — no decoded `Vec` — and charge it.
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
        self.charge_over(ctx, dst.len(), &stats);
        Ok(())
    }

    /// Merge pixels this rank holds in memory behind `dst` (`dst = dst over
    /// back`), the `back` pieces laid end to end along `dst`, and charge
    /// the merge like a received one: a deferred flush, the tile fold's
    /// local tile, a repair's own piece. `phase` names the wall-clock span;
    /// the caller tallies the returned counters where its phase counts them.
    pub fn merge_own<'b>(
        &self,
        ctx: &mut RankCtx,
        phase: Phase,
        dst: &mut [P],
        back: impl IntoIterator<Item = Result<&'b [P], ImagingError>>,
    ) -> Result<OverStats, CoreError> {
        let started = ctx.obs_start();
        let mut stats = OverStats::default();
        let mut rest = &mut *dst;
        for piece in back {
            let piece = piece?;
            let n = piece.len().min(rest.len());
            let (row, tail) = std::mem::take(&mut rest).split_at_mut(n);
            stats += P::over_back_slice(row, piece)?;
            rest = tail;
        }
        ctx.obs_span(phase, started);
        self.charge_over(ctx, dst.len(), &stats);
        Ok(stats)
    }

    /// Decode a received message over `dst`, whatever it held, through
    /// [`Codec::decode_into`](rt_compress::Codec::decode_into), which
    /// writes the pixels `over` onto blank would leave — the gather and
    /// placement receive: a decode charge, no `over` charge.
    pub fn unpack(&self, ctx: &mut RankCtx, bytes: &[u8], dst: &mut [P]) -> Result<(), CoreError> {
        self.charge_decode(ctx, bytes);
        let stats = self.codec.decode_into(bytes, dst)?;
        self.count_stream(ctx, &stats, 0);
        Ok(())
    }

    /// Tally one merged or copied stream on the observability kernel
    /// counters; `merged` of its non-blank pixels were composited (none
    /// when the stream was only copied).
    pub(crate) fn count_stream(&self, ctx: &mut RankCtx, stats: &OverStats, merged: usize) {
        ctx.obs_counters(|c| {
            c.non_blank_merged += merged as u64;
            c.blank_skipped += stats.blank_skipped as u64;
            c.opaque_fast += stats.opaque_fast as u64;
        });
    }

    /// The one price of an `over` of `len` pixels. Blank pixels are the
    /// identity of `over`; the structured codecs (TRLE templates, RLE runs,
    /// bounding intervals) identify blank regions, so — as the paper argues
    /// in Section 1 — compression reduces the composition *computation* as
    /// well as the traffic: only the non-blank pixels cost an `over`. Raw
    /// buffers carry no such structure and are charged for every pixel.
    fn charge_over(&self, ctx: &mut RankCtx, len: usize, stats: &OverStats) {
        let units = if self.raw { len } else { stats.non_blank };
        ctx.compute(ComputeKind::Over, units as u64);
    }
}

/// Copy the concatenated `pixels` back out to `spans` of `image`, in order
/// — the inverse of the staging [`Stage::encode_spans_into`] does.
pub(crate) fn scatter<P: Pixel>(
    image: &mut Image<P>,
    spans: impl IntoIterator<Item = Span>,
    pixels: &[P],
) -> Result<(), CoreError> {
    let mut at = 0usize;
    spans.into_iter().try_for_each(|span| {
        image.insert(span, &pixels[at..at + span.len])?;
        at += span.len;
        Ok(())
    })
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
    // step, before the gather").
    let steps_len = schedule.steps.len();
    let crashes = &stage.crashes;
    let my_crash = crashes.iter().find(|c| c.0 == me).map(|c| c.1);
    let repairs = !crashes.is_empty();

    ctx.mark(Mark::ComposeStart);

    // Deferred back accumulators, keyed by span start.
    let mut back_acc: HashMap<usize, (Span, Vec<P>)> = HashMap::new();
    // When the compose repairs, a rank keeps its rendered partial aside: its
    // own content on spans it never shipped is the one thing no send-time
    // archive holds, and a merge behind a dead relay's hole would bury it
    // (see `crate::repair`).
    let own = repairs.then(|| local.clone());

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
                Err(CommError::RankFailed { .. }) if repairs => continue,
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
                    // send-time copy; the message overwrites it.
                    let started = ctx.obs_start();
                    stage.unpack(ctx, &bytes, local.span_pixels_mut(t.span)?)?;
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
    let mut repaired = None;
    let (root, degraded) =
        agree_on_failures(ctx, config.root, schedule.p, crashes, |ctx, crashed| {
            let plan = repair(schedule, crashed)?;

            // `own` is kept whenever a repair can run.
            let source = |f: &RepairFetch| own.as_ref().filter(|_| f.own).unwrap_or(&local);
            // Phase 1: ship the remote-bound pieces (all sends precede all
            // receives: no deadlock on the buffered channels).
            for (ei, e) in plan.entries.iter().enumerate() {
                for (fi, fetch) in e.fetches.iter().enumerate() {
                    if fetch.holder == me && e.owner != me {
                        let tag = tag::repair(config.frame_tag, ei, fi);
                        stage.ship(ctx, source(fetch).span_pixels(e.span)?, e.owner, tag)?;
                    }
                }
            }
            // Phase 2: fold each span this rank now owns front to back. The
            // folds read this rank's buffer, so nothing is written back into
            // it before the last one.
            let mut folded = Vec::new();
            for (ei, e) in plan.entries.iter().enumerate() {
                if e.owner != me {
                    continue;
                }
                let mut acc = scratch.take_acc(e.span.len, ctx);
                for (fi, fetch) in e.fetches.iter().enumerate() {
                    let first = fi == 0;
                    if fetch.holder != me {
                        let bytes =
                            ctx.recv(fetch.holder, tag::repair(config.frame_tag, ei, fi))?;
                        if first {
                            let started = ctx.obs_start();
                            stage.unpack(ctx, &bytes, &mut acc)?;
                            ctx.obs_span(Phase::Decode, started);
                        } else {
                            stage.merge(ctx, &bytes, &mut acc, OverDir::Back)?;
                        }
                    } else if first {
                        acc.clone_from_slice(source(fetch).span_pixels(e.span)?);
                    } else {
                        let piece = source(fetch).span_pixels(e.span);
                        let stats = stage.merge_own(ctx, Phase::Over, &mut acc, [piece])?;
                        stage.count_stream(ctx, &stats, stats.non_blank);
                    }
                }
                folded.push((e.span, acc));
            }
            for (span, acc) in folded {
                local.insert(span, &acc)?;
                scratch.put_acc(acc);
            }

            repaired = Some(plan.final_owners);
            Ok(plan.info)
        })?;

    // Each owner's (possibly repaired) final spans, in ownership order;
    // gather tags sit one step past the last exchange.
    let owners = repaired.as_ref().unwrap_or(&schedule.final_owners);
    let owned = |o| {
        owners
            .iter()
            .filter_map(move |&(span, r)| (r == o).then_some((None, std::iter::once(span))))
    };
    finish(ctx, stage, scratch, local, owned, root, degraded, |slot| {
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
        let dst = local.span_pixels_mut(span)?;
        stage.merge_own(ctx, Phase::Flush, dst, [Ok(&*acc)])?;
        scratch.put_acc(acc);
    }
    Ok(())
}

/// The most any codec adds to a block's raw size (the bounds codec's two
/// counters): with it a message's buffer is sized once, before its streams
/// are written, and never grows.
pub(crate) const STREAM_HEADROOM: usize = 8;

/// The tail every plan family ends with: count what this rank finally
/// owns, run the gather — to the config's display wall, or else to the
/// one-cell wall at `root` — and package the output. `owned(o)` walks owner
/// `o`'s (possibly repaired) final pieces in ownership order, each its
/// spans and a content flag: `None` for a span schedule's spans, `Some(c)`
/// for a tile, announced in the gather's content bitmap, with `c` false
/// only where this rank knows the tile blank (its own tiles without
/// content). `local` holds this rank's owned pieces, `root` is the
/// (possibly reassigned) gather root, and `gather_tag` maps a sender slot
/// to the family's gather tag namespace.
#[allow(clippy::too_many_arguments)]
pub(crate) fn finish<P: Pixel, I, J>(
    ctx: &mut RankCtx,
    stage: &Stage<P>,
    scratch: &mut Scratch<P>,
    local: Image<P>,
    owned: impl Fn(usize) -> I,
    root: usize,
    degraded: Option<DegradedInfo>,
    gather_tag: impl Fn(usize) -> u64,
) -> Result<ComposeOutput<P>, CoreError>
where
    I: Iterator<Item = (Option<bool>, J)> + Clone,
    J: Iterator<Item = Span> + Clone,
{
    let owned_pixels = owned(ctx.rank())
        .flat_map(|(_, spans)| spans)
        .map(|span| span.len)
        .sum();
    let wall = stage.config.with_root(root).gather_target();
    let dead: BTreeSet<usize> = degraded
        .iter()
        .flat_map(|d| d.failed.iter().map(|(r, _)| *r))
        .collect();
    let frame = gather(ctx, stage, scratch, &owned, local, wall, &dead, &gather_tag)?;
    ctx.mark(Mark::GatherEnd);
    Ok(ComposeOutput {
        frame,
        owned_pixels,
        degraded,
    })
}

/// An owner's pieces cut to a display cell: each piece that meets `cell`,
/// with its flag and its segments there ([`span_cell_segments`]).
fn cell_pieces<J: Iterator<Item = Span> + Clone>(
    pieces: impl Iterator<Item = (Option<bool>, J)> + Clone,
    width: usize,
    cell: Rect,
) -> impl Iterator<Item = (Option<bool>, impl Iterator<Item = (Span, usize)> + Clone)> + Clone {
    let cut = move |(content, spans)| (content, span_cell_segments(spans, width, cell));
    pieces
        .map(cut)
        .filter(|(_, segs)| segs.clone().next().is_some())
}

/// The segments a gather message's stream carries (`sent`): every
/// unflagged piece's, and each flagged piece's whose bit is set in `bitmap`
/// (the `i`-th flagged piece reads bit `i`) — or, with `sent` false, the
/// rest: each flagged piece's whose bit is clear.
fn shipped<'b, J>(
    pieces: impl Iterator<Item = (Option<bool>, J)> + Clone + 'b,
    bitmap: &'b [u8],
    sent: bool,
) -> impl Iterator<Item = (Span, usize)> + Clone + 'b
where
    J: Iterator<Item = (Span, usize)> + Clone + 'b,
{
    let keep = move |i: &mut usize, (content, segs): (Option<bool>, J)| {
        let set = content.is_none() || {
            *i += 1;
            bit(bitmap, *i - 1)
        };
        Some((set == sent).then_some(segs))
    };
    pieces.scan(0, keep).flatten().flatten()
}

/// Whether `frame` is blank on every cell segment of `segs`: what the
/// in-place gather relies on where it writes nothing.
fn blank_on<P: Pixel>(frame: &Image<P>, mut segs: impl Iterator<Item = (Span, usize)>) -> bool {
    segs.all(|(seg, at)| {
        let pixels = frame.span_pixels(Span::new(at, seg.len));
        pixels.is_ok_and(|pixels| !P::any_non_blank(pixels))
    })
}

/// Bit `i` of a little-endian bitmap.
fn bit(bitmap: &[u8], i: usize) -> bool {
    bitmap[i / 8] & (1 << (i % 8)) != 0
}

/// The gather: each final owner ships, per display cell its pieces meet,
/// ONE message (the coalesced collection a real system would do with
/// `MPI_Gatherv`): a bitmap over its flagged pieces that meet the cell,
/// bit set where the piece holds content, then one codec stream of the
/// shipped pieces' segments in ownership order — unflagged pieces always,
/// flagged ones where their bit is set, no stream when none is. Sender and
/// receiver walk the same segments off the owner's pieces, so nothing else
/// is negotiated or listed; for the root's one-cell wall the segments are
/// the owner's spans themselves. Each display rank decodes every stream
/// over its owner's segments of the cell, a raw stream cut at the segment
/// boundaries and any other through one staging buffer.
///
/// Where the cell is the whole frame and no rank died — every gather to the
/// root — the display rank assembles the frame in `local` itself: its own
/// pieces are already in place, every other owner's stream overwrites
/// that owner's segments, and a piece no stream carries is blank there
/// already (a tile its live owner flags blank held content at no rank,
/// since every rank ships each tile it has content in to its owner). Any
/// other display rank assembles its cell from a blank framebuffer. Returns
/// the cell image on display ranks, `None` elsewhere. Ranks owning nothing
/// send nothing, and dead ranks (post-repair) neither send nor receive.
#[allow(clippy::too_many_arguments)]
fn gather<P: Pixel, I, J>(
    ctx: &mut RankCtx,
    stage: &Stage<P>,
    scratch: &mut Scratch<P>,
    owned: &impl Fn(usize) -> I,
    local: Image<P>,
    wall: DisplayWall,
    dead: &BTreeSet<usize>,
    gather_tag: &impl Fn(usize) -> u64,
) -> Result<Option<Image<P>>, CoreError>
where
    I: Iterator<Item = (Option<bool>, J)> + Clone,
    J: Iterator<Item = Span> + Clone,
{
    let me = ctx.rank();
    let (width, height) = (local.width(), local.height());
    // A piece goes into the stream unless it is flagged blank.
    let held = |(content, _): &(Option<bool>, _)| *content != Some(false);
    for d in 0..wall.count() {
        let drank = wall.rank_of(d);
        if drank == me || dead.contains(&drank) {
            continue;
        }
        let pieces = cell_pieces(owned(me), width, wall.cell_rect(d, width, height));
        if pieces.clone().next().is_none() {
            continue;
        }
        let started = ctx.obs_start();
        let flags = pieces.clone().filter_map(|(content, _)| content);
        let head = flags.clone().count().div_ceil(8);
        let segs = pieces.filter(held).flat_map(|(_, segs)| segs);
        let len: usize = segs.clone().map(|(seg, _)| seg.len).sum();
        let mut bytes = Vec::with_capacity(head + len * P::BYTES + STREAM_HEADROOM);
        bytes.resize(head, 0);
        for (i, content) in flags.enumerate() {
            bytes[i / 8] |= (content as u8) << (i % 8);
        }
        match segs.clone().next() {
            None => ctx.obs_span(Phase::Encode, started),
            Some(_) => {
                let segs = segs.map(|(seg, _)| seg);
                stage.encode_spans_into(ctx, started, scratch, &local, segs, &mut bytes)?
            }
        }
        ctx.send(drank, gather_tag(tag::wall_slot(d, me)), bytes)?;
    }
    let Some(d) = wall.display_of(me) else {
        return Ok(None);
    };
    let cell = wall.cell_rect(d, width, height);
    let in_place = wall.count() == 1 && dead.is_empty();
    let (mut out, local) = match in_place {
        true => (local, None),
        false => {
            // The blank cell is frame assembly, a decode's work on the wall
            // clock.
            let started = ctx.obs_start();
            let blank = Image::blank(cell.width(), cell.height());
            ctx.obs_span(Phase::Decode, started);
            (blank, Some(local))
        }
    };
    for owner in (0..ctx.size()).filter(|owner| !dead.contains(owner)) {
        let pieces = cell_pieces(owned(owner), width, cell);
        if owner == me {
            let Some(local) = &local else {
                let unheld = pieces.filter(|piece| !held(piece));
                debug_assert!(blank_on(&out, unheld.flat_map(|(_, segs)| segs)));
                continue;
            };
            // This rank's own pieces with content, copied into the cell.
            let started = ctx.obs_start();
            (pieces.filter(held).flat_map(|(_, segs)| segs)).try_for_each(
                |(seg, at)| -> Result<(), CoreError> {
                    out.insert(Span::new(at, seg.len), local.span_pixels(seg)?)?;
                    Ok(())
                },
            )?;
            ctx.obs_span(Phase::Decode, started);
            continue;
        }
        if pieces.clone().next().is_none() {
            continue;
        }
        let bytes = ctx.recv(owner, gather_tag(tag::wall_slot(d, owner)))?;
        let started = ctx.obs_start();
        let n = pieces
            .clone()
            .filter(|(content, _)| content.is_some())
            .count();
        let bad = |why: String| CoreError::InvalidSchedule {
            why: format!(
                "rank {owner}: gather message of {} bytes {why}",
                bytes.len()
            ),
        };
        let (bitmap, stream) = match bytes.len() >= n.div_ceil(8) {
            true => bytes.split_at(n.div_ceil(8)),
            false => return Err(bad(format!("ends inside its bitmap of {n} pieces"))),
        };
        if (n..bitmap.len() * 8).any(|i| bit(bitmap, i)) {
            return Err(bad(format!("sets a bit past its {n} pieces")));
        }
        let segs = shipped(pieces.clone(), bitmap, true);
        let mut peek = segs.clone();
        match (peek.next(), peek.next()) {
            (None, _) if stream.is_empty() => {}
            (None, _) => return Err(bad(format!("has {} trailing bytes", stream.len()))),
            // One segment: stream straight into the cell.
            (Some((first, at)), None) => {
                stage.unpack(ctx, stream, out.span_pixels_mut(Span::new(at, first.len))?)?
            }
            // A raw stream is its segments end to end: each part decoded
            // straight into place, the last taking whatever is left, so a
            // stream of the wrong length is still the codec's error.
            _ if stage.raw => {
                let mut rest = stream;
                let mut segs = segs.peekable();
                while let Some((seg, at)) = segs.next() {
                    let take = match segs.peek() {
                        Some(_) => rest.len().min(seg.len * P::BYTES),
                        None => rest.len(),
                    };
                    let (part, tail) = rest.split_at(take);
                    stage.unpack(ctx, part, out.span_pixels_mut(Span::new(at, seg.len))?)?;
                    rest = tail;
                }
            }
            _ => {
                let total = segs.clone().map(|(seg, _)| seg.len).sum();
                let mut staged = scratch.take_buf(total, ctx);
                stage.unpack(ctx, stream, &mut staged)?;
                let cell_spans = segs.map(|(seg, at)| Span::new(at, seg.len));
                scatter(&mut out, cell_spans, &staged)?;
                scratch.put_acc(staged);
            }
        }
        // A well-formed message's unshipped tiles are blank in place.
        debug_assert!(!in_place || blank_on(&out, shipped(pieces, bitmap, false)));
        ctx.obs_span(Phase::Decode, started);
    }
    Ok(Some(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rotate::{self, RtVariant};
    use crate::schedule::{Step, Transfer};
    use crate::Method;
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
        let schedule = rotate::schedule(4, 256, RtVariant::TwoN, 2).unwrap();
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
            ("bs", Method::BinarySwap.build(4, 256).unwrap()),
            ("pp", Method::ParallelPipelined.build(4, 256).unwrap()),
            ("rt", rotate::schedule(4, 256, RtVariant::TwoN, 2).unwrap()),
        ] {
            let config = ComposeConfig::default();
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
        let schedule = Method::BinarySwap.build(4, 256).unwrap();
        let config = ComposeConfig::default();
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
        let schedule = rotate::schedule(4, 1024, RtVariant::TwoN, 2).unwrap();
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

    /// A fault plan that crashes no rank repairs nothing and flags nothing.
    #[test]
    fn resilient_clean_run_is_not_flagged_degraded() {
        let schedule = two_rank_swap(24);
        let config = ComposeConfig::default();
        let faults = FaultPlan::none().drop_message(0, 1, 0);
        let (results, trace) = run_faulty(&schedule, provenance_partials(2, 6, 4), &config, faults);
        assert!(trace.retransmit_count() > 0);
        for r in &results {
            assert!(r.as_ref().unwrap().degraded.is_none());
        }
    }
}
