//! What a [`ScratchPool`] carries for rt-pvr from call to call: the session.
//!
//! A session is the view-independent partition ([`Partitioned`]) plus a
//! **resident machine** ([`Ranks`]): one thread per rank, each with a parked
//! render thread, and the warp helpers the frame-holding rank splits its
//! warp with. The threads wait on channels between calls, so a pooled frame
//! or an orbit after the session's first starts no thread: a call hands its
//! plans to the ranks as one *run* and assembles what they report
//! ([`Call`]).
//!
//! The warp helpers also keep one spare blank screen ([`Crew`]): the first
//! helper makes the next frame's screen once its bands are done, so the
//! frame-holding rank warps onto memory that is already blank and paged in
//! instead of filling 2 MB before any helper starts.
//!
//! A parked machine holds the ranks' transports. A run moves each into its
//! rank's job; the rank builds a fresh [`RankCtx`] over it and hands it
//! back when it reports the run done. So sequence numbers start from zero
//! and a call's frames number from frame 0: its trace is the one a new
//! machine records, byte for byte.
//!
//! The machine is checked out for a call and checked back in after it, like
//! a [`Scratch`], under one rule ([`Session::checkin`]): it is parked again
//! only when the call ran in process without a fault plan, every frame of
//! it was clean, every rank handed its transport back and every inbox is
//! empty.
//! Otherwise it is dropped and the next call builds a fresh one. A call on
//! TCP or with faults installed, and one that finds the machine checked out
//! by a concurrent call, runs on a machine of its own that lives for that
//! call. No parked thread holds anything that points back to the pool, so
//! dropping the pool drops the session, which closes the run channels and
//! joins the threads.

use crate::pipeline::{FramePlan, PartitionKey, Partitioned};
use crate::stream::{assemble_frame, stream_rank, Contribution, StreamConfig, StreamFrame};
use crate::PvrError;
use rt_comm::{note_thread_spawns, panic_message, FaultPlan, RankCtx, RankOptions, Transport};
use rt_core::exec::{ComposeConfig, Machine, Scratch, ScratchPool, TransportKind};
use rt_imaging::{GrayAlpha, Image};
use rt_render::camera::Factorization;
use rt_render::shearwarp::{BlankScreen, RenderOptions, ScreenWarp};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Start a thread named `pvr <what>` and count it in
/// [`rt_comm::threads_spawned`].
// `std::thread::spawn`'s own contract: a host that cannot start a thread
// is not a condition a frame recovers from.
#[allow(clippy::panic)]
fn spawn(what: String, body: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    note_thread_spawns(1);
    std::thread::Builder::new()
        .name(format!("pvr {what}"))
        .spawn(body)
        .unwrap_or_else(|e| panic!("starting pvr {what}: {e}"))
}

/// The value rt-pvr keeps in a pool's carried slot.
pub(crate) struct Session {
    partition: Mutex<Option<Arc<Partitioned>>>,
    machine: Mutex<Slot>,
}

/// Where the session's resident machine is.
enum Slot {
    /// None built yet, or the last one was dropped.
    Empty,
    /// Parked between calls.
    Parked(Ranks),
    /// Checked out by a call.
    Out,
}

impl Session {
    /// The session `pool` carries, carried from now on if it carried none.
    pub fn of(pool: &ScratchPool<GrayAlpha>) -> Arc<Session> {
        pool.carried::<Session>().unwrap_or_else(|| {
            let session = Arc::new(Session {
                partition: Mutex::new(None),
                machine: Mutex::new(Slot::Empty),
            });
            pool.carry(Arc::clone(&session));
            session
        })
    }

    /// The partition for `key`: the session's, or a new one that replaces
    /// it. A planner keeps its own handle, whoever replaces this one.
    pub fn partition(&self, key: PartitionKey) -> Arc<Partitioned> {
        let mut slot = lock(&self.partition);
        match &*slot {
            Some(partition) if partition.key == key => Arc::clone(partition),
            _ => Arc::clone(slot.insert(Arc::new(Partitioned::new(key)))),
        }
    }

    /// The partition the session holds now.
    #[cfg(test)]
    pub fn carried_partition(&self) -> Option<Arc<Partitioned>> {
        lock(&self.partition).clone()
    }

    /// The machine a call of `p` ranks under `compose` and `faults` runs
    /// on: the parked one when the call may keep it, else a fresh one.
    fn checkout(
        &self,
        p: usize,
        compose: &ComposeConfig,
        faults: &FaultPlan,
    ) -> Result<Lease, PvrError> {
        let mut resident = compose.transport == TransportKind::InProc && faults.is_none();
        if resident {
            let mut slot = lock(&self.machine);
            match std::mem::replace(&mut *slot, Slot::Out) {
                Slot::Parked(ranks) if ranks.p == p => return Ok(Lease { ranks, resident }),
                Slot::Parked(other) => {
                    drop(slot);
                    drop(other);
                }
                Slot::Out => resident = false,
                Slot::Empty => {}
            }
        }
        Ranks::build(p, compose)
            .map(|ranks| Lease { ranks, resident })
            .inspect_err(|_| {
                if resident {
                    *lock(&self.machine) = Slot::Empty;
                }
            })
    }

    /// The one lifetime rule: the session's machine is parked again only
    /// after a clean call whose ranks all handed their transports back with
    /// nothing in an inbox; any other machine is dropped here, joining its
    /// threads.
    fn checkin(&self, lease: Lease, clean: bool) {
        if !lease.resident {
            return;
        }
        let mut ranks = lease.ranks;
        let parked = clean
            && ranks.transports.len() == ranks.p
            && (ranks.transports.iter_mut())
                .all(|transport| transport.recv_raw(Duration::ZERO).is_err());
        let dropped = {
            let mut slot = lock(&self.machine);
            if parked {
                *slot = Slot::Parked(ranks);
                None
            } else {
                *slot = Slot::Empty;
                Some(ranks)
            }
        };
        drop(dropped);
    }
}

/// A machine checked out for one call; `resident` if it is the session's.
struct Lease {
    ranks: Ranks,
    resident: bool,
}

/// One call's work, shared by every rank of the machine running it.
pub(crate) struct Run {
    pub config: StreamConfig,
    pub compose: ComposeConfig,
    pub plans: Vec<FramePlan>,
}

/// A run as one rank receives it.
struct RankJob {
    run: Arc<Run>,
    reports: mpsc::Sender<Report>,
    scratch: Scratch<GrayAlpha>,
    transport: Box<dyn Transport>,
}

/// What a rank tells the call running it.
pub(crate) enum Report {
    /// Its part of one frame.
    Frame(Contribution),
    /// The run is over on this rank: its scratch and transport, and its
    /// panic if any.
    Done {
        rank: usize,
        scratch: Scratch<GrayAlpha>,
        transport: Box<dyn Transport>,
        panic: Option<String>,
    },
}

/// A run as a rank's parked render thread receives it: render this rank's
/// slab for each frame in turn and hand the partials over `partials`.
pub(crate) struct RenderJob {
    pub run: Arc<Run>,
    pub partials: mpsc::SyncSender<(usize, Image<GrayAlpha>)>,
}

/// The resident machine: `p` rank threads, each with a parked renderer,
/// and the warp helpers.
pub(crate) struct Ranks {
    p: usize,
    runs: Vec<mpsc::Sender<RankJob>>,
    /// The ranks' transports, in any order, while no call runs; a call
    /// moves them into its jobs and files them back as the ranks report.
    transports: Vec<Box<dyn Transport>>,
    ranks: Vec<JoinHandle<()>>,
    helpers: Vec<JoinHandle<()>>,
}

impl Ranks {
    fn build(p: usize, compose: &ComposeConfig) -> Result<Ranks, PvrError> {
        let mesh = Machine::build(p, compose, FaultPlan::none(), None)
            .mesh()
            .map_err(|e| PvrError::Config {
                what: format!("loopback mesh of {p} ranks failed: {e}"),
            })?;
        let (crew, helpers) = Crew::build();
        let crew = Arc::new(crew);
        let mut runs = Vec::with_capacity(p);
        let mut ranks = Vec::with_capacity(p);
        for rank in 0..p {
            let (tx, jobs) = mpsc::channel();
            let crew = Arc::clone(&crew);
            let body = move || park_rank(rank, &jobs, &crew);
            ranks.push(spawn(format!("rank {rank}"), body));
            runs.push(tx);
        }
        Ok(Ranks {
            p,
            runs,
            transports: mesh,
            ranks,
            helpers,
        })
    }
}

impl Drop for Ranks {
    fn drop(&mut self) {
        // Closing the run channels ends every rank's loop; the last rank to
        // go drops the crew, which ends the helpers'.
        self.runs.clear();
        for thread in self.ranks.drain(..).chain(self.helpers.drain(..)) {
            let _ = thread.join();
        }
    }
}

/// A rank's thread: one fresh context per run over the transport the run
/// lends it.
fn park_rank(me: usize, jobs: &mpsc::Receiver<RankJob>, crew: &Crew) {
    let (renderer, render_jobs) = mpsc::channel::<RenderJob>();
    let render_thread = spawn(format!("render {me}"), move || {
        park_renderer(me, &render_jobs);
    });
    for RankJob {
        run,
        reports,
        mut scratch,
        transport,
    } in jobs
    {
        let options = RankOptions {
            timeout: run.compose.timeout,
            faults: run.config.faults.clone(),
            recorder: None,
        };
        let mut ctx = RankCtx::over_transport(transport, options);
        let ran = catch_unwind(AssertUnwindSafe(|| {
            stream_rank(&mut ctx, &run, &mut scratch, &renderer, crew, &reports);
        }));
        drop(run);
        let panic = ran.err().map(|payload| panic_message(&*payload));
        let _ = reports.send(Report::Done {
            rank: me,
            scratch,
            transport: ctx.into_transport(),
            panic,
        });
    }
    drop(renderer);
    let _ = render_thread.join();
}

/// A rank's render thread: its slab of each frame of a run, in order, until
/// the rank's scripted death or until the rank stops taking partials.
fn park_renderer(me: usize, jobs: &mpsc::Receiver<RenderJob>) {
    for RenderJob { run, partials } in jobs {
        let render = &run.config.base.render;
        let death = run.config.death_of(me);
        for (k, plan) in run.plans.iter().enumerate() {
            if death.is_some_and(|death| k >= death) {
                break;
            }
            let (partial, _) = plan.parts[me].render(&plan.camera, render);
            if partials.send((k, partial)).is_err() {
                break; // compose loop stopped; backpressure doubles as shutdown
            }
        }
    }
}

/// The warp helpers, `rt_render::threads::workers() - 1` of them: with the
/// rank that holds the frame they are as many threads as the warp's own
/// split would start. The crew keeps one spare [`BlankScreen`]: the first
/// helper, once its bands are done, makes the next frame's screen at the
/// size it just warped if the slot is empty, while the ranks render and
/// compose that frame; [`Crew::warp`] takes it. With no helper the slot
/// stays empty and the warp blanks its own screen.
pub(crate) struct Crew {
    helpers: Vec<mpsc::Sender<WarpJob>>,
    spare: Arc<Mutex<Option<BlankScreen>>>,
}

type WarpJob = (Arc<ScreenWarp<Image<GrayAlpha>>>, mpsc::Sender<()>);

impl Crew {
    fn build() -> (Crew, Vec<JoinHandle<()>>) {
        let spare = Arc::new(Mutex::new(None));
        let (helpers, threads) = (1..rt_render::threads::workers())
            .map(|helper| {
                let (tx, jobs) = mpsc::channel::<WarpJob>();
                let spare = (helper == 1).then(|| Arc::clone(&spare));
                let thread = spawn("warp".to_string(), move || {
                    for (warp, done) in jobs {
                        warp.work();
                        let (width, height) = warp.size();
                        drop(warp);
                        let _ = done.send(());
                        // Filled outside the lock, so a warp that comes
                        // for the spare meanwhile blanks its own instead of
                        // waiting for this one.
                        if let Some(spare) = spare.as_deref() {
                            if lock(spare).is_none() {
                                let screen = BlankScreen::new(width, height);
                                lock(spare).get_or_insert(screen);
                            }
                        }
                    }
                });
                (tx, thread)
            })
            .unzip();
        (Crew { helpers, spare }, threads)
    }

    /// Warp `inter` to the screen with every helper, onto the spare screen
    /// if one is made: the same frame as
    /// [`rt_render::shearwarp::warp_to_screen`].
    pub fn warp(
        &self,
        inter: Image<GrayAlpha>,
        f: &Factorization,
        opts: &RenderOptions,
    ) -> Image<GrayAlpha> {
        let spare = lock(&self.spare).take();
        let warp = Arc::new(ScreenWarp::new(inter, f, opts, spare));
        let (done_tx, done) = mpsc::channel();
        let helping = self
            .helpers
            .iter()
            .filter(|helper| helper.send((Arc::clone(&warp), done_tx.clone())).is_ok())
            .count();
        drop(done_tx);
        warp.work();
        // A helper that died mid-band dropped its sender: stop waiting.
        for _ in 0..helping {
            if done.recv().is_err() {
                break;
            }
        }
        warp.take_screen()
    }
}

/// One call's run on a machine: the plans handed to every rank, then the
/// ranks' reports assembled into frames, in order, as they are asked for.
pub(crate) struct Call {
    p: usize,
    session: Arc<Session>,
    lease: Option<Lease>,
    run: Arc<Run>,
    reports: mpsc::Receiver<Report>,
    pending: BTreeMap<usize, Vec<Contribution>>,
    next: usize,
    stopped: bool,
    clean: bool,
    done: usize,
    scratch: Vec<(usize, Scratch<GrayAlpha>)>,
    panics: Vec<(usize, String)>,
}

impl Call {
    /// Check out a machine of `p` ranks and start `plans` on it, each rank
    /// with its scratch from `pool`.
    pub fn start(
        session: Arc<Session>,
        pool: &ScratchPool<GrayAlpha>,
        p: usize,
        config: StreamConfig,
        plans: Vec<FramePlan>,
    ) -> Result<Call, PvrError> {
        let compose = config.base.compose_config(config.transport);
        let mut lease = session.checkout(p, &compose, &config.faults)?;
        let run = Arc::new(Run {
            config,
            compose,
            plans,
        });
        let (reports_tx, reports) = mpsc::channel();
        let mut call = Call {
            p,
            session,
            lease: None,
            run,
            reports,
            pending: BTreeMap::new(),
            next: 0,
            stopped: false,
            clean: true,
            done: 0,
            scratch: Vec::with_capacity(p),
            panics: Vec::new(),
        };
        for transport in std::mem::take(&mut lease.ranks.transports) {
            let rank = transport.rank();
            let job = RankJob {
                run: Arc::clone(&call.run),
                reports: reports_tx.clone(),
                scratch: pool.checkout(rank),
                transport,
            };
            // A rank thread that is gone never reports: count it done.
            if let Err(mpsc::SendError(job)) = lease.ranks.runs[rank].send(job) {
                call.scratch.push((rank, job.scratch));
                lease.ranks.transports.push(job.transport);
                call.done += 1;
                call.clean = false;
            }
        }
        call.lease = Some(lease);
        Ok(call)
    }

    /// The next frame, `None` after the last one or a failed one.
    pub fn next_frame(&mut self) -> Option<Result<StreamFrame, PvrError>> {
        let index = self.next;
        if self.stopped || index == self.run.plans.len() {
            return None;
        }
        let p = self.p;
        while self.pending.get(&index).map_or(0, Vec::len) < p {
            if self.done == p || !self.receive() {
                // Every rank finished without completing this frame.
                self.stopped = true;
                return Some(Err(PvrError::Frame {
                    index,
                    source: Box::new(PvrError::Config {
                        what: "stream ended before the frame was produced".into(),
                    }),
                }));
            }
        }
        let contributions = self.pending.remove(&index).unwrap_or_default();
        let plan = &self.run.plans[index];
        let (yaw, rank_of_depth) = (plan.camera.yaw, plan.rank_of_depth.clone());
        let frame = assemble_frame(p, index, contributions, yaw, rank_of_depth);
        self.next += 1;
        match &frame {
            Ok(frame) => self.clean &= frame.degraded.is_none(),
            Err(_) => self.stopped = true,
        }
        Some(frame)
    }

    /// File one report; false once every rank's sender is gone.
    fn receive(&mut self) -> bool {
        match self.reports.recv() {
            Ok(Report::Frame(c)) => self.pending.entry(c.frame).or_default().push(c),
            Ok(Report::Done {
                rank,
                scratch,
                transport,
                panic,
            }) => {
                self.done += 1;
                self.scratch.push((rank, scratch));
                if let Some(lease) = &mut self.lease {
                    lease.ranks.transports.push(transport);
                }
                self.panics.extend(panic.map(|message| (rank, message)));
            }
            Err(_) => return false,
        }
        true
    }

    /// Wait until every rank is done with the run, check the scratch back
    /// into `pool` and the machine into the session; returns the ranks that
    /// panicked. A call finishes once: later calls return nothing.
    pub fn finish(&mut self, pool: &ScratchPool<GrayAlpha>) -> Vec<(usize, String)> {
        let p = self.p;
        while self.done < p && self.receive() {}
        let Some(lease) = self.lease.take() else {
            return Vec::new();
        };
        let whole = !self.stopped && self.next == self.run.plans.len();
        let clean = self.clean && whole && self.done == p && self.panics.is_empty();
        for (rank, scratch) in self.scratch.drain(..) {
            pool.checkin(rank, scratch);
        }
        self.pending.clear();
        self.session.checkin(lease, clean);
        std::mem::take(&mut self.panics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_render::camera::Camera;
    use rt_render::datasets::Dataset;
    use rt_render::shearwarp::{render_intermediate, warp_to_screen};
    use rt_render::Subvolume;

    /// Return once the first helper is idle: it takes jobs in order, so an
    /// empty warp's "done" comes after the spare its last warp made.
    fn settle(crew: &Crew, f: &Factorization) {
        let Some(helper) = crew.helpers.first() else {
            return;
        };
        let none = RenderOptions::square(0);
        let idle = Arc::new(ScreenWarp::new(Image::blank(0, 0), f, &none, None));
        let (done_tx, done) = mpsc::channel();
        helper.send((idle, done_tx)).unwrap();
        done.recv().unwrap();
    }

    #[test]
    fn the_crew_warps_onto_a_spare_of_the_frames_size_and_drops_any_other() {
        let sub = Subvolume::whole(Dataset::Engine.generate(24, 7));
        let tf = Dataset::Engine.transfer_function();
        let camera = Camera::yaw_pitch(0.3, 0.15);
        let (crew, helpers) = Crew::build();
        // Every warp after the first starts with a spare, of another size
        // at each size change; with no helper, never one.
        for n in [64, 96, 64, 64] {
            let opts = RenderOptions::square(n);
            let (inter, f) = render_intermediate(&sub, &tf, &camera, &opts);
            let want = warp_to_screen(&inter, &f, &opts);
            let got = crew.warp(inter, &f, &opts);
            assert_eq!((got.width(), got.height()), (n, n));
            assert_eq!(got.pixels(), want.pixels(), "{n}²");
            settle(&crew, &f);
            assert_eq!(lock(&crew.spare).is_some(), !helpers.is_empty());
        }
        drop(crew);
        for helper in helpers {
            helper.join().unwrap();
        }
    }
}
