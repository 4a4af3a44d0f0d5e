//! [`Run`]: execute a plan on a whole machine in one call.
//!
//! [`crate::compose_plan`] is what one rank does; `Run` is the harness
//! around it that tests, benches and examples want — build the machine the
//! config's transport selects, hand every rank its partial, compose, and
//! return the per-rank outputs with the event trace. Faults, a scratch
//! pool and an observer are independent add-ons, so any combination is one
//! expression:
//!
//! ```
//! use rt_core::{ComposeConfig, Method, Run, ScratchPool};
//! use rt_imaging::pixel::GrayAlpha8;
//! use rt_imaging::Image;
//! use std::sync::Arc;
//!
//! let plan = Method::BinarySwap.plan(4, 8, 8).unwrap();
//! let config = ComposeConfig::default();
//! let partials: Vec<Image<GrayAlpha8>> = (0..4)
//!     .map(|r| Image::from_fn(8, 8, |x, _| GrayAlpha8::new(40 * r as u8 + x as u8, 128)))
//!     .collect();
//! let pool = ScratchPool::new();
//! let observer = Arc::new(rt_obs::Observer::new());
//! let (outputs, trace) = Run::new(&plan, &config)
//!     .faults(rt_comm::FaultPlan::none().crash_rank_at_step(3, 1))
//!     .pool(&pool)
//!     .observer(observer)
//!     .execute(partials);
//! assert!(outputs[0].as_ref().unwrap().degraded.is_some());
//! assert!(trace.message_count() > 0);
//! ```

use crate::exec::{ComposeConfig, ComposeOutput, Machine, ScratchPool, TransportKind};
use crate::tile::{compose_plan, ComposePlan};
use crate::CoreError;
use rt_comm::{FaultPlan, Trace};
use rt_imaging::pixel::Pixel;
use rt_imaging::Image;
use rt_obs::Observer;
use std::sync::{Arc, Mutex};

/// Per-rank outputs of a [`Run`], indexed by rank, plus the event trace.
pub type RunOutput<P> = (Vec<Result<ComposeOutput<P>, CoreError>>, Trace);

/// One execution of `plan` under `config` over a fresh machine.
pub struct Run<'a, P: Pixel> {
    plan: &'a ComposePlan,
    config: &'a ComposeConfig,
    faults: FaultPlan,
    pool: Option<&'a ScratchPool<P>>,
    observer: Option<Arc<Observer>>,
}

impl<'a, P: Pixel> Run<'a, P> {
    /// A fault-free, unobserved run with fresh scratch buffers.
    pub fn new(plan: &'a ComposePlan, config: &'a ComposeConfig) -> Self {
        Run {
            plan,
            config,
            faults: FaultPlan::none(),
            pool: None,
            observer: None,
        }
    }

    /// Install `faults` on the machine, so message loss, corruption and
    /// rank crashes can be exercised end to end (a crash the plan
    /// schedules within the compose degrades the frame gracefully).
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Check each rank's [`crate::Scratch`] out of (and back into) `pool`,
    /// so repeated runs — one per animation frame — reuse their buffers.
    pub fn pool(mut self, pool: &'a ScratchPool<P>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Record wall-clock phase spans and counters into `observer`, which
    /// accumulates across runs. The trace and the frames are identical to
    /// an unobserved run — wall-clock measurements never enter the
    /// [`Trace`].
    pub fn observer(mut self, observer: Arc<Observer>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Compose `partials` (`partials[r]` is rank `r`'s rendered partial;
    /// rank order is depth order unless the plan was permuted).
    ///
    /// # Panics
    /// When `partials.len()` is not the plan's rank count.
    pub fn execute(self, partials: Vec<Image<P>>) -> RunOutput<P> {
        let Run {
            plan,
            config,
            faults,
            pool,
            observer,
        } = self;
        let p = plan.p();
        assert_eq!(partials.len(), p, "one partial image per rank required");
        let topology = plan_topology(plan, config, &faults);
        let machine = Machine::build_with_topology(p, config, faults, observer, topology);
        let partials = Mutex::new(partials.into_iter().map(Some).collect::<Vec<_>>());
        machine.run(move |ctx| {
            // Poison-tolerant: if another rank panicked while holding the
            // lock, this rank still takes its own slot instead of
            // cascading the panic.
            let local = partials.lock().unwrap_or_else(|e| e.into_inner())[ctx.rank()]
                .take()
                .ok_or_else(|| CoreError::InvalidSchedule {
                    why: format!("rank {} has no partial image to compose", ctx.rank()),
                })?;
            let mut scratch = match pool {
                Some(pool) => pool.checkout(ctx.rank()),
                None => Default::default(),
            };
            let out = compose_plan(ctx, plan, local, config, &mut scratch);
            if let Some(pool) = pool {
                pool.checkin(ctx.rank(), scratch);
            }
            out
        })
    }
}

/// The connection topology a TCP run can restrict itself to, when that is
/// safe: a span schedule on real sockets talks over exactly the links it
/// lists ([`crate::Schedule::links`]), which for a hierarchical schedule is
/// `O(P·k + (P/k)²)` sockets instead of the `O(P²)` mesh. `None` (keep the
/// full mesh) for the in-process backend (no sockets to save), for tile
/// plans (the message set depends on the content), and for faulty runs —
/// repair fetches and reassigned owners may route between ranks the
/// crash-free schedule never pairs.
fn plan_topology(
    plan: &ComposePlan,
    config: &ComposeConfig,
    faults: &FaultPlan,
) -> Option<rt_net::Topology> {
    if config.transport != TransportKind::TcpLoopback || !faults.is_none() {
        return None;
    }
    match plan {
        ComposePlan::Schedule(s) => Some(rt_net::Topology::from_links(
            s.links(config.gather_target()),
        )),
        ComposePlan::Tiles(_) => None,
    }
}

/// `Run::new(plan, config).pool(pool).execute(partials)` under its pre-`Run`
/// name: the frozen `benchmark/` package links this function, so it stays
/// as a delegation. New code uses [`Run`].
pub fn run_plan_composition_pooled<P: Pixel>(
    plan: &ComposePlan,
    partials: Vec<Image<P>>,
    config: &ComposeConfig,
    pool: &ScratchPool<P>,
) -> RunOutput<P> {
    Run::new(plan, config).pool(pool).execute(partials)
}
