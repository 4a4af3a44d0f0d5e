//! Shared plumbing for **multi-process composition cells**: the [`Job`] a
//! launcher hands each `netrank` worker process, the seeded scenario matrix
//! the `chaos --transport tcp` soak drives over them, the per-rank result
//! blob a worker reports back, and the trichotomy gate that judges every
//! scenario. A clean cell (`tests/tcp_reconcile.rs`) is a job under the
//! matrix's control scenario.
//!
//! The launcher and the workers are separate processes of the *same*
//! build, so everything they must agree on lives here and is a pure
//! function of `(p, frame, seed)`: the scenario list, each rank's
//! [`NetFaultPlan`], the [`TcpOptions`] failure budget, and the envelope
//! [`FaultPlan`]. A worker reconstructs its scenario from its command
//! line alone — no fault schedule ever crosses the rendezvous.
//!
//! Every scenario must land in exactly one bucket of the trichotomy:
//!
//! * **bit-exact** — socket faults the link layer repairs (reconnect +
//!   replay) are invisible to the envelope; the run reconciles against a
//!   clean in-process reference, event trace and frame hash bit for bit.
//! * **exact-degraded** — a killed worker degrades the output exactly as
//!   the in-process `crash_rank_at_step` run of the same plan: survivors'
//!   traces, the root frame hash, and the lost-pixel accounting all match.
//! * **typed error** — faults past the repair budget surface as typed
//!   errors (never a panic, never a hang); every process still terminates
//!   under the watchdog and reports what failed.

use rt_comm::{FaultPlan, RankTrace, Trace};
use rt_compress::CodecKind;
use rt_core::exec::ComposeConfig;
use rt_core::method::Method;
use rt_core::rotate::RtVariant;
use rt_core::Run;
use rt_net::{process::read_blob, Launcher, NetFaultPlan, TcpOptions};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::netgrid::frame_hash;
use rt_imaging::synth::band_partials;

/// Which bucket of the trichotomy a scenario must land in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expectation {
    /// Faults are absorbed below the envelope: the run must reconcile
    /// bit-exactly (trace + frame) against the clean in-process run.
    BitExact,
    /// A worker process dies mid-composition: survivors must produce the
    /// same exact-degraded output as the in-process crash run.
    Degraded,
    /// The fault exceeds the repair budget: at least one rank must report
    /// a typed error, and every process must still terminate cleanly.
    TypedError,
}

impl Expectation {
    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            Expectation::BitExact => "bit-exact",
            Expectation::Degraded => "exact-degraded",
            Expectation::TypedError => "typed error",
        }
    }
}

/// The link-layer failure budget a scenario runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Budget {
    /// Enough reconnect budget to absorb every planned socket fault.
    Repairing,
    /// Zero reconnect attempts: the first lost link is terminal.
    NoReconnect,
}

/// One cell of the soak matrix. Everything is deterministic in
/// `(p, frame, seed)` — see [`scenarios`].
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Index into the [`scenarios`] list (the worker's `--scenario`).
    pub id: usize,
    /// Short name for tables and logs.
    pub name: &'static str,
    /// What is being injected, for the report.
    pub describe: String,
    /// Which trichotomy bucket the run must land in.
    pub expect: Expectation,
    /// Envelope-level fault plan, identical on every rank (carries the
    /// planned crash for the kill scenarios).
    pub faults: FaultPlan,
    /// Per-rank socket-level fault plans, indexed by rank.
    pub net: Vec<NetFaultPlan>,
    /// Envelope receive deadline for every rank.
    pub recv_timeout: Duration,
    /// Link-layer failure budget.
    pub budget: Budget,
    /// Rank whose process exits mid-composition without reporting.
    pub victim: Option<usize>,
    /// Wall-clock bound on the whole distributed run (rendezvous through
    /// last result); overrunning it fails the scenario.
    pub watchdog: Duration,
}

impl Scenario {
    /// The [`TcpOptions`] every worker of this scenario builds its mesh
    /// with: a repair budget sized to the scenario. (Nothing here says
    /// when a victim dies: a survivor's link layer only learns *that* it
    /// did, and the envelope reads the step off [`Scenario::faults`].)
    pub fn tcp_options(&self) -> TcpOptions {
        match self.budget {
            Budget::Repairing => TcpOptions {
                reconnect_attempts: 6,
                reconnect_backoff: Duration::from_millis(25),
                restore_deadline: Duration::from_millis(900),
                heartbeat_interval: Some(Duration::from_millis(100)),
            },
            Budget::NoReconnect => TcpOptions {
                reconnect_attempts: 0,
                reconnect_backoff: Duration::from_millis(1),
                restore_deadline: Duration::from_millis(150),
                heartbeat_interval: Some(Duration::from_millis(100)),
            },
        }
    }

    /// Whether the scenario reconciles against an in-process reference
    /// run (the typed-error bucket has nothing exact to compare to).
    pub fn reconciles(&self) -> bool {
        self.expect != Expectation::TypedError
    }
}

/// The method every soak cell composes with (the paper's rotate-tiling
/// schedule, `2N_RT(4)`).
pub fn soak_method() -> Method {
    Method::RotateTiling {
        variant: RtVariant::TwoN,
        blocks: 4,
    }
}

/// One composition cell, as a launcher encodes it onto a `netrank` command
/// line and the worker decodes it back.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Job {
    /// Index into [`Method::bench_lineup`] (indices are stable across
    /// processes of one build — both sides call the same function).
    pub method_index: usize,
    /// Message codec for every transfer and the gather.
    pub codec: CodecKind,
    /// Square frame edge in pixels.
    pub frame: usize,
    /// Index into [`scenarios`]; 0 is the clean control scenario.
    pub scenario: usize,
    /// Seed of the scenario matrix.
    pub seed: u64,
}

impl Job {
    /// The soak's cell for scenario `scenario`: [`soak_method`], raw codec.
    ///
    /// # Panics
    /// Panics if the soak method is not in the bench lineup.
    pub fn soak(scenario: usize, frame: usize, seed: u64) -> Job {
        let method_index = Method::bench_lineup()
            .iter()
            .position(|m| *m == soak_method())
            .unwrap_or_else(|| panic!("the soak method left the bench lineup"));
        Job {
            method_index,
            codec: CodecKind::Raw,
            frame,
            scenario,
            seed,
        }
    }

    /// The method this job runs.
    ///
    /// # Panics
    /// Panics if `method_index` is out of range for the lineup.
    pub fn method(&self) -> Method {
        Method::bench_lineup()[self.method_index]
    }

    /// Encode as `netrank` command-line arguments.
    pub fn to_args(&self) -> Vec<String> {
        format!(
            "--method-index {} --codec {} --frame {} --scenario {} --seed {}",
            self.method_index,
            self.codec.name(),
            self.frame,
            self.scenario,
            self.seed
        )
        .split(' ')
        .map(String::from)
        .collect()
    }
}

/// The seeded scenario matrix: a pure function of `(p, frame, seed)` so
/// the launcher and every worker construct byte-identical plans.
///
/// Requires `p >= 4`: the matrix spreads injection points across four
/// distinct ranks. Fault targets all include rank 0 (the gather root), so
/// every targeted `(to, nth)` pair is guaranteed live traffic.
pub fn scenarios(p: usize, frame: usize, seed: u64) -> Vec<Scenario> {
    assert!(p >= 4, "the chaos soak matrix needs at least 4 ranks");
    let schedule = soak_method()
        .build(p, frame * frame)
        .unwrap_or_else(|e| panic!("soak schedule: {e}"));
    let steps = schedule.steps.len();
    let victim = p - 1; // deepest rank: survivors stay contiguous
    let clean_net = || vec![NetFaultPlan::none(); p];
    // Per-rank seeds must differ, or every rank would draw the same
    // probabilistic faults for the same (to, nth) pair.
    let rank_seed =
        |rank: usize| seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(rank as u64 + 1));

    let normal_recv = Duration::from_secs(10);
    let watchdog = Duration::from_secs(60);
    let mut list = Vec::new();
    let mut push = |name: &'static str,
                    describe: String,
                    expect: Expectation,
                    faults: FaultPlan,
                    net: Vec<NetFaultPlan>,
                    recv_timeout: Duration,
                    budget: Budget,
                    victim: Option<usize>| {
        list.push(Scenario {
            id: list.len(),
            name,
            describe,
            expect,
            faults,
            net,
            recv_timeout,
            budget,
            victim,
            watchdog,
        });
    };

    // 0 — control row: the soak harness itself must be transparent.
    push(
        "clean",
        "no faults".into(),
        Expectation::BitExact,
        FaultPlan::none(),
        clean_net(),
        normal_recv,
        Budget::Repairing,
        None,
    );
    // 1 — one connection reset, repaired by reconnect + replay.
    let mut net = clean_net();
    net[1] = NetFaultPlan::none().reset(0, 0);
    push(
        "reset",
        "rank 1 resets its first frame to rank 0".into(),
        Expectation::BitExact,
        FaultPlan::none(),
        net,
        normal_recv,
        Budget::Repairing,
        None,
    );
    // 2 — seeded probabilistic reset storm on every rank.
    let net = (0..p)
        .map(|r| {
            NetFaultPlan::none()
                .with_seed(rank_seed(r))
                .reset_rate(0.04)
        })
        .collect();
    push(
        "reset-storm",
        format!("4% seeded resets on every rank (seed {seed})"),
        Expectation::BitExact,
        FaultPlan::none(),
        net,
        normal_recv,
        Budget::Repairing,
        None,
    );
    // 3 — a write torn inside the frame header.
    let mut net = clean_net();
    net[2] = NetFaultPlan::none().partial_write(0, 0, 9);
    push(
        "partial-write",
        "rank 2 tears a frame to rank 0 after 9 bytes".into(),
        Expectation::BitExact,
        FaultPlan::none(),
        net,
        normal_recv,
        Budget::Repairing,
        None,
    );
    // 4 — a frame truncated mid-payload.
    let mut net = clean_net();
    net[3] = NetFaultPlan::none().truncate_frame(0, 0);
    push(
        "truncate",
        "rank 3 truncates a frame to rank 0 mid-payload".into(),
        Expectation::BitExact,
        FaultPlan::none(),
        net,
        normal_recv,
        Budget::Repairing,
        None,
    );
    // 5 — delayed delivery reorders nothing, only stretches wall clock.
    let mut net = clean_net();
    net[1] = NetFaultPlan::none().delay(0, 0, Duration::from_millis(40));
    net[2] = NetFaultPlan::none().delay(0, 0, Duration::from_millis(25));
    push(
        "delay",
        "ranks 1 and 2 delay frames to rank 0 by 40/25 ms".into(),
        Expectation::BitExact,
        FaultPlan::none(),
        net,
        normal_recv,
        Budget::Repairing,
        None,
    );
    // 6 — a stalled peer, still inside the receive deadline.
    let mut net = clean_net();
    net[2] = NetFaultPlan::none().stall(0, 0, Duration::from_millis(300));
    push(
        "stall",
        "rank 2 stalls 300 ms before a frame to rank 0".into(),
        Expectation::BitExact,
        FaultPlan::none(),
        net,
        normal_recv,
        Budget::Repairing,
        None,
    );
    // 7 — the same link lost twice.
    let mut net = clean_net();
    net[1] = NetFaultPlan::none().reset(0, 0).reset(0, 1);
    push(
        "double-reset",
        "rank 1 resets frames 0 and 1 to rank 0".into(),
        Expectation::BitExact,
        FaultPlan::none(),
        net,
        normal_recv,
        Budget::Repairing,
        None,
    );
    // 8 — independent faults on two different ranks at once.
    let mut net = clean_net();
    net[1] = NetFaultPlan::none().partial_write(0, 0, 20);
    net[3] = NetFaultPlan::none().reset(0, 0);
    push(
        "mixed",
        "rank 1 tears a write while rank 3 resets".into(),
        Expectation::BitExact,
        FaultPlan::none(),
        net,
        normal_recv,
        Budget::Repairing,
        None,
    );
    // 9 — truncation followed by a reset on the same link.
    let mut net = clean_net();
    net[2] = NetFaultPlan::none().truncate_frame(0, 0).reset(0, 1);
    push(
        "truncate-reset",
        "rank 2 truncates frame 0 then resets frame 1 to rank 0".into(),
        Expectation::BitExact,
        FaultPlan::none(),
        net,
        normal_recv,
        Budget::Repairing,
        None,
    );
    // 10 — a worker process dies at step 0 without announcing.
    let mut net = clean_net();
    net[victim] = NetFaultPlan::none().swallow_death();
    push(
        "kill-early",
        format!("rank {victim}'s process exits at step 0, death announcement swallowed"),
        Expectation::Degraded,
        FaultPlan::none().crash_rank_at_step(victim, 0),
        net,
        normal_recv,
        Budget::Repairing,
        Some(victim),
    );
    // 11 — a worker process dies mid-schedule.
    let mut net = clean_net();
    net[victim] = NetFaultPlan::none().swallow_death();
    push(
        "kill-mid",
        format!(
            "rank {victim}'s process exits at step {} of {steps}, death announcement swallowed",
            steps / 2
        ),
        Expectation::Degraded,
        FaultPlan::none().crash_rank_at_step(victim, steps / 2),
        net,
        normal_recv,
        Budget::Repairing,
        Some(victim),
    );
    // 12 — a stall longer than the receive deadline: typed timeout.
    let mut net = clean_net();
    net[2] = NetFaultPlan::none().stall(0, 0, Duration::from_millis(1500));
    push(
        "stall-past-deadline",
        "rank 2 stalls 1.5 s against a 250 ms receive deadline".into(),
        Expectation::TypedError,
        FaultPlan::none(),
        net,
        Duration::from_millis(250),
        Budget::Repairing,
        None,
    );
    // 13 — a reset with zero reconnect budget: the link death is terminal.
    let mut net = clean_net();
    net[1] = NetFaultPlan::none().reset(0, 0);
    push(
        "reset-no-budget",
        "rank 1 resets with zero reconnect attempts".into(),
        Expectation::TypedError,
        FaultPlan::none(),
        net,
        Duration::from_secs(2),
        Budget::NoReconnect,
        None,
    );
    list
}

/// The scenario ids the CI smoke stage runs: one representative of every
/// fault family (clean control, reset, truncation, process kill, typed
/// error) at a fraction of the full soak's wall clock.
pub const SMOKE_IDS: &[usize] = &[0, 1, 4, 11, 13];

/// What one worker reports back over the rendezvous control stream
/// (JSON). A killed victim reports nothing — its silence *is* the datum.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChaosResult {
    /// The reporting rank.
    pub rank: usize,
    /// How the rank's run ended.
    pub outcome: Outcome,
    /// Display of the typed error for [`Outcome::Error`], empty otherwise.
    pub detail: String,
    /// FNV-1a of the assembled frame (root only).
    pub frame_hash: Option<u64>,
    /// Ranks whose contribution is missing from the output (degraded).
    pub lost_contributions: Vec<usize>,
    /// Pixels missing at least one contribution (degraded).
    pub lost_pixels: usize,
    /// This rank's event trace, for bit-exact reconciliation.
    pub trace: RankTrace,
}

/// How a worker's run ended (shared vocabulary between worker and gate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Outcome {
    /// Clean completion.
    Ok,
    /// Completed with an exact-degraded frame.
    Degraded,
    /// Terminated with a typed error.
    Error,
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Outcome::Ok => "ok",
            Outcome::Degraded => "degraded",
            Outcome::Error => "error",
        })
    }
}

/// The in-process reference a scenario reconciles against.
pub struct Reference {
    /// Full event trace of the reference run.
    pub trace: Trace,
    /// FNV-1a of the reference frame.
    pub frame_hash: u64,
    /// Reference lost-contribution set (empty for clean runs).
    pub lost_contributions: Vec<usize>,
    /// Reference lost-pixel count (0 for clean runs).
    pub lost_pixels: usize,
}

/// Run the in-process reference for `job` under its scenario `sc`: the same
/// plan, partials, codec and envelope fault plan over the threaded backend.
/// Socket-level faults don't map (there is no socket) — which is the
/// point: a repaired run must be indistinguishable from this.
pub fn reference_run(sc: &Scenario, p: usize, job: &Job) -> Reference {
    let method = job.method();
    let plan = method
        .plan(p, job.frame, job.frame)
        .unwrap_or_else(|e| panic!("{}: {e}", method.name()));
    let config = ComposeConfig::default().with_codec(job.codec);
    let (results, trace) = Run::new(&plan, &config)
        .faults(sc.faults.clone())
        .execute(band_partials(p, job.frame, job.frame));
    let frame_img = results
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .find_map(|o| o.frame.clone())
        .unwrap_or_else(|| panic!("{}: reference run produced no frame", sc.name));
    // Survivor-side loss accounting (the victim's self-report differs:
    // it only knows about its own crash, not the repair outcome).
    let victim = sc.victim.unwrap_or(usize::MAX);
    let (lost_contributions, lost_pixels) = results
        .iter()
        .enumerate()
        .filter(|(rank, _)| *rank != victim)
        .filter_map(|(_, r)| r.as_ref().ok())
        .find_map(|o| o.degraded.clone())
        .map(|d| (d.lost_contributions, d.lost_pixels))
        .unwrap_or_default();
    Reference {
        trace,
        frame_hash: frame_hash(&frame_img),
        lost_contributions,
        lost_pixels,
    }
}

/// How one distributed scenario run ended, before gating.
pub struct DistRun {
    /// Per-rank results; `None` where no blob arrived (the victim).
    pub results: Vec<Option<ChaosResult>>,
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
}

/// Spawn `p` `netrank` worker processes on `job` (whose scenario is `sc`),
/// rendezvous them, collect their results, and reap them — all under the
/// scenario's watchdog. Any process that outlives the watchdog is killed
/// and the scenario fails; a panic (non-zero, non-victim exit) fails it too.
pub fn run_scenario(sc: &Scenario, p: usize, job: &Job, worker: &Path) -> Result<DistRun, String> {
    assert_eq!(sc.id, job.scenario, "the job names another scenario");
    let started = Instant::now();
    let deadline = |why: &str| format!("{}: watchdog expired while {why}", sc.name);
    let remaining = |started: Instant| {
        sc.watchdog
            .checked_sub(started.elapsed())
            .unwrap_or_default()
    };

    let launcher = Launcher::bind().map_err(|e| format!("{}: {e}", sc.name))?;
    let mut children = Vec::with_capacity(p);
    for rank in 0..p {
        let mut cmd = std::process::Command::new(worker);
        cmd.args(job.to_args());
        launcher
            .configure(&mut cmd, rank, p)
            .map_err(|e| format!("{}: {e}", sc.name))?;
        children.push(
            cmd.spawn()
                .map_err(|e| format!("{}: spawning rank {rank}: {e}", sc.name))?,
        );
    }
    let kill_all = |children: &mut Vec<std::process::Child>| {
        for c in children.iter_mut() {
            let _ = c.kill();
            let _ = c.wait();
        }
    };

    let mut controls = match launcher.rendezvous_within(p, Some(remaining(started))) {
        Ok(c) => c,
        Err(e) => {
            kill_all(&mut children);
            return Err(format!("{}: rendezvous failed: {e}", sc.name));
        }
    };

    // Collect result blobs. The victim's stream just closes — an EOF
    // there is expected; anywhere else it is a scenario failure.
    let mut results: Vec<Option<ChaosResult>> = Vec::with_capacity(p);
    for (rank, control) in controls.iter_mut().enumerate() {
        let left = remaining(started);
        if left.is_zero() {
            kill_all(&mut children);
            return Err(deadline("collecting results"));
        }
        if control.set_read_timeout(Some(left)).is_err() {
            results.push(None);
            continue;
        }
        match read_blob(control) {
            Ok(blob) => {
                let parsed = String::from_utf8(blob)
                    .map_err(|e| e.to_string())
                    .and_then(|text| {
                        serde_json::from_str::<ChaosResult>(&text).map_err(|e| e.to_string())
                    });
                match parsed {
                    Ok(r) => results.push(Some(r)),
                    Err(e) => {
                        kill_all(&mut children);
                        return Err(format!("{}: rank {rank} result unparsable: {e}", sc.name));
                    }
                }
            }
            Err(_) if sc.victim == Some(rank) => results.push(None),
            Err(e) => {
                kill_all(&mut children);
                return Err(format!("{}: rank {rank} sent no result: {e}", sc.name));
            }
        }
    }

    // Reap every worker under what is left of the watchdog.
    for (rank, child) in children.iter_mut().enumerate() {
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) => {
                    if remaining(started).is_zero() {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(deadline(&format!("waiting for rank {rank} to exit")));
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => return Err(format!("{}: reaping rank {rank}: {e}", sc.name)),
            }
        };
        let expected_victim = sc.victim == Some(rank);
        let code = status.code();
        if expected_victim {
            if code != Some(VICTIM_EXIT_CODE) {
                return Err(format!(
                    "{}: victim rank {rank} exited with {status}, expected code {VICTIM_EXIT_CODE}",
                    sc.name
                ));
            }
        } else if !status.success() {
            // A panic or abort, not a typed error: typed errors are
            // *reported*, and the worker still exits 0.
            return Err(format!("{}: rank {rank} exited with {status}", sc.name));
        }
    }
    Ok(DistRun {
        results,
        elapsed: started.elapsed(),
    })
}

/// Exit code a planned victim uses so the launcher can tell "died on
/// schedule" from a panic.
pub const VICTIM_EXIT_CODE: i32 = 86;

/// The trichotomy gate: judge one distributed run against its scenario's
/// expectation (and reference, where one exists). Returns a short status
/// for the report table, or the reason the scenario failed.
pub fn gate(sc: &Scenario, run: &DistRun, reference: Option<&Reference>) -> Result<String, String> {
    let fail = |why: String| Err(format!("{}: {why}", sc.name));
    match sc.expect {
        Expectation::BitExact => {
            let Some(reference) = reference else {
                return fail("bit-exact scenario ran without a reference".into());
            };
            let mut tcp = Trace::default();
            for (rank, slot) in run.results.iter().enumerate() {
                let Some(r) = slot else {
                    return fail(format!("rank {rank} reported nothing"));
                };
                if r.outcome != Outcome::Ok {
                    return fail(format!("rank {rank} ended {} ({})", r.outcome, r.detail));
                }
                tcp.ranks.push(r.trace.clone());
            }
            if tcp != reference.trace {
                return fail("event trace diverged from the in-process reference".into());
            }
            let root_hash = run.results[0].as_ref().and_then(|r| r.frame_hash);
            if root_hash != Some(reference.frame_hash) {
                return fail("root frame hash diverged from the in-process reference".into());
            }
            Ok("bit-exact, trace + frame reconciled".into())
        }
        Expectation::Degraded => {
            let Some(reference) = reference else {
                return fail("degraded scenario ran without a reference".into());
            };
            let victim = match sc.victim {
                Some(v) => v,
                None => return fail("degraded scenario has no victim".into()),
            };
            let mut lost: Option<(Vec<usize>, usize)> = None;
            for (rank, slot) in run.results.iter().enumerate() {
                if rank == victim {
                    if slot.is_some() {
                        return fail(format!("victim rank {rank} reported a result"));
                    }
                    continue;
                }
                let Some(r) = slot else {
                    return fail(format!("survivor rank {rank} reported nothing"));
                };
                if r.outcome != Outcome::Degraded {
                    return fail(format!(
                        "survivor rank {rank} ended {} ({})",
                        r.outcome, r.detail
                    ));
                }
                if r.trace != reference.trace.ranks[rank] {
                    return fail(format!(
                        "survivor rank {rank}'s trace diverged from the in-process crash run"
                    ));
                }
                lost.get_or_insert((r.lost_contributions.clone(), r.lost_pixels));
            }
            let root_hash = run.results[0].as_ref().and_then(|r| r.frame_hash);
            if root_hash != Some(reference.frame_hash) {
                return fail("degraded frame hash diverged from the in-process crash run".into());
            }
            let (contributions, pixels) = lost.unwrap_or_default();
            if contributions != reference.lost_contributions || pixels != reference.lost_pixels {
                return fail(format!(
                    "loss accounting diverged: tcp lost {contributions:?}/{pixels}px, \
                     reference lost {:?}/{}px",
                    reference.lost_contributions, reference.lost_pixels
                ));
            }
            Ok(format!(
                "exact-degraded, survivors reconciled (lost {:?}, {} px)",
                reference.lost_contributions, reference.lost_pixels
            ))
        }
        Expectation::TypedError => {
            let mut errors = Vec::new();
            for (rank, slot) in run.results.iter().enumerate() {
                let Some(r) = slot else {
                    return fail(format!("rank {rank} reported nothing"));
                };
                if r.outcome == Outcome::Error {
                    if r.detail.is_empty() {
                        return fail(format!("rank {rank} reported an error with no message"));
                    }
                    errors.push(rank);
                }
            }
            if errors.is_empty() {
                return fail("no rank reported a typed error".into());
            }
            Ok(format!("typed errors at ranks {errors:?}, all terminated"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_matrix_is_deterministic_and_big_enough() {
        let a = scenarios(4, 64, 42);
        let b = scenarios(4, 64, 42);
        assert!(a.len() >= 12, "soak needs >= 12 scenarios, got {}", a.len());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.name, y.name);
            // Probe the (to, nth) grid: the two constructions must
            // schedule identical faults (HashSet debug order is not
            // stable, so compare semantically).
            for (px, py) in x.net.iter().zip(&y.net) {
                for to in 0..4 {
                    for nth in 0..8 {
                        assert_eq!(
                            px.fault_for(to, nth),
                            py.fault_for(to, nth),
                            "{} net plans must be pure in (p, frame, seed)",
                            x.name
                        );
                    }
                }
            }
        }
        // Ids index the list — workers look themselves up by position.
        for (i, sc) in a.iter().enumerate() {
            assert_eq!(sc.id, i);
        }
    }

    #[test]
    fn every_fault_family_is_covered() {
        let list = scenarios(4, 64, 42);
        let dump = format!("{list:?}");
        for family in ["reset", "partial", "truncate", "stall", "kill"] {
            assert!(
                list.iter().any(|s| s.name.contains(family)),
                "no scenario named *{family}*: {dump}"
            );
        }
        assert!(list.iter().any(|s| s.expect == Expectation::Degraded));
        assert!(list.iter().any(|s| s.expect == Expectation::TypedError));
    }

    #[test]
    fn smoke_subset_is_valid_and_spans_the_trichotomy() {
        let list = scenarios(4, 64, 42);
        let picks: Vec<_> = SMOKE_IDS.iter().map(|&i| &list[i]).collect();
        for bucket in [
            Expectation::BitExact,
            Expectation::Degraded,
            Expectation::TypedError,
        ] {
            assert!(
                picks.iter().any(|s| s.expect == bucket),
                "smoke subset misses the {bucket:?} bucket"
            );
        }
    }

    #[test]
    fn kill_scenarios_plan_the_crash_and_swallow_its_announcement() {
        // The step lives in the envelope's fault plan and nowhere else; the
        // socket layer is only told not to let the victim say goodbye.
        let list = scenarios(4, 64, 7);
        let kill = list
            .iter()
            .find(|s| s.name == "kill-mid")
            .expect("kill-mid exists");
        let victim = kill.victim.expect("kill has a victim");
        assert!(kill.faults.crash_step_of(victim).is_some());
        assert!(kill.net[victim].swallows_death());
    }

    #[test]
    fn job_args_round_trip_the_codec_vocabulary() {
        for codec in [CodecKind::Raw, CodecKind::Rle, CodecKind::Trle] {
            let args = Job {
                codec,
                ..Job::soak(3, 64, 7)
            }
            .to_args();
            let at = args.iter().position(|a| a == "--codec").unwrap();
            assert_eq!(args[at + 1].parse::<CodecKind>(), Ok(codec));
        }
        assert_eq!(Job::soak(3, 64, 7).method(), soak_method());
    }

    #[test]
    fn reference_runs_reconcile_shapes() {
        let list = scenarios(4, 16, 42);
        let clean = reference_run(&list[0], 4, &Job::soak(0, 16, 42));
        assert_eq!(clean.lost_pixels, 0);
        assert!(clean.lost_contributions.is_empty());
        let kill = list
            .iter()
            .find(|s| s.name == "kill-early")
            .expect("kill-early exists");
        let degraded = reference_run(kill, 4, &Job::soak(kill.id, 16, 42));
        assert_eq!(degraded.lost_contributions, vec![3]);
        assert!(degraded.lost_pixels > 0);
        assert_ne!(clean.frame_hash, degraded.frame_hash);
    }
}
