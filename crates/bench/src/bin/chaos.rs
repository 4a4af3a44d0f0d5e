//! **Extension experiments E4 and E9 — chaos.** Without `--transport`
//! this is the in-process sweep [`rt_bench::figures::chaos`] (seeded
//! message faults and rank crashes, virtual-clock priced).
//!
//! **Extension experiment E9 — TCP chaos soak** (`--transport tcp`): the
//! same seeded-fault philosophy pushed below the envelope, onto real
//! sockets between real OS processes. A matrix of socket-level scenarios
//! (connection resets, partial writes, truncated frames, delays, stalls,
//! hard process kills — see [`rt_bench::chaosnet::scenarios`]) runs over
//! `netrank` worker processes, each gated on the trichotomy:
//! **bit-exact** (link-layer repair is invisible — trace and frame
//! reconcile against the in-process reference), **exact-degraded** (a
//! killed worker degrades the output exactly as the in-process
//! `crash_rank_at_step` run), or **typed error** (faults past the repair
//! budget fail loudly, never panic, never hang — a watchdog enforces
//! termination). `--smoke` runs the CI subset.
//!
//! Usage:
//! `cargo run -p rt-bench --release --bin chaos -- [--p 8] [--dataset engine] [--cost paper|sp2]`
//! `cargo run -p rt-bench --release --bin chaos -- --transport tcp [--smoke] [--seed N] [--frame N]`

use rt_bench::harness::{parse_flags, print_table};

/// The sibling `netrank` worker binary (same target directory).
fn worker_path() -> std::path::PathBuf {
    let mut path = std::env::current_exe().expect("own executable path");
    path.set_file_name("netrank");
    assert!(
        path.exists(),
        "worker binary {} not built — build the rt-bench bins first",
        path.display()
    );
    path
}

/// E9: the distributed soak. Exits non-zero if any scenario fails its
/// trichotomy gate.
fn tcp_soak(argv: &[String]) -> ! {
    use rt_bench::chaosnet::{gate, reference_run, run_scenario, scenarios, Job, SMOKE_IDS};

    let mut seed = 42u64;
    let mut frame = 64usize;
    let mut smoke = false;
    parse_flags(
        argv,
        "soak flags: --transport tcp  --smoke  --seed N  --frame N",
        |f| match f.name {
            "--transport" => {
                let t = f.value();
                assert_eq!(t, "tcp", "chaos soaks only the tcp transport, not '{t}'");
            }
            "--smoke" => smoke = true,
            "--seed" => seed = f.parse(),
            "--frame" => frame = f.parse(),
            // The soak matrix is tuned for exactly four ranks; accept and
            // ignore the shared flags so callers can pass a common line.
            "--p" | "--dataset" | "--cost" | "--volume" => {
                f.value();
            }
            _ => f.unknown(),
        },
    );
    const P: usize = 4;
    let worker = worker_path();
    let matrix = scenarios(P, frame, seed);
    let picks: Vec<usize> = if smoke {
        SMOKE_IDS.to_vec()
    } else {
        (0..matrix.len()).collect()
    };

    let mut rows = Vec::new();
    let mut passed = 0usize;
    let mut failures: Vec<String> = Vec::new();
    for id in &picks {
        let sc = &matrix[*id];
        let job = Job::soak(*id, frame, seed);
        let reference = sc.reconciles().then(|| reference_run(sc, P, &job));
        let verdict = run_scenario(sc, P, &job, &worker)
            .and_then(|run| gate(sc, &run, reference.as_ref()).map(|status| (run.elapsed, status)));
        let (status, took) = match verdict {
            Ok((elapsed, status)) => {
                passed += 1;
                (status, format!("{:.1}s", elapsed.as_secs_f64()))
            }
            Err(why) => {
                failures.push(why.clone());
                (format!("FAILED: {why}"), "-".into())
            }
        };
        rows.push(vec![
            sc.name.to_string(),
            sc.describe.clone(),
            sc.expect.label().to_string(),
            took,
            status,
        ]);
    }
    print_table(
        &mut std::io::stdout(),
        &format!(
            "E9 — TCP chaos soak, P = {P}, frame {frame}x{frame}, seed {seed}{}",
            if smoke { " (smoke subset)" } else { "" }
        ),
        &["scenario", "injected", "expected", "wall", "verdict"],
        &rows,
    )
    .expect("write the verdict table");
    println!(
        "chaos-tcp: {passed}/{} scenarios passed the trichotomy gate (seed {seed}, P = {P})",
        picks.len()
    );
    for why in &failures {
        eprintln!("chaos-tcp failure: {why}");
    }
    std::process::exit(if failures.is_empty() { 0 } else { 1 });
}

fn main() -> std::io::Result<()> {
    // `--transport tcp` switches to the distributed soak, whose flag
    // vocabulary differs from the sweep's.
    let argv = rt_bench::harness::argv();
    if argv.iter().any(|a| a == "--transport") {
        tcp_soak(&argv);
    }
    rt_bench::figures::chaos(&argv, &mut std::io::stdout())
}
