//! E6: observed runs of the Figure 6/7 lineup with Chrome-trace export — see [`rt_bench::profile`].

fn main() -> std::io::Result<()> {
    rt_bench::profile::run(&rt_bench::harness::argv(), &mut std::io::stdout())
}
