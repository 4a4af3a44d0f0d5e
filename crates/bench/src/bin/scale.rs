//! E11: hierarchical compositing at P = 64..512 — see [`rt_bench::scale`].

fn main() -> std::io::Result<()> {
    rt_bench::scale::run(&rt_bench::harness::argv(), &mut std::io::stdout())
}
