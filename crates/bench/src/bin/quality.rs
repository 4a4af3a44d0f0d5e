//! E12: the approximate-puzzlepiece quality grid — see [`rt_bench::quality`].

fn main() -> std::io::Result<()> {
    rt_bench::quality::run(&rt_bench::harness::argv(), &mut std::io::stdout())
}
