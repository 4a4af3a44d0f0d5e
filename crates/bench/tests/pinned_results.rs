//! Keeps `rt_bench::figures::PINNED` honest between CI runs: the entries
//! that render nothing (Table 1, Eq. 5/6, the Figure 1–2 walkthroughs)
//! are regenerated here, in process, and must match their committed files
//! byte for byte; the whole table is `figures check`'s job (`ci.sh`,
//! "reproduction pinned"). `Pinned::check` only ever compares, so a
//! workspace-wide `RT_REGENERATE_GOLDEN=1 cargo test` rewrites nothing
//! here: rewriting is `RT_REGENERATE_GOLDEN=1 figures check` alone.

use rt_bench::figures::PINNED;
use std::path::Path;

const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

#[test]
fn render_free_pinned_results_reproduce_byte_for_byte() {
    let root = Path::new(ROOT);
    let render_free = ["results/table1_", "results/bounds_", "results/walkthrough"];
    let mut checked = 0;
    for entry in PINNED {
        if render_free.iter().any(|stem| entry.file.starts_with(stem)) {
            entry.check(root).unwrap_or_else(|why| panic!("{why}"));
            checked += 1;
        }
    }
    assert_eq!(checked, 5, "the render-free entries left the table");
}

#[test]
fn the_table_pins_every_committed_result() {
    let root = Path::new(ROOT);
    let mut committed: Vec<String> = std::fs::read_dir(root.join("results"))
        .expect("results/ exists")
        .map(|e| format!("results/{}", e.unwrap().file_name().to_string_lossy()))
        .chain(["BENCH_scale.json", "BENCH_quality.json"].map(String::from))
        .collect();
    committed.sort();
    let mut pinned: Vec<String> = PINNED.iter().map(|e| e.file.to_string()).collect();
    pinned.sort();
    assert_eq!(pinned, committed);
}
