//! Regenerates every table and figure of the paper — one subcommand each —
//! and holds the committed results to the code:
//!
//! ```text
//! cargo run --release -p rt-bench --bin figures -- fig6 --cost sp2 --all
//! cargo run --release -p rt-bench --bin figures -- check
//! ```
//!
//! `check` (run from the repository root) regenerates every entry of
//! [`rt_bench::figures::PINNED`] in process and exits non-zero naming each
//! committed file that drifted and its first differing line; with
//! `RT_REGENERATE_GOLDEN` set it rewrites the files instead and says so.

use rt_bench::figures::{PINNED, SUBCOMMANDS};
use std::path::Path;

fn usage() -> ! {
    eprintln!(
        "usage: figures <subcommand> [flags]   (figures <subcommand> --help lists the flags)\n"
    );
    for (name, what, _) in SUBCOMMANDS {
        eprintln!("  {name:<12} {what}");
    }
    eprintln!(
        "  {:<12} regenerate all {} committed results and diff them against the files",
        "check",
        PINNED.len()
    );
    std::process::exit(2);
}

fn main() -> std::io::Result<()> {
    let argv = rt_bench::harness::argv();
    let Some((name, flags)) = argv.split_first() else {
        usage()
    };
    if name == "check" {
        let root = Path::new(".");
        let rewrite = std::env::var_os("RT_REGENERATE_GOLDEN").is_some();
        let mut failed = 0;
        for entry in PINNED {
            let outcome = if rewrite {
                entry.rewrite(root).map(|()| "rewrote")
            } else {
                entry.check(root).map(|()| "pinned ")
            };
            match outcome {
                Ok(verdict) => println!("{verdict}  {}", entry.file),
                Err(why) => {
                    failed += 1;
                    println!("DRIFTED  {}", entry.file);
                    eprintln!("{why}");
                }
            }
        }
        println!(
            "{} of {} committed results {}",
            PINNED.len() - failed,
            PINNED.len(),
            if rewrite {
                "rewritten"
            } else {
                "reproduce byte for byte"
            }
        );
        std::process::exit(if failed == 0 { 0 } else { 1 });
    }
    match SUBCOMMANDS.iter().find(|(n, ..)| n == name) {
        Some((.., generator)) => generator(flags, &mut std::io::stdout()),
        None => usage(),
    }
}
