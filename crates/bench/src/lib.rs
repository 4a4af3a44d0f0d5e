//! # rt-bench — the paper's regeneration harness and the robustness gates
//!
//! * [`figures`] — one function per table/figure of the paper and per
//!   virtual-clock extension sweep (the `figures` binary's subcommands),
//!   and the [`figures::PINNED`] table that `figures check` holds every
//!   committed `results/*.txt` and `BENCH_{scale,quality}.json` to;
//! * [`profile`], [`scale`], [`quality`] — the experiments behind the
//!   binaries of those names (E6, E11, E12), each gated in-binary;
//! * [`chaosnet`] / [`netgrid`] — the multi-process TCP gates: the job and
//!   result vocabulary of the `netrank` worker, the chaos soak matrix it
//!   runs under (`chaos --transport tcp`) and the frame fingerprint;
//! * [`harness`] — what they share: [`harness::ScreenScene`] (a dataset
//!   rendered once into depth-ordered screen-space partials in the paper's
//!   8-bit gray wire format), [`harness::measure`] (run one `(method,
//!   codec)` combination, check the frame against the sequential
//!   reference, price the trace under a [`rt_comm::CostModel`]), the
//!   shared figure flags [`harness::Args`] and the one flag loop
//!   [`harness::parse_flags`].
//!
//! Generators write aligned tables plus machine-readable CSV lines
//! prefixed with `csv,` so results can be collected with `grep ^csv`.

#![warn(missing_docs)]

pub mod chaosnet;
pub mod figures;
pub mod harness;
pub mod netgrid;
pub mod profile;
pub mod quality;
pub mod scale;

pub use harness::{measure, Args, Measurement, ScreenScene};
