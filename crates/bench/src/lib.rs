//! Shared utilities for the benchmark harness binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md §4 for the index). This library holds the pieces they
//! share: CLI parsing, timing, and table formatting.

#![warn(missing_docs)]

pub mod alloc_track;
pub mod cli;
pub mod fmt;
pub mod timing;
pub mod trajectory;

pub use cli::Args;
pub use fmt::Table;
pub use timing::{time, time_best_of};

use semisort::{PaperConfig, SemisortConfig};

/// The configuration the paper-reproduction binaries measure: the paper's
/// constants, CAS scatter included, run through
/// [`semisort::paper::try_semisort_with_stats`] rather than the engine's
/// exact distribution, so the tables keep measuring the paper's algorithm.
pub fn paper_config(seed: u64) -> PaperConfig {
    PaperConfig::new(SemisortConfig::default().with_seed(seed))
}
