//! The repository's one benchmark: five named workloads, six bounded
//! end-to-end metrics and seventy per-layer ones, with per-layer timings
//! taken from outside the program (see `README.md` beside this package).

pub mod compare;
pub mod gen;
pub mod harness;
pub mod json;
pub mod oracle;
pub mod pace;
pub mod panel;
pub mod report;
pub mod spec;
pub mod stats;
pub mod timed;
pub mod trace;
pub mod workloads;
