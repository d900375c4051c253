//! Shared plumbing for the experiment binaries.
//!
//! The campaign subsystem, result-file helpers and the table printer live
//! in `lsps_scenario`, which the binaries import directly; this crate adds
//! only the binary-facing convenience [`write_csv`].
//!
//! Every binary writes machine-readable CSV under `results/` (created at
//! the workspace root when run from inside it) and a human-readable table
//! on stdout.

use lsps_scenario::{results_dir, write_file_atomic};

/// Write CSV content to `results/<name>` (atomically — see
/// [`write_file_atomic`]) and report the path on stdout.
pub fn write_csv(name: &str, content: &str) {
    let path = write_file_atomic(&results_dir(), name, content);
    println!("\n[written] {}", path.display());
}
