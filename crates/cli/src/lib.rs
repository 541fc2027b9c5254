//! Library backing the `kcenter` command-line tool.
//!
//! The CLI has five subcommands:
//!
//! * `generate` — write one of the nine workload families (the paper's
//!   UNIF, GAU, UNB, the Poker Hand and KDD Cup surrogates, and the
//!   adversarial EXP, DUP, GAU-HD and GAU+OUT) to a CSV file;
//! * `solve` — run GON, MRG, EIM, or Hochbaum–Shmoys on a CSV point file
//!   and print the chosen centers, the covering radius, and (for the
//!   parallel algorithms) the round-by-round cost accounting;
//! * `sweep` — build one weighted coreset and solve and certify a
//!   `(k, φ)` grid on it, against optional per-cell EIM reruns;
//! * `ingest` — fold a batched stream into a checkpointed coreset service
//!   and answer queries from its published snapshot;
//! * `info` — print basic statistics of a CSV point file (row count,
//!   dimension, bounding box, diameter estimate).
//!
//! `solve`, `sweep` and `ingest` share one run-flag group,
//! [`args::RunArgs`]: storage precision, kernel backend, assignment arm,
//! executor and thread budget, and injected faults.  One
//! `RunArgs::consume` parses it, and one install step in [`commands`]
//! resolves it against the `KCENTER_*` environment.
//!
//! All argument parsing and command execution lives in this library so it
//! can be unit-tested without spawning processes; `main.rs` is a thin shim.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;

pub use args::{Cli, Command, GenerateArgs, InfoArgs, ParseError, SolveArgs, SolverChoice};
pub use commands::{run, CommandError};
