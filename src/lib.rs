//! `qdi` — DPA on quasi delay insensitive asynchronous circuits.
//!
//! Umbrella crate re-exporting the whole workspace, a reproduction of
//! *"DPA on Quasi Delay Insensitive Asynchronous Circuits: Formalization
//! and Improvement"* (Bouesse, Renaudin, Dumont, Germain — DATE 2005):
//!
//! * [`netlist`] — QDI gate-level netlists, 1-of-N channels, the annotated
//!   directed graph and the dual-rail symmetry checker;
//! * [`lint`] — static netlist verification: structural validity, QDI
//!   acknowledgement and encoding lints, and the DPA-leakage criteria of
//!   eqs. 10–13 as rustc-style diagnostics (also the `qdi-lint` binary);
//! * [`sim`] — event-driven simulation with four-phase environments;
//! * [`analog`] — the electrical current model (traces, pulses, noise);
//! * [`crypto`] — reference AES/DES plus dual-rail gate-level generators;
//! * [`pnr`] — flat and hierarchical place and route, extraction, and the
//!   dissymmetry criterion `dA`;
//! * [`dpa`] — selection functions, bias signals, key ranking, metrics,
//!   and the pool-backed trace campaigns (fail-fast, supervised, and the
//!   resumable `.qtrs` store runner);
//! * [`fi`] — fault-injection campaigns: fault-site enumeration, golden
//!   run comparison, deadlock/livelock/silent-corruption classification
//!   and per-channel detection coverage (also the `qdi-fi` binary);
//! * [`core`] — the paper's formal current model and the secure design
//!   flow;
//! * [`obs`] — structured tracing, metrics and profiling across the flow
//!   (spans, counters/histograms, stderr/JSONL/Chrome-trace sinks);
//! * [`serve`] — the campaign server: a multi-tenant HTTP/1.1 + JSON job
//!   API over the campaign engines with fair-share scheduling, durable
//!   per-tenant artifacts, SSE progress and crash recovery (also the
//!   `qdi-serve` and `qdi-client` binaries).
//!
//! See the `examples/` directory for end-to-end walkthroughs: a
//! quickstart on the paper's dual-rail XOR, the Fig. 6/7 signature
//! studies, a full DPA key recovery, the secure flow comparison, and the
//! DES selection function.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use qdi_analog as analog;
pub use qdi_core as core;
pub use qdi_crypto as crypto;
pub use qdi_dpa as dpa;
pub use qdi_exec as exec;
pub use qdi_fi as fi;
pub use qdi_lint as lint;
pub use qdi_netlist as netlist;
pub use qdi_obs as obs;
pub use qdi_pnr as pnr;
pub use qdi_serve as serve;
pub use qdi_sim as sim;
