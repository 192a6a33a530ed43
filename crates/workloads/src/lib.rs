//! Workload generators and execution engines for the paper's evaluation.
//!
//! * [`micro`] — the §5.1–5.4 microbenchmark: a key/value store where each
//!   transaction reads and writes 12 keys, either all on one partition or
//!   split across two; with optional conflict keys (§5.2), forced aborts
//!   (§5.3), and a two-round "general transaction" variant (§5.4).
//! * [`tpcc`] — the modified TPC-C of §5.5–5.6: partitioned by warehouse,
//!   replicated ITEM, vertically partitioned STOCK, no client think time,
//!   fixed clients with random districts, and new-order operations
//!   reordered so user aborts never need an undo buffer.
//! * [`ycsb`] — a YCSB-style read-mostly workload over a shared Zipfian
//!   key space (skewed popularity, 95/5 read/update), on the same KV
//!   engine as the microbenchmark — plus the YCSB-E style **scan-heavy**
//!   mix (range scans + insert/delete churn over an ordered store), the
//!   fragment-length axis of the paper's §5 trade-off.
//! * [`phased`] — the microbenchmark with a per-client phase schedule
//!   (the mix shifts mid-run), the driving workload for §5.7-style
//!   adaptive scheme selection.
//!
//! Every generator here keeps its state per client, so each splits into
//! one share per client ([`hcc_core::RequestGenerator::for_client`]) and
//! the runtime draws no request under a shared lock.

#![forbid(unsafe_code)]

pub mod micro;
pub mod output;
mod per_client;
pub mod phased;
pub mod tpcc;
pub mod ycsb;

pub use micro::{MicroConfig, MicroEngine, MicroFragment, MicroWorkload};
pub use phased::{Phase, PhasedMicroWorkload};
pub use tpcc::{TpccConfig, TpccEngine, TpccFragment, TpccWorkload};
pub use ycsb::{YcsbConfig, YcsbEConfig, YcsbEWorkload, YcsbWorkload};
