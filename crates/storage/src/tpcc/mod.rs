//! TPC-C storage: schema, scaling parameters, the per-partition store with
//! undo support, the initial population loader, and consistency checks.
//!
//! Partitioning follows the paper (§5.5): the database is partitioned by
//! warehouse; the read-only ITEM table is replicated to every partition; the
//! STOCK table is vertically partitioned, with its read-only columns
//! (`S_DIST_xx`, `S_DATA`) replicated to every partition and its updatable
//! columns (`S_QUANTITY`, `S_YTD`, `S_ORDER_CNT`, `S_REMOTE_CNT`) kept at
//! the warehouse's home partition. With this layout, 89% of transactions
//! touch a single partition and every distributed transaction is a *simple*
//! multi-partition transaction (one fragment per participant, one round).

pub mod consistency;
pub mod loader;
pub mod scale;
pub mod schema;
pub mod store;

pub use loader::load_partition;
pub use scale::TpccScale;
pub use schema::*;
pub use store::{CustomerCounters, TpccStore, TpccUndo, TpccUndoBuf};
