//! TPC-C row types and keys.
//!
//! Monetary amounts are stored as integer cents (`i64`) and rates (tax,
//! discount) as basis points (`u32`, 1 bp = 0.01%), keeping all arithmetic
//! exact and deterministic across platforms — important because the
//! serializability tests compare replica state bit-for-bit.

pub type WId = u32;
pub type DId = u8;
pub type CId = u32;
pub type IId = u32;
pub type OId = u32;

/// Composite keys.
pub type DistrictKey = (WId, DId);
pub type CustomerKey = (WId, DId, CId);
pub type OrderKey = (WId, DId, OId);
pub type OrderLineKey = (WId, DId, OId, u8);
pub type StockKey = (WId, IId);

/// `S_DIST_xx` / `OL_DIST_INFO`: `CHAR(24)`, held inline so copying one
/// into an order line allocates nothing.
pub type DistInfo = [u8; 24];

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Warehouse {
    pub w_id: WId,
    pub name: String,
    pub street_1: String,
    pub street_2: String,
    pub city: String,
    pub state: String,
    pub zip: String,
    /// Sales tax in basis points (0..=2000 ⇒ 0%..20%).
    pub tax_bp: u32,
    pub ytd_cents: i64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct District {
    pub w_id: WId,
    pub d_id: DId,
    pub name: String,
    pub street_1: String,
    pub street_2: String,
    pub city: String,
    pub state: String,
    pub zip: String,
    pub tax_bp: u32,
    pub ytd_cents: i64,
    /// Next available order number for this district.
    pub next_o_id: OId,
}

/// Customer credit status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Credit {
    Good,
    Bad,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Customer {
    pub w_id: WId,
    pub d_id: DId,
    pub c_id: CId,
    pub first: String,
    pub middle: &'static str,
    pub last: String,
    pub street_1: String,
    pub street_2: String,
    pub city: String,
    pub state: String,
    pub zip: String,
    pub phone: String,
    pub since: u64,
    pub credit: Credit,
    pub credit_lim_cents: i64,
    /// Discount in basis points (0..=5000 ⇒ 0%..50%).
    pub discount_bp: u32,
    pub balance_cents: i64,
    pub ytd_payment_cents: i64,
    pub payment_cnt: u32,
    pub delivery_cnt: u32,
    pub data: String,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct History {
    pub c_id: CId,
    pub c_d_id: DId,
    pub c_w_id: WId,
    pub d_id: DId,
    pub w_id: WId,
    pub date: u64,
    pub amount_cents: i64,
    pub data: String,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Order {
    pub w_id: WId,
    pub d_id: DId,
    pub o_id: OId,
    pub c_id: CId,
    pub entry_d: u64,
    pub carrier_id: Option<u8>,
    pub ol_cnt: u8,
    pub all_local: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrderLine {
    pub w_id: WId,
    pub d_id: DId,
    pub o_id: OId,
    pub ol_number: u8,
    pub i_id: IId,
    pub supply_w_id: WId,
    pub delivery_d: Option<u64>,
    pub quantity: u8,
    pub amount_cents: i64,
    pub dist_info: DistInfo,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Item {
    pub i_id: IId,
    pub im_id: u32,
    pub name: String,
    pub price_cents: i64,
    pub data: String,
}

/// The updatable (partitioned) half of the vertically partitioned STOCK
/// table. Lives only at the owning warehouse's partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StockMut {
    pub quantity: i32,
    pub ytd: u32,
    pub order_cnt: u32,
    pub remote_cnt: u32,
}

/// The read-only (replicated) half of STOCK: the ten per-district info
/// strings and the data column, available at every partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StockInfo {
    pub dists: [DistInfo; 10],
    pub data: String,
}

impl StockInfo {
    /// The `S_DIST_xx` string for a district (1-based district id).
    pub fn dist_for(&self, d_id: DId) -> DistInfo {
        self.dists[(d_id - 1) as usize]
    }
}

/// Lock-key table tags (see `hcc_common::LockKey::packed`). Order tables
/// use a single coarse per-district granule: order numbers are assigned
/// from `District.next_o_id` under the district lock, so per-row order
/// locks would never be contended anyway, and coarse locks are conservative
/// (they can only add conflicts, never miss one).
pub mod lock_tags {
    pub const WAREHOUSE: u8 = 1;
    pub const DISTRICT: u8 = 2;
    pub const CUSTOMER: u8 = 3;
    /// Per-district granule over the *newest* orders: new-order inserts,
    /// order-status/stock-level scans of recent orders.
    pub const ORDERS: u8 = 4;
    pub const STOCK: u8 = 5;
    /// Coarse granule for by-last-name customer lookups.
    pub const CUSTOMER_NAME: u8 = 6;
    /// Per-district granule over the *oldest undelivered* orders: delivery
    /// consumes the NEW-ORDER head. Disjoint from the tail granule —
    /// delivery and new-order never touch the same rows (insert at the
    /// tail vs. delete at the head), so they need not conflict.
    pub const ORDERS_HEAD: u8 = 7;
}

use hcc_common::LockKey;

pub fn warehouse_lock(w: WId) -> LockKey {
    LockKey::packed(lock_tags::WAREHOUSE, w as u64)
}

pub fn district_lock(w: WId, d: DId) -> LockKey {
    LockKey::packed(lock_tags::DISTRICT, ((w as u64) << 8) | d as u64)
}

pub fn customer_lock(w: WId, d: DId, c: CId) -> LockKey {
    LockKey::packed(
        lock_tags::CUSTOMER,
        ((w as u64) << 28) | ((d as u64) << 20) | c as u64,
    )
}

pub fn orders_lock(w: WId, d: DId) -> LockKey {
    LockKey::packed(lock_tags::ORDERS, ((w as u64) << 8) | d as u64)
}

pub fn orders_head_lock(w: WId, d: DId) -> LockKey {
    LockKey::packed(lock_tags::ORDERS_HEAD, ((w as u64) << 8) | d as u64)
}

pub fn stock_lock(w: WId, i: IId) -> LockKey {
    LockKey::packed(lock_tags::STOCK, ((w as u64) << 24) | i as u64)
}

pub fn customer_name_lock(w: WId, d: DId, name_hash: u32) -> LockKey {
    LockKey::packed(
        lock_tags::CUSTOMER_NAME,
        ((w as u64) << 40) | ((d as u64) << 32) | name_hash as u64,
    )
}

/// The ten TPC-C last-name syllables (clause 4.3.2.3).
pub const LAST_NAME_SYLLABLES: [&str; 10] = [
    "BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI", "CALLY", "ATION", "EING",
];

/// Build a customer last name from a number in 0..=999.
pub fn last_name(num: u64) -> String {
    debug_assert!(num < 1000);
    let mut s = String::with_capacity(15);
    s.push_str(LAST_NAME_SYLLABLES[(num / 100 % 10) as usize]);
    s.push_str(LAST_NAME_SYLLABLES[(num / 10 % 10) as usize]);
    s.push_str(LAST_NAME_SYLLABLES[(num % 10) as usize]);
    s
}

/// FNV-1a of a last name, for the coarse name-lock granule.
pub fn name_hash(last: &str) -> u32 {
    let mut h = 0x811c_9dc5u32;
    for &b in last.as_bytes() {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h & 0x0FFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_name_composition() {
        assert_eq!(last_name(0), "BARBARBAR");
        assert_eq!(last_name(371), "PRICALLYOUGHT");
        assert_eq!(last_name(999), "EINGEINGEING");
    }

    #[test]
    fn lock_keys_distinct_across_tables() {
        let keys = [
            warehouse_lock(1),
            district_lock(1, 1),
            customer_lock(1, 1, 1),
            orders_lock(1, 1),
            stock_lock(1, 1),
            customer_name_lock(1, 1, 1),
        ];
        for i in 0..keys.len() {
            for j in (i + 1)..keys.len() {
                assert_ne!(keys[i], keys[j], "collision between {i} and {j}");
            }
        }
    }

    #[test]
    fn district_lock_separates_districts() {
        assert_ne!(district_lock(1, 1), district_lock(1, 2));
        assert_ne!(district_lock(1, 1), district_lock(2, 1));
    }

    #[test]
    fn stock_lock_separates_items() {
        assert_ne!(stock_lock(1, 10), stock_lock(1, 11));
        assert_ne!(stock_lock(1, 10), stock_lock(2, 10));
    }

    #[test]
    fn stock_info_dist_for() {
        let info = StockInfo {
            dists: std::array::from_fn(|i| [i as u8; 24]),
            data: String::new(),
        };
        assert_eq!(info.dist_for(1), [0; 24]);
        assert_eq!(info.dist_for(10), [9; 24]);
    }
}
