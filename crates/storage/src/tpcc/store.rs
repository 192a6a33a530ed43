//! The per-partition TPC-C store: tables, indexes, and undo.
//!
//! The point-lookup tables (WAREHOUSE, DISTRICT, CUSTOMER, ITEM, STOCK) are
//! hash maps, as the paper has them ("Each table is represented as either a
//! B-Tree, a binary tree, or hash table, as appropriate"). A secondary index
//! maps (warehouse, district, last name) to the customer ids sharing that
//! name, for the 60% of Payment / Order-Status transactions that select
//! customers by last name.
//!
//! ORDER, NEW-ORDER and ORDER-LINE need no index. TPC-C assigns order ids
//! from `D_NEXT_O_ID`, dense from 1, so within a district an order id is an
//! array index: [`DistrictOrders`] holds a district's orders in a `Vec`
//! (order `o` at `o - 1`), all their lines in one `Vec` in order-id order,
//! NEW-ORDER as an ascending queue, and each customer's newest order id in
//! a `Vec` indexed by customer id. Every scan a procedure makes (one
//! order's lines, stock-level's recent lines, the oldest undelivered
//! order, a customer's last order) is one slice or one index, on the
//! primary and again on the backup that replays it. New-order appends at
//! the tail, delivery updates in place and consumes the NEW-ORDER head, and
//! undo pops the tail back, asserting it pops the row it recorded. Undo is
//! thus last-in-first-out per district, which is what the ORDERS and
//! ORDERS_HEAD lock granules (`schema::lock_tags`) give every scheme.

use super::schema::*;
use hcc_common::FxHashMap;
use std::collections::VecDeque;
use std::ops::Range;

/// The customer columns a transaction may change besides `data`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CustomerCounters {
    pub balance_cents: i64,
    pub ytd_payment_cents: i64,
    pub payment_cnt: u32,
    pub delivery_cnt: u32,
}

/// One undoable mutation. Update variants store the row's key and the
/// prior value of the columns a TPC-C transaction can change — never the
/// row; insert variants store the key to remove.
#[derive(Debug, Clone)]
pub enum TpccUndo {
    WarehouseYtd(WId, i64),
    /// `ytd_cents`, `next_o_id`.
    DistrictPre(DistrictKey, i64, OId),
    /// `data` is carried only when the update was about to rewrite it.
    CustomerPre(CustomerKey, CustomerCounters, Option<Box<str>>),
    StockPre(StockKey, StockMut),
    /// The order, and its customer's newest order before it (0: none).
    OrderInserted(OrderKey, OId),
    OrderCarrier(OrderKey, Option<u8>),
    OrderLineInserted(OrderLineKey),
    OrderLineDelivery(OrderLineKey, Option<u64>),
    NewOrderInserted(OrderKey),
    NewOrderDeleted(OrderKey),
    /// The appended row's `date`: the payment's transaction id.
    HistoryAppended(u64),
}

/// A per-transaction undo buffer.
#[derive(Debug, Default)]
pub struct TpccUndoBuf {
    records: Vec<TpccUndo>,
    /// Engine-assigned creation order among live buffers; see
    /// `KvUndo::birth` for the snapshot ordering contract.
    pub birth: u64,
}

impl TpccUndoBuf {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Drop all records, keeping the allocation for reuse (buffer pools).
    pub fn clear(&mut self) {
        self.records.clear();
    }

    /// Pre-size for a transaction of `n` mutations.
    pub fn reserve(&mut self, n: usize) {
        self.records.reserve(n);
    }
}

/// One district's ORDER, NEW-ORDER and ORDER-LINE rows, indexed by order
/// id (see the module doc). Only [`TpccStore`]'s mutations change it, so
/// its fields stay dense.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct DistrictOrders {
    /// Order `o` at index `o - 1`.
    pub(crate) orders: Vec<Order>,
    /// Parallel to `orders`: where each order's lines start in `lines`.
    pub(crate) first_line: Vec<u32>,
    /// Every order's lines, by order id, then line number.
    pub(crate) lines: Vec<OrderLine>,
    /// NEW-ORDER: the undelivered order ids, ascending.
    pub(crate) new_order: VecDeque<OId>,
    /// Each customer's newest order id (0: none), indexed by customer id.
    pub(crate) last_order: Vec<OId>,
}

impl DistrictOrders {
    /// No orders yet, for customers `1..=customers`.
    pub(crate) fn new(customers: CId) -> Self {
        DistrictOrders {
            last_order: vec![0; customers as usize + 1],
            ..Self::default()
        }
    }

    /// Every order line of the district, by order id.
    pub fn lines(&self) -> &[OrderLine] {
        &self.lines
    }

    /// NEW-ORDER's order ids, oldest first.
    pub fn new_orders(&self) -> impl Iterator<Item = OId> + '_ {
        self.new_order.iter().copied()
    }

    fn order(&self, o: OId) -> Option<&Order> {
        self.orders.get((o as usize).checked_sub(1)?)
    }

    fn order_mut(&mut self, o: OId) -> Option<&mut Order> {
        self.orders.get_mut((o as usize).checked_sub(1)?)
    }

    /// Index in `lines` of order `o`'s first line; `lines.len()` past the
    /// newest order.
    fn line_start(&self, o: OId) -> usize {
        match (o as usize).checked_sub(1) {
            None => 0,
            Some(i) => self
                .first_line
                .get(i)
                .map_or(self.lines.len(), |&s| s as usize),
        }
    }

    /// Where in `lines` the lines of orders `lo..hi` are.
    fn line_range(&self, lo: OId, hi: OId) -> Range<usize> {
        let start = self.line_start(lo);
        start..self.line_start(hi).max(start)
    }
}

/// All TPC-C state owned by one partition.
#[derive(Debug, Default, Clone)]
pub struct TpccStore {
    /// Warehouse ids whose partitioned data lives here.
    pub local_warehouses: Vec<WId>,
    /// Districts `1..=n` of every local warehouse (set by the loader).
    pub districts_per_warehouse: DId,
    pub warehouse: FxHashMap<WId, Warehouse>,
    pub district: FxHashMap<DistrictKey, District>,
    pub customer: FxHashMap<CustomerKey, Customer>,
    /// Secondary index: (w, d) → last name → customer ids, sorted by first
    /// name (clause 2.5.2.2 requires "ordered by C_FIRST"). Nested so a
    /// lookup borrows the name it was given instead of building an owned
    /// key: 60 % of payments and order-status calls come through here, on
    /// primary and backup.
    pub customer_by_name: FxHashMap<(WId, DId), FxHashMap<String, Vec<CId>>>,
    pub history: Vec<History>,
    /// ORDER, NEW-ORDER and ORDER-LINE of every local district (created by
    /// the loader).
    pub orders: FxHashMap<DistrictKey, DistrictOrders>,
    /// Replicated, read-only.
    pub item: FxHashMap<IId, Item>,
    /// Partitioned, updatable half of STOCK (local warehouses only).
    pub stock: FxHashMap<StockKey, StockMut>,
    /// Replicated, read-only half of STOCK (all warehouses).
    pub stock_info: FxHashMap<StockKey, StockInfo>,
}

/// What an order-table undo asserts: it removes its district's newest row.
const LIFO: &str = "undo pops the newest row of its district";

impl TpccStore {
    pub fn new() -> Self {
        Self::default()
    }

    fn push_undo(undo: Option<&mut TpccUndoBuf>, rec: TpccUndo) {
        if let Some(u) = undo {
            u.records.push(rec);
        }
    }

    fn district_orders_mut(&mut self, w: WId, d: DId) -> &mut DistrictOrders {
        self.orders
            .get_mut(&(w, d))
            .unwrap_or_else(|| panic!("district ({w}, {d}) has no order tables"))
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    pub fn warehouse(&self, w: WId) -> Option<&Warehouse> {
        self.warehouse.get(&w)
    }

    pub fn district(&self, w: WId, d: DId) -> Option<&District> {
        self.district.get(&(w, d))
    }

    /// District ids of warehouse `w`, ascending; empty if `w` is not local.
    pub fn districts_of(&self, w: WId) -> std::ops::RangeInclusive<DId> {
        let n = if self.warehouse.contains_key(&w) {
            self.districts_per_warehouse
        } else {
            0
        };
        1..=n
    }

    pub fn customer(&self, w: WId, d: DId, c: CId) -> Option<&Customer> {
        self.customer.get(&(w, d, c))
    }

    pub fn item(&self, i: IId) -> Option<&Item> {
        self.item.get(&i)
    }

    pub fn stock_mut_row(&self, w: WId, i: IId) -> Option<&StockMut> {
        self.stock.get(&(w, i))
    }

    pub fn stock_info_row(&self, w: WId, i: IId) -> Option<&StockInfo> {
        self.stock_info.get(&(w, i))
    }

    /// Customer ids with the given last name, sorted by first name.
    pub fn customers_by_last_name(&self, w: WId, d: DId, last: &str) -> &[CId] {
        self.customer_by_name
            .get(&(w, d))
            .and_then(|by_name| by_name.get(last))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The spec's "customer at position ⌈n/2⌉ in the list sorted by first
    /// name" rule for by-name selection (clause 2.5.2.2).
    pub fn customer_by_name_midpoint(&self, w: WId, d: DId, last: &str) -> Option<CId> {
        let ids = self.customers_by_last_name(w, d, last);
        if ids.is_empty() {
            None
        } else {
            Some(ids[ids.len().div_ceil(2) - 1])
        }
    }

    /// Order `o` of district `(w, d)`: one index.
    pub fn order(&self, w: WId, d: DId, o: OId) -> Option<&Order> {
        self.orders.get(&(w, d))?.order(o)
    }

    /// Most recent order placed by a customer.
    pub fn last_order_of(&self, w: WId, d: DId, c: CId) -> Option<&Order> {
        let dist = self.orders.get(&(w, d))?;
        dist.order(*dist.last_order.get(c as usize)?)
    }

    /// Oldest undelivered order in a district (head of NEW-ORDER).
    pub fn oldest_new_order(&self, w: WId, d: DId) -> Option<OId> {
        self.orders.get(&(w, d))?.new_order.front().copied()
    }

    /// All order lines of one order.
    pub fn order_lines(&self, w: WId, d: DId, o: OId) -> impl Iterator<Item = &OrderLine> {
        self.lines_of_orders(w, d, o, o.saturating_add(1)).iter()
    }

    /// Order lines of the last `n` orders before `next_o_id` (Stock-Level).
    pub fn recent_order_lines(
        &self,
        w: WId,
        d: DId,
        next_o_id: OId,
        n: u32,
    ) -> impl Iterator<Item = &OrderLine> {
        self.lines_of_orders(w, d, next_o_id.saturating_sub(n), next_o_id)
            .iter()
    }

    /// The lines of orders `lo..hi` of district `(w, d)`: one slice.
    fn lines_of_orders(&self, w: WId, d: DId, lo: OId, hi: OId) -> &[OrderLine] {
        match self.orders.get(&(w, d)) {
            Some(dist) => &dist.lines[dist.line_range(lo, hi)],
            None => &[],
        }
    }

    // ------------------------------------------------------------------
    // Mutations (all optionally undo-logged)
    // ------------------------------------------------------------------

    // An update's undo record restores the columns named on its variant;
    // `f` must change no others.

    /// Apply `f` (which may change `ytd_cents`) to the warehouse row.
    pub fn update_warehouse(
        &mut self,
        w: WId,
        undo: Option<&mut TpccUndoBuf>,
        f: impl FnOnce(&mut Warehouse),
    ) -> bool {
        match self.warehouse.get_mut(&w) {
            Some(row) => {
                Self::push_undo(undo, TpccUndo::WarehouseYtd(w, row.ytd_cents));
                f(row);
                true
            }
            None => false,
        }
    }

    /// Apply `f` (which may change `ytd_cents` and `next_o_id`) to the
    /// district row.
    pub fn update_district(
        &mut self,
        w: WId,
        d: DId,
        undo: Option<&mut TpccUndoBuf>,
        f: impl FnOnce(&mut District),
    ) -> bool {
        match self.district.get_mut(&(w, d)) {
            Some(row) => {
                let pre = TpccUndo::DistrictPre((w, d), row.ytd_cents, row.next_o_id);
                Self::push_undo(undo, pre);
                f(row);
                true
            }
            None => false,
        }
    }

    /// Apply `f` (which may change the [`CustomerCounters`] columns) to the
    /// customer row.
    pub fn update_customer(
        &mut self,
        w: WId,
        d: DId,
        c: CId,
        undo: Option<&mut TpccUndoBuf>,
        f: impl FnOnce(&mut Customer),
    ) -> bool {
        self.update_customer_and_data(w, d, c, undo, |_| false, f)
    }

    /// As [`update_customer`](Self::update_customer), for an `f` that also
    /// rewrites `data` on the rows `rewrites_data` accepts: only those pay
    /// for a copy of it.
    pub fn update_customer_and_data(
        &mut self,
        w: WId,
        d: DId,
        c: CId,
        undo: Option<&mut TpccUndoBuf>,
        rewrites_data: impl FnOnce(&Customer) -> bool,
        f: impl FnOnce(&mut Customer),
    ) -> bool {
        match self.customer.get_mut(&(w, d, c)) {
            Some(row) => {
                if let Some(u) = undo {
                    let counters = CustomerCounters {
                        balance_cents: row.balance_cents,
                        ytd_payment_cents: row.ytd_payment_cents,
                        payment_cnt: row.payment_cnt,
                        delivery_cnt: row.delivery_cnt,
                    };
                    let data = rewrites_data(row).then(|| row.data.as_str().into());
                    u.records
                        .push(TpccUndo::CustomerPre((w, d, c), counters, data));
                }
                f(row);
                true
            }
            None => false,
        }
    }

    pub fn update_stock(
        &mut self,
        w: WId,
        i: IId,
        undo: Option<&mut TpccUndoBuf>,
        f: impl FnOnce(&mut StockMut),
    ) -> bool {
        match self.stock.get_mut(&(w, i)) {
            Some(row) => {
                Self::push_undo(undo, TpccUndo::StockPre((w, i), *row));
                f(row);
                true
            }
            None => false,
        }
    }

    /// Apply `f` (which may change `carrier_id`) to the order row.
    pub fn update_order(
        &mut self,
        key: OrderKey,
        undo: Option<&mut TpccUndoBuf>,
        f: impl FnOnce(&mut Order),
    ) -> bool {
        let (w, d, o) = key;
        match self
            .orders
            .get_mut(&(w, d))
            .and_then(|dist| dist.order_mut(o))
        {
            Some(row) => {
                Self::push_undo(undo, TpccUndo::OrderCarrier(key, row.carrier_id));
                f(row);
                true
            }
            None => false,
        }
    }

    /// Stamp `date` on every line of order `(w, d, o)` in one pass over its
    /// slice. Returns the number of lines and the sum of their amounts.
    pub fn deliver_order_lines(
        &mut self,
        (w, d, o): OrderKey,
        date: u64,
        mut undo: Option<&mut TpccUndoBuf>,
    ) -> (u32, i64) {
        let (mut lines, mut amount) = (0u32, 0i64);
        let Some(dist) = self.orders.get_mut(&(w, d)) else {
            return (lines, amount);
        };
        let range = dist.line_range(o, o.saturating_add(1));
        for ol in &mut dist.lines[range] {
            let pre = TpccUndo::OrderLineDelivery((w, d, o, ol.ol_number), ol.delivery_d);
            Self::push_undo(undo.as_deref_mut(), pre);
            ol.delivery_d = Some(date);
            lines += 1;
            amount += ol.amount_cents;
        }
        (lines, amount)
    }

    /// Append `row`, which must be its district's next order.
    pub fn insert_order(&mut self, row: Order, undo: Option<&mut TpccUndoBuf>) {
        let key = (row.w_id, row.d_id, row.o_id);
        let dist = self.district_orders_mut(row.w_id, row.d_id);
        assert_eq!(
            row.o_id as usize,
            dist.orders.len() + 1,
            "order ids are dense: {key:?} is not its district's next order"
        );
        let last = &mut dist.last_order[row.c_id as usize];
        Self::push_undo(undo, TpccUndo::OrderInserted(key, *last));
        *last = row.o_id;
        dist.first_line.push(dist.lines.len() as u32);
        dist.orders.push(row);
    }

    /// Append `row`, which must be the next line of its district's newest
    /// order.
    pub fn insert_order_line(&mut self, row: OrderLine, undo: Option<&mut TpccUndoBuf>) {
        let key = (row.w_id, row.d_id, row.o_id, row.ol_number);
        let dist = self.district_orders_mut(row.w_id, row.d_id);
        let newest = dist.orders.last().map(|o| o.o_id);
        let next_line = dist.lines.len() - dist.line_start(row.o_id) + 1;
        assert!(
            newest == Some(row.o_id) && row.ol_number as usize == next_line,
            "order lines are appended in order: {key:?} is not line {next_line} of order {newest:?}"
        );
        Self::push_undo(undo, TpccUndo::OrderLineInserted(key));
        dist.lines.push(row);
    }

    /// Queue order `o` as undelivered; it must be newer than every queued
    /// order.
    pub fn insert_new_order(&mut self, key: OrderKey, undo: Option<&mut TpccUndoBuf>) {
        let (w, d, o) = key;
        let queue = &mut self.district_orders_mut(w, d).new_order;
        assert!(
            queue.back().is_none_or(|&newest| newest < o),
            "NEW-ORDER is queued in order: {key:?} after {:?}",
            queue.back()
        );
        Self::push_undo(undo, TpccUndo::NewOrderInserted(key));
        queue.push_back(o);
    }

    /// Remove order `o` from NEW-ORDER (delivery takes the head); false if
    /// it is not queued.
    pub fn delete_new_order(&mut self, key: OrderKey, undo: Option<&mut TpccUndoBuf>) -> bool {
        let (w, d, o) = key;
        let Some(queue) = self.orders.get_mut(&(w, d)).map(|dist| &mut dist.new_order) else {
            return false;
        };
        let Ok(i) = queue.binary_search(&o) else {
            return false;
        };
        queue.remove(i);
        Self::push_undo(undo, TpccUndo::NewOrderDeleted(key));
        true
    }

    pub fn append_history(&mut self, row: History, undo: Option<&mut TpccUndoBuf>) {
        Self::push_undo(undo, TpccUndo::HistoryAppended(row.date));
        self.history.push(row);
    }

    // ------------------------------------------------------------------
    // Rollback
    // ------------------------------------------------------------------

    /// Undo every mutation in the buffer, most recent first.
    pub fn rollback(&mut self, mut undo: TpccUndoBuf) {
        self.rollback_reuse(&mut undo);
    }

    /// As [`rollback`](TpccStore::rollback), but leaves the (now empty)
    /// buffer's allocation intact so the caller can pool it.
    pub fn rollback_reuse(&mut self, undo: &mut TpccUndoBuf) {
        for rec in undo.records.drain(..).rev() {
            self.apply_undo(rec);
        }
    }

    /// Apply `undo` without consuming it — for building a committed-state
    /// copy of a store with live transactions (see `KvStore::rollback_copy`
    /// for the contract).
    pub fn rollback_copy(&mut self, undo: &TpccUndoBuf) {
        for rec in undo.records.iter().rev() {
            self.apply_undo(rec.clone());
        }
    }

    /// Every record names a row its transaction updated or inserted, and
    /// rows are never deleted, so a missing row is a broken undo chain.
    fn apply_undo(&mut self, rec: TpccUndo) {
        const LIVE: &str = "undo record names a live row";
        match rec {
            TpccUndo::WarehouseYtd(w, ytd) => {
                self.warehouse.get_mut(&w).expect(LIVE).ytd_cents = ytd;
            }
            TpccUndo::DistrictPre(key, ytd, next_o_id) => {
                let row = self.district.get_mut(&key).expect(LIVE);
                row.ytd_cents = ytd;
                row.next_o_id = next_o_id;
            }
            TpccUndo::CustomerPre(key, counters, data) => {
                let row = self.customer.get_mut(&key).expect(LIVE);
                row.balance_cents = counters.balance_cents;
                row.ytd_payment_cents = counters.ytd_payment_cents;
                row.payment_cnt = counters.payment_cnt;
                row.delivery_cnt = counters.delivery_cnt;
                if let Some(data) = data {
                    row.data = data.into();
                }
            }
            TpccUndo::StockPre(key, row) => {
                *self.stock.get_mut(&key).expect(LIVE) = row;
            }
            TpccUndo::OrderInserted((w, d, o), prev_last) => {
                let dist = self.orders.get_mut(&(w, d)).expect(LIVE);
                let row = dist.orders.pop().expect(LIVE);
                assert_eq!(row.o_id, o, "{LIFO}");
                let lines_gone = dist.first_line.pop() == Some(dist.lines.len() as u32);
                assert!(lines_gone, "{LIFO}: order ({w}, {d}, {o}) still has lines");
                dist.last_order[row.c_id as usize] = prev_last;
            }
            TpccUndo::OrderCarrier((w, d, o), carrier_id) => {
                let dist = self.orders.get_mut(&(w, d)).expect(LIVE);
                dist.order_mut(o).expect(LIVE).carrier_id = carrier_id;
            }
            TpccUndo::OrderLineInserted((w, d, o, n)) => {
                let dist = self.orders.get_mut(&(w, d)).expect(LIVE);
                let row = dist.lines.pop().expect(LIVE);
                assert_eq!((row.o_id, row.ol_number), (o, n), "{LIFO}");
            }
            TpccUndo::OrderLineDelivery((w, d, o, n), delivery_d) => {
                let dist = self.orders.get_mut(&(w, d)).expect(LIVE);
                let i = dist.line_start(o) + n as usize - 1;
                let row = dist
                    .lines
                    .get_mut(i)
                    .filter(|ol| (ol.o_id, ol.ol_number) == (o, n))
                    .expect(LIVE);
                row.delivery_d = delivery_d;
            }
            TpccUndo::NewOrderInserted((w, d, o)) => {
                let dist = self.orders.get_mut(&(w, d)).expect(LIVE);
                assert_eq!(dist.new_order.pop_back(), Some(o), "{LIFO}");
            }
            TpccUndo::NewOrderDeleted((w, d, o)) => {
                let queue = &mut self.orders.get_mut(&(w, d)).expect(LIVE).new_order;
                let Err(i) = queue.binary_search(&o) else {
                    panic!("NEW-ORDER ({w}, {d}, {o}) restored while queued");
                };
                queue.insert(i, o);
            }
            TpccUndo::HistoryAppended(date) => {
                // Not `pop`: a payment that appended after this one may
                // still commit, and its row must stay.
                let i = self.history.iter().rposition(|h| h.date == date);
                self.history.remove(i.expect(LIVE));
            }
        }
    }

    /// Order-independent fingerprint of all partitioned state, for replica
    /// comparison and rollback tests. Replicated read-only tables (ITEM,
    /// STOCK-info) are excluded: they never change.
    pub fn fingerprint(&self) -> u64 {
        let mut acc = 0u64;
        let mut mix = |h: u64| acc ^= h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for w in self.warehouse.values() {
            mix(fnv(&[w.w_id as u64, w.ytd_cents as u64]));
        }
        for d in self.district.values() {
            mix(fnv(&[
                d.w_id as u64,
                d.d_id as u64,
                d.ytd_cents as u64,
                d.next_o_id as u64,
            ]));
        }
        for c in self.customer.values() {
            mix(fnv(&[
                c.w_id as u64,
                c.d_id as u64,
                c.c_id as u64,
                c.balance_cents as u64,
                c.ytd_payment_cents as u64,
                c.payment_cnt as u64,
                c.delivery_cnt as u64,
                c.data.len() as u64,
            ]));
        }
        for s in self.stock.iter() {
            mix(fnv(&[
                s.0 .0 as u64,
                s.0 .1 as u64,
                s.1.quantity as u64,
                s.1.ytd as u64,
                s.1.order_cnt as u64,
                s.1.remote_cnt as u64,
            ]));
        }
        for (&(w, d), dist) in &self.orders {
            for o in &dist.orders {
                mix(fnv(&[
                    w as u64,
                    d as u64,
                    o.o_id as u64,
                    o.c_id as u64,
                    o.carrier_id.map(|c| c as u64 + 1).unwrap_or(0),
                    o.ol_cnt as u64,
                ]));
            }
            for &o in &dist.new_order {
                mix(fnv(&[0xA0, w as u64, d as u64, o as u64]));
            }
            for ol in &dist.lines {
                mix(fnv(&[
                    w as u64,
                    d as u64,
                    ol.o_id as u64,
                    ol.ol_number as u64,
                    ol.i_id as u64,
                    ol.amount_cents as u64,
                    ol.delivery_d.map(|d| d + 1).unwrap_or(0),
                ]));
            }
        }
        mix(fnv(&[self.history.len() as u64]));
        acc
    }
}

fn fnv(words: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &w in words {
        for i in 0..8 {
            h ^= (w >> (i * 8)) & 0xFF;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::super::loader::load_partition;
    use super::super::scale::TpccScale;
    use super::*;

    fn store() -> TpccStore {
        let mut s = TpccStore::new();
        load_partition(&mut s, &[1], 1, &TpccScale::tiny(), 11);
        s
    }

    #[test]
    fn update_warehouse_records_preimage_and_rolls_back() {
        let mut s = store();
        let fp = s.fingerprint();
        let mut undo = TpccUndoBuf::new();
        assert!(s.update_warehouse(1, Some(&mut undo), |w| w.ytd_cents += 500));
        assert_ne!(s.fingerprint(), fp);
        s.rollback(undo);
        assert_eq!(s.fingerprint(), fp);
    }

    #[test]
    fn update_missing_rows_return_false() {
        let mut s = store();
        assert!(!s.update_warehouse(99, None, |_| {}));
        assert!(!s.update_district(99, 1, None, |_| {}));
        assert!(!s.update_customer(99, 1, 1, None, |_| {}));
        assert!(!s.update_stock(99, 1, None, |_| {}));
        assert!(!s.update_order((99, 1, 1), None, |_| {}));
        assert!(!s.delete_new_order((99, 1, 1), None));
    }

    #[test]
    fn insert_order_maintains_customer_index() {
        let mut s = store();
        let next = s.district(1, 1).unwrap().next_o_id;
        s.insert_order(
            Order {
                w_id: 1,
                d_id: 1,
                o_id: next,
                c_id: 7,
                entry_d: 42,
                carrier_id: None,
                ol_cnt: 0,
                all_local: true,
            },
            None,
        );
        let last = s.last_order_of(1, 1, 7).unwrap();
        assert_eq!(last.o_id, next);
        assert_eq!(last.entry_d, 42);
    }

    #[test]
    fn rollback_insert_order_removes_both_indexes() {
        let mut s = store();
        let fp = s.fingerprint();
        let before_last = s.last_order_of(1, 1, 7).map(|o| o.o_id);
        let next = s.district(1, 1).unwrap().next_o_id;
        let mut undo = TpccUndoBuf::new();
        s.insert_order(
            Order {
                w_id: 1,
                d_id: 1,
                o_id: next,
                c_id: 7,
                entry_d: 42,
                carrier_id: None,
                ol_cnt: 2,
                all_local: true,
            },
            Some(&mut undo),
        );
        s.insert_order_line(
            OrderLine {
                w_id: 1,
                d_id: 1,
                o_id: next,
                ol_number: 1,
                i_id: 1,
                supply_w_id: 1,
                delivery_d: None,
                quantity: 5,
                amount_cents: 100,
                dist_info: [0; 24],
            },
            Some(&mut undo),
        );
        s.insert_new_order((1, 1, next), Some(&mut undo));
        s.rollback(undo);
        assert_eq!(s.fingerprint(), fp);
        assert_eq!(s.last_order_of(1, 1, 7).map(|o| o.o_id), before_last);
        assert!(s.order(1, 1, next).is_none());
    }

    #[test]
    fn delete_new_order_rolls_back() {
        let mut s = store();
        let fp = s.fingerprint();
        let oldest = s.oldest_new_order(1, 1).unwrap();
        let mut undo = TpccUndoBuf::new();
        assert!(s.delete_new_order((1, 1, oldest), Some(&mut undo)));
        assert_ne!(s.oldest_new_order(1, 1), Some(oldest));
        s.rollback(undo);
        assert_eq!(s.oldest_new_order(1, 1), Some(oldest));
        assert_eq!(s.fingerprint(), fp);
    }

    #[test]
    fn history_append_rolls_back() {
        let mut s = store();
        let n = s.history.len();
        let mut undo = TpccUndoBuf::new();
        s.append_history(
            History {
                c_id: 1,
                c_d_id: 1,
                c_w_id: 1,
                d_id: 1,
                w_id: 1,
                date: 1,
                amount_cents: 1,
                data: String::new(),
            },
            Some(&mut undo),
        );
        assert_eq!(s.history.len(), n + 1);
        s.rollback(undo);
        assert_eq!(s.history.len(), n);
    }

    #[test]
    fn interleaved_mutations_roll_back_to_exact_state() {
        let mut s = store();
        let fp = s.fingerprint();
        let mut undo = TpccUndoBuf::new();
        s.update_district(1, 1, Some(&mut undo), |d| {
            d.ytd_cents += 10;
            d.next_o_id += 1;
        });
        s.update_customer(1, 1, 3, Some(&mut undo), |c| c.balance_cents -= 10_000);
        s.update_stock(1, 5, Some(&mut undo), |st| {
            st.quantity -= 3;
            st.ytd += 3;
            st.order_cnt += 1;
        });
        s.update_warehouse(1, Some(&mut undo), |w| w.ytd_cents += 10);
        assert_eq!(undo.len(), 4);
        s.rollback(undo);
        assert_eq!(s.fingerprint(), fp);
    }

    /// An undo record is a key and a few columns, never a row.
    #[test]
    fn undo_records_hold_columns_not_rows() {
        let size = std::mem::size_of::<TpccUndo>();
        assert!(size <= 56, "TpccUndo grew to {size} bytes");
    }

    #[test]
    fn deliver_order_lines_stamps_one_order_and_rolls_back() {
        let mut s = store();
        let before = s.orders.clone();
        let o = s.oldest_new_order(1, 1).unwrap();
        let want: Vec<_> = s.order_lines(1, 1, o).map(|ol| ol.amount_cents).collect();
        let mut undo = TpccUndoBuf::new();
        let (lines, amount) = s.deliver_order_lines((1, 1, o), 77, Some(&mut undo));
        assert_eq!(lines as usize, want.len());
        assert_eq!(amount, want.iter().sum::<i64>());
        assert_eq!(undo.len(), want.len());
        assert!(s.order_lines(1, 1, o).all(|ol| ol.delivery_d == Some(77)));
        // Neighbouring orders are untouched.
        assert!(s.order_lines(1, 1, o + 1).all(|ol| ol.delivery_d.is_none()));
        s.rollback(undo);
        assert!(s.orders == before);
    }

    #[test]
    fn districts_of_covers_local_warehouses_only() {
        let s = store();
        assert_eq!(s.districts_of(1).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(s.districts_of(9).count(), 0);
    }

    #[test]
    fn customer_midpoint_rule() {
        let mut s = TpccStore::new();
        // Three customers named SAME, first names A < B < C.
        for (c_id, first) in [(1u32, "A"), (2, "B"), (3, "C")] {
            s.customer.insert(
                (1, 1, c_id),
                Customer {
                    w_id: 1,
                    d_id: 1,
                    c_id,
                    first: first.into(),
                    middle: "OE",
                    last: "SAME".into(),
                    street_1: String::new(),
                    street_2: String::new(),
                    city: String::new(),
                    state: String::new(),
                    zip: String::new(),
                    phone: String::new(),
                    since: 0,
                    credit: Credit::Good,
                    credit_lim_cents: 0,
                    discount_bp: 0,
                    balance_cents: 0,
                    ytd_payment_cents: 0,
                    payment_cnt: 0,
                    delivery_cnt: 0,
                    data: String::new(),
                },
            );
        }
        s.customer_by_name
            .entry((1, 1))
            .or_default()
            .insert("SAME".into(), vec![1, 2, 3]);
        // ceil(3/2) = 2nd in first-name order = c_id 2.
        assert_eq!(s.customer_by_name_midpoint(1, 1, "SAME"), Some(2));
        assert_eq!(s.customer_by_name_midpoint(1, 1, "NOBODY"), None);
    }

    #[test]
    fn recent_order_lines_window() {
        let s = store();
        let d = s.district(1, 1).unwrap();
        let all: Vec<_> = s.recent_order_lines(1, 1, d.next_o_id, 20).collect();
        assert!(!all.is_empty());
        for ol in &all {
            assert!(ol.o_id >= d.next_o_id.saturating_sub(20) && ol.o_id < d.next_o_id);
        }
        let want: usize = (d.next_o_id - 20..d.next_o_id)
            .map(|o| s.order(1, 1, o).unwrap().ol_cnt as usize)
            .sum();
        assert_eq!(all.len(), want, "every line of the last 20 orders");
    }

    fn order(s: &TpccStore, c_id: CId) -> Order {
        Order {
            w_id: 1,
            d_id: 1,
            o_id: s.district(1, 1).unwrap().next_o_id,
            c_id,
            entry_d: 42,
            carrier_id: None,
            ol_cnt: 0,
            all_local: true,
        }
    }

    #[test]
    #[should_panic(expected = "order ids are dense")]
    fn inserting_an_order_out_of_sequence_panics() {
        let mut s = store();
        let mut row = order(&s, 7);
        row.o_id += 1;
        s.insert_order(row, None);
    }

    /// Per-district undo is last-in-first-out: undoing an order that a
    /// newer one followed is a broken schedule, and must not pass quietly.
    #[test]
    #[should_panic(expected = "undo pops the newest row of its district")]
    fn rolling_back_a_non_newest_order_panics() {
        let mut s = store();
        let (mut older, mut newer) = (TpccUndoBuf::new(), TpccUndoBuf::new());
        s.insert_order(order(&s, 7), Some(&mut older));
        s.update_district(1, 1, None, |d| d.next_o_id += 1);
        s.insert_order(order(&s, 8), Some(&mut newer));
        s.rollback(older);
    }

    #[test]
    fn order_lines_iter_exact() {
        let s = store();
        let ord = s.order(1, 1, 1).unwrap();
        let lines: Vec<_> = s.order_lines(1, 1, 1).collect();
        assert_eq!(lines.len(), ord.ol_cnt as usize);
    }
}
